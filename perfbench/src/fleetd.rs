//! `fleetd-resident`: one caller admitting rounds back to back into the
//! resident fleet service at the 10⁶-home rung, with obs enabled and one
//! `/metrics` scrape per round.
//!
//! Every run ends with a small durable episode (untimed in the
//! end-to-end run): admit, drop the service, recover from the store,
//! admit once more. It checks recovery and gives the traced run the
//! `store` layer's numbers. A workload timing the durable store end to
//! end was tried and dropped: on the virtual disk the same rounds took
//! between 0.5 and 1.7 s from run to run.

use crate::stats::{self, Tally};
use crate::trace;
use crate::{Metric, Outcome, Params};
use fleetd::store::{self, DurableStore, Manifest};
use fleetd::{
    codec, synthetic_chunk, CheckpointStore, FleetService, FleetdConfig, MetricsServer, StoreConfig,
};
use iot_privacy::obs;
use iot_privacy::stream::{StreamState, ThresholdStream};
use iot_privacy::timeseries::rng::derive_seed;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Shards of the service (the `fleet_scale` ladder's layout).
const SHARDS: usize = 64;
/// Readings per home per round.
const SAMPLES_PER_ROUND: usize = 30;
/// Homes whose outputs are re-derived from scratch after every episode;
/// the traced run replays the service's layer calls on the same homes.
const SAMPLED_HOMES: usize = 512;
/// Digests per episode (a read: every one must agree); `digest_s` is
/// their median.
const DIGESTS: usize = 3;
/// Set-ups per run (at least; more while they take under 0.5 s in
/// total); `setup_s` is their median.
const SETUPS: usize = 5;

/// One workload's shape.
struct Shape {
    homes: usize,
    rounds: u64,
    durable: bool,
}

const RESIDENT: Shape = Shape {
    homes: 1_000_000,
    rounds: 8,
    durable: false,
};

const DURABLE: Shape = Shape {
    homes: 10_000,
    rounds: 4,
    durable: true,
};

/// Parent of every run's scratch space, under the directory the
/// benchmark runs in.
const WORK_ROOT: &str = ".perfbench-work";

/// This run's scratch space for durable stores.
fn work_dir() -> PathBuf {
    Path::new(WORK_ROOT).join(format!("fleetd-{}", std::process::id()))
}

/// Removes this run's scratch space, and the parent once it is empty.
fn clean_work_dir() {
    let _ = std::fs::remove_dir_all(work_dir());
    let _ = std::fs::remove_dir(WORK_ROOT);
}

fn config(shape: &Shape, seed: u64) -> FleetdConfig {
    FleetdConfig {
        shards: SHARDS,
        resident_cap: Some(shape.homes / 8),
        root_seed: seed,
        store: if shape.durable {
            StoreConfig::Durable {
                root: work_dir().join("fleet"),
            }
        } else {
            StoreConfig::Memory
        },
        ..FleetdConfig::default()
    }
}

/// A fixed, seed-chosen sample of home indices.
fn sampled_homes(homes: usize, seed: u64) -> Vec<usize> {
    let stride = (homes / SAMPLED_HOMES).max(1);
    let offset = (derive_seed(seed, "sample") as usize) % stride;
    (0..SAMPLED_HOMES.min(homes))
        .map(|i| i * stride + offset)
        .collect()
}

/// What one episode measured.
#[derive(Default)]
struct Episode {
    round_s: Vec<f64>,
    scrape_s: Vec<f64>,
    exposition_bytes: usize,
    digest_s: f64,
    recover_s: f64,
    tally: Tally,
    evictions: u64,
    rehydrations: u64,
    store_retries: u64,
    quarantined: u64,
    cold_bytes_per_home: f64,
    resident_bytes_per_home: f64,
    files: usize,
    codec_bytes: f64,
}

fn admit(svc: &mut FleetService, round: u64, server: &MetricsServer, ep: &mut Episode) {
    let t = Instant::now();
    trace::timed("fleetd.admit_round", || {
        svc.admit_round(round, SAMPLES_PER_ROUND)
    });
    ep.round_s.push(t.elapsed().as_secs_f64());
    let t = Instant::now();
    let text = trace::timed("obs.scrape", || MetricsServer::scrape(server.addr()))
        .expect("loopback scrape succeeds");
    ep.scrape_s.push(t.elapsed().as_secs_f64());
    ep.exposition_bytes = text.len();
}

/// Store errors the service surfaced: quarantines and degraded-mode
/// rebuilds (each is a record the store failed to hand back).
fn store_errors(svc: &FleetService) -> u64 {
    svc.quarantined_count() as u64 + svc.store_rebuilds()
}

fn count_files(root: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(root) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            if e.file_type().is_ok_and(|t| t.is_dir()) {
                count_files(&e.path())
            } else {
                1
            }
        })
        .sum()
}

/// Re-derives every sampled home's output with a fresh `ThresholdStream`
/// fed the same `synthetic_chunk`s, replaying (and, traced, timing) the
/// layer calls the service composes for a home: chunk generation, feed,
/// compact checkpoint, codec, CRC frame and its validation. Returns the
/// mean encoded checkpoint size in bytes.
fn check_sampled(
    svc: &FleetService,
    cfg: &FleetdConfig,
    homes: &[usize],
    tally: &mut Tally,
) -> f64 {
    let rounds = svc.rounds();
    let mut bad = 0;
    let mut bytes = 0;
    let mut chunk = Vec::new();
    for &home in homes {
        let seed = derive_seed(cfg.root_seed, &format!("home:{home}"));
        let mut fresh = ThresholdStream::new(cfg.detector.clone(), cfg.spec).with_fill(cfg.fill);
        for round in 0..rounds {
            trace::timed("fleetd.gen", || {
                synthetic_chunk(seed, round, SAMPLES_PER_ROUND, &mut chunk)
            });
            trace::timed("stream.feed", || fresh.feed(&chunk));
        }
        let cp = trace::timed("stream.checkpoint", || fresh.compact_checkpoint());
        let payload = trace::timed("codec.encode", || codec::encode(&cp));
        bytes += payload.len();
        let frame = trace::timed("store.frame_encode", || {
            store::encode_frame(home as u64, rounds, &payload)
        });
        let validated = trace::timed("store.frame_validate", || {
            store::validate_frame(&frame, home, rounds)
        });
        let decoded = trace::timed("codec.decode", || codec::decode(&payload));
        let served = trace::timed("fleetd.finalize_home", || svc.finalize_home(home));
        let expected = fresh.finalize();
        let ok = served.as_ref() == Some(&expected)
            && validated.as_ref().ok() == Some(&cp)
            && decoded.as_ref().ok() == Some(&cp);
        if !ok {
            bad += 1;
        }
    }
    tally.check(homes.len() as u64, bad);
    bytes as f64 / homes.len() as f64
}

/// Replays the durable store's calls on the sampled homes' frames in a
/// scratch store: put, get and a manifest commit.
fn replay_store(cfg: &FleetdConfig, fleet_homes: usize, homes: &[usize], rounds: u64) {
    let root = work_dir().join("replay");
    let _ = std::fs::remove_dir_all(&root);
    let mut store = DurableStore::open(root.join("shard")).expect("replay store opens");
    let mut chunk = Vec::new();
    for &home in homes {
        let seed = derive_seed(cfg.root_seed, &format!("home:{home}"));
        let mut s = ThresholdStream::new(cfg.detector.clone(), cfg.spec).with_fill(cfg.fill);
        for round in 0..rounds {
            synthetic_chunk(seed, round, SAMPLES_PER_ROUND, &mut chunk);
            s.feed(&chunk);
        }
        let frame =
            store::encode_frame(home as u64, rounds, &codec::encode(&s.compact_checkpoint()));
        trace::timed("store.put", || store.put(home, rounds, &frame)).expect("replay put");
        let back = trace::timed("store.get", || store.get(home)).expect("replay get");
        assert_eq!(back.as_deref(), Some(frame.as_slice()));
        let manifest = Manifest {
            homes: fleet_homes as u64,
            shards: SHARDS as u64,
            rounds,
            root_seed: cfg.root_seed,
            shard_samples: vec![0; SHARDS],
        };
        trace::timed("store.manifest_commit", || manifest.write(&root)).expect("manifest commit");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// One episode: a fresh service, `rounds` admissions (each followed by a
/// scrape), then the workload's read path and correctness checks.
fn episode(shape: &Shape, cfg: &FleetdConfig, server: &MetricsServer) -> Episode {
    let mut ep = Episode::default();
    let sample = sampled_homes(shape.homes, cfg.root_seed);
    let mut svc = FleetService::new(cfg.clone(), shape.homes);
    for round in 0..shape.rounds {
        admit(&mut svc, round, server, &mut ep);
    }
    if shape.durable {
        let before = svc.digest();
        drop(svc);
        let t = Instant::now();
        let recovered = trace::timed("fleetd.recover", || FleetService::recover(cfg.clone()));
        ep.recover_s = t.elapsed().as_secs_f64();
        let (recovered, report) = recovered.expect("durable fleet recovers");
        svc = recovered;
        ep.tally.store_errors += (report.quarantined.len() + report.scheduled_rebuilds) as u64;
        let after = svc.digest();
        ep.tally.check(1, u64::from(after != before));
        admit(&mut svc, shape.rounds, server, &mut ep);
        ep.files = count_files(&work_dir().join("fleet"));
    }
    let mut digests = Vec::with_capacity(DIGESTS);
    let mut times = Vec::with_capacity(DIGESTS);
    for _ in 0..DIGESTS {
        let t = Instant::now();
        digests.push(trace::timed("fleetd.digest", || svc.digest()));
        times.push(t.elapsed().as_secs_f64());
    }
    ep.digest_s = stats::median(&times).expect("digests ran");
    let digest = digests[0];
    ep.tally
        .check(1, u64::from(digests.iter().any(|d| *d != digest)));
    ep.tally.check(1, u64::from(digest.homes != shape.homes));
    ep.tally
        .attempt(shape.homes as u64 * ep.round_s.len() as u64);
    ep.tally.store_errors += store_errors(&svc);
    ep.codec_bytes = check_sampled(&svc, cfg, &sample, &mut ep.tally);

    let mem = svc.memory();
    ep.evictions = svc.evictions();
    ep.rehydrations = svc.rehydrations();
    ep.store_retries = svc.store_retries();
    ep.quarantined = svc.quarantined_count() as u64;
    ep.cold_bytes_per_home = mem.cold_bytes as f64 / mem.cold_homes.max(1) as f64;
    ep.resident_bytes_per_home = mem.resident_bytes as f64 / mem.resident_homes.max(1) as f64;
    ep
}

/// The durable episode every run ends with.
fn durable_episode(p: &Params, server: &MetricsServer) -> Episode {
    clean_work_dir();
    let ep = episode(&DURABLE, &config(&DURABLE, p.seed), server);
    clean_work_dir();
    ep
}

pub fn run(p: &Params) -> Outcome {
    let cfg = config(&RESIDENT, p.seed);
    let (setup_s, _) = stats::timed_setups(SETUPS, 500, 0.5, || {
        obs::enable();
        obs::reset();
        let server = MetricsServer::bind().expect("loopback bind");
        (FleetService::new(cfg.clone(), RESIDENT.homes), server)
    });

    obs::enable();
    obs::reset();
    let server = MetricsServer::bind().expect("loopback bind");
    let outcome = if p.trace {
        traced(&cfg, &server, p)
    } else {
        untraced(&cfg, &server, p, setup_s)
    };
    server.shutdown();
    obs::disable();
    outcome
}

fn untraced(cfg: &FleetdConfig, server: &MetricsServer, p: &Params, setup_s: f64) -> Outcome {
    let start = Instant::now();
    let mut episodes = Vec::new();
    while episodes.is_empty() || start.elapsed().as_secs_f64() < p.seconds {
        episodes.push(episode(&RESIDENT, cfg, server));
    }
    let per_ep = |f: &dyn Fn(&Episode) -> f64| -> f64 {
        stats::median(&episodes.iter().map(f).collect::<Vec<_>>()).expect("episodes ran")
    };
    let rate = per_ep(&|e| {
        let t: f64 = e.round_s.iter().sum::<f64>() + e.scrape_s.iter().sum::<f64>();
        (RESIDENT.homes * e.round_s.len()) as f64 / t
    });
    // Round time grows with history, so the median round hinges on the
    // middle two; the episode's mean round is steadier.
    let round_ms = per_ep(&|e| e.round_s.iter().sum::<f64>() * 1e3 / e.round_s.len() as f64);
    let digest_s = per_ep(&|e| e.digest_s);
    let durable = durable_episode(p, server);
    let mut out = Outcome::default();
    for e in episodes.iter().chain([&durable]) {
        out.tally.merge(&e.tally);
    }
    out.metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("throughput_per_s", rate, "1/s"),
        Metric::new("latency_p50_ms", round_ms, "ms"),
        Metric::new("read_ms", digest_s * 1e3, "ms"),
    ];
    out.named = vec![
        Metric::new("home_rounds_per_s", rate, "home-rounds/s"),
        Metric::new("digest_s", digest_s, "s"),
        Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
        Metric::new("episodes", episodes.len() as f64, "count"),
        Metric::new("first_round_ms", episodes[0].round_s[0] * 1e3, "ms"),
        Metric::new(
            "last_round_ms",
            episodes[0].round_s.last().expect("rounds ran") * 1e3,
            "ms",
        ),
        Metric::new("durable_recover_s", durable.recover_s, "s"),
    ];
    out
}

fn traced(cfg: &FleetdConfig, server: &MetricsServer, p: &Params) -> Outcome {
    // Untraced and traced episodes of the same shape, for the overhead.
    let t = Instant::now();
    let plain = episode(&RESIDENT, cfg, server);
    let plain_s = t.elapsed().as_secs_f64();
    obs::reset();
    let _ = trace::take();
    trace::set_enabled(true);
    let t = Instant::now();
    let ep = episode(&RESIDENT, cfg, server);
    let traced_s = t.elapsed().as_secs_f64();
    let snapshot = obs::snapshot();
    let spans = trace::take();
    let t = Instant::now();
    let durable = durable_episode(p, server);
    let sample = sampled_homes(DURABLE.homes, p.seed);
    replay_store(
        &config(&DURABLE, p.seed),
        DURABLE.homes,
        &sample,
        DURABLE.rounds + 1,
    );
    let durable_wall_threads = t.elapsed().as_secs_f64() * p.threads as f64;
    trace::set_enabled(false);
    let durable_spans = trace::take();
    clean_work_dir();

    let wall_threads = traced_s * p.threads as f64;
    let rolled = trace::by_name(&spans);
    let share = |n: &str| rolled.get(n).map_or(0.0, |t| t.self_s / wall_threads);
    let ops = |n: &str| rolled.get(n).map_or(0.0, trace::NameTotals::ops_per_s);
    let store = trace::by_name(&durable_spans);
    let store_ops = |n: &str| store.get(n).map_or(0.0, trace::NameTotals::ops_per_s);
    let rounds = ep.round_s.len() as f64;
    let attributed: f64 = rolled.values().map(|t| t.self_s).sum();

    let mut out = Outcome::default();
    for e in [&plain, &ep, &durable] {
        out.tally.merge(&e.tally);
    }
    out.metrics = crate::layer_metrics(&[
        ("fleetd.admit_round.self_frac", share("fleetd.admit_round")),
        (
            "fleetd.round_growth",
            ep.round_s.last().expect("rounds ran") / ep.round_s[0],
        ),
        ("fleetd.digest.self_frac", share("fleetd.digest")),
        ("fleetd.evictions", ep.evictions as f64),
        ("fleetd.rehydrations", ep.rehydrations as f64),
        (
            "fleetd.rehydrate_per_home_round",
            ep.rehydrations as f64 / (RESIDENT.homes as f64 * rounds),
        ),
        ("fleetd.cold_bytes_per_home", ep.cold_bytes_per_home),
        ("fleetd.resident_bytes_per_home", ep.resident_bytes_per_home),
        ("fleetd.gen.ops_per_s", ops("fleetd.gen")),
        (
            "fleetd.finalize_home.ops_per_s",
            ops("fleetd.finalize_home"),
        ),
        ("stream.checkpoint.ops_per_s", ops("stream.checkpoint")),
        ("stream.feed.ops_per_s", ops("stream.feed")),
        ("codec.encode.ops_per_s", ops("codec.encode")),
        ("codec.decode.ops_per_s", ops("codec.decode")),
        ("codec.bytes", ep.codec_bytes),
        ("store.frame_encode.ops_per_s", ops("store.frame_encode")),
        (
            "store.frame_validate.ops_per_s",
            ops("store.frame_validate"),
        ),
        ("obs.scrape.self_frac", share("obs.scrape")),
        ("obs.exposition_bytes", ep.exposition_bytes as f64),
        (
            "obs.timing_records",
            snapshot.timings.values().map(|s| s.count).sum::<u64>() as f64,
        ),
        ("store.put.ops_per_s", store_ops("store.put")),
        ("store.get.ops_per_s", store_ops("store.get")),
        (
            "store.manifest_commit.ops_per_s",
            store_ops("store.manifest_commit"),
        ),
        ("store.files", durable.files as f64),
        (
            "fleetd.recover.self_frac",
            store.get("fleetd.recover").map_or(0.0, |t| t.self_s) / durable_wall_threads,
        ),
        ("fleetd.store_retries", durable.store_retries as f64),
        (
            "fleetd.quarantined",
            (ep.quarantined + durable.quarantined) as f64,
        ),
        ("bench.traced_wall_s", traced_s),
        ("bench.unattributed_frac", 1.0 - attributed / wall_threads),
        ("bench.trace_overhead_frac", traced_s / plain_s - 1.0),
    ]);
    out
}
