//! `home-days`: 7-day homes through the whole pipeline under the
//! supervised fleet runner — simulate, inject faults, admit through the
//! stream layer, attack, defend and re-attack.

use crate::stats::{self, Tally};
use crate::trace::{self, SpanId};
use crate::{Metric, Outcome, Params};
use faults::{FaultPlan, GapFill};
use iot_privacy::defense::{BatteryLeveler, Chpr, Defense, DpNoise};
use iot_privacy::homesim::{Home, HomeConfig, Persona};
use iot_privacy::loads::Catalogue;
use iot_privacy::nilm::{train_device_hmm, DecodeArena, DeviceHmm, Fhmm};
use iot_privacy::niom::{HmmDetector, OccupancyDetector, ThresholdDetector};
use iot_privacy::stream::{
    faulty_samples, feed_chunked, FhmmStream, StreamFill, StreamSpec, StreamState, ThresholdStream,
};
use iot_privacy::timeseries::rng::{derive_seed, seeded_rng};
use iot_privacy::timeseries::{LabelSeries, PowerTrace};
use iot_privacy::{
    run_fleet_supervised_with, AttackScore, HomeAttempt, ScenarioReport, SupervisorConfig,
};
use std::sync::Mutex;
use std::time::Instant;

/// Days per simulated home.
const DAYS: u64 = 7;
/// Homes per supervised fleet call; the fleet runner spreads them over
/// its workers.
const HOMES_PER_BATCH: usize = 16;
/// Fewest homes a run measures, so the tail percentile stays fixed.
const MIN_HOMES: usize = 200;
/// Stream chunk length: one hour of one-minute readings.
const CHUNK: usize = 60;
/// `FaultPlan::power_profile` intensity applied to every meter.
const FAULT_INTENSITY: f64 = 0.1;
/// Training homes simulated in every set-up.
const TRAIN_CANDIDATES: usize = 3;
/// The four FHMM devices (2 states each → 16 joint states).
const FHMM_DEVICES: [&str; 4] = ["toaster", "fridge", "freezer", "hrv"];
/// Set-ups per run (at least; more while they take under 1 s in total);
/// `setup_s` is their median.
const SETUPS: usize = 5;
/// Meters in the batched-vs-single decode comparison.
const DECODE_BATCH: usize = 32;
/// Samples per meter in that comparison (one day).
const DECODE_SAMPLES: usize = 1_440;
/// Tail percentile reported for home latency (fixed: every run measures
/// at least `MIN_HOMES` homes, which leaves ≥ 10 samples beyond it).
pub const TAIL_PERCENTILE: f64 = 95.0;

const PERSONAS: [Persona; 3] = [Persona::Worker, Persona::Homebody, Persona::NightShift];

/// Everything built once before the timed loop.
struct World {
    catalogue: Catalogue,
    fhmm: Fhmm,
    threshold: ThresholdDetector,
    hmm: HmmDetector,
    chpr: Chpr,
    battery: BatteryLeveler,
    dp: DpNoise,
}

/// The FHMM device models trained on training home `k`.
fn train_models(seed: u64, k: usize, catalogue: &Catalogue) -> Vec<DeviceHmm> {
    let train = Home::simulate(
        &HomeConfig::new(derive_seed(seed, &format!("fhmm-train:{k}")))
            .days(DAYS)
            .catalogue(catalogue.clone()),
    );
    FHMM_DEVICES
        .iter()
        .map(|name| {
            let d = train.device(name).expect("figure-2 device simulated");
            train_device_hmm(*name, &d.trace, 2)
        })
        .collect()
}

fn setup(seed: u64) -> World {
    let catalogue = Catalogue::figure2();
    // Train on the first home in which every device shows two power
    // levels (a device idle all week trains one state). The first
    // `TRAIN_CANDIDATES` homes are always simulated, so set-up costs the
    // same whichever of them fits.
    let two_states = |m: &Vec<DeviceHmm>| m.iter().all(|d| d.n_states() == 2);
    let candidates: Vec<_> = (0..TRAIN_CANDIDATES)
        .map(|k| train_models(seed, k, &catalogue))
        .collect();
    let models = candidates
        .into_iter()
        .chain((TRAIN_CANDIDATES..).map(|k| train_models(seed, k, &catalogue)))
        .find(two_states)
        .expect("some training home uses every device");
    let fhmm = Fhmm::new(models);
    assert_eq!(fhmm.joint_states(), 16);
    assert!(fhmm.exact_capable(), "16 joint states decode exactly");
    World {
        catalogue,
        fhmm,
        threshold: ThresholdDetector::default(),
        hmm: HmmDetector::default(),
        chpr: Chpr::default(),
        battery: BatteryLeveler::default(),
        dp: DpNoise::new(1.0),
    }
}

/// What one home attempt leaves behind besides its report.
struct HomeOut {
    latency_s: f64,
    read_s: f64,
    /// Threshold stream feed + finalize, and batch detect on the same
    /// (filled) readings.
    stream_s: f64,
    batch_same_s: f64,
    samples: u64,
    stream_matches_batch: bool,
}

/// Gap-aware score of `predicted` against ground truth.
fn score(truth: &LabelSeries, predicted: &LabelSeries, keep: &[bool]) -> AttackScore {
    let c = truth
        .confusion_where(predicted, keep)
        .expect("pipeline preserves geometry");
    AttackScore {
        accuracy: c.accuracy(),
        mcc: c.mcc(),
    }
}

/// One home through the whole pipeline.
fn run_home(w: &World, attempt: HomeAttempt, parent: SpanId) -> (ScenarioReport, HomeOut) {
    let t0 = Instant::now();
    let _home_span = trace::span_under("bench.home", parent);
    let seed = attempt.seed;
    let home = trace::timed("homesim.simulate", || {
        Home::simulate(
            &HomeConfig::new(seed)
                .days(DAYS)
                .persona(PERSONAS[(seed % 3) as usize])
                .catalogue(w.catalogue.clone()),
        )
    });
    let faulty = trace::timed("faults.apply_trace", || {
        FaultPlan::power_profile(FAULT_INTENSITY)
            .apply_trace(&home.meter, derive_seed(seed, "faults"))
    });
    let (keep, filled) = trace::timed("faults.fill", || {
        (faulty.keep_mask(), faulty.fill(GapFill::Hold))
    });
    let samples = faulty_samples(&faulty);
    let spec = StreamSpec::of_faulty(&faulty);

    let stream_t = Instant::now();
    let mut threshold = ThresholdStream::new(w.threshold.clone(), spec).with_fill(StreamFill::Hold);
    let fed = trace::timed("stream.threshold_feed", || {
        feed_chunked(&mut threshold, &samples, CHUNK)
    });
    let mut stream_s = stream_t.elapsed().as_secs_f64();
    let mut fhmm = FhmmStream::new(&w.fhmm, spec).with_fill(StreamFill::Hold);
    trace::timed("stream.fhmm_feed", || {
        feed_chunked(&mut fhmm, &samples, CHUNK)
    });

    let read = Instant::now();
    let streamed = trace::timed("stream.threshold_finalize", || threshold.finalize());
    stream_s += read.elapsed().as_secs_f64();
    let estimates = trace::timed("nilm.fhmm_finalize", || fhmm.finalize());
    let read_s = read.elapsed().as_secs_f64();
    assert_eq!(estimates.len(), FHMM_DEVICES.len());

    let batch_t = Instant::now();
    let batch = trace::timed("niom.threshold_detect", || w.threshold.detect(&filled));
    let batch_same_s = batch_t.elapsed().as_secs_f64();
    let hmm_labels = trace::timed("niom.hmm_detect", || w.hmm.detect(&filled));

    let mut rng = seeded_rng(derive_seed(seed, "defense"));
    let chpr = trace::timed("defense.chpr_apply", || w.chpr.apply(&filled, &mut rng));
    let battery = trace::timed("defense.battery_apply", || {
        w.battery.apply(&filled, &mut rng)
    });
    let dp = trace::timed("defense.dp_apply", || w.dp.apply(&filled, &mut rng));
    let defended = [&chpr, &battery, &dp].map(|d| {
        let labels = trace::timed("niom.threshold_detect", || w.threshold.detect(&d.trace));
        score(&home.occupancy, &labels, &keep)
    });
    std::hint::black_box((score(&home.occupancy, &hmm_labels, &keep), &defended));
    let report = ScenarioReport {
        undefended: score(&home.occupancy, &streamed, &keep),
        defended: defended[0],
        cost: chpr.cost,
    };
    let out = HomeOut {
        latency_s: t0.elapsed().as_secs_f64(),
        read_s,
        stream_s,
        batch_same_s,
        samples: fed.items as u64,
        stream_matches_batch: streamed == batch,
    };
    (report, out)
}

/// What a sequence of supervised batches produced.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    outs: Vec<HomeOut>,
    tally: Tally,
    retries: u64,
    quarantined: u64,
}

/// Runs supervised batch `batch` (`HOMES_PER_BATCH` homes) into `phase`.
fn run_batch(w: &World, seed: u64, batch: u64, phase: &mut Phase) {
    let outs = Mutex::new(Vec::with_capacity(HOMES_PER_BATCH));
    let start = Instant::now();
    let fleet = {
        let _g = trace::span("iot-privacy.fleet");
        let parent = trace::current();
        run_fleet_supervised_with(
            HOMES_PER_BATCH,
            derive_seed(seed, &format!("batch:{batch}")),
            SupervisorConfig::default(),
            |attempt| {
                let (report, out) = run_home(w, attempt, parent);
                outs.lock().expect("outs poisoned").push(out);
                report
            },
        )
    };
    phase.wall_s += start.elapsed().as_secs_f64();
    let outs = outs.into_inner().expect("outs poisoned");
    phase.tally.attempt(HOMES_PER_BATCH as u64);
    match fleet {
        Ok(fleet) => {
            phase.retries += fleet.retries;
            phase.quarantined += fleet.quarantined.len() as u64;
            phase.tally.quarantined += fleet.quarantined.len() as u64;
        }
        Err(_) => phase.tally.quarantined += HOMES_PER_BATCH as u64,
    }
    let bad = outs.iter().filter(|o| !o.stream_matches_batch).count() as u64;
    phase.tally.check(0, bad);
    phase.outs.extend(outs);
}

/// `Fhmm::decode_batch` at B = 32 against one `Fhmm::decode` per meter
/// on the same meters: batched seconds ÷ single seconds.
fn batch_vs_single(w: &World, seed: u64) -> f64 {
    let meters: Vec<PowerTrace> = (0..DECODE_BATCH)
        .map(|i| {
            let home = Home::simulate(
                &HomeConfig::new(derive_seed(seed, &format!("decode:{i}")))
                    .days(1)
                    .catalogue(w.catalogue.clone()),
            );
            assert_eq!(home.meter.len(), DECODE_SAMPLES);
            home.meter
        })
        .collect();
    let refs: Vec<&PowerTrace> = meters.iter().collect();
    let mut arena = DecodeArena::new();
    let t = Instant::now();
    let batched = w.fhmm.decode_batch(&refs, &mut arena);
    let batch_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let single: Vec<_> = refs.iter().map(|m| w.fhmm.decode(m, &mut arena)).collect();
    let single_s = t.elapsed().as_secs_f64();
    assert_eq!(batched, single, "batched decode must match single decodes");
    batch_s / single_s
}

pub fn run(p: &Params) -> Outcome {
    let (setup_s, w) = stats::timed_setups(SETUPS, 1_000, 1.0, || setup(p.seed));
    // One warm-up batch: its outputs are checked, its times are not kept.
    let mut warm = Phase::default();
    run_batch(&w, p.seed, u64::MAX, &mut warm);
    let mut out = Outcome {
        tally: warm.tally,
        ..Outcome::default()
    };
    let start = Instant::now();

    if !p.trace {
        let mut phase = Phase::default();
        let mut batch = 0;
        while start.elapsed().as_secs_f64() < p.seconds || phase.outs.len() < MIN_HOMES {
            run_batch(&w, p.seed, batch, &mut phase);
            batch += 1;
        }
        let lat: Vec<f64> = phase.outs.iter().map(|o| o.latency_s * 1e3).collect();
        let read: Vec<f64> = phase.outs.iter().map(|o| o.read_s * 1e3).collect();
        assert!(
            stats::tail_percentile(lat.len()).is_some_and(|p| p >= TAIL_PERCENTILE),
            "too few homes for the p{TAIL_PERCENTILE} tail"
        );
        let home_days = phase.outs.len() as f64 * DAYS as f64;
        let p50 = stats::median(&lat).expect("homes ran");
        let tail = stats::percentile(&lat, TAIL_PERCENTILE).expect("homes ran");
        out.tally.merge(&phase.tally);
        out.metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("throughput_per_s", home_days / phase.wall_s, "1/s"),
            Metric::new("latency_p50_ms", p50, "ms"),
            Metric::new("read_ms", stats::median(&read).expect("homes ran"), "ms"),
        ];
        out.named = vec![
            Metric::new("home_days_per_s", home_days / phase.wall_s, "home-days/s"),
            Metric::new("home_latency_p50_ms", p50, "ms"),
            Metric::new("home_latency_tail_ms", tail, "ms"),
            Metric::new("homes", phase.outs.len() as f64, "count"),
            Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
        ];
        out.tail_percentile = Some(TAIL_PERCENTILE);
        return out;
    }

    // Traced run: every batch runs twice, untraced then traced, so the
    // overhead compares the same homes; spans cover the traced copies.
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let mut batch = 0;
    let _ = trace::take();
    while start.elapsed().as_secs_f64() < p.seconds || batch < 2 {
        run_batch(&w, p.seed, batch, &mut plain);
        trace::set_enabled(true);
        run_batch(&w, p.seed, batch, &mut traced);
        trace::set_enabled(false);
        batch += 1;
    }
    let spans = trace::take();
    let wall_threads = traced.wall_s * p.threads as f64;
    let rolled = trace::by_name(&spans);
    let share = |n: &str| rolled.get(n).map_or(0.0, |t| t.self_s / wall_threads);
    let attributed: f64 = rolled.values().map(|t| t.self_s).sum();
    let home_busy = rolled.get("bench.home").map_or(0.0, |t| t.total_s);
    let sum = |f: fn(&HomeOut) -> f64| traced.outs.iter().map(f).sum::<f64>();

    out.tally.merge(&plain.tally);
    out.tally.merge(&traced.tally);
    out.metrics = crate::layer_metrics(&[
        ("homesim.simulate.self_frac", share("homesim.simulate")),
        (
            "homesim.simulate.calls",
            rolled.get("homesim.simulate").map_or(0, |t| t.calls) as f64,
        ),
        ("faults.apply_trace.self_frac", share("faults.apply_trace")),
        ("faults.fill.self_frac", share("faults.fill")),
        (
            "stream.threshold_feed.self_frac",
            share("stream.threshold_feed"),
        ),
        (
            "stream.threshold_finalize.self_frac",
            share("stream.threshold_finalize"),
        ),
        ("stream.fhmm_feed.self_frac", share("stream.fhmm_feed")),
        ("stream.samples", sum(|o| o.samples as f64)),
        ("nilm.fhmm_finalize.self_frac", share("nilm.fhmm_finalize")),
        ("niom.hmm_detect.self_frac", share("niom.hmm_detect")),
        (
            "niom.threshold_detect.self_frac",
            share("niom.threshold_detect"),
        ),
        ("defense.chpr_apply.self_frac", share("defense.chpr_apply")),
        (
            "defense.battery_apply.self_frac",
            share("defense.battery_apply"),
        ),
        ("defense.dp_apply.self_frac", share("defense.dp_apply")),
        ("iot-privacy.fleet.self_frac", share("iot-privacy.fleet")),
        ("bench.home.self_frac", share("bench.home")),
        ("fleet.busy_frac", home_busy / wall_threads),
        ("fleet.retries", traced.retries as f64),
        ("fleet.quarantined", traced.quarantined as f64),
        (
            "stream.vs_batch_same_readings",
            sum(|o| o.stream_s) / sum(|o| o.batch_same_s),
        ),
        ("nilm.batch_vs_single", batch_vs_single(&w, p.seed)),
        ("bench.traced_wall_s", traced.wall_s),
        ("bench.unattributed_frac", 1.0 - attributed / wall_threads),
        (
            "bench.trace_overhead_frac",
            traced.wall_s / plain.wall_s - 1.0,
        ),
    ]);
    out
}
