//! `adversary`: attacker retraining. Fits the adaptive and static
//! attackers against every tournament defense and scores them on defended
//! evaluation meters, then fits the strong traffic fingerprinter for every
//! shaping policy and scores it on shaped evaluation logs.

use crate::stats::{self, Tally};
use crate::trace::{self, SpanId};
use crate::{Metric, Outcome, Params};
use iot_privacy::fleet::par_map;
use iot_privacy::homesim::{Home, HomeConfig, Persona};
use iot_privacy::netsim::{
    policies, simulate_home_network, strong_accuracy, strong_examples, DeviceType, NetworkTrace,
    StrongFingerprinter,
};
use iot_privacy::niom::{OccupancyDetector, ThresholdDetector};
use iot_privacy::timeseries::rng::{derive_seed, round_seed, seeded_rng};
use iot_privacy::timeseries::{LabelSeries, PowerTrace, Resolution, Timestamp};
use std::time::Instant;
use tournament::attacker::candidate_grid;
use tournament::{defenses, AdaptiveTuned, Attacker, StaticLogistic, TrainingArena};

/// Adaptive retraining rounds (K).
const ROUNDS: usize = 3;
/// Training arena: homes × days.
const TRAIN_HOMES: usize = 6;
const TRAIN_DAYS: u64 = 6;
/// Evaluation meters: homes × days.
const EVAL_HOMES: usize = 8;
const EVAL_DAYS: u64 = 7;
/// Network traffic: training days and evaluation homes × days. Shaping
/// fragments every flow into 64 KiB cells, so the strong fits' cost
/// follows the seed's traffic volume; two training days keep that
/// seed-to-seed swing a small part of the matrix.
const NET_TRAIN_DAYS: u64 = 2;
const NET_EVAL_HOMES: usize = 4;
const NET_EVAL_DAYS: u64 = 1;
/// Strong-fingerprinter retraining rounds per policy.
const STRONG_ROUNDS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

const PERSONAS: [Persona; 3] = [Persona::Worker, Persona::Homebody, Persona::NightShift];

struct World {
    seed: u64,
    arena: TrainingArena,
    eval: Vec<Home>,
    net_train: NetworkTrace,
    net_eval: Vec<NetworkTrace>,
}

fn occupancy(days: u64) -> LabelSeries {
    LabelSeries::from_fn(
        Timestamp::ZERO,
        Resolution::ONE_MINUTE,
        (days * 1440) as usize,
        |i| !(540..1_020).contains(&(i % 1440)),
    )
}

fn setup(seed: u64) -> World {
    let arena = TrainingArena::simulate(derive_seed(seed, "arena"), TRAIN_HOMES, TRAIN_DAYS);
    let eval = par_map((0..EVAL_HOMES).collect(), |i| {
        Home::simulate(
            &HomeConfig::new(derive_seed(seed, &format!("eval:{i}")))
                .days(EVAL_DAYS)
                .persona(PERSONAS[i % PERSONAS.len()]),
        )
    });
    let inventory = DeviceType::all();
    let net_train = simulate_home_network(
        inventory,
        &occupancy(NET_TRAIN_DAYS),
        NET_TRAIN_DAYS,
        derive_seed(seed, "net-train"),
    );
    let net_eval = par_map((0..NET_EVAL_HOMES).collect(), |h| {
        simulate_home_network(
            inventory,
            &occupancy(NET_EVAL_DAYS),
            NET_EVAL_DAYS,
            derive_seed(seed, &format!("net-eval:{h}")),
        )
    });
    World {
        seed,
        arena,
        eval,
        net_train,
        net_eval,
    }
}

fn mean_mcc(detector: &ThresholdDetector, sets: &[(PowerTrace, &LabelSeries)]) -> f64 {
    sets.iter()
        .map(|(m, o)| o.confusion(&detector.detect(m)).expect("aligned").mcc())
        .sum::<f64>()
        / sets.len() as f64
}

/// What one matrix measured.
struct Matrix {
    wall_s: f64,
    adaptive_fit_s: Vec<f64>,
    /// Seconds to score both fitted attackers on one defended
    /// evaluation meter (defense included), per cell.
    score_s: Vec<f64>,
    tally: Tally,
}

fn fit_seed(seed: u64, key: &str) -> u64 {
    derive_seed(seed, &format!("fit:{key}"))
}

/// The adaptive fit's audit trail must have K rounds, each scoring at
/// least the static threshold on that round's defended training set.
fn check_adaptive(
    w: &World,
    key: &str,
    defense: &dyn iot_privacy::defense::Defense,
    trail: &[f64],
) -> bool {
    if trail.len() != ROUNDS {
        return false;
    }
    let fixed = ThresholdDetector::default();
    let seed = fit_seed(w.seed, key);
    let mut defended: Vec<(PowerTrace, &LabelSeries)> = Vec::new();
    trail.iter().enumerate().all(|(round, &score)| {
        for (i, home) in w.arena.homes.iter().enumerate() {
            let mut rng = seeded_rng(round_seed(seed, round, i));
            defended.push((defense.apply(&home.meter, &mut rng).trace, &home.occupancy));
        }
        score >= mean_mcc(&fixed, &defended)
    })
}

fn matrix(w: &World) -> Matrix {
    let start = Instant::now();
    let specs = defenses();
    let registry = policies();
    let mut tally = Tally::default();

    // The adaptive fits run one after another, each spreading its
    // candidate grid over the workers; every other job is spread over
    // the workers by `par_map`.
    let mut adaptive = Vec::with_capacity(specs.len());
    let mut adaptive_fit_s = Vec::with_capacity(specs.len());
    for spec in &specs {
        let t = Instant::now();
        let fitted = trace::timed("tournament.adaptive_fit", || {
            AdaptiveTuned.fit(
                &w.arena,
                &*spec.defense,
                ROUNDS,
                fit_seed(w.seed, &spec.key),
            )
        });
        adaptive_fit_s.push(t.elapsed().as_secs_f64());
        adaptive.push(fitted);
    }
    let parent: SpanId = trace::current();
    let statics = par_map(specs.iter().collect(), |spec| {
        let _g = trace::span_under("tournament.static_fit", parent);
        StaticLogistic.fit(
            &w.arena,
            &*spec.defense,
            ROUNDS,
            fit_seed(w.seed, &spec.key),
        )
    });

    // Defended evaluation meters against both fitted attackers.
    let cells: Vec<(usize, usize)> = (0..specs.len())
        .flat_map(|d| (0..w.eval.len()).map(move |h| (d, h)))
        .collect();
    let scores = par_map(cells, |(d, h)| {
        let t = Instant::now();
        let home = &w.eval[h];
        let mut rng = seeded_rng(derive_seed(w.seed, &format!("eval:{}:{h}", specs[d].key)));
        let defended = {
            let _g = trace::span_under("defense.apply", parent);
            specs[d].defense.apply(&home.meter, &mut rng)
        };
        let _g = trace::span_under("tournament.eval", parent);
        let mcc = [
            adaptive[d].detect(&defended.trace),
            statics[d].detect(&defended.trace),
        ]
        .map(|labels| home.occupancy.confusion(&labels).expect("aligned").mcc());
        (mcc, t.elapsed().as_secs_f64())
    });

    // The strong fingerprinter per shaping policy, then shaped
    // evaluation logs against it.
    let strong = par_map(registry.iter().collect(), |spec| {
        let _g = trace::span_under("netsim.strong_fit", parent);
        StrongFingerprinter::fit(
            &w.net_train,
            &spec.policy,
            NET_TRAIN_DAYS as usize,
            STRONG_ROUNDS,
            derive_seed(w.seed, &format!("strong:{}", spec.key)),
        )
    });
    let logs: Vec<(usize, usize)> = (0..registry.len())
        .flat_map(|p| (0..w.net_eval.len()).map(move |h| (p, h)))
        .collect();
    let accuracies = par_map(logs, |(p, h)| {
        let spec = &registry[p];
        let log = &w.net_eval[h];
        let ids: Vec<u32> = log.devices.iter().map(|d| d.device_id).collect();
        let shaped = {
            let _g = trace::span_under("netsim.shape", parent);
            spec.policy.shape(
                &log.flows,
                &ids,
                log.horizon_secs,
                derive_seed(w.seed, &format!("shape:{}:{h}", spec.key)),
            )
        };
        let shaped_log = NetworkTrace {
            flows: shaped.flows,
            devices: log.devices.clone(),
            occupancy: log.occupancy.clone(),
            horizon_secs: log.horizon_secs,
        };
        let examples = {
            let _g = trace::span_under("netsim.strong_features", parent);
            strong_examples(&shaped_log, NET_EVAL_DAYS as usize)
        };
        let _g = trace::span_under("netsim.strong_predict", parent);
        strong_accuracy(&strong[p], &examples)
    });
    let wall_s = start.elapsed().as_secs_f64();

    tally.check(
        scores.len() as u64,
        scores
            .iter()
            .filter(|(mcc, _)| !mcc.iter().all(|v| v.is_finite()))
            .count() as u64,
    );
    tally.check(
        accuracies.len() as u64,
        accuracies
            .iter()
            .filter(|a| !(0.0..=1.0).contains(*a))
            .count() as u64,
    );
    tally.check(
        strong.len() as u64,
        strong
            .iter()
            .filter(|m| m.round_train_acc.len() != STRONG_ROUNDS)
            .count() as u64,
    );
    let bad = specs
        .iter()
        .zip(&adaptive)
        .filter(|(spec, fit)| !check_adaptive(w, &spec.key, &*spec.defense, &fit.round_train_mcc))
        .count();
    tally.check(specs.len() as u64, bad as u64);
    tally.attempt((specs.len() * 2) as u64);
    Matrix {
        wall_s,
        adaptive_fit_s,
        score_s: scores.iter().map(|&(_, s)| s).collect(),
        tally,
    }
}

/// Grid-candidate threshold detects per second on a training meter.
fn detect_calls_per_s(w: &World) -> f64 {
    let grid = candidate_grid();
    let meter = &w.arena.homes[0].meter;
    let t = Instant::now();
    for d in &grid {
        std::hint::black_box(d.detect(meter));
    }
    grid.len() as f64 / t.elapsed().as_secs_f64()
}

/// Threshold detects the adaptive fits run: every round scores the whole
/// grid on every defended trace accumulated so far (computed, not counted).
fn grid_detect_calls(defenses: usize) -> f64 {
    let per_fit: usize = (1..=ROUNDS)
        .map(|k| candidate_grid().len() * TRAIN_HOMES * k)
        .sum();
    (per_fit * defenses) as f64
}

pub fn run(p: &Params) -> Outcome {
    let (setup_s, w) = stats::timed_setups(SETUPS, SETUPS, 0.0, || setup(p.seed));
    let mut out = Outcome::default();

    if !p.trace {
        let start = Instant::now();
        let mut runs = Vec::new();
        while runs.is_empty() || start.elapsed().as_secs_f64() < p.seconds {
            runs.push(matrix(&w));
        }
        let wall: Vec<f64> = runs.iter().map(|m| m.wall_s).collect();
        let fits: Vec<f64> = runs
            .iter()
            .flat_map(|m| m.adaptive_fit_s.iter().map(|s| s * 1e3))
            .collect();
        let scoring: Vec<f64> = runs
            .iter()
            .flat_map(|m| m.score_s.iter().map(|s| s * 1e3))
            .collect();
        let adversary_s = stats::median(&wall).expect("matrices ran");
        for m in &runs {
            out.tally.attempted += m.tally.attempted;
            out.tally.mismatches += m.tally.mismatches;
        }
        out.metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("throughput_per_s", 1.0 / adversary_s, "1/s"),
            Metric::new(
                "latency_p50_ms",
                stats::median(&fits).expect("fits ran"),
                "ms",
            ),
            Metric::new(
                "read_ms",
                stats::median(&scoring).expect("cells scored"),
                "ms",
            ),
        ];
        out.named = vec![
            Metric::new("adversary_s", adversary_s, "s"),
            Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
            Metric::new("matrices", runs.len() as f64, "count"),
        ];
        return out;
    }

    let plain = matrix(&w);
    trace::set_enabled(true);
    let _ = trace::take();
    let t0 = trace::now();
    let traced = matrix(&w);
    let t1 = trace::now();
    trace::set_enabled(false);
    let spans = trace::take();
    let wall_threads = (t1 - t0) * p.threads as f64;
    let rolled = trace::by_name(&spans);
    let share = |n: &str| rolled.get(n).map_or(0.0, |t| t.self_s / wall_threads);
    let attributed: f64 = rolled.values().map(|t| t.self_s).sum();
    out.tally = plain.tally;
    out.tally.attempted += traced.tally.attempted;
    out.tally.mismatches += traced.tally.mismatches;
    out.metrics = crate::layer_metrics(&[
        (
            "tournament.adaptive_fit.self_frac",
            share("tournament.adaptive_fit"),
        ),
        (
            "tournament.static_fit.self_frac",
            share("tournament.static_fit"),
        ),
        ("tournament.eval.self_frac", share("tournament.eval")),
        ("defense.apply.self_frac", share("defense.apply")),
        ("niom.threshold_detect.calls_per_s", detect_calls_per_s(&w)),
        (
            "tournament.grid_detect_calls",
            grid_detect_calls(defenses().len()),
        ),
        ("netsim.shape.self_frac", share("netsim.shape")),
        (
            "netsim.strong_features.self_frac",
            share("netsim.strong_features"),
        ),
        ("netsim.strong_fit.self_frac", share("netsim.strong_fit")),
        (
            "netsim.strong_predict.self_frac",
            share("netsim.strong_predict"),
        ),
        ("bench.traced_wall_s", t1 - t0),
        ("bench.unattributed_frac", 1.0 - attributed / wall_threads),
        (
            "bench.trace_overhead_frac",
            traced.wall_s / plain.wall_s - 1.0,
        ),
    ]);
    out
}
