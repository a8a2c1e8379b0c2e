//! End-to-end and per-layer benchmark of the pipeline crates.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `home-days`, `fleetd-resident`, `adversary` (see
//! `perfbench/layers.json` for what each stresses).
//! Every input is generated from `--seed`. With `--trace 0` the run
//! reports the end-to-end metrics; with `--trace 1` it records the
//! benchmark's own spans around each call into a layer and reports the
//! per-layer metrics instead. The last line of standard output is the
//! result object; the line before it carries the run's metadata and the
//! workload's own named metrics. Exits 1 when any output fails its
//! correctness check, 2 on a usage error.

mod adversary;
mod fleetd;
mod home_days;
mod stats;
mod trace;

use stats::Tally;
use std::fmt::Write as _;

/// Metrics of the end-to-end run, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("read_ms", "ms"),
];

/// Metrics of the traced run, in `BENCHMARK.json` order. Every traced
/// run reports all of them; a layer a workload never calls reads 0.
/// Self times are shares of the traced wall × threads (`.self_frac`),
/// so they and `bench.unattributed_frac` sum to 1; per-call costs of
/// replayed layer calls are calls per second of their span time.
const PER_LAYER: [(&str, &str); 61] = [
    ("homesim.simulate.self_frac", "ratio"),
    ("homesim.simulate.calls", "count"),
    ("faults.apply_trace.self_frac", "ratio"),
    ("faults.fill.self_frac", "ratio"),
    ("stream.threshold_feed.self_frac", "ratio"),
    ("stream.threshold_finalize.self_frac", "ratio"),
    ("stream.fhmm_feed.self_frac", "ratio"),
    ("stream.samples", "count"),
    ("nilm.fhmm_finalize.self_frac", "ratio"),
    ("niom.hmm_detect.self_frac", "ratio"),
    ("niom.threshold_detect.self_frac", "ratio"),
    ("defense.chpr_apply.self_frac", "ratio"),
    ("defense.battery_apply.self_frac", "ratio"),
    ("defense.dp_apply.self_frac", "ratio"),
    ("iot-privacy.fleet.self_frac", "ratio"),
    ("bench.home.self_frac", "ratio"),
    ("fleet.busy_frac", "ratio"),
    ("fleet.retries", "count"),
    ("fleet.quarantined", "count"),
    ("stream.vs_batch_same_readings", "x"),
    ("nilm.batch_vs_single", "x"),
    ("fleetd.admit_round.self_frac", "ratio"),
    ("fleetd.round_growth", "x"),
    ("fleetd.digest.self_frac", "ratio"),
    ("fleetd.evictions", "count"),
    ("fleetd.rehydrations", "count"),
    ("fleetd.rehydrate_per_home_round", "ratio"),
    ("fleetd.cold_bytes_per_home", "B"),
    ("fleetd.resident_bytes_per_home", "B"),
    ("fleetd.gen.ops_per_s", "1/s"),
    ("fleetd.finalize_home.ops_per_s", "1/s"),
    ("stream.checkpoint.ops_per_s", "1/s"),
    ("stream.feed.ops_per_s", "1/s"),
    ("codec.encode.ops_per_s", "1/s"),
    ("codec.decode.ops_per_s", "1/s"),
    ("codec.bytes", "B"),
    ("store.frame_encode.ops_per_s", "1/s"),
    ("store.frame_validate.ops_per_s", "1/s"),
    ("obs.scrape.self_frac", "ratio"),
    ("obs.exposition_bytes", "B"),
    ("obs.timing_records", "count"),
    ("store.put.ops_per_s", "1/s"),
    ("store.get.ops_per_s", "1/s"),
    ("store.manifest_commit.ops_per_s", "1/s"),
    ("store.files", "count"),
    ("fleetd.recover.self_frac", "ratio"),
    ("fleetd.store_retries", "count"),
    ("fleetd.quarantined", "count"),
    ("tournament.adaptive_fit.self_frac", "ratio"),
    ("tournament.static_fit.self_frac", "ratio"),
    ("tournament.eval.self_frac", "ratio"),
    ("defense.apply.self_frac", "ratio"),
    ("niom.threshold_detect.calls_per_s", "1/s"),
    ("tournament.grid_detect_calls", "count"),
    ("netsim.shape.self_frac", "ratio"),
    ("netsim.strong_features.self_frac", "ratio"),
    ("netsim.strong_fit.self_frac", "ratio"),
    ("netsim.strong_predict.self_frac", "ratio"),
    ("bench.traced_wall_s", "s"),
    ("bench.unattributed_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Command-line parameters of one run.
pub struct Params {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// The result line's metrics.
    pub metrics: Vec<Metric>,
    /// The workload's own named metrics (metadata line).
    pub named: Vec<Metric>,
    /// Tail percentile behind a tail-latency metric, if any.
    pub tail_percentile: Option<f64>,
}

/// Expands measured per-layer values to the full [`PER_LAYER`] list,
/// reading 0 for every layer the workload did not measure.
///
/// # Panics
///
/// Panics on a measured name that is not in [`PER_LAYER`].
pub fn layer_metrics(measured: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in measured {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is not registered"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            Metric::new(name, value, unit)
        })
        .collect()
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <home-days|fleetd-resident|adversary> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Params {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    Params {
        workload,
        seed,
        seconds,
        trace,
        threads: rayon::current_num_threads(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric values must be finite, got {v}");
    format!("{v:?}")
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let p = parse_args(&args);
    let out = match p.workload.as_str() {
        "home-days" => home_days::run(&p),
        "fleetd-resident" => fleetd::run(&p),
        "adversary" => adversary::run(&p),
        _ => usage(),
    };
    let expected: &[(&str, &str)] = if p.trace { &PER_LAYER } else { &END_TO_END };
    let got: Vec<(&str, &str)> = out
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    assert_eq!(got, expected, "workload reported the wrong metric set");

    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let meta = format!(
        "{{\"perfbench\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"threads\": {}, \"rustc\": {}, \"git_sha\": {}, \"source_sha256\": {}, \
         \"tail_percentile\": {}, \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \
         \"quarantined\": {}, \"store_errors\": {}, \"mismatches\": {}, \"named\": {}}}}}",
        json_str(&p.workload),
        p.seed,
        json_num(p.seconds),
        p.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        p.threads,
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_GIT_SHA")),
        json_str(&env("PERFBENCH_SOURCE_SHA256")),
        out.tail_percentile.map_or("null".to_string(), json_num),
        out.tally.attempted,
        out.tally.failed(),
        json_num(out.tally.failed_frac()),
        out.tally.quarantined,
        out.tally.store_errors,
        out.tally.mismatches,
        metrics_json(&out.named),
    );
    println!("{meta}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.tally.correct(),
        out.tally.attempted,
        out.tally.failed(),
        metrics_json(&out.metrics)
    );
    if !out.tally.correct() {
        std::process::exit(1);
    }
}
