//! Criterion micro-benchmarks for the optimized hot paths: FHMM exact
//! factorial Viterbi, the ICM fallback, the fleet scenario engine, and
//! the streaming ingestion layer (the kernels behind the
//! `stream_throughput` experiment, including its `--metrics` mode).
//!
//! The FHMM cases reuse one trained model set and one simulated day of
//! meter data so that run-to-run numbers compare the decode kernels, not
//! simulation noise.

use criterion::{criterion_group, criterion_main, Criterion};
use iot_privacy::homesim::{Home, HomeConfig};
use iot_privacy::loads::Catalogue;
use iot_privacy::nilm::{train_device_hmm, DecodeArena, Disaggregator, Fhmm, FhmmConfig};
use iot_privacy::niom::ThresholdDetector;
use iot_privacy::scenario::EnergyScenario;
use iot_privacy::stream::{
    dense_samples, feed_chunked, FhmmStream, StreamSpec, StreamState, ThresholdStream,
};
use iot_privacy::streaming::StreamingScenario;
use iot_privacy::timeseries::PowerTrace;
use iot_privacy::{run_fleet_supervised_with, HomeAttempt, SupervisorConfig};

fn bench_hot_paths(c: &mut Criterion) {
    let tracked = Catalogue::figure2();
    let home = Home::simulate(&HomeConfig::new(5).days(3).catalogue(tracked.clone()));
    let models: Vec<_> = home
        .devices
        .iter()
        .map(|d| train_device_hmm(&d.name, &d.trace, 2))
        .collect();
    let day = home.meter.day_slice(1);

    c.bench_function("fhmm/exact_viterbi_1_day", |b| {
        let fhmm = Fhmm::new(models.clone());
        assert!(fhmm.joint_states() <= FhmmConfig::default().max_exact_states);
        b.iter(|| fhmm.disaggregate(&day))
    });

    c.bench_function("fhmm/icm_1_day", |b| {
        // Shrink the exact-inference budget to zero so the same model set
        // exercises the ICM coordinate-descent fallback.
        let config = FhmmConfig {
            max_exact_states: 1,
            ..FhmmConfig::default()
        };
        let fhmm = Fhmm::with_config(models.clone(), config);
        b.iter(|| fhmm.disaggregate(&day))
    });

    // A 32-meter batch through one warm arena (4 devices, 16 joint states
    // — the stream_throughput decode-section shape). The shared arena
    // outside b.iter is the intended production lifecycle: one warm
    // allocation serving every batch.
    let kernel = Fhmm::new(models.iter().take(4).cloned().collect());
    let kernel_meters: Vec<PowerTrace> = (0..32)
        .map(|i| day.map(|w| w + (i % 13) as f64 * 3.5))
        .collect();
    let refs: Vec<&PowerTrace> = kernel_meters.iter().collect();
    c.bench_function("fhmm/decode_32_homes", |b| {
        let mut arena = DecodeArena::new();
        b.iter(|| kernel.decode_batch(&refs, &mut arena))
    });

    let sup = SupervisorConfig::default();
    let batch_home = |a: HomeAttempt| EnergyScenario::new(a.seed).days(1).run();
    let stream_home = |a: HomeAttempt| StreamingScenario::new(a.seed).days(1).chunk_len(60).run();

    c.bench_function("fleet/10_homes_1_day", |b| {
        b.iter(|| run_fleet_supervised_with(10, 7, sup, batch_home))
    });

    // Same fleet with the obs layer recording — the measured number backs
    // the <2 % overhead budget in docs/OBSERVABILITY.md. The per-iteration
    // reset keeps registry memory flat across criterion's iteration loop.
    c.bench_function("fleet/10_homes_1_day_metrics_on", |b| {
        iot_privacy::obs::enable();
        b.iter(|| {
            iot_privacy::obs::reset();
            run_fleet_supervised_with(10, 7, sup, batch_home)
        });
        iot_privacy::obs::disable();
        iot_privacy::obs::reset();
    });

    // Streaming ingestion kernels: chunked feed + finalize against the
    // same one-day payloads the batch cases above decode.
    let day_samples = dense_samples(day.samples());
    let day_spec = StreamSpec::of_trace(&day);

    c.bench_function("stream/threshold_feed_1_day_chunk60", |b| {
        let detector = ThresholdDetector::default();
        b.iter(|| {
            let mut s = ThresholdStream::new(detector.clone(), day_spec);
            feed_chunked(&mut s, &day_samples, 60);
            s.finalize()
        })
    });

    c.bench_function("stream/fhmm_exact_feed_1_day_chunk60", |b| {
        let fhmm = Fhmm::new(models.clone());
        b.iter(|| {
            let mut s = FhmmStream::new(&fhmm, day_spec);
            feed_chunked(&mut s, &day_samples, 60);
            s.finalize()
        })
    });

    // The stream_throughput experiment's inner loop: a supervised
    // streaming fleet at one-hour chunks.
    c.bench_function("stream/fleet_10_homes_1_day_chunk60", |b| {
        b.iter(|| run_fleet_supervised_with(10, 7, sup, stream_home))
    });

    // Same streaming fleet with the obs layer recording — what
    // `stream_throughput --metrics` measures per chunk-length sweep.
    c.bench_function("stream/fleet_10_homes_1_day_chunk60_metrics_on", |b| {
        iot_privacy::obs::enable();
        b.iter(|| {
            iot_privacy::obs::reset();
            run_fleet_supervised_with(10, 7, sup, stream_home)
        });
        iot_privacy::obs::disable();
        iot_privacy::obs::reset();
    });
}

criterion_group!(hot_paths, bench_hot_paths);
criterion_main!(hot_paths);
