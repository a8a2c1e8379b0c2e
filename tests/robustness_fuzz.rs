//! Fuzz tests for the degraded-input contract: no library entry point may
//! panic on empty, all-NaN, single-sample, or gap-riddled traces. The
//! `try_*` entry points must return a typed [`PipelineError`] (or succeed)
//! — never unwind — and the fault layer itself must stay total over
//! arbitrary raw buffers.

use faults::{FaultPlan, FaultyTrace, GapFill, TraceFault};
use iot_privacy_suite::defense::{BatteryLeveler, Chpr, Defense};
use iot_privacy_suite::loads::Catalogue;
use iot_privacy_suite::netsim::fingerprint::labelled_examples;
use iot_privacy_suite::netsim::{
    simulate_home_network, DeviceType, GatewayPolicy, NaiveBayes, SmartGateway,
};
use iot_privacy_suite::nilm::{DeviceHmm, Disaggregator, Fhmm, FhmmConfig, PowerPlay};
use iot_privacy_suite::niom::{HmmDetector, OccupancyDetector, ThresholdDetector};
use iot_privacy_suite::stream::{
    dense_samples, faulty_samples, feed_partitioned, BatteryStream, ChprStream, FhmmStream, Sample,
    StreamFill, StreamSpec, StreamState, ThresholdStream,
};
use iot_privacy_suite::timeseries::rng::seeded_rng;
use iot_privacy_suite::timeseries::{LabelSeries, PowerTrace, Resolution, Timestamp};
use proptest::prelude::*;

/// Raw meter samples as an attacker-controlled feed would deliver them:
/// any length (including 0 and 1), any value (including NaN, ±∞, and
/// negatives).
fn raw_samples() -> impl Strategy<Value = Vec<f64>> {
    let sample = prop_oneof![
        5 => 0.0f64..5_000.0,
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
        1 => -100.0f64..0.0,
    ];
    prop::collection::vec(sample, 0..200)
}

/// A trained FHMM over a couple of tiny two-state device models, reused
/// across cases (training is deterministic and the models are small).
fn tiny_fhmm() -> Fhmm {
    Fhmm::new(tiny_models())
}

/// The same models forced onto the buffered ICM decoder.
fn tiny_icm_fhmm() -> Fhmm {
    Fhmm::with_config(
        tiny_models(),
        FhmmConfig {
            max_exact_states: 1,
            ..FhmmConfig::default()
        },
    )
}

fn tiny_models() -> Vec<DeviceHmm> {
    use iot_privacy_suite::nilm::train_device_hmm;
    let on_off = PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, 1_440, |i| {
        if (i / 30) % 2 == 0 {
            0.0
        } else {
            1_200.0
        }
    });
    let steady = PowerTrace::constant(Timestamp::ZERO, Resolution::ONE_MINUTE, 1_440, 90.0);
    vec![
        train_device_hmm("burst", &on_off, 2),
        train_device_hmm("base", &steady, 2),
    ]
}

proptest! {
    /// The fault layer is total: any raw buffer becomes a gap-marked
    /// trace, every fill policy yields a valid finite PowerTrace, and the
    /// keep mask stays aligned.
    #[test]
    fn fault_layer_is_total_over_raw_buffers(samples in raw_samples(), seed in any::<u64>()) {
        let faulted = FaultyTrace::from_raw(
            Timestamp::ZERO,
            Resolution::ONE_MINUTE,
            samples.clone(),
        );
        prop_assert_eq!(faulted.len(), samples.len());
        prop_assert_eq!(faulted.keep_mask().len(), samples.len());
        for policy in [GapFill::Zero, GapFill::Hold, GapFill::Linear] {
            let filled = faulted.fill(policy);
            prop_assert_eq!(filled.len(), samples.len());
            prop_assert!(filled.validate().is_ok());
        }
        // Stacking every fault kind on the filled trace never panics
        // either, and the result still fills to a valid trace.
        let plan = FaultPlan::new(vec![
            TraceFault::Outage { fraction: 0.3, mean_len: 10 },
            TraceFault::Drop { prob: 0.1 },
            TraceFault::Duplicate { prob: 0.1 },
            TraceFault::ClockJitter { max_slots: 3 },
            TraceFault::Spike { prob: 0.05, magnitude_watts: 2_000.0 },
            TraceFault::NanCorrupt { prob: 0.05 },
        ]);
        let refaulted = plan.apply_trace(&faulted.fill(GapFill::Hold), seed);
        prop_assert!(refaulted.fill(GapFill::Linear).validate().is_ok());
    }

    /// NIOM detectors never panic on degraded feeds: `try_detect` returns
    /// Ok or a typed error on empty, single-sample, and gap-riddled input.
    #[test]
    fn niom_detectors_never_panic(samples in raw_samples(), seed in any::<u64>()) {
        let faulted = FaultyTrace::from_raw(Timestamp::ZERO, Resolution::ONE_MINUTE, samples);
        let plan = FaultPlan::power_profile(0.5);
        let meter = plan
            .apply_trace(&faulted.fill(GapFill::Hold), seed)
            .fill(GapFill::Zero);
        for detector in [&ThresholdDetector::default() as &dyn OccupancyDetector,
                         &HmmDetector::default()] {
            match detector.try_detect(&meter) {
                Ok(labels) => prop_assert_eq!(labels.len(), meter.len()),
                Err(e) => prop_assert_eq!(e.stage(), Some("niom.detect")),
            }
        }
    }

    /// NILM disaggregators (FHMM and PowerPlay) never panic on degraded
    /// feeds, and any estimates they produce stay aligned.
    #[test]
    fn nilm_disaggregators_never_panic(samples in raw_samples(), seed in any::<u64>()) {
        let faulted = FaultyTrace::from_raw(Timestamp::ZERO, Resolution::ONE_MINUTE, samples);
        let meter = FaultPlan::power_profile(0.25)
            .apply_trace(&faulted.fill(GapFill::Linear), seed)
            .fill(GapFill::Hold);
        let powerplay = PowerPlay::from_catalogue(&Catalogue::figure2());
        for attack in [&tiny_fhmm() as &dyn Disaggregator, &powerplay] {
            match attack.try_disaggregate(&meter) {
                Ok(estimates) => {
                    for e in &estimates {
                        prop_assert_eq!(e.trace.len(), meter.len());
                    }
                }
                Err(e) => prop_assert_eq!(e.stage(), Some("nilm.disaggregate")),
            }
        }
    }

    /// CHPr never panics on degraded feeds and preserves geometry when it
    /// succeeds.
    #[test]
    fn chpr_never_panics(samples in raw_samples(), seed in any::<u64>()) {
        let faulted = FaultyTrace::from_raw(Timestamp::ZERO, Resolution::ONE_MINUTE, samples);
        let meter = faulted.fill(GapFill::Hold);
        match Chpr::default().try_apply(&meter, &mut seeded_rng(seed)) {
            Ok(defended) => prop_assert_eq!(defended.trace.len(), meter.len()),
            Err(e) => prop_assert_eq!(e.stage(), Some("defense.apply")),
        }
    }

    /// Batch equivalence under *arbitrary* chunking: any random partition
    /// of the samples — including empty chunks and a partition that stops
    /// short of the end — streams to the batch pipeline's exact output.
    #[test]
    fn stream_partitions_always_match_batch(
        partition in prop::collection::vec(0usize..200, 0..30),
        phase in 0usize..1_000,
    ) {
        let trace = PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, 900, |i| {
            let j = i + phase;
            120.0 + 35.0 * ((j as f64) * 0.17).sin().abs()
                + if j % 23 < 5 { 1_100.0 } else { 0.0 }
        });
        let spec = StreamSpec::of_trace(&trace);
        let samples = dense_samples(trace.samples());

        let detector = ThresholdDetector::default();
        let mut s = ThresholdStream::new(detector.clone(), spec);
        feed_partitioned(&mut s, &samples, &partition);
        prop_assert_eq!(s.finalize(), detector.detect(&trace));

        let mut d = ChprStream::new(Chpr::default(), 7, spec);
        feed_partitioned(&mut d, &samples, &partition);
        prop_assert_eq!(d.finalize(), Chpr::default().apply(&trace, &mut seeded_rng(7)));

        let mut b = BatteryStream::new(BatteryLeveler::default(), 9, spec);
        feed_partitioned(&mut b, &samples, &partition);
        prop_assert_eq!(
            b.finalize(),
            BatteryLeveler::default().apply(&trace, &mut seeded_rng(9))
        );
    }

    /// Gap-marked partitions match the batch fill + pipeline composition
    /// for every fill policy, at any split. The FHMM streams (exact filter
    /// and buffered ICM) are also cloned at `checkpoint_at` as a
    /// checkpoint: the clone and the original both resume to the batch
    /// output.
    #[test]
    fn faulted_stream_partitions_match_batch_fill(
        partition in prop::collection::vec(0usize..120, 0..20),
        intensity in 0.05f64..0.6,
        seed in any::<u64>(),
        checkpoint_at in 0usize..700,
    ) {
        let trace = PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, 700, |i| {
            90.0 + ((i % 37) as f64) * 12.0
        });
        let faulted = FaultPlan::power_profile(intensity).apply_trace(&trace, seed);
        let samples = faulty_samples(&faulted);
        let spec = StreamSpec::of_faulty(&faulted);
        let detector = ThresholdDetector::default();
        let fhmms = [tiny_fhmm(), tiny_icm_fhmm()];
        let cut = checkpoint_at.min(samples.len());
        for (stream_fill, batch_fill) in
            [(StreamFill::Zero, GapFill::Zero), (StreamFill::Hold, GapFill::Hold)]
        {
            let filled = faulted.fill(batch_fill);
            let mut s = ThresholdStream::new(detector.clone(), spec).with_fill(stream_fill);
            feed_partitioned(&mut s, &samples, &partition);
            prop_assert_eq!(s.finalize(), detector.detect(&filled));

            for fhmm in &fhmms {
                let batch = fhmm.disaggregate(&filled);
                let mut n = FhmmStream::new(fhmm, spec).with_fill(stream_fill);
                feed_partitioned(&mut n, &samples[..cut], &partition);
                let mut resumed = n.clone();
                feed_partitioned(&mut resumed, &samples[cut..], &partition);
                n.feed(&samples[cut..]);
                prop_assert_eq!(resumed.finalize(), batch.clone());
                prop_assert_eq!(n.finalize(), batch);
            }
        }
    }

    /// `checkpoint()` → `restore()` at a random split resumes to the
    /// byte-identical output, even when the stream diverged after the
    /// snapshot; a zero-length checkpoint rewinds to a fresh stream.
    #[test]
    fn checkpoint_restore_at_random_split_resumes_identically(
        split_at in 0usize..900,
        divergence in prop::collection::vec(0.0f64..3_000.0, 0..50),
        phase in 0usize..1_000,
    ) {
        let trace = PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, 900, |i| {
            110.0 + 30.0 * (((i + phase) as f64) * 0.13).cos().abs()
                + if (i + phase) % 31 < 6 { 1_250.0 } else { 0.0 }
        });
        let samples = dense_samples(trace.samples());
        let split = split_at.min(samples.len());
        let detector = ThresholdDetector::default();
        let batch = detector.detect(&trace);

        let mut s = ThresholdStream::new(detector, StreamSpec::of_trace(&trace));
        let blank = s.checkpoint();
        s.feed(&samples[..split]);
        let snap = s.checkpoint();

        // Diverge: feed arbitrary extra samples, then rewind.
        s.feed(&dense_samples(&divergence));
        s.restore(&snap);
        s.feed(&samples[split..]);
        prop_assert_eq!(s.finalize(), batch.clone());

        // The zero-length snapshot rewinds to an un-fed stream that can
        // replay the whole trace again.
        s.restore(&blank);
        prop_assert_eq!(s.items(), 0);
        prop_assert!(s.try_finalize().is_err());
        s.feed(&samples);
        prop_assert_eq!(s.finalize(), batch);
    }

    /// Streaming `try_finalize` never unwinds on adversarial feeds: raw
    /// buffers (NaN, ±∞, negatives, any length) fed in arbitrary chunks —
    /// with or without a fill policy — either finalize cleanly or report a
    /// typed error, exactly like the batch `try_*` contract.
    #[test]
    fn stream_try_finalize_never_panics(
        samples in raw_samples(),
        partition in prop::collection::vec(0usize..80, 0..10),
        use_fill in any::<bool>(),
    ) {
        let payload: Vec<Sample> = samples
            .iter()
            .map(|&w| Sample { watts: w, gap: !w.is_finite() })
            .collect();
        let spec = StreamSpec::new(Timestamp::ZERO, Resolution::ONE_MINUTE);

        let mut s = ThresholdStream::new(ThresholdDetector::default(), spec);
        if use_fill {
            s = s.with_fill(StreamFill::Hold);
        }
        feed_partitioned(&mut s, &payload, &partition);
        match s.try_finalize() {
            Ok(labels) => prop_assert_eq!(labels.len(), payload.len()),
            Err(e) => prop_assert!(e.stage().is_some()),
        }

        let fhmm = tiny_fhmm();
        let mut n = FhmmStream::new(&fhmm, spec).with_fill(StreamFill::Zero);
        feed_partitioned(&mut n, &payload, &partition);
        match n.try_finalize() {
            Ok(estimates) => {
                for e in &estimates {
                    prop_assert_eq!(e.trace.len(), payload.len());
                }
            }
            Err(e) => prop_assert!(e.stage().is_some()),
        }

        let mut d = ChprStream::new(Chpr::default(), 3, spec).with_fill(StreamFill::Hold);
        feed_partitioned(&mut d, &payload, &partition);
        match d.try_finalize() {
            Ok(defended) => prop_assert_eq!(defended.trace.len(), payload.len()),
            Err(e) => prop_assert!(e.stage().is_some()),
        }
    }

    /// Classifier training and the gateway never panic on degenerate
    /// inputs: empty training sets are typed errors, zero-window policies
    /// and empty flow logs are handled.
    #[test]
    fn gateway_and_fingerprint_never_panic(
        window_secs in 0u64..7_200,
        keep_every in 1usize..20,
        seed in 1u64..500,
    ) {
        prop_assert!(NaiveBayes::try_train(&[]).is_err());

        let occupancy = LabelSeries::from_fn(
            Timestamp::ZERO,
            Resolution::ONE_MINUTE,
            1_440,
            |i| i % 1_440 < 540,
        );
        let inv = [DeviceType::IpCamera, DeviceType::SmartPlug];
        let trace = simulate_home_network(&inv, &occupancy, 1, seed);

        // A gap-riddled flow log: keep only every k-th flow.
        let mut damaged = trace.clone();
        damaged.flows = damaged
            .flows
            .into_iter()
            .step_by(keep_every)
            .collect();

        let examples = labelled_examples(&damaged, 4);
        match NaiveBayes::try_train(&examples) {
            Ok(classifier) => {
                // Prediction is total over any example set.
                for (_, fv) in examples.iter().take(5) {
                    let _ = iot_privacy_suite::netsim::DeviceClassifier::predict(&classifier, fv);
                }
            }
            Err(e) => prop_assert_eq!(e.stage(), Some("netsim.fingerprint.train")),
        }

        let mut gateway = SmartGateway::new(GatewayPolicy {
            window_secs,
            ..GatewayPolicy::default()
        });
        gateway.profile(&damaged.flows, damaged.horizon_secs);
        let verdicts = gateway.monitor(&damaged.flows, damaged.horizon_secs);
        prop_assert!(verdicts.len() <= inv.len());
        // Empty flow logs are fine in both phases.
        gateway.profile(&[], damaged.horizon_secs);
        prop_assert!(gateway.monitor(&[], damaged.horizon_secs).is_empty());
    }
}
