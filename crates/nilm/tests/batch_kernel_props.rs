//! Property tests of the batch decode entry points.
//!
//! The batching contract says: for any number of meters, any batch
//! grouping, and any finite input watts — model-matched or not —
//! `decode_batch` and `disaggregate_batch` return byte-identical results
//! to the single-home decoder, ragged meter lengths included.

use std::sync::OnceLock;

use nilm::{train_device_hmm, DecodeArena, Fhmm, FhmmConfig};
use proptest::prelude::*;
use timeseries::{PowerTrace, Resolution, Timestamp};

fn square_wave(period: usize, on: usize, watts: f64, len: usize) -> PowerTrace {
    PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, len, |i| {
        if i % period < on {
            watts
        } else {
            0.0
        }
    })
}

/// Two trained two-state devices (4 joint states) — small enough that a
/// proptest case decodes in microseconds, large enough to exercise the
/// joint tables.
fn devices() -> Vec<nilm::DeviceHmm> {
    vec![
        train_device_hmm("a", &square_wave(40, 15, 150.0, 600), 2),
        train_device_hmm("b", &square_wave(90, 30, 1_000.0, 600), 2),
    ]
}

fn exact_fhmm() -> &'static Fhmm {
    static MODEL: OnceLock<Fhmm> = OnceLock::new();
    MODEL.get_or_init(|| Fhmm::new(devices()))
}

fn icm_fhmm() -> &'static Fhmm {
    static MODEL: OnceLock<Fhmm> = OnceLock::new();
    MODEL.get_or_init(|| {
        Fhmm::with_config(
            devices(),
            FhmmConfig {
                max_exact_states: 1,
                ..FhmmConfig::default()
            },
        )
    })
}

fn traces(xs: &[Vec<f64>]) -> Vec<PowerTrace> {
    xs.iter()
        .map(|x| PowerTrace::new(Timestamp::ZERO, Resolution::ONE_MINUTE, x.clone()).unwrap())
        .collect()
}

/// Asserts batched decode == per-meter single decode, paths and estimates.
fn assert_batch_identical(fhmm: &Fhmm, meters: &[PowerTrace]) {
    let refs: Vec<&PowerTrace> = meters.iter().collect();
    let mut arena = DecodeArena::new();
    let batched = fhmm.decode_batch(&refs, &mut arena);
    assert_eq!(batched.len(), meters.len());
    for (m, got) in meters.iter().zip(&batched) {
        let solo = fhmm.decode(m, &mut arena);
        assert_eq!(got, &solo);
    }
    let estimates = fhmm.disaggregate_batch(&refs, &mut arena);
    for (m, got) in meters.iter().zip(&estimates) {
        let solo = fhmm.disaggregate_with(m, &mut arena);
        assert_eq!(got, &solo);
    }
}

proptest! {
    /// Exact Viterbi: any meter count, ragged lengths, arbitrary watts.
    #[test]
    fn batched_exact_identical_to_single(
        xs in prop::collection::vec(
            prop::collection::vec(0.0f64..3_000.0, 1..80), 1..7),
    ) {
        assert_batch_identical(exact_fhmm(), &traces(&xs));
    }

    /// ICM fallback: every meter in the batch gets the single-home sweep.
    #[test]
    fn batched_icm_identical_to_single(
        xs in prop::collection::vec(
            prop::collection::vec(0.0f64..3_000.0, 1..40), 1..5),
    ) {
        assert_batch_identical(icm_fhmm(), &traces(&xs));
    }

    /// Equal-length meters decoded as one batch must equal the same meters
    /// decoded through any batch split (ragged last batch included) —
    /// this is what lets the fleet layer pick its shard size freely.
    #[test]
    fn batch_split_invariant(
        xs in prop::collection::vec(
            prop::collection::vec(0.0f64..3_000.0, 30..31), 1..9),
        batch in 1usize..10,
    ) {
        let meters = traces(&xs);
        let refs: Vec<&PowerTrace> = meters.iter().collect();
        let mut arena = DecodeArena::new();
        let whole = exact_fhmm().decode_batch(&refs, &mut arena);
        let sharded: Vec<_> = refs
            .chunks(batch)
            .flat_map(|shard| exact_fhmm().decode_batch(shard, &mut arena))
            .collect();
        prop_assert_eq!(whole, sharded);
    }
}
