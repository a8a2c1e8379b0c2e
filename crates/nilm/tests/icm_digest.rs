//! Pins the ICM decoder's output: a digest of the per-device state paths
//! that `Fhmm::decode` and `Fhmm::decode_batch` return for a
//! `max_exact_states: 1` model over fixed seeded meters. Any change to the
//! Viterbi step, the residual fill, or the sweep order that moves a single
//! state shows up here.

use nilm::{train_device_hmm, DecodeArena, Fhmm, FhmmConfig};
use timeseries::rng::{normal, seeded_rng};
use timeseries::{PowerTrace, Resolution, Timestamp};

/// FNV-1a digest of the decoder output, recorded before the ICM sweeps
/// moved from the lane-major batch kernel onto the single-lane step.
const ICM_PATHS_DIGEST: u64 = 0xc57d_cc4a_e766_59ab;

fn square_wave(period: usize, on: usize, watts: f64, len: usize) -> PowerTrace {
    PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, len, |i| {
        if i % period < on {
            watts
        } else {
            0.0
        }
    })
}

/// Three devices (2 × 3 × 2 = 12 joint states), forced onto ICM.
fn icm_fhmm() -> Fhmm {
    let kettle = square_wave(45, 6, 1_800.0, 900);
    let fridge = PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, 900, |i| {
        match i % 60 {
            0..=19 => 0.0,
            20..=44 => 120.0,
            _ => 240.0,
        }
    });
    let lamp = square_wave(130, 70, 60.0, 900);
    Fhmm::with_config(
        vec![
            train_device_hmm("kettle", &kettle, 2),
            train_device_hmm("fridge", &fridge, 3),
            train_device_hmm("lamp", &lamp, 2),
        ],
        FhmmConfig {
            max_exact_states: 1,
            ..FhmmConfig::default()
        },
    )
}

/// Seeded noisy meters of mixed lengths, down to a single sample.
fn meters() -> Vec<PowerTrace> {
    [240usize, 240, 97, 240, 97, 1, 240, 13]
        .iter()
        .enumerate()
        .map(|(seed, &len)| {
            let mut rng = seeded_rng(seed as u64);
            PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, len, |i| {
                let kettle = if (i + seed * 7) % 45 < 6 {
                    1_800.0
                } else {
                    0.0
                };
                let fridge = [0.0, 120.0, 240.0][((i + seed * 11) % 60) / 20];
                let lamp = if (i + seed * 29) % 130 < 70 {
                    60.0
                } else {
                    0.0
                };
                kettle + fridge + lamp
            })
            .map(|w| (w + normal(&mut rng, 0.0, 35.0)).max(0.0))
        })
        .collect()
}

fn digest(decoded: &[Vec<Vec<usize>>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for paths in decoded {
        eat(paths.len() as u64);
        for path in paths {
            eat(path.len() as u64);
            for &state in path {
                eat(state as u64);
            }
        }
    }
    h
}

#[test]
fn icm_decode_paths_are_pinned() {
    let fhmm = icm_fhmm();
    assert!(!fhmm.exact_capable());
    let meters = meters();
    let refs: Vec<&PowerTrace> = meters.iter().collect();
    let mut arena = DecodeArena::new();

    let singles: Vec<Vec<Vec<usize>>> = meters.iter().map(|m| fhmm.decode(m, &mut arena)).collect();
    let batched = fhmm.decode_batch(&refs, &mut arena);
    assert_eq!(batched, singles);
    // Every device changes state on the long meters, so the digest covers
    // real decisions rather than an all-off path.
    for paths in singles.iter().filter(|p| p[0].len() == 240) {
        for path in paths {
            assert!(path.iter().any(|&s| s != path[0]), "constant path {path:?}");
        }
    }
    assert_eq!(
        digest(&singles),
        ICM_PATHS_DIGEST,
        "got {:#x}",
        digest(&singles)
    );
}
