//! `sweep_confusions` ≡ `truth.confusion(&d.detect(meter))` for every
//! candidate: the shared-summary grid scorer must be exact, not close.

use niom::{sweep_confusions, OccupancyDetector, ThresholdDetector};
use proptest::prelude::*;
use timeseries::rng::{laplace, seeded_rng};
use timeseries::{LabelSeries, PowerTrace, Resolution, Timestamp};

/// Window lengths drawn from a small set, so candidates in one sweep share
/// window tables; 500 is longer than every generated trace.
const WINDOWS: [usize; 6] = [1, 3, 7, 15, 60, 500];
const MIN_RUNS: [usize; 4] = [0, 1, 2, 3];
/// A rung so high the channel never fires, as in the tournament grid.
const CHANNEL_OFF: f64 = 1.0e9;

fn assert_sweep_matches_detect(
    grid: &[ThresholdDetector],
    meter: &PowerTrace,
    truth: &LabelSeries,
) {
    let swept = sweep_confusions(grid, meter, truth).expect("aligned");
    assert_eq!(swept.len(), grid.len());
    for (d, got) in grid.iter().zip(&swept) {
        let want = truth.confusion(&d.detect(meter)).expect("aligned");
        assert_eq!(
            *got,
            want,
            "candidate {d:?} on a {}-sample trace",
            meter.len()
        );
    }
}

/// Every edge the sweep has to get right, crossed exhaustively: empty,
/// shorter-than-window and trailing-partial-window traces; smoother runs
/// 0, 1 and 3; no prior, a wrapping and a non-wrapping prior; a start
/// that is not midnight.
#[test]
fn sweep_matches_detect_on_every_edge_case() {
    let start = Timestamp::from_dhms(2, 21, 37, 0);
    let mut grid = Vec::new();
    for window in [1, 7, 15, 60] {
        for min_run_windows in [0, 1, 3] {
            for night_prior in [None, Some((22, 7)), Some((1, 5))] {
                for (margin, sigma) in [(20.0, CHANNEL_OFF), (CHANNEL_OFF, 60.0), (60.0, 110.0)] {
                    grid.push(ThresholdDetector {
                        window,
                        baseline_percentile: 10.0,
                        mean_margin_watts: margin,
                        sigma_threshold_watts: sigma,
                        min_run_windows,
                        night_prior,
                    });
                }
            }
        }
    }
    for len in [0, 5, 59, 60, 61, 1_000] {
        let meter = PowerTrace::from_fn(start, Resolution::ONE_MINUTE, len, |i| {
            let burst = if (i / 9) % 4 == 0 { 900.0 } else { 0.0 };
            -40.0 + 150.0 * ((i as f64) * 0.3).sin() + burst
        });
        let truth = LabelSeries::from_fn(start, Resolution::ONE_MINUTE, len, |i| (i / 13) % 3 != 0);
        assert_sweep_matches_detect(&grid, &meter, &truth);
    }
}

#[test]
fn sweep_rejects_misaligned_truth_like_confusion() {
    let meter = PowerTrace::constant(Timestamp::ZERO, Resolution::ONE_MINUTE, 30, 100.0);
    let grid = [ThresholdDetector::default()];
    let short = LabelSeries::new(Timestamp::ZERO, Resolution::ONE_MINUTE, vec![true; 29]);
    let shifted = LabelSeries::new(
        Timestamp::from_secs(60),
        Resolution::ONE_MINUTE,
        vec![true; 30],
    );
    let coarse = LabelSeries::new(Timestamp::ZERO, Resolution::FIFTEEN_MINUTES, vec![true; 30]);
    for truth in [short, shifted, coarse] {
        let want = truth
            .confusion(&grid[0].detect(&meter))
            .expect_err("misaligned");
        assert_eq!(sweep_confusions(&grid, &meter, &truth), Err(want));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random traces (negative samples, optional DP-style Laplace noise,
    /// any start and resolution) against random candidate grids.
    #[test]
    fn sweep_matches_detect_for_random_traces_and_candidates(
        trace in (
            prop::collection::vec(-300.0f64..2_500.0, 0..400),
            prop::collection::vec(any::<bool>(), 400..401),
            (0u64..4 * 86_400, prop_oneof![1 => Just(1u32), 3 => Just(60u32), 1 => Just(900u32)]),
        ),
        noise in (any::<bool>(), 1.0f64..400.0, any::<u64>()),
        candidates in prop::collection::vec(
            (
                (0usize..WINDOWS.len(), 0.0f64..100.0, 0usize..MIN_RUNS.len()),
                (-50.0f64..600.0, -10.0f64..600.0, 0u8..8),
                (0u8..3, 0u8..24, 0u8..24),
            ),
            1..16,
        ),
    ) {
        let (mut watts, bits, (start_secs, resolution_secs)) = trace;
        let (noised, scale, seed) = noise;
        if noised {
            let mut rng = seeded_rng(seed);
            for w in &mut watts {
                *w += laplace(&mut rng, 0.0, scale);
            }
        }
        let start = Timestamp::from_secs(start_secs);
        let resolution = Resolution::from_secs(resolution_secs);
        let meter = PowerTrace::from_fn(start, resolution, watts.len(), |i| watts[i]);
        let truth = LabelSeries::new(start, resolution, bits[..watts.len()].to_vec());
        let grid: Vec<ThresholdDetector> = candidates
            .into_iter()
            .map(|((w, bp, run), (margin, sigma, off), (prior, from, to))| ThresholdDetector {
                window: WINDOWS[w],
                baseline_percentile: bp,
                mean_margin_watts: if off == 0 { CHANNEL_OFF } else { margin },
                sigma_threshold_watts: if off == 1 { CHANNEL_OFF } else { sigma },
                min_run_windows: MIN_RUNS[run],
                night_prior: match prior {
                    0 => None,
                    _ => Some((from, to)),
                },
            })
            .collect();
        assert_sweep_matches_detect(&grid, &meter, &truth);
    }
}
