//! Threshold-based NIOM (Chen et al., BuildSys'13).

use crate::detector::OccupancyDetector;
use serde::{Deserialize, Serialize};
use timeseries::labels::Confusion;
use timeseries::{
    LabelSeries, PowerTrace, Resolution, Summary, Timestamp, TraceError, WindowStats,
};

/// The statistical threshold detector.
///
/// The trace is split into non-overlapping windows; each window's mean and
/// standard deviation are compared against thresholds *calibrated from the
/// trace itself*: the baseline is a low percentile of windowed means (the
/// background-only level — a fridge cycles whether or not anyone is home),
/// and a window is declared occupied when its mean rises materially above
/// that baseline **or** its σ shows interactive burstiness. Short flickers
/// are removed with a run-length smoother.
///
/// Defaults follow the paper's setting: 15-minute windows on 1-minute data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdDetector {
    /// Window length in samples.
    pub window: usize,
    /// Percentile (0–100) of window means used as the background baseline.
    pub baseline_percentile: f64,
    /// Watts above baseline that flags a window occupied by level.
    pub mean_margin_watts: f64,
    /// σ (watts) that flags a window occupied by burstiness.
    pub sigma_threshold_watts: f64,
    /// Minimum run length, in windows, kept by the smoother.
    pub min_run_windows: usize,
    /// Hours `(from, to)` (wrapping midnight) assumed occupied regardless
    /// of power — the standard NIOM sleep prior: occupants are home but
    /// inactive overnight, which power alone cannot reveal. `None` disables
    /// the prior.
    pub night_prior: Option<(u8, u8)>,
}

impl Default for ThresholdDetector {
    fn default() -> Self {
        ThresholdDetector {
            window: 15,
            baseline_percentile: 10.0,
            mean_margin_watts: 100.0,
            sigma_threshold_watts: 110.0,
            min_run_windows: 2,
            night_prior: Some((22, 7)),
        }
    }
}

impl ThresholdDetector {
    /// Creates a detector with a custom window length and the default
    /// thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(window: usize) -> Self {
        assert!(window > 0, "window must be non-empty");
        ThresholdDetector {
            window,
            ..ThresholdDetector::default()
        }
    }

    /// The background baseline (watts) this detector would calibrate on
    /// `meter`: the configured percentile of window means.
    pub fn baseline_watts(&self, meter: &PowerTrace) -> f64 {
        let means: Vec<f64> = WindowStats::new(meter, self.window)
            .map(|(_, s)| s.mean)
            .collect();
        self.baseline_from_window_means(&means)
    }

    /// The baseline computed from window means given in trace order (the
    /// same values [`baseline_watts`](Self::baseline_watts) derives itself);
    /// exposed so incremental callers that already hold window summaries
    /// reuse the exact batch arithmetic.
    pub fn baseline_from_window_means(&self, means_in_order: &[f64]) -> f64 {
        let mut means = means_in_order.to_vec();
        means.sort_by(|a, b| a.total_cmp(b));
        self.baseline_from_sorted_means(&means)
    }

    /// The configured percentile of window means already sorted ascending.
    fn baseline_from_sorted_means(&self, sorted: &[f64]) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = (self.baseline_percentile / 100.0 * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    fn classify_window(&self, mean: f64, sigma: f64, baseline: f64) -> bool {
        mean > baseline + self.mean_margin_watts || sigma > self.sigma_threshold_watts
    }

    /// The threshold rule: classifies each window's `(mean, σ)` against
    /// `baseline` and run-length smooths the result into `flags`. Both
    /// [`detect_from_windows`](Self::detect_from_windows) and
    /// [`sweep_confusions`] go through here, so they cannot drift apart.
    fn window_flags(
        &self,
        baseline: f64,
        windows: impl Iterator<Item = (f64, f64)>,
        flags: &mut Vec<bool>,
    ) {
        flags.clear();
        flags.extend(windows.map(|(mean, sigma)| self.classify_window(mean, sigma, baseline)));
        smooth_runs_in_place(flags, self.min_run_windows);
    }

    /// Runs the full detection pipeline over precomputed window summaries.
    ///
    /// `windows` must be exactly what `WindowStats::new(meter, self.window)`
    /// yields for a trace with the given geometry — `(window start index,
    /// summary)` pairs in trace order, trailing partial window included.
    /// [`detect`](OccupancyDetector::detect) is a thin wrapper over this;
    /// the streaming layer calls it directly with summaries it accumulated
    /// chunk by chunk, which keeps the two paths byte-identical.
    pub fn detect_from_windows(
        &self,
        start: Timestamp,
        resolution: Resolution,
        len: usize,
        windows: &[(usize, Summary)],
    ) -> LabelSeries {
        let mut means: Vec<f64> = windows.iter().map(|(_, s)| s.mean).collect();
        means.sort_by(|a, b| a.total_cmp(b));
        let baseline = self.baseline_from_sorted_means(&means);
        let mut flags = Vec::with_capacity(windows.len());
        self.window_flags(
            baseline,
            windows.iter().map(|(_, s)| (s.mean, s.stddev())),
            &mut flags,
        );
        let mut labels = vec![false; len];
        for (&(w_start, _), &flag) in windows.iter().zip(&flags) {
            let end = (w_start + self.window).min(labels.len());
            labels[w_start..end].fill(flag);
        }
        if let Some((from, to)) = self.night_prior {
            apply_night_prior(&mut labels, start, resolution, from, to);
        }
        LabelSeries::new(start, resolution, labels)
    }
}

impl OccupancyDetector for ThresholdDetector {
    fn detect(&self, meter: &PowerTrace) -> LabelSeries {
        let _span = obs::span("niom.threshold.detect");
        obs::counter_add("niom.threshold.samples", meter.len() as u64);
        let windows: Vec<(usize, Summary)> = WindowStats::new(meter, self.window).collect();
        self.detect_from_windows(meter.start(), meter.resolution(), meter.len(), &windows)
    }

    fn name(&self) -> &str {
        "niom-threshold"
    }
}

/// Marks every sample whose hour of day falls in the wrapping interval
/// `[from, to)` as occupied. Sample `i` sits at `start + i * resolution`,
/// matching `PowerTrace::timestamp` — callers only need the grid, not the
/// trace itself.
pub(crate) fn apply_night_prior(
    labels: &mut [bool],
    start: Timestamp,
    resolution: Resolution,
    from: u8,
    to: u8,
) {
    for (i, slot) in labels.iter_mut().enumerate() {
        if in_night(start, resolution, i, from, to) {
            *slot = true;
        }
    }
}

/// Whether sample `i` of a grid starting at `start` falls in the wrapping
/// night interval `[from, to)` hours.
fn in_night(start: Timestamp, resolution: Resolution, i: usize, from: u8, to: u8) -> bool {
    let at = start + i as u64 * resolution.as_secs() as u64;
    let hour = at.hour_of_day() as u8;
    if from <= to {
        (from..to).contains(&hour)
    } else {
        hour >= from || hour < to
    }
}

/// Run-length smoothing over a plain bool slice, in place (interior runs
/// shorter than `min_run` are flipped).
fn smooth_runs_in_place(flags: &mut [bool], min_run: usize) {
    if min_run <= 1 {
        return;
    }
    let mut i = 0;
    while i < flags.len() {
        let val = flags[i];
        let mut j = i;
        while j < flags.len() && flags[j] == val {
            j += 1;
        }
        if j - i < min_run && i != 0 && j != flags.len() {
            flags[i..j].fill(!val);
        }
        i = j;
    }
}

/// One window length's summaries of a trace, shared by every candidate
/// with that window.
struct WindowTable {
    window: usize,
    /// `(mean, σ)` per window, in trace order.
    summaries: Vec<(f64, f64)>,
    /// The window means sorted ascending, for every baseline percentile.
    sorted_means: Vec<f64>,
}

/// Per window of one window length, the samples in each
/// `(inside night prior, truly occupied)` cell:
/// `[prior ∧ truth, prior ∧ ¬truth, ¬prior ∧ truth, ¬prior ∧ ¬truth]`.
struct CellTable {
    window: usize,
    night_prior: Option<(u8, u8)>,
    cells: Vec<[u64; 4]>,
}

/// Scores every threshold candidate in `grid` against one labelled trace:
/// entry `k` equals `truth.confusion(&grid[k].detect(meter))`, bit for bit.
///
/// Work is shared across candidates. Window summaries and their sorted
/// means are computed once per window length; the night-prior × truth
/// sample counts once per (window length, prior). A candidate then costs
/// one classify-and-smooth pass over its windows and a sum of each
/// window's counts — no per-sample labels. This is what lets an adaptive
/// attacker score a large grid on every training trace it sees.
///
/// # Errors
///
/// Returns the alignment error `truth.confusion` would if `truth` and
/// `meter` differ in geometry.
///
/// # Panics
///
/// Panics if any candidate's window is zero, as `detect` does.
pub fn sweep_confusions(
    grid: &[ThresholdDetector],
    meter: &PowerTrace,
    truth: &LabelSeries,
) -> Result<Vec<Confusion>, TraceError> {
    let _span = obs::span("niom.threshold.sweep");
    obs::counter_add("niom.threshold.sweep.candidates", grid.len() as u64);
    // The geometry every candidate's `detect` output would have.
    truth.check_aligned(&LabelSeries::new(
        meter.start(),
        meter.resolution(),
        vec![false; meter.len()],
    ))?;
    let mut tables: Vec<WindowTable> = Vec::new();
    let mut cell_tables: Vec<CellTable> = Vec::new();
    let mut flags = Vec::new();
    let confusions = grid
        .iter()
        .map(|d| {
            let t = match tables.iter().position(|t| t.window == d.window) {
                Some(t) => t,
                None => {
                    tables.push(window_table(meter, d.window));
                    tables.len() - 1
                }
            };
            let c = match cell_tables
                .iter()
                .position(|c| c.window == d.window && c.night_prior == d.night_prior)
            {
                Some(c) => c,
                None => {
                    cell_tables.push(cell_table(meter, truth, d.window, d.night_prior));
                    cell_tables.len() - 1
                }
            };
            let table = &tables[t];
            let baseline = d.baseline_from_sorted_means(&table.sorted_means);
            d.window_flags(baseline, table.summaries.iter().copied(), &mut flags);
            let mut confusion = Confusion::default();
            for (&flag, &[night_tp, night_fp, day_truth, day_empty]) in
                flags.iter().zip(&cell_tables[c].cells)
            {
                confusion.tp += night_tp;
                confusion.fp += night_fp;
                if flag {
                    confusion.tp += day_truth;
                    confusion.fp += day_empty;
                } else {
                    confusion.fn_ += day_truth;
                    confusion.tn += day_empty;
                }
            }
            confusion
        })
        .collect();
    Ok(confusions)
}

fn window_table(meter: &PowerTrace, window: usize) -> WindowTable {
    let summaries: Vec<(f64, f64)> = WindowStats::new(meter, window)
        .map(|(_, s)| (s.mean, s.stddev()))
        .collect();
    let mut sorted_means: Vec<f64> = summaries.iter().map(|&(mean, _)| mean).collect();
    sorted_means.sort_by(|a, b| a.total_cmp(b));
    WindowTable {
        window,
        summaries,
        sorted_means,
    }
}

fn cell_table(
    meter: &PowerTrace,
    truth: &LabelSeries,
    window: usize,
    night_prior: Option<(u8, u8)>,
) -> CellTable {
    let (start, resolution) = (meter.start(), meter.resolution());
    let cells = truth
        .labels()
        .chunks(window)
        .enumerate()
        .map(|(k, occupied)| {
            let mut cell = [0u64; 4];
            for (offset, &occupied) in occupied.iter().enumerate() {
                let night = night_prior.is_some_and(|(from, to)| {
                    in_night(start, resolution, k * window + offset, from, to)
                });
                cell[2 * usize::from(!night) + usize::from(!occupied)] += 1;
            }
            cell
        })
        .collect();
    CellTable {
        window,
        night_prior,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timeseries::{Resolution, Timestamp};

    /// A synthetic day: background 100 W with fridge-ish wiggle; occupied
    /// evening block with bursts.
    fn synthetic_day() -> (PowerTrace, LabelSeries) {
        let trace = PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, 1_440, |i| {
            let background = 100.0 + 30.0 * ((i as f64) * 0.2).sin();
            // Occupied 17:00–23:00 (minutes 1020..1380).
            if (1_020..1_380).contains(&i) {
                let burst = if i % 20 < 5 { 1_500.0 } else { 250.0 };
                background + burst
            } else {
                background
            }
        });
        let truth = LabelSeries::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, 1_440, |i| {
            (1_020..1_380).contains(&i)
        });
        (trace, truth)
    }

    fn no_prior() -> ThresholdDetector {
        ThresholdDetector {
            night_prior: None,
            ..ThresholdDetector::default()
        }
    }

    #[test]
    fn detects_synthetic_occupancy() {
        let (trace, truth) = synthetic_day();
        let detector = no_prior();
        let inferred = detector.detect(&trace);
        let c = truth.confusion(&inferred).unwrap();
        assert!(c.accuracy() > 0.95, "accuracy {}", c.accuracy());
        assert!(c.mcc() > 0.85, "mcc {}", c.mcc());
    }

    #[test]
    fn flat_trace_reads_empty() {
        let flat = PowerTrace::constant(Timestamp::ZERO, Resolution::ONE_MINUTE, 1_440, 120.0);
        let inferred = no_prior().detect(&flat);
        assert_eq!(inferred.positive_rate(), 0.0);
    }

    #[test]
    fn night_prior_marks_sleep_hours() {
        let flat = PowerTrace::constant(Timestamp::ZERO, Resolution::ONE_MINUTE, 1_440, 120.0);
        let inferred = ThresholdDetector::default().detect(&flat);
        // 22:00-07:00 = 9 hours marked occupied by the prior.
        assert!((inferred.positive_rate() - 9.0 / 24.0).abs() < 0.01);
        assert!(inferred.at(Timestamp::from_dhms(0, 3, 0, 0)).unwrap());
        assert!(inferred.at(Timestamp::from_dhms(0, 23, 0, 0)).unwrap());
        assert!(!inferred.at(Timestamp::from_dhms(0, 12, 0, 0)).unwrap());
    }

    #[test]
    fn baseline_tracks_background_level() {
        let (trace, _) = synthetic_day();
        let b = ThresholdDetector::default().baseline_watts(&trace);
        assert!(b > 60.0 && b < 160.0, "baseline {b}");
    }

    #[test]
    fn output_aligned_with_input() {
        let (trace, _) = synthetic_day();
        let inferred = ThresholdDetector::with_window(30).detect(&trace);
        assert_eq!(inferred.len(), trace.len());
        assert_eq!(inferred.resolution(), trace.resolution());
        assert_eq!(inferred.start(), trace.start());
    }

    #[test]
    fn empty_trace_ok() {
        let empty = PowerTrace::zeros(Timestamp::ZERO, Resolution::ONE_MINUTE, 0);
        let inferred = no_prior().detect(&empty);
        assert!(inferred.is_empty());
        assert_eq!(ThresholdDetector::default().baseline_watts(&empty), 0.0);
    }

    #[test]
    fn smoothing_kills_flicker() {
        let flags = vec![false, false, true, false, false, false];
        let mut smoothed = flags.clone();
        smooth_runs_in_place(&mut smoothed, 2);
        assert_eq!(smoothed, vec![false; 6]);
        // min_run 1 is identity.
        let mut identity = flags.clone();
        smooth_runs_in_place(&mut identity, 1);
        assert_eq!(identity, flags);
    }

    #[test]
    fn detector_name() {
        assert_eq!(ThresholdDetector::default().name(), "niom-threshold");
    }
}
