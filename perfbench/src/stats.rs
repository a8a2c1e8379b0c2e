//! Summary statistics, the tail-percentile rule, failure accounting and
//! the peak-RSS reader.

/// Percentiles the tail rule may choose from, highest last.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0..=100) among `n` samples,
/// before clamping; the epsilon keeps `99.9 % of 10 000` at 9 990.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Nearest-rank percentile `p` (0..=100) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p).clamp(1, v.len()) - 1])
}

/// Median (mean of the middle pair for an even count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it; `None` if even the
/// median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Runs `setup` at least `min_reps` times and until `min_total_s` seconds
/// have been spent (at most `max_reps` times); returns the median time
/// of one set-up and the last set-up's result.
pub fn timed_setups<T>(
    min_reps: usize,
    max_reps: usize,
    min_total_s: f64,
    mut setup: impl FnMut() -> T,
) -> (f64, T) {
    let mut times = Vec::new();
    let mut total = 0.0;
    loop {
        let t = std::time::Instant::now();
        let out = setup();
        let dt = t.elapsed().as_secs_f64();
        times.push(dt);
        total += dt;
        if times.len() >= max_reps || (times.len() >= min_reps && total >= min_total_s) {
            return (median(&times).expect("set-up ran"), out);
        }
        drop(out);
    }
}

/// Attempted work and everything that went wrong with it: quarantined
/// home attempts, surfaced store errors and correctness mismatches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub quarantined: u64,
    pub store_errors: u64,
    pub mismatches: u64,
}

impl Tally {
    /// Records `n` attempts.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one correctness check over `n` attempted items, `bad` of
    /// which mismatched.
    pub fn check(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.mismatches += bad;
    }

    /// Adds another tally's counts to this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.quarantined += other.quarantined;
        self.store_errors += other.store_errors;
        self.mismatches += other.mismatches;
    }

    /// Failed items: every failure kind counts once.
    pub fn failed(&self) -> u64 {
        self.quarantined + self.store_errors + self.mismatches
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.attempted as f64
    }

    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed() == 0
    }
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size of this process so far, in MiB (Linux
/// `getrusage`, whose `ru_maxrss` is in KiB).
pub fn peak_rss_mb() -> f64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a properly sized, writable `struct rusage` and
    // RUSAGE_SELF (0) is always a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [20, 57, 200, 333, 4_000] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 99.9), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        assert!(!t.correct(), "nothing attempted is not a pass");
        t.attempt(90);
        t.check(10, 0);
        assert!(t.correct());
        assert_eq!(t.failed_frac(), 0.0);
        t.quarantined += 1;
        t.store_errors += 2;
        t.check(0, 2);
        assert_eq!(t.attempted, 100);
        assert_eq!(t.failed(), 5);
        assert!((t.failed_frac() - 0.05).abs() < 1e-12);
        assert!(!t.correct());
    }

    #[test]
    fn peak_rss_tracks_touched_memory() {
        let before = peak_rss_mb();
        assert!(before > 0.0);
        // 64 MiB, every page written: the peak must cover at least that
        // (other tests may have raised it further already).
        let block = vec![1u8; 64 << 20];
        let after = peak_rss_mb();
        assert!(block.iter().step_by(4096).all(|&b| b == 1));
        assert!(after >= before && after >= 64.0, "{before} -> {after}");
    }
}
