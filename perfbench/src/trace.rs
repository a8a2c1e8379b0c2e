//! The benchmark's own span recorder.
//!
//! Spans are recorded around every call the benchmark makes into a layer
//! (never inside the program under test). Each span carries its name,
//! start and end on one monotonic clock, and the id of the span that
//! caused it. A caused span may run on another thread than its parent:
//! the supervised fleet runner calls back into the benchmark on worker
//! threads, so the per-home spans name the runner's span explicitly.
//!
//! A span's self time is its duration minus the part of its interval
//! that its children cover (the union of the child intervals, clipped
//! to the parent), so layers add up to the traced wall × threads plus
//! whatever no span covers.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Identifier of a recorded span (0 is "no span").
pub type SpanId = u64;

/// One finished span, times in seconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread, innermost last.
    static STACK: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Seconds since the recorder's epoch.
pub fn now() -> f64 {
    epoch().elapsed().as_secs_f64()
}

/// Turns recording on or off. Off, [`span`] costs one atomic load.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Takes every span recorded so far, leaving the recorder empty.
pub fn take() -> Vec<SpanRecord> {
    std::mem::take(&mut *SPANS.lock().expect("span log poisoned"))
}

/// The innermost open span on this thread (0 if none) — what a callback
/// running on another thread should name as its parent.
pub fn current() -> SpanId {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// An open span; recorded when dropped.
pub struct Guard {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start: f64,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        SPANS.lock().expect("span log poisoned").push(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start: self.start,
            end,
        });
    }
}

/// Opens a span whose parent is the innermost open span on this thread.
pub fn span(name: &'static str) -> Guard {
    span_under(name, current())
}

/// Opens a span caused by `parent`, which may be open on another thread.
pub fn span_under(name: &'static str, parent: SpanId) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent: 0,
            name,
            start: 0.0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        id,
        parent,
        name,
        start: now(),
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut run: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        match run {
            Some((rs, re)) if s <= re => run = Some((rs, re.max(e))),
            Some((rs, re)) => {
                total += re - rs;
                run = Some((s, e));
            }
            None => run = Some((s, e)),
        }
    }
    if let Some((rs, re)) = run {
        total += re - rs;
    }
    total
}

/// Self time of every span, keyed by span id.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<SpanId, f64> {
    let mut children: BTreeMap<SpanId, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, (s.end - s.start) - covered(kids, s.start, s.end))
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed self times, seconds.
    pub self_s: f64,
}

impl NameTotals {
    /// Calls per second of span time (0 when nothing was timed).
    pub fn ops_per_s(&self) -> f64 {
        if self.total_s > 0.0 {
            self.calls as f64 / self.total_s
        } else {
            0.0
        }
    }
}

/// Rolls spans up by name.
pub fn by_name(spans: &[SpanRecord]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_s += s.end - s.start;
        t.self_s += selfs[&s.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: SpanId, parent: SpanId, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..10; children 1..4 and 3..6 overlap (union 1..6) and
        // one child runs past the parent's end (clipped at 10).
        let spans = vec![
            rec(1, 0, 0.0, 10.0),
            rec(2, 1, 1.0, 4.0),
            rec(3, 1, 3.0, 6.0),
            rec(4, 1, 8.0, 12.0),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[&1] - 3.0).abs() < 1e-12, "{}", selfs[&1]);
        assert!((selfs[&2] - 3.0).abs() < 1e-12);
        assert!((selfs[&4] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn children_on_other_threads_are_subtracted_once() {
        // A runner blocked 0..10 while two workers run children in
        // parallel: the runner's self time is only the uncovered part,
        // and the spans sum to the busy thread-seconds.
        let spans = vec![
            rec(1, 0, 0.0, 10.0),
            rec(2, 1, 0.5, 9.0),
            rec(3, 1, 1.0, 9.5),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[&1] - 1.0).abs() < 1e-12, "{}", selfs[&1]);
        let total: f64 = selfs.values().sum();
        assert!((total - (1.0 + 8.5 + 8.5)).abs() < 1e-12);
    }

    #[test]
    fn recorded_spans_nest_across_threads() {
        set_enabled(true);
        let _ = take();
        let outer = span("outer");
        let parent = current();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(move || {
                    let _g = span_under("worker", parent);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                });
            }
        });
        drop(outer);
        set_enabled(false);
        let spans = take();
        let rolled = by_name(&spans);
        assert_eq!(rolled["worker"].calls, 2);
        assert!(spans
            .iter()
            .filter(|s| s.name == "worker")
            .all(|s| s.parent == parent));
        // The runner's self time excludes the parallel workers.
        assert!(rolled["outer"].self_s < rolled["outer"].total_s - 0.015);
        assert!(rolled["worker"].self_s >= 0.039);
    }
}
