//! Shared ingestion plumbing for the power streams: gap-fill routing plus
//! either a raw-sample buffer (buffer-and-replay pipelines) or an
//! incremental window-summary accumulator (the NIOM detectors).

use crate::chunk::{FillCheckpoint, Sample, StreamFill};
use crate::FeedReport;
use timeseries::Summary;

/// The mutable state of a windowed NIOM stream — live while the stream
/// runs, and the eviction/rehydration target of the resident fleet
/// service (`crates/fleetd`, `docs/FLEET.md`).
///
/// A [`crate::ThresholdStream`] (or Hmm/Logistic sibling) is detector
/// configuration plus this: closed windows keep only their 40-byte
/// [`Summary`], the open window keeps at most `window - 1` raw samples,
/// and the fill automaton is one tagged scalar. Taking one is a clone
/// and restoring one a checked move, so a restored stream resumes to
/// byte-identical output — asserted by the streaming equivalence tests
/// and the `fleet.resident-evict-identical` conformance claim.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowCheckpoint {
    /// The fill automaton's position.
    pub fill: FillCheckpoint,
    /// Sample index where the open window starts.
    pub next_start: u64,
    /// Raw samples of the open (not yet full) window.
    pub open: Vec<f64>,
    /// `(window start, summary)` of every closed window, in trace order.
    pub closed: Vec<(u64, Summary)>,
}

impl WindowCheckpoint {
    /// Appends one resolved sample to the open window, closing it into a
    /// summary once it holds `window` samples.
    fn push_resolved(&mut self, window: usize, x: f64) {
        self.open.push(x);
        if self.open.len() == window {
            self.closed.push((self.next_start, Summary::of(&self.open)));
            self.next_start += window as u64;
            self.open.clear();
        }
    }
}

/// Records the obs counters every power-stream `feed` emits.
pub(crate) fn record_power_chunk(items: usize, gaps: usize) {
    obs::counter_add("stream.chunks", 1);
    obs::counter_add("stream.samples", items as u64);
    obs::counter_add("stream.gap_samples", gaps as u64);
}

/// Gap fill + raw resolved-sample buffer, for pipelines that must replay
/// the whole trace through the batch code at finalize.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SampleBuf {
    fill: FillCheckpoint,
    samples: Vec<f64>,
}

impl SampleBuf {
    pub(crate) fn new(fill: Option<StreamFill>) -> SampleBuf {
        SampleBuf {
            fill: FillCheckpoint::new(fill),
            samples: Vec::new(),
        }
    }

    pub(crate) fn feed(&mut self, chunk: &[Sample]) -> FeedReport {
        let mut gaps = 0;
        let samples = &mut self.samples;
        let fill = &mut self.fill;
        for &s in chunk {
            if fill.is_gap(&s) {
                gaps += 1;
            }
            fill.push(s, &mut |v| samples.push(v));
        }
        record_power_chunk(chunk.len(), gaps);
        FeedReport {
            items: chunk.len(),
            gaps,
        }
    }

    /// Samples ingested, counting any withheld by an open leading-gap run.
    pub(crate) fn len(&self) -> usize {
        self.samples.len() + self.fill.flush().0
    }

    /// Heap bytes held by the raw-sample buffer (capacity, not length).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.samples.capacity() * std::mem::size_of::<f64>()
    }

    /// The resolved sample vector the batch fill would have produced for
    /// the prefix ingested so far.
    pub(crate) fn resolved(&self) -> Vec<f64> {
        let (pending, pad) = self.fill.flush();
        // An open leading-gap run means nothing was emitted yet, so the
        // flushed pad values are the whole (prefix of the) trace.
        let mut out = Vec::with_capacity(self.samples.len() + pending);
        out.extend(std::iter::repeat_n(pad, pending));
        out.extend_from_slice(&self.samples);
        out
    }
}

/// Gap fill + incremental non-overlapping window summaries, replicating
/// `WindowStats` over the resolved samples: closed windows keep only their
/// [`Summary`], the open window keeps raw samples (at most `window` of
/// them), and the trailing partial window is summarized on demand.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WindowBuf {
    window: usize,
    state: WindowCheckpoint,
}

impl WindowBuf {
    pub(crate) fn new(fill: Option<StreamFill>, window: usize) -> WindowBuf {
        assert!(window > 0, "window must be non-empty");
        WindowBuf {
            window,
            state: WindowCheckpoint {
                fill: FillCheckpoint::new(fill),
                next_start: 0,
                open: Vec::with_capacity(window),
                closed: Vec::new(),
            },
        }
    }

    /// Adopts `state` as the live state of a `window`-sample accumulator,
    /// or hands it back if this window can never reach it: the open window
    /// must be short of full, and the closed windows must tile the trace up
    /// to the open one. A state written under another window fails the
    /// second test once a window has closed; before that it is a state of
    /// every window longer than its open run.
    pub(crate) fn from_state(
        window: usize,
        mut state: WindowCheckpoint,
    ) -> Result<WindowBuf, WindowCheckpoint> {
        let tiled =
            (state.closed.len() as u64).checked_mul(window as u64) == Some(state.next_start);
        if state.open.len() >= window || !tiled {
            return Err(state);
        }
        // A fresh stream reserves a whole open window up front; so does
        // a restored one, in a new buffer: growing the decoded one is a
        // `realloc`, which takes the allocator's arena lock on every
        // rehydration and makes parallel shards contend for it.
        let mut open = Vec::with_capacity(window);
        open.extend_from_slice(&state.open);
        state.open = open;
        Ok(WindowBuf { window, state })
    }

    /// The live state.
    pub(crate) fn state(&self) -> &WindowCheckpoint {
        &self.state
    }

    pub(crate) fn feed(&mut self, chunk: &[Sample]) -> FeedReport {
        let mut gaps = 0;
        // The fill automaton is Copy: run a local copy so its emit closure
        // can borrow the windows, then store it back.
        let mut fill = self.state.fill;
        for &s in chunk {
            if fill.is_gap(&s) {
                gaps += 1;
            }
            fill.push(s, &mut |x| self.state.push_resolved(self.window, x));
        }
        self.state.fill = fill;
        record_power_chunk(chunk.len(), gaps);
        FeedReport {
            items: chunk.len(),
            gaps,
        }
    }

    /// Samples ingested, counting any withheld by an open leading-gap run.
    pub(crate) fn len(&self) -> usize {
        self.state.next_start as usize + self.state.open.len() + self.state.fill.flush().0
    }

    /// Heap bytes held by the window accumulator (capacities, not
    /// lengths).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.state.open.capacity() * std::mem::size_of::<f64>()
            + self.state.closed.capacity() * std::mem::size_of::<(u64, Summary)>()
    }

    /// The `(window start, summary)` sequence `WindowStats` would yield
    /// over the resolved prefix, plus that prefix's length.
    pub(crate) fn windows_and_len(&self) -> (Vec<(usize, Summary)>, usize) {
        let (pending, pad) = self.state.fill.flush();
        let mut flushed;
        let state = if pending == 0 {
            &self.state
        } else {
            // An open leading-gap run means nothing was emitted yet, so
            // this copy holds no samples before the flushed pads.
            flushed = self.state.clone();
            for _ in 0..pending {
                flushed.push_resolved(self.window, pad);
            }
            &flushed
        };
        let mut windows = Vec::with_capacity(state.closed.len() + 1);
        windows.extend(state.closed.iter().map(|&(start, s)| (start as usize, s)));
        if !state.open.is_empty() {
            windows.push((state.next_start as usize, Summary::of(&state.open)));
        }
        (windows, state.next_start as usize + state.open.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::dense_samples;
    use timeseries::{PowerTrace, Resolution, Timestamp, WindowStats};

    #[test]
    fn window_buf_matches_window_stats() {
        for len in [0usize, 1, 14, 15, 16, 44, 45, 100] {
            let values: Vec<f64> = (0..len)
                .map(|i| (i as f64 * 1.7).sin() * 300.0 + 400.0)
                .collect();
            let trace =
                PowerTrace::new(Timestamp::ZERO, Resolution::ONE_MINUTE, values.clone()).unwrap();
            let batch: Vec<(usize, Summary)> = WindowStats::new(&trace, 15).collect();
            let mut buf = WindowBuf::new(None, 15);
            buf.feed(&dense_samples(&values));
            let (windows, n) = buf.windows_and_len();
            assert_eq!(n, len);
            assert_eq!(windows, batch, "len {len}");
        }
    }

    #[test]
    fn window_buf_compact_round_trips_mid_stream() {
        let values: Vec<f64> = (0..53)
            .map(|i| (i as f64 * 0.9).cos() * 250.0 + 300.0)
            .collect();
        let samples = dense_samples(&values);
        for (fill, split) in [
            (None, 0usize),
            (None, 22),
            (Some(StreamFill::Zero), 30),
            (Some(StreamFill::Hold), 7),
            (Some(StreamFill::Hold), 53),
        ] {
            let mut whole = WindowBuf::new(fill, 15);
            whole.feed(&samples);

            let mut head = WindowBuf::new(fill, 15);
            head.feed(&samples[..split]);
            let cp = head.state().clone();
            let mut resumed = WindowBuf::from_state(15, cp).unwrap();
            assert_eq!(resumed, head, "restore must be exact ({fill:?}/{split})");
            resumed.feed(&samples[split..]);
            assert_eq!(
                resumed.windows_and_len(),
                whole.windows_and_len(),
                "{fill:?}/{split}"
            );
        }
    }

    #[test]
    fn compact_checkpoint_preserves_open_hold_run() {
        let mut buf = WindowBuf::new(Some(StreamFill::Hold), 4);
        buf.feed(&[Sample::gap(), Sample::gap(), Sample::gap()]);
        let cp = buf.state().clone();
        assert_eq!(cp.fill, FillCheckpoint::HoldPending(3));
        assert!(cp.open.is_empty() && cp.closed.is_empty());
        let mut resumed = WindowBuf::from_state(4, cp).unwrap();
        resumed.feed(&[Sample::valid(80.0)]);
        buf.feed(&[Sample::valid(80.0)]);
        assert_eq!(resumed.windows_and_len(), buf.windows_and_len());
    }

    #[test]
    fn states_another_window_cannot_reach_are_handed_back() {
        let mut buf = WindowBuf::new(None, 15);
        buf.feed(&dense_samples(&[100.0; 20]));
        let cp = buf.state().clone();
        // 5 open samples fill a window of 5; one closed window of 15
        // cannot tile the trace for a window of 6 or 20.
        for window in [0, 5, 6, 20] {
            assert_eq!(WindowBuf::from_state(window, cp.clone()), Err(cp.clone()));
        }
        let resumed = WindowBuf::from_state(15, cp).unwrap();
        assert_eq!(resumed, buf);
        assert_eq!(resumed.state().open.capacity(), 15);

        // Before any window closes, a short open run is a state of any
        // longer window.
        let mut early = WindowBuf::new(None, 15);
        early.feed(&dense_samples(&[100.0; 4]));
        assert!(WindowBuf::from_state(5, early.state().clone()).is_ok());
        assert!(WindowBuf::from_state(4, early.state().clone()).is_err());
    }

    #[test]
    fn sample_buf_resolves_like_batch() {
        let mut buf = SampleBuf::new(Some(StreamFill::Hold));
        buf.feed(&[Sample::gap(), Sample::gap()]);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.resolved(), vec![0.0, 0.0]);
        buf.feed(&[Sample::valid(75.0), Sample::gap()]);
        assert_eq!(buf.resolved(), vec![75.0, 75.0, 75.0, 75.0]);
    }
}
