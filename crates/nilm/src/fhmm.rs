//! The Factorial-HMM disaggregation baseline (Kolter & Johnson, REDD).
//!
//! Each device is an independent Markov chain (learned by [`crate::train`])
//! and the meter observes the *sum* of all chains' emissions plus Gaussian
//! noise. Inference recovers the most likely joint state path:
//!
//! * **exact factorial Viterbi** over the joint product state space when it
//!   is small enough, or
//! * **iterated conditional modes (ICM)**: per-device Viterbi against the
//!   residual left by the other devices' current estimates, swept until
//!   convergence — the standard approximation for large device sets.
//!
//! Both run one recurrence, `ForwardPass::push`, over flat score tables:
//! per-state emission means and log-transitions stored *transposed*
//! (`[to*k+from]`) so the max-over-predecessors inner loop reads contiguous
//! memory, two swapped score rows instead of per-step allocation, and `u32`
//! backpointers at half the memory traffic of `usize`. Exact decode pushes
//! every sample through the joint tables, [`FhmmFilter`] pushes one sample
//! per call, and each ICM sweep pushes a residual through one device's
//! tables. The joint tables depend only on the models, so they are built
//! once per [`Fhmm`] and shared by every subsequent decode.
//!
//! The score rows, backpointer table and ICM residual buffers live in a
//! caller-owned (or thread-local, for [`Disaggregator::disaggregate`])
//! [`DecodeArena`], so decodes reuse scratch across chunks, homes and
//! sweeps. [`Fhmm::decode_batch`] is a loop of single-meter decodes over
//! one arena. See `docs/KERNELS.md`.

use crate::estimate::{DeviceEstimate, Disaggregator};
use crate::train::DeviceHmm;
use std::cell::RefCell;
use std::sync::OnceLock;
use timeseries::{PowerTrace, Resolution, Timestamp};

/// Tuning parameters of the FHMM disaggregator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FhmmConfig {
    /// Std-dev of the aggregate observation noise, watts.
    pub noise_sd_watts: f64,
    /// Largest joint state count for which exact factorial Viterbi is used.
    pub max_exact_states: usize,
    /// ICM sweeps when the joint space is too large for exact inference.
    pub icm_sweeps: usize,
}

impl Default for FhmmConfig {
    fn default() -> Self {
        FhmmConfig {
            noise_sd_watts: 40.0,
            max_exact_states: 512,
            icm_sweeps: 4,
        }
    }
}

/// Reusable decode scratch: the forward pass (score rows and backpointer
/// table) and the ICM residual/explained buffers.
///
/// Buffers are resized on use and never shrink, so one arena serves
/// decodes of any state count and trace length — reuse across chunks and
/// homes is what removes the per-decode allocation overhead.
/// [`Disaggregator::disaggregate`] uses a thread-local arena
/// ([`with_thread_arena`]); the `_with` and batch entry points take
/// `&mut DecodeArena` so fleet shards can own one arena per worker.
///
/// When a decode finds the arena's backpointer capacity already
/// sufficient it bumps the `decode.arena_reuse` obs counter.
#[derive(Debug, Default)]
pub struct DecodeArena {
    pass: ForwardPass,
    residual: Vec<f64>,
    explained: Vec<f64>,
}

impl DecodeArena {
    /// An empty arena; buffers grow on first use and are reused after.
    pub fn new() -> DecodeArena {
        DecodeArena::default()
    }
}

thread_local! {
    static THREAD_ARENA: RefCell<DecodeArena> = RefCell::new(DecodeArena::new());
}

/// Runs `f` with this thread's shared [`DecodeArena`].
///
/// [`Disaggregator::disaggregate`] decodes through this arena, so repeated
/// single-home decodes on one thread (rayon fleet workers, per-day figure
/// loops) reuse scratch without any caller plumbing.
pub fn with_thread_arena<R>(f: impl FnOnce(&mut DecodeArena) -> R) -> R {
    THREAD_ARENA.with(|a| f(&mut a.borrow_mut()))
}

/// Flat Viterbi tables: `k` states with per-state emission means
/// (`totals`), initial log-probs, and the transposed log-transition table
/// `log_a_t[to * k + from]`. The joint space and each single device chain
/// share this shape, so one recurrence decodes either.
#[derive(Debug, Clone)]
struct FlatTables {
    k: usize,
    totals: Vec<f64>,
    log_init: Vec<f64>,
    /// `log_a_t[to * k + from]` — transposed so scanning predecessors of
    /// one target state is a contiguous read.
    log_a_t: Vec<f64>,
}

impl FlatTables {
    /// One device chain: its state watts, initial and transition log-probs.
    fn from_hmm(dev: &DeviceHmm) -> FlatTables {
        let k = dev.n_states();
        let mut log_a_t = vec![0.0f64; k * k];
        for (from, row) in dev.log_trans.iter().enumerate() {
            for (to, &v) in row.iter().enumerate() {
                log_a_t[to * k + from] = v;
            }
        }
        FlatTables {
            k,
            totals: dev.state_watts.clone(),
            log_init: dev.log_init.clone(),
            log_a_t,
        }
    }
}

/// The forward pass of flat Viterbi, one observation per [`push`]: the
/// current score row, a scratch row swapped with it each step, and the
/// backpointer table, which grows one `k`-wide row per observation.
///
/// [`push`]: ForwardPass::push
#[derive(Debug, Clone, Default)]
struct ForwardPass {
    delta: Vec<f64>,
    next: Vec<f64>,
    back: Vec<u32>,
    n: usize,
}

impl ForwardPass {
    /// Folds observation `x` into the pass — the one Viterbi step every
    /// decoder runs. The first observation seeds the scores from the
    /// initial log-probs; each later one takes, per target state, the
    /// first maximum over predecessors (strict `>`) and adds the Gaussian
    /// emission score.
    fn push(&mut self, tables: &FlatTables, x: f64, inv_two_var: f64) {
        let emit = |total: f64| {
            let d = x - total;
            -d * d * inv_two_var
        };
        if self.n == 0 {
            self.delta.clear();
            self.delta.extend(
                tables
                    .log_init
                    .iter()
                    .zip(&tables.totals)
                    .map(|(&init, &total)| init + emit(total)),
            );
            self.next.clear();
            self.next.resize(tables.k, f64::NEG_INFINITY);
            // Row 0 of the backpointer table is never read; it keeps row
            // `t` at offset `t * k`.
            self.back.clear();
            self.back.resize(tables.k, 0);
        } else {
            let start = self.back.len();
            self.back.resize(start + tables.k, 0);
            let targets = self.back[start..]
                .iter_mut()
                .zip(&mut self.next)
                .zip(&tables.totals)
                .zip(tables.log_a_t.chunks_exact(tables.k));
            for (((slot, next), &total), row) in targets {
                let mut best = f64::NEG_INFINITY;
                let mut arg = 0u32;
                for (i, (&d, &a)) in self.delta.iter().zip(row).enumerate() {
                    let v = d + a;
                    if v > best {
                        best = v;
                        arg = i as u32;
                    }
                }
                *next = best + emit(total);
                *slot = arg;
            }
            std::mem::swap(&mut self.delta, &mut self.next);
        }
        self.n += 1;
    }

    /// The most likely state path for the observations pushed so far:
    /// last-max argmax over the final scores, then the backpointer walk.
    fn backtrack(&self) -> Vec<usize> {
        let n = self.n;
        if n == 0 {
            return Vec::new();
        }
        let k = self.delta.len();
        let mut path = vec![0usize; n];
        path[n - 1] = self
            .delta
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(j, _)| j)
            .unwrap_or(0);
        for t in (0..n - 1).rev() {
            path[t] = self.back[(t + 1) * k + path[t + 1]] as usize;
        }
        path
    }

    /// Decodes a whole observation sequence from a fresh pass, reusing
    /// this pass's buffers.
    fn decode(&mut self, tables: &FlatTables, xs: &[f64], inv_two_var: f64) -> Vec<usize> {
        let needed = xs.len() * tables.k;
        if needed > 0 && self.back.capacity() >= needed {
            obs::counter_add("decode.arena_reuse", 1);
        }
        self.n = 0;
        self.back.clear();
        self.back.reserve(needed);
        for &x in xs {
            self.push(tables, x, inv_two_var);
        }
        self.backtrack()
    }
}

/// The factorial HMM over a set of learned device models.
#[derive(Debug, Clone)]
pub struct Fhmm {
    devices: Vec<DeviceHmm>,
    chains: Vec<FlatTables>,
    config: FhmmConfig,
    joint: OnceLock<FlatTables>,
}

impl Fhmm {
    /// Creates an FHMM from learned device models with default tuning.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn new(devices: Vec<DeviceHmm>) -> Self {
        Fhmm::with_config(devices, FhmmConfig::default())
    }

    /// Creates an FHMM with explicit tuning.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty or the noise std-dev is not positive.
    pub fn with_config(devices: Vec<DeviceHmm>, config: FhmmConfig) -> Self {
        assert!(!devices.is_empty(), "FHMM needs at least one device");
        assert!(
            config.noise_sd_watts.is_finite() && config.noise_sd_watts > 0.0,
            "noise std-dev must be positive"
        );
        let chains = devices.iter().map(FlatTables::from_hmm).collect();
        Fhmm {
            devices,
            chains,
            config,
            joint: OnceLock::new(),
        }
    }

    /// The total joint state count.
    pub fn joint_states(&self) -> usize {
        self.devices.iter().map(|d| d.n_states()).product()
    }

    fn inv_two_var(&self) -> f64 {
        0.5 / (self.config.noise_sd_watts * self.config.noise_sd_watts)
    }

    /// Decodes per-device state paths for `meter`.
    pub fn decode(&self, meter: &PowerTrace, arena: &mut DecodeArena) -> Vec<Vec<usize>> {
        if meter.is_empty() {
            return vec![Vec::new(); self.devices.len()];
        }
        obs::counter_add("nilm.fhmm.samples", meter.len() as u64);
        if self.exact_capable() {
            obs::time("nilm.fhmm.decode_exact", || {
                let joint =
                    arena
                        .pass
                        .decode(self.joint_tables(), meter.samples(), self.inv_two_var());
                self.unpack_paths(&joint)
            })
        } else {
            obs::time("nilm.fhmm.decode_icm", || self.decode_icm(meter, arena))
        }
    }

    /// Builds (or fetches) the joint tables for exact decoding.
    fn joint_tables(&self) -> &FlatTables {
        self.joint.get_or_init(|| {
            let k = self.joint_states();
            let factored: Vec<Vec<usize>> = (0..k).map(|j| self.unpack(j)).collect();
            let totals: Vec<f64> = factored
                .iter()
                .map(|states| {
                    states
                        .iter()
                        .zip(&self.devices)
                        .map(|(&s, d)| d.state_watts[s])
                        .sum()
                })
                .collect();
            let log_init: Vec<f64> = factored
                .iter()
                .map(|states| {
                    states
                        .iter()
                        .zip(&self.devices)
                        .map(|(&s, d)| d.log_init[s])
                        .sum()
                })
                .collect();
            // Joint log-transitions factorize as a sum over devices.
            let mut log_a_t = vec![0.0f64; k * k];
            for from in 0..k {
                for to in 0..k {
                    log_a_t[to * k + from] = factored[from]
                        .iter()
                        .zip(&factored[to])
                        .zip(&self.devices)
                        .map(|((&f, &t), d)| d.log_trans[f][t])
                        .sum();
                }
            }
            FlatTables {
                k,
                totals,
                log_init,
                log_a_t,
            }
        })
    }

    /// Decodes a batch of meters, returning per-meter per-device state
    /// paths in input order: one [`decode`](Self::decode) per meter over
    /// the shared `arena`, so every result is byte-identical to decoding
    /// that meter alone.
    pub fn decode_batch(
        &self,
        meters: &[&PowerTrace],
        arena: &mut DecodeArena,
    ) -> Vec<Vec<Vec<usize>>> {
        if !meters.is_empty() {
            obs::gauge_set("decode.batch_size", meters.len() as f64);
        }
        meters.iter().map(|m| self.decode(m, arena)).collect()
    }

    /// [`Disaggregator::disaggregate`] over a batch of meters with a
    /// caller-owned arena; results are in input order and byte-identical
    /// to disaggregating each meter alone.
    pub fn disaggregate_batch(
        &self,
        meters: &[&PowerTrace],
        arena: &mut DecodeArena,
    ) -> Vec<Vec<DeviceEstimate>> {
        let paths = self.decode_batch(meters, arena);
        meters
            .iter()
            .zip(&paths)
            .map(|(m, p)| self.estimates_from_paths(m.start(), m.resolution(), m.len(), p))
            .collect()
    }

    /// [`Disaggregator::disaggregate`] with a caller-owned arena instead of
    /// the thread-local one.
    pub fn disaggregate_with(
        &self,
        meter: &PowerTrace,
        arena: &mut DecodeArena,
    ) -> Vec<DeviceEstimate> {
        let paths = self.decode(meter, arena);
        self.estimates_from_paths(meter.start(), meter.resolution(), meter.len(), &paths)
    }

    /// Iterated conditional modes: Gauss-Seidel sweeps over the devices,
    /// flexible chains first, each re-decoding one device against the
    /// residual the others leave. Stops after the first sweep that changes
    /// no path, or after `icm_sweeps` sweeps.
    fn decode_icm(&self, meter: &PowerTrace, arena: &mut DecodeArena) -> Vec<Vec<usize>> {
        let xs = meter.samples();
        let n = xs.len();

        // Start everything in its lowest state.
        let mut paths: Vec<Vec<usize>> = self.devices.iter().map(|_| vec![0usize; n]).collect();
        let mut explained = std::mem::take(&mut arena.explained);
        explained.clear();
        explained.resize(n, 0.0);
        for (dev, path) in self.devices.iter().zip(&paths) {
            for (e, &s) in explained.iter_mut().zip(path) {
                *e += dev.state_watts[s];
            }
        }

        // Sweep flexible chains (more states) first so slack/background
        // chains absorb unmodelled load before specific appliances claim it.
        let mut order: Vec<usize> = (0..self.devices.len()).collect();
        order.sort_by_key(|&d| std::cmp::Reverse(self.devices[d].n_states()));

        let mut residual = std::mem::take(&mut arena.residual);
        residual.clear();
        residual.resize(n, 0.0);

        let inv_two_var = self.inv_two_var();
        for _ in 0..self.config.icm_sweeps {
            let mut changed = false;
            for &d in &order {
                let watts = &self.devices[d].state_watts;
                fill_residual(&mut residual, xs, &explained, watts, &paths[d]);
                let new_path = arena.pass.decode(&self.chains[d], &residual, inv_two_var);
                if new_path != paths[d] {
                    changed = true;
                    for ((e, &new), &old) in explained.iter_mut().zip(&new_path).zip(&paths[d]) {
                        *e += watts[new] - watts[old];
                    }
                    paths[d] = new_path;
                }
            }
            if !changed {
                break;
            }
        }
        arena.explained = explained;
        arena.residual = residual;
        paths
    }

    /// Unpacks joint state index `j` into per-device states.
    fn unpack(&self, mut j: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.devices.len());
        for d in &self.devices {
            out.push(j % d.n_states());
            j /= d.n_states();
        }
        out
    }

    /// Unpacks a joint-state path into per-device state paths.
    fn unpack_paths(&self, joint_path: &[usize]) -> Vec<Vec<usize>> {
        let n = joint_path.len();
        let mut paths = vec![vec![0usize; n]; self.devices.len()];
        for (t, &j) in joint_path.iter().enumerate() {
            let mut rest = j;
            for (path, dev) in paths.iter_mut().zip(&self.devices) {
                path[t] = rest % dev.n_states();
                rest /= dev.n_states();
            }
        }
        paths
    }

    /// Whether this model decodes with exact factorial Viterbi (as opposed
    /// to the ICM approximation, which needs the whole trace at once).
    pub fn exact_capable(&self) -> bool {
        self.joint_states() <= self.config.max_exact_states
    }

    /// Number of device models in the factorial ensemble.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Starts an incremental exact-Viterbi forward pass over this model, or
    /// `None` when the joint space is too large for exact decoding (ICM is
    /// a whole-trace algorithm; callers must buffer and use
    /// [`Disaggregator::disaggregate`] instead).
    ///
    /// Pushing every sample of a trace and then calling
    /// [`FhmmFilter::paths`] reproduces the batch decode bit for bit: the
    /// filter runs the same step as [`decode`](Self::decode), merely
    /// spread across `push` calls.
    pub fn filter(&self) -> Option<FhmmFilter<'_>> {
        if !self.exact_capable() {
            return None;
        }
        Some(FhmmFilter {
            fhmm: self,
            inv_two_var: self.inv_two_var(),
            pass: ForwardPass::default(),
        })
    }

    /// Renders per-device state paths into [`DeviceEstimate`]s exactly as
    /// [`Disaggregator::disaggregate`] does after decoding.
    ///
    /// # Panics
    ///
    /// Panics if `paths` does not hold one path per device, or any path is
    /// shorter than `len`.
    pub fn estimates_from_paths(
        &self,
        start: Timestamp,
        resolution: Resolution,
        len: usize,
        paths: &[Vec<usize>],
    ) -> Vec<DeviceEstimate> {
        assert_eq!(paths.len(), self.devices.len(), "one path per device");
        self.devices
            .iter()
            .zip(paths)
            .map(|(dev, path)| DeviceEstimate {
                name: dev.name.clone(),
                trace: PowerTrace::from_fn(start, resolution, len, |t| dev.state_watts[path[t]]),
            })
            .collect()
    }
}

/// Incremental exact factorial Viterbi: the decoder's forward pass, one
/// observation per [`FhmmFilter::push`]. Constant non-output state (two
/// `k`-wide score rows); the backpointer table grows one row per sample,
/// exactly like the whole-trace decoder's. Cloning the filter checkpoints
/// the decode mid-trace.
#[derive(Debug, Clone)]
pub struct FhmmFilter<'a> {
    fhmm: &'a Fhmm,
    inv_two_var: f64,
    pass: ForwardPass,
}

impl FhmmFilter<'_> {
    /// Advances the decode by one aggregate observation (watts).
    pub fn push(&mut self, x: f64) {
        self.pass
            .push(self.fhmm.joint_tables(), x, self.inv_two_var);
    }

    /// Number of observations pushed so far.
    pub fn len(&self) -> usize {
        self.pass.n
    }

    /// Whether no observation has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.pass.n == 0
    }

    /// Backtracks the decode so far into per-device state paths —
    /// byte-identical to what [`Fhmm::decode`] returns for the same
    /// observation prefix. Does not consume the filter; feeding may
    /// continue afterwards.
    pub fn paths(&self) -> Vec<Vec<usize>> {
        if self.is_empty() {
            return vec![Vec::new(); self.fhmm.devices.len()];
        }
        self.fhmm.unpack_paths(&self.pass.backtrack())
    }
}

/// Minimum trace length before the residual fill fans out to threads;
/// below this the serial loop wins on overhead.
const PAR_RESIDUAL_MIN: usize = 8_192;
/// Chunk length for the parallel residual fill. Fixed (not thread-count
/// derived) so the work decomposition is identical on every machine.
const PAR_RESIDUAL_CHUNK: usize = 4_096;

/// Computes `residual[t] = xs[t] - (explained[t] - watts[path[t]])` — the
/// meter signal with every *other* device's current explanation removed.
fn fill_residual(
    residual: &mut [f64],
    xs: &[f64],
    explained: &[f64],
    watts: &[f64],
    path: &[usize],
) {
    let n = residual.len();
    if n >= PAR_RESIDUAL_MIN && rayon::current_num_threads() > 1 {
        let chunks: Vec<Vec<f64>> =
            rayon::parallel_map((0..n).step_by(PAR_RESIDUAL_CHUNK).collect(), |start| {
                let end = (start + PAR_RESIDUAL_CHUNK).min(n);
                (start..end)
                    .map(|t| xs[t] - (explained[t] - watts[path[t]]))
                    .collect()
            });
        let mut at = 0;
        for chunk in chunks {
            residual[at..at + chunk.len()].copy_from_slice(&chunk);
            at += chunk.len();
        }
    } else {
        for t in 0..n {
            residual[t] = xs[t] - (explained[t] - watts[path[t]]);
        }
    }
}

impl Disaggregator for Fhmm {
    fn disaggregate(&self, meter: &PowerTrace) -> Vec<DeviceEstimate> {
        with_thread_arena(|arena| self.disaggregate_with(meter, arena))
    }

    fn name(&self) -> &str {
        "fhmm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::evaluate_disaggregation;
    use crate::train::train_device_hmm;
    use timeseries::{Resolution, Timestamp};

    fn square_wave(period: usize, on_len: usize, watts: f64, len: usize) -> PowerTrace {
        PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, len, |i| {
            if i % period < on_len {
                watts
            } else {
                0.0
            }
        })
    }

    /// A noisy two-device meter, deterministic per seed.
    fn noisy_meter(seed: u64, len: usize) -> (PowerTrace, PowerTrace, PowerTrace) {
        use timeseries::rng::{normal, seeded_rng};
        let a_truth = square_wave(40, 15, 150.0, len);
        let b_truth = square_wave(90, 30, 1_000.0, len);
        let mut rng = seeded_rng(seed);
        let meter = a_truth
            .checked_add(&b_truth)
            .unwrap()
            .map(|w| (w + normal(&mut rng, 0.0, 25.0)).max(0.0));
        (a_truth, b_truth, meter)
    }

    fn two_device_fhmm(config: FhmmConfig) -> Fhmm {
        let (a_truth, b_truth, _) = noisy_meter(0, 600);
        Fhmm::with_config(
            vec![
                train_device_hmm("a", &a_truth, 2),
                train_device_hmm("b", &b_truth, 2),
            ],
            config,
        )
    }

    #[test]
    fn exact_two_device_separation() {
        // Two devices with different magnitudes and periods.
        let a_truth = square_wave(40, 15, 150.0, 600);
        let b_truth = square_wave(90, 30, 1_000.0, 600);
        let meter = a_truth.checked_add(&b_truth).unwrap();

        let a = train_device_hmm("a", &a_truth, 2);
        let b = train_device_hmm("b", &b_truth, 2);
        let fhmm = Fhmm::new(vec![a, b]);
        assert_eq!(fhmm.joint_states(), 4);

        let estimates = fhmm.disaggregate(&meter);
        let truth = vec![("a".to_string(), a_truth), ("b".to_string(), b_truth)];
        let scores = evaluate_disaggregation(&truth, &estimates).unwrap();
        for s in &scores {
            assert!(s.error_factor < 0.05, "{}: {}", s.device, s.error_factor);
        }
    }

    #[test]
    fn icm_matches_exact_on_small_problem() {
        let a_truth = square_wave(50, 20, 200.0, 400);
        let b_truth = square_wave(70, 25, 1_200.0, 400);
        let meter = a_truth.checked_add(&b_truth).unwrap();
        let models = vec![
            train_device_hmm("a", &a_truth, 2),
            train_device_hmm("b", &b_truth, 2),
        ];
        let exact = Fhmm::with_config(
            models.clone(),
            FhmmConfig {
                max_exact_states: 256,
                ..FhmmConfig::default()
            },
        );
        let icm = Fhmm::with_config(
            models,
            FhmmConfig {
                max_exact_states: 1,
                icm_sweeps: 6,
                ..FhmmConfig::default()
            },
        );
        let e1 = exact.disaggregate(&meter);
        let e2 = icm.disaggregate(&meter);
        // ICM should find (nearly) the same explanation here.
        for (a, b) in e1.iter().zip(&e2) {
            let diff: f64 = a
                .trace
                .samples()
                .iter()
                .zip(b.trace.samples())
                .map(|(x, y)| (x - y).abs())
                .sum();
            let total: f64 = a.trace.samples().iter().sum();
            assert!(diff / total.max(1.0) < 0.1, "{}: diff {diff}", a.name);
        }
    }

    #[test]
    fn confuses_similar_small_loads_under_noise() {
        // Two near-identical small loads + noise: FHMM has trouble — this
        // is the PowerPlay advantage the paper's Figure 2 shows.
        use timeseries::rng::{normal, seeded_rng};
        let a_truth = square_wave(50, 20, 100.0, 800);
        let b_truth = square_wave(64, 24, 110.0, 800);
        let mut rng = seeded_rng(1);
        let meter = a_truth
            .checked_add(&b_truth)
            .unwrap()
            .map(|w| (w + normal(&mut rng, 0.0, 40.0)).max(0.0));
        let fhmm = Fhmm::new(vec![
            train_device_hmm("a", &a_truth, 2),
            train_device_hmm("b", &b_truth, 2),
        ]);
        let estimates = fhmm.disaggregate(&meter);
        let truth = vec![("a".to_string(), a_truth), ("b".to_string(), b_truth)];
        let scores = evaluate_disaggregation(&truth, &estimates).unwrap();
        let worst = scores.iter().map(|s| s.error_factor).fold(0.0, f64::max);
        assert!(worst > 0.15, "expected confusion, worst error {worst}");
    }

    #[test]
    fn empty_meter() {
        let t = square_wave(10, 5, 100.0, 50);
        let fhmm = Fhmm::new(vec![train_device_hmm("a", &t, 2)]);
        let meter = PowerTrace::zeros(Timestamp::ZERO, Resolution::ONE_MINUTE, 0);
        let estimates = fhmm.disaggregate(&meter);
        assert_eq!(estimates.len(), 1);
        assert!(estimates[0].trace.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_device_set_rejected() {
        Fhmm::new(vec![]);
    }

    #[test]
    fn flat_chain_matches_nested_table() {
        let t = square_wave(30, 10, 500.0, 300);
        let dev = train_device_hmm("d", &t, 3);
        let chain = FlatTables::from_hmm(&dev);
        for from in 0..dev.n_states() {
            for to in 0..dev.n_states() {
                assert_eq!(chain.log_a_t[to * chain.k + from], dev.log_trans[from][to]);
            }
        }
    }

    #[test]
    fn parallel_residual_fill_matches_serial() {
        let n = PAR_RESIDUAL_MIN + 1_234;
        let xs: Vec<f64> = (0..n).map(|t| (t % 977) as f64).collect();
        let explained: Vec<f64> = (0..n).map(|t| (t % 311) as f64 * 0.5).collect();
        let watts = vec![0.0, 120.0, 950.0];
        let path: Vec<usize> = (0..n).map(|t| t % watts.len()).collect();

        let mut parallel = vec![0.0; n];
        fill_residual(&mut parallel, &xs, &explained, &watts, &path);
        let serial: Vec<f64> = (0..n)
            .map(|t| xs[t] - (explained[t] - watts[path[t]]))
            .collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn batched_exact_matches_single_for_any_b() {
        let fhmm = two_device_fhmm(FhmmConfig::default());
        assert!(fhmm.exact_capable());
        for count in [1usize, 3, 8] {
            let meters: Vec<PowerTrace> =
                (0..count).map(|s| noisy_meter(s as u64, 300).2).collect();
            let refs: Vec<&PowerTrace> = meters.iter().collect();
            let mut arena = DecodeArena::new();
            let batched = fhmm.decode_batch(&refs, &mut arena);
            for (m, got) in meters.iter().zip(&batched) {
                let solo = fhmm.decode(m, &mut DecodeArena::new());
                assert_eq!(*got, solo, "count {count}");
            }
        }
    }

    #[test]
    fn batched_icm_matches_serial() {
        let fhmm = two_device_fhmm(FhmmConfig {
            max_exact_states: 1,
            ..FhmmConfig::default()
        });
        assert!(!fhmm.exact_capable());
        let meters: Vec<PowerTrace> = (0..4).map(|s| noisy_meter(s as u64, 250).2).collect();
        let refs: Vec<&PowerTrace> = meters.iter().collect();
        let mut arena = DecodeArena::new();
        let batched = fhmm.decode_batch(&refs, &mut arena);
        for (m, got) in meters.iter().zip(&batched) {
            let solo = fhmm.decode(m, &mut DecodeArena::new());
            assert_eq!(*got, solo);
        }
    }

    #[test]
    fn ragged_batch_matches_single() {
        let fhmm = two_device_fhmm(FhmmConfig::default());
        let lens = [300usize, 120, 300, 0, 120];
        let meters: Vec<PowerTrace> = lens
            .iter()
            .enumerate()
            .map(|(s, &len)| noisy_meter(s as u64, len.max(1)).2.slice(0..len))
            .collect();
        let refs: Vec<&PowerTrace> = meters.iter().collect();
        let mut arena = DecodeArena::new();
        let batched = fhmm.decode_batch(&refs, &mut arena);
        assert_eq!(batched.len(), meters.len());
        for (m, got) in meters.iter().zip(&batched) {
            let solo = fhmm.decode(m, &mut DecodeArena::new());
            assert_eq!(*got, solo);
        }
    }

    #[test]
    fn filter_matches_decode_and_resumes_from_a_clone() {
        let fhmm = two_device_fhmm(FhmmConfig::default());
        let meter = noisy_meter(7, 180).2;
        let decoded = fhmm.decode(&meter, &mut DecodeArena::new());

        let mut filter = fhmm.filter().unwrap();
        let mut checkpoint = None;
        for (t, &x) in meter.samples().iter().enumerate() {
            filter.push(x);
            if t == 90 {
                checkpoint = Some(filter.clone());
            }
        }
        assert_eq!(filter.paths(), decoded);

        // Restoring the checkpoint and replaying the tail reproduces it.
        let mut restored = checkpoint.unwrap();
        for &x in &meter.samples()[91..] {
            restored.push(x);
        }
        assert_eq!(restored.paths(), decoded);
    }

    #[test]
    fn arena_reuse_is_counted() {
        let fhmm = two_device_fhmm(FhmmConfig::default());
        let meter = noisy_meter(3, 200).2;
        let mut arena = DecodeArena::new();
        fhmm.disaggregate_with(&meter, &mut arena);
        obs::enable();
        obs::reset();
        fhmm.disaggregate_with(&meter, &mut arena);
        let report = obs::snapshot();
        obs::disable();
        assert!(report.counter("decode.arena_reuse").unwrap_or(0) >= 1);
    }
}
