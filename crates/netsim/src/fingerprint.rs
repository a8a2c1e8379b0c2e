//! The traffic-fingerprinting attack: identifying device types (and
//! household activity) from flow metadata alone.

use crate::device::DeviceType;
use crate::features::{FeatureVector, StrongFeatureVector, N_FEATURES, N_STRONG_FEATURES};
use crate::flow::FlowRecord;
use crate::generate::NetworkTrace;
use crate::shaping::{ShapingPolicy, TUNNEL_DEVICE_ID};
use serde::{Deserialize, Serialize};
use timeseries::rng::round_seed;
use timeseries::PipelineError;

/// A trained device-type classifier.
pub trait DeviceClassifier {
    /// Predicts the type behind a feature vector.
    fn predict(&self, features: &FeatureVector) -> DeviceType;

    /// A short human-readable name.
    fn name(&self) -> &str;
}

/// Gaussian naive Bayes over traffic features, from scratch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NaiveBayes {
    classes: Vec<DeviceType>,
    /// Per class: (mean, variance) per feature, plus log prior.
    stats: Vec<([f64; N_FEATURES], [f64; N_FEATURES], f64)>,
}

impl NaiveBayes {
    /// Trains on labelled feature vectors.
    ///
    /// # Panics
    ///
    /// Panics if `examples` is empty.
    pub fn train(examples: &[(DeviceType, FeatureVector)]) -> Self {
        Self::try_train(examples).expect("need training data")
    }

    /// The checked training entry point for possibly-degraded feeds (a
    /// heavily faulted flow log can yield zero usable examples).
    ///
    /// # Errors
    ///
    /// [`PipelineError::EmptyInput`] when `examples` is empty.
    pub fn try_train(examples: &[(DeviceType, FeatureVector)]) -> Result<Self, PipelineError> {
        if examples.is_empty() {
            return Err(PipelineError::EmptyInput {
                stage: "netsim.fingerprint.train",
            });
        }
        let mut classes: Vec<DeviceType> = examples.iter().map(|(t, _)| *t).collect();
        classes.sort_by_key(|t| format!("{t}"));
        classes.dedup();
        let total = examples.len() as f64;
        let stats = classes
            .iter()
            .map(|&class| {
                let of_class: Vec<&FeatureVector> = examples
                    .iter()
                    .filter_map(|(t, f)| (*t == class).then_some(f))
                    .collect();
                let n = of_class.len() as f64;
                let mut mean = [0.0; N_FEATURES];
                let mut var = [0.0; N_FEATURES];
                for f in &of_class {
                    for (k, &v) in f.values.iter().enumerate() {
                        mean[k] += v;
                    }
                }
                for m in &mut mean {
                    *m /= n;
                }
                for f in &of_class {
                    for (k, &v) in f.values.iter().enumerate() {
                        var[k] += (v - mean[k]).powi(2);
                    }
                }
                for v in &mut var {
                    *v = (*v / n).max(1e-3); // variance floor
                }
                (mean, var, (n / total).ln())
            })
            .collect();
        Ok(NaiveBayes { classes, stats })
    }

    /// Per-class log posterior (unnormalized).
    fn log_posterior(&self, f: &FeatureVector) -> Vec<f64> {
        self.stats
            .iter()
            .map(|(mean, var, prior)| {
                let mut lp = *prior;
                for k in 0..N_FEATURES {
                    let d = f.values[k] - mean[k];
                    lp += -0.5 * (d * d / var[k] + var[k].ln());
                }
                lp
            })
            .collect()
    }
}

impl DeviceClassifier for NaiveBayes {
    fn predict(&self, features: &FeatureVector) -> DeviceType {
        let lp = self.log_posterior(features);
        let best = lp
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.classes[best]
    }

    fn name(&self) -> &str {
        "naive-bayes"
    }
}

/// k-nearest-neighbour classifier, from scratch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Knn {
    k: usize,
    examples: Vec<(DeviceType, FeatureVector)>,
}

impl Knn {
    /// Stores the training set.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or `examples` is empty.
    pub fn train(k: usize, examples: Vec<(DeviceType, FeatureVector)>) -> Self {
        assert!(k > 0, "k must be positive");
        Self::try_train(k, examples).expect("need training data")
    }

    /// The checked training entry point for possibly-degraded feeds.
    ///
    /// # Errors
    ///
    /// [`PipelineError::EmptyInput`] when `examples` is empty, and
    /// [`PipelineError::Degenerate`] when `k` is zero.
    pub fn try_train(
        k: usize,
        examples: Vec<(DeviceType, FeatureVector)>,
    ) -> Result<Self, PipelineError> {
        if k == 0 {
            return Err(PipelineError::Degenerate {
                stage: "netsim.fingerprint.train",
                reason: "k must be positive".into(),
            });
        }
        if examples.is_empty() {
            return Err(PipelineError::EmptyInput {
                stage: "netsim.fingerprint.train",
            });
        }
        Ok(Knn { k, examples })
    }
}

impl DeviceClassifier for Knn {
    fn predict(&self, features: &FeatureVector) -> DeviceType {
        let mut dists: Vec<(f64, DeviceType)> = self
            .examples
            .iter()
            .map(|(t, f)| (features.distance(f), *t))
            .collect();
        dists.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut votes: Vec<(DeviceType, usize)> = Vec::new();
        for &(_, t) in dists.iter().take(self.k) {
            match votes.iter_mut().find(|(v, _)| *v == t) {
                Some((_, c)) => *c += 1,
                None => votes.push((t, 1)),
            }
        }
        votes
            .into_iter()
            .max_by_key(|&(_, c)| c)
            .map(|(t, _)| t)
            .unwrap_or(self.examples[0].0)
    }

    fn name(&self) -> &str {
        "knn"
    }
}

/// Extracts one labelled example per device from a trace, splitting the
/// horizon into `windows` observation windows (each window yields one
/// feature vector per device — more windows, more examples).
pub fn labelled_examples(trace: &NetworkTrace, windows: usize) -> Vec<(DeviceType, FeatureVector)> {
    let _span = obs::span("netsim.fingerprint.features");
    let out = windowed_examples(
        trace,
        windows,
        |id| trace.flows_of(id),
        FeatureVector::from_flows,
    );
    obs::counter_add("netsim.fingerprint.examples", out.len() as u64);
    out
}

/// The observation-window loop behind [`labelled_examples`] and
/// [`strong_examples`]: for each device, `flows_of(device_id)` picks the
/// flows attributed to it, one pass buckets them into `windows` equal
/// windows (trace order kept within a window), and `featurize` turns each
/// window's flows into at most one example.
fn windowed_examples<F>(
    trace: &NetworkTrace,
    windows: usize,
    flows_of: impl Fn(u32) -> Vec<FlowRecord>,
    featurize: impl Fn(&[FlowRecord], u64) -> Option<F>,
) -> Vec<(DeviceType, F)> {
    assert!(windows > 0, "need at least one window");
    let window_secs = trace.horizon_secs / windows as u64;
    let mut out = Vec::new();
    for dev in &trace.devices {
        let mut buckets = vec![Vec::new(); windows];
        for f in flows_of(dev.device_id) {
            // Zero-length windows hold nothing, nor does any window hold
            // a flow past the last whole one.
            let w = f.start_secs.checked_div(window_secs);
            if let Some(bucket) = w.and_then(|w| buckets.get_mut(usize::try_from(w).ok()?)) {
                bucket.push(f);
            }
        }
        let examples = buckets.iter().filter_map(|b| featurize(b, window_secs));
        out.extend(examples.map(|fv| (dev.device_type, fv)));
    }
    out
}

/// Scores a classifier on held-out labelled examples: fraction correct.
pub fn accuracy(classifier: &dyn DeviceClassifier, test: &[(DeviceType, FeatureVector)]) -> f64 {
    if test.is_empty() {
        return 0.0;
    }
    let _span = obs::span("netsim.fingerprint.classify");
    obs::counter_add("netsim.fingerprint.classified", test.len() as u64);
    let correct = test
        .iter()
        .filter(|(t, f)| classifier.predict(f) == *t)
        .count();
    correct as f64 / test.len() as f64
}

// ---------------------------------------------------------------------------
// The strong fingerprinter: re-featurizes on what shaping does not destroy
// and retrains per shaping policy, the way `tournament::AdaptiveTuned`
// retrains on defended meter traces.
// ---------------------------------------------------------------------------

/// Extracts one strong labelled example per device per observation window,
/// mirroring [`labelled_examples`] but over [`StrongFeatureVector`]s.
///
/// Identity resolution follows what an observer can actually attribute:
/// a device's example is computed from the flows carrying its device id;
/// when a policy has aggregated the home behind the tunnel, no such flows
/// exist and the observer falls back to the tunnel's merged flow stream —
/// every device then yields the *same* features, which is exactly why full
/// aggregation floors per-device identification to chance.
pub fn strong_examples(
    trace: &NetworkTrace,
    windows: usize,
) -> Vec<(DeviceType, StrongFeatureVector)> {
    let _span = obs::span("netsim.fingerprint.strong_features");
    let out = windowed_examples(
        trace,
        windows,
        |id| match trace.flows_of(id) {
            flows if flows.is_empty() => trace.flows_of(TUNNEL_DEVICE_ID),
            flows => flows,
        },
        StrongFeatureVector::from_flows,
    );
    obs::counter_add("netsim.fingerprint.strong_examples", out.len() as u64);
    out
}

/// A from-scratch multinomial logistic-regression fingerprinter over
/// [`StrongFeatureVector`]s.
///
/// Training is deterministic: features are z-scored with training-set
/// statistics, weights start at zero, and full-batch gradient descent runs
/// a fixed number of epochs — no randomness anywhere, so a fit is a pure
/// function of its training set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrongFingerprinter {
    classes: Vec<DeviceType>,
    /// Per class: weights over the standardized features plus a bias term.
    weights: Vec<[f64; N_STRONG_FEATURES + 1]>,
    mean: [f64; N_STRONG_FEATURES],
    std: [f64; N_STRONG_FEATURES],
    /// Mean training-set accuracy after each per-policy retraining round,
    /// scored on every shaped example accumulated so far. The trail is
    /// prefix-stable: round `r` depends only on `(seed, r)`, never on how
    /// many later rounds ran (same contract as `tournament`'s
    /// `round_train_mcc`).
    pub round_train_acc: Vec<f64>,
}

const GD_EPOCHS: usize = 300;
const GD_LEARNING_RATE: f64 = 0.5;

impl StrongFingerprinter {
    /// Trains on labelled strong examples.
    ///
    /// # Errors
    ///
    /// [`PipelineError::EmptyInput`] when `examples` is empty.
    pub fn try_train(
        examples: &[(DeviceType, StrongFeatureVector)],
    ) -> Result<Self, PipelineError> {
        if examples.is_empty() {
            return Err(PipelineError::EmptyInput {
                stage: "netsim.fingerprint.strong_train",
            });
        }
        let mut classes: Vec<DeviceType> = examples.iter().map(|(t, _)| *t).collect();
        classes.sort_by_key(|t| format!("{t}"));
        classes.dedup();
        let n = examples.len() as f64;

        // Standardization statistics from the training set.
        let mut mean = [0.0; N_STRONG_FEATURES];
        let mut std = [0.0; N_STRONG_FEATURES];
        for (_, f) in examples {
            for (k, &v) in f.values.iter().enumerate() {
                mean[k] += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        for (_, f) in examples {
            for (k, &v) in f.values.iter().enumerate() {
                std[k] += (v - mean[k]).powi(2);
            }
        }
        for s in &mut std {
            *s = (*s / n).sqrt().max(1e-6);
        }

        let xs: Vec<[f64; N_STRONG_FEATURES]> = examples
            .iter()
            .map(|(_, f)| standardize(&f.values, &mean, &std))
            .collect();
        let ys: Vec<usize> = examples
            .iter()
            .map(|(t, _)| classes.iter().position(|c| c == t).expect("class present"))
            .collect();

        let k_classes = classes.len();
        let mut weights = vec![[0.0f64; N_STRONG_FEATURES + 1]; k_classes];
        let mut probs = vec![0.0f64; k_classes];
        for _ in 0..GD_EPOCHS {
            let mut grad = vec![[0.0f64; N_STRONG_FEATURES + 1]; k_classes];
            for (x, &y) in xs.iter().zip(&ys) {
                softmax_into(&weights, x, &mut probs);
                for (c, p) in probs.iter().enumerate() {
                    let err = p - f64::from(u8::from(c == y));
                    for (k, &xv) in x.iter().enumerate() {
                        grad[c][k] += err * xv;
                    }
                    grad[c][N_STRONG_FEATURES] += err;
                }
            }
            for (w, g) in weights.iter_mut().zip(&grad) {
                for (wk, gk) in w.iter_mut().zip(g) {
                    *wk -= GD_LEARNING_RATE * gk / n;
                }
            }
        }

        Ok(StrongFingerprinter {
            classes,
            weights,
            mean,
            std,
            round_train_acc: Vec::new(),
        })
    }

    /// Panicking convenience wrapper around [`Self::try_train`].
    ///
    /// # Panics
    ///
    /// Panics if `examples` is empty.
    pub fn train(examples: &[(DeviceType, StrongFeatureVector)]) -> Self {
        Self::try_train(examples).expect("need training data")
    }

    /// Fits the attack against a specific shaping policy, the adaptive
    /// way: each round shapes the training trace with fresh per-round
    /// randomness (`round_seed`, shared with `tournament::AdaptiveTuned`),
    /// appends the shaped examples to the training pool, refits on
    /// everything accumulated, and records the training accuracy.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero or the shaped trace yields no examples.
    pub fn fit(
        trace: &NetworkTrace,
        policy: &ShapingPolicy,
        windows: usize,
        rounds: usize,
        seed: u64,
    ) -> Self {
        assert!(rounds > 0, "adaptive fit needs at least one round");
        let _span = obs::span("netsim.fingerprint.strong_fit");
        let ids: Vec<u32> = trace.devices.iter().map(|d| d.device_id).collect();
        let mut pool: Vec<(DeviceType, StrongFeatureVector)> = Vec::new();
        let mut model = None;
        let mut trail = Vec::with_capacity(rounds);
        for round in 0..rounds {
            let shaped = policy.shape(
                &trace.flows,
                &ids,
                trace.horizon_secs,
                round_seed(seed, round, 0),
            );
            let mut shaped_trace = trace.clone();
            shaped_trace.flows = shaped.flows;
            pool.extend(strong_examples(&shaped_trace, windows));
            let fitted = StrongFingerprinter::train(&pool);
            trail.push(strong_accuracy(&fitted, &pool));
            model = Some(fitted);
        }
        obs::counter_add("netsim.fingerprint.strong_fit_rounds", rounds as u64);
        let mut model = model.expect("rounds > 0");
        model.round_train_acc = trail;
        model
    }

    /// Predicts the device type behind a strong feature vector.
    pub fn predict(&self, features: &StrongFeatureVector) -> DeviceType {
        let x = standardize(&features.values, &self.mean, &self.std);
        let mut probs = vec![0.0f64; self.classes.len()];
        softmax_into(&self.weights, &x, &mut probs);
        let best = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.classes[best]
    }

    /// A short human-readable name, mirroring [`DeviceClassifier::name`].
    pub fn name(&self) -> &'static str {
        "strong-logistic"
    }
}

fn standardize(
    values: &[f64; N_STRONG_FEATURES],
    mean: &[f64; N_STRONG_FEATURES],
    std: &[f64; N_STRONG_FEATURES],
) -> [f64; N_STRONG_FEATURES] {
    let mut out = [0.0; N_STRONG_FEATURES];
    for k in 0..N_STRONG_FEATURES {
        out[k] = (values[k] - mean[k]) / std[k];
    }
    out
}

fn softmax_into(
    weights: &[[f64; N_STRONG_FEATURES + 1]],
    x: &[f64; N_STRONG_FEATURES],
    probs: &mut [f64],
) {
    for (p, w) in probs.iter_mut().zip(weights) {
        let mut z = w[N_STRONG_FEATURES];
        for (k, &xv) in x.iter().enumerate() {
            z += w[k] * xv;
        }
        *p = z;
    }
    let max = probs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for p in probs.iter_mut() {
        *p = (*p - max).exp();
        sum += *p;
    }
    for p in probs.iter_mut() {
        *p /= sum;
    }
}

/// Scores a strong fingerprinter on held-out labelled examples: fraction
/// correct (0 on an empty test set).
pub fn strong_accuracy(
    model: &StrongFingerprinter,
    test: &[(DeviceType, StrongFeatureVector)],
) -> f64 {
    if test.is_empty() {
        return 0.0;
    }
    let correct = test.iter().filter(|(t, f)| model.predict(f) == *t).count();
    correct as f64 / test.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::simulate_home_network;
    use timeseries::{LabelSeries, Resolution, Timestamp};

    fn occupancy(days: usize) -> LabelSeries {
        LabelSeries::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, days * 1440, |i| {
            let m = i % 1440;
            !(540..1_020).contains(&m)
        })
    }

    fn inventory() -> Vec<DeviceType> {
        DeviceType::all().to_vec()
    }

    #[test]
    fn fingerprinting_identifies_devices() {
        let train_trace = simulate_home_network(&inventory(), &occupancy(6), 6, 100);
        let test_trace = simulate_home_network(&inventory(), &occupancy(6), 6, 200);
        let train = labelled_examples(&train_trace, 6);
        let test = labelled_examples(&test_trace, 6);
        let nb = NaiveBayes::train(&train);
        let acc = accuracy(&nb, &test);
        assert!(acc > 0.8, "naive bayes accuracy {acc}");
        let knn = Knn::train(3, train);
        let acc_knn = accuracy(&knn, &test);
        assert!(acc_knn > 0.8, "knn accuracy {acc_knn}");
        // Both are far above the 10-class chance level.
        assert!(acc > 0.3 && acc_knn > 0.3);
    }

    #[test]
    fn one_pass_windowing_matches_per_window_filtering() {
        // The per-window filter both extractors used to run.
        fn reference<F>(
            trace: &NetworkTrace,
            windows: usize,
            flows_of: impl Fn(u32) -> Vec<FlowRecord>,
            featurize: impl Fn(&[FlowRecord], u64) -> Option<F>,
        ) -> Vec<(DeviceType, F)> {
            let window_secs = trace.horizon_secs / windows as u64;
            let mut out = Vec::new();
            for dev in &trace.devices {
                let flows = flows_of(dev.device_id);
                for w in 0..windows as u64 {
                    let (lo, hi) = (w * window_secs, (w + 1) * window_secs);
                    let in_window: Vec<_> = flows
                        .iter()
                        .copied()
                        .filter(|f| f.start_secs >= lo && f.start_secs < hi)
                        .collect();
                    if let Some(fv) = featurize(&in_window, window_secs) {
                        out.push((dev.device_type, fv));
                    }
                }
            }
            out
        }
        let mut trace = simulate_home_network(&inventory(), &occupancy(2), 2, 11);
        let ids: Vec<u32> = trace.devices.iter().map(|d| d.device_id).collect();
        let full = crate::shaping::policies()
            .into_iter()
            .find(|p| p.key == "full")
            .unwrap()
            .policy;
        let mut tunnel = trace.clone();
        tunnel.flows = full.shape(&trace.flows, &ids, trace.horizon_secs, 3).flows;
        for windows in [1, 5, 7, 48] {
            assert_eq!(
                labelled_examples(&trace, windows),
                reference(
                    &trace,
                    windows,
                    |id| trace.flows_of(id),
                    FeatureVector::from_flows
                )
            );
            for t in [&trace, &tunnel] {
                let attributed = |id| match t.flows_of(id) {
                    flows if flows.is_empty() => t.flows_of(TUNNEL_DEVICE_ID),
                    flows => flows,
                };
                assert_eq!(
                    strong_examples(t, windows),
                    reference(t, windows, attributed, StrongFeatureVector::from_flows)
                );
            }
        }
        // Windows shorter than a second hold nothing.
        trace.horizon_secs = 6;
        assert!(labelled_examples(&trace, 7).is_empty());
        assert!(strong_examples(&trace, 7).is_empty());
    }

    #[test]
    fn classifiers_have_names() {
        let examples = vec![(
            DeviceType::Hub,
            FeatureVector {
                values: [0.0; crate::features::N_FEATURES],
            },
        )];
        assert_eq!(NaiveBayes::train(&examples).name(), "naive-bayes");
        assert_eq!(Knn::train(1, examples).name(), "knn");
    }

    #[test]
    fn accuracy_empty_test_is_zero() {
        let examples = vec![(
            DeviceType::Hub,
            FeatureVector {
                values: [0.0; crate::features::N_FEATURES],
            },
        )];
        let nb = NaiveBayes::train(&examples);
        assert_eq!(accuracy(&nb, &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "need training data")]
    fn empty_training_rejected() {
        NaiveBayes::train(&[]);
    }

    #[test]
    fn strong_fingerprinter_identifies_devices_on_clear_traffic() {
        let train_trace = simulate_home_network(&inventory(), &occupancy(6), 6, 100);
        let test_trace = simulate_home_network(&inventory(), &occupancy(6), 6, 200);
        let model = StrongFingerprinter::fit(
            &train_trace,
            &crate::shaping::ShapingPolicy::none(),
            6,
            1,
            0,
        );
        let acc = strong_accuracy(&model, &strong_examples(&test_trace, 6));
        assert!(acc > 0.6, "strong accuracy on clear traffic {acc}");
        assert_eq!(model.name(), "strong-logistic");
    }

    #[test]
    fn strong_fit_deterministic_and_trail_prefix_stable() {
        let trace = simulate_home_network(&inventory(), &occupancy(4), 4, 300);
        let policy = crate::shaping::ShapingPolicy::none().with_cover(1_800, 1 << 16, 2.0);
        let a = StrongFingerprinter::fit(&trace, &policy, 4, 3, 7);
        let b = StrongFingerprinter::fit(&trace, &policy, 4, 3, 7);
        assert_eq!(a, b);
        // Prefix stability: a shorter fit's trail is a prefix of a longer
        // one's — round r never sees later rounds.
        let short = StrongFingerprinter::fit(&trace, &policy, 4, 2, 7);
        assert_eq!(short.round_train_acc[..], a.round_train_acc[..2]);
    }

    #[test]
    fn strong_examples_fall_back_to_tunnel_identity() {
        let trace = simulate_home_network(&inventory(), &occupancy(2), 2, 400);
        let ids: Vec<u32> = trace.devices.iter().map(|d| d.device_id).collect();
        let full = crate::shaping::policies()
            .into_iter()
            .find(|p| p.key == "full")
            .unwrap()
            .policy;
        let shaped = full.shape(&trace.flows, &ids, trace.horizon_secs, 1);
        let mut shaped_trace = trace.clone();
        shaped_trace.flows = shaped.flows;
        let examples = strong_examples(&shaped_trace, 2);
        assert!(!examples.is_empty());
        // Every device sees the same tunnel stream, so per-window feature
        // vectors must coincide across devices.
        let per_window_first: Vec<StrongFeatureVector> = examples.iter().map(|(_, f)| *f).collect();
        let n_types = trace.devices.len();
        let per_device = per_window_first.len() / n_types;
        for d in 1..n_types {
            for w in 0..per_device {
                assert_eq!(per_window_first[w], per_window_first[d * per_device + w]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn strong_zero_rounds_rejected() {
        let trace = simulate_home_network(&inventory(), &occupancy(1), 1, 1);
        StrongFingerprinter::fit(&trace, &crate::shaping::ShapingPolicy::none(), 1, 0, 0);
    }
}
