//! Attackers: static baselines and the co-evolving adaptive one.

use crate::arena::TrainingArena;
use iot_privacy::defense::Defense;
use iot_privacy::niom::{sweep_confusions, LogisticDetector, OccupancyDetector, ThresholdDetector};
use iot_privacy::timeseries::rng::{round_seed, seeded_rng};
use iot_privacy::timeseries::{LabelSeries, PowerTrace};

/// The NIOM window every tournament attacker uses, samples.
pub const WINDOW: usize = 15;

/// The concrete model a fitted attack deploys. An enum rather than a
/// `Box<dyn OccupancyDetector>` so the streaming layer can build the
/// matching `ThresholdStream`/`LogisticStream` for chunked admission of
/// the same attack, and so fits compare with `==` in determinism tests.
#[derive(Debug, Clone, PartialEq)]
pub enum DeployedModel {
    /// A (possibly tuned) statistical threshold detector.
    Threshold(ThresholdDetector),
    /// A trained logistic-regression detector.
    Logistic(LogisticDetector),
}

impl DeployedModel {
    /// Runs the model over a meter trace.
    pub fn detect(&self, meter: &PowerTrace) -> LabelSeries {
        match self {
            DeployedModel::Threshold(d) => d.detect(meter),
            DeployedModel::Logistic(d) => d.detect(meter),
        }
    }
}

/// A fitted attack: the model to deploy plus the fit's audit trail.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedAttack {
    /// The model the attacker deploys against evaluation homes.
    pub model: DeployedModel,
    /// Mean training-set MCC after each co-evolution round, scored on
    /// every defended trace accumulated so far. Empty for static
    /// attackers (they never see the defense).
    pub round_train_mcc: Vec<f64>,
}

impl FittedAttack {
    /// Runs the deployed model over a meter trace.
    pub fn detect(&self, meter: &PowerTrace) -> LabelSeries {
        self.model.detect(meter)
    }
}

/// An occupancy attacker that can be fitted against a specific defense.
///
/// `fit` receives the defense *as deployed* — adaptive attackers may
/// apply it to their training homes as often as they like (they own
/// those homes), while static attackers must ignore it. The fit must be
/// a pure function of `(arena, defense, rounds, seed)`.
pub trait Attacker: Sync {
    /// Stable registry key, e.g. `adaptive-tuned`.
    fn name(&self) -> &'static str;

    /// Whether `fit` looks at defended traces at all.
    fn is_adaptive(&self) -> bool;

    /// Fits the attack for deployment against `defense`.
    fn fit(
        &self,
        arena: &TrainingArena,
        defense: &dyn Defense,
        rounds: usize,
        seed: u64,
    ) -> FittedAttack;
}

/// The paper's unsupervised threshold attack (Fig. 6): calibrates
/// per-trace at detection time, learns nothing from training homes.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticThreshold;

impl Attacker for StaticThreshold {
    fn name(&self) -> &'static str {
        "static-threshold"
    }

    fn is_adaptive(&self) -> bool {
        false
    }

    fn fit(
        &self,
        _arena: &TrainingArena,
        _defense: &dyn Defense,
        _rounds: usize,
        _seed: u64,
    ) -> FittedAttack {
        FittedAttack {
            model: DeployedModel::Threshold(ThresholdDetector::default()),
            round_train_mcc: Vec::new(),
        }
    }
}

/// The supervised logistic attack trained once on *raw* training
/// meters — what an attacker ships when it doesn't know a defense is
/// deployed.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticLogistic;

impl Attacker for StaticLogistic {
    fn name(&self) -> &'static str {
        "static-logistic"
    }

    fn is_adaptive(&self) -> bool {
        false
    }

    fn fit(
        &self,
        arena: &TrainingArena,
        _defense: &dyn Defense,
        _rounds: usize,
        _seed: u64,
    ) -> FittedAttack {
        let pairs: Vec<(&PowerTrace, &LabelSeries)> = arena
            .homes
            .iter()
            .map(|h| (&h.meter, &h.occupancy))
            .collect();
        FittedAttack {
            model: DeployedModel::Logistic(LogisticDetector::train(&pairs, WINDOW)),
            round_train_mcc: Vec::new(),
        }
    }
}

/// The co-evolving attacker. Each round it deploys the defense on its
/// own training homes (fresh randomness per `(round, home)`), appends
/// the defended traces to its training set, and refits on everything
/// accumulated so far: it retrains a logistic model on the defended
/// pairs *and* tunes the threshold family over [`candidate_grid`],
/// deploying whichever candidate scores the best mean MCC on the
/// defended training set. By round K it has learned whatever occupancy
/// signal — level shifts, residual burstiness, schedule priors —
/// *survives* the defense.
///
/// The static threshold's exact configuration is in the grid, so on
/// undefended traces the adaptive attacker can only match or improve on
/// it (up to train→eval transfer).
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptiveTuned;

/// A margin/σ rung so high the corresponding channel never fires —
/// combined with a tuned prior this turns a grid candidate into a pure
/// schedule attack (see [`candidate_grid`]).
const CHANNEL_OFF_WATTS: f64 = 1.0e9;

/// The threshold-family search space: window length × baseline
/// percentile × mean margin × σ threshold × sleep-prior hours, with the
/// run-length smoother at the paper's default. Includes
/// [`ThresholdDetector::default`] itself (window 15, percentile 10,
/// margin 100 W, σ 110 W, prior 22–07) — so the static deployment is
/// always one of the options the adaptive attacker can fall back to.
///
/// The extra axes are what defense adaptation needs:
///
/// * long windows see through load-shifting (CHPr, battery);
/// * low margins/σ recover residual burstiness a smoother attenuates;
/// * alternative prior hours — or no prior — re-tune the schedule
///   assumption to whatever household mix the training fleet shows;
/// * the `CHANNEL_OFF_WATTS` rungs disable a power channel entirely,
///   so "wide prior + both channels off" is a pure *schedule attack*:
///   when a defense blinds the power side channel completely, occupancy
///   is still partially predictable from hours alone, and the attacker
///   learns that from its own labelled homes.
pub fn candidate_grid() -> Vec<ThresholdDetector> {
    let mut grid = Vec::new();
    for window in [WINDOW, 30, 60] {
        for bp in [5.0, 10.0, 20.0] {
            for margin in [20.0, 60.0, 100.0, 150.0, CHANNEL_OFF_WATTS] {
                for sigma in [20.0, 60.0, 110.0, 160.0, CHANNEL_OFF_WATTS] {
                    for prior in [Some((22, 7)), Some((18, 8)), None] {
                        grid.push(ThresholdDetector {
                            window,
                            baseline_percentile: bp,
                            mean_margin_watts: margin,
                            sigma_threshold_watts: sigma,
                            night_prior: prior,
                            ..ThresholdDetector::default()
                        });
                    }
                }
            }
        }
    }
    grid
}

/// Mean MCC of `model` over labelled traces.
fn mean_mcc(model: &DeployedModel, traces: &[(PowerTrace, &LabelSeries)]) -> f64 {
    traces
        .iter()
        .map(|(m, o)| {
            o.confusion(&model.detect(m))
                .expect("defense preserves geometry")
                .mcc()
        })
        .sum::<f64>()
        / traces.len() as f64
}

impl Attacker for AdaptiveTuned {
    fn name(&self) -> &'static str {
        "adaptive-tuned"
    }

    fn is_adaptive(&self) -> bool {
        true
    }

    fn fit(
        &self,
        arena: &TrainingArena,
        defense: &dyn Defense,
        rounds: usize,
        seed: u64,
    ) -> FittedAttack {
        assert!(rounds > 0, "adaptive fit needs at least one round");
        let _span = obs::span("tournament.fit");
        let grid = candidate_grid();
        let mut defended: Vec<(PowerTrace, &LabelSeries)> = Vec::new();
        // Every grid candidate's MCC on each defended trace, in trace
        // order. A trace's scores never change once it is in the training
        // set, so each is swept exactly once, in the round that adds it.
        let mut grid_mcc: Vec<Vec<f64>> = Vec::new();
        let mut round_train_mcc = Vec::with_capacity(rounds);
        let mut best: Option<(f64, DeployedModel)> = None;
        for round in 0..rounds {
            let fresh = defended.len();
            for (i, home) in arena.homes.iter().enumerate() {
                let mut rng = seeded_rng(round_seed(seed, round, i));
                let out = defense.apply(&home.meter, &mut rng);
                defended.push((out.trace, &home.occupancy));
            }
            grid_mcc.extend(iot_privacy::fleet::par_map(
                defended[fresh..].iter().collect(),
                |(meter, occupancy)| {
                    sweep_confusions(&grid, meter, occupancy)
                        .expect("defense preserves geometry")
                        .iter()
                        .map(|c| c.mcc())
                        .collect::<Vec<f64>>()
                },
            ));
            // Refit on everything accumulated: the tuned threshold family
            // plus a logistic model retrained on the defended pairs. Each
            // grid mean sums per-trace MCCs in trace order, exactly as
            // `mean_mcc` does for the logistic candidate.
            let pairs: Vec<(&PowerTrace, &LabelSeries)> =
                defended.iter().map(|(m, o)| (m, *o)).collect();
            let logistic = DeployedModel::Logistic(LogisticDetector::train(&pairs, WINDOW));
            let logistic_score = mean_mcc(&logistic, &defended);
            let scored = grid
                .iter()
                .enumerate()
                .map(|(k, d)| {
                    let score =
                        grid_mcc.iter().map(|trace| trace[k]).sum::<f64>() / grid_mcc.len() as f64;
                    (score, DeployedModel::Threshold(d.clone()))
                })
                .chain(std::iter::once((logistic_score, logistic)));
            // Deterministic selection: scores come in grid order, logistic
            // last, and only a strictly better score displaces the incumbent.
            best = None;
            for (score, model) in scored {
                if best.as_ref().is_none_or(|(b, _)| score > *b) {
                    best = Some((score, model));
                }
            }
            round_train_mcc.push(best.as_ref().expect("non-empty grid").0);
        }
        obs::counter_add("tournament.fit.rounds", rounds as u64);
        obs::counter_add("tournament.fit.defended_traces", defended.len() as u64);
        FittedAttack {
            model: best.expect("rounds > 0").1,
            round_train_mcc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iot_privacy::defense::{Chpr, DpNoise, NoDefense, NoiseInjector};

    fn arena() -> TrainingArena {
        TrainingArena::simulate(5, 2, 2)
    }

    #[test]
    fn static_attackers_ignore_the_defense() {
        let arena = arena();
        let vs_none = StaticLogistic.fit(&arena, &NoDefense, 3, 1);
        let vs_chpr = StaticLogistic.fit(&arena, &Chpr::default(), 3, 999);
        assert_eq!(vs_none.model, vs_chpr.model);
        assert!(vs_none.round_train_mcc.is_empty());
        assert!(!StaticThreshold.is_adaptive());
        assert!(!StaticLogistic.is_adaptive());
    }

    #[test]
    fn grid_contains_the_static_deployment() {
        assert!(candidate_grid().contains(&ThresholdDetector::default()));
        assert_eq!(candidate_grid().len(), 675);
    }

    #[test]
    fn adaptive_fit_is_deterministic_in_seed() {
        let arena = arena();
        let defense = NoiseInjector::new(150.0);
        let a = AdaptiveTuned.fit(&arena, &defense, 2, 7);
        let b = AdaptiveTuned.fit(&arena, &defense, 2, 7);
        assert_eq!(a, b);
        // A different seed draws different defense noise, so the training
        // trajectory must differ even if the selected model coincides.
        let c = AdaptiveTuned.fit(&arena, &defense, 2, 8);
        assert_ne!(a.round_train_mcc, c.round_train_mcc, "seed must matter");
    }

    #[test]
    fn adaptive_selection_is_at_least_the_static_threshold_on_train() {
        // The static configuration sits inside the search grid, so the
        // adaptive attacker's training score can never fall below it.
        let arena = arena();
        let fitted = AdaptiveTuned.fit(&arena, &NoDefense, 1, 3);
        let static_model = DeployedModel::Threshold(ThresholdDetector::default());
        let raw: Vec<(PowerTrace, &LabelSeries)> = arena
            .homes
            .iter()
            .map(|h| (h.meter.clone(), &h.occupancy))
            .collect();
        let static_score = mean_mcc(&static_model, &raw);
        assert!(
            fitted.round_train_mcc[0] >= static_score,
            "{} < {static_score}",
            fitted.round_train_mcc[0]
        );
    }

    #[test]
    fn adaptive_fit_against_infinite_epsilon_dp_is_the_no_dp_fit() {
        let arena = arena();
        let dp_off = AdaptiveTuned.fit(&arena, &DpNoise::new(f64::INFINITY), 2, 3);
        let none = AdaptiveTuned.fit(&arena, &NoDefense, 2, 3);
        assert_eq!(dp_off, none);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        AdaptiveTuned.fit(&arena(), &NoDefense, 0, 1);
    }
}
