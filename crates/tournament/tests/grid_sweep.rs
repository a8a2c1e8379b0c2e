//! The adaptive fit scores its threshold grid from shared window summaries
//! (`niom::sweep_confusions`), once per defended trace. This suite pins
//! that fast path to the straightforward algorithm it replaced: every
//! candidate re-runs `detect` on every accumulated trace each round. The
//! reference lives only here; the fitted model and the audit trail must
//! match it bit for bit against every registered defense.

use iot_privacy::niom::LogisticDetector;
use iot_privacy::timeseries::rng::{derive_seed, round_seed, seeded_rng};
use iot_privacy::timeseries::{LabelSeries, PowerTrace};
use tournament::attacker::{candidate_grid, WINDOW};
use tournament::{defenses, AdaptiveTuned, Attacker, DeployedModel, TrainingArena};

const ROUNDS: usize = 3;

fn mean_mcc(model: &DeployedModel, traces: &[(PowerTrace, &LabelSeries)]) -> f64 {
    traces
        .iter()
        .map(|(m, o)| o.confusion(&model.detect(m)).expect("aligned").mcc())
        .sum::<f64>()
        / traces.len() as f64
}

/// The per-candidate `detect` algorithm: after each round, the best mean
/// MCC and the model holding it (grid order, logistic last, strict `>`).
fn reference_fit(
    arena: &TrainingArena,
    defense: &dyn iot_privacy::defense::Defense,
    seed: u64,
) -> Vec<(f64, DeployedModel)> {
    let grid = candidate_grid();
    let mut defended: Vec<(PowerTrace, &LabelSeries)> = Vec::new();
    let mut per_round = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        for (i, home) in arena.homes.iter().enumerate() {
            let mut rng = seeded_rng(round_seed(seed, round, i));
            defended.push((defense.apply(&home.meter, &mut rng).trace, &home.occupancy));
        }
        let pairs: Vec<(&PowerTrace, &LabelSeries)> =
            defended.iter().map(|(m, o)| (m, *o)).collect();
        let mut candidates: Vec<DeployedModel> = grid
            .iter()
            .map(|d| DeployedModel::Threshold(d.clone()))
            .collect();
        candidates.push(DeployedModel::Logistic(LogisticDetector::train(
            &pairs, WINDOW,
        )));
        let scored =
            iot_privacy::fleet::par_map(candidates, |model| (mean_mcc(&model, &defended), model));
        let mut best: Option<(f64, DeployedModel)> = None;
        for (score, model) in scored {
            if best.as_ref().is_none_or(|(b, _)| score > *b) {
                best = Some((score, model));
            }
        }
        per_round.push(best.expect("non-empty grid"));
    }
    per_round
}

#[test]
fn adaptive_fit_matches_the_per_candidate_detect_reference_for_every_defense() {
    // Three homes cover all three personas; one day keeps the reference's
    // 675 × 6 detects per defense inside the test-tier budget.
    let arena = TrainingArena::simulate(2_024, 3, 1);
    for spec in defenses() {
        let seed = derive_seed(5, &format!("fit:{}", spec.key));
        let reference = reference_fit(&arena, &*spec.defense, seed);
        for rounds in 1..=ROUNDS {
            let fitted = AdaptiveTuned.fit(&arena, &*spec.defense, rounds, seed);
            let want: Vec<u64> = reference[..rounds]
                .iter()
                .map(|(s, _)| s.to_bits())
                .collect();
            let got: Vec<u64> = fitted.round_train_mcc.iter().map(|s| s.to_bits()).collect();
            assert_eq!(got, want, "{} at K={rounds}: round_train_mcc", spec.key);
            assert_eq!(
                fitted.model,
                reference[rounds - 1].1,
                "{} at K={rounds}: deployed model",
                spec.key
            );
        }
    }
}
