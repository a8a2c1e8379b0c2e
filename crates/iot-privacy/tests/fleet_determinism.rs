//! Regression tests for the fleet runner's determinism contract: the
//! parallel runner must serialize byte-for-byte identically to the serial
//! reference at every thread count — including with the obs metrics layer
//! enabled, whose deterministic section (counters/gauges) must itself be
//! byte-identical between the serial and parallel runs.
//!
//! All thread-count cases live in ONE test function on purpose —
//! `RAYON_NUM_THREADS` is process-global, and the harness runs separate
//! `#[test]`s concurrently.

use iot_privacy::scenario::{EnergyScenario, ScenarioReport};
use iot_privacy::{
    obs, run_fleet_supervised_with, run_fleet_supervised_with_serial, HomeAttempt,
    SupervisedFleetResult, SupervisorConfig,
};

fn clean(attempt: HomeAttempt) -> ScenarioReport {
    EnergyScenario::new(attempt.seed).days(1).run()
}

/// A per-home closure where ~10 % of homes (here 2 of 20) panic on every
/// attempt — the acceptance scenario for the quarantine contract.
fn faulty(attempt: HomeAttempt) -> ScenarioReport {
    if attempt.home % 10 == 3 {
        panic!("injected per-home panic in home {}", attempt.home);
    }
    clean(attempt)
}

const HOMES: usize = 8;
const ROOT: u64 = 123;
const FAULTY_HOMES: usize = 20;

/// Runs the clean and the faulty fleet through `run` and serializes both.
fn both_fleets(
    run: impl Fn(usize, fn(HomeAttempt) -> ScenarioReport) -> SupervisedFleetResult,
) -> (String, String) {
    let clean_fleet = serde_json::to_string(&run(HOMES, clean)).expect("fleet serializes");
    let faulty_fleet = run(FAULTY_HOMES, faulty);
    let quarantined: Vec<usize> = faulty_fleet.quarantined.iter().map(|q| q.home).collect();
    assert_eq!(
        quarantined,
        vec![3, 13],
        "quarantine set must be deterministic"
    );
    let faulty_fleet = serde_json::to_string(&faulty_fleet).expect("fleet serializes");
    (clean_fleet, faulty_fleet)
}

#[test]
fn parallel_fleet_is_byte_identical_to_serial_at_any_thread_count() {
    // Metrics observation must never feed back into results, so the whole
    // test runs with the obs layer ON (the stricter direction: a pass here
    // also covers metrics-off runs, which execute strictly less code).
    obs::enable();
    obs::reset();

    let cfg = SupervisorConfig::default();
    let (clean_reference, faulty_reference) =
        both_fleets(|homes, run| run_fleet_supervised_with_serial(homes, ROOT, cfg, run).unwrap());
    assert!(
        clean_reference.contains("undefended"),
        "sanity: report shape"
    );
    assert!(
        faulty_reference.contains("quarantined"),
        "sanity: quarantine ledger serialized"
    );
    let serial_metrics = obs::snapshot().deterministic_json();
    assert!(
        serial_metrics.contains("fleet.homes") && serial_metrics.contains("fleet.quarantined"),
        "sanity: metrics recorded"
    );

    for threads in ["1", "2", "3", "8", "32"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        obs::reset();
        let (clean_fleet, faulty_fleet) =
            both_fleets(|homes, run| run_fleet_supervised_with(homes, ROOT, cfg, run).unwrap());
        assert_eq!(
            clean_fleet, clean_reference,
            "fleet JSON must be byte-identical to the serial reference at \
             RAYON_NUM_THREADS={threads}"
        );
        assert_eq!(
            faulty_fleet, faulty_reference,
            "faulty fleet JSON (reports + quarantine ledger) must be \
             byte-identical to the serial reference at RAYON_NUM_THREADS={threads}"
        );
        // Counters merge commutatively, so the deterministic metric
        // section is also schedule-independent.
        assert_eq!(
            obs::snapshot().deterministic_json(),
            serial_metrics,
            "deterministic metrics section must match the serial reference \
             at RAYON_NUM_THREADS={threads}"
        );
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    obs::disable();
}
