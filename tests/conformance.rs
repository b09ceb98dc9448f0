//! The conformance gate: every selection method differentially tested
//! against the exhaustive oracle, and the metamorphic invariants checked.
//!
//! This is the `cargo test` face of `crates/verify` (DESIGN.md §9); the
//! regression traces are pinned with every other artifact by
//! `tests/reproduce.rs`.

use acs::prelude::*;
use acs::verify::{metamorphic, run_differential, GridParams, ScenarioGrid, Thresholds};

/// The full grid is deliberately shared across tests (generation sweeps
/// 3 machines × every training/evaluation kernel × 42 configurations).
fn full_grid() -> ScenarioGrid {
    ScenarioGrid::generate(GridParams::default())
}

#[test]
fn differential_covers_all_methods_across_200_plus_scenarios() {
    let grid = full_grid();
    assert!(grid.len() >= 200, "grid too small: {} scenarios", grid.len());

    let report = run_differential(&grid, TrainingParams::default()).expect("training succeeds");
    assert_eq!(report.total_scenarios, grid.len());
    for m in Method::COMPARED {
        let r = report.for_method(m).expect("method present");
        assert_eq!(r.scenarios, grid.len(), "{m} must cover every scenario");
    }

    // The paper-derived pass/fail gates (Thresholds docs give the
    // provenance of each number).
    let failures = report.check(&Thresholds::default());
    assert!(failures.is_empty(), "regret gates failed:\n  {}", failures.join("\n  "));

    // No method may beat the oracle while meeting a feasible cap — if one
    // does, the oracle sweep itself is broken. The guard uses the same
    // strict comparison as `Frontier::best_under` (`power_w <= cap_w`, no
    // epsilon): `under_limit()` tolerates float noise just above the cap,
    // and a pick in that sliver may honestly out-perform the oracle's
    // strictly-capped choice.
    for c in &report.cases {
        if c.oracle.feasible && c.power_w <= c.cap_w {
            assert!(
                c.perf <= c.oracle.perf * (1.0 + 1e-9),
                "{} beat the oracle on {} at {:.1} W",
                c.method,
                c.kernel_id,
                c.cap_w
            );
        }
    }
}

#[test]
fn metamorphic_invariants_hold_on_every_grid_machine() {
    let grid = full_grid();
    let app = acs::kernels::app_instances()
        .into_iter()
        .find(|a| a.label() == "LULESH Small")
        .expect("LULESH Small exists");

    let mut violations = Vec::new();
    for m in &grid.machines {
        let model =
            acs::core::train(&m.training, TrainingParams::default()).expect("training succeeds");
        let evaluated: Vec<KernelProfile> = m.evaluated.iter().map(|(p, _)| p.clone()).collect();
        for v in metamorphic::check_all(m.machine.seed, &m.training, &evaluated, &model, &app) {
            violations.push(format!("machine {}: {v}", m.machine.seed));
        }
    }
    assert!(violations.is_empty(), "metamorphic violations:\n  {}", violations.join("\n  "));
}
