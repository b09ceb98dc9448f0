//! Determinism gate for the drift-differential grid (ISSUE 9 satellite):
//! the zero-drift diagonal must reproduce the static path's regret
//! bit-for-bit with no re-selections. (The whole quick report's bytes are
//! pinned as `results/drift_grid.json` by `tests/reproduce.rs`.)

use acs_verify::{run_drift, DriftGridParams};

#[test]
fn zero_drift_diagonal_reproduces_static_regret_exactly() {
    let report = run_drift(&DriftGridParams::quick()).expect("training succeeds");
    let zero_cells: Vec<_> = report.cells.iter().filter(|c| c.scenario == "zero").collect();
    assert!(!zero_cells.is_empty(), "the grid lost its zero-drift diagonal");
    for cell in zero_cells {
        assert_eq!(
            cell.static_mean_regret.to_bits(),
            cell.adaptive_mean_regret.to_bits(),
            "zero-drift regret drifted for {}/{} @ {} W",
            cell.scenario,
            cell.kernel_id,
            cell.cap_w
        );
        assert!(cell.identical_selections, "adaptation moved a zero-drift selection: {cell:?}");
        assert_eq!(cell.reselections, 0, "{cell:?}");
        assert_eq!(
            cell.static_violations, cell.adaptive_violations,
            "violation counts split at zero drift: {cell:?}"
        );
    }
}
