//! Cross-architecture transfer differential: train on family A, serve
//! family B.
//!
//! The paper trains its power/performance model on one Trinity APU and
//! never asks what happens when that model schedules a *different* chip.
//! This runner answers quantitatively: every `(train family, serve
//! family)` pair of a heterogeneous [`ScenarioGrid`] is scored with the
//! foreign model against the serve family's own oracle, and the excess
//! regret over the serve family's native model — the *transfer regret* —
//! becomes a gated, reportable number. Native pairs (A == B) have zero
//! transfer regret by construction, which doubles as an end-to-end
//! determinism check of the whole pipeline.

use crate::differential::{machine_cases, summarize_method, MethodRegret};
use crate::scenario::{MachineScenarios, ScenarioGrid};
use acs_core::offline::TrainError;
use acs_core::online::Predictor;
use acs_core::{train, Method, TrainingParams};
use acs_sim::FamilyId;
use serde::{Deserialize, Serialize};

/// The model-driven methods whose selections depend on training data.
/// The fixed-device baselines ignore the model, so their transfer regret
/// is zero by definition and scoring them would only pad the matrix.
pub const TRANSFER_METHODS: [Method; 2] = [Method::Model, Method::ModelFL];

/// One `(train family, serve family, method)` cell of the matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferCell {
    /// Family the model was trained on.
    pub train_family: FamilyId,
    /// Family the model served.
    pub serve_family: FamilyId,
    /// Which method made the selections.
    pub method: Method,
    /// The foreign-model differential statistics on the serve family.
    pub stats: MethodRegret,
    /// Excess mean regret over the serve family's native model, clamped
    /// at zero: `max(0, mean_regret(A→B) − mean_regret(B→B))`.
    pub transfer_regret: f64,
    /// Overshoot shift vs. the native model: mean violating `power/cap`
    /// ratio (1.0 when nothing violates) minus the native model's.
    /// Positive means the foreign model overshoots caps harder.
    pub overshoot_delta: f64,
}

impl TransferCell {
    /// Whether this cell is a native (train == serve) pair.
    pub fn is_native(&self) -> bool {
        self.train_family == self.serve_family
    }
}

/// The full transfer matrix over a heterogeneous grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferMatrix {
    /// Families in grid order (matrix axes).
    pub families: Vec<FamilyId>,
    /// `(kernel, cap)` scenarios scored per pair per method.
    pub scenarios_per_pair: usize,
    /// All cells, ordered `train × serve × method` (train outermost).
    pub cells: Vec<TransferCell>,
}

/// Pass/fail gates for the transfer matrix: native pairs must be exact,
/// cross pairs must stay inside a measured envelope. The cross-pair
/// ceilings are calibrated against the quick transfer grid (worst pairs
/// plus margin) so a regression in the family model or the training
/// pipeline trips them, while ordinary cross-architecture error does not.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferThresholds {
    /// Native pairs must show exactly zero transfer regret (tolerance
    /// for the clamped float subtraction only).
    pub native_transfer_tol: f64,
    /// Maximum transfer regret for any cross pair. Measured worst case on
    /// the quick transfer grid is ≈34% (BigCore→LowPower, a 4-wide module
    /// machine scheduling a 2-core one); the gate sits above it with
    /// margin but below 50%, where a transferred model would be giving up
    /// half the oracle's remaining performance.
    pub cross_max_transfer_regret: f64,
    /// Minimum under-limit rate for Model+FL on cross pairs. The quick
    /// grid's two caps per kernel quantize this rate coarsely (measured
    /// floor: exactly 50%), so the gate sits just below that step.
    pub cross_min_under: f64,
    /// Maximum feasible-cap violation rate for Model+FL on cross pairs.
    pub cross_max_violation_rate: f64,
    /// Maximum overshoot shift vs. native for Model+FL on cross pairs
    /// (a foreign model may violate caps, but not qualitatively harder
    /// than the native one).
    pub cross_max_overshoot_delta: f64,
}

impl Default for TransferThresholds {
    fn default() -> Self {
        Self {
            native_transfer_tol: 1e-12,
            cross_max_transfer_regret: 0.40,
            cross_min_under: 0.45,
            cross_max_violation_rate: 0.40,
            cross_max_overshoot_delta: 0.25,
        }
    }
}

/// Run the transfer differential over a heterogeneous grid (one machine
/// per family — see [`crate::scenario::GridParams::transfer`]). Trains
/// one model per family, then scores every ordered `(train, serve)` pair
/// on the serve family's scenarios against the serve family's oracle.
pub fn run_transfer(
    grid: &ScenarioGrid,
    params: TrainingParams,
) -> Result<TransferMatrix, TrainError> {
    // One trained model per grid machine, in grid order. Training is
    // deterministic, and the serve-side replay below is order-preserving,
    // so the whole matrix is byte-identical at any thread count.
    let mut models = Vec::with_capacity(grid.machines.len());
    for m in &grid.machines {
        models.push(train(&m.training, params)?);
    }
    let families: Vec<FamilyId> = grid.machines.iter().map(|m| m.machine.family).collect();

    // Native baselines first: pair (B, B) for every B, keyed by index.
    let native: Vec<Vec<MethodRegret>> = grid
        .machines
        .iter()
        .enumerate()
        .map(|(i, serve)| score_pair(serve, &Predictor::new(&models[i])))
        .collect();

    let mut cells = Vec::with_capacity(families.len().pow(2) * TRANSFER_METHODS.len());
    for (ti, train_m) in grid.machines.iter().enumerate() {
        for (si, serve) in grid.machines.iter().enumerate() {
            let stats = if ti == si {
                native[si].clone()
            } else {
                score_pair(serve, &Predictor::new(&models[ti]))
            };
            for (mi, &method) in TRANSFER_METHODS.iter().enumerate() {
                let cross = &stats[mi];
                let base = &native[si][mi];
                cells.push(TransferCell {
                    train_family: train_m.machine.family,
                    serve_family: serve.machine.family,
                    method,
                    transfer_regret: (cross.mean_regret - base.mean_regret).max(0.0),
                    overshoot_delta: cross.mean_overshoot.unwrap_or(1.0)
                        - base.mean_overshoot.unwrap_or(1.0),
                    stats: cross.clone(),
                });
            }
        }
    }

    let scenarios_per_pair = grid
        .machines
        .first()
        .map(|m| m.evaluated.iter().map(|(_, caps)| caps.len()).sum::<usize>())
        .unwrap_or(0);
    Ok(TransferMatrix { families, scenarios_per_pair, cells })
}

/// Score one serve machine's full scenario set with one predictor, in
/// [`TRANSFER_METHODS`] order: the differential runner's replay and
/// statistics, restricted to the model-driven methods.
fn score_pair(serve: &MachineScenarios, predictor: &Predictor) -> Vec<MethodRegret> {
    let cases = machine_cases(serve, &TRANSFER_METHODS, predictor);
    TRANSFER_METHODS.iter().map(|&m| summarize_method(&cases, m)).collect()
}

impl TransferMatrix {
    /// Look up one cell.
    pub fn cell(&self, train: FamilyId, serve: FamilyId, method: Method) -> Option<&TransferCell> {
        self.cells
            .iter()
            .find(|c| c.train_family == train && c.serve_family == serve && c.method == method)
    }

    /// Check every cell against the gates. Returns all failures (empty =
    /// pass).
    pub fn check(&self, t: &TransferThresholds) -> Vec<String> {
        let mut failures = Vec::new();
        for c in &self.cells {
            let label = format!("{}→{} {}", c.train_family, c.serve_family, c.method.name());
            if c.is_native() {
                if c.transfer_regret > t.native_transfer_tol {
                    failures.push(format!(
                        "{label}: native transfer regret {} must be 0",
                        c.transfer_regret
                    ));
                }
                continue;
            }
            if c.transfer_regret > t.cross_max_transfer_regret {
                failures.push(format!(
                    "{label}: transfer regret {:.1}% > allowed {:.1}%",
                    c.transfer_regret * 100.0,
                    t.cross_max_transfer_regret * 100.0
                ));
            }
            if c.method == Method::ModelFL {
                if c.stats.under_rate < t.cross_min_under {
                    failures.push(format!(
                        "{label}: under-limit rate {:.1}% < required {:.1}%",
                        c.stats.under_rate * 100.0,
                        t.cross_min_under * 100.0
                    ));
                }
                if c.stats.violation_rate > t.cross_max_violation_rate {
                    failures.push(format!(
                        "{label}: violation rate {:.1}% > allowed {:.1}%",
                        c.stats.violation_rate * 100.0,
                        t.cross_max_violation_rate * 100.0
                    ));
                }
                if c.overshoot_delta > t.cross_max_overshoot_delta {
                    failures.push(format!(
                        "{label}: overshoot delta {:+.2} > allowed {:+.2}",
                        c.overshoot_delta, t.cross_max_overshoot_delta
                    ));
                }
            }
        }
        failures
    }

    /// Render the per-pair transfer-regret matrices as aligned text, one
    /// block per method (train family down, serve family across).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out =
            format!("transfer regret matrix ({} scenarios per pair)\n", self.scenarios_per_pair);
        for &method in &TRANSFER_METHODS {
            let _ = writeln!(out, "\n[{}] train ↓ / serve →", method.name());
            let _ = write!(out, "{:<10}", "");
            for f in &self.families {
                let _ = write!(out, " {:>9}", f.as_str());
            }
            out.push('\n');
            for &train in &self.families {
                let _ = write!(out, "{:<10}", train.as_str());
                for &serve in &self.families {
                    match self.cell(train, serve, method) {
                        Some(c) => {
                            let _ = write!(out, " {:>8.1}%", c.transfer_regret * 100.0);
                        }
                        None => {
                            let _ = write!(out, " {:>9}", "—");
                        }
                    }
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::GridParams;
    use std::sync::OnceLock;

    /// The quick transfer matrix is expensive to build (4 family sweeps +
    /// 4 trainings + 16 pair replays); build it once for all tests.
    fn quick_matrix() -> &'static TransferMatrix {
        static MATRIX: OnceLock<TransferMatrix> = OnceLock::new();
        MATRIX.get_or_init(|| {
            let grid = ScenarioGrid::generate(GridParams::transfer_quick());
            run_transfer(&grid, TrainingParams::default()).expect("training succeeds")
        })
    }

    #[test]
    fn matrix_covers_every_ordered_pair_and_method() {
        let m = quick_matrix();
        let n = m.families.len();
        assert_eq!(n, acs_sim::FamilyId::ALL.len());
        assert_eq!(m.cells.len(), n * n * TRANSFER_METHODS.len());
        for &train in &m.families {
            for &serve in &m.families {
                for &method in &TRANSFER_METHODS {
                    assert!(m.cell(train, serve, method).is_some(), "{train}→{serve} missing");
                }
            }
        }
        assert!(m.scenarios_per_pair > 0);
        for c in &m.cells {
            assert_eq!(c.stats.scenarios, m.scenarios_per_pair);
        }
    }

    #[test]
    fn native_pairs_have_exactly_zero_transfer_regret() {
        let m = quick_matrix();
        for c in m.cells.iter().filter(|c| c.is_native()) {
            assert_eq!(
                c.transfer_regret, 0.0,
                "{}→{} {} native pair must be regret-free",
                c.train_family, c.serve_family, c.method
            );
            assert_eq!(c.overshoot_delta, 0.0);
        }
    }

    #[test]
    fn cross_pairs_pass_default_thresholds() {
        let failures = quick_matrix().check(&TransferThresholds::default());
        assert!(failures.is_empty(), "{failures:#?}");
    }

    #[test]
    fn transfer_regret_is_clamped_nonnegative() {
        for c in &quick_matrix().cells {
            assert!(c.transfer_regret >= 0.0, "{c:?}");
            assert!(c.transfer_regret <= 1.0, "{c:?}");
        }
    }

    #[test]
    fn render_shows_every_family_and_method() {
        let txt = quick_matrix().render();
        for f in acs_sim::FamilyId::ALL {
            assert!(txt.contains(f.as_str()), "{txt}");
        }
        for m in TRANSFER_METHODS {
            assert!(txt.contains(m.name()), "{txt}");
        }
    }
}
