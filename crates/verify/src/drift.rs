//! Drift differential: static-model regret vs adaptive-model regret under
//! seeded time-varying drift.
//!
//! The static model (the paper's offline stage) selects once and holds
//! that configuration forever; the adaptation layer
//! ([`acs_core::AdaptivePredictor`]) watches measured feedback and
//! re-selects when drift is confirmed. This runner quantifies the
//! difference: every `(drift process, kernel, cap)` cell replays the same
//! iteration sequence twice — once pinned to the static selection, once
//! through the adaptive loop — against a per-iteration oracle that sweeps
//! all 42 configurations on the *drifted* machine. The gate
//! ([`AdaptThresholds`]) demands that adaptation strictly wins under every
//! drifted process and changes **nothing** at zero drift: the zero cell's
//! regrets must match the static path bit for bit, with zero re-selections
//! and zero drift events.

use crate::scenario::evaluation_kernels;
use acs_core::offline::TrainError;
use acs_core::{
    collect_suite, sample_config, train, AdaptivePredictor, PredictedProfile, Predictor,
    SamplePair, TrainingParams,
};
use acs_sim::{
    Configuration, Device, DriftPlan, DriftedMachine, Executor, KernelCharacteristics, Machine,
};
use serde::{Deserialize, Serialize};

/// Grid shape: one machine, a slice of held-out kernels, two caps each,
/// a fixed iteration horizon per cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftGridParams {
    /// Machine seed (the serve default, 2014, keeps the grid aligned with
    /// the server's golden traces).
    pub machine_seed: u64,
    /// Seed for the drift processes' phase/magnitude jitter.
    pub drift_seed: u64,
    /// Stride over the held-out evaluation suite (1 = every kernel).
    pub kernel_stride: usize,
    /// Probe caps per kernel, spread across the feasible frontier band.
    pub caps_per_kernel: usize,
    /// Iterations per cell.
    pub iterations: u64,
}

impl DriftGridParams {
    /// CI-sized grid: 3 kernels × 2 caps × 40 iterations per process.
    pub fn quick() -> Self {
        Self {
            machine_seed: 2014,
            drift_seed: 7,
            kernel_stride: 8,
            caps_per_kernel: 2,
            iterations: 40,
        }
    }

    /// Full grid: 6 kernels × 2 caps × 64 iterations per process.
    pub fn full() -> Self {
        Self {
            machine_seed: 2014,
            drift_seed: 7,
            kernel_stride: 4,
            caps_per_kernel: 2,
            iterations: 64,
        }
    }
}

/// The drift processes scored by the grid, zero drift first. The zero row
/// is the regression gate (nothing may change); the rest are the wins.
pub fn drift_processes(params: &DriftGridParams) -> Vec<(String, DriftPlan)> {
    let seed = params.drift_seed;
    vec![
        ("zero".to_string(), DriftPlan::none(seed)),
        ("thermal-ramp".to_string(), DriftPlan::thermal_ramp(seed, params.iterations / 2)),
        ("step-throttle".to_string(), DriftPlan::step_throttle(seed)),
        ("aging".to_string(), DriftPlan::aging(seed)),
        ("co-tenant".to_string(), DriftPlan::co_tenant(seed)),
    ]
}

/// One `(process, kernel, cap)` cell: both methods' mean regret over the
/// shared iteration sequence, plus the adaptation counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftCell {
    /// Drift process name.
    pub scenario: String,
    /// Evaluated kernel.
    pub kernel_id: String,
    /// Power cap, W.
    pub cap_w: f64,
    /// Mean per-iteration regret of the pinned static selection.
    pub static_mean_regret: f64,
    /// Mean per-iteration regret of the adaptive loop.
    pub adaptive_mean_regret: f64,
    /// Iterations where the static selection broke its power bound.
    pub static_violations: u64,
    /// Iterations where the adaptive selection broke its power bound.
    pub adaptive_violations: u64,
    /// Times the adaptive path moved the selection off the static answer.
    pub reselections: u64,
    /// Drift events the adaptive predictor emitted.
    pub drift_events: u64,
    /// True iff every adaptive selection equalled the static selection.
    pub identical_selections: bool,
    /// True iff both mean regrets are bit-for-bit equal (implied by
    /// `identical_selections`; this is the zero-drift exactness witness).
    pub regret_bits_match: bool,
}

/// Per-process aggregate over all its cells (equal cell weight).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioRegret {
    /// Drift process name.
    pub scenario: String,
    /// Mean of the cells' static mean regrets.
    pub static_mean_regret: f64,
    /// Mean of the cells' adaptive mean regrets.
    pub adaptive_mean_regret: f64,
    /// Total re-selections across the process's cells.
    pub reselections: u64,
    /// Total drift events across the process's cells.
    pub drift_events: u64,
}

/// The full drift differential report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftReport {
    /// Grid shape the report was produced under.
    pub params: DriftGridParams,
    /// Process names in grid order (zero drift first).
    pub scenarios: Vec<String>,
    /// All cells, ordered process × kernel × cap (process outermost).
    pub cells: Vec<DriftCell>,
}

/// Pass/fail gates for the drift grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptThresholds {
    /// A drifted process passes only if its aggregate adaptive mean regret
    /// undercuts the static one by strictly more than this margin.
    pub min_improvement: f64,
    /// Ceiling on the aggregate adaptive mean regret under any drifted
    /// process — adaptation must not merely beat a terrible baseline.
    pub max_adaptive_regret: f64,
}

impl Default for AdaptThresholds {
    fn default() -> Self {
        Self { min_improvement: 0.0, max_adaptive_regret: 0.60 }
    }
}

/// The per-iteration oracle on the drifted machine: best performance with
/// true power under the cap, falling back to the minimum-power
/// configuration (infeasible cap) exactly like the differential runner.
fn oracle_at<E: Executor>(
    exec: &E,
    kernel: &KernelCharacteristics,
    cap_w: f64,
    iteration: u64,
) -> (f64, f64, bool) {
    let mut best: Option<(f64, f64)> = None;
    let mut min_power: Option<(f64, f64)> = None;
    for config in Configuration::all() {
        let run = exec
            .execute(kernel, config, iteration)
            .expect("drifted execution cannot fault without a fault plan");
        let power = run.true_power_w();
        let perf = run.performance();
        if power <= cap_w * (1.0 + 1e-9) && best.is_none_or(|(bp, _)| perf > bp) {
            best = Some((perf, power));
        }
        if min_power.is_none_or(|(_, mp)| power < mp) {
            min_power = Some((perf, power));
        }
    }
    match best {
        Some((perf, power)) => (perf, power, true),
        None => {
            let (perf, power) = min_power.expect("non-empty configuration space");
            (perf, power, false)
        }
    }
}

/// Regret of one executed iteration against the oracle, mirroring
/// `ScenarioCase`: a selection over its bound (the cap when feasible, the
/// oracle's fallback power when not) forfeits the iteration (regret 1);
/// otherwise regret is the clamped performance shortfall.
fn iteration_regret(
    true_power_w: f64,
    perf: f64,
    oracle_perf: f64,
    oracle_power_w: f64,
    cap_w: f64,
    feasible: bool,
) -> (f64, bool) {
    let bound = if feasible { cap_w } else { oracle_power_w };
    if true_power_w <= bound * (1.0 + 1e-9) {
        ((1.0 - perf / oracle_perf).max(0.0), false)
    } else {
        (1.0, true)
    }
}

/// The probe caps for one predicted profile: `caps_per_kernel` levels
/// spread over the feasible mid-band of the *predicted* frontier (what the
/// server believes). Unlike the differential grid there is no infeasible
/// cap — at an infeasible cap both methods sit at the min-power fallback
/// and the strict-win gate would be vacuous.
fn probe_caps(profile: &PredictedProfile, caps_per_kernel: usize) -> Vec<f64> {
    let lo = profile.frontier.min_power().expect("non-empty frontier").power_w * 1.25;
    let hi = profile.frontier.max_perf().expect("non-empty frontier").power_w * 0.85;
    let n = caps_per_kernel.max(1);
    (0..n).map(|i| if n == 1 { hi } else { lo + (hi - lo) * i as f64 / (n - 1) as f64 }).collect()
}

/// Score one cell: replay `iterations` steps of `kernel` under `plan`,
/// static selection pinned, adaptive loop observing measured feedback.
fn score_cell(
    machine_seed: u64,
    plan: DriftPlan,
    scenario: &str,
    kernel: &KernelCharacteristics,
    profile: &PredictedProfile,
    cap_w: f64,
    iterations: u64,
) -> DriftCell {
    let drifted = DriftedMachine::new(Machine::new(machine_seed), plan);
    let static_config = profile.select(cap_w);
    let kernel_id = kernel.id();
    let mut adapt = AdaptivePredictor::default();
    let mut static_sum = 0.0;
    let mut adaptive_sum = 0.0;
    let mut static_violations = 0u64;
    let mut adaptive_violations = 0u64;
    let mut identical = true;
    for t in 0..iterations {
        let selection = adapt.select(&kernel_id, profile, cap_w);
        if selection.config != static_config {
            identical = false;
        }
        let adaptive_run = drifted
            .execute(kernel, &selection.config, t)
            .expect("drifted execution cannot fault without a fault plan");
        // The executor is pure, so when the adaptive path made the static
        // choice the static run *is* the adaptive run — reusing it keeps
        // the zero-drift bit-identity structural rather than numerical.
        let static_run = if selection.config == static_config {
            adaptive_run.clone()
        } else {
            drifted
                .execute(kernel, &static_config, t)
                .expect("drifted execution cannot fault without a fault plan")
        };
        let (oracle_perf, oracle_power, feasible) = oracle_at(&drifted, kernel, cap_w, t);
        let (sr, sv) = iteration_regret(
            static_run.true_power_w(),
            static_run.performance(),
            oracle_perf,
            oracle_power,
            cap_w,
            feasible,
        );
        let (ar, av) = iteration_regret(
            adaptive_run.true_power_w(),
            adaptive_run.performance(),
            oracle_perf,
            oracle_power,
            cap_w,
            feasible,
        );
        static_sum += sr;
        adaptive_sum += ar;
        static_violations += sv as u64;
        adaptive_violations += av as u64;
        // Feed the sensor-visible measurements back, exactly as the server
        // does after a Run.
        let point = profile.point_for(&selection.config);
        adapt
            .observe(
                &kernel_id,
                adaptive_run.power_w(),
                adaptive_run.performance(),
                point.power_w,
                point.perf,
            )
            .expect("simulated measurements are finite");
    }
    let static_mean = static_sum / iterations as f64;
    let adaptive_mean = adaptive_sum / iterations as f64;
    DriftCell {
        scenario: scenario.to_string(),
        kernel_id,
        cap_w,
        static_mean_regret: static_mean,
        adaptive_mean_regret: adaptive_mean,
        static_violations,
        adaptive_violations,
        reselections: adapt.reselections(),
        drift_events: adapt.drift_events(),
        identical_selections: identical,
        regret_bits_match: static_mean.to_bits() == adaptive_mean.to_bits(),
    }
}

/// Run the drift differential. Trains the standard model (CoMD + SMC) on
/// the clean machine, predicts each held-out kernel's profile once, then
/// scores every `(process, kernel, cap)` cell, in that nesting order.
pub fn run_drift(params: &DriftGridParams) -> Result<DriftReport, TrainError> {
    let machine = Machine::new(params.machine_seed);
    let training = collect_suite(&machine, &acs_kernels::training_kernels());
    let model = train(&training, TrainingParams::default())?;
    let predictor = Predictor::new(&model);
    let kernels: Vec<KernelCharacteristics> =
        evaluation_kernels().into_iter().step_by(params.kernel_stride.max(1)).collect();
    let profiles: Vec<PredictedProfile> = kernels
        .iter()
        .map(|k| {
            let cpu = machine.run_iter(k, &sample_config(Device::Cpu), 0);
            let gpu = machine.run_iter(k, &sample_config(Device::Gpu), 1);
            predictor.predict(&SamplePair::new(cpu, gpu))
        })
        .collect();
    let processes = drift_processes(params);
    let mut cells = Vec::new();
    for (name, plan) in &processes {
        for (kernel, profile) in kernels.iter().zip(&profiles) {
            for cap_w in probe_caps(profile, params.caps_per_kernel) {
                cells.push(score_cell(
                    params.machine_seed,
                    *plan,
                    name,
                    kernel,
                    profile,
                    cap_w,
                    params.iterations,
                ));
            }
        }
    }
    Ok(DriftReport {
        params: *params,
        scenarios: processes.into_iter().map(|(name, _)| name).collect(),
        cells,
    })
}

impl DriftReport {
    /// Per-process aggregates, in grid order.
    pub fn scenario_regrets(&self) -> Vec<ScenarioRegret> {
        self.scenarios
            .iter()
            .map(|name| {
                let cells: Vec<&DriftCell> =
                    self.cells.iter().filter(|c| &c.scenario == name).collect();
                let n = cells.len().max(1) as f64;
                ScenarioRegret {
                    scenario: name.clone(),
                    static_mean_regret: cells.iter().map(|c| c.static_mean_regret).sum::<f64>() / n,
                    adaptive_mean_regret: cells.iter().map(|c| c.adaptive_mean_regret).sum::<f64>()
                        / n,
                    reselections: cells.iter().map(|c| c.reselections).sum(),
                    drift_events: cells.iter().map(|c| c.drift_events).sum(),
                }
            })
            .collect()
    }

    /// Check the gates. Returns all failures (empty = pass).
    pub fn check(&self, t: &AdaptThresholds) -> Vec<String> {
        let mut failures = Vec::new();
        for cell in self.cells.iter().filter(|c| c.scenario == "zero") {
            let label = format!("zero {} @{:.1}W", cell.kernel_id, cell.cap_w);
            if !cell.identical_selections {
                failures.push(format!("{label}: adaptive diverged from static at zero drift"));
            }
            if !cell.regret_bits_match {
                failures.push(format!("{label}: zero-drift regrets are not bit-identical"));
            }
            if cell.reselections != 0 || cell.drift_events != 0 {
                failures.push(format!(
                    "{label}: {} re-selections / {} drift events at zero drift",
                    cell.reselections, cell.drift_events
                ));
            }
        }
        for s in self.scenario_regrets() {
            if s.scenario == "zero" {
                continue;
            }
            if s.adaptive_mean_regret + t.min_improvement >= s.static_mean_regret {
                failures.push(format!(
                    "{}: adaptive mean regret {:.2}% must be strictly below static {:.2}%",
                    s.scenario,
                    s.adaptive_mean_regret * 100.0,
                    s.static_mean_regret * 100.0
                ));
            }
            if s.adaptive_mean_regret > t.max_adaptive_regret {
                failures.push(format!(
                    "{}: adaptive mean regret {:.2}% > allowed {:.2}%",
                    s.scenario,
                    s.adaptive_mean_regret * 100.0,
                    t.max_adaptive_regret * 100.0
                ));
            }
        }
        failures
    }

    /// Render the per-process comparison as aligned text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "drift differential ({} cells, {} iterations each)\n",
            self.cells.len(),
            self.params.iterations
        );
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>10} {:>8} {:>7}",
            "process", "static", "adaptive", "resel", "events"
        );
        for s in self.scenario_regrets() {
            let _ = writeln!(
                out,
                "{:<14} {:>9.2}% {:>9.2}% {:>8} {:>7}",
                s.scenario,
                s.static_mean_regret * 100.0,
                s.adaptive_mean_regret * 100.0,
                s.reselections,
                s.drift_events
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The quick grid trains a model and sweeps ~25k executions; build it
    /// once for all tests.
    fn quick_report() -> &'static DriftReport {
        static REPORT: OnceLock<DriftReport> = OnceLock::new();
        REPORT.get_or_init(|| run_drift(&DriftGridParams::quick()).expect("training succeeds"))
    }

    #[test]
    fn grid_covers_every_process_kernel_and_cap() {
        let r = quick_report();
        assert_eq!(r.scenarios.len(), 5);
        assert_eq!(r.scenarios[0], "zero");
        let kernels = evaluation_kernels().into_iter().step_by(8).count();
        assert_eq!(r.cells.len(), r.scenarios.len() * kernels * 2);
    }

    #[test]
    fn zero_drift_cells_are_bit_identical_to_static() {
        for c in quick_report().cells.iter().filter(|c| c.scenario == "zero") {
            assert!(c.identical_selections, "{c:?}");
            assert!(c.regret_bits_match, "{c:?}");
            assert_eq!(c.reselections, 0, "{c:?}");
            assert_eq!(c.drift_events, 0, "{c:?}");
        }
    }

    #[test]
    fn every_drifted_process_strictly_improves() {
        let failures = quick_report().check(&AdaptThresholds::default());
        assert!(failures.is_empty(), "{failures:#?}");
    }

    #[test]
    fn drifted_processes_actually_reselect() {
        let total: u64 = quick_report()
            .cells
            .iter()
            .filter(|c| c.scenario != "zero")
            .map(|c| c.reselections)
            .sum();
        assert!(total > 0, "adaptation never moved a selection — the grid is vacuous");
    }

    #[test]
    fn render_names_every_process() {
        let txt = quick_report().render();
        for s in &quick_report().scenarios {
            assert!(txt.contains(s.as_str()), "{txt}");
        }
    }
}
