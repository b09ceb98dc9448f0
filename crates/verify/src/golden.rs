//! The regression traces: byte streams that `acs reproduce` pins under
//! `results/` like every other deterministic artifact.
//!
//! Six are produced here, chosen to cover the layers a regression could
//! hide in: the *unguarded* scheduler timeline (pure selection logic), the
//! *guarded chaos* timeline (fault handling and the degradation ladder),
//! the *regret summary* (end-to-end selection quality vs. the oracle), and
//! one unguarded timeline per non-Trinity *machine family* (the parametric
//! family descriptors — a drifting BigCore power curve shows up here even
//! if Trinity is untouched). Trinity needs no family trace: trace 1 *is*
//! its timeline.

use crate::scenario::GridParams;
use acs_core::offline::TrainedModel;
use acs_core::{collect_suite, train, CappedRuntime, GuardPolicy, TrainingParams};
use acs_kernels::AppInstance;
use acs_sim::{FamilyId, FaultPlan, FaultyMachine, Machine};

/// Machine seed every trace is produced on (the paper's year, as
/// everywhere else in the repo).
pub const GOLDEN_SEED: u64 = 2014;

/// Power cap for the runtime traces, W.
pub const GOLDEN_CAP_W: f64 = 25.0;

/// Iterations per kernel in the runtime traces — enough to cover both
/// sample iterations, the fixed-selection steady state, and (under chaos)
/// retries and tier moves.
pub const GOLDEN_ITERATIONS: u64 = 6;

/// The train-on suite for the traces (matches the differential grid's
/// training discipline: CoMD + SMC, never the scheduled app).
fn golden_model(machine: &Machine) -> TrainedModel {
    let profiles = collect_suite(machine, &acs_kernels::training_kernels());
    train(&profiles, TrainingParams::default()).expect("golden training suite is sufficient")
}

fn golden_app() -> AppInstance {
    acs_kernels::app_instances()
        .into_iter()
        .find(|a| a.label() == "LULESH Small")
        .expect("LULESH Small is part of the fixed app list")
}

/// The chaos plan pinned into the guarded trace. Aggressive enough to
/// exercise retries, sensor anomalies, and the degradation ladder, yet
/// fully deterministic via its seed.
pub fn golden_fault_plan() -> FaultPlan {
    FaultPlan {
        sensor_dropout_p: 0.10,
        sensor_freeze_p: 0.05,
        pstate_fail_p: 0.05,
        run_fail_p: 0.02,
        ..FaultPlan::none(GOLDEN_SEED ^ 0x5eed)
    }
}

/// Produce the unguarded scheduler timeline (canonical trace 1).
pub fn unguarded_timeline() -> String {
    let machine = Machine::new(GOLDEN_SEED);
    let model = golden_model(&machine);
    let mut rt = CappedRuntime::new(machine, model, GOLDEN_CAP_W);
    rt.run_app(&golden_app(), GOLDEN_ITERATIONS).expect("fault-free run completes");
    rt.timeline().to_json()
}

/// Produce the guarded chaos timeline (canonical trace 2).
pub fn guarded_chaos_timeline() -> String {
    let machine = Machine::new(GOLDEN_SEED);
    let model = golden_model(&machine);
    let executor = FaultyMachine::new(machine, golden_fault_plan());
    let mut rt = CappedRuntime::guarded(executor, model, GOLDEN_CAP_W, GuardPolicy::default());
    rt.run_app(&golden_app(), GOLDEN_ITERATIONS).expect("guarded run absorbs faults");
    rt.timeline().to_json()
}

/// Produce the quick-grid regret summary (canonical trace 3).
pub fn regret_summary() -> String {
    let grid = crate::scenario::ScenarioGrid::generate(GridParams::quick());
    let report = crate::differential::run_differential(&grid, TrainingParams::default())
        .expect("quick grid trains");
    serde_json::to_string_pretty(&report.summary()).expect("summary serializes")
}

/// Produce one machine family's unguarded scheduler timeline: the model
/// trains and schedules on a `GOLDEN_SEED` member of `family`, end to
/// end, so a drift anywhere in that family's descriptor (P-state table,
/// power calibration, GPU width, accelerator derating) moves bytes here.
pub fn family_timeline(family: FamilyId) -> String {
    let machine = Machine::from_family(family, GOLDEN_SEED);
    let model = golden_model(&machine);
    let mut rt = CappedRuntime::new(machine, model, GOLDEN_CAP_W);
    rt.run_app(&golden_app(), GOLDEN_ITERATIONS).expect("fault-free run completes");
    rt.timeline().to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_trace_differs_from_unguarded_trace() {
        assert_ne!(unguarded_timeline(), guarded_chaos_timeline());
    }

    #[test]
    fn family_traces_are_pairwise_distinct_and_trinity_equals_trace_one() {
        // Each family timeline must carry its own signal (identical bytes
        // would mean the descriptor is not actually reaching the runtime),
        // while Trinity-via-family reproduces the canonical trace exactly.
        let traces = [
            unguarded_timeline(),
            family_timeline(FamilyId::BigCore),
            family_timeline(FamilyId::LowPower),
            family_timeline(FamilyId::AccelHybrid),
        ];
        for i in 0..traces.len() {
            for j in i + 1..traces.len() {
                assert_ne!(traces[i], traces[j], "traces {i} and {j} are identical");
            }
        }
        assert_eq!(family_timeline(FamilyId::Trinity), traces[0]);
    }
}
