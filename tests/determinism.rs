//! Seed-determinism gates: the same seed must yield *byte-identical*
//! `Timeline` serializations — across OS threads and under the guarded
//! chaos path from the fault-injection harness (PR 1) — and a different
//! seed a different one.
//!
//! Bit-identical replay is what makes the pinned timelines in `results/`
//! (`tests/reproduce.rs`) possible at all, so it gets its own test file:
//! a failure here explains a failure there.

use acs::prelude::*;
use acs::verify::golden::{
    golden_fault_plan, guarded_chaos_timeline, unguarded_timeline, GOLDEN_CAP_W, GOLDEN_ITERATIONS,
    GOLDEN_SEED,
};
use acs_core::{CappedRuntime, GuardPolicy};
use acs_sim::{FaultPlan, FaultyMachine};

fn trained_model(machine: &Machine) -> TrainedModel {
    let profiles: Vec<KernelProfile> = acs::kernels::training_kernels()
        .iter()
        .map(|k| KernelProfile::collect(machine, k))
        .collect();
    train(&profiles, TrainingParams::default()).expect("training succeeds")
}

fn lulesh() -> AppInstance {
    acs::kernels::app_instances().into_iter().find(|a| a.label() == "LULESH Small").unwrap()
}

/// Serialize one full scheduled run on a fresh runtime built from `seed`.
fn unguarded_trace(seed: u64) -> String {
    let machine = Machine::new(seed);
    let model = trained_model(&machine);
    let mut rt = CappedRuntime::new(machine, model, GOLDEN_CAP_W);
    rt.run_app(&lulesh(), GOLDEN_ITERATIONS).expect("run completes");
    rt.timeline().to_json()
}

/// The same, through the guarded chaos path (retries, sensor anomalies,
/// degradation-ladder moves all present in the trace).
fn chaos_trace(seed: u64, plan: &FaultPlan) -> String {
    let machine = Machine::new(seed);
    let model = trained_model(&machine);
    let executor = FaultyMachine::new(machine, plan.clone());
    let mut rt = CappedRuntime::guarded(executor, model, GOLDEN_CAP_W, GuardPolicy::default());
    rt.run_app(&lulesh(), GOLDEN_ITERATIONS).expect("guarded run absorbs faults");
    rt.timeline().to_json()
}

#[test]
fn different_seeds_give_different_timelines() {
    // The complement: determinism must come from the seed, not from the
    // timeline ignoring the machine entirely.
    assert_ne!(unguarded_trace(GOLDEN_SEED), unguarded_trace(GOLDEN_SEED + 1));
}

#[test]
fn same_seed_is_thread_invariant() {
    // Full replays on independently spawned OS threads must agree with
    // the main thread byte-for-byte: a replay reads no thread-local or
    // process-wide state.
    let reference = unguarded_trace(GOLDEN_SEED);
    let handles: Vec<_> =
        (0..4).map(|_| std::thread::spawn(|| unguarded_trace(GOLDEN_SEED))).collect();
    for h in handles {
        assert_eq!(h.join().expect("replay thread"), reference);
    }
}

#[test]
fn guarded_chaos_path_is_deterministic_too() {
    let plan = golden_fault_plan();
    let a = chaos_trace(GOLDEN_SEED, &plan);
    let b = chaos_trace(GOLDEN_SEED, &plan);
    assert_eq!(a, b, "chaos injection must be driven by the plan seed alone");

    // The chaos trace must actually exercise the guarded machinery —
    // otherwise this test silently degenerates into the unguarded one.
    assert!(
        a.contains("RetryBackoff") || a.contains("SensorAnomaly") || a.contains("CapViolation"),
        "chaos plan injected nothing observable"
    );

    // A different fault seed must change the trace.
    let other = FaultPlan { seed: plan.seed + 1, ..plan.clone() };
    assert_ne!(chaos_trace(GOLDEN_SEED, &other), a);
}

#[test]
fn golden_producers_agree_with_local_replay() {
    // The trace producers in acs-verify must describe the same byte
    // stream as a replay assembled from public APIs here — pinning the
    // producers against accidental drift in their own setup.
    assert_eq!(unguarded_timeline(), unguarded_trace(GOLDEN_SEED));
    assert_eq!(guarded_chaos_timeline(), chaos_trace(GOLDEN_SEED, &golden_fault_plan()));
}
