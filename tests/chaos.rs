//! Chaos suite: the guarded runtime under seeded fault injection.
//!
//! Three properties, per the fault-injection harness design:
//!
//! 1. **Never panics** — a guarded [`CappedRuntime`] over a
//!    [`FaultyMachine`] completes `run_app` for *any* seeded
//!    [`FaultPlan`] inside the acceptance envelope (sensor dropout up to
//!    50%, P-state transition failure up to 30%, plus freezes, biases,
//!    counter corruption, and transient run failures).
//! 2. **Bounded over-cap exposure** — with honest (bias-free) sensors,
//!    the degradation ladder never lets a kernel draw well over the cap
//!    for more than a bounded number of consecutive iterations: each
//!    violation or stale-sensor streak forces a rung down within
//!    `K × stale_window` iterations, and the ladder has 13 rungs ending
//!    at a safe-minimum configuration, so ~156 iterations is the
//!    worst-case walk. We assert 200 with margin.
//! 3. **Cap storms are pure re-selection** — rapid `set_cap` oscillation
//!    mid-run re-selects every kernel's configuration from its cached
//!    predicted frontier: no re-profiling (sample count stays at two per
//!    kernel), the timeline's virtual clock stays monotone, and
//!    returning to a previously-used cap reproduces the same choice.

use acs::core::{CappedRuntime, GuardPolicy};
use acs::prelude::*;
use acs::sim::{FaultPlan, FaultyMachine};
use proptest::prelude::*;
use std::sync::OnceLock;

fn machine() -> Machine {
    Machine::new(2014)
}

/// One shared model: train on CoMD + SMC + LU, hold LULESH out so the
/// runtime exercises the full classify-then-select path on unseen
/// kernels.
fn model() -> &'static TrainedModel {
    static MODEL: OnceLock<TrainedModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let m = machine();
        let training: Vec<KernelProfile> = acs::kernels::app_instances()
            .iter()
            .filter(|a| a.benchmark != "LULESH")
            .flat_map(|a| a.kernels.iter())
            .map(|k| KernelProfile::collect(&m, k))
            .collect();
        train(&training, TrainingParams::default()).unwrap()
    })
}

fn app(label: &str) -> AppInstance {
    acs::kernels::app_instances().into_iter().find(|a| a.label() == label).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1: any fault plan in the acceptance envelope, including
    /// lying sensors and corrupted counters, and the guarded runtime
    /// still completes the app — transient failures are absorbed into
    /// `failed_runs`, never surfaced as panics or errors.
    #[test]
    fn guarded_runtime_survives_any_fault_plan(
        fault_seed in 0u64..1_000_000,
        dropout in 0.0..0.5f64,
        freeze in 0.0..0.3f64,
        bias in 0.0..0.3f64,
        bias_frac in -0.5..0.5f64,
        corrupt in 0.0..0.3f64,
        pstate_fail in 0.0..0.3f64,
        run_fail in 0.0..0.25f64,
        cap_w in 10.0..40.0f64,
    ) {
        let plan = FaultPlan {
            seed: fault_seed,
            sensor_dropout_p: dropout,
            sensor_freeze_p: freeze,
            sensor_bias_p: bias,
            sensor_bias_frac: bias_frac,
            counter_corrupt_p: corrupt,
            pstate_fail_p: pstate_fail,
            run_fail_p: run_fail,
            ..FaultPlan::default()
        };
        let exec = FaultyMachine::new(machine(), plan);
        let mut rt =
            CappedRuntime::guarded(exec, model().clone(), cap_w, GuardPolicy::default());
        let app = app("CoMD");
        let report = rt.run_app(&app, 6).unwrap();
        let expected = app.kernels.len() as u64 * 6;
        prop_assert!(report.failed_runs <= expected);
        prop_assert!(report.total_time_s.is_finite() && report.total_time_s >= 0.0);
        prop_assert!((0.0..=1.0).contains(&report.cap_compliance));
        // Health is tracked for every kernel the app touched.
        for k in &app.kernels {
            prop_assert!(rt.health(&k.id()).is_some());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 2: with honest sensors (no bias), consecutive iterations
    /// whose *true* power is well over the cap are bounded — the ladder
    /// forces the kernel down to the safe minimum long before 200.
    #[test]
    fn over_cap_streaks_are_bounded(
        fault_seed in 0u64..1_000_000,
        dropout in 0.0..0.5f64,
        freeze in 0.0..0.3f64,
        pstate_fail in 0.0..0.3f64,
        run_fail in 0.0..0.2f64,
        cap_w in 12.0..20.0f64,
    ) {
        let plan = FaultPlan {
            seed: fault_seed,
            sensor_dropout_p: dropout,
            sensor_freeze_p: freeze,
            pstate_fail_p: pstate_fail,
            run_fail_p: run_fail,
            ..FaultPlan::default()
        };
        let exec = FaultyMachine::new(machine(), plan);
        let mut rt =
            CappedRuntime::guarded(exec, model().clone(), cap_w, GuardPolicy::default());
        // A compute-dense kernel that wants far more than a tight cap.
        let kernel = app("LULESH Small")
            .kernels
            .iter()
            .find(|k| k.name == "CalcKinematics")
            .cloned()
            .unwrap_or_else(|| app("LULESH Small").kernels[0].clone());

        let mut streak = 0u32;
        let mut worst = 0u32;
        for _ in 0..400 {
            match rt.run_kernel(&kernel) {
                Ok(run) => {
                    if run.true_power_w() > cap_w * 1.15 {
                        streak += 1;
                        worst = worst.max(streak);
                    } else {
                        streak = 0;
                    }
                }
                // A failed iteration draws no power; it neither extends
                // nor clears an over-cap streak.
                Err(acs::core::RuntimeError::ExecutionFailed { .. }) => {}
                Err(other) => return Err(TestCaseError::Fail(other.to_string())),
            }
        }
        prop_assert!(
            worst <= 200,
            "over-cap streak {} exceeds the ladder bound (cap {:.1} W)",
            worst,
            cap_w
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 3 (satellite): rapid cap oscillation mid-run always
    /// re-selects from the cached frontier — the planned configuration
    /// is honored by the next run, samples are never re-taken, the
    /// virtual clock is monotone, and the selection is a pure function
    /// of the cap.
    #[test]
    fn cap_storm_reselects_from_cached_frontier(
        machine_seed in 0u64..1_000_000,
        caps in prop::collection::vec(10.0..40.0f64, 10..25),
    ) {
        let mut rt = CappedRuntime::new(Machine::new(machine_seed), model().clone(), 25.0);
        let app = app("CoMD");

        // Warm up: both sample iterations plus one configured iteration
        // per kernel, so every kernel has a cached frontier.
        for _ in 0..3 {
            for k in &app.kernels {
                rt.run_kernel(k).unwrap();
            }
        }
        let baseline: Vec<Configuration> =
            app.kernels.iter().map(|k| rt.planned_config(&k.id()).unwrap()).collect();

        for &cap in &caps {
            rt.set_cap(cap);
            for k in &app.kernels {
                let planned = rt.planned_config(&k.id()).unwrap();
                let run = rt.run_kernel(k).unwrap();
                prop_assert_eq!(run.config, planned, "run must honor the re-selected config");
            }
        }

        // Returning to the original cap reproduces the original choices:
        // selection is cache + cap, nothing else.
        rt.set_cap(25.0);
        for (k, before) in app.kernels.iter().zip(&baseline) {
            prop_assert_eq!(rt.planned_config(&k.id()).unwrap(), *before);
        }

        let entries = rt.timeline().entries();
        for pair in entries.windows(2) {
            prop_assert!(
                pair[1].at_s >= pair[0].at_s,
                "virtual clock went backwards: {} then {}",
                pair[0].at_s,
                pair[1].at_s
            );
        }
        let cap_events = entries
            .iter()
            .filter(|e| matches!(e.event, acs::core::timeline::Event::CapChanged { .. }))
            .count();
        prop_assert_eq!(cap_events, caps.len() + 1, "one CapChanged per set_cap");
        let sample_runs = entries
            .iter()
            .filter(|e| {
                matches!(e.event, acs::core::timeline::Event::KernelRun { iteration, .. } if iteration < 2)
            })
            .count();
        prop_assert_eq!(
            sample_runs,
            app.kernels.len() * 2,
            "cap changes must never trigger re-profiling"
        );
    }
}
