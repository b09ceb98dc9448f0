//! Experiment A10 — fault-rate ablation for the self-healing runtime.
//!
//! The paper evaluates its scheduler on cooperating hardware. This
//! ablation injects the fault classes of `acs_sim::faults` at increasing
//! severity — sensor dropouts, frozen readings, silently rejected P-state
//! transitions, transient run failures — and sweeps the fraction of
//! iterations whose *true* power met the cap, for the guarded
//! (degradation-ladder) runtime against the unguarded scheduler. The
//! guarded curve should bend gracefully rather than fall off a cliff, and
//! the unguarded scheduler stops completing apps at all once run
//! failures appear.
//!
//! Run with: `cargo run --release -p acs-bench --bin ablation_faults`

use acs_core::{train, CappedRuntime, GuardPolicy, KernelProfile, TrainingParams};
use acs_sim::{FaultPlan, FaultyMachine};
use serde::Serialize;

/// One sweep point.
#[derive(Debug, Serialize)]
struct SweepRow {
    severity: f64,
    dropout_p: f64,
    pstate_fail_p: f64,
    run_fail_p: f64,
    freeze_p: f64,
    guarded_caps_met: f64,
    guarded_failed_runs: u64,
    guarded_time_s: f64,
    unguarded_caps_met: Option<f64>,
    unguarded_completed: bool,
    degradations: u64,
    retries: u64,
    injected_faults: u64,
}

fn plan(severity: f64, seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        // The ISSUE's acceptance envelope: dropouts up to 50%, transition
        // failures up to 30%; the rest scale alongside.
        sensor_dropout_p: 0.5 * severity,
        sensor_freeze_p: 0.1 * severity,
        pstate_fail_p: 0.3 * severity,
        run_fail_p: 0.15 * severity,
        counter_corrupt_p: 0.1 * severity,
        ..FaultPlan::default()
    }
}

fn main() {
    let machine = acs_bench::default_machine();
    let training: Vec<KernelProfile> = acs_kernels::training_kernels()
        .into_iter()
        .chain(acs_kernels::lu::kernels(acs_kernels::InputSize::Default))
        .map(|k| KernelProfile::collect(&machine, &k))
        .collect();
    let model = train(&training, TrainingParams::default()).expect("training succeeds");
    let app = acs_kernels::app_instances()
        .into_iter()
        .find(|a| a.label() == "LULESH Small")
        .expect("suite has LULESH Small");

    let cap_w = 25.0;
    let iters = 20;
    println!("Ablation A10 — fault severity vs. % of iterations meeting a {cap_w} W cap");
    println!("(app: {}, {iters} iterations/kernel, true-power compliance)", app.label());
    println!();
    println!(
        "{:>8} | {:>8} | {:>11} | {:>9} | {:>10} | {:>7} | {:>7}",
        "severity", "guarded", "unguarded", "failed", "degraded", "retries", "faults"
    );
    println!("---------+----------+-------------+-----------+------------+---------+--------");

    let mut rows = Vec::new();
    for step in 0..=10u32 {
        let severity = f64::from(step) / 10.0;
        let fault_seed = 0xA10 + u64::from(step);

        let guarded_exec = FaultyMachine::new(machine.clone(), plan(severity, fault_seed));
        let mut guarded =
            CappedRuntime::guarded(guarded_exec, model.clone(), cap_w, GuardPolicy::default());
        let report = guarded.run_app(&app, iters).expect("the guarded runtime never aborts");
        let degradations: u64 = app
            .kernels
            .iter()
            .filter_map(|k| guarded.health(&k.id()))
            .map(|h| u64::from(h.degradations))
            .sum();
        let retries: u64 = app
            .kernels
            .iter()
            .filter_map(|k| guarded.health(&k.id()))
            .map(|h| u64::from(h.retries))
            .sum();
        let injected = guarded.executor().stats().total();

        let unguarded_exec = FaultyMachine::new(machine.clone(), plan(severity, fault_seed));
        let mut unguarded = CappedRuntime::with_executor(unguarded_exec, model.clone(), cap_w);
        let unguarded_report = unguarded.run_app(&app, iters).ok();

        println!(
            "{:>7.0}% | {:>7.0}% | {:>11} | {:>9} | {:>10} | {:>7} | {:>7}",
            severity * 100.0,
            report.cap_compliance * 100.0,
            unguarded_report
                .as_ref()
                .map_or("aborted".to_string(), |r| format!("{:.0}%", r.cap_compliance * 100.0)),
            report.failed_runs,
            degradations,
            retries,
            injected,
        );

        rows.push(SweepRow {
            severity,
            dropout_p: plan(severity, 0).sensor_dropout_p,
            pstate_fail_p: plan(severity, 0).pstate_fail_p,
            run_fail_p: plan(severity, 0).run_fail_p,
            freeze_p: plan(severity, 0).sensor_freeze_p,
            guarded_caps_met: report.cap_compliance,
            guarded_failed_runs: report.failed_runs,
            guarded_time_s: report.total_time_s,
            unguarded_caps_met: unguarded_report.as_ref().map(|r| r.cap_compliance),
            unguarded_completed: unguarded_report.is_some(),
            degradations,
            retries,
            injected_faults: injected,
        });
    }

    // Graceful-degradation shape check: compliance at half severity must
    // hold most of the fault-free level (no cliff), and the guarded
    // runtime must complete the app at every severity.
    let base = rows[0].guarded_caps_met.max(1e-9);
    let mid = rows[5].guarded_caps_met;
    println!();
    println!(
        "Shape check: guarded compliance {:.0}% at zero faults → {:.0}% at 50% severity \
         ({} retained); every severity completed.",
        base * 100.0,
        mid * 100.0,
        if mid / base > 0.5 { "gracefully" } else { "NOT gracefully" }
    );

    let path = acs_bench::write_result("ablation_faults", &rows);
    println!("\nwrote {}", path.display());
}
