//! Fault injection: a chaos layer between a scheduler and the machine.
//!
//! Real deployments of the paper's runtime face hardware that misbehaves:
//! the on-chip power estimator drops readings or latches a stale value,
//! PMU counters glitch, DVFS transition requests are silently rejected by
//! firmware, and kernel launches occasionally fail outright. This module
//! wraps a [`Machine`] in a [`FaultyMachine`] that injects exactly those
//! fault classes, each drawn deterministically from a seeded [`FaultPlan`]
//! so a chaos experiment reproduces bit-for-bit.
//!
//! Schedulers stay agnostic via the [`Executor`] trait: a plain `Machine`
//! is an infallible executor; a `FaultyMachine` may clamp the requested
//! configuration, corrupt observations, or fail a run.

use crate::config::Configuration;
use crate::kernel::KernelCharacteristics;
use crate::machine::{KernelRun, Machine};
use crate::noise::{splitmix64, MIX_MUL};
use crate::power::PowerBreakdown;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// The classes of injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum FaultKind {
    /// The power sensor returned no reading (both planes read 0 W).
    SensorDropout,
    /// The power sensor latched and repeats a stale reading.
    SensorFreeze,
    /// The power sensor reads with a systematic multiplicative bias.
    SensorBias,
    /// PMU counter readings were scrambled.
    CounterCorruption,
    /// A requested P-state transition was silently rejected: the kernel
    /// ran at the previously applied configuration.
    PStateTransition,
    /// The kernel execution itself failed transiently.
    KernelRunFailure,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultKind::SensorDropout => "sensor dropout",
            FaultKind::SensorFreeze => "sensor freeze",
            FaultKind::SensorBias => "sensor bias",
            FaultKind::CounterCorruption => "counter corruption",
            FaultKind::PStateTransition => "p-state transition failure",
            FaultKind::KernelRunFailure => "kernel run failure",
        };
        f.write_str(s)
    }
}

/// A transient execution failure reported by an [`Executor`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionFault {
    /// Which fault class fired.
    kind: FaultKind,
    /// The executor-global invocation index at which it fired.
    invocation: u64,
}

impl std::fmt::Display for ExecutionFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at invocation {}", self.kind, self.invocation)
    }
}

impl std::error::Error for ExecutionFault {}

/// A deterministic fault schedule.
///
/// Every probability is evaluated per executor invocation from a hash of
/// `(seed, fault class, invocation index)`; two machines running the same
/// plan observe identical fault sequences. All-zero probabilities (the
/// [`Default`]) make a [`FaultyMachine`] behave exactly like its inner
/// [`Machine`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for all fault draws (independent of the machine's noise seed).
    pub seed: u64,
    /// Per-invocation probability the sensor drops its reading to 0 W.
    pub sensor_dropout_p: f64,
    /// Per-invocation probability the sensor freezes.
    pub sensor_freeze_p: f64,
    /// How many subsequent invocations a frozen sensor repeats its reading.
    pub sensor_freeze_window: u64,
    /// Per-invocation probability a bias window starts.
    pub sensor_bias_p: f64,
    /// Relative bias applied while a bias window is active (e.g. `-0.15`
    /// reads 15% low — the dangerous direction for a power cap).
    pub sensor_bias_frac: f64,
    /// How many invocations a bias window lasts.
    pub sensor_bias_window: u64,
    /// Per-invocation probability the counter readings are scrambled.
    pub counter_corrupt_p: f64,
    /// Probability a *requested* P-state/device transition silently fails,
    /// leaving the hardware at its previously applied configuration.
    pub pstate_fail_p: f64,
    /// Per-invocation probability the run itself fails with an error.
    pub run_fail_p: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            sensor_dropout_p: 0.0,
            sensor_freeze_p: 0.0,
            sensor_freeze_window: 4,
            sensor_bias_p: 0.0,
            sensor_bias_frac: -0.15,
            sensor_bias_window: 4,
            counter_corrupt_p: 0.0,
            pstate_fail_p: 0.0,
            run_fail_p: 0.0,
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing (identical behavior to the bare machine).
    pub fn none(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }
}

/// Counts of injected faults, by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Total executor invocations (including failed ones).
    pub invocations: u64,
    /// Readings zeroed by sensor dropout.
    pub sensor_dropouts: u64,
    /// Stale readings served by a frozen sensor.
    pub sensor_freezes: u64,
    /// Readings scaled by an active bias window.
    pub sensor_biases: u64,
    /// Runs whose counters were scrambled.
    pub counter_corruptions: u64,
    /// Transitions silently clamped to the previous configuration.
    pub pstate_clamps: u64,
    /// Runs that failed outright.
    pub run_failures: u64,
}

impl FaultStats {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.sensor_dropouts
            + self.sensor_freezes
            + self.sensor_biases
            + self.counter_corruptions
            + self.pstate_clamps
            + self.run_failures
    }
}

/// Something that can execute a kernel iteration at a configuration.
///
/// A bare [`Machine`] is infallible and always runs exactly the requested
/// configuration. A [`FaultyMachine`] may return an [`ExecutionFault`], or
/// return `Ok` with `run.config != requested` when a P-state transition
/// was silently rejected — callers that care must compare.
pub trait Executor {
    /// Execute iteration `iteration` of `kernel`, requesting `config`.
    fn execute(
        &self,
        kernel: &KernelCharacteristics,
        config: &Configuration,
        iteration: u64,
    ) -> Result<KernelRun, ExecutionFault>;
}

impl Executor for Machine {
    fn execute(
        &self,
        kernel: &KernelCharacteristics,
        config: &Configuration,
        iteration: u64,
    ) -> Result<KernelRun, ExecutionFault> {
        Ok(self.run_iter(kernel, config, iteration))
    }
}

/// Mutable fault-injection state, advanced once per invocation.
#[derive(Debug, Clone, Default)]
struct FaultState {
    invocation: u64,
    /// The configuration the hardware is actually at (None before the
    /// first successful run; the first transition always succeeds).
    applied: Option<Configuration>,
    /// Latched sensor reading and remaining invocations to serve it.
    frozen: Option<(PowerBreakdown, u64)>,
    /// Remaining invocations of an active bias window.
    bias_remaining: u64,
    stats: FaultStats,
}

/// A [`Machine`] wrapped in a deterministic fault injector.
///
/// Interior mutability (`RefCell`) keeps the [`Executor`] signature `&self`
/// while the injector tracks the applied configuration, freeze/bias
/// windows, and fault statistics across invocations.
#[derive(Debug, Clone)]
pub struct FaultyMachine {
    machine: Machine,
    plan: FaultPlan,
    state: RefCell<FaultState>,
}

/// Per-class draw lanes: distinct tags keep the fault classes' coin flips
/// independent even at the same invocation index.
mod lane {
    pub(crate) const RUN_FAIL: u64 = 1;
    pub(crate) const PSTATE: u64 = 2;
    pub(crate) const COUNTER: u64 = 3;
    pub(crate) const FREEZE: u64 = 4;
    pub(crate) const DROPOUT: u64 = 5;
    pub(crate) const BIAS: u64 = 6;
    pub(crate) const SCRAMBLE: u64 = 7;
}

impl FaultyMachine {
    /// Wrap `machine` with the fault schedule of `plan`.
    pub fn new(machine: Machine, plan: FaultPlan) -> Self {
        Self { machine, plan, state: RefCell::new(FaultState::default()) }
    }

    /// Snapshot of the fault counters.
    pub fn stats(&self) -> FaultStats {
        self.state.borrow().stats
    }

    /// Deterministic uniform draw in [0, 1) for `(plan.seed, lane, n)`.
    fn draw(&self, lane: u64, n: u64) -> f64 {
        let mut z = splitmix64(self.plan.seed ^ 0xFA_u64.wrapping_mul(0x9E3779B97F4A7C15));
        z = splitmix64(z ^ lane.wrapping_mul(0xD1342543DE82EF95));
        z = splitmix64(z ^ n);
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Raw bits for value scrambling.
    fn bits(&self, lane: u64, n: u64) -> u64 {
        let mut z = splitmix64(self.plan.seed ^ lane.wrapping_mul(MIX_MUL));
        z = splitmix64(z ^ n);
        z
    }

    /// Scramble the counter readings: each field is scaled by a large
    /// deterministic factor (up or down three decades), staying positive
    /// and finite so downstream feature math never sees NaN — just garbage.
    fn corrupt_counters(&self, run: &mut KernelRun, n: u64) {
        let bits = self.bits(lane::SCRAMBLE, n);
        let fields: [&mut f64; 12] = [
            &mut run.counters.instructions,
            &mut run.counters.core_cycles,
            &mut run.counters.ref_cycles,
            &mut run.counters.l1d_misses,
            &mut run.counters.l2d_misses,
            &mut run.counters.tlb_misses,
            &mut run.counters.branches,
            &mut run.counters.vector_instructions,
            &mut run.counters.stalled_cycles,
            &mut run.counters.fpu_idle_cycles,
            &mut run.counters.interrupts,
            &mut run.counters.dram_accesses,
        ];
        for (i, f) in fields.into_iter().enumerate() {
            *f *= if bits >> i & 1 == 1 { 1e3 } else { 1e-3 };
        }
    }
}

impl Executor for FaultyMachine {
    fn execute(
        &self,
        kernel: &KernelCharacteristics,
        config: &Configuration,
        iteration: u64,
    ) -> Result<KernelRun, ExecutionFault> {
        let mut st = self.state.borrow_mut();
        st.invocation += 1;
        st.stats.invocations += 1;
        let n = st.invocation;

        // Transient run failure: nothing executes, hardware state unchanged.
        if self.draw(lane::RUN_FAIL, n) < self.plan.run_fail_p {
            st.stats.run_failures += 1;
            return Err(ExecutionFault { kind: FaultKind::KernelRunFailure, invocation: n });
        }

        // P-state transition: a *change* of configuration may silently
        // fail, leaving the hardware where it was. The very first
        // transition (from the unknown boot state) always lands.
        let target = match st.applied {
            Some(current)
                if current != *config && self.draw(lane::PSTATE, n) < self.plan.pstate_fail_p =>
            {
                st.stats.pstate_clamps += 1;
                current
            }
            _ => {
                st.applied = Some(*config);
                *config
            }
        };

        // `run.config` reports the configuration that actually executed,
        // so a scheduler can detect the clamp by comparing to its request.
        let mut run = self.machine.run_iter(kernel, &target, iteration);

        if self.draw(lane::COUNTER, n) < self.plan.counter_corrupt_p {
            st.stats.counter_corruptions += 1;
            self.corrupt_counters(&mut run, n);
        }

        // Sensor path. Fault precedence per invocation: an active freeze
        // window wins, then a new freeze, then dropout, then bias.
        // Ground truth (`run.true_power`) is never touched.
        if let Some((latched, remaining)) = st.frozen {
            run.power = latched;
            st.stats.sensor_freezes += 1;
            st.frozen = if remaining > 1 { Some((latched, remaining - 1)) } else { None };
        } else if self.plan.sensor_freeze_window > 0
            && self.draw(lane::FREEZE, n) < self.plan.sensor_freeze_p
        {
            // Latch this (genuine) reading; the *next* `window` invocations
            // will repeat it, so at least two consecutive identical
            // readings are observable.
            st.frozen = Some((run.power, self.plan.sensor_freeze_window));
        } else if self.draw(lane::DROPOUT, n) < self.plan.sensor_dropout_p {
            st.stats.sensor_dropouts += 1;
            run.power = PowerBreakdown { cpu_plane_w: 0.0, gpu_nb_plane_w: 0.0 };
        } else {
            if st.bias_remaining == 0 && self.draw(lane::BIAS, n) < self.plan.sensor_bias_p {
                st.bias_remaining = self.plan.sensor_bias_window;
            }
            if st.bias_remaining > 0 {
                st.bias_remaining -= 1;
                st.stats.sensor_biases += 1;
                let scale = 1.0 + self.plan.sensor_bias_frac;
                run.power.cpu_plane_w *= scale;
                run.power.gpu_nb_plane_w *= scale;
            }
        }

        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pstate::{CpuPState, GpuPState};

    fn kernel() -> KernelCharacteristics {
        KernelCharacteristics::default()
    }

    fn cpu_cfg() -> Configuration {
        Configuration::cpu(4, CpuPState::MAX)
    }

    fn gpu_cfg() -> Configuration {
        Configuration::gpu(GpuPState::MAX, CpuPState::MIN)
    }

    fn chaotic_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            sensor_dropout_p: 0.3,
            sensor_freeze_p: 0.1,
            sensor_bias_p: 0.1,
            counter_corrupt_p: 0.2,
            pstate_fail_p: 0.3,
            run_fail_p: 0.2,
            ..FaultPlan::default()
        }
    }

    #[test]
    fn zero_plan_is_transparent() {
        let m = Machine::new(7);
        let fm = FaultyMachine::new(m.clone(), FaultPlan::none(99));
        for i in 0..10 {
            let cfg = if i % 2 == 0 { cpu_cfg() } else { gpu_cfg() };
            let faulty = fm.execute(&kernel(), &cfg, i).unwrap();
            assert_eq!(faulty, m.run_iter(&kernel(), &cfg, i));
        }
        assert_eq!(fm.stats().total(), 0);
        assert_eq!(fm.stats().invocations, 10);
    }

    #[test]
    fn same_plan_same_fault_sequence() {
        let a = FaultyMachine::new(Machine::new(7), chaotic_plan(42));
        let b = FaultyMachine::new(Machine::new(7), chaotic_plan(42));
        for i in 0..200 {
            let cfg = if i % 3 == 0 { gpu_cfg() } else { cpu_cfg() };
            assert_eq!(a.execute(&kernel(), &cfg, i), b.execute(&kernel(), &cfg, i));
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total() > 0, "a chaotic plan must inject something");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultyMachine::new(Machine::new(7), chaotic_plan(1));
        let b = FaultyMachine::new(Machine::new(7), chaotic_plan(2));
        for i in 0..200 {
            let _ = a.execute(&kernel(), &cpu_cfg(), i);
            let _ = b.execute(&kernel(), &cpu_cfg(), i);
        }
        assert_ne!(a.stats(), b.stats());
    }

    #[test]
    fn dropout_zeroes_measured_but_not_true_power() {
        let plan = FaultPlan { sensor_dropout_p: 1.0, ..FaultPlan::none(5) };
        let fm = FaultyMachine::new(Machine::new(7), plan);
        let run = fm.execute(&kernel(), &cpu_cfg(), 0).unwrap();
        assert_eq!(run.power_w(), 0.0);
        assert!(run.true_power_w() > 0.0);
        assert_eq!(fm.stats().sensor_dropouts, 1);
    }

    #[test]
    fn freeze_repeats_the_latched_reading() {
        let plan =
            FaultPlan { sensor_freeze_p: 1.0, sensor_freeze_window: 3, ..FaultPlan::none(5) };
        let fm = FaultyMachine::new(Machine::new(7), plan);
        let first = fm.execute(&kernel(), &cpu_cfg(), 0).unwrap();
        // The next three readings repeat the latch exactly, despite
        // run-to-run sensor noise; then a fresh window latches again.
        for i in 1..=3 {
            let r = fm.execute(&kernel(), &cpu_cfg(), i).unwrap();
            assert_eq!(r.power, first.power, "iteration {i}");
        }
        assert_eq!(fm.stats().sensor_freezes, 3);
    }

    #[test]
    fn bias_scales_measured_power() {
        let plan = FaultPlan {
            sensor_bias_p: 1.0,
            sensor_bias_frac: -0.2,
            sensor_bias_window: 2,
            ..FaultPlan::none(5)
        };
        let fm = FaultyMachine::new(Machine::new(7), plan);
        let honest = Machine::new(7).run_iter(&kernel(), &cpu_cfg(), 0);
        let biased = fm.execute(&kernel(), &cpu_cfg(), 0).unwrap();
        assert!((biased.power_w() - honest.power_w() * 0.8).abs() < 1e-9);
    }

    #[test]
    fn pstate_clamp_reports_the_actual_configuration() {
        let plan = FaultPlan { pstate_fail_p: 1.0, ..FaultPlan::none(5) };
        let fm = FaultyMachine::new(Machine::new(7), plan);
        // First transition from boot always lands.
        let r0 = fm.execute(&kernel(), &cpu_cfg(), 0).unwrap();
        assert_eq!(r0.config, cpu_cfg());
        // Every later change is rejected: hardware stays at cpu_cfg.
        let r1 = fm.execute(&kernel(), &gpu_cfg(), 1).unwrap();
        assert_eq!(r1.config, cpu_cfg());
        assert_ne!(r1.config, gpu_cfg());
        assert_eq!(fm.stats().pstate_clamps, 1);
        // Re-requesting the applied configuration is not a transition.
        let r2 = fm.execute(&kernel(), &cpu_cfg(), 2).unwrap();
        assert_eq!(r2.config, cpu_cfg());
        assert_eq!(fm.stats().pstate_clamps, 1);
    }

    #[test]
    fn run_failures_carry_kind_and_invocation() {
        let plan = FaultPlan { run_fail_p: 1.0, ..FaultPlan::none(5) };
        let fm = FaultyMachine::new(Machine::new(7), plan);
        let err = fm.execute(&kernel(), &cpu_cfg(), 0).unwrap_err();
        assert_eq!(err.kind, FaultKind::KernelRunFailure);
        assert_eq!(err.invocation, 1);
        assert!(err.to_string().contains("kernel run failure"));
        assert_eq!(fm.stats().run_failures, 1);
    }

    #[test]
    fn counter_corruption_stays_finite() {
        let plan = FaultPlan { counter_corrupt_p: 1.0, ..FaultPlan::none(5) };
        let fm = FaultyMachine::new(Machine::new(7), plan);
        let honest = Machine::new(7).run_iter(&kernel(), &cpu_cfg(), 0);
        let r = fm.execute(&kernel(), &cpu_cfg(), 0).unwrap();
        assert_ne!(r.counters, honest.counters);
        for v in [
            r.counters.instructions,
            r.counters.core_cycles,
            r.counters.l1d_misses,
            r.counters.dram_accesses,
        ] {
            assert!(v.is_finite() && v >= 0.0);
        }
    }

    #[test]
    fn fault_rates_track_probabilities() {
        let plan = FaultPlan { sensor_dropout_p: 0.25, run_fail_p: 0.1, ..FaultPlan::none(123) };
        let fm = FaultyMachine::new(Machine::new(7), plan);
        let n = 2000;
        for i in 0..n {
            let _ = fm.execute(&kernel(), &cpu_cfg(), i);
        }
        let s = fm.stats();
        assert_eq!(s.invocations, n);
        let drop_rate = s.sensor_dropouts as f64 / (n - s.run_failures) as f64;
        let fail_rate = s.run_failures as f64 / n as f64;
        assert!((drop_rate - 0.25).abs() < 0.05, "dropout rate {drop_rate}");
        assert!((fail_rate - 0.1).abs() < 0.03, "run failure rate {fail_rate}");
    }
}
