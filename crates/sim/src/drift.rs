//! Seeded time-varying drift processes layered over any [`Executor`].
//!
//! The machine model is stationary: iteration `t` of a kernel depends on
//! `(seed, kernel, config, t)` and nothing else. Real hardware is not —
//! thermal throttling, aging, and co-tenant interference move the true
//! power/performance surface over time. This module supplies that movement
//! as **pure functions of the iteration index**: a [`DriftPlan`] maps `t`
//! to a pair of multiplicative factors, and a [`DriftedMachine`] applies
//! them to whatever executor it wraps. Because the factors are stateless,
//! drifted executions stay exactly as replayable as clean ones, and drift
//! composes freely with fault injection (`DriftedMachine<FaultyMachine>`).
//!
//! The zero plan ([`DriftPlan::none`]) returns factors of exactly `1.0`,
//! and [`DriftedMachine`] skips scaling entirely in that case — a
//! zero-drift wrapper is bit-transparent.

use crate::config::Configuration;
use crate::faults::{ExecutionFault, Executor};
use crate::kernel::KernelCharacteristics;
use crate::machine::KernelRun;
use crate::noise::splitmix64;
use serde::{Deserialize, Serialize};

/// Multiplicative drift factors at one iteration. `power` scales both the
/// sensor-visible and true power planes; `perf` divides throughput (so a
/// factor below 1.0 slows the kernel down).
#[derive(Debug, Clone, Copy, PartialEq)]
struct DriftFactors {
    /// Power multiplier (1.0 = no drift).
    power: f64,
    /// Performance multiplier (1.0 = no drift).
    perf: f64,
}

impl DriftFactors {
    /// The identity: no drift at all.
    const NONE: DriftFactors = DriftFactors { power: 1.0, perf: 1.0 };

    /// True iff both factors are exactly 1.0.
    fn is_identity(&self) -> bool {
        self.power == 1.0 && self.perf == 1.0
    }
}

/// The drift process family. Magnitudes are fractional (0.35 = 35%).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum DriftKind {
    /// No drift: factors are exactly 1.0 forever.
    None,
    /// Thermal ramp: power rises linearly to `1 + rise` over `horizon`
    /// iterations, then holds (a heat-soaked package leaking more).
    ThermalRamp {
        /// Iterations until the ramp saturates.
        horizon: u64,
        /// Fractional power increase at saturation.
        rise: f64,
    },
    /// Step throttle at iteration `at`: performance drops to `perf` of
    /// nominal and power to `power` of nominal (a firmware P-state clamp).
    StepThrottle {
        /// First affected iteration.
        at: u64,
        /// Post-step performance factor (< 1.0).
        perf: f64,
        /// Post-step power factor.
        power: f64,
    },
    /// Slow aging: power grows and performance decays a small fraction per
    /// iteration, compounding linearly.
    Aging {
        /// Fractional power growth per iteration.
        power_rate: f64,
        /// Fractional performance decay per iteration.
        perf_rate: f64,
    },
    /// Periodic co-tenant interference: every `period` iterations, a burst
    /// of `burst` iterations runs with elevated power and reduced
    /// performance (a noisy neighbour stealing shared bandwidth).
    CoTenant {
        /// Burst cadence in iterations.
        period: u64,
        /// Burst length in iterations.
        burst: u64,
        /// In-burst power factor (> 1.0).
        power: f64,
        /// In-burst performance factor (< 1.0).
        perf: f64,
    },
}

/// A seeded drift scenario: a process shape plus a seed that jitters its
/// phase and magnitude, so different seeds give different-but-reproducible
/// trajectories. `DriftPlan::factors_at` is a pure function — no state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftPlan {
    /// Seed for phase/magnitude jitter.
    seed: u64,
    /// The process shape.
    kind: DriftKind,
}

impl DriftPlan {
    /// The zero plan: exactly no drift, for any seed.
    pub fn none(seed: u64) -> Self {
        Self { seed, kind: DriftKind::None }
    }

    /// A thermal ramp reaching +35% power over `horizon` iterations.
    pub fn thermal_ramp(seed: u64, horizon: u64) -> Self {
        Self { seed, kind: DriftKind::ThermalRamp { horizon: horizon.max(1), rise: 0.35 } }
    }

    /// A step throttle at iteration 16: perf ×0.72, power ×0.80.
    pub fn step_throttle(seed: u64) -> Self {
        Self { seed, kind: DriftKind::StepThrottle { at: 16, perf: 0.72, power: 0.80 } }
    }

    /// Slow aging: +0.5% power and −0.3% performance per iteration.
    pub fn aging(seed: u64) -> Self {
        Self { seed, kind: DriftKind::Aging { power_rate: 0.005, perf_rate: 0.003 } }
    }

    /// Co-tenant bursts: every 12 iterations, 4 iterations at power ×1.25
    /// and perf ×0.85, with a seeded phase offset.
    pub fn co_tenant(seed: u64) -> Self {
        Self { seed, kind: DriftKind::CoTenant { period: 12, burst: 4, power: 1.25, perf: 0.85 } }
    }

    /// A uniform draw in `[0, 1)` on a named lane — same chain-of-splitmix
    /// construction as `FaultPlan::draw`, different domain constant.
    fn draw(&self, lane: u64) -> f64 {
        let z = splitmix64(self.seed ^ 0xD21F_u64.wrapping_mul(0x9E3779B97F4A7C15));
        let z = splitmix64(z ^ lane.wrapping_mul(0xD1342543DE82EF95));
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Seeded magnitude jitter in `[0.9, 1.1]` — different seeds drift by
    /// slightly different amounts, so thresholds can't be tuned to one
    /// exact trajectory.
    fn magnitude_jitter(&self) -> f64 {
        0.9 + 0.2 * self.draw(1)
    }

    /// The drift factors at iteration `iteration`. Pure: same plan + same
    /// iteration always gives bit-identical factors. Factors start at the
    /// identity at `t = 0` for every kind.
    fn factors_at(&self, iteration: u64) -> DriftFactors {
        match self.kind {
            DriftKind::None => DriftFactors::NONE,
            DriftKind::ThermalRamp { horizon, rise } => {
                let m = self.magnitude_jitter();
                let frac = (iteration as f64 / horizon as f64).min(1.0);
                DriftFactors { power: 1.0 + rise * m * frac, perf: 1.0 }
            }
            DriftKind::StepThrottle { at, perf, power } => {
                if iteration < at {
                    DriftFactors::NONE
                } else {
                    let m = self.magnitude_jitter();
                    DriftFactors { power: 1.0 - (1.0 - power) * m, perf: 1.0 - (1.0 - perf) * m }
                }
            }
            DriftKind::Aging { power_rate, perf_rate } => {
                let m = self.magnitude_jitter();
                let t = iteration as f64;
                DriftFactors {
                    power: 1.0 + power_rate * m * t,
                    perf: 1.0 / (1.0 + perf_rate * m * t),
                }
            }
            DriftKind::CoTenant { period, burst, power, perf } => {
                let period = period.max(1);
                let phase = (self.draw(2) * period as f64) as u64 % period;
                let in_burst = (iteration + phase) % period < burst;
                if iteration == 0 || !in_burst {
                    DriftFactors::NONE
                } else {
                    let m = self.magnitude_jitter();
                    DriftFactors { power: 1.0 + (power - 1.0) * m, perf: 1.0 - (1.0 - perf) * m }
                }
            }
        }
    }
}

/// An executor wrapper applying a [`DriftPlan`] to every execution. Wraps
/// any [`Executor`] — a clean [`crate::Machine`], or a
/// [`crate::FaultyMachine`] so faults and drift compose.
#[derive(Debug, Clone)]
pub struct DriftedMachine<E> {
    inner: E,
    plan: DriftPlan,
}

impl<E> DriftedMachine<E> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: E, plan: DriftPlan) -> Self {
        Self { inner, plan }
    }
}

impl<E: Executor> Executor for DriftedMachine<E> {
    fn execute(
        &self,
        kernel: &KernelCharacteristics,
        config: &Configuration,
        iteration: u64,
    ) -> Result<KernelRun, ExecutionFault> {
        let mut run = self.inner.execute(kernel, config, iteration)?;
        let f = self.plan.factors_at(iteration);
        if f.is_identity() {
            // Bit-transparent at zero drift: no float ops at all.
            return Ok(run);
        }
        run.time_s /= f.perf;
        run.power.cpu_plane_w *= f.power;
        run.power.gpu_nb_plane_w *= f.power;
        run.true_power.cpu_plane_w *= f.power;
        run.true_power.gpu_nb_plane_w *= f.power;
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, FaultyMachine};
    use crate::machine::Machine;

    fn kernel() -> KernelCharacteristics {
        KernelCharacteristics::default()
    }

    #[test]
    fn zero_plan_is_bit_transparent() {
        let machine = Machine::new(7);
        let drifted = DriftedMachine::new(Machine::new(7), DriftPlan::none(99));
        let k = kernel();
        for (i, c) in Configuration::all().iter().enumerate().take(6) {
            let clean = machine.execute(&k, c, i as u64).unwrap();
            let wrapped = drifted.execute(&k, c, i as u64).unwrap();
            assert_eq!(clean.time_s.to_bits(), wrapped.time_s.to_bits());
            assert_eq!(clean.power_w().to_bits(), wrapped.power_w().to_bits());
            assert_eq!(clean.true_power_w().to_bits(), wrapped.true_power_w().to_bits());
        }
    }

    #[test]
    fn factors_start_at_identity_and_are_pure() {
        for plan in [
            DriftPlan::none(3),
            DriftPlan::thermal_ramp(3, 32),
            DriftPlan::step_throttle(3),
            DriftPlan::aging(3),
            DriftPlan::co_tenant(3),
        ] {
            assert!(plan.factors_at(0).is_identity(), "{:?} must start clean", plan.kind);
            for t in [1u64, 5, 17, 100] {
                assert_eq!(plan.factors_at(t), plan.factors_at(t), "factors must be pure");
                let f = plan.factors_at(t);
                assert!(f.power.is_finite() && f.power > 0.0);
                assert!(f.perf.is_finite() && f.perf > 0.0);
            }
        }
    }

    #[test]
    fn thermal_ramp_raises_power_monotonically() {
        let plan = DriftPlan::thermal_ramp(11, 32);
        let mut last = 1.0;
        for t in 1..48u64 {
            let f = plan.factors_at(t);
            assert!(f.power >= last, "ramp must be monotone at t={t}");
            assert_eq!(f.perf, 1.0, "a thermal ramp moves power only");
            last = f.power;
        }
        assert!(last > 1.25, "ramp should saturate near +35%, got ×{last}");
    }

    #[test]
    fn step_throttle_cuts_perf_after_the_step() {
        let plan = DriftPlan::step_throttle(5);
        assert!(plan.factors_at(15).is_identity());
        let after = plan.factors_at(16);
        assert!(after.perf < 0.80, "post-step perf factor {}", after.perf);
        assert_eq!(plan.factors_at(16), plan.factors_at(400), "a step holds forever");
    }

    #[test]
    fn co_tenant_bursts_recur_and_idle_gaps_are_clean() {
        let plan = DriftPlan::co_tenant(21);
        let flags: Vec<bool> = (0..48).map(|t| !plan.factors_at(t).is_identity()).collect();
        let bursts = flags.iter().filter(|b| **b).count();
        assert!(bursts >= 8, "expected recurring bursts, saw {bursts}/48");
        assert!(bursts <= 20, "bursts must be intermittent, saw {bursts}/48");
    }

    #[test]
    fn drifted_execution_scales_time_and_both_power_planes() {
        let plan = DriftPlan::aging(9);
        let machine = Machine::new(9);
        let drifted = DriftedMachine::new(Machine::new(9), plan);
        let k = kernel();
        let c = &Configuration::all()[10];
        let t = 40u64;
        let clean = machine.execute(&k, c, t).unwrap();
        let run = drifted.execute(&k, c, t).unwrap();
        let f = plan.factors_at(t);
        assert_eq!(run.time_s.to_bits(), (clean.time_s / f.perf).to_bits());
        assert_eq!(run.power.cpu_plane_w.to_bits(), (clean.power.cpu_plane_w * f.power).to_bits());
        assert_eq!(
            run.true_power.gpu_nb_plane_w.to_bits(),
            (clean.true_power.gpu_nb_plane_w * f.power).to_bits()
        );
    }

    #[test]
    fn drift_composes_with_fault_injection() {
        let faulty = FaultyMachine::new(Machine::new(4), FaultPlan::none(4));
        let composed = DriftedMachine::new(faulty, DriftPlan::step_throttle(4));
        let k = kernel();
        let c = &Configuration::all()[3];
        let run = composed.execute(&k, c, 20).unwrap();
        let clean = Machine::new(4).execute(&k, c, 20).unwrap();
        assert!(run.time_s > clean.time_s, "throttled composition must be slower");
    }

    #[test]
    fn different_seeds_give_different_trajectories() {
        let a = DriftPlan::thermal_ramp(1, 32).factors_at(20);
        let b = DriftPlan::thermal_ramp(2, 32).factors_at(20);
        assert_ne!(a.power.to_bits(), b.power.to_bits(), "seed must jitter the magnitude");
    }
}
