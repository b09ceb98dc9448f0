//! P-state management: ACPI-style transitions and a utilization-driven
//! governor.
//!
//! "Software-visible P-states are managed either by the OS through the
//! Advanced Configuration and Power Interface (ACPI) specification or by
//! the hardware" (Section IV-A). Real transitions are not free: the
//! voltage regulator slews at a finite rate and the PLL relocks, during
//! which the core stalls or runs at the lower of the two frequencies.
//! This module models those costs so frequency-limiting policies can be
//! charged for every step they take, and provides the classic
//! `ondemand`-style governor as the OS baseline the paper's methods
//! replace.

use crate::pstate::CpuPState;
use serde::{Deserialize, Serialize};

/// Transition-cost model for P-state changes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransitionModel {
    /// Voltage regulator slew rate, volts per second.
    slew_v_per_s: f64,
    /// Fixed PLL relock / microcode latency per transition, seconds.
    relock_s: f64,
}

impl Default for TransitionModel {
    fn default() -> Self {
        // ~6.25 mV/µs slew and 5 µs relock — typical of the era's VRMs.
        Self { slew_v_per_s: 6250.0, relock_s: 5e-6 }
    }
}

impl TransitionModel {
    /// Latency of one CPU P-state transition, seconds.
    fn cpu_latency_s(&self, from: CpuPState, to: CpuPState) -> f64 {
        if from == to {
            return 0.0;
        }
        let dv = (from.voltage_v() - to.voltage_v()).abs();
        dv / self.slew_v_per_s + self.relock_s
    }

    /// Total latency of walking the CPU P-state ladder one step at a time
    /// (how a stepping limiter actually moves), seconds.
    pub fn cpu_walk_latency_s(&self, from: CpuPState, to: CpuPState) -> f64 {
        let (lo, hi) = if from.0 <= to.0 { (from.0, to.0) } else { (to.0, from.0) };
        (lo..hi).map(|i| self.cpu_latency_s(CpuPState(i), CpuPState(i + 1))).sum()
    }
}

/// Decision of a governor evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum GovernorAction {
    /// Stay at the current P-state.
    Hold,
    /// Move to the given P-state.
    Move(CpuPState),
}

/// The classic `ondemand` CPU governor: jump to the top state when
/// utilization exceeds `up_threshold`, otherwise settle at the lowest
/// state whose capacity covers current demand with headroom.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OndemandGovernor {
    /// Utilization above which the governor jumps straight to maximum.
    up_threshold: f64,
    /// Target utilization when scaling down (capacity headroom).
    target_util: f64,
}

impl Default for OndemandGovernor {
    fn default() -> Self {
        Self { up_threshold: 0.80, target_util: 0.70 }
    }
}

impl OndemandGovernor {
    /// Evaluate the governor at `current` P-state under the observed core
    /// utilization in [0, 1].
    fn evaluate(&self, current: CpuPState, utilization: f64) -> GovernorAction {
        let util = utilization.clamp(0.0, 1.0);
        if util > self.up_threshold {
            return if current == CpuPState::MAX {
                GovernorAction::Hold
            } else {
                GovernorAction::Move(CpuPState::MAX)
            };
        }
        // Demand in units of max-frequency capacity.
        let demand = util * current.freq_ghz() / CpuPState::MAX.freq_ghz();
        let target = CpuPState::all()
            .find(|p| demand <= self.target_util * p.freq_ghz() / CpuPState::MAX.freq_ghz())
            .unwrap_or(CpuPState::MAX);
        if target == current {
            GovernorAction::Hold
        } else {
            GovernorAction::Move(target)
        }
    }

    /// Run the governor to its fixed point from `start` under constant
    /// utilization-of-capacity `busy_fraction_at_max` (the fraction of a
    /// max-frequency core the workload needs). Returns the settled state
    /// and the number of transitions taken.
    pub fn settle(&self, start: CpuPState, busy_fraction_at_max: f64) -> (CpuPState, u32) {
        let mut state = start;
        let mut moves = 0;
        // The observed utilization at a state is demand/capacity.
        for _ in 0..16 {
            let capacity = state.freq_ghz() / CpuPState::MAX.freq_ghz();
            let util = (busy_fraction_at_max / capacity).min(1.0);
            match self.evaluate(state, util) {
                GovernorAction::Hold => return (state, moves),
                GovernorAction::Move(next) => {
                    state = next;
                    moves += 1;
                }
            }
        }
        (state, moves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_latency_scales_with_voltage_delta() {
        let t = TransitionModel::default();
        let small = t.cpu_latency_s(CpuPState(0), CpuPState(1));
        let large = t.cpu_latency_s(CpuPState(0), CpuPState(5));
        assert!(large > small);
        assert_eq!(t.cpu_latency_s(CpuPState(2), CpuPState(2)), 0.0);
        // Symmetric.
        assert_eq!(
            t.cpu_latency_s(CpuPState(1), CpuPState(4)),
            t.cpu_latency_s(CpuPState(4), CpuPState(1))
        );
    }

    #[test]
    fn transitions_are_microseconds_scale() {
        let t = TransitionModel::default();
        let full_swing = t.cpu_latency_s(CpuPState::MIN, CpuPState::MAX);
        assert!(full_swing > 1e-6 && full_swing < 200e-6, "{full_swing}");
    }

    #[test]
    fn walk_latency_sums_steps() {
        let t = TransitionModel::default();
        let direct: f64 = (0..5).map(|i| t.cpu_latency_s(CpuPState(i), CpuPState(i + 1))).sum();
        assert!((t.cpu_walk_latency_s(CpuPState::MIN, CpuPState::MAX) - direct).abs() < 1e-15);
        assert_eq!(t.cpu_walk_latency_s(CpuPState(3), CpuPState(3)), 0.0);
        // Direction-independent.
        assert_eq!(
            t.cpu_walk_latency_s(CpuPState::MAX, CpuPState::MIN),
            t.cpu_walk_latency_s(CpuPState::MIN, CpuPState::MAX)
        );
    }

    #[test]
    fn ondemand_jumps_to_max_when_busy() {
        let g = OndemandGovernor::default();
        assert_eq!(g.evaluate(CpuPState(2), 0.95), GovernorAction::Move(CpuPState::MAX));
        assert_eq!(g.evaluate(CpuPState::MAX, 0.95), GovernorAction::Hold);
    }

    #[test]
    fn ondemand_scales_down_when_idle() {
        let g = OndemandGovernor::default();
        match g.evaluate(CpuPState::MAX, 0.10) {
            GovernorAction::Move(p) => assert!(p < CpuPState::MAX),
            GovernorAction::Hold => panic!("10% utilization should scale down"),
        }
    }

    #[test]
    fn settle_reaches_a_fixed_point() {
        let g = OndemandGovernor::default();
        for demand in [0.05, 0.3, 0.6, 0.95] {
            for start in CpuPState::all() {
                let (state, moves) = g.settle(start, demand);
                // Fixed point: evaluating again holds.
                let capacity = state.freq_ghz() / CpuPState::MAX.freq_ghz();
                let util = (demand / capacity).min(1.0);
                assert_eq!(
                    g.evaluate(state, util),
                    GovernorAction::Hold,
                    "demand {demand}, start {start:?} → {state:?} after {moves} moves"
                );
            }
        }
    }

    #[test]
    fn heavy_demand_settles_at_max() {
        let g = OndemandGovernor::default();
        let (state, _) = g.settle(CpuPState::MIN, 0.9);
        assert_eq!(state, CpuPState::MAX);
    }

    #[test]
    fn light_demand_settles_low() {
        let g = OndemandGovernor::default();
        let (state, _) = g.settle(CpuPState::MAX, 0.15);
        assert!(state <= CpuPState(1), "light demand should sit near the floor, got {state:?}");
    }
}
