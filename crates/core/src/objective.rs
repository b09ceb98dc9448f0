//! Scheduling objectives beyond performance-under-a-cap.
//!
//! Section III-C: "the predicted values could be used to select
//! configurations for energy efficiency, energy-delay product, or any
//! other scheduling goal." This module implements those selections over a
//! set of predicted (or measured) power/performance points.
//!
//! For a kernel iteration, with performance `p` (iterations per second)
//! and power `w`:
//! * time per iteration `t = 1/p`,
//! * energy per iteration `E = w·t = w/p`,
//! * energy–delay product `EDP = E·t = w/p²`,
//! * energy–delay² `ED2P = E·t² = w/p³`.

use crate::frontier::PowerPerfPoint;
use acs_sim::Configuration;
use serde::{Deserialize, Serialize};

/// A scheduling goal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Objective {
    /// Maximize performance subject to a power cap in watts (the paper's
    /// primary goal).
    MaxPerfUnderCap(f64),
    /// Minimize energy per iteration.
    MinEnergy,
    /// Minimize the energy–delay product.
    MinEnergyDelay,
    /// Minimize the energy–delay² product (strongly performance-leaning).
    MinEnergyDelaySquared,
    /// Maximize performance outright (no power consideration).
    MaxPerf,
}

impl Objective {
    /// The scalar cost of a point under this objective (lower is better).
    /// For `MaxPerfUnderCap`, infeasible points cost infinity; feasible
    /// points cost `-perf`.
    pub fn cost(&self, point: &PowerPerfPoint) -> f64 {
        let p = point.perf.max(1e-300);
        match *self {
            Objective::MaxPerfUnderCap(cap_w) => {
                if point.power_w <= cap_w {
                    -point.perf
                } else {
                    f64::INFINITY
                }
            }
            Objective::MinEnergy => point.power_w / p,
            Objective::MinEnergyDelay => point.power_w / (p * p),
            Objective::MinEnergyDelaySquared => point.power_w / (p * p * p),
            Objective::MaxPerf => -point.perf,
        }
    }

    /// Select the best configuration among `points` under this objective.
    ///
    /// For `MaxPerfUnderCap` with no feasible point, falls back to the
    /// minimum-power point (matching [`crate::online::PredictedProfile::select`]).
    /// Returns `None` only for an empty slice.
    pub fn select(&self, points: &[PowerPerfPoint]) -> Option<Configuration> {
        let best = points.iter().min_by(|a, b| self.cost(a).partial_cmp(&self.cost(b)).unwrap())?;
        if self.cost(best).is_infinite() {
            // Cap unreachable: degrade to min power.
            return points
                .iter()
                .min_by(|a, b| a.power_w.partial_cmp(&b.power_w).unwrap())
                .map(|p| p.config);
        }
        Some(best.config)
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::MaxPerfUnderCap(_) => "perf@cap",
            Objective::MinEnergy => "min-E",
            Objective::MinEnergyDelay => "min-EDP",
            Objective::MinEnergyDelaySquared => "min-ED2P",
            Objective::MaxPerf => "max-perf",
        }
    }
}

/// Every objective selects a point on the power–performance Pareto
/// frontier — a useful property: the predicted frontier alone supports
/// any of these goals, as Section III-C claims.
pub fn is_on_frontier(points: &[PowerPerfPoint], config: &Configuration) -> bool {
    let chosen = match points.iter().find(|p| &p.config == config) {
        Some(p) => p,
        None => return false,
    };
    !points.iter().any(|p| {
        (p.power_w < chosen.power_w && p.perf >= chosen.perf)
            || (p.power_w <= chosen.power_w && p.perf > chosen.perf)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::KernelProfile;
    use acs_sim::{CpuPState, Device, KernelCharacteristics, Machine};

    fn pts() -> Vec<PowerPerfPoint> {
        let m = Machine::noiseless(0);
        KernelProfile::collect(&m, &KernelCharacteristics::default()).true_points()
    }

    #[test]
    fn max_perf_picks_fastest() {
        let points = pts();
        let cfg = Objective::MaxPerf.select(&points).unwrap();
        let best = points.iter().max_by(|a, b| a.perf.partial_cmp(&b.perf).unwrap()).unwrap();
        assert_eq!(cfg, best.config);
    }

    #[test]
    fn cap_objective_matches_frontier_selection() {
        let points = pts();
        let frontier = crate::frontier::Frontier::from_points(points.clone());
        for cap in [10.0, 15.0, 22.0, 30.0, 100.0] {
            let via_objective = Objective::MaxPerfUnderCap(cap).select(&points).unwrap();
            let via_frontier = frontier.select(cap).0.config;
            assert_eq!(via_objective, via_frontier, "cap {cap}");
        }
    }

    #[test]
    fn unreachable_cap_falls_back_to_min_power() {
        let points = pts();
        let cfg = Objective::MaxPerfUnderCap(0.1).select(&points).unwrap();
        let min = points.iter().min_by(|a, b| a.power_w.partial_cmp(&b.power_w).unwrap()).unwrap();
        assert_eq!(cfg, min.config);
    }

    #[test]
    fn energy_objectives_order_sensibly() {
        // min-E leans frugal, ED2P leans fast: perf(min-E) ≤ perf(EDP) ≤
        // perf(ED2P) for a convex frontier.
        let points = pts();
        let perf_of = |o: Objective| {
            let cfg = o.select(&points).unwrap();
            points.iter().find(|p| p.config == cfg).unwrap().perf
        };
        let e = perf_of(Objective::MinEnergy);
        let edp = perf_of(Objective::MinEnergyDelay);
        let ed2p = perf_of(Objective::MinEnergyDelaySquared);
        assert!(e <= edp + 1e-12, "min-E ({e}) should be no faster than min-EDP ({edp})");
        assert!(edp <= ed2p + 1e-12, "min-EDP ({edp}) should be no faster than min-ED2P ({ed2p})");
    }

    #[test]
    fn every_objective_lands_on_the_frontier() {
        let points = pts();
        for o in [
            Objective::MaxPerfUnderCap(20.0),
            Objective::MinEnergy,
            Objective::MinEnergyDelay,
            Objective::MinEnergyDelaySquared,
            Objective::MaxPerf,
        ] {
            let cfg = o.select(&points).unwrap();
            assert!(is_on_frontier(&points, &cfg), "{} picked a dominated point", o.name());
        }
    }

    #[test]
    fn gpu_wins_energy_for_gpu_friendly_kernel() {
        // A strongly GPU-friendly kernel finishes so much faster on the
        // GPU that energy favors it despite higher power.
        let m = Machine::noiseless(0);
        let k = KernelCharacteristics { gpu_speedup: 20.0, ..Default::default() };
        let points = KernelProfile::collect(&m, &k).true_points();
        let cfg = Objective::MinEnergyDelay.select(&points).unwrap();
        assert_eq!(cfg.device, Device::Gpu);
    }

    #[test]
    fn empty_points_yield_none() {
        assert!(Objective::MaxPerf.select(&[]).is_none());
    }

    #[test]
    fn cost_is_monotone_in_power_for_energy_goals() {
        let a = PowerPerfPoint {
            config: Configuration::cpu(1, CpuPState::MIN),
            power_w: 10.0,
            perf: 2.0,
        };
        let b = PowerPerfPoint { power_w: 20.0, ..a };
        for o in [Objective::MinEnergy, Objective::MinEnergyDelay] {
            assert!(o.cost(&a) < o.cost(&b));
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Objective::MaxPerfUnderCap(5.0).name(), "perf@cap");
        assert_eq!(Objective::MinEnergyDelaySquared.name(), "min-ED2P");
    }
}
