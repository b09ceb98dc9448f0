//! The oracle's answer at one cap.
//!
//! Ground truth for every differential check is the exhaustive sweep:
//! `KernelProfile::oracle_frontier` is the true-power Pareto frontier of
//! a kernel's 42 configurations on a seeded machine, and
//! `Frontier::select` answers "what would a perfect-knowledge scheduler
//! have picked at this cap?". [`OracleChoice`] is that answer as
//! [`crate::differential`] records it.

use acs_core::PowerPerfPoint;
use acs_sim::Configuration;
use serde::{Deserialize, Serialize};

/// The oracle's answer at one cap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OracleChoice {
    /// The selected configuration.
    pub config: Configuration,
    /// Its true power, W.
    pub power_w: f64,
    /// Its performance (inverse time).
    pub perf: f64,
    /// Whether the selection meets the cap (false only when no
    /// configuration can: the oracle fell back to minimum power).
    pub feasible: bool,
}

impl OracleChoice {
    /// The answer `Frontier::select` gave on a true-power frontier.
    pub fn new(point: &PowerPerfPoint, feasible: bool) -> Self {
        Self { config: point.config, power_w: point.power_w, perf: point.perf, feasible }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_core::KernelProfile;
    use acs_sim::{KernelCharacteristics, Machine};

    #[test]
    fn choice_is_optimal_and_flags_feasibility() {
        let f = KernelProfile::collect(&Machine::new(3), &KernelCharacteristics::default())
            .oracle_frontier();
        let choose = |cap_w| {
            let (point, feasible) = f.select(cap_w);
            OracleChoice::new(point, feasible)
        };
        let generous = choose(1e9);
        assert!(generous.feasible);
        assert_eq!(generous.perf, f.max_perf().unwrap().perf);
        let impossible = choose(0.1);
        assert!(!impossible.feasible);
        assert_eq!(impossible.power_w, f.min_power().unwrap().power_w);
    }
}
