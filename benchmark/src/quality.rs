//! Selection quality, judged against the simulator's ground truth.
//!
//! The paper's two headline numbers (Table III) are how often a selected
//! configuration really stays under the cap, and how much of the oracle's
//! performance it keeps when it does. The serve workloads compute the
//! same two numbers over the selections the server actually returned, so
//! a serve-path change that alters what is selected shows up even if
//! every reply still parses.

use acs_core::methods::oracle_select;
use acs_core::KernelProfile;
use acs_sim::Configuration;

/// Same tolerance `core::eval` uses for "meets the power constraint".
const CAP_EPSILON: f64 = 1e-9;

/// Running tallies over judged selections.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    judged: f64,
    under: f64,
    perf_ratio_sum: f64,
}

/// One selection's verdict: whether its true power met the budget, and
/// its performance as a share of the oracle's at that budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    under: bool,
    perf_ratio: f64,
}

/// Judge `config` for the kernel behind `profile` under `budget_w`.
/// `None` when the configuration is not in the machine's space.
pub fn judge(profile: &KernelProfile, config: &Configuration, budget_w: f64) -> Option<Verdict> {
    if Configuration::all().get(config.index()) != Some(config) {
        return None;
    }
    let run = profile.run_at(config);
    let oracle = profile.run_at(&oracle_select(profile, budget_w));
    Some(Verdict {
        under: run.true_power_w() <= budget_w * (1.0 + CAP_EPSILON),
        perf_ratio: oracle.time_s / run.time_s,
    })
}

impl Quality {
    /// Count a verdict `weight` times.
    pub fn add(&mut self, verdict: Verdict, weight: f64) {
        self.judged += weight;
        if verdict.under {
            self.under += weight;
            self.perf_ratio_sum += weight * verdict.perf_ratio;
        }
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: &Quality) {
        self.judged += other.judged;
        self.under += other.under;
        self.perf_ratio_sum += other.perf_ratio_sum;
    }

    /// Percent of judged selections whose true power met the budget.
    pub fn caps_met_pct(&self) -> f64 {
        100.0 * self.under / self.judged
    }

    /// Percent of oracle performance kept, over the selections that met
    /// the budget.
    pub fn oracle_perf_pct(&self) -> f64 {
        100.0 * self.perf_ratio_sum / self.under
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_sim::Machine;

    #[test]
    fn the_oracle_itself_scores_one_hundred() {
        let kernel = &acs_kernels::all_kernel_instances()[0];
        let profile = KernelProfile::collect(&Machine::new(2014), kernel);
        let mut q = Quality::default();
        for budget_w in [12.0, 20.0, 35.0, 60.0] {
            let config = oracle_select(&profile, budget_w);
            if profile.run_at(&config).true_power_w() <= budget_w {
                q.add(judge(&profile, &config, budget_w).unwrap(), 1.0);
            }
        }
        assert_eq!(q.caps_met_pct(), 100.0);
        assert!((q.oracle_perf_pct() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn over_cap_selections_lower_caps_met_only() {
        let kernel = &acs_kernels::all_kernel_instances()[0];
        let profile = KernelProfile::collect(&Machine::new(2014), kernel);
        let hungry = profile.best_run().config;
        let verdict = judge(&profile, &hungry, 1.0).unwrap();
        let mut q = Quality::default();
        q.add(verdict, 3.0);
        q.add(judge(&profile, &oracle_select(&profile, 60.0), 60.0).unwrap(), 1.0);
        assert_eq!(q.caps_met_pct(), 25.0);
        assert!((q.oracle_perf_pct() - 100.0).abs() < 1e-12);
    }
}
