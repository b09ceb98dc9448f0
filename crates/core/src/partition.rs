//! Multi-application power partitioning.
//!
//! Section II: "accurate single-application models are a necessary
//! ingredient in multi-application optimization systems". This module
//! builds that system on top of the single-kernel model: given one node
//! power budget and several co-scheduled applications (each represented by
//! its kernels' predicted Pareto frontiers), split the budget so that the
//! node-level objective is maximized.
//!
//! The partitioner exploits the predicted frontiers' key property: for any
//! per-app budget, the app's attainable performance is a known
//! non-decreasing step function. Budget splitting is then a small discrete
//! optimization, solved exactly by dynamic programming over wattage steps.

use crate::frontier::Frontier;
use serde::{Deserialize, Serialize};

/// An application's demand curve: attainable (predicted) performance as a
/// function of its power budget, derived from a per-kernel weighted blend
/// of predicted frontiers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemandCurve {
    /// Application label.
    pub app: String,
    /// `(budget_w, relative_perf)` steps, sorted by budget, strictly
    /// increasing in both coordinates.
    pub steps: Vec<(f64, f64)>,
}

impl DemandCurve {
    /// Build a demand curve from per-kernel predicted frontiers with
    /// iteration weights. Relative performance is the weighted harmonic
    /// blend of per-kernel normalized performance: kernels execute
    /// sequentially, so app slowdown is the weighted sum of per-kernel
    /// slowdowns (Amdahl over kernels).
    pub fn from_frontiers(app: &str, frontiers: &[(f64, Frontier)]) -> Self {
        assert!(!frontiers.is_empty(), "an app needs at least one kernel");
        // Candidate budgets: every distinct per-kernel frontier power.
        let mut budgets: Vec<f64> =
            frontiers.iter().flat_map(|(_, f)| f.points().iter().map(|p| p.power_w)).collect();
        budgets.sort_by(|a, b| a.partial_cmp(b).unwrap());
        budgets.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

        let mut steps = Vec::new();
        let mut last_perf = -1.0;
        for &budget in &budgets {
            // Every kernel independently picks its best point under the
            // budget (the cap applies to the node at any instant; kernels
            // run sequentially, so each kernel gets the full app budget).
            let mut slowdown = 0.0;
            let mut feasible = true;
            for (weight, frontier) in frontiers {
                let best = frontier.best_under(budget);
                let max = frontier.max_perf().expect("non-empty frontier").perf;
                match best {
                    Some(p) => slowdown += weight * max / p.perf,
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if !feasible {
                continue;
            }
            let perf = 1.0 / slowdown;
            if perf > last_perf + 1e-12 {
                steps.push((budget, perf));
                last_perf = perf;
            }
        }
        Self { app: app.to_string(), steps }
    }

    /// Attainable relative performance at a budget (0 when even the
    /// cheapest configurations don't fit).
    pub fn perf_at(&self, budget_w: f64) -> f64 {
        self.steps
            .iter()
            .rev()
            .find(|(b, _)| *b <= budget_w + 1e-12)
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    }

    /// The minimum budget at which the app can run at all.
    pub fn min_budget_w(&self) -> Option<f64> {
        self.steps.first().map(|(b, _)| *b)
    }
}

/// Result of partitioning a node budget across applications.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    /// Per-app budgets, aligned with the input curves.
    pub budgets_w: Vec<f64>,
    /// Per-app attained relative performance.
    pub perfs: Vec<f64>,
    /// The node objective value (sum of relative performances).
    pub objective: f64,
}

/// Node-level goal a partition optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PartitionObjective {
    /// Maximize total relative performance (throughput). Can starve an
    /// application whose marginal watts are better spent elsewhere.
    SumPerf,
    /// Maximize the minimum relative performance across applications
    /// (egalitarian fairness). Never parks an app that could run.
    MaxMin,
}

/// Split `total_w` across the demand curves under the given objective, by
/// dynamic programming over `resolution_w`-sized wattage quanta. Exact up
/// to the quantization.
pub fn partition_budget_with(
    curves: &[DemandCurve],
    total_w: f64,
    resolution_w: f64,
    objective: PartitionObjective,
) -> Partition {
    assert!(!curves.is_empty(), "need at least one application");
    assert!(resolution_w > 0.0, "resolution must be positive");
    let quanta = (total_w / resolution_w).floor() as usize;

    // Objective combiner: sum for throughput, min for fairness. The DP
    // over a monotone combiner stays optimal because each app's perf is
    // non-decreasing in its own budget.
    let combine = |acc: f64, perf: f64| -> f64 {
        match objective {
            PartitionObjective::SumPerf => acc + perf,
            PartitionObjective::MaxMin => acc.min(perf),
        }
    };
    let identity = match objective {
        PartitionObjective::SumPerf => 0.0,
        PartitionObjective::MaxMin => f64::INFINITY,
    };

    // dp[q] = best objective using q quanta over the first i apps;
    // choice[i][q] = quanta given to app i in that optimum.
    let mut dp = vec![identity; quanta + 1];
    let mut choice = vec![vec![0usize; quanta + 1]; curves.len()];

    for (i, curve) in curves.iter().enumerate() {
        let mut next = vec![f64::NEG_INFINITY; quanta + 1];
        for q in 0..=quanta {
            for give in 0..=q {
                let perf = curve.perf_at(give as f64 * resolution_w);
                let value = combine(dp[q - give], perf);
                if value > next[q] {
                    next[q] = value;
                    choice[i][q] = give;
                }
            }
        }
        dp = next;
    }

    // Recover the allocation.
    let mut budgets = vec![0.0; curves.len()];
    let mut q = quanta;
    for i in (0..curves.len()).rev() {
        let give = choice[i][q];
        budgets[i] = give as f64 * resolution_w;
        q -= give;
    }
    let perfs: Vec<f64> = curves.iter().zip(&budgets).map(|(c, &b)| c.perf_at(b)).collect();
    let objective_value = match objective {
        PartitionObjective::SumPerf => perfs.iter().sum(),
        PartitionObjective::MaxMin => perfs.iter().cloned().fold(f64::INFINITY, f64::min),
    };

    Partition { budgets_w: budgets, perfs, objective: objective_value }
}

/// Split `total_w` to maximize total relative performance (the default
/// throughput objective).
pub fn partition_budget(curves: &[DemandCurve], total_w: f64, resolution_w: f64) -> Partition {
    partition_budget_with(curves, total_w, resolution_w, PartitionObjective::SumPerf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::PowerPerfPoint;
    use acs_sim::Configuration;

    fn frontier(points: &[(f64, f64)]) -> Frontier {
        let space = Configuration::all();
        Frontier::from_points(
            points
                .iter()
                .enumerate()
                .map(|(i, &(w, p))| PowerPerfPoint { config: space[i], power_w: w, perf: p })
                .collect(),
        )
    }

    fn linear_curve(app: &str) -> DemandCurve {
        DemandCurve::from_frontiers(
            app,
            &[(1.0, frontier(&[(10.0, 1.0), (20.0, 2.0), (30.0, 3.0)]))],
        )
    }

    #[test]
    fn demand_curve_is_monotone() {
        let c = linear_curve("a");
        assert_eq!(c.min_budget_w(), Some(10.0));
        for w in c.steps.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert_eq!(c.perf_at(5.0), 0.0);
        assert!(c.perf_at(30.0) > c.perf_at(10.0));
        assert_eq!(c.perf_at(1e9), c.steps.last().unwrap().1);
    }

    #[test]
    fn sequential_kernel_blend_is_weighted_harmonic() {
        // Two equally-weighted kernels, one scalable, one flat: app perf
        // at a low budget is dominated by the slow one.
        let scalable = frontier(&[(10.0, 1.0), (30.0, 10.0)]);
        let flat = frontier(&[(10.0, 1.0), (30.0, 1.2)]);
        let c = DemandCurve::from_frontiers("x", &[(0.5, scalable), (0.5, flat)]);
        let full = c.perf_at(30.0);
        // slowdown = 0.5·(10/10) wait: at 30 W both run at max → perf 1.0.
        assert!((full - 1.0).abs() < 1e-9);
        let low = c.perf_at(10.0);
        // At 10 W: scalable at 1/10 of max, flat at 1/1.2 of max →
        // slowdown = 0.5·10 + 0.5·1.2 = 5.6 → perf ≈ 0.1786.
        assert!((low - 1.0 / 5.6).abs() < 1e-9, "{low}");
    }

    #[test]
    fn partition_of_identical_linear_apps_is_optimal() {
        // Relative performance is normalized to 1 at each app's max, so a
        // linear curve yields perf 1/3, 2/3, 1 at 10/20/30 W. Any split of
        // 40 W scores the optimal 4/3, with both apps running.
        let curves = vec![linear_curve("a"), linear_curve("b")];
        let p = partition_budget(&curves, 40.0, 1.0);
        assert!(p.budgets_w.iter().sum::<f64>() <= 40.0 + 1e-9);
        assert!((p.objective - 4.0 / 3.0).abs() < 1e-9, "{p:?}");
        assert!(p.perfs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn partition_favors_the_scalable_app() {
        // App a gains a lot from extra watts; app b plateaus early.
        let a = DemandCurve::from_frontiers(
            "a",
            &[(1.0, frontier(&[(10.0, 1.0), (20.0, 4.0), (30.0, 9.0)]))],
        );
        let b = DemandCurve::from_frontiers(
            "b",
            &[(1.0, frontier(&[(10.0, 1.0), (20.0, 1.1), (30.0, 1.2)]))],
        );
        let p = partition_budget(&[a, b], 40.0, 1.0);
        assert!(p.budgets_w[0] > p.budgets_w[1], "{:?}", p.budgets_w);
        assert_eq!(p.budgets_w[0], 30.0);
        assert_eq!(p.budgets_w[1], 10.0);
    }

    #[test]
    fn partition_respects_total_budget() {
        let curves = vec![linear_curve("a"), linear_curve("b"), linear_curve("c")];
        for total in [25.0, 47.0, 90.0] {
            let p = partition_budget(&curves, total, 0.5);
            assert!(p.budgets_w.iter().sum::<f64>() <= total + 1e-9);
        }
    }

    #[test]
    fn starved_partition_zeroes_an_app() {
        // 15 W cannot run two apps that each need 10 W minimum: one app
        // gets the watts, the other gets parked.
        let curves = vec![linear_curve("a"), linear_curve("b")];
        let p = partition_budget(&curves, 15.0, 1.0);
        let running = p.perfs.iter().filter(|&&x| x > 0.0).count();
        assert_eq!(running, 1);
    }

    #[test]
    fn finer_resolution_never_hurts() {
        let a = DemandCurve::from_frontiers("a", &[(1.0, frontier(&[(9.5, 1.0), (19.5, 2.5)]))]);
        let b = linear_curve("b");
        let coarse = partition_budget(&[a.clone(), b.clone()], 29.5, 2.0);
        let fine = partition_budget(&[a, b], 29.5, 0.25);
        assert!(fine.objective >= coarse.objective - 1e-9);
    }

    #[test]
    fn maxmin_never_starves_when_both_fit() {
        // 20 W: both apps *can* run at 10 W each. Throughput prefers
        // giving everything to one app only when that scores higher; the
        // fair objective must keep both alive.
        let curves = vec![linear_curve("a"), linear_curve("b")];
        let fair = partition_budget_with(&curves, 20.0, 1.0, PartitionObjective::MaxMin);
        assert!(fair.perfs.iter().all(|&p| p > 0.0), "{fair:?}");
        // And with 15 W (only one can run), fairness still picks the best
        // of the bad options — objective value 0.
        let starved = partition_budget_with(&curves, 15.0, 1.0, PartitionObjective::MaxMin);
        assert_eq!(starved.objective, 0.0);
    }

    #[test]
    fn maxmin_equalizes_identical_apps() {
        let curves = vec![linear_curve("a"), linear_curve("b")];
        let fair = partition_budget_with(&curves, 60.0, 1.0, PartitionObjective::MaxMin);
        assert!((fair.perfs[0] - fair.perfs[1]).abs() < 1e-9, "{fair:?}");
        assert!((fair.objective - 1.0).abs() < 1e-9, "both reach max at 30 W each");
    }

    #[test]
    fn throughput_beats_or_ties_fairness_on_sum() {
        let a = DemandCurve::from_frontiers(
            "a",
            &[(1.0, frontier(&[(10.0, 1.0), (20.0, 4.0), (30.0, 9.0)]))],
        );
        let b = linear_curve("b");
        let sum =
            partition_budget_with(&[a.clone(), b.clone()], 40.0, 1.0, PartitionObjective::SumPerf);
        let fair = partition_budget_with(&[a, b], 40.0, 1.0, PartitionObjective::MaxMin);
        let total = |p: &Partition| p.perfs.iter().sum::<f64>();
        assert!(total(&sum) >= total(&fair) - 1e-9);
        // And fairness's minimum is at least throughput's minimum.
        let min = |p: &Partition| p.perfs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min(&fair) >= min(&sum) - 1e-9);
    }

    #[test]
    fn end_to_end_with_real_predictions() {
        use crate::offline::{train, TrainingParams};
        use crate::online::Predictor;
        use crate::profile::collect_suite;
        use acs_sim::{KernelCharacteristics, Machine};

        let m = Machine::new(7);
        let mut kernels = Vec::new();
        for i in 0..6u32 {
            kernels.push(KernelCharacteristics {
                name: format!("k{i}"),
                gpu_speedup: 2.0 + i as f64 * 2.5,
                ..Default::default()
            });
        }
        let profiles = collect_suite(&m, &kernels);
        let model =
            train(&profiles, TrainingParams { n_clusters: 3, ..Default::default() }).unwrap();
        let predictor = Predictor::new(&model);

        // Two "apps" of three kernels each, using predicted frontiers.
        let mut curves = Vec::new();
        for (label, chunk) in [("app-a", &profiles[..3]), ("app-b", &profiles[3..])] {
            let frontiers: Vec<(f64, Frontier)> = chunk
                .iter()
                .map(|p| (1.0 / 3.0, predictor.predict(&p.sample_pair()).frontier))
                .collect();
            curves.push(DemandCurve::from_frontiers(label, &frontiers));
        }

        let p = partition_budget(&curves, 50.0, 1.0);
        assert!(p.budgets_w.iter().sum::<f64>() <= 50.0 + 1e-9);
        assert!(p.perfs.iter().all(|&x| x > 0.0), "both apps run at 50 W: {:?}", p);
    }
}
