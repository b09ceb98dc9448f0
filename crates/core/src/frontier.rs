//! Power–performance Pareto frontiers (Section III-B, Figure 2).
//!
//! A configuration is on the frontier when no other configuration delivers
//! at least its performance for no more power. Frontiers are stored sorted
//! by increasing power (equivalently increasing performance), which defines
//! the *ordering* that the kernel-dissimilarity computation compares.

use acs_sim::Configuration;
use serde::{Deserialize, Serialize};

/// One (configuration, power, performance) observation or prediction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerPerfPoint {
    /// The configuration.
    pub config: Configuration,
    /// Average package power, W.
    pub power_w: f64,
    /// Performance (inverse time; any fixed positive scale works).
    pub perf: f64,
}

/// A Pareto frontier: points sorted by increasing power, strictly
/// increasing performance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Frontier {
    points: Vec<PowerPerfPoint>,
}

impl Frontier {
    /// Extract the Pareto frontier from arbitrary points.
    ///
    /// Dominated points (another point has `power ≤` and `perf ≥`, with at
    /// least one strict) are discarded. Among points with identical power,
    /// only the best-performing survives.
    pub fn from_points(mut points: Vec<PowerPerfPoint>) -> Self {
        // Sort by power ascending; among equal power, best perf first so
        // the scan keeps it and drops the rest.
        points.sort_by(|a, b| {
            a.power_w
                .partial_cmp(&b.power_w)
                .unwrap()
                .then_with(|| b.perf.partial_cmp(&a.perf).unwrap())
                // Stable, deterministic order for exact duplicates.
                .then_with(|| a.config.index().cmp(&b.config.index()))
        });
        let mut frontier: Vec<PowerPerfPoint> = Vec::new();
        for p in points {
            match frontier.last() {
                Some(last) if p.perf <= last.perf => {} // dominated
                Some(last) if p.power_w == last.power_w => {
                    // Same power, better perf cannot happen after the sort
                    // (best perf came first), so this branch is dominated
                    // too; kept for clarity.
                }
                _ => frontier.push(p),
            }
        }
        Self { points: frontier }
    }

    /// Wrap points that already satisfy the frontier invariant (strictly
    /// increasing power and performance) — the fast path's non-domination
    /// sweep produces exactly [`Frontier::from_points`]' output, so
    /// re-sorting it would be wasted work.
    pub(crate) fn from_sorted(points: Vec<PowerPerfPoint>) -> Self {
        debug_assert!(points
            .windows(2)
            .all(|w| w[0].power_w < w[1].power_w && w[0].perf < w[1].perf));
        Self { points }
    }

    /// The frontier points, sorted by increasing power.
    pub fn points(&self) -> &[PowerPerfPoint] {
        &self.points
    }

    /// Number of frontier configurations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the frontier is empty (no input points).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The best-performing point whose power does not exceed `cap_w`.
    ///
    /// Power is strictly increasing, so `power ≤ cap` holds on a prefix
    /// and binary search finds its end — O(log n) on the hot re-selection
    /// path. A NaN cap makes the predicate false everywhere, i.e. `None`,
    /// exactly like the linear scan this replaces (proptest-gated in
    /// `tests/proptests.rs`).
    pub fn best_under(&self, cap_w: f64) -> Option<&PowerPerfPoint> {
        let idx = self.points.partition_point(|p| p.power_w <= cap_w);
        if idx == 0 {
            None
        } else {
            Some(&self.points[idx - 1])
        }
    }

    /// The minimum-power point (the fallback when no point meets a cap).
    pub fn min_power(&self) -> Option<&PowerPerfPoint> {
        self.points.first()
    }

    /// The cap rule of Section III-C, stated once: the best-performing
    /// point under `cap_w`, else the minimum-power point (the kernel must
    /// still run somewhere). The flag is whether the cap was met — false
    /// exactly when [`best_under`](Self::best_under) is `None`. Panics on
    /// an empty frontier; a swept or predicted configuration space never
    /// yields one.
    pub fn select(&self, cap_w: f64) -> (&PowerPerfPoint, bool) {
        match self.best_under(cap_w) {
            Some(point) => (point, true),
            None => (self.min_power().expect("frontier is never empty"), false),
        }
    }

    /// The maximum-performance point.
    pub fn max_perf(&self) -> Option<&PowerPerfPoint> {
        self.points.last()
    }

    /// The rank (position in increasing-power order) of each of `configs`
    /// within this frontier; `None` for configurations not on the frontier.
    pub fn rank_of(&self, config: &Configuration) -> Option<usize> {
        self.points.iter().position(|p| &p.config == config)
    }

    /// Configuration indices present on this frontier, in frontier order.
    pub fn config_indices(&self) -> Vec<usize> {
        self.points.iter().map(|p| p.config.index()).collect()
    }

    /// A copy with performance normalized so the best point is 1.0
    /// (the per-kernel normalization of Figure 2).
    pub fn normalized(&self) -> Frontier {
        let max = self.max_perf().map_or(1.0, |p| p.perf).max(1e-300);
        Frontier {
            points: self
                .points
                .iter()
                .map(|p| PowerPerfPoint { perf: p.perf / max, ..*p })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_sim::CpuPState;

    fn cfg(i: u8) -> Configuration {
        Configuration::cpu(1 + (i % 4), CpuPState(i % 6))
    }

    fn pt(i: u8, power: f64, perf: f64) -> PowerPerfPoint {
        PowerPerfPoint { config: cfg(i), power_w: power, perf }
    }

    #[test]
    fn extracts_simple_frontier() {
        let f = Frontier::from_points(vec![
            pt(0, 10.0, 1.0),
            pt(1, 20.0, 2.0),
            pt(2, 15.0, 0.5), // dominated by pt(0)
            pt(3, 30.0, 3.0),
        ]);
        assert_eq!(f.len(), 3);
        let powers: Vec<f64> = f.points().iter().map(|p| p.power_w).collect();
        assert_eq!(powers, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn frontier_is_strictly_monotone() {
        let f = Frontier::from_points(vec![
            pt(0, 10.0, 1.0),
            pt(1, 12.0, 1.0), // equal perf at higher power: dominated
            pt(2, 14.0, 2.0),
        ]);
        assert_eq!(f.len(), 2);
        for w in f.points().windows(2) {
            assert!(w[0].power_w < w[1].power_w);
            assert!(w[0].perf < w[1].perf);
        }
    }

    #[test]
    fn equal_power_keeps_best_perf() {
        let f = Frontier::from_points(vec![pt(0, 10.0, 1.0), pt(1, 10.0, 2.0)]);
        assert_eq!(f.len(), 1);
        assert_eq!(f.points()[0].perf, 2.0);
    }

    #[test]
    fn best_under_cap() {
        let f = Frontier::from_points(vec![pt(0, 10.0, 1.0), pt(1, 20.0, 2.0), pt(2, 30.0, 3.0)]);
        assert_eq!(f.best_under(25.0).unwrap().perf, 2.0);
        assert_eq!(f.best_under(30.0).unwrap().perf, 3.0);
        assert_eq!(f.best_under(10.0).unwrap().perf, 1.0);
        assert!(f.best_under(5.0).is_none());
    }

    #[test]
    fn endpoints() {
        let f = Frontier::from_points(vec![pt(0, 10.0, 1.0), pt(1, 20.0, 2.0)]);
        assert_eq!(f.min_power().unwrap().power_w, 10.0);
        assert_eq!(f.max_perf().unwrap().perf, 2.0);
    }

    #[test]
    fn empty_input_is_empty_frontier() {
        let f = Frontier::from_points(vec![]);
        assert!(f.is_empty());
        assert!(f.best_under(100.0).is_none());
        assert!(f.min_power().is_none());
        assert!(f.max_perf().is_none());
    }

    #[test]
    fn rank_of_configs() {
        let f = Frontier::from_points(vec![pt(0, 10.0, 1.0), pt(1, 20.0, 2.0)]);
        assert_eq!(f.rank_of(&cfg(0)), Some(0));
        assert_eq!(f.rank_of(&cfg(1)), Some(1));
        assert_eq!(f.rank_of(&cfg(3)), None);
        assert_eq!(f.config_indices(), vec![cfg(0).index(), cfg(1).index()]);
    }

    #[test]
    fn normalization_sets_best_to_one() {
        let f = Frontier::from_points(vec![pt(0, 10.0, 1.0), pt(1, 20.0, 4.0)]);
        let n = f.normalized();
        assert_eq!(n.max_perf().unwrap().perf, 1.0);
        assert_eq!(n.min_power().unwrap().perf, 0.25);
        // Power untouched.
        assert_eq!(n.min_power().unwrap().power_w, 10.0);
    }

    #[test]
    fn single_point_is_its_own_frontier() {
        let f = Frontier::from_points(vec![pt(0, 10.0, 1.0)]);
        assert_eq!(f.len(), 1);
        assert_eq!(f.normalized().points()[0].perf, 1.0);
    }
}
