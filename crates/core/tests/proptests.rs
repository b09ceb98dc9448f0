//! Property-based tests for frontiers, dissimilarity, and selection.

use acs_core::dissimilarity::frontier_dissimilarity;
use acs_core::{Frontier, PowerPerfPoint};
use acs_sim::{Configuration, CpuPState, GpuPState};
use proptest::prelude::*;

/// Arbitrary (power, perf) points over distinct configurations.
fn points_strategy() -> impl Strategy<Value = Vec<PowerPerfPoint>> {
    prop::collection::vec((0usize..42, 5.0..60.0f64, 0.1..100.0f64), 1..42).prop_map(|raw| {
        let space = Configuration::all();
        raw.into_iter()
            .map(|(ci, power_w, perf)| PowerPerfPoint { config: space[ci], power_w, perf })
            .collect()
    })
}

/// A frontier built from a random subset of configurations with generated
/// monotone power/perf (so the frontier keeps them all in a random order
/// of configuration identity).
fn frontier_strategy() -> impl Strategy<Value = Frontier> {
    prop::collection::btree_set(0usize..42, 2..20).prop_flat_map(|set| {
        let n = set.len();
        (Just(set), prop::collection::vec(0.1..2.0f64, n)).prop_map(|(set, steps)| {
            let space = Configuration::all();
            let mut power = 5.0;
            let mut perf = 1.0;
            let pts = set
                .into_iter()
                .zip(steps)
                .map(|(ci, step)| {
                    power += step;
                    perf += step;
                    PowerPerfPoint { config: space[ci], power_w: power, perf }
                })
                .collect();
            Frontier::from_points(pts)
        })
    })
}

proptest! {
    #[test]
    fn frontier_points_are_mutually_nondominated(points in points_strategy()) {
        let f = Frontier::from_points(points.clone());
        let pts = f.points();
        for a in pts {
            for b in pts {
                if a.config != b.config {
                    let dominates = a.power_w <= b.power_w && a.perf >= b.perf;
                    prop_assert!(!dominates, "{a:?} dominates {b:?}");
                }
            }
        }
    }

    #[test]
    fn frontier_dominates_every_input_point(points in points_strategy()) {
        let f = Frontier::from_points(points.clone());
        for p in &points {
            let covered = f.points().iter().any(|q| q.power_w <= p.power_w && q.perf >= p.perf);
            prop_assert!(covered, "input point {p:?} not covered by the frontier");
        }
    }

    #[test]
    fn frontier_is_strictly_monotone(points in points_strategy()) {
        let f = Frontier::from_points(points);
        for w in f.points().windows(2) {
            prop_assert!(w[0].power_w < w[1].power_w);
            prop_assert!(w[0].perf < w[1].perf);
        }
    }

    #[test]
    fn frontier_is_idempotent(points in points_strategy()) {
        let f = Frontier::from_points(points);
        let again = Frontier::from_points(f.points().to_vec());
        prop_assert_eq!(f, again);
    }

    #[test]
    fn best_under_is_optimal_feasible(points in points_strategy(), cap in 5.0..60.0f64) {
        let f = Frontier::from_points(points.clone());
        match f.best_under(cap) {
            Some(best) => {
                prop_assert!(best.power_w <= cap);
                for p in f.points() {
                    if p.power_w <= cap {
                        prop_assert!(p.perf <= best.perf);
                    }
                }
            }
            None => {
                for p in f.points() {
                    prop_assert!(p.power_w > cap);
                }
            }
        }
    }

    #[test]
    fn best_under_binary_search_matches_linear_scan(
        points in points_strategy(),
        caps in prop::collection::vec((0usize..4, 0.0..80.0f64), 1..8).prop_map(|raw| {
            raw.into_iter()
                .map(|(kind, cap)| match kind {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => -1.0,
                    _ => cap,
                })
                .collect::<Vec<f64>>()
        }),
    ) {
        // `best_under` is a partition_point binary search over the
        // power-sorted invariant; it must pick exactly what the scalar
        // reverse scan it replaced picked, for any frontier and cap
        // (including NaN and out-of-range caps).
        let f = Frontier::from_points(points);
        for cap in caps {
            let linear = f.points().iter().rev().find(|p| p.power_w <= cap);
            let binary = f.best_under(cap);
            match (linear, binary) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.config, b.config, "cap {}", cap);
                    prop_assert_eq!(a.power_w.to_bits(), b.power_w.to_bits());
                    prop_assert_eq!(a.perf.to_bits(), b.perf.to_bits());
                }
                (a, b) => prop_assert!(false, "cap {}: linear {:?} vs binary {:?}", cap, a, b),
            }
            // The cap rule: `select` is `best_under`, else the
            // minimum-power point, and says which of the two it was (a NaN
            // cap and a cap below every point are both infeasible).
            let (picked, feasible) = f.select(cap);
            prop_assert_eq!(feasible, binary.is_some(), "cap {}", cap);
            prop_assert_eq!(Some(picked), binary.or(f.min_power()), "cap {}", cap);
        }
        // A cap exactly at a point's power is met by that point.
        for p in f.points() {
            prop_assert_eq!(f.select(p.power_w), (p, true));
        }
    }

    #[test]
    fn normalization_preserves_order_and_caps_at_one(points in points_strategy()) {
        let f = Frontier::from_points(points);
        let n = f.normalized();
        prop_assert_eq!(n.len(), f.len());
        if let Some(top) = n.max_perf() {
            prop_assert!((top.perf - 1.0).abs() < 1e-12);
        }
        for p in n.points() {
            prop_assert!(p.perf <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn dissimilarity_is_a_bounded_symmetric_semimetric(a in frontier_strategy(), b in frontier_strategy()) {
        let dab = frontier_dissimilarity(&a, &b);
        let dba = frontier_dissimilarity(&b, &a);
        prop_assert!((0.0..=1.0).contains(&dab), "d = {dab}");
        prop_assert!((dab - dba).abs() < 1e-12, "asymmetric: {dab} vs {dba}");
        prop_assert_eq!(frontier_dissimilarity(&a, &a), 0.0);
    }

    #[test]
    fn equal_power_duplicate_configs_resolve_deterministically(
        perf_a in 0.1..10.0f64,
        perf_b in 0.1..10.0f64,
    ) {
        let cfg = Configuration::cpu(1, CpuPState::MIN);
        let other = Configuration::gpu(GpuPState::MIN, CpuPState::MIN);
        let pts = vec![
            PowerPerfPoint { config: cfg, power_w: 10.0, perf: perf_a },
            PowerPerfPoint { config: other, power_w: 10.0, perf: perf_b },
        ];
        let f = Frontier::from_points(pts);
        prop_assert_eq!(f.len(), 1);
        prop_assert_eq!(f.points()[0].perf, perf_a.max(perf_b));
    }
}
