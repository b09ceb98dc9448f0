//! Kernel dissimilarity from Pareto-frontier orderings (Section III-B).
//!
//! "We first create a kernel dissimilarity matrix by performing pair-wise
//! comparisons of all kernels' frontiers. For each frontier comparison, we
//! first select only the configurations that are present in both frontiers.
//! Then, we compute the Kendall rank correlation coefficient between the
//! orders of the shared configurations within each frontier."
//!
//! The paper's key insight is that similar kernels "will generally have the
//! same configurations on their respective frontiers, arranged in the same
//! order" — two conditions. The dissimilarity therefore blends frontier
//! *membership* (Jaccard distance over the configuration sets) with
//! frontier *ordering* (Kendall's τ over the shared configurations, with
//! τ = +1 mapping to 0 and τ = −1 mapping to 1). Pairs sharing fewer than
//! two configurations carry no ordering information and take the maximum
//! ordering term.

use crate::frontier::Frontier;
use acs_mlstat::Dissimilarity;
use acs_sim::Configuration;

/// Weight of the ordering (Kendall) term; the remainder weights frontier
/// membership.
const ORDER_WEIGHT: f64 = 0.5;

/// The configuration space: a frontier holds at most this many points, and
/// positions on it fit a byte. Membership masks hold one bit per
/// configuration, and a walk's seen-ranks mask one bit per 1-based position.
const SPACE: usize = Configuration::space_size();
const _: () = assert!(SPACE < u8::MAX as usize);
const _: () = assert!(SPACE < u64::BITS as usize);

/// One frontier's ordering, readable both ways: the configurations in
/// frontier order, and each configuration's position on the frontier.
struct RankTable {
    len: usize,
    /// `Configuration::index()` of each point, in frontier order.
    order: [u8; SPACE],
    /// By `Configuration::index()`: one more than the configuration's
    /// position on the frontier, 0 when it is not on it.
    rank: [u8; SPACE],
    /// Bit `Configuration::index()` is set for every configuration on the
    /// frontier.
    members: u64,
    /// Whether some configuration sits on the frontier more than once.
    repeats: bool,
}

impl RankTable {
    fn new(frontier: &Frontier) -> Self {
        let len = frontier.len();
        assert!(len <= SPACE, "a frontier of {len} points over {SPACE} configurations");
        let (mut order, mut rank) = ([0u8; SPACE], [0u8; SPACE]);
        let (mut members, mut repeats) = (0u64, false);
        for (position, point) in frontier.points().iter().enumerate() {
            let config = point.config.index();
            order[position] = config as u8;
            if rank[config] == 0 {
                rank[config] = position as u8 + 1;
            } else {
                repeats = true;
            }
            members |= 1 << config;
        }
        Self { len, order, rank, members, repeats }
    }

    /// [`frontier_dissimilarity`] of the two frontiers the tables were
    /// built from.
    fn dissimilarity(&self, other: &RankTable) -> f64 {
        // The other frontier's ranks of the shared configurations, walked
        // in this frontier's order — so a pair is concordant exactly when
        // its ranks ascend. `shared` counts this frontier's points whose
        // configuration the other holds, and `balance` is concordant −
        // discordant pairs.
        let (shared, balance) = if self.repeats {
            self.shared_pairwise(other)
        } else {
            // Distinct configurations have distinct ranks on the other
            // frontier, so no pair ties: every pair not discordant is
            // concordant. A discordant pair is an earlier, higher rank.
            let shared = (self.members & other.members).count_ones() as usize;
            let mut seen = 0u64;
            let mut discordant = 0u32;
            for &config in &self.order[..self.len] {
                let rank = other.rank[usize::from(config)];
                if rank != 0 {
                    discordant += (seen >> rank).count_ones();
                    seen |= 1 << rank;
                }
            }
            (shared, (shared * shared.saturating_sub(1) / 2) as i64 - 2 * i64::from(discordant))
        };

        let union = self.len + other.len - shared;
        let membership = if union == 0 { 1.0 } else { 1.0 - shared as f64 / union as f64 };

        // Kendall τ-a, `(concordant − discordant) / pairs`; undefined on
        // fewer than two shared configurations.
        let order = if shared < 2 {
            1.0
        } else {
            let pairs = (shared * (shared - 1) / 2) as f64;
            (1.0 - balance as f64 / pairs) / 2.0
        };

        ORDER_WEIGHT * order + (1.0 - ORDER_WEIGHT) * membership
    }

    /// `(shared, concordant − discordant)` pair by pair, for a frontier
    /// that repeats a configuration: each repeat counts as shared again,
    /// and a pair of equal ranks is neither concordant nor discordant.
    fn shared_pairwise(&self, other: &RankTable) -> (usize, i64) {
        let mut ranks = [0u8; SPACE];
        let mut shared = 0;
        for &config in &self.order[..self.len] {
            let rank = other.rank[usize::from(config)];
            if rank != 0 {
                ranks[shared] = rank;
                shared += 1;
            }
        }
        let ranks = &ranks[..shared];
        let mut balance = 0i64;
        for (i, a) in ranks.iter().enumerate() {
            for b in &ranks[i + 1..] {
                balance += i64::from(a < b) - i64::from(a > b);
            }
        }
        (shared, balance)
    }
}

/// Dissimilarity between two frontiers in [0, 1]: a blend of Jaccard
/// set distance over frontier membership and `(1 − τ)/2` over the
/// orderings of shared configurations. Panics on a frontier with more
/// points than there are configurations.
pub fn frontier_dissimilarity(a: &Frontier, b: &Frontier) -> f64 {
    RankTable::new(a).dissimilarity(&RankTable::new(b))
}

/// Build the full pairwise dissimilarity matrix for a set of frontiers.
pub fn dissimilarity_matrix(frontiers: &[Frontier]) -> Dissimilarity {
    let tables: Vec<RankTable> = frontiers.iter().map(RankTable::new).collect();
    let mut d = Dissimilarity::zeros(tables.len());
    for (i, a) in tables.iter().enumerate() {
        for (j, b) in tables[..i].iter().enumerate() {
            d.set(i, j, a.dissimilarity(b));
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::PowerPerfPoint;
    use acs_sim::{Configuration, CpuPState};

    fn cfg(i: u8) -> Configuration {
        Configuration::cpu(1 + (i % 4), CpuPState(i / 4))
    }

    /// A frontier over configs 0..n with the given power ordering.
    fn frontier_with_order(order: &[u8]) -> Frontier {
        let points = order
            .iter()
            .enumerate()
            .map(|(rank, &c)| PowerPerfPoint {
                config: cfg(c),
                power_w: 10.0 + rank as f64,
                perf: 1.0 + rank as f64,
            })
            .collect();
        Frontier::from_points(points)
    }

    #[test]
    fn identical_frontiers_have_zero_dissimilarity() {
        let f = frontier_with_order(&[0, 1, 2, 3]);
        assert_eq!(frontier_dissimilarity(&f, &f), 0.0);
    }

    #[test]
    fn reversed_order_has_max_order_term() {
        // Same membership (Jaccard term 0) but fully reversed order: the
        // ordering term saturates at its weight.
        let a = frontier_with_order(&[0, 1, 2, 3]);
        let b = frontier_with_order(&[3, 2, 1, 0]);
        assert_eq!(frontier_dissimilarity(&a, &b), 0.5);
    }

    #[test]
    fn partial_agreement_is_intermediate() {
        let a = frontier_with_order(&[0, 1, 2, 3]);
        let b = frontier_with_order(&[1, 0, 3, 2]);
        let d = frontier_dissimilarity(&a, &b);
        assert!(d > 0.0 && d < 1.0, "d = {d}");
    }

    #[test]
    fn only_shared_configs_feed_the_order_term() {
        // a: 0,1,2,3 — b: 9,1,8,3 (shares 1 and 3, in the same order):
        // zero ordering disagreement, membership distance 1 − 2/6.
        let a = frontier_with_order(&[0, 1, 2, 3]);
        let b = frontier_with_order(&[9, 1, 8, 3]);
        let expected = 0.5 * (1.0 - 2.0 / 6.0);
        assert!((frontier_dissimilarity(&a, &b) - expected).abs() < 1e-12);
    }

    #[test]
    fn disjoint_frontiers_are_max_dissimilar() {
        let a = frontier_with_order(&[0, 1]);
        let b = frontier_with_order(&[2, 3]);
        assert_eq!(frontier_dissimilarity(&a, &b), 1.0);
    }

    #[test]
    fn single_shared_config_maxes_order_term() {
        // One shared config: no ordering information (order term 1) plus
        // membership distance 1 − 1/3.
        let a = frontier_with_order(&[0, 1]);
        let b = frontier_with_order(&[1, 2]);
        let expected = 0.5 + 0.5 * (1.0 - 1.0 / 3.0);
        assert!((frontier_dissimilarity(&a, &b) - expected).abs() < 1e-12);
    }

    #[test]
    fn dissimilarity_is_symmetric() {
        let a = frontier_with_order(&[0, 2, 1, 3]);
        let b = frontier_with_order(&[2, 0, 3, 1]);
        assert_eq!(frontier_dissimilarity(&a, &b), frontier_dissimilarity(&b, &a));
    }

    #[test]
    fn matrix_is_valid_and_matches_pairwise() {
        let fs = vec![
            frontier_with_order(&[0, 1, 2, 3]),
            frontier_with_order(&[3, 2, 1, 0]),
            frontier_with_order(&[0, 2, 1, 3]),
        ];
        let d = dissimilarity_matrix(&fs);
        assert!(d.validate().is_ok());
        assert_eq!(d.get(0, 1), 0.5);
        assert_eq!(d.get(0, 2), frontier_dissimilarity(&fs[0], &fs[2]));
        assert_eq!(d.get(2, 1), frontier_dissimilarity(&fs[1], &fs[2]));
    }

    #[test]
    fn real_kernels_with_similar_scaling_are_close() {
        use crate::profile::KernelProfile;
        use acs_sim::{KernelCharacteristics, Machine};
        let m = Machine::noiseless(0);
        let base = KernelCharacteristics::default();
        let twin = KernelCharacteristics {
            name: "twin".into(),
            compute_time_s: base.compute_time_s * 1.3, // same shape, different scale
            memory_time_s: base.memory_time_s * 1.3,
            ..base.clone()
        };
        let opposite = KernelCharacteristics {
            name: "opposite".into(),
            gpu_speedup: 0.3,
            parallel_fraction: 0.5,
            memory_time_s: base.memory_time_s * 6.0,
            ..base.clone()
        };
        let f = |k: &KernelCharacteristics| KernelProfile::collect(&m, k).frontier();
        let d_twin = frontier_dissimilarity(&f(&base), &f(&twin));
        let d_opp = frontier_dissimilarity(&f(&base), &f(&opposite));
        assert!(
            d_twin < d_opp,
            "similar-scaling kernels ({d_twin}) must be closer than opposites ({d_opp})"
        );
    }
}
