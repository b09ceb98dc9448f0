//! The cluster power-budget arbiter.
//!
//! The paper selects configurations under a *node-level* cap; its
//! motivating setting (PAPER.md §I) is an overprovisioned cluster where a
//! global budget must be split across nodes. The arbiter treats every
//! connected session as a node and partitions the global cap across them.
//! Two policies:
//!
//! - **Equal share**: every node gets `cap / n`. The baseline.
//! - **Demand proportional**: half the cap is a guaranteed floor split
//!   equally (no node starves), the other half is distributed in
//!   proportion to each node's *demand* — how little residual headroom
//!   (`residual_w`, reported by the node from its `limiter` measurements)
//!   it has under its current budget. A node running far below its budget
//!   donates watts to nodes running at theirs.
//!
//! Budgets change only when nodes join, leave, or report, or when the
//! shard's lease moves the cap: the four [`ArbiterOp`]s that
//! [`Arbiter::apply`] steps and the journal records. Every change
//! bumps an epoch counter so sessions can detect a reshuffle with one
//! atomic-free comparison and re-run selection ([`CappedRuntime::set_cap`]
//! re-selects from cached frontiers — the Section III-C dynamic-constraint
//! property).
//!
//! [`CappedRuntime::set_cap`]: acs_core::CappedRuntime::set_cap

use crate::journal::JournalEntry;
use std::collections::BTreeMap;

/// Watt comparison tolerance, shared by the arbiter and the lease table:
/// the minimum budget change that counts as a reshuffle, and the total
/// demand below which demands are indistinguishable.
pub(crate) const BUDGET_EPS_W: f64 = 1e-9;

/// Fold the floating-point remainder of a split onto the first share so
/// the shares sum back to `target` *exactly*. f64 splits do not sum back
/// to the target in general (`cap/n * n ≠ cap`), and the drift compounds
/// across rebalances into a violated conservation invariant. Each fold
/// re-rounds, so iterate until the re-summed total lands exactly on the
/// target (one or two passes in practice; the bound guards the
/// pathological case where the remainder is below one ulp of the first
/// share and the fold cannot make progress). Shared by the per-process
/// arbiter and the fleet lease table — both conservation gates ride on it.
fn fold_exact_sum(target: f64, shares: &mut [f64]) {
    if shares.is_empty() {
        return;
    }
    for _ in 0..4 {
        let residual = target - shares.iter().sum::<f64>();
        if residual == 0.0 {
            break;
        }
        shares[0] += residual;
    }
}

/// How the global cap is split across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterPolicy {
    /// `cap / n` for every node.
    EqualShare,
    /// An equal floor for half the cap; the rest follows reported demand.
    DemandProportional,
}

impl ArbiterPolicy {
    /// Split `pool_w` into one share per entry of `demands` (non-negative
    /// weights): equal shares, or half the pool as an equal floor and the
    /// other half in proportion to demand — equal again when the demands
    /// are indistinguishable. The shares sum to `pool_w` exactly
    /// (`fold_exact_sum`). The one budget-split formula: the session
    /// arbiter, the lease table's targets and its admission check all
    /// call it.
    pub(crate) fn split(&self, pool_w: f64, demands: &[f64]) -> Vec<f64> {
        let n = demands.len() as f64;
        let mut shares: Vec<f64> = match self {
            ArbiterPolicy::EqualShare => vec![pool_w / n; demands.len()],
            ArbiterPolicy::DemandProportional => {
                let floor = 0.5 * pool_w / n;
                let extra = 0.5 * pool_w;
                let total: f64 = demands.iter().sum();
                if total <= BUDGET_EPS_W {
                    vec![floor + extra / n; demands.len()]
                } else {
                    // Demands that overflow `total` or `extra * d` are
                    // rescaled by their maximum; anywhere else the scale is
                    // 1 and every share keeps its bits.
                    let max = demands.iter().fold(0.0, |max: f64, &d| max.max(d));
                    let finite = total.is_finite() && (extra * max).is_finite();
                    let scale = if finite { 1.0 } else { max };
                    let total: f64 = demands.iter().map(|d| d / scale).sum();
                    demands.iter().map(|d| floor + extra * (d / scale) / total).collect()
                }
            }
        };
        fold_exact_sum(pool_w, &mut shares);
        shares
    }
}

impl std::str::FromStr for ArbiterPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "equal" => Ok(ArbiterPolicy::EqualShare),
            "demand" => Ok(ArbiterPolicy::DemandProportional),
            other => Err(format!("unknown arbiter policy '{other}' (expected equal|demand)")),
        }
    }
}

/// One arbiter transition, as [`Arbiter::apply`] steps it and the
/// journal's `Admit` / `Leave` / `Report` / `Cap` entries record it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArbiterOp {
    /// A session joins ([`Arbiter::join`]).
    Admit { node_id: u64 },
    /// A session leaves ([`Arbiter::leave`]).
    Leave { node_id: u64 },
    /// A session reports its residual headroom, W ([`Arbiter::report`]).
    Report { node_id: u64, residual_w: f64 },
    /// The shard's lease budget becomes the global cap, W. A lease can
    /// shrink, never vanish: a non-positive or non-finite cap is ignored,
    /// and an unchanged one moves no epoch.
    Cap { cap_w: f64 },
}

impl ArbiterOp {
    /// The node the transition is about (`None` for a cap move).
    pub(crate) fn node_id(&self) -> Option<u64> {
        match *self {
            ArbiterOp::Admit { node_id }
            | ArbiterOp::Leave { node_id }
            | ArbiterOp::Report { node_id, .. } => Some(node_id),
            ArbiterOp::Cap { .. } => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct NodeState {
    /// Last reported residual headroom, W (budget minus measured power).
    residual_w: f64,
    /// Current budget, W.
    budget_w: f64,
}

/// Partitions a global power cap across connected nodes.
#[derive(Debug)]
pub struct Arbiter {
    global_cap_w: f64,
    policy: ArbiterPolicy,
    nodes: BTreeMap<u64, NodeState>,
    rebalances: u64,
    epoch: u64,
}

impl Arbiter {
    /// An arbiter over a positive global cap.
    pub fn new(global_cap_w: f64, policy: ArbiterPolicy) -> Self {
        assert!(global_cap_w > 0.0, "global cap must be positive");
        Self { global_cap_w, policy, nodes: BTreeMap::new(), rebalances: 0, epoch: 0 }
    }

    /// The global cap, W.
    pub fn global_cap_w(&self) -> f64 {
        self.global_cap_w
    }

    /// Number of connected nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// How many times a rebalance actually changed at least one budget.
    pub(crate) fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// Monotonic counter bumped on every budget change; sessions compare
    /// it against their last seen value to detect reshuffles cheaply.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Admit a node and return its budget. A fresh node starts with zero
    /// reported residual (maximum demand) until its first report.
    pub fn join(&mut self, node_id: u64) -> f64 {
        self.nodes.insert(node_id, NodeState { residual_w: 0.0, budget_w: 0.0 });
        self.rebalance();
        self.nodes[&node_id].budget_w
    }

    /// [`Self::apply`] for an admission: the node's budget, and the entry
    /// that records the step.
    pub(crate) fn admit(&mut self, node_id: u64) -> (f64, JournalEntry) {
        let budget_w = self.join(node_id);
        (budget_w, JournalEntry::Admit { node_id, epoch: self.epoch })
    }

    /// Remove a node; its watts flow back to the survivors.
    pub fn leave(&mut self, node_id: u64) {
        if self.nodes.remove(&node_id).is_some() {
            self.rebalance();
        }
    }

    /// Ingest a node's residual-headroom report and re-partition.
    /// Returns the node's budget after the rebalance (`None` for an
    /// unknown node). Non-finite reports are ignored.
    pub fn report(&mut self, node_id: u64, residual_w: f64) -> Option<f64> {
        let node = self.nodes.get_mut(&node_id)?;
        if residual_w.is_finite() {
            node.residual_w = residual_w;
        }
        self.rebalance();
        Some(self.nodes[&node_id].budget_w)
    }

    /// The one arbiter step: apply `op` and return the journal entry that
    /// records it, with the epoch after the step — `None` for a report
    /// from a node the arbiter does not know, which changes nothing. A
    /// cap move records the cap the arbiter holds afterwards. This is the
    /// lease binding too: a shard's arbiter runs *inside* its coordinator
    /// lease, and every session picks a cap move up through the epoch.
    pub fn apply(&mut self, op: ArbiterOp) -> Option<JournalEntry> {
        match op {
            ArbiterOp::Admit { node_id } => Some(self.admit(node_id).1),
            ArbiterOp::Leave { node_id } => {
                self.leave(node_id);
                Some(JournalEntry::Leave { node_id, epoch: self.epoch })
            }
            ArbiterOp::Report { node_id, residual_w } => {
                self.report(node_id, residual_w)?;
                Some(JournalEntry::Report { node_id, residual_w, epoch: self.epoch })
            }
            ArbiterOp::Cap { cap_w } => {
                if cap_w.is_finite() && cap_w > 0.0 && cap_w != self.global_cap_w {
                    self.global_cap_w = cap_w;
                    self.rebalance();
                }
                Some(JournalEntry::Cap { cap_w: self.global_cap_w, epoch: self.epoch })
            }
        }
    }

    /// A node's current budget, W.
    pub fn budget_of(&self, node_id: u64) -> Option<f64> {
        self.nodes.get(&node_id).map(|n| n.budget_w)
    }

    /// Node ids currently admitted, ascending.
    pub fn node_ids(&self) -> Vec<u64> {
        self.nodes.keys().copied().collect()
    }

    /// Sum of all per-node budgets, W. With at least one node this is
    /// *exactly* the global cap — [`rebalance`](Self::join) assigns the
    /// floating-point remainder of the split to the lowest node id.
    pub fn budget_sum_w(&self) -> f64 {
        self.nodes.values().map(|n| n.budget_w).sum()
    }

    /// `|budget_sum - global_cap|`, the conservation invariant the tests
    /// check after every step. Zero with no nodes admitted.
    pub fn conservation_error_w(&self) -> f64 {
        if self.nodes.is_empty() {
            0.0
        } else {
            (self.budget_sum_w() - self.global_cap_w).abs()
        }
    }

    /// Re-partition the cap per the policy; bump counters when any budget
    /// moved by more than [`BUDGET_EPS_W`].
    fn rebalance(&mut self) {
        if self.nodes.is_empty() {
            return;
        }
        // Demand: a node with no headroom left wants watts; a node with
        // lots of residual donates. Shift so the hungriest node defines
        // zero demand offset and everything stays non-negative.
        let max_residual =
            self.nodes.values().map(|s| s.residual_w.max(0.0)).fold(f64::NEG_INFINITY, f64::max);
        let demands: Vec<f64> =
            self.nodes.values().map(|s| (max_residual - s.residual_w.max(0.0)).max(0.0)).collect();
        // The rounding remainder lands on the lowest node id —
        // deterministic, and at most a few ulp.
        let shares = self.policy.split(self.global_cap_w, &demands);
        let mut changed = false;
        for (state, share) in self.nodes.values_mut().zip(shares) {
            if (state.budget_w - share).abs() > BUDGET_EPS_W {
                changed = true;
            }
            state.budget_w = share;
        }
        debug_assert!(
            self.conservation_error_w() <= BUDGET_EPS_W,
            "budgets sum to {} under a {} W cap",
            self.budget_sum_w(),
            self.global_cap_w
        );
        if changed {
            self.rebalances += 1;
            self.epoch += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_reproduces_the_formulas_it_replaced_bit_for_bit() {
        // (pool, demands) from this module's and lease.rs's tests, with
        // the shares the parent's `Arbiter::rebalance` and
        // `LeaseTable::targets` produced for them, recorded as exact
        // round-trip literals.
        use ArbiterPolicy::{DemandProportional as Demand, EqualShare as Equal};
        let seventh = 14.285714285714286;
        let third = 33.333333333333336;
        let cases: [(ArbiterPolicy, f64, &[f64], &[f64]); 10] = [
            (Equal, 120.0, &[0.0], &[120.0]),
            (Demand, 120.0, &[0.0], &[120.0]),
            (Equal, 100.0, &[0.0; 3], &[third; 3]),
            (Demand, 100.0, &[0.0; 3], &[third; 3]),
            // 100/7 does not sum back; share 0 absorbs the remainder.
            (
                Equal,
                100.0,
                &[0.0; 7],
                &[14.285714285714272, seventh, seventh, seventh, seventh, seventh, seventh],
            ),
            (Equal, 61.3, &[10.0, 30.0, 5.0], &[20.433333333333334; 3]),
            (Demand, 61.3, &[10.0, 30.0, 5.0], &[17.02777777777778, 30.65, 13.622222222222222]),
            (Demand, 95.0, &[30.0, 10.0], &[59.375, 35.625]),
            // Indistinguishable demands (total ≤ eps) split equally.
            (Demand, 88.0, &[1e-10, 0.0], &[44.0, 44.0]),
            (
                Demand,
                90.0,
                &[18.0, 29.5, 30.0, 0.0, 30.0],
                &[
                    16.53488372093023,
                    21.348837209302324,
                    21.558139534883722,
                    9.0,
                    21.558139534883722,
                ],
            ),
        ];
        for (policy, pool, demands, expected) in cases {
            let shares = policy.split(pool, demands);
            assert_eq!(shares, expected, "{policy:?} {pool} {demands:?}");
            assert_eq!(shares.iter().sum::<f64>(), pool, "{policy:?} {pool} {demands:?}");
        }
        assert!(Equal.split(50.0, &[]).is_empty());
    }

    #[test]
    fn equal_share_splits_evenly() {
        let mut a = Arbiter::new(120.0, ArbiterPolicy::EqualShare);
        assert_eq!(a.join(1), 120.0);
        assert_eq!(a.join(2), 60.0);
        let b3 = a.join(3);
        assert!((b3 - 40.0).abs() < 1e-9);
        assert_eq!(a.budget_of(1), Some(b3));
        a.leave(2);
        assert!((a.budget_of(1).unwrap() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn budgets_sum_to_cap_under_both_policies() {
        for policy in [ArbiterPolicy::EqualShare, ArbiterPolicy::DemandProportional] {
            let mut a = Arbiter::new(90.0, policy);
            for id in 0..5 {
                a.join(id);
            }
            a.report(0, 12.0);
            a.report(1, 0.5);
            a.report(3, 30.0);
            let total: f64 = (0..5).map(|id| a.budget_of(id).unwrap()).sum();
            assert!((total - 90.0).abs() < 1e-6, "{policy:?}: budgets sum to {total}");
        }
    }

    #[test]
    fn budgets_sum_exactly_to_cap_with_awkward_splits() {
        // 100/7 is not representable; without the remainder fold the sum
        // drifts off the cap by a few ulp and compounds over rebalances.
        for policy in [ArbiterPolicy::EqualShare, ArbiterPolicy::DemandProportional] {
            let mut a = Arbiter::new(100.0, policy);
            for id in 0..7 {
                a.join(id);
            }
            a.report(2, 7.7);
            a.report(5, 0.3);
            assert_eq!(a.budget_sum_w(), 100.0, "{policy:?}");
            assert_eq!(a.conservation_error_w(), 0.0, "{policy:?}");
            a.leave(3);
            assert_eq!(a.budget_sum_w(), 100.0, "{policy:?} after leave");
        }
    }

    #[test]
    fn remainder_goes_to_the_lowest_node_id() {
        let mut a = Arbiter::new(100.0, ArbiterPolicy::EqualShare);
        for id in [5, 9, 3] {
            a.join(id);
        }
        // The two higher ids keep the untouched even split; node 3 absorbs
        // whatever is left so the total is exact.
        let even = 100.0 / 3.0;
        assert_eq!(a.budget_of(5), Some(even));
        assert_eq!(a.budget_of(9), Some(even));
        assert_eq!(a.budget_sum_w(), 100.0);
        assert!((a.budget_of(3).unwrap() - even).abs() < 1e-9);
    }

    #[test]
    fn conservation_error_is_zero_with_no_nodes() {
        let a = Arbiter::new(50.0, ArbiterPolicy::DemandProportional);
        assert_eq!(a.conservation_error_w(), 0.0);
        assert_eq!(a.budget_sum_w(), 0.0);
        assert!(a.node_ids().is_empty());
    }

    #[test]
    fn demand_proportional_favors_hungry_nodes() {
        let mut a = Arbiter::new(100.0, ArbiterPolicy::DemandProportional);
        a.join(1);
        a.join(2);
        // Node 1 has lots of headroom (low demand); node 2 has none.
        a.report(1, 20.0);
        a.report(2, 0.0);
        let b1 = a.budget_of(1).unwrap();
        let b2 = a.budget_of(2).unwrap();
        assert!(b2 > b1, "hungry node got {b2}, satisfied node got {b1}");
        // The floor guarantees at least half an equal share.
        assert!(b1 >= 0.5 * 100.0 / 2.0 - 1e-9);
    }

    #[test]
    fn equal_demands_split_the_pool_equally() {
        let mut a = Arbiter::new(80.0, ArbiterPolicy::DemandProportional);
        a.join(1);
        a.join(2);
        let b1 = a.budget_of(1).unwrap();
        let b2 = a.budget_of(2).unwrap();
        assert!((b1 - 40.0).abs() < 1e-9 && (b2 - 40.0).abs() < 1e-9);
    }

    #[test]
    fn epoch_moves_only_on_real_reshuffles() {
        let mut a = Arbiter::new(100.0, ArbiterPolicy::EqualShare);
        a.join(1);
        let e = a.epoch();
        // Same residual report under equal share changes nothing.
        a.report(1, 5.0);
        assert_eq!(a.epoch(), e);
        a.join(2);
        assert!(a.epoch() > e);
    }

    #[test]
    fn ignores_unknown_and_non_finite() {
        let mut a = Arbiter::new(100.0, ArbiterPolicy::DemandProportional);
        a.join(1);
        assert_eq!(a.report(99, 1.0), None);
        let before = a.budget_of(1).unwrap();
        a.report(1, f64::NAN);
        assert_eq!(a.budget_of(1).unwrap(), before);
    }

    #[test]
    fn rebalances_counts_changes() {
        let mut a = Arbiter::new(100.0, ArbiterPolicy::DemandProportional);
        a.join(1);
        a.join(2);
        let r = a.rebalances();
        a.report(1, 25.0);
        assert!(a.rebalances() > r, "a demand swing must count as a rebalance");
    }

    #[test]
    fn a_cap_move_rebalances_exactly() {
        let mut a = Arbiter::new(100.0, ArbiterPolicy::DemandProportional);
        for id in 0..3 {
            a.join(id);
        }
        let e = a.epoch();
        let entry = a.apply(ArbiterOp::Cap { cap_w: 61.3 });
        assert!(a.epoch() > e, "a real cap change is a reshuffle");
        assert_eq!(entry, Some(JournalEntry::Cap { cap_w: 61.3, epoch: a.epoch() }));
        assert_eq!(a.global_cap_w(), 61.3);
        assert_eq!(a.budget_sum_w(), 61.3);
        assert_eq!(a.conservation_error_w(), 0.0);
        // Unchanged, non-positive, and non-finite caps are all ignored.
        let e = a.epoch();
        for cap_w in [61.3, 0.0, -4.0, f64::NAN] {
            let entry = a.apply(ArbiterOp::Cap { cap_w });
            assert_eq!(entry, Some(JournalEntry::Cap { cap_w: 61.3, epoch: e }), "{cap_w}");
        }
        assert_eq!(a.global_cap_w(), 61.3);
    }

    #[test]
    fn policy_parses() {
        assert_eq!("equal".parse::<ArbiterPolicy>().unwrap(), ArbiterPolicy::EqualShare);
        assert_eq!("demand".parse::<ArbiterPolicy>().unwrap(), ArbiterPolicy::DemandProportional);
        assert!("fair".parse::<ArbiterPolicy>().is_err());
    }
}
