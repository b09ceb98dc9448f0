//! Property tests for the arbiter's budget-conservation invariant: after
//! every join, leave, report or cap move — in any order, under either
//! policy, at any cap — the per-node budgets sum back to the global cap
//! (the rounding remainder is folded onto the lowest node id), every
//! budget stays strictly positive, and the whole trajectory is
//! deterministic and replays from the journal entries its steps returned.

use acs_serve::{replay, Arbiter, ArbiterOp, ArbiterPolicy};
use acs_sim::Cap;
use proptest::prelude::*;

fn policy_from(n: u8) -> ArbiterPolicy {
    if n.is_multiple_of(2) {
        ArbiterPolicy::EqualShare
    } else {
        ArbiterPolicy::DemandProportional
    }
}

/// Residuals a finite `Report` may carry whose demands overflow a naive
/// split.
const HUGE_W: [f64; 3] = [1e308, -1e308, f64::MAX];

/// Arbiter steps over node ids `0..ids` with watts in `-w..w`: joins,
/// leaves, reports and cap moves, a quarter each. A cap move is to the
/// watts' magnitude, a zero one to 1 mW. One report in eight carries a
/// [`HUGE_W`] residual instead.
fn ops(ids: u64, w: f64, len: usize) -> impl Strategy<Value = Vec<ArbiterOp>> {
    let op = (0u8..4, 0..ids, -w..w, 0usize..8).prop_map(|(kind, node_id, w, huge)| match kind {
        0 => ArbiterOp::Admit { node_id },
        1 => ArbiterOp::Leave { node_id },
        2 => ArbiterOp::Report { node_id, residual_w: HUGE_W.get(huge).copied().unwrap_or(w) },
        _ => ArbiterOp::Cap { cap_w: Cap::new(w.abs()).unwrap_or(Cap::new(1e-3).unwrap()) },
    });
    prop::collection::vec(op, 1..len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Budgets sum to the cap — exactly, up to at most one ulp of
    /// re-rounding — after every operation in a random churn sequence.
    #[test]
    fn budgets_are_conserved_under_random_churn(
        policy in 0u8..2,
        cap_milli in 1u64..1_000_000, // 1 mW .. 1 kW
        ops in ops(16, 50.0, 200),
    ) {
        let mut a = Arbiter::new(cap_milli as f64 / 1000.0, policy_from(policy));
        for (i, &op) in ops.iter().enumerate() {
            a.apply(op);
            let cap = a.global_cap_w();
            let err = a.conservation_error_w();
            prop_assert!(
                err <= cap * f64::EPSILON,
                "op {} ({:?}): {} nodes sum to {} under a {} W cap (err {:e})",
                i, op, a.node_count(), a.budget_sum_w(), cap, err
            );
            for id in a.node_ids() {
                let b = a.budget_of(id).unwrap();
                prop_assert!(b > 0.0, "node {} holds a non-positive budget {}", id, b);
            }
        }
    }

    /// The same op sequence replays to bit-identical budgets: the
    /// remainder assignment is deterministic, not dependent on map
    /// iteration luck or accumulated state. Journal replay of the entries
    /// the steps returned re-applies every one of them to itself and finds
    /// the live arbiter's nodes as its orphans.
    #[test]
    fn churn_replays_to_bit_identical_budgets(
        policy in 0u8..2,
        ops in ops(8, 20.0, 64),
    ) {
        let run = || {
            let mut a = Arbiter::new(77.7, policy_from(policy));
            let entries: Vec<_> = ops.iter().filter_map(|&op| a.apply(op)).collect();
            let budgets = a
                .node_ids()
                .into_iter()
                .map(|id| (id, a.budget_of(id).unwrap().to_bits()))
                .collect::<Vec<_>>();
            (a, entries, budgets)
        };
        let (live, entries, budgets) = run();
        prop_assert_eq!(&budgets, &run().2);
        let replayed = replay(&entries, 77.7, policy_from(policy));
        prop_assert!(replayed.is_ok(), "replay refused its own history: {:?}", replayed.err());
        let (_, recovery) = replayed.unwrap();
        prop_assert_eq!(recovery.orphaned_sessions, live.node_ids());
    }
}
