//! Property tests for the coordinator's lease table, mirroring
//! `arbiter_conservation.rs` one layer up: under random interleavings of
//! grants, renewals, clock advances, releases, and revocations —
//!
//! - the live commitments never exceed the unencumbered pool (so the
//!   fleet-wide sum never exceeds the global cap, even mid-ramp),
//! - every committed budget stays non-negative and every expired lease's
//!   encumbrance stays at most the floor,
//! - and replaying the journaled ops reproduces the *exact* table — same
//!   epoch, same tick, same lease ids, bit-identical budgets — so a
//!   SIGKILLed coordinator re-adopts instead of double-granting.

use acs_serve::{replay_coordinator, ArbiterPolicy, CoordJournalEntry, CoordRequest, LeaseTable};
use proptest::prelude::*;

const CAP_W: f64 = 100.0;
const FLOOR_W: f64 = 4.0;
const TTL_TICKS: u64 = 6;

fn policy_from(n: u8) -> ArbiterPolicy {
    if n.is_multiple_of(2) {
        ArbiterPolicy::EqualShare
    } else {
        ArbiterPolicy::DemandProportional
    }
}

/// One encoded operation, stepped through the table the way the
/// coordinator steps it: the clock advances by `dt`, then the request is
/// applied and the entry it returns is journaled. A lease comes from a
/// fresh shard, a configured id in 1..=3, or an id already assigned (a
/// re-adoption).
fn apply(
    table: &mut LeaseTable,
    journal: &mut Vec<CoordJournalEntry>,
    op: u8,
    pick: u64,
    demand_w: f64,
    dt: u64,
) {
    table.advance_to(table.tick() + dt);
    let pick_of = |ids: Vec<u64>| ids.get(pick as usize % ids.len().max(1)).copied();
    let request = match op % 4 {
        0 => CoordRequest::Lease {
            shard_id: match pick % 3 {
                0 => None,
                1 => Some(1 + pick / 3 % 3),
                _ => pick_of(table.snapshot().iter().map(|(_, l)| l.shard_id).collect()),
            },
            demand_w,
        },
        1 => match pick_of(table.live_ids()) {
            Some(lease_id) => CoordRequest::Renew { lease_id, epoch: table.epoch(), demand_w },
            None => return,
        },
        2 => match pick_of(table.live_ids()) {
            Some(lease_id) => CoordRequest::Release { lease_id },
            None => return,
        },
        _ => match pick_of(table.encumbered_ids()) {
            Some(lease_id) => CoordRequest::Revoke { lease_id },
            None => return,
        },
    };
    let epoch_before = table.epoch();
    match table.apply(table.tick(), &request) {
        Some(Ok(entry)) => journal.push(entry),
        // Rejections leave no trace: nothing journaled, nothing bumped.
        _ => assert_eq!(table.epoch(), epoch_before),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Fleet-wide conservation holds after every op: live commitments fit
    /// inside the unencumbered pool, the total never exceeds the cap, and
    /// no lease ever commits a negative or floor-busting amount.
    #[test]
    fn commitments_never_exceed_the_cap_under_random_churn(
        policy in 0u8..2,
        ops in prop::collection::vec(
            (0u8..4, 0u64..16, 0.0..60.0f64, 0u64..4), 1..160),
    ) {
        let mut table =
            LeaseTable::new(CAP_W, policy_from(policy), TTL_TICKS, FLOOR_W);
        let mut journal = Vec::new();
        for (i, &(op, pick, demand_w, dt)) in ops.iter().enumerate() {
            apply(&mut table, &mut journal, op, pick, demand_w, dt);
            let stats = table.stats();
            prop_assert!(
                stats.overshoot_w == 0.0,
                "op {} ({},{},{},{}): live {} W overshoots pool {} W",
                i, op, pick, demand_w, dt,
                stats.live_committed_w, stats.pool_w
            );
            prop_assert!(
                stats.live_committed_w + stats.encumbered_w <= CAP_W + 1e-9,
                "op {}: fleet committed {} W exceeds the {} W cap",
                i, stats.live_committed_w + stats.encumbered_w, CAP_W
            );
            for (id, lease) in table.snapshot() {
                prop_assert!(
                    lease.committed_w >= 0.0,
                    "lease {} committed a negative {} W", id, lease.committed_w
                );
                if !lease.live {
                    prop_assert!(
                        lease.committed_w <= FLOOR_W + 1e-9,
                        "expired lease {} encumbers {} W above the {} W floor",
                        id, lease.committed_w, FLOOR_W
                    );
                }
            }
        }
    }

    /// Replaying the journal reproduces the exact table: every counter,
    /// every lease id, every budget bit. In particular `next_lease`
    /// matches, so a restarted coordinator can never hand a granted id
    /// out twice (no double-grant after replay).
    #[test]
    fn journal_replay_reproduces_the_exact_table(
        policy in 0u8..2,
        ops in prop::collection::vec(
            (0u8..4, 0u64..16, 0.0..60.0f64, 0u64..4), 1..120),
    ) {
        let mut live = LeaseTable::new(CAP_W, policy_from(policy), TTL_TICKS, FLOOR_W);
        let mut journal = Vec::new();
        for &(op, pick, demand_w, dt) in &ops {
            apply(&mut live, &mut journal, op, pick, demand_w, dt);
        }

        let (mut replayed, recovery) =
            replay_coordinator(&journal, CAP_W, policy_from(policy), TTL_TICKS, FLOOR_W, 0)
                .expect("a faithfully recorded journal replays");
        prop_assert_eq!(recovery.replayed, journal.len() as u64);
        // The restarted coordinator's first act is advancing to the
        // current tick, which re-runs any expirations that happened after
        // the last journaled op.
        replayed.advance_to(live.tick());

        prop_assert_eq!(replayed.stats(), live.stats());
        prop_assert_eq!(replayed.next_lease(), live.next_lease());
        for (id, lease) in live.snapshot() {
            let got = *replayed.lease(id).expect("replay kept every lease");
            prop_assert_eq!(got, lease, "lease {} diverged after replay", id);
            prop_assert_eq!(
                got.committed_w.to_bits(),
                lease.committed_w.to_bits(),
                "lease {} budget is not bit-identical", id
            );
        }
    }

    /// With health-checked eviction armed, the same random op storms must
    /// keep exact-sum conservation while expired leases are *removed* —
    /// no zombie encumbrance survives past the horizon — and a grant
    /// after an eviction re-admits against the reclaimed pool. Replay at
    /// the same horizon still reproduces the bit-exact table, eviction
    /// counters included, even though evictions are never journaled.
    #[test]
    fn eviction_reclaims_zombies_and_replays_exactly_under_random_storms(
        policy in 0u8..2,
        horizon in 1u64..5,
        ops in prop::collection::vec(
            (0u8..4, 0u64..16, 0.0..60.0f64, 0u64..4), 1..120),
    ) {
        let mut live = LeaseTable::new(CAP_W, policy_from(policy), TTL_TICKS, FLOOR_W);
        live.set_evict_after_ticks(horizon);
        let mut journal = Vec::new();
        for (i, &(op, pick, demand_w, dt)) in ops.iter().enumerate() {
            apply(&mut live, &mut journal, op, pick, demand_w, dt);
            let stats = live.stats();
            prop_assert!(
                stats.overshoot_w == 0.0,
                "op {}: live {} W overshoots pool {} W under eviction",
                i, stats.live_committed_w, stats.pool_w
            );
            prop_assert!(
                stats.live_committed_w + stats.encumbered_w <= CAP_W + 1e-9,
                "op {}: fleet committed {} W exceeds the {} W cap under eviction",
                i, stats.live_committed_w + stats.encumbered_w, CAP_W
            );
            for (id, lease) in live.snapshot() {
                if !lease.live {
                    prop_assert!(
                        lease.expired_tick + horizon > live.tick(),
                        "op {}: lease {} expired at {} should have been evicted by {}",
                        i, id, lease.expired_tick, live.tick()
                    );
                }
            }
        }

        let (mut replayed, recovery) =
            replay_coordinator(&journal, CAP_W, policy_from(policy), TTL_TICKS, FLOOR_W, horizon)
                .expect("a faithfully recorded journal replays under eviction");
        prop_assert_eq!(recovery.replayed, journal.len() as u64);
        replayed.advance_to(live.tick());

        prop_assert_eq!(replayed.stats(), live.stats());
        prop_assert_eq!(replayed.next_lease(), live.next_lease());
        for (id, lease) in live.snapshot() {
            let got = *replayed.lease(id).expect("replay kept every surviving lease");
            prop_assert_eq!(got, lease, "lease {} diverged after eviction replay", id);
            prop_assert_eq!(
                got.committed_w.to_bits(),
                lease.committed_w.to_bits(),
                "lease {} budget is not bit-identical under eviction", id
            );
        }
    }
}

/// Every schedule of lease steps to depth 6, from an empty table, under
/// both policies, with eviction off and at a one-tick horizon. A step is
/// a lease from a fresh shard, a lease under shard id 1, 2 or 3 (a fresh
/// configured shard, or a re-adoption once the id is assigned), a renewal
/// or a release of each live lease, a revocation of each encumbered lease,
/// or one TTL of clock. A rejected request changes nothing, so the walk
/// does not branch on it: its schedules are prefixes of ones it walks.
/// After every step the fleet must fit the cap, every encumbrance the
/// floor, and the journal so far must replay, advanced to the live tick,
/// to the live table and its stats. 552 700 schedules across the four
/// configurations.
#[test]
fn every_lease_schedule_to_depth_six_conserves_and_replays() {
    const DEPTH: usize = 6;
    let mut schedules = 0u64;
    for policy in [ArbiterPolicy::EqualShare, ArbiterPolicy::DemandProportional] {
        for evict_after_ticks in [0, 1] {
            let mut table = LeaseTable::new(CAP_W, policy, TTL_TICKS, FLOOR_W);
            table.set_evict_after_ticks(evict_after_ticks);
            let mut journal = Vec::new();
            schedules += explore(&table, &mut journal, DEPTH, policy, evict_after_ticks);
        }
    }
    assert_eq!(schedules, 552_700);
}

/// Walk every schedule of `depth` more steps from `table`; the count of
/// schedules walked.
fn explore(
    table: &LeaseTable,
    journal: &mut Vec<CoordJournalEntry>,
    depth: usize,
    policy: ArbiterPolicy,
    evict_after_ticks: u64,
) -> u64 {
    if depth == 0 {
        return 1;
    }
    // `None` is one TTL of clock; the rest are requests.
    let mut steps: Vec<Option<CoordRequest>> = vec![None];
    steps.extend([None, Some(1), Some(2), Some(3)].map(|shard_id| {
        Some(CoordRequest::Lease { shard_id, demand_w: 10.0 * shard_id.unwrap_or(4) as f64 })
    }));
    for lease_id in table.live_ids() {
        let epoch = table.epoch();
        steps.push(Some(CoordRequest::Renew { lease_id, epoch, demand_w: 30.0 }));
        steps.push(Some(CoordRequest::Release { lease_id }));
    }
    steps.extend(
        table.encumbered_ids().into_iter().map(|lease_id| Some(CoordRequest::Revoke { lease_id })),
    );
    let mut schedules = 0;
    for step in steps {
        let mut next = table.clone();
        let journaled = match &step {
            None => {
                next.advance_to(next.tick() + TTL_TICKS);
                false
            }
            Some(request) => match next.apply(next.tick(), request) {
                Some(Ok(entry)) => {
                    journal.push(entry);
                    true
                }
                _ => continue,
            },
        };
        let stats = next.stats();
        let context =
            || format!("{policy:?}, evict {evict_after_ticks}, {journal:?} then {step:?}");
        assert_eq!(stats.overshoot_w, 0.0, "{}", context());
        assert!(stats.live_committed_w + stats.encumbered_w <= CAP_W, "{}", context());
        for (_, lease) in next.snapshot() {
            assert!(lease.live || lease.committed_w <= FLOOR_W, "{}", context());
        }
        let (mut replayed, _) =
            replay_coordinator(journal, CAP_W, policy, TTL_TICKS, FLOOR_W, evict_after_ticks)
                .unwrap_or_else(|e| panic!("{}: {e}", context()));
        replayed.advance_to(next.tick());
        assert_eq!(replayed.snapshot(), next.snapshot(), "{}", context());
        assert_eq!(replayed.stats(), stats, "{}", context());
        schedules += explore(&next, journal, depth - 1, policy, evict_after_ticks);
        if journaled {
            journal.pop();
        }
    }
    schedules
}
