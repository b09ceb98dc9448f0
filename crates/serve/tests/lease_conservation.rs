//! Property tests for the coordinator's lease table, mirroring
//! `arbiter_conservation.rs` one layer up: under random interleavings of
//! grants, renewals, clock advances, releases, and revocations —
//!
//! - the live commitments never exceed the unencumbered pool (so the
//!   fleet-wide sum never exceeds the global cap, even mid-ramp),
//! - every committed budget stays non-negative and every expired lease's
//!   encumbrance stays at most the floor,
//! - no shard id holds two leases,
//! - and replaying the journaled ops reproduces the *exact* table — same
//!   epoch, same tick, same lease ids, bit-identical budgets — so a
//!   SIGKILLed coordinator re-adopts instead of double-granting.

use acs_serve::{replay_coordinator, ArbiterPolicy, CoordJournalEntry, CoordRequest, LeaseTable};
use acs_sim::{Cap, Watts};
use proptest::prelude::*;

const CAP_W: f64 = 100.0;
const FLOOR_W: f64 = 4.0;
const TTL_MS: u64 = 6;

fn policy_from(n: u8) -> ArbiterPolicy {
    if n.is_multiple_of(2) {
        ArbiterPolicy::EqualShare
    } else {
        ArbiterPolicy::DemandProportional
    }
}

/// One encoded operation, stepped through the table the way the
/// coordinator steps it: the clock advances by `dt`, then the request is
/// applied and the entry it returns is journaled. A lease comes from shard
/// 4, from a shard in 1..=3, or under an id that already holds a lease (a
/// re-adoption; shard 4 while none does).
fn apply(
    table: &mut LeaseTable,
    journal: &mut Vec<CoordJournalEntry>,
    op: u8,
    pick: u64,
    demand_w: f64,
    dt: u64,
) {
    table.advance_to(table.tick() + dt);
    let demand_w = Watts::new(demand_w).unwrap();
    let pick_of = |ids: Vec<u64>| ids.get(pick as usize % ids.len().max(1)).copied();
    let request = match op % 4 {
        0 => CoordRequest::Lease {
            shard_id: match pick % 3 {
                0 => 4,
                1 => 1 + pick / 3 % 3,
                _ => {
                    pick_of(table.snapshot().iter().map(|(_, l)| l.shard_id).collect()).unwrap_or(4)
                }
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

/// A fresh table under `policy` with eviction after `horizon` ms (0 = off).
fn fresh(policy: ArbiterPolicy, horizon: u64) -> LeaseTable {
    LeaseTable::new(Cap::new(CAP_W).unwrap(), policy, TTL_MS, Cap::new(FLOOR_W).unwrap(), horizon)
}

/// Step `ops` through a table with eviction after `horizon` ms (0 =
/// off). After every op, live commitments fit inside the unencumbered
/// pool, the fleet total never exceeds the cap, no lease commits a
/// negative amount, no shard id holds two leases, an expired lease
/// encumbers at most the floor and none outlives the horizon. Then the journal replays at the same horizon to
/// the exact table — every counter, lease id and budget bit, evictions
/// included though they are never journaled — so `next_lease` matches and
/// a restarted coordinator can never hand a granted id out twice.
fn churn(policy: u8, horizon: u64, ops: &[(u8, u64, f64, u64)]) -> Result<(), TestCaseError> {
    let mut live = fresh(policy_from(policy), horizon);
    let mut journal = Vec::new();
    for (i, &(op, pick, demand_w, dt)) in ops.iter().enumerate() {
        apply(&mut live, &mut journal, op, pick, demand_w, dt);
        let stats = live.stats();
        let (committed_w, tick) = (stats.live_committed_w + stats.encumbered_w, live.tick());
        let op = format!("op {i} ({op},{pick},{demand_w},{dt})");
        prop_assert!(stats.overshoot_w == 0.0, "{op}: {stats:?} overshoots its pool");
        prop_assert!(committed_w <= CAP_W + 1e-9, "{op}: {committed_w} W exceed the cap");
        prop_assert!(live.one_lease_per_shard(), "{op}: {:?}", live.snapshot());
        for (id, lease) in live.snapshot() {
            let (w, expired_tick) = (lease.committed_w, lease.expired_tick);
            prop_assert!(w >= 0.0, "{op}: lease {id} committed {w} W");
            if !lease.live {
                prop_assert!(w <= FLOOR_W + 1e-9, "{op}: expired lease {id} encumbers {w} W");
                prop_assert!(
                    horizon == 0 || expired_tick + horizon > tick,
                    "{op}: lease {id} expired at {expired_tick}, not evicted by {tick}"
                );
            }
        }
    }

    let (mut replayed, recovery) =
        replay_coordinator(&journal, fresh(policy_from(policy), horizon))
            .expect("a faithfully recorded journal replays");
    prop_assert_eq!(recovery.replayed, journal.len() as u64);
    // The restarted coordinator's first act is advancing to the current
    // tick, which re-runs any expirations and evictions that happened after
    // the last journaled op.
    replayed.advance_to(live.tick());
    prop_assert_eq!(replayed.stats(), live.stats());
    prop_assert_eq!(replayed.next_lease(), live.next_lease());
    for (id, lease) in live.snapshot() {
        let got = *replayed.lease(id).expect("replay kept every lease");
        prop_assert_eq!(got, lease, "lease {} diverged after replay", id);
        let bits = (got.committed_w.to_bits(), lease.committed_w.to_bits());
        prop_assert!(bits.0 == bits.1, "lease {id} budget is not bit-identical");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// [`churn`] with eviction off, the coordinator's default.
    #[test]
    fn commitments_never_exceed_the_cap_under_random_churn(
        policy in 0u8..2,
        ops in prop::collection::vec(
            (0u8..4, 0u64..16, 0.0..60.0f64, 0u64..4), 1..160),
    ) {
        churn(policy, 0, &ops)?;
    }

    /// [`churn`] with health-checked eviction armed: expired leases are
    /// *removed* past the horizon, and a grant after an eviction re-admits
    /// against the reclaimed pool.
    #[test]
    fn eviction_reclaims_zombies_and_replays_exactly_under_random_storms(
        policy in 0u8..2,
        horizon in 1u64..5,
        ops in prop::collection::vec(
            (0u8..4, 0u64..16, 0.0..60.0f64, 0u64..4), 1..120),
    ) {
        churn(policy, horizon, &ops)?;
    }
}

/// Whether every lease belongs to a different shard.
/// Every schedule of lease steps to depth 6, from an empty table, under
/// both policies, with eviction off and at a 1 ms horizon. A step is
/// a lease under shard id 1, 2, 3 or 4 (a fresh shard, or a re-adoption
/// once it holds a lease), a renewal
/// or a release of each live lease, a revocation of each encumbered lease,
/// or one TTL of clock. A rejected request changes nothing, so the walk
/// does not branch on it: its schedules are prefixes of ones it walks.
/// After every step the fleet must fit the cap, every encumbrance the
/// floor, no shard id may hold two leases, and the journal so far must
/// replay, advanced to the live tick,
/// to the live table and its stats. 550 180 schedules across the four
/// configurations.
#[test]
fn every_lease_schedule_to_depth_six_conserves_and_replays() {
    const DEPTH: usize = 6;
    let mut schedules = 0u64;
    for policy in [ArbiterPolicy::EqualShare, ArbiterPolicy::DemandProportional] {
        for horizon in [0, 1] {
            let mut journal = Vec::new();
            schedules += explore(&fresh(policy, horizon), &mut journal, DEPTH, policy, horizon);
        }
    }
    assert_eq!(schedules, 550_180);
}

/// Walk every schedule of `depth` more steps from `table`; the count of
/// schedules walked.
fn explore(
    table: &LeaseTable,
    journal: &mut Vec<CoordJournalEntry>,
    depth: usize,
    policy: ArbiterPolicy,
    horizon: u64,
) -> u64 {
    if depth == 0 {
        return 1;
    }
    // `None` is one TTL of clock; the rest are requests.
    let mut steps: Vec<Option<CoordRequest>> = vec![None];
    steps.extend([1, 2, 3, 4].map(|shard_id| {
        let demand_w = Watts::new(10.0 * shard_id as f64).unwrap();
        Some(CoordRequest::Lease { shard_id, demand_w })
    }));
    for lease_id in table.live_ids() {
        let epoch = table.epoch();
        let demand_w = Watts::new(30.0).unwrap();
        steps.push(Some(CoordRequest::Renew { lease_id, epoch, demand_w }));
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
                next.advance_to(next.tick() + TTL_MS);
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
        let context = || format!("{policy:?}, evict {horizon}, {journal:?} then {step:?}");
        assert_eq!(stats.overshoot_w, 0.0, "{}", context());
        assert!(stats.live_committed_w + stats.encumbered_w <= CAP_W, "{}", context());
        for (_, lease) in next.snapshot() {
            assert!(lease.live || lease.committed_w <= FLOOR_W, "{}", context());
        }
        assert!(next.one_lease_per_shard(), "{}", context());
        let (mut replayed, _) = replay_coordinator(journal, fresh(policy, horizon))
            .unwrap_or_else(|e| panic!("{}: {e}", context()));
        replayed.advance_to(next.tick());
        assert_eq!(replayed.snapshot(), next.snapshot(), "{}", context());
        assert_eq!(replayed.stats(), stats, "{}", context());
        schedules += explore(&next, journal, depth - 1, policy, horizon);
        if journaled {
            journal.pop();
        }
    }
    schedules
}
