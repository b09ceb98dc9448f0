//! Fleet power leases: the coordinator's lease table and the shard's
//! degraded-mode state machine.
//!
//! The per-process [`Arbiter`](crate::arbiter::Arbiter) keeps one shard's
//! sessions under one cap. This module scales that invariant to a fleet:
//! a **coordinator** owns the global budget and leases time-bounded
//! slices of it to `acs serve` shards; each shard runs its arbiter
//! *inside* its lease
//! ([`ArbiterOp::Cap`](crate::arbiter::ArbiterOp::Cap) is the binding).
//!
//! ## Safety model
//!
//! The conservation target is asymmetric: the fleet must **never exceed**
//! the global cap, even when the coordinator is dead or a shard is
//! partitioned, while full utilization is only required at quiescence.
//! Three rules deliver that:
//!
//! 1. **Commit-on-contact.** A lease's *committed* budget — the number
//!    the shard was actually told — changes only in responses to that
//!    shard's own requests. Rebalances move *targets*; a shard ramps
//!    toward its target at its next renewal, taking at most the watts
//!    other shards have already renewed down from. One contact lowers a
//!    commitment to no less than half of it, nor below `min(floor, it)`:
//!    a shard whose reply is lost takes exactly that step itself. The sum
//!    of committed budgets therefore never exceeds the pool, and converges
//!    to it exactly (largest-remainder fold, `ArbiterPolicy::split`) once
//!    every live shard has renewed after a membership change.
//! 2. **Encumbrance at the floor.** A lease that misses its renewals
//!    expires, but its watts are not fully reclaimed: `min(floor,
//!    committed)` stays *encumbered* — reserved for the silent shard —
//!    because the shard's own degraded mode clamps to exactly that value.
//!    Only the watts above the floor return to the pool. A partitioned
//!    shard and the coordinator therefore agree on the shard's worst-case
//!    draw without communicating.
//! 3. **Epoch fencing.** Every applied operation bumps the table epoch;
//!    a lease records the epoch of its last grant/re-adoption/expiry as
//!    its *fence*. A renewal presenting an epoch older than the fence is
//!    rejected — the shard it came from has provably missed an expiry and
//!    must re-lease (which re-adopts its existing entry rather than
//!    double-granting).
//!
//! A shard always presents its own id, so there is at most one lease per
//! shard id: a shard whose `Granted` reply was lost asks again under the
//! same id and re-adopts the lease it never heard about.
//!
//! Shard side, `ShardLease` mirrors rule 2 with the coordinator's floor,
//! which every `Granted` carries: on every missed renewal the local cap
//! halves toward `min(floor, last grant)`, and in the last round before
//! the lease's TTL passes by the shard's own clock it clamps there. The
//! local cap is monotone non-increasing between grants and never exceeds
//! the last granted budget — the invariant the fleet walk checks after
//! every step.
//!
//! ## One step each side
//!
//! Only this module knows the protocol. The coordinator drives the table
//! through one step, [`LeaseTable::apply`]: advance the logical clock to
//! the request's tick, apply the operation, and return the
//! [`CoordJournalEntry`] that records it; it journals that entry and
//! answers with `LeaseTable::reply`. [`replay_coordinator`] folds the
//! same step over the journal and requires every recomputed entry to
//! equal the recorded one ([`JournalError::Divergence`] when history
//! cannot be trusted). Expirations are recomputed on the way, never
//! journaled. The shard's lease client builds each request with
//! `ShardLease::request` and hands every reply, or the lack of one, to
//! `ShardLease::on_reply`. Both machines count **milliseconds**, and
//! neither reads a clock: each step is handed its time (a journal's
//! `tick` is one millisecond), so a test steps both on logical time.

use crate::arbiter::{ArbiterPolicy, BUDGET_EPS_W};
use crate::journal::JournalError;
use acs_sim::{Cap, Watts};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One lease's coordinator-side state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaseState {
    /// The shard holding the lease (stable across re-adoptions).
    pub shard_id: u64,
    /// Budget actually communicated to the shard, W. For an expired
    /// (encumbered) lease this is the reserve held for the silent shard.
    pub committed_w: f64,
    /// The shard's last reported demand, W (drives demand-proportional
    /// targets).
    demand_w: f64,
    /// Logical time, ms, at which the lease expires unless renewed.
    expires_tick: u64,
    /// Table epoch of the last grant/re-adoption/expiry — renewals
    /// presenting an older epoch are fenced off.
    fence: u64,
    /// Live (renewable) vs. expired-and-encumbered.
    pub live: bool,
    /// The time, ms, the lease expired at (its own `expires_tick`, **not**
    /// the time the expiry was detected at — detection depends on when
    /// `advance_to` runs, which replay does not reproduce). Zero while
    /// live. Drives health-checked eviction.
    pub expired_tick: u64,
}

/// Typed lease-table failures.
#[derive(Debug, Clone, PartialEq)]
pub enum LeaseError {
    /// The pool cannot fit another floor-sized lease right now; the shard
    /// should retry after the next renewal round frees ramp-down watts.
    Denied {
        /// The minimum grant (the floor), W.
        needed_w: f64,
        /// What the pool could actually offer, W.
        available_w: f64,
    },
    /// No such lease id.
    UnknownLease {
        /// The offending id.
        lease_id: u64,
    },
    /// The lease expired; the shard must re-lease (re-adopt).
    Expired {
        /// The expired lease.
        lease_id: u64,
    },
    /// The renewal's epoch predates the lease's fence: the shard missed
    /// an expiry and is operating on stale state.
    Fenced {
        /// The fenced lease.
        lease_id: u64,
        /// The fence the renewal had to clear.
        fence: u64,
        /// The epoch the renewal presented.
        presented: u64,
    },
}

impl LeaseError {
    /// Stable machine-readable code for [`CoordResponse::Rejected`].
    pub(crate) fn code(&self) -> &'static str {
        match self {
            LeaseError::Denied { .. } => "denied",
            LeaseError::UnknownLease { .. } => "unknown-lease",
            LeaseError::Expired { .. } => "expired",
            LeaseError::Fenced { .. } => "fenced",
        }
    }
}

impl std::fmt::Display for LeaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaseError::Denied { needed_w, available_w } => {
                write!(f, "grant denied: pool offers {available_w} W, floor is {needed_w} W")
            }
            LeaseError::UnknownLease { lease_id } => write!(f, "unknown lease {lease_id}"),
            LeaseError::Expired { lease_id } => {
                write!(f, "lease {lease_id} expired; re-lease to re-adopt")
            }
            LeaseError::Fenced { lease_id, fence, presented } => {
                write!(f, "lease {lease_id} fenced: presented epoch {presented}, fence is {fence}")
            }
        }
    }
}

impl std::error::Error for LeaseError {}

/// The coordinator's lease table. Pure state machine — no I/O, no clock —
/// driven through one step, [`Self::apply`], by the coordinator, by
/// [`replay_coordinator`] and by the conservation tests alike.
#[derive(Debug, Clone)]
pub struct LeaseTable {
    global_cap_w: f64,
    policy: ArbiterPolicy,
    ttl_ms: u64,
    floor_w: Cap,
    evict_after_ms: u64,
    /// The logical clock, ms.
    tick: u64,
    epoch: u64,
    next_lease: u64,
    leases: BTreeMap<u64, LeaseState>,
    grants: u64,
    renews: u64,
    expirations: u64,
    revocations: u64,
    evictions: u64,
}

impl LeaseTable {
    /// A table over a cap with `floor_w < global_cap_w`, a lease TTL of at
    /// least one millisecond, and health-checked eviction
    /// `evict_after_ms` past a lease's expiry: an expired (encumbered)
    /// lease whose shard stays silent that long is removed entirely,
    /// returning its reserve to the pool — the operator's `Revoke`
    /// automated. `0` disables eviction and keeps the floor-parked-forever
    /// semantics. Eviction is a pure function of the logical clock, so
    /// replay reproduces it with no journal entry — into a table built with
    /// the same horizon.
    pub fn new(
        global_cap_w: Cap,
        policy: ArbiterPolicy,
        ttl_ms: u64,
        floor_w: Cap,
        evict_after_ms: u64,
    ) -> Self {
        assert!(ttl_ms >= 1, "a lease must live at least one millisecond");
        assert!(floor_w < global_cap_w, "the floor must be below the cap");
        Self {
            global_cap_w: global_cap_w.get(),
            policy,
            ttl_ms,
            floor_w,
            evict_after_ms,
            tick: 0,
            epoch: 0,
            next_lease: 1,
            leases: BTreeMap::new(),
            grants: 0,
            renews: 0,
            expirations: 0,
            revocations: 0,
            evictions: 0,
        }
    }

    /// Current logical time, ms.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Monotonic epoch, bumped by every applied operation and every expiry.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The lease id the next fresh grant will receive.
    pub fn next_lease(&self) -> u64 {
        self.next_lease
    }

    /// One lease's state.
    pub fn lease(&self, lease_id: u64) -> Option<&LeaseState> {
        self.leases.get(&lease_id)
    }

    /// All leases, ascending by id.
    pub fn snapshot(&self) -> Vec<(u64, LeaseState)> {
        self.leases.iter().map(|(id, l)| (*id, *l)).collect()
    }

    /// Whether no shard id holds two leases, live or encumbered: what
    /// re-adoption in `grant` keeps true.
    pub fn one_lease_per_shard(&self) -> bool {
        let mut shard_ids: Vec<u64> = self.leases.values().map(|l| l.shard_id).collect();
        shard_ids.sort_unstable();
        shard_ids.windows(2).all(|pair| pair[0] != pair[1])
    }

    /// Ids of live (renewable) leases, ascending.
    pub fn live_ids(&self) -> Vec<u64> {
        self.leases.iter().filter(|(_, l)| l.live).map(|(id, _)| *id).collect()
    }

    /// Ids of expired-and-encumbered leases, ascending.
    pub fn encumbered_ids(&self) -> Vec<u64> {
        self.leases.iter().filter(|(_, l)| !l.live).map(|(id, _)| *id).collect()
    }

    /// The table's metrics: counts, sums and lifetime counters. The two
    /// journal counters are the coordinator's to fill in; they are zero
    /// here.
    pub fn stats(&self) -> CoordStats {
        let live_committed_w = self.live_committed_w();
        let pool_w = self.pool_w();
        CoordStats {
            tick: self.tick,
            epoch: self.epoch,
            global_cap_w: self.global_cap_w,
            floor_w: self.floor_w.get(),
            live_leases: self.live_ids().len() as u64,
            encumbered_leases: self.encumbered_ids().len() as u64,
            live_committed_w,
            encumbered_w: self.encumbered_w(),
            pool_w,
            overshoot_w: (live_committed_w - pool_w).max(0.0),
            grants: self.grants,
            renews: self.renews,
            expirations: self.expirations,
            revocations: self.revocations,
            evicted_shards: self.evictions,
            journal_appends: 0,
            journal_replayed: 0,
        }
    }

    /// Sum of live committed budgets, W. Both sums start from `+0.0`: an
    /// empty `f64` `sum()` is `-0.0`, which a fresh table would report.
    fn live_committed_w(&self) -> f64 {
        self.leases.values().filter(|l| l.live).fold(0.0, |sum, l| sum + l.committed_w)
    }

    /// Sum of encumbered reserves, W.
    fn encumbered_w(&self) -> f64 {
        self.leases.values().filter(|l| !l.live).fold(0.0, |sum, l| sum + l.committed_w)
    }

    /// Watts available to live leases: the cap minus encumbered reserves.
    fn pool_w(&self) -> f64 {
        self.global_cap_w - self.encumbered_w()
    }

    /// Advance logical time to `now_ms`, processing overdue expiries and
    /// (when the horizon is enabled) evictions as one merged event stream
    /// ordered by `(event_tick, lease_id)` — an expiry's event tick is the
    /// lease's `expires_tick`, an eviction's is `expired_tick +
    /// evict_after_ms`, both pure functions of lease state, so live
    /// and replay bump the epoch in the same order no matter how the
    /// intermediate clock advances differ. Each expiry fences the lease
    /// and shrinks its commitment to the encumbered reserve `min(floor,
    /// committed)`; each eviction removes the lease entirely, returning
    /// the reserve to the pool. Returns the expired ids.
    pub fn advance_to(&mut self, now_ms: u64) -> Vec<u64> {
        if now_ms > self.tick {
            self.tick = now_ms;
        }
        let mut expired = Vec::new();
        loop {
            // Earliest due event; recomputed each round because an expiry
            // inside this same call can schedule the lease's eviction.
            let mut next: Option<(u64, u64, bool)> = None;
            for (id, l) in &self.leases {
                let event = if l.live && l.expires_tick <= self.tick {
                    Some((l.expires_tick, *id, false))
                } else if !l.live
                    && self.evict_after_ms > 0
                    && l.expired_tick.saturating_add(self.evict_after_ms) <= self.tick
                {
                    Some((l.expired_tick + self.evict_after_ms, *id, true))
                } else {
                    None
                };
                if let Some(e) = event {
                    if next.is_none_or(|n| e < n) {
                        next = Some(e);
                    }
                }
            }
            let Some((_, id, evict)) = next else { break };
            self.epoch += 1;
            if evict {
                self.evictions += 1;
                self.leases.remove(&id);
            } else if let Some(lease) = self.leases.get_mut(&id) {
                self.expirations += 1;
                lease.live = false;
                lease.committed_w = lease.committed_w.min(self.floor_w.get());
                lease.fence = self.epoch;
                lease.expired_tick = lease.expires_tick;
                expired.push(id);
            }
        }
        expired
    }

    /// The one coordinator step: advance the clock to `now_ms`, apply the
    /// operation, and return the journal entry that records it — or the
    /// typed rejection, which leaves
    /// nothing but the clock advance behind (rejections are not
    /// journaled). `None` for `Stats` and `Shutdown`, which are not lease
    /// operations and touch nothing, not even the clock.
    ///
    /// Replay is this same step folded over the journal
    /// (`CoordJournalEntry::request`), so what the coordinator journals
    /// and what a restart recomputes cannot drift apart.
    pub fn apply(
        &mut self,
        now_ms: u64,
        request: &CoordRequest,
    ) -> Option<Result<CoordJournalEntry, LeaseError>> {
        if matches!(request, CoordRequest::Stats | CoordRequest::Shutdown) {
            return None;
        }
        self.advance_to(now_ms);
        Some(match *request {
            CoordRequest::Lease { shard_id, demand_w } => self.grant(shard_id, demand_w),
            CoordRequest::Renew { lease_id, epoch, demand_w } => {
                self.renew(lease_id, epoch, demand_w)
            }
            CoordRequest::Release { lease_id } | CoordRequest::Revoke { lease_id } => {
                // Release is a shard's clean departure, revoke the
                // operator's removal of a lease known to be dead; either
                // drops the lease and any encumbrance, and its watts return
                // to the pool for the next renewal round.
                if self.leases.remove(&lease_id).is_none() {
                    return Some(Err(LeaseError::UnknownLease { lease_id }));
                }
                self.epoch += 1;
                let (tick, epoch) = (self.tick, self.epoch);
                if matches!(request, CoordRequest::Revoke { .. }) {
                    self.revocations += 1;
                    Ok(CoordJournalEntry::Revoke { lease_id, tick, epoch })
                } else {
                    Ok(CoordJournalEntry::Release { lease_id, tick, epoch })
                }
            }
            CoordRequest::Stats | CoordRequest::Shutdown => return None,
        })
    }

    /// The reply an applied operation earns, derived from its journal
    /// entry and the table it was just applied to. Every grant and renewal
    /// hands the shard the TTL for its own expiry clock beside the floor it
    /// clamps to. A commitment out of range, which the table never makes,
    /// would go out as zero: no watts yet, to a shard.
    pub(crate) fn reply(&self, entry: &CoordJournalEntry) -> CoordResponse {
        let committed = |id| self.leases.get(&id).and_then(|l| Watts::new(l.committed_w).ok());
        let budget_w = |lease_id| committed(lease_id).unwrap_or_default();
        let (ttl_ms, floor_w) = (self.ttl_ms, self.floor_w);
        match *entry {
            CoordJournalEntry::Grant { lease_id, epoch, .. } => {
                let budget_w = budget_w(lease_id);
                CoordResponse::Granted { lease_id, epoch, budget_w, ttl_ms, floor_w }
            }
            CoordJournalEntry::Renew { lease_id, epoch, .. } => {
                let budget_w = budget_w(lease_id);
                CoordResponse::Renewed { lease_id, epoch, budget_w, ttl_ms, floor_w }
            }
            CoordJournalEntry::Release { .. } => CoordResponse::Released,
            CoordJournalEntry::Revoke { .. } => CoordResponse::Revoked,
        }
    }

    /// Target shares for the current live set: the pool split by the
    /// policy (equal, or half floor + demand-proportional), folded so the
    /// targets sum to the pool exactly. Aligned with [`Self::live_ids`].
    fn targets(&self, live_ids: &[u64]) -> Vec<f64> {
        let demands: Vec<f64> = live_ids.iter().map(|id| self.leases[id].demand_w).collect();
        self.policy.split(self.pool_w(), &demands)
    }

    /// Commit-on-contact: move `lease_id` toward its target, taking at
    /// most the watts currently free (pool minus live commitments) and
    /// giving up at most what the shard gives up on its own if this reply
    /// is lost (half, or down to `min(floor, committed)`), then clamp any
    /// floating-point overshoot back onto this lease so the live sum never
    /// exceeds the pool.
    fn settle(&mut self, lease_id: u64) {
        let live_ids = self.live_ids();
        let Some(pos) = live_ids.iter().position(|&id| id == lease_id) else {
            return;
        };
        let target = self.targets(&live_ids)[pos];
        let free = (self.pool_w() - self.live_committed_w()).max(0.0);
        let floor_w = self.floor_w.get();
        if let Some(lease) = self.leases.get_mut(&lease_id) {
            let held = lease.committed_w;
            let lowest = (held * 0.5).max(held.min(floor_w));
            lease.committed_w = target.min(held + free).max(lowest);
        }
        for _ in 0..4 {
            let over = self.live_committed_w() - self.pool_w();
            match self.leases.get_mut(&lease_id) {
                Some(lease) if over > 0.0 => lease.committed_w -= over,
                _ => break,
            }
        }
        debug_assert!(
            self.live_committed_w() <= self.pool_w(),
            "live commitments {} exceed pool {}",
            self.live_committed_w(),
            self.pool_w()
        );
    }

    /// A `Lease`. A shard id with an existing lease (live or encumbered)
    /// is **re-adopted** — same lease id, commitment resumed from where it
    /// stood — never double-granted. A fresh shard is admitted when its
    /// *steady-state target* clears the floor; its initial commitment is
    /// `min(target, free)` — often zero right after a membership change —
    /// and it ramps toward its target as the incumbents renew down
    /// (commit-on-contact). If even the steady-state target cannot reach
    /// the floor, the grant is denied without mutating the table. Either
    /// way the lease goes live with a fresh fence and TTL, then settles.
    fn grant(&mut self, shard_id: u64, demand_w: Watts) -> Result<CoordJournalEntry, LeaseError> {
        let readopted = self.leases.iter().find(|(_, l)| l.shard_id == shard_id);
        let (lease_id, committed_w) = match readopted.map(|(id, l)| (*id, l.committed_w)) {
            Some(readopted) => readopted,
            None => {
                // The newcomer's steady-state target is the last share
                // of the split over the live demands plus its own.
                let mut demands: Vec<f64> =
                    self.leases.values().filter(|l| l.live).map(|l| l.demand_w).collect();
                demands.push(demand_w.get());
                let target_new = self.policy.split(self.pool_w(), &demands)[demands.len() - 1];
                if target_new + BUDGET_EPS_W < self.floor_w.get() {
                    return Err(LeaseError::Denied {
                        needed_w: self.floor_w.get(),
                        available_w: target_new.max(0.0),
                    });
                }
                let id = self.next_lease;
                self.next_lease += 1;
                (id, 0.0)
            }
        };
        self.epoch += 1;
        self.grants += 1;
        let lease = LeaseState {
            shard_id,
            committed_w,
            demand_w: demand_w.get(),
            expires_tick: self.tick.saturating_add(self.ttl_ms),
            fence: self.epoch,
            live: true,
            expired_tick: 0,
        };
        self.leases.insert(lease_id, lease);
        self.settle(lease_id);
        Ok(CoordJournalEntry::Grant {
            lease_id,
            shard_id,
            demand_w,
            tick: self.tick,
            epoch: self.epoch,
        })
    }

    /// A `Renew` of a live lease. The presented epoch must clear the
    /// lease's fence; an expired lease rejects with
    /// [`LeaseError::Expired`] so the shard re-leases (re-adopts) instead.
    fn renew(
        &mut self,
        lease_id: u64,
        epoch: u64,
        demand_w: Watts,
    ) -> Result<CoordJournalEntry, LeaseError> {
        let lease = self.leases.get_mut(&lease_id).ok_or(LeaseError::UnknownLease { lease_id })?;
        if !lease.live {
            return Err(LeaseError::Expired { lease_id });
        }
        if epoch < lease.fence {
            return Err(LeaseError::Fenced { lease_id, fence: lease.fence, presented: epoch });
        }
        lease.demand_w = demand_w.get();
        lease.expires_tick = self.tick.saturating_add(self.ttl_ms);
        self.epoch += 1;
        self.renews += 1;
        self.settle(lease_id);
        Ok(CoordJournalEntry::Renew { lease_id, demand_w, tick: self.tick, epoch: self.epoch })
    }
}

/// A coordinator-to-shard wire request (length-prefixed JSON frames, the
/// same transport as [`Request`](crate::protocol::Request)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoordRequest {
    /// Acquire (or re-adopt) a lease.
    Lease {
        /// The shard's own id, the same on every lease it asks for.
        shard_id: u64,
        /// The shard's current demand, W.
        demand_w: Watts,
    },
    /// Renew a live lease.
    Renew {
        /// The lease to renew.
        lease_id: u64,
        /// The epoch from the last grant/renewal (fencing token).
        epoch: u64,
        /// Updated demand, W.
        demand_w: Watts,
    },
    /// Clean departure: drop the lease and free its watts.
    Release {
        /// The lease to release.
        lease_id: u64,
    },
    /// Operator-forced removal of a lease known to be dead — frees the
    /// encumbered reserve that expiry alone keeps holding.
    Revoke {
        /// The lease to revoke.
        lease_id: u64,
    },
    /// Ask for a coordinator metrics snapshot.
    Stats,
    /// Shut the coordinator down.
    Shutdown,
}

impl CoordRequest {
    /// Short label for metrics bucketing.
    fn kind(&self) -> &'static str {
        match self {
            CoordRequest::Lease { .. } => "lease",
            CoordRequest::Renew { .. } => "renew",
            CoordRequest::Release { .. } => "release",
            CoordRequest::Revoke { .. } => "revoke",
            CoordRequest::Stats => "stats",
            CoordRequest::Shutdown => "shutdown",
        }
    }
}

/// Coordinator metrics snapshot (`CoordRequest::Stats` reply).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoordStats {
    /// Current logical time, ms.
    pub tick: u64,
    /// Current table epoch.
    pub epoch: u64,
    /// The global cap, W.
    pub global_cap_w: f64,
    /// The degraded-mode floor, W.
    pub floor_w: f64,
    /// Live (renewable) leases.
    pub live_leases: u64,
    /// Expired-and-encumbered leases.
    pub encumbered_leases: u64,
    /// Sum of live committed budgets, W.
    pub live_committed_w: f64,
    /// Sum of encumbered reserves, W.
    pub encumbered_w: f64,
    /// Watts available to live leases.
    pub pool_w: f64,
    /// Conservation gate: live commitments above the pool (must be 0).
    pub overshoot_w: f64,
    /// Lifetime grants (fresh + re-adoptions).
    pub grants: u64,
    /// Lifetime accepted renewals.
    pub renews: u64,
    /// Lifetime expirations.
    pub expirations: u64,
    /// Lifetime revocations.
    pub revocations: u64,
    /// Lifetime health-check evictions of silent shards (absent in
    /// pre-eviction snapshots).
    #[serde(default)]
    pub evicted_shards: u64,
    /// Journal entries appended since the coordinator started.
    pub journal_appends: u64,
    /// Journal entries replayed at startup.
    pub journal_replayed: u64,
}

/// A coordinator-to-shard wire response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoordResponse {
    /// Reply to `Lease`.
    Granted {
        /// The lease id.
        lease_id: u64,
        /// Fencing token for the next renewal.
        epoch: u64,
        /// The committed budget, W.
        budget_w: Watts,
        /// Lease TTL, ms — the shard clamps to its
        /// floor when this much time passes without a successful renewal.
        ttl_ms: u64,
        /// The coordinator's floor, W: what it encumbers for a silent
        /// shard, and so where the shard's degraded mode stops.
        floor_w: Cap,
    },
    /// Reply to `Renew`.
    Renewed {
        /// The renewed lease.
        lease_id: u64,
        /// Fencing token for the next renewal.
        epoch: u64,
        /// The (possibly resettled) committed budget, W.
        budget_w: Watts,
        /// As in `Granted`: a coordinator restarted with another TTL or
        /// floor reaches a renewing shard at once.
        ttl_ms: u64,
        /// As in `Granted`.
        floor_w: Cap,
    },
    /// Typed lease rejection (`LeaseError::code`); the shard reacts by
    /// re-leasing (`expired`, `fenced`, `unknown-lease`) or retrying
    /// later (`denied`).
    Rejected {
        /// Stable machine-readable code.
        code: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Reply to `Release`.
    Released,
    /// Reply to `Revoke`.
    Revoked,
    /// Reply to `Stats`.
    Stats(CoordStats),
    /// Typed transport/decode failure.
    Error {
        /// Stable machine-readable code.
        code: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Reply to `Shutdown`.
    ShuttingDown,
}

/// One recorded coordinator state transition. Only *applied* operations
/// are journaled — denials and fenced renewals leave no trace — and every
/// entry records the logical time, ms, it was applied at plus the post-op
/// epoch, so replay reproduces the exact expiry/operation interleaving
/// and verifies it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoordJournalEntry {
    /// A lease was granted (fresh or re-adopted).
    Grant {
        /// The granted lease id.
        lease_id: u64,
        /// The shard it was granted to.
        shard_id: u64,
        /// The shard's reported demand, W.
        demand_w: Watts,
        /// Logical time, ms, the grant was applied at.
        tick: u64,
        /// Table epoch after the grant.
        epoch: u64,
    },
    /// A live lease was renewed.
    Renew {
        /// The renewed lease.
        lease_id: u64,
        /// Updated demand, W.
        demand_w: Watts,
        /// Logical time, ms, the renewal was applied at.
        tick: u64,
        /// Table epoch after the renewal.
        epoch: u64,
    },
    /// A lease was released (clean departure).
    Release {
        /// The released lease.
        lease_id: u64,
        /// Logical time, ms, the release was applied at.
        tick: u64,
        /// Table epoch after the release.
        epoch: u64,
    },
    /// A lease was revoked by the operator.
    Revoke {
        /// The revoked lease.
        lease_id: u64,
        /// Logical time, ms, the revocation was applied at.
        tick: u64,
        /// Table epoch after the revocation.
        epoch: u64,
    },
}

/// What [`replay_coordinator`] reconstructed.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordRecovery {
    /// Journal entries replayed.
    pub replayed: u64,
    /// Live leases after replay — shards the restarted coordinator
    /// re-adopts on their next renewal or re-lease.
    pub live_leases: Vec<u64>,
    /// Expired-and-encumbered leases after replay.
    pub encumbered_leases: Vec<u64>,
}

impl CoordJournalEntry {
    /// The logical time, ms, the operation was applied at.
    fn tick(&self) -> u64 {
        match *self {
            CoordJournalEntry::Grant { tick, .. }
            | CoordJournalEntry::Renew { tick, .. }
            | CoordJournalEntry::Release { tick, .. }
            | CoordJournalEntry::Revoke { tick, .. } => tick,
        }
    }

    /// The request that, applied at [`Self::tick`], reproduces this entry.
    /// A grant presents the shard id it recorded — one a coordinator that
    /// once named shards itself (bit 63 set) replays like any other. A
    /// renewal cleared its fence live, so it presents
    /// `u64::MAX`: replay checks what the renewal produced, not the token
    /// it carried.
    fn request(&self) -> CoordRequest {
        match *self {
            CoordJournalEntry::Grant { shard_id, demand_w, .. } => {
                CoordRequest::Lease { shard_id, demand_w }
            }
            CoordJournalEntry::Renew { lease_id, demand_w, .. } => {
                CoordRequest::Renew { lease_id, epoch: u64::MAX, demand_w }
            }
            CoordJournalEntry::Release { lease_id, .. } => CoordRequest::Release { lease_id },
            CoordJournalEntry::Revoke { lease_id, .. } => CoordRequest::Revoke { lease_id },
        }
    }
}

/// Fold a validated coordinator entry stream into `table`, freshly built
/// with the configuration to replay under, through [`LeaseTable::apply`],
/// the step the coordinator took live: each entry's request is applied at
/// its recorded time (recomputing any expirations — and, with an eviction
/// horizon, evictions — on the way), and the recomputed entry must equal
/// the recorded one, lease id, shard id, demand, tick and post-op epoch
/// alike. A TTL or horizon other than the live table's moves an expiry or
/// an eviction, so the recomputed epochs diverge.
pub fn replay_coordinator(
    entries: &[CoordJournalEntry],
    mut table: LeaseTable,
) -> Result<(LeaseTable, CoordRecovery), JournalError> {
    for (index, entry) in entries.iter().enumerate() {
        let request = entry.request();
        let detail = match table.apply(entry.tick(), &request) {
            Some(Ok(recomputed)) if recomputed == *entry => continue,
            Some(Ok(recomputed)) => format!("recorded {entry:?}, recomputed {recomputed:?}"),
            Some(Err(e)) => format!("journaled {} rejected: {e}", request.kind()),
            None => format!("journaled {} is not a lease operation", request.kind()),
        };
        return Err(JournalError::Divergence { index, detail });
    }
    let recovery = CoordRecovery {
        replayed: entries.len() as u64,
        live_leases: table.live_ids(),
        encumbered_leases: table.encumbered_ids(),
    };
    Ok((table, recovery))
}

/// Which side of the lease the shard is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShardLeaseState {
    /// No lease yet (startup, or after a release): the shard runs at its
    /// pre-lease reserve, or where its last lease left it.
    Unleased,
    /// Lease live and renewing.
    Leased,
    /// Renewals are failing: the local cap decays toward the floor and
    /// never exceeds the last granted budget.
    Degraded,
}

impl ShardLeaseState {
    /// Stable name for the STATS snapshot.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            ShardLeaseState::Unleased => "unleased",
            ShardLeaseState::Leased => "leased",
            ShardLeaseState::Degraded => "degraded",
        }
    }
}

/// The shard-side lease state machine. Pure — the lease client thread
/// owns the socket and reads the clock; this type builds each request,
/// folds each reply (or its absence) at a time on the shard's millisecond
/// clock and decides what the local cap may be. Invariants: the cap never
/// exceeds the last granted budget, and between grants it is monotone
/// non-increasing.
#[derive(Debug, Clone)]
pub(crate) struct ShardLease {
    shard_id: u64,
    /// What every request asks for, W.
    demand_w: Watts,
    /// Where degraded mode stops, before `min(·, last grant)`: the
    /// pre-lease reserve until a grant lands, then the coordinator's floor.
    floor_w: Cap,
    state: ShardLeaseState,
    lease_id: Option<u64>,
    epoch: u64,
    cap_w: Cap,
    grant_w: Option<Cap>,
    degraded_entries: u64,
    /// The lease TTL, ms, from the last grant or renewal.
    ttl_ms: u64,
    /// How long the shard waits between two rounds, ms.
    renew_ms: u64,
    /// The time, ms, of the round whose grant or renewal landed last: the
    /// shard-local expiry clock; `None` while no grant is in force.
    contact_ms: Option<u64>,
    evictions: u64,
}

impl ShardLease {
    /// A fresh, unleased shard `shard_id` demanding `demand_w` and making
    /// a round every `renew_ms`: the local cap starts at the pre-lease
    /// reserve `reserve_w`.
    pub(crate) fn new(shard_id: u64, demand_w: Watts, reserve_w: Cap, renew_ms: u64) -> Self {
        Self {
            shard_id,
            demand_w,
            floor_w: reserve_w,
            state: ShardLeaseState::Unleased,
            lease_id: None,
            epoch: 0,
            cap_w: reserve_w,
            grant_w: None,
            degraded_entries: 0,
            ttl_ms: 0,
            renew_ms,
            contact_ms: None,
            evictions: 0,
        }
    }

    /// Current state.
    pub(crate) fn state(&self) -> ShardLeaseState {
        self.state
    }

    /// The cap the shard's arbiter may run at right now, W.
    pub(crate) fn cap_w(&self) -> Cap {
        self.cap_w
    }

    /// The lease id, once granted.
    pub(crate) fn lease_id(&self) -> Option<u64> {
        self.lease_id
    }

    /// The last positive budget granted on the lease in force, W: the
    /// ceiling of degraded mode. `None` while unleased, and while a lease
    /// admitted at zero watts still runs on the pre-lease reserve.
    #[cfg(test)]
    pub(crate) fn grant_w(&self) -> Option<Cap> {
        self.grant_w
    }

    /// How many times the shard has entered degraded mode.
    pub(crate) fn degraded_entries(&self) -> u64 {
        self.degraded_entries
    }

    /// How many times a renewal learned the coordinator's health check had
    /// evicted the lease (`unknown-lease` on a renew).
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The next request: a renewal presenting the last epoch while a lease
    /// is held, else a lease under the shard's id (a re-adoption when the
    /// coordinator holds one for it, never a double grant).
    pub(crate) fn request(&self) -> CoordRequest {
        let (epoch, demand_w) = (self.epoch, self.demand_w);
        match self.lease_id {
            Some(lease_id) => CoordRequest::Renew { lease_id, epoch, demand_w },
            None => CoordRequest::Lease { shard_id: self.shard_id, demand_w },
        }
    }

    /// Fold the coordinator's reply to `request` — `None` when the call
    /// failed (timeout, refused connection) — in the round made at `now_ms`
    /// on the shard's clock, and return the cap to apply.
    ///
    /// - A grant or renewal sets the cap to its budget, and the TTL and
    ///   floor to the coordinator's. A zero-watt budget — a shard
    ///   admitted mid-ramp, before the incumbents have renewed down — keeps
    ///   the previous cap (the pre-lease reserve at startup, which the
    ///   deployment covers) and ramps at the next renewal.
    /// - An `expired`, `fenced` or `unknown-lease` rejection means the
    ///   lease is gone on the coordinator's side: back to unleased at
    ///   `min(floor, last grant)`, to re-lease under the shard's id.
    ///   `unknown-lease` on a renewal is a health-check eviction and is
    ///   counted. A denial changes nothing: the shard keeps asking.
    /// - A failed call is a miss: the cap halves toward `min(floor, last
    ///   grant)`, never below it. In the last round before the lease TTL
    ///   passes by the shard's own clock, the one whose next round would
    ///   come at or after it, it clamps there — the encumbered reserve the
    ///   coordinator holds from its own TTL on — so both sides agree on
    ///   the worst case without communicating.
    pub(crate) fn on_reply(
        &mut self,
        request: &CoordRequest,
        reply: Option<&CoordResponse>,
        now_ms: u64,
    ) -> Cap {
        match reply {
            Some(&CoordResponse::Granted {
                lease_id, epoch, budget_w, ttl_ms, floor_w, ..
            }) => {
                self.lease_id = Some(lease_id);
                self.landed(epoch, budget_w, ttl_ms, floor_w, now_ms);
            }
            Some(&CoordResponse::Renewed { epoch, budget_w, ttl_ms, floor_w, .. }) => {
                self.landed(epoch, budget_w, ttl_ms, floor_w, now_ms);
            }
            Some(CoordResponse::Rejected { code, .. })
                if matches!(code.as_str(), "expired" | "fenced" | "unknown-lease") =>
            {
                if code == "unknown-lease" && matches!(request, CoordRequest::Renew { .. }) {
                    self.evictions += 1;
                }
                self.state = ShardLeaseState::Unleased;
                self.lease_id = None;
                self.contact_ms = None;
                self.cap_w = self.reserve_w();
                self.grant_w = None;
            }
            None if self.state != ShardLeaseState::Unleased => {
                if self.state != ShardLeaseState::Degraded {
                    self.state = ShardLeaseState::Degraded;
                    self.degraded_entries += 1;
                }
                let reserve_w = self.reserve_w();
                let half = Cap::new(self.cap_w.get() * 0.5).ok().filter(|&w| w > reserve_w);
                self.cap_w = half.unwrap_or(reserve_w);
                let next_ms = now_ms.saturating_add(self.renew_ms);
                if self.contact_ms.is_some_and(|at| next_ms.saturating_sub(at) >= self.ttl_ms) {
                    self.cap_w = self.reserve_w();
                    self.contact_ms = None;
                }
            }
            // A denial, any other answer, or a miss with no lease held.
            _ => {}
        }
        self.cap_w
    }

    /// `min(floor, last grant)`: where degraded mode stops. With no grant
    /// in force the cap it runs on stands in for the last grant.
    fn reserve_w(&self) -> Cap {
        let (grant, floor) = (self.grant_w.unwrap_or(self.cap_w), self.floor_w);
        if grant < floor {
            grant
        } else {
            floor
        }
    }

    /// A grant or renewal landed in the round made at `now_ms`: leased
    /// again at its budget, if it is more than zero, under the
    /// coordinator's TTL and floor, and the expiry clock restarts.
    fn landed(&mut self, epoch: u64, budget_w: Watts, ttl_ms: u64, floor_w: Cap, now_ms: u64) {
        self.state = ShardLeaseState::Leased;
        self.epoch = epoch;
        self.ttl_ms = ttl_ms;
        self.floor_w = floor_w;
        if let Ok(budget_w) = Cap::new(budget_w.get()) {
            self.cap_w = budget_w;
            self.grant_w = Some(budget_w);
        }
        self.contact_ms = Some(now_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap(w: f64) -> Cap {
        Cap::new(w).unwrap()
    }

    fn watts(w: f64) -> Watts {
        Watts::new(w).unwrap()
    }

    const RENEW_MS: u64 = 200;

    /// Shard `shard_id` demanding `demand_w` on a `reserve_w` pre-lease
    /// reserve, making a round every [`RENEW_MS`].
    fn shard(shard_id: u64, demand_w: f64, reserve_w: f64) -> ShardLease {
        ShardLease::new(shard_id, watts(demand_w), cap(reserve_w), RENEW_MS)
    }

    fn table() -> LeaseTable {
        LeaseTable::new(cap(100.0), ArbiterPolicy::EqualShare, 10, cap(5.0), 0)
    }

    /// What a test reads off a `Granted` or `Renewed` reply, and the
    /// lease's expiry in the table that sent it.
    #[derive(Debug)]
    struct Outcome {
        lease_id: u64,
        epoch: u64,
        budget_w: f64,
        expires_tick: u64,
    }

    /// One step at the table's own tick, recorded in `journal`, and the
    /// reply it earned.
    fn step(
        t: &mut LeaseTable,
        journal: &mut Vec<CoordJournalEntry>,
        request: CoordRequest,
    ) -> Result<CoordResponse, LeaseError> {
        let entry = t.apply(t.tick(), &request).expect("a lease operation")?;
        let reply = t.reply(&entry);
        journal.push(entry);
        Ok(reply)
    }

    /// A `Lease` or `Renew` step, read off its reply.
    fn call(
        t: &mut LeaseTable,
        journal: &mut Vec<CoordJournalEntry>,
        request: CoordRequest,
    ) -> Result<Outcome, LeaseError> {
        Ok(match step(t, journal, request)? {
            CoordResponse::Granted { lease_id, epoch, budget_w, .. }
            | CoordResponse::Renewed { lease_id, epoch, budget_w, .. } => {
                let expires_tick = t.lease(lease_id).expect("a granted lease").expires_tick;
                Outcome { lease_id, epoch, budget_w: budget_w.get(), expires_tick }
            }
            other => panic!("expected Granted or Renewed, got {other:?}"),
        })
    }

    fn grant(t: &mut LeaseTable, shard_id: u64, demand_w: f64) -> Result<Outcome, LeaseError> {
        call(t, &mut Vec::new(), CoordRequest::Lease { shard_id, demand_w: watts(demand_w) })
    }

    fn renew(
        t: &mut LeaseTable,
        lease_id: u64,
        epoch: u64,
        demand_w: f64,
    ) -> Result<Outcome, LeaseError> {
        call(t, &mut Vec::new(), CoordRequest::Renew { lease_id, epoch, demand_w: watts(demand_w) })
    }

    /// Renew every live lease once, in id order, presenting the current
    /// epoch (never behind a fence).
    fn renew_round(t: &mut LeaseTable) {
        for id in t.live_ids() {
            let (epoch, demand_w) = (t.epoch(), t.lease(id).unwrap().demand_w);
            renew(t, id, epoch, demand_w).unwrap();
        }
    }

    #[test]
    fn first_grant_owns_the_pool_and_later_shards_ramp_in() {
        let mut t = table();
        let a = grant(&mut t, 1, 30.0).unwrap();
        assert_eq!(a.budget_w, 100.0, "sole lease owns the whole pool");
        assert_eq!(t.stats().overshoot_w, 0.0);

        // A holds everything, so B is admitted at zero — commit-on-contact
        // forbids shrinking A behind its back — and ramps in as A renews
        // down toward the new 50/50 target.
        let b = grant(&mut t, 2, 30.0).unwrap();
        assert_eq!(b.budget_w, 0.0, "no free watts until the incumbent renews down");
        assert_eq!(t.stats().overshoot_w, 0.0);

        // One round in id order: A renews down to 50, then B picks up the
        // freed 50.
        renew_round(&mut t);
        let ca = t.lease(a.lease_id).unwrap().committed_w;
        let cb = t.lease(b.lease_id).unwrap().committed_w;
        assert_eq!(ca + cb, 100.0, "converged live commitments fill the pool exactly");
        assert!((ca - 50.0).abs() < 1e-9 && (cb - 50.0).abs() < 1e-9);
        assert_eq!(t.stats().overshoot_w, 0.0);
    }

    #[test]
    fn grants_below_a_floor_sized_target_are_denied_without_trace() {
        // Floor 45 of a 100 W cap: two shards fit (target 50), a third
        // (target 33.3) does not.
        let mut t = LeaseTable::new(cap(100.0), ArbiterPolicy::EqualShare, 10, cap(45.0), 0);
        grant(&mut t, 1, 0.0).unwrap();
        grant(&mut t, 2, 0.0).unwrap();
        let epoch_before = t.epoch();
        match grant(&mut t, 3, 0.0) {
            Err(LeaseError::Denied { needed_w, available_w }) => {
                assert_eq!(needed_w, 45.0);
                assert!((available_w - 100.0 / 3.0).abs() < 1e-9);
            }
            other => panic!("expected Denied, got {other:?}"),
        }
        assert_eq!(t.epoch(), epoch_before, "a denial leaves no trace");
        assert_eq!(t.snapshot().len(), 2);
    }

    #[test]
    fn commitments_never_exceed_the_pool_mid_ramp() {
        let mut t = LeaseTable::new(cap(90.0), ArbiterPolicy::DemandProportional, 10, cap(2.0), 0);
        let a = grant(&mut t, 1, 40.0).unwrap();
        let epoch = t.epoch();
        renew(&mut t, a.lease_id, epoch, 40.0).unwrap();
        grant(&mut t, 2, 10.0).unwrap();
        grant(&mut t, 3, 25.0).unwrap();
        assert_eq!(t.stats().overshoot_w, 0.0, "no overshoot at any step");
        for _ in 0..4 {
            renew_round(&mut t);
            assert_eq!(t.stats().overshoot_w, 0.0);
        }
        let stats = t.stats();
        assert_eq!(stats.live_committed_w, stats.pool_w, "quiescent sum is exact");
    }

    #[test]
    fn expiry_encumbers_at_the_floor_and_frees_the_rest() {
        let mut t = table();
        let a = grant(&mut t, 1, 0.0).unwrap();
        let b = grant(&mut t, 2, 0.0).unwrap();
        renew_round(&mut t);
        assert_eq!(t.stats().live_committed_w, 100.0, "converged before the partition");

        // A goes silent; B keeps renewing past A's expiry (B's renewal at
        // tick 5 pushes its own expiry out to 15, A's stays at 10).
        t.advance_to(5);
        let epoch = t.epoch();
        renew(&mut t, b.lease_id, epoch, 0.0).unwrap();
        let expired = t.advance_to(t.lease(a.lease_id).unwrap().expires_tick);
        assert_eq!(expired, vec![a.lease_id]);
        let ls = t.lease(a.lease_id).unwrap();
        assert!(!ls.live);
        assert_eq!(ls.committed_w, 5.0, "encumbered exactly at the floor");
        assert_eq!((t.stats().encumbered_w, t.stats().pool_w), (5.0, 95.0));

        // B's next renewal absorbs the freed watts; the fleet total stays
        // at the cap (B's 95 + A's encumbered 5).
        renew_round(&mut t);
        assert_eq!(t.lease(b.lease_id).unwrap().committed_w, 95.0);
        let stats = t.stats();
        assert_eq!(stats.live_committed_w + stats.encumbered_w, 100.0);
        assert_eq!(stats.overshoot_w, 0.0);
    }

    #[test]
    fn expired_lease_renewal_is_rejected_and_readoption_keeps_the_id() {
        let mut t = table();
        let a = grant(&mut t, 1, 0.0).unwrap();
        t.advance_to(a.expires_tick);

        match renew(&mut t, a.lease_id, a.epoch, 0.0) {
            Err(LeaseError::Expired { lease_id }) => assert_eq!(lease_id, a.lease_id),
            other => panic!("expected Expired, got {other:?}"),
        }

        // Re-lease with the remembered shard id: same lease, no double
        // grant. Re-adoption is contact, so the sole lease ramps straight
        // back up — the whole pool is genuinely free.
        let again = grant(&mut t, 1, 0.0).unwrap();
        assert_eq!(again.lease_id, a.lease_id);
        assert_eq!(again.budget_w, 100.0, "re-adopted sole lease reclaims the free pool");
        assert_eq!(t.snapshot().len(), 1, "never two leases for one shard");
        assert_eq!(t.stats().overshoot_w, 0.0);

        // The pre-expiry epoch is now behind the fence.
        match renew(&mut t, a.lease_id, a.epoch, 0.0) {
            Err(LeaseError::Fenced { fence, presented, .. }) => {
                assert!(presented < fence);
            }
            other => panic!("expected Fenced, got {other:?}"),
        }
        // The re-adoption epoch clears it.
        renew(&mut t, a.lease_id, again.epoch, 0.0).unwrap();
        assert_eq!(t.lease(a.lease_id).unwrap().committed_w, 100.0);
    }

    /// One round of a shard's lease machine against `t` at `now_ms`; `lost`
    /// drops the reply after the table applied the request.
    fn round(t: &mut LeaseTable, shard: &mut ShardLease, now_ms: u64, lost: bool) -> f64 {
        let request = shard.request();
        let reply = match t.apply(now_ms, &request).expect("a lease operation") {
            Ok(entry) => t.reply(&entry),
            Err(e) => CoordResponse::Rejected { code: e.code().into(), detail: e.to_string() },
        };
        shard.on_reply(&request, (!lost).then_some(&reply), now_ms).get()
    }

    #[test]
    fn lost_grant_replies_never_orphan_a_lease() {
        // A shard's first two `Granted` replies are lost and the third
        // lands: each ask presents the shard's id, so the later two
        // re-adopt the lease the first created. Then the shard renews every
        // half TTL, past the TTL a second lease would have expired at.
        let mut t = LeaseTable::new(cap(90.0), ArbiterPolicy::EqualShare, 500, cap(2.0), 0);
        let mut shard = shard(1, 60.0, 2.0);
        for lost in [true, true, false] {
            round(&mut t, &mut shard, 0, lost);
        }
        for now_ms in [250, 500] {
            round(&mut t, &mut shard, now_ms, false);
        }
        let stats = t.stats();
        assert_eq!(t.snapshot().len(), 1, "one shard, one lease: {stats:?}");
        assert_eq!(
            (stats.encumbered_w, shard.lease_id(), shard.cap_w().get()),
            (0.0, Some(1), 90.0)
        );
    }

    #[test]
    fn a_silent_shard_clamps_to_the_coordinators_floor_not_its_reserve() {
        // The coordinator encumbers 2 W for a silent shard; the shards run
        // on a 10 W pre-lease reserve. A holds the whole 90 W, then hears
        // nothing past its TTL on either side, and B joins into the watts
        // A's expiry freed.
        let mut t = LeaseTable::new(cap(90.0), ArbiterPolicy::EqualShare, 500, cap(2.0), 0);
        let (mut a, mut b) = (shard(1, 60.0, 10.0), shard(2, 60.0, 10.0));
        assert_eq!(round(&mut t, &mut a, 0, false), 90.0);
        assert_eq!(a.on_reply(&a.request(), None, 500).get(), 2.0, "A clamps to the floor");
        t.advance_to(500);
        assert_eq!(t.stats().encumbered_w, 2.0);
        assert_eq!(round(&mut t, &mut b, 500, false), 88.0);
        let enforced_w = a.cap_w().get() + b.cap_w().get();
        assert!(enforced_w <= 90.0, "A and B enforce {enforced_w} W under a 90 W cap");
    }

    #[test]
    fn a_renewal_carries_a_restarted_coordinators_floor() {
        // A is granted the whole 90 W by a coordinator with a 10 W floor,
        // which restarts on its journal with a 2 W floor. A's lease replays
        // live, so A renews rather than re-leases; then A is silent past
        // its TTL on both sides, and B joins into the watts A's expiry
        // freed.
        let mut first = LeaseTable::new(cap(90.0), ArbiterPolicy::EqualShare, 500, cap(10.0), 0);
        let mut a = shard(1, 60.0, 10.0);
        let request = a.request();
        let entry = first.apply(0, &request).expect("a lease operation").unwrap();
        assert_eq!(a.on_reply(&request, Some(&first.reply(&entry)), 0).get(), 90.0);
        let restarted = LeaseTable::new(cap(90.0), ArbiterPolicy::EqualShare, 500, cap(2.0), 0);
        let (mut t, _) = replay_coordinator(&[entry], restarted).unwrap();
        assert_eq!(round(&mut t, &mut a, 125, false), 90.0);
        a.on_reply(&a.request(), None, 625);
        t.advance_to(625);
        assert_eq!(t.stats().encumbered_w, 2.0);
        let mut b = shard(2, 60.0, 10.0);
        assert_eq!(round(&mut t, &mut b, 625, false), 88.0);
        let enforced_w = a.cap_w().get() + b.cap_w().get();
        assert!(enforced_w <= 90.0, "A and B enforce {enforced_w} W under a 90 W cap");
    }

    #[test]
    fn a_fresh_table_reports_positive_zero_watts() {
        let stats = table().stats();
        for (sum, w) in [("live", stats.live_committed_w), ("encumbered", stats.encumbered_w)] {
            assert_eq!(w.to_bits(), 0.0f64.to_bits(), "{sum}: {w} W");
        }
    }

    #[test]
    fn a_shard_id_with_bit_63_replays_and_readopts_like_any_other() {
        // A coordinator that named nameless shards itself journaled its
        // first grant to shard `1 | 2^63`, in this entry format. That id
        // replays to the table a live grant to it builds, and the shard
        // restarted under it re-adopts its lease.
        let shard_id = 1 | 1 << 63;
        let line = concat!(
            r#"{"Grant":{"lease_id":1,"shard_id":9223372036854775809,"#,
            r#""demand_w":60,"tick":0,"epoch":1}}"#
        );
        let journal = [serde_json::from_str::<CoordJournalEntry>(line).unwrap()];
        assert_eq!(serde_json::to_string(&journal[0]).unwrap(), line, "the entry format holds");
        let fresh = || LeaseTable::new(cap(90.0), ArbiterPolicy::EqualShare, 500, cap(2.0), 0);
        let mut live = fresh();
        grant(&mut live, shard_id, 60.0).unwrap();
        let (mut t, _) = replay_coordinator(&journal, fresh()).unwrap();
        assert_eq!((t.snapshot(), t.next_lease()), (live.snapshot(), 2));
        let mut restarted = shard(shard_id, 60.0, 2.0);
        assert_eq!(round(&mut t, &mut restarted, 0, false), 90.0);
        assert_eq!((restarted.lease_id(), t.snapshot().len()), (Some(1), 1));
    }

    #[test]
    fn a_journal_whose_expiries_moved_is_refused_not_guessed() {
        // A coordinator counting 50 ms ticks under a 20-tick TTL journaled
        // A's grant at tick 0 and, after A expired at tick 20, B's at 25.
        // Read as milliseconds under a 1 s TTL, A is still live at 25, so
        // the recomputed epoch differs and replay refuses the journal.
        let lines = [
            r#"{"Grant":{"lease_id":1,"shard_id":1,"demand_w":60,"tick":0,"epoch":1}}"#,
            r#"{"Grant":{"lease_id":2,"shard_id":2,"demand_w":60,"tick":25,"epoch":3}}"#,
        ];
        let journal = lines.map(|line| serde_json::from_str::<CoordJournalEntry>(line).unwrap());
        let table =
            |ttl_ms| LeaseTable::new(cap(90.0), ArbiterPolicy::EqualShare, ttl_ms, cap(2.0), 0);
        assert!(matches!(
            replay_coordinator(&journal, table(1_000)),
            Err(JournalError::Divergence { index: 1, .. })
        ));
        assert!(replay_coordinator(&journal, table(20)).is_ok(), "a 20-tick TTL wrote it");
    }

    #[test]
    fn a_lost_renewal_reply_never_leaves_a_shard_above_its_commitment() {
        // A holds the whole pool when B and C join at zero. A's renewal
        // down toward its third is applied but its reply is lost, so A
        // takes its own degraded step; B and C then renew into what the
        // table freed.
        let mut t = LeaseTable::new(cap(90.0), ArbiterPolicy::DemandProportional, 500, cap(2.0), 0);
        let mut shards = [1, 2, 3].map(|id| shard(id, 60.0, 2.0));
        for shard in &mut shards {
            round(&mut t, shard, 0, false);
        }
        assert_eq!(shards[0].cap_w().get(), 90.0);
        let a_cap_w = round(&mut t, &mut shards[0], 0, true);
        let committed_w = t.lease(1).unwrap().committed_w;
        assert!(a_cap_w <= committed_w, "A enforces {a_cap_w} W, the table holds {committed_w} W");
        for shard in &mut shards[1..] {
            round(&mut t, shard, 0, false);
        }
        let enforced_w: f64 = shards.iter().map(|s| s.cap_w().get()).sum();
        assert!(enforced_w <= 90.0, "the fleet enforces {enforced_w} W under a 90 W cap");
    }

    #[test]
    fn a_ttl_at_the_top_of_the_clock_saturates_instead_of_expiring_in_the_past() {
        let mut t = LeaseTable::new(cap(100.0), ArbiterPolicy::EqualShare, u64::MAX, cap(5.0), 0);
        t.advance_to(5);
        let a = grant(&mut t, 1, 0.0).unwrap();
        let renewed = renew(&mut t, a.lease_id, a.epoch, 0.0).unwrap();
        let readopted = grant(&mut t, 1, 0.0).unwrap();
        for expires_tick in [a.expires_tick, renewed.expires_tick, readopted.expires_tick] {
            assert_eq!(expires_tick, u64::MAX);
        }
        assert_eq!(t.advance_to(1 << 62), [], "nothing expires before the end of time");
        assert_eq!(t.live_ids(), [a.lease_id]);
    }

    #[test]
    fn release_and_revoke_free_the_encumbrance() {
        let mut t = table();
        let a = grant(&mut t, 1, 0.0).unwrap();
        t.advance_to(a.expires_tick);
        assert_eq!(t.stats().encumbered_w, 5.0);
        let revoke = CoordRequest::Revoke { lease_id: a.lease_id };
        assert_eq!(step(&mut t, &mut Vec::new(), revoke), Ok(CoordResponse::Revoked));
        let stats = t.stats();
        assert_eq!((stats.encumbered_w, stats.revocations, stats.pool_w), (0.0, 1, 100.0));
        let release = CoordRequest::Release { lease_id: a.lease_id };
        assert!(matches!(
            step(&mut t, &mut Vec::new(), release),
            Err(LeaseError::UnknownLease { .. })
        ));

        let b = grant(&mut t, 2, 0.0).unwrap();
        assert_ne!(b.lease_id, a.lease_id, "burned lease ids stay burned");
        let release = CoordRequest::Release { lease_id: b.lease_id };
        assert_eq!(step(&mut t, &mut Vec::new(), release), Ok(CoordResponse::Released));
        assert_eq!(t.stats().live_committed_w + t.stats().encumbered_w, 0.0);
    }

    #[test]
    fn stats_and_shutdown_are_not_lease_operations() {
        let mut t = table();
        grant(&mut t, 1, 0.0).unwrap();
        let before = t.stats();
        for request in [CoordRequest::Stats, CoordRequest::Shutdown] {
            assert_eq!(t.apply(1_000, &request), None);
        }
        assert_eq!(t.stats(), before, "not even the clock moved");
    }

    #[test]
    fn eviction_reclaims_the_encumbrance_and_readmission_is_a_fresh_grant() {
        let mut t = LeaseTable::new(cap(100.0), ArbiterPolicy::EqualShare, 10, cap(5.0), 3);
        let a = grant(&mut t, 1, 0.0).unwrap();
        let b = grant(&mut t, 2, 0.0).unwrap();
        renew_round(&mut t);

        // B stays healthy; A goes silent and expires at tick 10.
        t.advance_to(5);
        let epoch = t.epoch();
        renew(&mut t, b.lease_id, epoch, 0.0).unwrap();
        t.advance_to(10);
        let ls = t.lease(a.lease_id).unwrap();
        assert!(!ls.live);
        assert_eq!(ls.expired_tick, 10, "expired_tick records the lease's own expiry");
        assert_eq!(t.stats().encumbered_w, 5.0);

        // Inside the horizon the encumbrance holds; B stays renewed.
        t.advance_to(12);
        assert_eq!(t.stats().encumbered_w, 5.0);
        let epoch = t.epoch();
        renew(&mut t, b.lease_id, epoch, 0.0).unwrap();

        // Horizon crossed: the silent shard is evicted, reserve reclaimed.
        t.advance_to(13);
        assert!(t.lease(a.lease_id).is_none(), "evicted lease is gone");
        let stats = t.stats();
        assert_eq!((stats.evicted_shards, stats.encumbered_w, stats.pool_w), (1, 0.0, 100.0));
        renew_round(&mut t);
        assert_eq!(t.lease(b.lease_id).unwrap().committed_w, 100.0);
        assert_eq!(t.stats().overshoot_w, 0.0);

        // The shard comes back: a fresh grant under a new lease id (burned
        // ids stay burned), admitted through the normal floor check.
        let again = grant(&mut t, 1, 0.0).unwrap();
        assert_ne!(again.lease_id, a.lease_id);
        assert_eq!(t.lease(again.lease_id).unwrap().shard_id, 1);
        assert_eq!(t.stats().overshoot_w, 0.0);
    }

    #[test]
    fn eviction_is_replay_pure_when_the_horizon_matches() {
        let evicting = || LeaseTable::new(cap(100.0), ArbiterPolicy::EqualShare, 10, cap(5.0), 3);
        let mut live = evicting();
        let mut journal = Vec::new();
        let lease = |shard_id| CoordRequest::Lease { shard_id, demand_w: watts(0.0) };
        let a = call(&mut live, &mut journal, lease(1)).unwrap();
        let b = call(&mut live, &mut journal, lease(2)).unwrap();
        // B never expires, so its grant epoch stays its fence.
        let renew_b =
            CoordRequest::Renew { lease_id: b.lease_id, epoch: b.epoch, demand_w: watts(0.0) };
        live.advance_to(5);
        step(&mut live, &mut journal, renew_b.clone()).unwrap();
        // The live table detects A's expiry at tick 11 and the eviction at
        // tick 13 — intermediate advances replay never sees. Both events
        // are keyed to pure lease state (expiry 10, eviction 10+3), so
        // replay, jumping straight to the next entry's tick, recomputes
        // the same epoch sequence.
        live.advance_to(11);
        live.advance_to(13);
        step(&mut live, &mut journal, renew_b.clone()).unwrap();
        let a2 = call(&mut live, &mut journal, lease(1)).unwrap();
        assert_ne!(a2.lease_id, a.lease_id, "evicted shard re-admits under a fresh lease");

        let (rebuilt, _) = replay_coordinator(&journal, evicting()).unwrap();
        assert_eq!(rebuilt.snapshot(), live.snapshot(), "replay lands on the exact table");
        assert_eq!(rebuilt.stats(), live.stats());
        assert_eq!(rebuilt.next_lease(), live.next_lease());

        // A mismatched horizon loses the eviction's epoch bump and is
        // caught by the recomputed entry, not silently absorbed.
        assert!(matches!(
            replay_coordinator(&journal, table()),
            Err(JournalError::Divergence { .. })
        ));
    }

    #[test]
    fn demand_proportional_targets_favor_hungry_shards() {
        let mut t = LeaseTable::new(cap(100.0), ArbiterPolicy::DemandProportional, 10, cap(2.0), 0);
        let a = grant(&mut t, 1, 10.0).unwrap();
        renew(&mut t, a.lease_id, a.epoch, 10.0).unwrap();
        let b = grant(&mut t, 2, 40.0).unwrap();
        for _ in 0..3 {
            renew_round(&mut t);
        }
        let ca = t.lease(a.lease_id).unwrap().committed_w;
        let cb = t.lease(b.lease_id).unwrap().committed_w;
        let pool_w = t.stats().pool_w;
        assert!(cb > ca, "hungry shard got {cb}, satisfied shard got {ca}");
        assert!(ca >= 0.5 * pool_w / 2.0 - 1e-9, "the floor half is guaranteed");
        assert_eq!(ca + cb, pool_w);
    }

    #[test]
    fn an_astronomical_demand_still_commits_finite_watts() {
        // 1e308 W beside 10 W overflows `extra * demand` in the split: the
        // target must still be finite, and the shard must still get watts.
        let mut t = LeaseTable::new(cap(100.0), ArbiterPolicy::DemandProportional, 10, cap(2.0), 0);
        let a = grant(&mut t, 1, 10.0).unwrap();
        let b = grant(&mut t, 2, 1e308).unwrap();
        for _ in 0..2 {
            renew_round(&mut t);
        }
        let ca = t.lease(a.lease_id).unwrap().committed_w;
        let cb = t.lease(b.lease_id).unwrap().committed_w;
        assert!(cb.is_finite() && cb > 0.0, "the hungry shard holds {cb} W");
        assert!(cb > ca, "the hungry shard got {cb}, the satisfied one {ca}");
        assert_eq!(ca + cb, t.stats().pool_w);
    }

    #[test]
    fn replay_reproduces_the_exact_table() {
        let fresh =
            || LeaseTable::new(cap(80.0), ArbiterPolicy::DemandProportional, 5, cap(3.0), 0);
        let mut live = fresh();
        let mut journal = Vec::new();
        let lease =
            |shard_id, demand_w| CoordRequest::Lease { shard_id, demand_w: watts(demand_w) };
        let renew =
            |lease_id, epoch| CoordRequest::Renew { lease_id, epoch, demand_w: watts(10.0) };
        let a = call(&mut live, &mut journal, lease(1, 20.0)).unwrap();
        live.advance_to(2);
        let (lease_id, epoch, demand_w) = (a.lease_id, a.epoch, watts(25.0));
        let request = CoordRequest::Renew { lease_id, epoch, demand_w };
        step(&mut live, &mut journal, request).unwrap();
        let b = call(&mut live, &mut journal, lease(2, 10.0)).unwrap();
        // B renews at tick 6, pushing its expiry to 11; A goes silent and
        // expires at 7, so B's next renewal at 8 crosses the expiry.
        live.advance_to(6);
        let o = call(&mut live, &mut journal, renew(b.lease_id, b.epoch)).unwrap();
        live.advance_to(8);
        step(&mut live, &mut journal, renew(b.lease_id, o.epoch)).unwrap();
        // A comes back and is re-adopted.
        let a2 = call(&mut live, &mut journal, lease(1, 20.0)).unwrap();
        assert_eq!(a2.lease_id, a.lease_id);

        let (rebuilt, recovery) = replay_coordinator(&journal, fresh()).unwrap();
        assert_eq!(rebuilt.snapshot(), live.snapshot(), "replay lands on the exact table");
        assert_eq!(rebuilt.stats(), live.stats());
        assert_eq!(recovery.replayed, journal.len() as u64);
        assert_eq!(rebuilt.next_lease(), live.next_lease());
        assert_eq!(recovery.live_leases, live.live_ids());
    }

    #[test]
    fn replay_rejects_divergent_histories() {
        let entries = vec![CoordJournalEntry::Grant {
            lease_id: 1,
            shard_id: 1,
            demand_w: watts(0.0),
            tick: 0,
            epoch: 42, // a fresh table's first grant lands on epoch 1
        }];
        match replay_coordinator(&entries, table()) {
            Err(JournalError::Divergence { index: 0, detail }) => {
                assert!(detail.contains("epoch: 42"), "unhelpful detail: {detail}");
                assert!(detail.contains("epoch: 1 }"), "unhelpful detail: {detail}");
            }
            other => panic!("expected Divergence, got {other:?}"),
        }

        let entries =
            vec![CoordJournalEntry::Renew { lease_id: 7, demand_w: watts(0.0), tick: 0, epoch: 1 }];
        assert!(matches!(
            replay_coordinator(&entries, table()),
            Err(JournalError::Divergence { index: 0, .. })
        ));
    }

    /// A `Granted` reply for lease 1 from a coordinator whose floor is 5 W.
    fn granted(epoch: u64, budget_w: f64, ttl_ms: u64) -> CoordResponse {
        let (budget_w, floor_w) = (watts(budget_w), cap(5.0));
        CoordResponse::Granted { lease_id: 1, epoch, budget_w, ttl_ms, floor_w }
    }

    /// A `Renewed` reply for lease 1 from the same coordinator, TTL 1 s.
    fn renewed(epoch: u64, budget_w: f64) -> CoordResponse {
        let (budget_w, ttl_ms, floor_w) = (watts(budget_w), 1_000, cap(5.0));
        CoordResponse::Renewed { lease_id: 1, epoch, budget_w, ttl_ms, floor_w }
    }

    fn rejected(code: &str) -> CoordResponse {
        CoordResponse::Rejected { code: code.into(), detail: String::new() }
    }

    #[test]
    fn shard_lease_decays_but_never_exceeds_the_last_grant() {
        let t0 = 0;
        let mut s = shard(1, 40.0, 5.0);
        assert_eq!(s.state(), ShardLeaseState::Unleased);
        assert_eq!(s.cap_w().get(), 5.0, "unleased shards run at the pre-lease reserve");
        let lease = s.request();
        assert_eq!(lease, CoordRequest::Lease { shard_id: 1, demand_w: watts(40.0) });
        let cap_w = s.on_reply(&lease, None, t0).get();
        assert_eq!(cap_w, 5.0, "misses before any lease change nothing");

        assert_eq!(s.on_reply(&lease, Some(&granted(3, 40.0, 1_000)), t0).get(), 40.0);
        assert_eq!(s.state(), ShardLeaseState::Leased);
        let renew = s.request();
        assert_eq!(renew, CoordRequest::Renew { lease_id: 1, epoch: 3, demand_w: watts(40.0) });

        // Misses halve toward the floor and never go below it.
        assert_eq!(s.on_reply(&renew, None, t0).get(), 20.0);
        assert_eq!(s.state(), ShardLeaseState::Degraded);
        assert_eq!(s.degraded_entries(), 1);
        assert_eq!(s.on_reply(&renew, None, t0).get(), 10.0);
        assert_eq!(s.on_reply(&renew, None, t0).get(), 5.0);
        assert_eq!(s.on_reply(&renew, None, t0).get(), 5.0);
        for _ in 0..8 {
            let cap_w = s.on_reply(&renew, None, t0).get();
            assert!(cap_w <= 40.0, "the cap never exceeds the last grant");
        }

        // A successful renewal recovers the lease.
        assert_eq!(s.on_reply(&renew, Some(&renewed(9, 33.0)), t0).get(), 33.0);
        assert_eq!(s.state(), ShardLeaseState::Leased);
        assert_eq!(s.cap_w().get(), 33.0);
        assert_eq!(s.degraded_entries(), 1, "recovery does not recount the entry");

        // A miss in the last round before the TTL by the shard's own clock,
        // the one whose next round would come at or after it, clamps
        // straight to the floor.
        let last_ms = t0 + 1_000 - RENEW_MS;
        assert_eq!(s.on_reply(&renew, None, last_ms - 1).get(), 16.5);
        assert_eq!(s.on_reply(&renew, None, last_ms).get(), 5.0);
        assert_eq!(s.degraded_entries(), 2);
    }

    #[test]
    fn a_partitioned_shard_clamps_in_its_last_round_before_the_ttl() {
        // A is granted the whole 90 W at 0 ms and then hears nothing: its
        // rounds at 200 and 400 ms miss. The coordinator expires A's lease
        // at 500 ms, encumbers the 2 W floor and grants B the other 88 W.
        // A's next round would come at 600 ms, past the TTL, so 400 ms is
        // its last chance to clamp. Halving to 22.5 W there instead, A and
        // B enforced 110.5 W under the 90 W cap from 500 to 600 ms.
        let mut t = LeaseTable::new(cap(90.0), ArbiterPolicy::EqualShare, 500, cap(2.0), 0);
        let (mut a, mut b) = (shard(1, 60.0, 2.0), shard(2, 60.0, 2.0));
        assert_eq!(round(&mut t, &mut a, 0, false), 90.0);
        assert_eq!(a.on_reply(&a.request(), None, 200).get(), 45.0);
        assert_eq!(a.on_reply(&a.request(), None, 400).get(), 2.0, "A clamps at 400 ms");
        assert_eq!(round(&mut t, &mut b, 500, false), 88.0);
        let enforced_w = a.cap_w().get() + b.cap_w().get();
        assert!(enforced_w <= 90.0, "A and B enforce {enforced_w} W under a 90 W cap");
    }

    #[test]
    fn shard_lease_floor_clamp_respects_a_tiny_last_grant() {
        // A shard whose last grant was *below* the floor must clamp to the
        // grant, not up to the floor — degraded mode never raises the cap.
        let t0 = 0;
        let mut s = shard(1, 4.0, 10.0);
        let lease = s.request();
        s.on_reply(&lease, Some(&granted(1, 4.0, 0)), t0);
        let renew = s.request();
        let cap_w = s.on_reply(&renew, None, t0).get();
        assert_eq!(cap_w, 4.0, "min(floor, last grant) bounds the decay");
    }

    #[test]
    fn shard_lease_re_leases_under_its_id_after_losing_the_lease() {
        let t0 = 0;
        for (code, evicted) in [("expired", 0), ("fenced", 0), ("unknown-lease", 1), ("denied", 0)]
        {
            let mut s = shard(1, 40.0, 5.0);
            let lease = s.request();
            s.on_reply(&lease, Some(&granted(1, 40.0, 1_000)), t0);
            let renew = s.request();
            let cap_w = s.on_reply(&renew, Some(&rejected(code)), t0).get();
            assert_eq!(s.evictions(), evicted, "{code}");
            if code == "denied" {
                assert_eq!((s.state(), cap_w), (ShardLeaseState::Leased, 40.0));
                continue;
            }
            assert_eq!((s.state(), cap_w), (ShardLeaseState::Unleased, 5.0), "{code}");
            assert_eq!(s.request(), lease, "{code}");
            // An unknown-lease answer to a lease request is no eviction.
            s.on_reply(&lease, Some(&rejected("unknown-lease")), t0);
            assert_eq!(s.evictions(), evicted, "{code}");
        }
    }

    #[test]
    fn lease_error_codes_are_stable() {
        assert_eq!(LeaseError::Denied { needed_w: 5.0, available_w: 0.0 }.code(), "denied");
        assert_eq!(LeaseError::UnknownLease { lease_id: 1 }.code(), "unknown-lease");
        assert_eq!(LeaseError::Expired { lease_id: 1 }.code(), "expired");
        assert_eq!(LeaseError::Fenced { lease_id: 1, fence: 2, presented: 1 }.code(), "fenced");
    }
}
