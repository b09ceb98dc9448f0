//! Fleet power leases: the coordinator's lease table and the shard's
//! degraded-mode state machine.
//!
//! The per-process [`Arbiter`](crate::arbiter::Arbiter) keeps one shard's
//! sessions under one cap. This module scales that invariant to a fleet:
//! a **coordinator** owns the global budget and leases time-bounded
//! slices of it to `acs serve` shards; each shard runs its arbiter
//! *inside* its lease
//! ([`Arbiter::set_global_cap`](crate::arbiter::Arbiter::set_global_cap)
//! is the binding).
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
//!    other shards have already renewed down from. The sum of committed
//!    budgets therefore never exceeds the pool, and converges to it
//!    exactly (largest-remainder fold, [`ArbiterPolicy::split`]) once every
//!    live shard has renewed after a membership change.
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
//! Shard side, [`ShardLease`] mirrors rule 2: on every missed renewal the
//! local cap halves toward `min(floor, last grant)`, and when the lease's
//! TTL passes by the shard's own clock it clamps there. The local cap is
//! monotone non-increasing between grants and never exceeds the last
//! granted budget — the invariant the fleet e2e asserts per shard.
//!
//! Time is **logical ticks** (the coordinator maps them to wall-clock
//! milliseconds via its `tick_ms`). Expirations are *recomputed* during
//! replay, never journaled: [`replay_coordinator`] advances the rebuilt
//! table to each entry's recorded tick before applying it, so the exact
//! interleaving of expiries and operations is reproduced, then verifies
//! the recorded post-op epoch ([`JournalError::LeaseDivergence`] when
//! history cannot be trusted).

use crate::arbiter::{ArbiterPolicy, BUDGET_EPS_W};
use crate::journal::JournalError;
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
    pub demand_w: f64,
    /// Logical tick at which the lease expires unless renewed.
    pub expires_tick: u64,
    /// Table epoch of the last grant/re-adoption/expiry — renewals
    /// presenting an older epoch are fenced off.
    pub fence: u64,
    /// Live (renewable) vs. expired-and-encumbered.
    pub live: bool,
    /// The tick the lease expired at (its own `expires_tick`, **not** the
    /// tick the expiry was detected at — detection depends on when
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
    pub fn code(&self) -> &'static str {
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

/// What a successful grant or renewal tells the shard.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GrantOutcome {
    /// The lease id (stable across re-adoptions of the same shard).
    pub lease_id: u64,
    /// The shard id (assigned on first grant when the shard has none).
    pub shard_id: u64,
    /// Table epoch after the operation — present this on the next renewal.
    pub epoch: u64,
    /// The committed budget, W.
    pub budget_w: f64,
    /// Logical tick at which the lease expires unless renewed.
    pub expires_tick: u64,
}

/// The coordinator's lease table. Pure state machine — no I/O, no clock —
/// so the conservation proptests can drive it through arbitrary
/// interleavings.
#[derive(Debug)]
pub struct LeaseTable {
    global_cap_w: f64,
    policy: ArbiterPolicy,
    ttl_ticks: u64,
    floor_w: f64,
    evict_after_ticks: u64,
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
    /// A table over a positive cap with `floor_w < global_cap_w` and a
    /// TTL of at least one tick.
    pub fn new(global_cap_w: f64, policy: ArbiterPolicy, ttl_ticks: u64, floor_w: f64) -> Self {
        assert!(global_cap_w > 0.0, "global cap must be positive");
        assert!(ttl_ticks >= 1, "a lease must live at least one tick");
        assert!(
            floor_w > 0.0 && floor_w < global_cap_w,
            "floor must be positive and below the cap"
        );
        Self {
            global_cap_w,
            policy,
            ttl_ticks,
            floor_w,
            evict_after_ticks: 0,
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

    /// Enable health-checked eviction: an expired (encumbered) lease whose
    /// shard stays silent for `ticks` more logical ticks past its expiry
    /// is removed entirely, returning its reserve to the pool — the
    /// operator's [`Self::revoke`] automated. `0` (the default) disables
    /// eviction and keeps the floor-parked-forever semantics. Eviction is
    /// a pure function of the logical clock, so replay reproduces it with
    /// no journal entry — as long as the horizon matches
    /// ([`replay_coordinator`] takes it as a parameter).
    pub fn set_evict_after_ticks(&mut self, ticks: u64) {
        self.evict_after_ticks = ticks;
    }

    /// The eviction horizon in ticks (0 = eviction disabled).
    pub fn evict_after_ticks(&self) -> u64 {
        self.evict_after_ticks
    }

    /// Lifetime health-check evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Current logical tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Monotonic epoch, bumped by every applied operation and every expiry.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The global cap, W.
    pub fn global_cap_w(&self) -> f64 {
        self.global_cap_w
    }

    /// The degraded-mode floor, W.
    pub fn floor_w(&self) -> f64 {
        self.floor_w
    }

    /// Lease TTL in ticks.
    pub fn ttl_ticks(&self) -> u64 {
        self.ttl_ticks
    }

    /// The lease id the next fresh grant will receive.
    pub fn next_lease(&self) -> u64 {
        self.next_lease
    }

    /// Lifetime grant count (fresh grants and re-adoptions).
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Lifetime accepted-renewal count.
    pub fn renews(&self) -> u64 {
        self.renews
    }

    /// Lifetime expiry count.
    pub fn expirations(&self) -> u64 {
        self.expirations
    }

    /// Lifetime revocation count.
    pub fn revocations(&self) -> u64 {
        self.revocations
    }

    /// One lease's state.
    pub fn lease(&self, lease_id: u64) -> Option<&LeaseState> {
        self.leases.get(&lease_id)
    }

    /// All leases, ascending by id.
    pub fn snapshot(&self) -> Vec<(u64, LeaseState)> {
        self.leases.iter().map(|(id, l)| (*id, *l)).collect()
    }

    /// Ids of live (renewable) leases, ascending.
    pub fn live_ids(&self) -> Vec<u64> {
        self.leases.iter().filter(|(_, l)| l.live).map(|(id, _)| *id).collect()
    }

    /// Ids of expired-and-encumbered leases, ascending.
    pub fn encumbered_ids(&self) -> Vec<u64> {
        self.leases.iter().filter(|(_, l)| !l.live).map(|(id, _)| *id).collect()
    }

    /// Sum of live committed budgets, W.
    pub fn live_committed_w(&self) -> f64 {
        self.leases.values().filter(|l| l.live).map(|l| l.committed_w).sum()
    }

    /// Sum of encumbered reserves, W.
    pub fn encumbered_w(&self) -> f64 {
        self.leases.values().filter(|l| !l.live).map(|l| l.committed_w).sum()
    }

    /// Everything the fleet could be drawing per this table, W.
    pub fn fleet_committed_w(&self) -> f64 {
        self.live_committed_w() + self.encumbered_w()
    }

    /// Watts available to live leases: the cap minus encumbered reserves.
    pub fn pool_w(&self) -> f64 {
        self.global_cap_w - self.encumbered_w()
    }

    /// How far the live commitments exceed the pool, W — the conservation
    /// gate; must be exactly zero at all times.
    pub fn overshoot_w(&self) -> f64 {
        (self.live_committed_w() - self.pool_w()).max(0.0)
    }

    /// Advance logical time, processing overdue expiries and (when the
    /// horizon is enabled) evictions as one merged event stream ordered
    /// by `(event_tick, lease_id)` — an expiry's event tick is the
    /// lease's `expires_tick`, an eviction's is `expired_tick +
    /// evict_after_ticks`, both pure functions of lease state, so live
    /// and replay bump the epoch in the same order no matter how the
    /// intermediate clock advances differ. Each expiry fences the lease
    /// and shrinks its commitment to the encumbered reserve `min(floor,
    /// committed)`; each eviction removes the lease entirely, returning
    /// the reserve to the pool. Returns the expired ids.
    pub fn advance_to(&mut self, tick: u64) -> Vec<u64> {
        if tick > self.tick {
            self.tick = tick;
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
                    && self.evict_after_ticks > 0
                    && l.expired_tick.saturating_add(self.evict_after_ticks) <= self.tick
                {
                    Some((l.expired_tick + self.evict_after_ticks, *id, true))
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
            } else {
                self.expirations += 1;
                let lease = self.leases.get_mut(&id).expect("selected above");
                lease.live = false;
                lease.committed_w = lease.committed_w.min(self.floor_w);
                lease.fence = self.epoch;
                lease.expired_tick = lease.expires_tick;
                expired.push(id);
            }
        }
        expired
    }

    /// Target shares for the current live set: the pool split by the
    /// policy (equal, or half floor + demand-proportional), folded so the
    /// targets sum to the pool exactly. Aligned with [`Self::live_ids`].
    fn targets(&self, live_ids: &[u64]) -> Vec<f64> {
        let demands: Vec<f64> = live_ids.iter().map(|id| self.leases[id].demand_w).collect();
        self.policy.split(self.pool_w(), &demands)
    }

    /// Commit-on-contact: move `lease_id` toward its target, taking at
    /// most the watts currently free (pool minus live commitments), then
    /// clamp any floating-point overshoot back onto this lease so the
    /// live sum never exceeds the pool.
    fn settle(&mut self, lease_id: u64) {
        let live_ids = self.live_ids();
        let Some(pos) = live_ids.iter().position(|&id| id == lease_id) else {
            return;
        };
        let target = self.targets(&live_ids)[pos];
        let pool = self.pool_w();
        let free = (pool - self.live_committed_w()).max(0.0);
        let lease = self.leases.get_mut(&lease_id).expect("live lease");
        lease.committed_w = target.min(lease.committed_w + free);
        for _ in 0..4 {
            let over = self.live_committed_w() - self.pool_w();
            if over > 0.0 {
                self.leases.get_mut(&lease_id).expect("live lease").committed_w -= over;
            } else {
                break;
            }
        }
        debug_assert!(
            self.live_committed_w() <= self.pool_w(),
            "live commitments {} exceed pool {}",
            self.live_committed_w(),
            self.pool_w()
        );
    }

    /// Grant a lease. A known `shard_id` with an existing lease (live or
    /// encumbered) is **re-adopted** — same lease id, commitment resumed
    /// from where it stood, fresh fence and TTL — never double-granted.
    /// A fresh shard is admitted when its *steady-state target* clears
    /// the floor; its initial commitment is `min(target, free)` — often
    /// zero right after a membership change — and it ramps toward its
    /// target as the incumbents renew down (commit-on-contact). If even
    /// the steady-state target cannot reach the floor, the grant is
    /// denied without mutating the table (denials are not journaled, so
    /// they must leave no trace).
    pub fn grant(
        &mut self,
        shard_id: Option<u64>,
        demand_w: f64,
    ) -> Result<GrantOutcome, LeaseError> {
        let demand_w = if demand_w.is_finite() { demand_w.max(0.0) } else { 0.0 };
        if let Some(sid) = shard_id {
            let existing = self.leases.iter().find(|(_, l)| l.shard_id == sid).map(|(id, _)| *id);
            if let Some(id) = existing {
                self.epoch += 1;
                self.grants += 1;
                let expires = self.tick.saturating_add(self.ttl_ticks);
                let (epoch, tick) = (self.epoch, expires);
                {
                    let lease = self.leases.get_mut(&id).expect("found above");
                    lease.live = true;
                    lease.demand_w = demand_w;
                    lease.expires_tick = tick;
                    lease.fence = epoch;
                    lease.expired_tick = 0;
                }
                self.settle(id);
                let lease = &self.leases[&id];
                return Ok(GrantOutcome {
                    lease_id: id,
                    shard_id: sid,
                    epoch,
                    budget_w: lease.committed_w,
                    expires_tick: tick,
                });
            }
        }
        // Fresh grant: admission-check before mutating anything.
        // The newcomer's steady-state target is the last share of the
        // split over the live demands plus its own.
        let mut demands: Vec<f64> =
            self.live_ids().iter().map(|id| self.leases[id].demand_w).collect();
        demands.push(demand_w);
        let target_new = self.policy.split(self.pool_w(), &demands)[demands.len() - 1];
        if target_new + BUDGET_EPS_W < self.floor_w {
            return Err(LeaseError::Denied {
                needed_w: self.floor_w,
                available_w: target_new.max(0.0),
            });
        }
        self.epoch += 1;
        self.grants += 1;
        let id = self.next_lease;
        self.next_lease += 1;
        let sid = shard_id.unwrap_or(id);
        let expires = self.tick.saturating_add(self.ttl_ticks);
        self.leases.insert(
            id,
            LeaseState {
                shard_id: sid,
                committed_w: 0.0,
                demand_w,
                expires_tick: expires,
                fence: self.epoch,
                live: true,
                expired_tick: 0,
            },
        );
        self.settle(id);
        let lease = &self.leases[&id];
        Ok(GrantOutcome {
            lease_id: id,
            shard_id: sid,
            epoch: self.epoch,
            budget_w: lease.committed_w,
            expires_tick: expires,
        })
    }

    /// Renew a live lease. The presented epoch must clear the lease's
    /// fence; an expired lease rejects with [`LeaseError::Expired`] so
    /// the shard re-leases (re-adopts) instead.
    pub fn renew(
        &mut self,
        lease_id: u64,
        epoch: u64,
        demand_w: f64,
    ) -> Result<GrantOutcome, LeaseError> {
        let lease = self.leases.get(&lease_id).ok_or(LeaseError::UnknownLease { lease_id })?;
        if !lease.live {
            return Err(LeaseError::Expired { lease_id });
        }
        if epoch < lease.fence {
            return Err(LeaseError::Fenced { lease_id, fence: lease.fence, presented: epoch });
        }
        Ok(self.renew_unchecked(lease_id, demand_w).expect("lease checked live above"))
    }

    /// Apply an accepted renewal. Shared by [`Self::renew`] (after
    /// fencing) and [`replay_coordinator`] (which replays only renewals
    /// that were accepted live, so fencing must not re-run).
    fn renew_unchecked(&mut self, lease_id: u64, demand_w: f64) -> Option<GrantOutcome> {
        let demand_w = if demand_w.is_finite() { demand_w.max(0.0) } else { 0.0 };
        if !self.leases.get(&lease_id)?.live {
            return None;
        }
        self.epoch += 1;
        self.renews += 1;
        let expires = self.tick.saturating_add(self.ttl_ticks);
        {
            let lease = self.leases.get_mut(&lease_id).expect("checked above");
            lease.demand_w = demand_w;
            lease.expires_tick = expires;
        }
        self.settle(lease_id);
        let lease = &self.leases[&lease_id];
        Some(GrantOutcome {
            lease_id,
            shard_id: lease.shard_id,
            epoch: self.epoch,
            budget_w: lease.committed_w,
            expires_tick: expires,
        })
    }

    /// A shard's clean departure: the lease (and any encumbrance) is
    /// removed entirely; its watts return to the pool for the next
    /// renewal round.
    pub fn release(&mut self, lease_id: u64) -> Result<(), LeaseError> {
        if self.leases.remove(&lease_id).is_none() {
            return Err(LeaseError::UnknownLease { lease_id });
        }
        self.epoch += 1;
        Ok(())
    }

    /// Operator-forced removal of a lease known to be dead (e.g. the
    /// shard's host is confirmed down) — frees the encumbered reserve
    /// that expiry alone keeps holding.
    pub fn revoke(&mut self, lease_id: u64) -> Result<(), LeaseError> {
        if self.leases.remove(&lease_id).is_none() {
            return Err(LeaseError::UnknownLease { lease_id });
        }
        self.epoch += 1;
        self.revocations += 1;
        Ok(())
    }
}

/// A coordinator-to-shard wire request (length-prefixed JSON frames, the
/// same transport as [`Request`](crate::protocol::Request)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoordRequest {
    /// Acquire (or re-adopt) a lease.
    Lease {
        /// The shard's remembered id; `None` on first contact, after
        /// which the coordinator assigns one.
        shard_id: Option<u64>,
        /// The shard's current demand, W.
        demand_w: f64,
    },
    /// Renew a live lease.
    Renew {
        /// The lease to renew.
        lease_id: u64,
        /// The epoch from the last grant/renewal (fencing token).
        epoch: u64,
        /// Updated demand, W.
        demand_w: f64,
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
    pub fn kind(&self) -> &'static str {
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
    /// Current logical tick.
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
        /// The shard id (present this on re-lease after a partition).
        shard_id: u64,
        /// Fencing token for the next renewal.
        epoch: u64,
        /// The committed budget, W.
        budget_w: f64,
        /// Logical expiry tick.
        expires_tick: u64,
        /// Lease TTL in wall-clock milliseconds — the shard clamps to its
        /// floor when this much time passes without a successful renewal.
        ttl_ms: u64,
    },
    /// Reply to `Renew`.
    Renewed {
        /// The renewed lease.
        lease_id: u64,
        /// Fencing token for the next renewal.
        epoch: u64,
        /// The (possibly resettled) committed budget, W.
        budget_w: f64,
        /// New logical expiry tick.
        expires_tick: u64,
    },
    /// Typed lease rejection ([`LeaseError::code`]); the shard reacts by
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
/// entry records the logical tick it was applied at plus the post-op
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
        demand_w: f64,
        /// Logical tick the grant was applied at.
        tick: u64,
        /// Table epoch after the grant.
        epoch: u64,
    },
    /// A live lease was renewed.
    Renew {
        /// The renewed lease.
        lease_id: u64,
        /// Updated demand, W.
        demand_w: f64,
        /// Logical tick the renewal was applied at.
        tick: u64,
        /// Table epoch after the renewal.
        epoch: u64,
    },
    /// A lease was released (clean departure).
    Release {
        /// The released lease.
        lease_id: u64,
        /// Logical tick the release was applied at.
        tick: u64,
        /// Table epoch after the release.
        epoch: u64,
    },
    /// A lease was revoked by the operator.
    Revoke {
        /// The revoked lease.
        lease_id: u64,
        /// Logical tick the revocation was applied at.
        tick: u64,
        /// Table epoch after the revocation.
        epoch: u64,
    },
}

/// What [`replay_coordinator`] reconstructed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoordRecovery {
    /// Journal entries replayed.
    pub replayed: u64,
    /// The logical tick the rebuilt table resumed at.
    pub tick: u64,
    /// Live leases after replay — shards the restarted coordinator
    /// re-adopts on their next renewal or re-lease.
    pub live_leases: Vec<u64>,
    /// Expired-and-encumbered leases after replay.
    pub encumbered_leases: Vec<u64>,
    /// The lease id the next fresh grant will receive (burned ids stay
    /// burned, exactly like session node ids).
    pub next_lease: u64,
}

/// Fold a validated coordinator entry stream into a fresh lease table.
/// Each entry first advances the table to its recorded tick (recomputing
/// any expirations — and, when `evict_after_ticks > 0`, evictions —
/// deterministically), then applies its operation, then checks the
/// recorded post-op epoch — and for grants the recorded lease id —
/// against the recomputed values. The eviction horizon must match the
/// one the live table ran with, or recomputed epochs diverge.
pub fn replay_coordinator(
    entries: &[CoordJournalEntry],
    global_cap_w: f64,
    policy: ArbiterPolicy,
    ttl_ticks: u64,
    floor_w: f64,
    evict_after_ticks: u64,
) -> Result<(LeaseTable, CoordRecovery), JournalError> {
    let mut table = LeaseTable::new(global_cap_w, policy, ttl_ticks, floor_w);
    table.set_evict_after_ticks(evict_after_ticks);
    let diverged = |index: usize, detail: String| JournalError::LeaseDivergence { index, detail };
    let check = |index: usize, recorded: u64, table: &LeaseTable| {
        if table.epoch() == recorded {
            Ok(())
        } else {
            Err(JournalError::LeaseDivergence {
                index,
                detail: format!("recorded epoch {recorded}, recomputed {}", table.epoch()),
            })
        }
    };
    for (index, entry) in entries.iter().enumerate() {
        match entry {
            CoordJournalEntry::Grant { lease_id, shard_id, demand_w, tick, epoch } => {
                table.advance_to(*tick);
                let outcome = table
                    .grant(Some(*shard_id), *demand_w)
                    .map_err(|e| diverged(index, format!("journaled grant rejected: {e}")))?;
                if outcome.lease_id != *lease_id {
                    return Err(diverged(
                        index,
                        format!("recorded lease id {lease_id}, recomputed {}", outcome.lease_id),
                    ));
                }
                check(index, *epoch, &table)?;
            }
            CoordJournalEntry::Renew { lease_id, demand_w, tick, epoch } => {
                table.advance_to(*tick);
                table.renew_unchecked(*lease_id, *demand_w).ok_or_else(|| {
                    diverged(index, format!("journaled renew of dead lease {lease_id}"))
                })?;
                check(index, *epoch, &table)?;
            }
            CoordJournalEntry::Release { lease_id, tick, epoch } => {
                table.advance_to(*tick);
                table
                    .release(*lease_id)
                    .map_err(|e| diverged(index, format!("journaled release rejected: {e}")))?;
                check(index, *epoch, &table)?;
            }
            CoordJournalEntry::Revoke { lease_id, tick, epoch } => {
                table.advance_to(*tick);
                table
                    .revoke(*lease_id)
                    .map_err(|e| diverged(index, format!("journaled revoke rejected: {e}")))?;
                check(index, *epoch, &table)?;
            }
        }
    }
    let recovery = CoordRecovery {
        replayed: entries.len() as u64,
        tick: table.tick(),
        live_leases: table.live_ids(),
        encumbered_leases: table.encumbered_ids(),
        next_lease: table.next_lease(),
    };
    Ok((table, recovery))
}

/// Which side of the lease the shard is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardLeaseState {
    /// No lease yet (startup, or after a release): the shard runs at the
    /// configured floor — the deployment-level pre-lease reserve.
    Unleased,
    /// Lease live and renewing.
    Leased,
    /// Renewals are failing: the local cap decays toward the floor and
    /// never exceeds the last granted budget.
    Degraded,
}

impl ShardLeaseState {
    /// Stable name for the STATS snapshot.
    pub fn name(&self) -> &'static str {
        match self {
            ShardLeaseState::Unleased => "unleased",
            ShardLeaseState::Leased => "leased",
            ShardLeaseState::Degraded => "degraded",
        }
    }
}

/// The shard-side lease state machine. Pure — the lease client thread
/// owns the clock and the socket; this type only decides what the local
/// cap may be. Invariants: the cap never exceeds the last granted budget,
/// and between grants it is monotone non-increasing.
#[derive(Debug, Clone)]
pub struct ShardLease {
    floor_w: f64,
    state: ShardLeaseState,
    lease_id: Option<u64>,
    shard_id: Option<u64>,
    epoch: u64,
    cap_w: f64,
    last_grant_w: f64,
    misses: u64,
    degraded_entries: u64,
}

impl ShardLease {
    /// A fresh, unleased shard: the local cap starts at the floor.
    pub fn new(floor_w: f64) -> Self {
        assert!(floor_w > 0.0, "floor must be positive");
        Self {
            floor_w,
            state: ShardLeaseState::Unleased,
            lease_id: None,
            shard_id: None,
            epoch: 0,
            cap_w: floor_w,
            last_grant_w: floor_w,
            misses: 0,
            degraded_entries: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> ShardLeaseState {
        self.state
    }

    /// The cap the shard's arbiter may run at right now, W.
    pub fn cap_w(&self) -> f64 {
        self.cap_w
    }

    /// The lease id, once granted.
    pub fn lease_id(&self) -> Option<u64> {
        self.lease_id
    }

    /// The shard id, once assigned — survives re-leasing so the
    /// coordinator re-adopts instead of double-granting.
    pub fn shard_id(&self) -> Option<u64> {
        self.shard_id
    }

    /// The fencing token to present on the next renewal.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Consecutive missed renewals since the last successful contact.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// How many times the shard has entered degraded mode.
    pub fn degraded_entries(&self) -> u64 {
        self.degraded_entries
    }

    /// A grant (or re-adoption) landed. Returns the cap to apply. A
    /// zero-watt grant — a shard admitted mid-ramp, before the incumbents
    /// have renewed down — keeps the previous cap (the floor at startup,
    /// which the deployment's pre-lease reserve covers) and ramps at the
    /// next renewal.
    pub fn on_granted(&mut self, lease_id: u64, shard_id: u64, epoch: u64, budget_w: f64) -> f64 {
        self.state = ShardLeaseState::Leased;
        self.lease_id = Some(lease_id);
        self.shard_id = Some(shard_id);
        self.epoch = epoch;
        if budget_w > 0.0 {
            self.cap_w = budget_w;
        }
        self.last_grant_w = self.cap_w;
        self.misses = 0;
        self.cap_w
    }

    /// A renewal landed. Returns the cap to apply (zero-watt budgets are
    /// handled as in [`Self::on_granted`]).
    pub fn on_renewed(&mut self, epoch: u64, budget_w: f64) -> f64 {
        self.state = ShardLeaseState::Leased;
        self.epoch = epoch;
        if budget_w > 0.0 {
            self.cap_w = budget_w;
        }
        self.last_grant_w = self.cap_w;
        self.misses = 0;
        self.cap_w
    }

    /// A renewal failed (timeout, refused connection, rejection that
    /// needs a re-lease). The cap halves toward `min(floor, last grant)`
    /// — never below it, never above the last grant. Returns the cap to
    /// apply.
    pub fn on_miss(&mut self) -> f64 {
        if self.state == ShardLeaseState::Unleased {
            return self.cap_w;
        }
        if self.state != ShardLeaseState::Degraded {
            self.state = ShardLeaseState::Degraded;
            self.degraded_entries += 1;
        }
        self.misses += 1;
        self.cap_w = (self.cap_w * 0.5).max(self.floor_w.min(self.last_grant_w));
        self.cap_w
    }

    /// The lease TTL passed by the shard's own clock without a renewal:
    /// clamp to the encumbered reserve the coordinator is holding —
    /// `min(floor, last grant)` — so both sides agree on the worst case
    /// without communicating. Returns the cap to apply.
    pub fn on_expired(&mut self) -> f64 {
        if self.state == ShardLeaseState::Unleased {
            return self.cap_w;
        }
        if self.state != ShardLeaseState::Degraded {
            self.state = ShardLeaseState::Degraded;
            self.degraded_entries += 1;
        }
        self.cap_w = self.floor_w.min(self.last_grant_w);
        self.cap_w
    }

    /// The lease was released (clean shutdown): back to unleased at the
    /// floor, keeping the shard id for a possible later re-lease.
    pub fn on_released(&mut self) {
        self.state = ShardLeaseState::Unleased;
        self.lease_id = None;
        self.cap_w = self.floor_w.min(self.last_grant_w);
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame_blocking, write_frame};
    use std::io::Cursor;

    fn table() -> LeaseTable {
        LeaseTable::new(100.0, ArbiterPolicy::EqualShare, 10, 5.0)
    }

    /// Renew every live lease once, in id order, presenting its fence.
    fn renew_round(t: &mut LeaseTable) {
        for id in t.live_ids() {
            let fence = t.lease(id).unwrap().fence;
            t.renew(id, fence.max(t.epoch()), t.lease(id).unwrap().demand_w).unwrap();
        }
    }

    #[test]
    fn first_grant_owns_the_pool_and_later_shards_ramp_in() {
        let mut t = table();
        let a = t.grant(None, 30.0).unwrap();
        assert_eq!(a.budget_w, 100.0, "sole lease owns the whole pool");
        assert_eq!(t.overshoot_w(), 0.0);

        // A holds everything, so B is admitted at zero — commit-on-contact
        // forbids shrinking A behind its back — and ramps in as A renews
        // down toward the new 50/50 target.
        let b = t.grant(None, 30.0).unwrap();
        assert_eq!(b.budget_w, 0.0, "no free watts until the incumbent renews down");
        assert_eq!(t.overshoot_w(), 0.0);

        // One round in id order: A renews down to 50, then B picks up the
        // freed 50.
        renew_round(&mut t);
        let ca = t.lease(a.lease_id).unwrap().committed_w;
        let cb = t.lease(b.lease_id).unwrap().committed_w;
        assert_eq!(ca + cb, 100.0, "converged live commitments fill the pool exactly");
        assert!((ca - 50.0).abs() < 1e-9 && (cb - 50.0).abs() < 1e-9);
        assert_eq!(t.overshoot_w(), 0.0);
    }

    #[test]
    fn grants_below_a_floor_sized_target_are_denied_without_trace() {
        // Floor 45 of a 100 W cap: two shards fit (target 50), a third
        // (target 33.3) does not.
        let mut t = LeaseTable::new(100.0, ArbiterPolicy::EqualShare, 10, 45.0);
        t.grant(None, 0.0).unwrap();
        t.grant(None, 0.0).unwrap();
        let epoch_before = t.epoch();
        match t.grant(None, 0.0) {
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
        let mut t = LeaseTable::new(90.0, ArbiterPolicy::DemandProportional, 10, 2.0);
        let a = t.grant(None, 40.0).unwrap();
        t.renew(a.lease_id, t.epoch(), 40.0).unwrap();
        let _b = t.grant(None, 10.0).unwrap();
        let _c = t.grant(None, 25.0).unwrap();
        assert_eq!(t.overshoot_w(), 0.0, "no overshoot at any step");
        for _ in 0..4 {
            renew_round(&mut t);
            assert_eq!(t.overshoot_w(), 0.0);
        }
        assert_eq!(t.live_committed_w(), t.pool_w(), "quiescent sum is exact");
    }

    #[test]
    fn expiry_encumbers_at_the_floor_and_frees_the_rest() {
        let mut t = table();
        let a = t.grant(None, 0.0).unwrap();
        let b = t.grant(None, 0.0).unwrap();
        renew_round(&mut t);
        assert_eq!(t.live_committed_w(), 100.0, "converged before the partition");

        // A goes silent; B keeps renewing past A's expiry (B's renewal at
        // tick 5 pushes its own expiry out to 15, A's stays at 10).
        t.advance_to(5);
        let fence = t.lease(b.lease_id).unwrap().fence;
        t.renew(b.lease_id, fence.max(t.epoch()), 0.0).unwrap();
        let expired = t.advance_to(t.lease(a.lease_id).unwrap().expires_tick);
        assert_eq!(expired, vec![a.lease_id]);
        let ls = t.lease(a.lease_id).unwrap();
        assert!(!ls.live);
        assert_eq!(ls.committed_w, 5.0, "encumbered exactly at the floor");
        assert_eq!(t.encumbered_w(), 5.0);
        assert_eq!(t.pool_w(), 95.0);

        // B's next renewal absorbs the freed watts; the fleet total stays
        // at the cap (B's 95 + A's encumbered 5).
        renew_round(&mut t);
        assert_eq!(t.lease(b.lease_id).unwrap().committed_w, 95.0);
        assert_eq!(t.fleet_committed_w(), 100.0);
        assert_eq!(t.overshoot_w(), 0.0);
    }

    #[test]
    fn expired_lease_renewal_is_rejected_and_readoption_keeps_the_id() {
        let mut t = table();
        let a = t.grant(None, 0.0).unwrap();
        t.advance_to(a.expires_tick);

        match t.renew(a.lease_id, a.epoch, 0.0) {
            Err(LeaseError::Expired { lease_id }) => assert_eq!(lease_id, a.lease_id),
            other => panic!("expected Expired, got {other:?}"),
        }

        // Re-lease with the remembered shard id: same lease, no double
        // grant. Re-adoption is contact, so the sole lease ramps straight
        // back up — the whole pool is genuinely free.
        let again = t.grant(Some(a.shard_id), 0.0).unwrap();
        assert_eq!(again.lease_id, a.lease_id);
        assert_eq!(again.shard_id, a.shard_id);
        assert_eq!(again.budget_w, 100.0, "re-adopted sole lease reclaims the free pool");
        assert_eq!(t.snapshot().len(), 1, "never two leases for one shard");
        assert_eq!(t.overshoot_w(), 0.0);

        // The pre-expiry epoch is now behind the fence.
        match t.renew(a.lease_id, a.epoch, 0.0) {
            Err(LeaseError::Fenced { fence, presented, .. }) => {
                assert!(presented < fence);
            }
            other => panic!("expected Fenced, got {other:?}"),
        }
        // The re-adoption epoch clears it.
        t.renew(a.lease_id, again.epoch, 0.0).unwrap();
        assert_eq!(t.lease(a.lease_id).unwrap().committed_w, 100.0);
    }

    #[test]
    fn a_ttl_at_the_top_of_the_clock_saturates_instead_of_expiring_in_the_past() {
        let mut t = LeaseTable::new(100.0, ArbiterPolicy::EqualShare, u64::MAX, 5.0);
        t.advance_to(5);
        let a = t.grant(None, 0.0).unwrap();
        let renewed = t.renew(a.lease_id, a.epoch, 0.0).unwrap();
        let readopted = t.grant(Some(a.shard_id), 0.0).unwrap();
        for expires_tick in [a.expires_tick, renewed.expires_tick, readopted.expires_tick] {
            assert_eq!(expires_tick, u64::MAX);
        }
        assert_eq!(t.advance_to(1 << 62), [], "nothing expires before the end of time");
        assert_eq!(t.live_ids(), [a.lease_id]);
    }

    #[test]
    fn release_and_revoke_free_the_encumbrance() {
        let mut t = table();
        let a = t.grant(None, 0.0).unwrap();
        t.advance_to(a.expires_tick);
        assert_eq!(t.encumbered_w(), 5.0);
        t.revoke(a.lease_id).unwrap();
        assert_eq!(t.encumbered_w(), 0.0);
        assert_eq!(t.revocations(), 1);
        assert_eq!(t.pool_w(), 100.0);
        assert!(matches!(t.release(a.lease_id), Err(LeaseError::UnknownLease { .. })));

        let b = t.grant(None, 0.0).unwrap();
        assert_ne!(b.lease_id, a.lease_id, "burned lease ids stay burned");
        t.release(b.lease_id).unwrap();
        assert_eq!(t.fleet_committed_w(), 0.0);
    }

    #[test]
    fn eviction_reclaims_the_encumbrance_and_readmission_is_a_fresh_grant() {
        let mut t = table();
        t.set_evict_after_ticks(3);
        let a = t.grant(None, 0.0).unwrap();
        let b = t.grant(None, 0.0).unwrap();
        renew_round(&mut t);

        // B stays healthy; A goes silent and expires at tick 10.
        t.advance_to(5);
        let fence = t.lease(b.lease_id).unwrap().fence;
        t.renew(b.lease_id, fence.max(t.epoch()), 0.0).unwrap();
        t.advance_to(10);
        let ls = t.lease(a.lease_id).unwrap();
        assert!(!ls.live);
        assert_eq!(ls.expired_tick, 10, "expired_tick records the lease's own expiry");
        assert_eq!(t.encumbered_w(), 5.0);

        // Inside the horizon the encumbrance holds; B stays renewed.
        t.advance_to(12);
        assert_eq!(t.encumbered_w(), 5.0);
        let fence = t.lease(b.lease_id).unwrap().fence;
        t.renew(b.lease_id, fence.max(t.epoch()), 0.0).unwrap();

        // Horizon crossed: the silent shard is evicted, reserve reclaimed.
        t.advance_to(13);
        assert!(t.lease(a.lease_id).is_none(), "evicted lease is gone");
        assert_eq!(t.evictions(), 1);
        assert_eq!(t.encumbered_w(), 0.0);
        assert_eq!(t.pool_w(), 100.0);
        renew_round(&mut t);
        assert_eq!(t.lease(b.lease_id).unwrap().committed_w, 100.0);
        assert_eq!(t.overshoot_w(), 0.0);

        // The shard comes back: a fresh grant under a new lease id (burned
        // ids stay burned), admitted through the normal floor check.
        let again = t.grant(Some(a.shard_id), 0.0).unwrap();
        assert_ne!(again.lease_id, a.lease_id);
        assert_eq!(again.shard_id, a.shard_id);
        assert_eq!(t.overshoot_w(), 0.0);
    }

    #[test]
    fn eviction_is_replay_pure_when_the_horizon_matches() {
        let mut live = table();
        live.set_evict_after_ticks(3);
        let mut journal: Vec<CoordJournalEntry> = Vec::new();
        let record_grant = |t: &mut LeaseTable, j: &mut Vec<CoordJournalEntry>, sid, d| {
            let o = t.grant(sid, d).unwrap();
            j.push(CoordJournalEntry::Grant {
                lease_id: o.lease_id,
                shard_id: o.shard_id,
                demand_w: d,
                tick: t.tick(),
                epoch: o.epoch,
            });
            o
        };
        let a = record_grant(&mut live, &mut journal, None, 0.0);
        let b = record_grant(&mut live, &mut journal, None, 0.0);
        live.advance_to(5);
        let o = live.renew(b.lease_id, live.epoch(), 0.0).unwrap();
        journal.push(CoordJournalEntry::Renew {
            lease_id: b.lease_id,
            demand_w: 0.0,
            tick: 5,
            epoch: o.epoch,
        });
        // The live table detects A's expiry at tick 11 and the eviction at
        // tick 13 — intermediate advances replay never sees. Both events
        // are keyed to pure lease state (expiry 10, eviction 10+3), so
        // replay, jumping straight to the next entry's tick, recomputes
        // the same epoch sequence.
        live.advance_to(11);
        live.advance_to(13);
        let o = live.renew(b.lease_id, live.epoch(), 0.0).unwrap();
        journal.push(CoordJournalEntry::Renew {
            lease_id: b.lease_id,
            demand_w: 0.0,
            tick: 13,
            epoch: o.epoch,
        });
        let a2 = record_grant(&mut live, &mut journal, Some(a.shard_id), 0.0);
        assert_ne!(a2.lease_id, a.lease_id, "evicted shard re-admits under a fresh lease");

        let (rebuilt, recovery) =
            replay_coordinator(&journal, 100.0, ArbiterPolicy::EqualShare, 10, 5.0, 3).unwrap();
        assert_eq!(rebuilt.snapshot(), live.snapshot(), "replay lands on the exact table");
        assert_eq!(rebuilt.epoch(), live.epoch());
        assert_eq!(rebuilt.evictions(), live.evictions());
        assert_eq!(recovery.next_lease, live.next_lease());

        // A mismatched horizon loses the eviction's epoch bump and is
        // caught by the post-op epoch check, not silently absorbed.
        assert!(matches!(
            replay_coordinator(&journal, 100.0, ArbiterPolicy::EqualShare, 10, 5.0, 0),
            Err(JournalError::LeaseDivergence { .. })
        ));
    }

    #[test]
    fn demand_proportional_targets_favor_hungry_shards() {
        let mut t = LeaseTable::new(100.0, ArbiterPolicy::DemandProportional, 10, 2.0);
        let a = t.grant(None, 10.0).unwrap();
        t.renew(a.lease_id, a.epoch, 10.0).unwrap();
        let b = t.grant(None, 40.0).unwrap();
        for _ in 0..3 {
            renew_round(&mut t);
        }
        let ca = t.lease(a.lease_id).unwrap().committed_w;
        let cb = t.lease(b.lease_id).unwrap().committed_w;
        assert!(cb > ca, "hungry shard got {cb}, satisfied shard got {ca}");
        assert!(ca >= 0.5 * t.pool_w() / 2.0 - 1e-9, "the floor half is guaranteed");
        assert_eq!(ca + cb, t.pool_w());
    }

    #[test]
    fn replay_reproduces_the_exact_table() {
        let mut live = LeaseTable::new(80.0, ArbiterPolicy::DemandProportional, 5, 3.0);
        let mut journal: Vec<CoordJournalEntry> = Vec::new();
        let record_grant = |t: &mut LeaseTable, j: &mut Vec<CoordJournalEntry>, sid, d| {
            let o = t.grant(sid, d).unwrap();
            j.push(CoordJournalEntry::Grant {
                lease_id: o.lease_id,
                shard_id: o.shard_id,
                demand_w: d,
                tick: t.tick(),
                epoch: o.epoch,
            });
            o
        };
        let a = record_grant(&mut live, &mut journal, None, 20.0);
        live.advance_to(2);
        let o = live.renew(a.lease_id, a.epoch, 25.0).unwrap();
        journal.push(CoordJournalEntry::Renew {
            lease_id: a.lease_id,
            demand_w: 25.0,
            tick: 2,
            epoch: o.epoch,
        });
        let b = record_grant(&mut live, &mut journal, None, 10.0);
        // B renews at tick 6, pushing its expiry to 11; A goes silent and
        // expires at 7, so B's next renewal at 8 crosses the expiry.
        live.advance_to(6);
        let o = live.renew(b.lease_id, b.epoch, 10.0).unwrap();
        journal.push(CoordJournalEntry::Renew {
            lease_id: b.lease_id,
            demand_w: 10.0,
            tick: 6,
            epoch: o.epoch,
        });
        live.advance_to(8);
        let o = live.renew(b.lease_id, o.epoch, 10.0).unwrap();
        journal.push(CoordJournalEntry::Renew {
            lease_id: b.lease_id,
            demand_w: 10.0,
            tick: 8,
            epoch: o.epoch,
        });
        // A comes back and is re-adopted.
        let a2 = record_grant(&mut live, &mut journal, Some(a.shard_id), 20.0);
        assert_eq!(a2.lease_id, a.lease_id);

        let (rebuilt, recovery) =
            replay_coordinator(&journal, 80.0, ArbiterPolicy::DemandProportional, 5, 3.0, 0)
                .unwrap();
        assert_eq!(rebuilt.snapshot(), live.snapshot(), "replay lands on the exact table");
        assert_eq!(rebuilt.epoch(), live.epoch());
        assert_eq!(rebuilt.tick(), live.tick());
        assert_eq!(recovery.replayed, journal.len() as u64);
        assert_eq!(recovery.next_lease, live.next_lease());
        assert_eq!(recovery.live_leases, live.live_ids());
    }

    #[test]
    fn replay_rejects_divergent_histories() {
        let entries = vec![CoordJournalEntry::Grant {
            lease_id: 1,
            shard_id: 1,
            demand_w: 0.0,
            tick: 0,
            epoch: 42, // a fresh table's first grant lands on epoch 1
        }];
        match replay_coordinator(&entries, 100.0, ArbiterPolicy::EqualShare, 10, 5.0, 0) {
            Err(JournalError::LeaseDivergence { index: 0, detail }) => {
                assert!(detail.contains("recorded epoch 42"), "unhelpful detail: {detail}");
            }
            other => panic!("expected LeaseDivergence, got {other:?}"),
        }

        let entries =
            vec![CoordJournalEntry::Renew { lease_id: 7, demand_w: 0.0, tick: 0, epoch: 1 }];
        assert!(matches!(
            replay_coordinator(&entries, 100.0, ArbiterPolicy::EqualShare, 10, 5.0, 0),
            Err(JournalError::LeaseDivergence { index: 0, .. })
        ));
    }

    #[test]
    fn shard_lease_decays_but_never_exceeds_the_last_grant() {
        let mut s = ShardLease::new(5.0);
        assert_eq!(s.state(), ShardLeaseState::Unleased);
        assert_eq!(s.cap_w(), 5.0, "unleased shards run at the floor");
        assert_eq!(s.on_miss(), 5.0, "misses before any lease change nothing");

        s.on_granted(1, 1, 3, 40.0);
        assert_eq!(s.state(), ShardLeaseState::Leased);
        assert_eq!(s.cap_w(), 40.0);

        // Misses halve toward the floor and never go below it.
        assert_eq!(s.on_miss(), 20.0);
        assert_eq!(s.state(), ShardLeaseState::Degraded);
        assert_eq!(s.degraded_entries(), 1);
        assert_eq!(s.on_miss(), 10.0);
        assert_eq!(s.on_miss(), 5.0);
        assert_eq!(s.on_miss(), 5.0);
        assert_eq!(s.misses(), 4);
        for _ in 0..8 {
            assert!(s.on_miss() <= 40.0, "the cap never exceeds the last grant");
        }

        // A successful renewal recovers the lease and resets the misses.
        s.on_renewed(9, 33.0);
        assert_eq!(s.state(), ShardLeaseState::Leased);
        assert_eq!((s.cap_w(), s.misses()), (33.0, 0));
        assert_eq!(s.degraded_entries(), 1, "recovery does not recount the entry");

        // TTL expiry clamps straight to the floor.
        s.on_expired();
        assert_eq!(s.cap_w(), 5.0);
        assert_eq!(s.degraded_entries(), 2);
    }

    #[test]
    fn shard_lease_floor_clamp_respects_a_tiny_last_grant() {
        // A shard whose last grant was *below* the floor must clamp to the
        // grant, not up to the floor — degraded mode never raises the cap.
        let mut s = ShardLease::new(10.0);
        s.on_granted(1, 1, 1, 4.0);
        assert_eq!(s.on_miss(), 4.0, "min(floor, last grant) bounds the decay");
        assert_eq!(s.on_expired(), 4.0);
    }

    #[test]
    fn coordinator_frames_roundtrip() {
        fn roundtrip<T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug>(
            msg: &T,
        ) {
            let mut buf = Vec::new();
            write_frame(&mut buf, msg).unwrap();
            let back: T = read_frame_blocking(&mut Cursor::new(&buf)).unwrap().unwrap();
            assert_eq!(&back, msg);
        }
        roundtrip(&CoordRequest::Lease { shard_id: None, demand_w: 12.5 });
        roundtrip(&CoordRequest::Lease { shard_id: Some(3), demand_w: 0.0 });
        roundtrip(&CoordRequest::Renew { lease_id: 2, epoch: 9, demand_w: 7.0 });
        roundtrip(&CoordRequest::Release { lease_id: 2 });
        roundtrip(&CoordRequest::Revoke { lease_id: 2 });
        roundtrip(&CoordRequest::Stats);
        roundtrip(&CoordRequest::Shutdown);
        roundtrip(&CoordResponse::Granted {
            lease_id: 1,
            shard_id: 1,
            epoch: 1,
            budget_w: 50.0,
            expires_tick: 10,
            ttl_ms: 500,
        });
        roundtrip(&CoordResponse::Renewed {
            lease_id: 1,
            epoch: 2,
            budget_w: 48.0,
            expires_tick: 20,
        });
        roundtrip(&CoordResponse::Rejected { code: "fenced".into(), detail: "stale".into() });
        roundtrip(&CoordResponse::Released);
        roundtrip(&CoordResponse::ShuttingDown);
    }

    #[test]
    fn lease_error_codes_are_stable() {
        assert_eq!(LeaseError::Denied { needed_w: 5.0, available_w: 0.0 }.code(), "denied");
        assert_eq!(LeaseError::UnknownLease { lease_id: 1 }.code(), "unknown-lease");
        assert_eq!(LeaseError::Expired { lease_id: 1 }.code(), "expired");
        assert_eq!(LeaseError::Fenced { lease_id: 1, fence: 2, presented: 1 }.code(), "fenced");
    }
}
