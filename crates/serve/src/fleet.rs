//! The fleet on one clock. A real coordinator (journal on) and real shards
//! step in-process on one virtual millisecond clock: a shard's lease round
//! is [`lease_round`] with a call that steps [`coordinator::step`] at the
//! same instant, or loses the request or the reply (a partition). There is
//! no socket, thread or sleep, so a schedule is a pure function of its steps.
//!
//! Time moves only in jumps, of any number of milliseconds. Each shard
//! rounds on its own schedule, as its lease thread does: every `renew_ms`
//! from its own phase, and at once when it starts. A jump makes the rounds
//! that fall due inside it in time order, so with intervals the TTL is no
//! multiple of, a shard's TTL passes between two of its rounds while the
//! rest of the fleet moves on. A [`Step::Round`] is one more round at the
//! current instant. After every round, and after every other [`Step`], the
//! fleet checks:
//!
//! - the caps the shards enforce sum to at most the global cap plus, for
//!   each shard that holds no grant, its reserve: the larger of its
//!   pre-lease reserve and the coordinator's floor;
//! - a degraded cap stays within `[min(floor, last grant), last grant]`,
//!   where the floor is the coordinator's, and no cap rises unless a grant
//!   or renewal landed;
//! - the coordinator's overshoot is 0, and it holds at most one lease per
//!   shard id;
//! - a restarted coordinator equals the one that died.
//!
//! [`walk`] drives seeded schedules and ends each at quiescence, where
//! every shard holds a live lease under its own id, nothing is encumbered
//! and the caps sum exactly to the global cap. The fixed schedules are the
//! failures the fleet exists for.

use crate::coordinator::{self, CoordShared, CoordinatorConfig};
use crate::lease::{CoordResponse, CoordStats, ShardLeaseState};
use crate::protocol::{Request, Response};
use crate::server::tests::{join, model};
use crate::server::{lease_round, stats_snapshot, FleetConfig, ServeConfig, Session, Shared};
use crate::ArbiterPolicy;
use acs_core::TrainedModel;
use acs_sim::{Cap, FamilyId, SplitMix64};
use std::sync::{Arc, OnceLock};
use Link::{LoseReply, LoseRequest, Up};

const CAP_W: f64 = 90.0;
const FLOOR_W: f64 = 2.0;
const TTL_MS: u64 = 500;
const EVICT_AFTER_MS: u64 = 125;
/// How far past the TTL, or the eviction horizon, a long jump lands, ms.
const PAST_MS: u64 = 25;
/// The arbiter's step threshold: a lease cap this close to the arbiter's
/// is not stepped through.
const EPS_W: f64 = 1e-9;
/// Up-link rounds of every shard that bring a healed fleet to rest.
const SETTLE_ROUNDS: usize = 8;
/// The renewal intervals a walk's shards draw, ms: the TTL is a multiple of
/// none of them.
const RENEW_MS: [u64; 5] = [120, 150, 175, 225, 300];

/// What becomes of one lease round's messages.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Link {
    Up,
    /// The request never reaches the coordinator.
    LoseRequest,
    /// The coordinator applies the request; its reply never arrives.
    LoseReply,
}

/// One step of the fleet.
#[derive(Clone, Debug)]
enum Step {
    /// Shard `i`'s lease round at the current instant.
    Round(usize, Link),
    /// The clock moves on `ms`; every round shard `i` makes on the way
    /// goes over the `i`th link.
    Jump(u64, Vec<Link>),
    CrashShard(usize),
    /// Shard `i` starts again, unleased, under its own id.
    RestartShard(usize),
    /// Every call fails until the coordinator restarts.
    CrashCoordinator,
    /// The coordinator is rebuilt from its journal.
    RestartCoordinator,
}

/// One shard process: how it is configured, its state while it runs, and
/// when its lease thread makes its next round.
struct Shard {
    config: ServeConfig,
    running: Option<Shared>,
    next_ms: u64,
}

struct Fleet {
    now_ms: u64,
    config: CoordinatorConfig,
    coordinator: CoordShared,
    coordinator_up: bool,
    shards: Vec<Shard>,
}

fn start(config: &ServeConfig) -> Shared {
    static MODEL: OnceLock<Arc<TrainedModel>> = OnceLock::new();
    let model = Arc::clone(MODEL.get_or_init(|| Arc::new(model())));
    Shared::new(config.clone(), model).expect("a valid shard configuration")
}

fn cap(w: f64) -> Cap {
    Cap::new(w).expect("a cap")
}

/// Shard `shard_id` of `family`, demanding `demand_w`, running on
/// `reserve_w` until its first grant lands and making a round every
/// `renew_ms`.
fn shard(
    family: FamilyId,
    shard_id: u64,
    reserve_w: f64,
    demand_w: f64,
    renew_ms: u64,
) -> ServeConfig {
    let (coordinator, lease_floor_w) = ("in-process".into(), cap(reserve_w));
    ServeConfig {
        family,
        global_cap_w: demand_w,
        fleet: Some(FleetConfig { coordinator, shard_id, lease_floor_w, renew_ms }),
        ..ServeConfig::default()
    }
}

/// One shard per family, ids from 1, demanding 60 W, on the coordinator's
/// floor until their first grants land, and renewing every half TTL from
/// half a TTL on.
fn fleet_of(families: &[FamilyId]) -> Vec<(ServeConfig, u64)> {
    let renew_ms = TTL_MS / 2;
    let shard = |(id, &family)| (shard(family, id, FLOOR_W, 60.0, renew_ms), renew_ms);
    (1..).zip(families).map(shard).collect()
}

impl Fleet {
    /// A coordinator journaling to a fresh file named after `name`, and
    /// `shards` started, none of them leased yet, at time 0, each with the
    /// time of its first scheduled round.
    fn new(name: &str, policy: ArbiterPolicy, evict: u64, shards: Vec<(ServeConfig, u64)>) -> Self {
        let journal =
            std::env::temp_dir().join(format!("acs-fleet-{}-{name}.journal", std::process::id()));
        let _ = std::fs::remove_file(&journal);
        let config = CoordinatorConfig {
            global_cap_w: cap(CAP_W),
            policy,
            ttl_ms: TTL_MS,
            floor_w: cap(FLOOR_W),
            evict_after_ms: evict,
            journal: Some(journal),
            ..CoordinatorConfig::default()
        };
        Self {
            now_ms: 0,
            coordinator: CoordShared::new(&config).expect("a valid coordinator"),
            config,
            coordinator_up: true,
            shards: shards
                .into_iter()
                .map(|(config, next_ms)| Shard { running: Some(start(&config)), config, next_ms })
                .collect(),
        }
    }

    fn shard(&self, i: usize) -> &Shared {
        self.shards[i].running.as_ref().expect("a running shard")
    }

    /// Shard `i`'s fleet settings.
    fn fleet(&self, i: usize) -> &FleetConfig {
        self.shards[i].config.fleet.as_ref().expect("a fleet shard")
    }

    fn stats(&self) -> CoordStats {
        self.coordinator.table.lock().stats()
    }

    /// What each shard's arbiter splits, `None` while it is down.
    fn enforced_w(&self) -> Vec<Option<f64>> {
        let cap_w = |shard: &Shard| shard.running.as_ref().map(|s| s.arbiter.lock().global_cap_w());
        self.shards.iter().map(cap_w).collect()
    }

    /// Σ of the running shards' enforced caps, in lease id order as the
    /// coordinator sums its commitments.
    fn enforced_sum_w(&self) -> f64 {
        let mut caps: Vec<(Option<u64>, f64)> = (self.shards.iter().zip(self.enforced_w()))
            .filter_map(|(shard, cap_w)| {
                let lease = shard.running.as_ref()?.lease.as_ref()?.lock();
                Some((lease.lease_id(), cap_w?))
            })
            .collect();
        caps.sort_by_key(|&(lease_id, _)| lease_id);
        caps.into_iter().map(|(_, cap_w)| cap_w).sum()
    }

    /// Take one step, checking every invariant after each round it makes,
    /// or after the step when it makes none.
    fn apply(&mut self, step: Step) -> Result<(), String> {
        let before = self.enforced_w();
        match step {
            Step::Round(i, link) => return self.round(i, link),
            Step::Jump(ms, links) => {
                let until = self.now_ms + ms;
                while let Some((at, i)) = self.next_round(until) {
                    self.now_ms = at;
                    self.shards[i].next_ms = at + self.fleet(i).renew_ms;
                    self.round(i, links[i])?;
                }
                self.now_ms = until;
                return Ok(());
            }
            Step::CrashShard(i) => self.shards[i].running = None,
            Step::RestartShard(i) => {
                let shard = &mut self.shards[i];
                (shard.running, shard.next_ms) = (Some(start(&shard.config)), self.now_ms);
            }
            Step::CrashCoordinator => self.coordinator_up = false,
            Step::RestartCoordinator => self.restart_coordinator()?,
        }
        self.check(&before, None)
    }

    /// The earliest round a running shard has due by `until`, and whose.
    fn next_round(&self, until: u64) -> Option<(u64, usize)> {
        let due = |(i, shard): (usize, &Shard)| {
            (shard.running.is_some() && shard.next_ms <= until).then_some((shard.next_ms, i))
        };
        self.shards.iter().enumerate().filter_map(due).min()
    }

    /// Shard `i`'s lease round at the current instant over `link`, then
    /// every invariant.
    fn round(&mut self, i: usize, link: Link) -> Result<(), String> {
        let before = self.enforced_w();
        let landed = self.lease_round(i, link);
        self.check(&before, landed.then_some(i))
    }

    /// Apply a fixed schedule, panicking on the first broken invariant.
    fn run(&mut self, steps: impl IntoIterator<Item = Step>) {
        for step in steps {
            let what = format!("{step:?}");
            self.apply(step).unwrap_or_else(|e| panic!("{what}: {e}"));
        }
    }

    /// `n` up-link rounds of every shard, one shard at a time.
    fn rounds(&mut self, n: usize) -> Result<(), String> {
        let shards = self.shards.len();
        for i in (0..n).flat_map(|_| 0..shards) {
            self.apply(Step::Round(i, Up))?;
        }
        Ok(())
    }

    /// Shard `i`'s lease round at the current instant, over `link`; whether
    /// a grant or renewal landed. Nothing happens to a shard that is down.
    fn lease_round(&self, i: usize, link: Link) -> bool {
        let Some(shared) = &self.shards[i].running else {
            return false;
        };
        let coordinator = (self.coordinator_up && link != LoseRequest).then_some(&self.coordinator);
        let mut landed = false;
        lease_round(shared, self.now_ms, |request| {
            let reply = coordinator::step(coordinator?, self.now_ms, request.clone()).0;
            landed = link == Up
                && matches!(reply, CoordResponse::Granted { .. } | CoordResponse::Renewed { .. });
            (link == Up).then_some(reply)
        });
        landed
    }

    /// Rebuild the coordinator from its journal. Advanced to the time the
    /// dead one had reached, as its first request would advance it, it must
    /// be the dead one, lease for lease and counter for counter.
    fn restart_coordinator(&mut self) -> Result<(), String> {
        let restarted = CoordShared::new(&self.config)
            .map_err(|e| format!("the coordinator does not restart: {e}"))?;
        {
            let (dead, mut table) = (self.coordinator.table.lock(), restarted.table.lock());
            table.advance_to(dead.tick());
            if (table.snapshot(), table.stats(), table.next_lease())
                != (dead.snapshot(), dead.stats(), dead.next_lease())
            {
                return Err(format!(
                    "the restart is not the coordinator that died:\n  restarted {:?}\n  died {:?}",
                    table.snapshot(),
                    dead.snapshot()
                ));
            }
        }
        (self.coordinator, self.coordinator_up) = (restarted, true);
        Ok(())
    }

    /// The invariants, after a step from the caps `before`; `landed` names
    /// the shard a grant or renewal reached.
    fn check(&self, before: &[Option<f64>], landed: Option<usize>) -> Result<(), String> {
        let table = self.coordinator.table.lock();
        if table.stats().overshoot_w != 0.0 {
            return Err(format!("the coordinator overshoots: {:?}", table.stats()));
        }
        if !table.one_lease_per_shard() {
            return Err(format!("two leases for one shard: {:?}", table.snapshot()));
        }
        let (mut enforced_w, mut unbacked_w) = (0.0, 0.0);
        for (i, (shard, cap_w)) in self.shards.iter().zip(self.enforced_w()).enumerate() {
            let (Some(shared), Some(cap_w)) = (&shard.running, cap_w) else {
                continue;
            };
            let lease = shared.lease.as_ref().expect("a fleet shard").lock();
            let reserve_w = self.fleet(i).lease_floor_w.get().max(FLOOR_W);
            enforced_w += cap_w;
            // A grant backs a cap while the coordinator holds its lease,
            // live or encumbered.
            if lease.grant_w().is_none()
                || lease.lease_id().and_then(|id| table.lease(id)).is_none()
            {
                unbacked_w += reserve_w;
            }
            let grant_w = lease.grant_w().map(Cap::get);
            let (low_w, high_w) = grant_w.map_or((0.0, reserve_w), |g| (FLOOR_W.min(g), g));
            if lease.state() == ShardLeaseState::Degraded
                && !(low_w - EPS_W..=high_w + EPS_W).contains(&cap_w)
            {
                return Err(format!(
                    "shard {i}: degraded cap {cap_w} W outside [{low_w}, {high_w}]"
                ));
            }
            let rose = |&was_w: &f64| landed != Some(i) && cap_w > was_w + EPS_W;
            if let Some(was_w) = before[i].filter(rose) {
                return Err(format!("shard {i}: cap rose {was_w} → {cap_w} W with no grant"));
            }
        }
        if enforced_w > CAP_W + unbacked_w + EPS_W {
            return Err(format!(
                "the shards enforce {enforced_w} W under a {CAP_W} W cap, {unbacked_w} W of \
                 it reserves held without a grant"
            ));
        }
        Ok(())
    }

    /// Heal everything — the coordinator and every shard up — jump past
    /// the TTL, every shard renewing on its schedule meanwhile, so any lease
    /// no shard holds expires, and let the fleet rest. Then every shard
    /// holds a live lease under its own id, nothing
    /// is encumbered, and the caps, summed in lease id order as the table
    /// sums its commitments, are the global cap to the bit.
    fn quiesce(&mut self) -> Result<(), String> {
        if !self.coordinator_up {
            self.apply(Step::RestartCoordinator)?;
        }
        for i in 0..self.shards.len() {
            if self.shards[i].running.is_none() {
                self.apply(Step::RestartShard(i))?;
            }
        }
        self.apply(Step::Jump(TTL_MS + PAST_MS, vec![Up; self.shards.len()]))?;
        self.rounds(SETTLE_ROUNDS)?;
        let table = self.coordinator.table.lock();
        for i in 0..self.shards.len() {
            let lease_id = self.shard(i).lease.as_ref().expect("a fleet shard").lock().lease_id();
            let shard_id = self.fleet(i).shard_id;
            let held = lease_id.and_then(|id| table.lease(id));
            if !held.is_some_and(|lease| lease.live && lease.shard_id == shard_id) {
                let leases = table.snapshot();
                return Err(format!("shard {shard_id} holds no live lease of its own: {leases:?}"));
            }
        }
        let (stats, enforced_w) = (table.stats(), self.enforced_sum_w());
        if stats.live_leases != self.shards.len() as u64
            || stats.encumbered_leases != 0
            || enforced_w.to_bits() != CAP_W.to_bits()
        {
            return Err(format!("at rest the shards enforce {enforced_w} W: {stats:?}"));
        }
        Ok(())
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Some(journal) = &self.config.journal {
            let _ = std::fs::remove_file(journal);
        }
    }
}

/// A draw in `0..n`.
fn draw(rng: &mut SplitMix64, n: u64) -> u64 {
    rng.next_u64() % n
}

/// One link per shard, each losing its request or its reply one time in six.
fn links(rng: &mut SplitMix64) -> Vec<Link> {
    (0..3).map(|_| [LoseRequest, LoseReply, Up, Up, Up, Up][draw(rng, 6) as usize]).collect()
}

/// One seeded schedule of `steps` steps over three shards with distinct ids
/// in 1..=3, each running until its first grant on a pre-lease reserve
/// below, at or above the coordinator's floor, and renewing on a
/// [`RENEW_MS`] interval from a phase of its own; then quiescence.
fn walk(policy: ArbiterPolicy, evict: u64, seed: u64, steps: usize) -> Result<(), String> {
    let rng = &mut SplitMix64(seed);
    let mut ids = [1, 2, 3];
    ids.rotate_left(draw(rng, 3) as usize);
    let families = [FamilyId::Trinity, FamilyId::BigCore, FamilyId::LowPower];
    let shards = (0..3)
        .map(|i| {
            let reserve_w = [FLOOR_W / 2.0, FLOOR_W, 2.5 * FLOOR_W][draw(rng, 3) as usize];
            let renew_ms = RENEW_MS[draw(rng, RENEW_MS.len() as u64) as usize];
            let demand_w = 20.0 * (i + 1) as f64;
            (shard(families[i], ids[i], reserve_w, demand_w, renew_ms), draw(rng, renew_ms))
        })
        .collect();
    let mut fleet = Fleet::new(&format!("walk-{policy:?}-{evict}-{seed}"), policy, evict, shards);
    for n in 0..steps {
        let i = draw(rng, 3) as usize;
        let step = match draw(rng, 100) {
            0..=59 => Step::Round(i, links(rng)[0]),
            60..=67 if fleet.shards[i].running.is_some() => Step::CrashShard(i),
            60..=67 => Step::RestartShard(i),
            68..=71 if fleet.coordinator_up => Step::CrashCoordinator,
            68..=71 => Step::RestartCoordinator,
            72..=87 => Step::Jump(1 + draw(rng, TTL_MS - 1), links(rng)),
            88..=95 => Step::Jump(TTL_MS + PAST_MS * (1 + draw(rng, 2)), links(rng)),
            _ => Step::Jump(TTL_MS + EVICT_AFTER_MS + PAST_MS, links(rng)),
        };
        let what = format!("{step:?}");
        fleet.apply(step).map_err(|e| format!("step {n}, {what}: {e}"))?;
    }
    fleet.quiesce().map_err(|e| format!("at quiescence: {e}"))
}

/// 64 seeds × 200 steps and 8 seeds × 2 000 steps for each policy, with
/// eviction off and on. A failure names its configuration, seed and step;
/// the walk is a function of those alone, so the seed fails the same way
/// again.
#[test]
fn the_fleet_walk_holds_every_invariant_at_every_step() {
    for policy in [ArbiterPolicy::EqualShare, ArbiterPolicy::DemandProportional] {
        for evict in [0, EVICT_AFTER_MS] {
            for (seeds, steps) in [(0..64, 200), (0..8, 2_000)] {
                for seed in seeds {
                    if let Err(e) = walk(policy, evict, seed, steps) {
                        panic!("walk({policy:?}, evict {evict}, seed {seed}, {steps} steps): {e}");
                    }
                }
            }
        }
    }
}

#[test]
fn heterogeneous_families_share_one_budget_and_warm_their_own_caches() {
    // Watts are watts: the budget is family-blind. But each shard profiles
    // kernels on its own family's machine, into its own cache.
    let families = [FamilyId::BigCore, FamilyId::LowPower, FamilyId::AccelHybrid];
    let mut fleet =
        Fleet::new("families", ArbiterPolicy::DemandProportional, 0, fleet_of(&families));
    fleet.rounds(SETTLE_ROUNDS).unwrap();
    assert_eq!((fleet.enforced_sum_w(), fleet.stats().live_leases), (CAP_W, 3));

    let kernel_id = acs_kernels::all_kernel_instances()[0].id();
    let select = Request::Select { kernel_id, deadline_ms: None, priority: 0 };
    let mut predicted = Vec::new();
    for i in 0..families.len() {
        let mut session = join(fleet.shard(i), 1);
        for _ in 0..4 {
            match session.step(Ok(select.clone())).0 {
                Response::Selected(s) => predicted.push((s.predicted_power_w, s.predicted_perf)),
                other => panic!("expected Selected, got {other:?}"),
            }
        }
        let stats = stats_snapshot(fleet.shard(i));
        assert_eq!(stats.lease_state, "leased");
        assert_eq!((stats.cache_misses, stats.cache_hits), (1, 3), "one miss, then hits");
        assert!((stats.cache_hit_rate - 0.75).abs() < 1e-12);
    }
    // The same kernel under the same arbitration predicts differently on
    // different hardware.
    assert!(predicted.iter().all(|&(power_w, perf)| power_w > 0.0 && perf > 0.0));
    assert!(predicted.iter().any(|p| *p != predicted[0]), "{predicted:?}");
}

#[test]
fn a_crashed_shards_lease_is_encumbered_at_the_floor_or_evicted() {
    for evict in [0, EVICT_AFTER_MS] {
        let name = format!("crash-{evict}");
        let shards = fleet_of(&[FamilyId::Trinity; 2]);
        let mut fleet = Fleet::new(&name, ArbiterPolicy::EqualShare, evict, shards);
        fleet.rounds(SETTLE_ROUNDS).unwrap();
        // The survivor renews every half TTL. The victim's lease expires to
        // its floor encumbrance, which eviction then reclaims too.
        let half_ttl = || Step::Jump(TTL_MS / 2, vec![Up; 2]);
        fleet.run([Step::CrashShard(1), half_ttl(), half_ttl(), half_ttl()]);
        fleet.rounds(SETTLE_ROUNDS).unwrap();
        let stats = fleet.stats();
        let reserve_w = if evict == 0 { FLOOR_W } else { 0.0 };
        assert_eq!(stats.live_leases, 1);
        assert_eq!((stats.encumbered_w, stats.evicted_shards), (reserve_w, u64::from(evict > 0)));
        assert_eq!(fleet.enforced_sum_w(), CAP_W - reserve_w, "the survivor takes the rest");
        assert_eq!(stats_snapshot(fleet.shard(0)).evicted_shards, 0, "the survivor's own lease");
        // Restarted under its id, the shard re-adopts its encumbered lease,
        // or is admitted afresh once it was evicted: the third grant.
        fleet.run([Step::RestartShard(1)]);
        fleet.rounds(SETTLE_ROUNDS).unwrap();
        let stats = fleet.stats();
        assert_eq!((stats.live_leases, stats.encumbered_leases, stats.grants), (2, 0, 3));
        assert_eq!(fleet.enforced_sum_w(), CAP_W);
    }
}

#[test]
fn a_killed_shards_session_replays_its_keys_on_a_survivor_and_the_shard_readopts_its_lease() {
    let shards = fleet_of(&[FamilyId::Trinity; 2]);
    let mut fleet = Fleet::new("keys", ArbiterPolicy::DemandProportional, 0, shards);
    fleet.rounds(SETTLE_ROUNDS).unwrap();
    // Keyed runs, as a retrying client sends them: one key per logical
    // call, reused on every retry of that call.
    let mut keys = SplitMix64(11);
    let runs: Vec<Request> = (0..3)
        .map(|_| Request::Run {
            kernel_id: acs_kernels::all_kernel_instances()[0].id(),
            iterations: 2,
            idem: Some(keys.next_u64()),
            deadline_ms: None,
            priority: 0,
        })
        .collect();
    let ran = |session: &mut Session, run: &Request| {
        let reply = session.step(Ok(run.clone())).0;
        assert!(matches!(reply, Response::Ran { .. }), "{reply:?}");
        serde_json::to_string(&reply).unwrap()
    };
    let mut session = join(fleet.shard(0), 1);
    runs.iter().for_each(|run| drop(ran(&mut session, run)));
    drop(session);

    // Shard 1 dies mid-session; the session fails over to shard 2, which
    // never saw the keys, so each executes once there, and a retry of the
    // last is answered from shard 2's memo byte for byte.
    fleet.run([Step::CrashShard(0)]);
    let mut session = join(fleet.shard(1), 1);
    let last = runs.iter().map(|run| ran(&mut session, run)).last().unwrap();
    assert_eq!(stats_snapshot(fleet.shard(1)).idem_replays, 0, "a failed-over key runs once");
    assert_eq!(ran(&mut session, &runs[2]), last, "a keyed retry replays identical bytes");
    assert_eq!(stats_snapshot(fleet.shard(1)).idem_replays, 1);
    drop(session);

    // Shard 1's silent lease expires to its floor encumbrance. Restarted
    // under its id, the shard re-adopts that lease instead of a second
    // grant beside it.
    let half_ttl = || Step::Jump(TTL_MS / 2, vec![Up; 2]);
    fleet.run([half_ttl(), half_ttl(), half_ttl()]);
    assert_eq!(fleet.stats().encumbered_leases, 1);
    fleet.run([Step::RestartShard(0)]);
    fleet.rounds(SETTLE_ROUNDS).unwrap();
    let stats = fleet.stats();
    assert_eq!((stats.live_leases, stats.encumbered_leases), (2, 0), "re-adopted: {stats:?}");
    assert_eq!(fleet.enforced_sum_w(), CAP_W);
}

#[test]
fn a_partitioned_shard_degrades_within_its_last_grant_and_recovers() {
    let shards = fleet_of(&[FamilyId::Trinity]);
    let mut fleet = Fleet::new("partition", ArbiterPolicy::DemandProportional, 0, shards);
    fleet.run([Step::Round(0, Up)]);
    assert_eq!(fleet.enforced_sum_w(), CAP_W);
    // Inside the cut every request or reply is lost: the cap halves toward
    // min(floor, last grant), and in the last round before the TTL by the
    // shard's own clock it clamps there.
    fleet.run([
        Step::Round(0, LoseRequest),
        Step::Round(0, LoseReply),
        Step::Round(0, LoseRequest),
    ]);
    assert_eq!(fleet.enforced_sum_w(), CAP_W / 8.0);
    assert_eq!(stats_snapshot(fleet.shard(0)).lease_state, "degraded");
    fleet.run([Step::Jump(TTL_MS + PAST_MS, vec![LoseRequest])]);
    assert_eq!(fleet.enforced_sum_w(), FLOOR_W);
    // Healed: the renewal is rejected as expired, and the re-lease
    // re-adopts the lease under the shard's id.
    fleet.rounds(2).unwrap();
    assert_eq!(fleet.enforced_sum_w(), CAP_W);
    let stats = fleet.stats();
    assert_eq!((stats.expirations, stats.live_leases, stats.encumbered_leases), (1, 1, 0));
    assert_eq!(stats_snapshot(fleet.shard(0)).degraded_entries, 1);
}
