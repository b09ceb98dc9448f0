//! The `acs coordinator` process: owner of the fleet power budget.
//!
//! One coordinator serves many `acs serve` shards. Shards acquire
//! time-bounded leases on slices of the global cap over the same
//! length-prefixed JSON transport the selection protocol uses
//! ([`CoordRequest`]/[`CoordResponse`]). The lease protocol itself —
//! grant, renew, expiry, encumbrance, fencing — lives in [`crate::lease`]
//! and is pure; this module is only plumbing: the listener, the logical
//! clock, and the journal. A lease request is one call of
//! [`LeaseTable::apply`] at the current tick; the entry it returns is
//! journaled and [`LeaseTable::reply`] answers the shard.
//!
//! ## Clock
//!
//! Lease expiry is defined in *logical ticks*; the coordinator maps them
//! to wall clock as `tick = base + elapsed_ms / tick_ms`. `base` resumes
//! from the replayed journal's last recorded tick, so a restarted
//! coordinator never steps time backwards (leases that should have
//! expired during the outage expire on the first operation after
//! restart, not retroactively mid-replay).
//!
//! ## Crash failover
//!
//! Every applied grant/renew/release/revoke is journaled *under the
//! table lock* — the entry `apply` returned, with the tick it was applied
//! at and the post-op epoch (the shard's journal format: CRC framing,
//! torn-tail truncation, optional `--journal-sync` durability). A
//! SIGKILLed coordinator therefore replays, through the same step, to
//! the exact lease table and **re-adopts** still-live shards: their
//! fences survive, so their next renewal just works, and a re-lease after
//! a partition lands on the same lease id instead of a double grant.
//! There is nothing to skip on crash — unlike sessions, leases are
//! *supposed* to outlive the process.

use crate::journal::Journal;
use crate::lease::{
    replay_coordinator, CoordJournalEntry, CoordRecovery, CoordRequest, CoordResponse, CoordStats,
    LeaseTable,
};
use crate::net::{serve_tcp, FrameClient, FrameHandler, Listener, Running};
use crate::protocol::ProtocolError;
use crate::server::ServeError;
use crate::ArbiterPolicy;
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-connection read timeout; bounds how long a connection takes to
/// observe the shutdown flag.
const CONN_READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Interface to bind.
    pub host: String,
    /// Port to bind; `0` asks the OS for an ephemeral port.
    pub port: u16,
    /// The fleet-wide power cap, W.
    pub global_cap_w: f64,
    /// How lease targets split the pool (equal, or demand-proportional).
    pub policy: ArbiterPolicy,
    /// Lease TTL in logical ticks.
    pub ttl_ticks: u64,
    /// Wall-clock milliseconds per logical tick.
    pub tick_ms: u64,
    /// Degraded-mode floor, W: what an expired lease stays encumbered at,
    /// and what its silent shard clamps itself to.
    pub floor_w: f64,
    /// Health-check eviction horizon in ticks: an expired lease whose
    /// shard stays silent this many ticks past its expiry is evicted —
    /// its encumbered reserve returns to the pool and the shard must
    /// re-admit as a fresh grant. `0` (the default) disables eviction
    /// and floor-parks silent shards forever. Must match across restarts
    /// of a journaled coordinator (replay recomputes evictions from it).
    pub evict_after_ticks: u64,
    /// Lease-journal path. `Some` makes every grant/renew/release/revoke
    /// durable: a restarted coordinator replays to the exact lease table
    /// and re-adopts still-live shards.
    pub journal: Option<std::path::PathBuf>,
    /// `sync_data` every journal append (the `--journal-sync` trade-off:
    /// the tail survives machine power loss, at a disk round trip per
    /// append).
    pub journal_sync: bool,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            host: "127.0.0.1".into(),
            port: 0,
            global_cap_w: 120.0,
            policy: ArbiterPolicy::DemandProportional,
            ttl_ticks: 20,
            tick_ms: 50,
            floor_w: 5.0,
            evict_after_ticks: 0,
            journal: None,
            journal_sync: false,
        }
    }
}

impl CoordinatorConfig {
    /// The lease TTL in wall-clock milliseconds (what `Granted` carries
    /// so shards can run their own expiry clocks).
    pub fn ttl_ms(&self) -> u64 {
        self.ttl_ticks * self.tick_ms
    }
}

/// State shared by the accept loop and every connection.
struct CoordShared {
    config: CoordinatorConfig,
    table: Mutex<LeaseTable>,
    journal: Option<Arc<Journal<CoordJournalEntry>>>,
    recovery: Option<CoordRecovery>,
    shutdown: AtomicBool,
    started: Instant,
    base_tick: u64,
}

impl CoordShared {
    /// The current logical tick (never behind the replayed journal).
    fn now_tick(&self) -> u64 {
        self.base_tick + self.started.elapsed().as_millis() as u64 / self.config.tick_ms
    }

    /// Best-effort journal append (mirrors the serve shard: append
    /// failures degrade durability, not availability).
    fn journal_append(&self, entry: &CoordJournalEntry) {
        if let Some(journal) = &self.journal {
            let _ = journal.append(entry);
        }
    }

    /// The table's metrics plus the journal counters.
    fn stats(&self, table: &LeaseTable) -> CoordStats {
        CoordStats {
            journal_appends: self.journal.as_ref().map_or(0, |j| j.appended_entries()),
            journal_replayed: self.recovery.as_ref().map_or(0, |r| r.replayed),
            ..table.stats()
        }
    }
}

/// A cheap handle for observing and stopping a running coordinator.
#[derive(Clone)]
pub struct CoordinatorHandle {
    shared: Arc<CoordShared>,
}

impl CoordinatorHandle {
    /// Request shutdown; the accept loop and connections drain within
    /// their next poll interval.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Die abruptly. For the coordinator this is the same as shutdown —
    /// every applied operation was already journaled under the table
    /// lock, so there is no clean-exit bookkeeping for a crash to skip;
    /// the alias exists so kill-and-restart tests read like the serve
    /// shard's.
    pub fn simulate_crash(&self) {
        self.shutdown();
    }

    /// A coordinator metrics snapshot.
    pub fn stats(&self) -> CoordStats {
        self.shared.stats(&self.shared.table.lock())
    }

    /// What journal replay reconstructed at bind time, if a journal was
    /// configured.
    pub fn recovery(&self) -> Option<CoordRecovery> {
        self.shared.recovery.clone()
    }
}

/// A bound, not-yet-running coordinator.
pub struct Coordinator {
    listener: Listener,
    shared: Arc<CoordShared>,
}

impl Coordinator {
    /// Bind the configured address, replaying the lease journal if one is
    /// configured. Divergent journals are a typed bind error, never a
    /// guess at who holds which watts.
    pub fn bind(config: CoordinatorConfig) -> Result<Self, ServeError> {
        // `LeaseTable::new` asserts these; an operator's typo must not get
        // that far. A finite cap also bounds the floor below it.
        let (cap_w, floor_w) = (config.global_cap_w, config.floor_w);
        if !(cap_w.is_finite() && cap_w > 0.0) {
            return Err(ServeError::Config(format!(
                "--cap must be a finite, positive wattage, got {cap_w}"
            )));
        }
        if !(floor_w > 0.0 && floor_w < cap_w) {
            return Err(ServeError::Config(format!(
                "--floor must be positive and below --cap, got {floor_w} W against {cap_w} W"
            )));
        }
        if config.ttl_ticks == 0 {
            return Err(ServeError::Config(
                "--ttl-ticks must be at least 1: a lease must live one tick".into(),
            ));
        }
        if config.tick_ms == 0 {
            return Err(ServeError::Config(
                "--tick-ms must be at least 1: a tick must last one millisecond".into(),
            ));
        }
        // Shards run their own expiry clocks on `ttl_ms()`.
        if config.ttl_ticks.checked_mul(config.tick_ms).is_none() {
            return Err(ServeError::Config(format!(
                "--ttl-ticks {} × --tick-ms {} overflows a millisecond count",
                config.ttl_ticks, config.tick_ms
            )));
        }
        let listener = Listener::bind(&format!("{}:{}", config.host, config.port))?;

        let (journal, recovery, table) = match &config.journal {
            Some(path) => {
                let (journal, entries) = Journal::open_with_sync(path, config.journal_sync)
                    .map_err(|e| ServeError::Journal(e.to_string()))?;
                let (table, recovery) = replay_coordinator(
                    &entries,
                    config.global_cap_w,
                    config.policy,
                    config.ttl_ticks,
                    config.floor_w,
                    config.evict_after_ticks,
                )
                .map_err(|e| ServeError::Journal(e.to_string()))?;
                (Some(Arc::new(journal)), Some(recovery), table)
            }
            None => {
                let mut table = LeaseTable::new(
                    config.global_cap_w,
                    config.policy,
                    config.ttl_ticks,
                    config.floor_w,
                );
                table.set_evict_after_ticks(config.evict_after_ticks);
                (None, None, table)
            }
        };
        let base_tick = table.tick();
        let shared = Arc::new(CoordShared {
            config,
            table: Mutex::new(table),
            journal,
            recovery,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            base_tick,
        });
        Ok(Self { listener, shared })
    }

    /// Bind, then serve on a background thread until stopped.
    pub fn spawn(config: CoordinatorConfig) -> Result<Running<CoordinatorHandle>, ServeError> {
        let coordinator = Self::bind(config)?;
        let (addr, handle) = (coordinator.local_addr(), coordinator.handle());
        Ok(Running::start(addr, handle, CoordinatorHandle::shutdown, move || coordinator.run()))
    }

    /// The address actually bound (resolves `--port 0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// A handle usable from other threads while [`run`](Self::run) blocks.
    pub fn handle(&self) -> CoordinatorHandle {
        CoordinatorHandle { shared: Arc::clone(&self.shared) }
    }

    /// Serve until SIGINT or a `Shutdown` request, then drain.
    pub fn run(self) -> Result<(), ServeError> {
        let shared = self.shared;
        // Shard connections are long-lived: no thread waits for the next.
        self.listener.serve(&shared.shutdown, 0, |stream| {
            let shared = Arc::clone(&shared);
            Some(Box::new(move || {
                serve_tcp(stream, CONN_READ_TIMEOUT, &shared.shutdown, &mut Conn(&shared))
            }))
        })
    }
}

/// One shard (or operator) connection.
struct Conn<'a>(&'a CoordShared);

impl FrameHandler for Conn<'_> {
    type Req = CoordRequest;
    type Resp = CoordResponse;

    fn handle(&mut self, request: Result<CoordRequest, ProtocolError>) -> (CoordResponse, bool) {
        match request {
            Ok(request) => step(self.0, request),
            Err(err) => {
                (CoordResponse::Error { code: err.code().into(), detail: err.to_string() }, true)
            }
        }
    }
}

/// Serve one request. A lease operation is one step of the table at the
/// current tick, journaled under the table lock, so the recorded tick and
/// epoch are exactly the ones the operation produced.
fn step(shared: &CoordShared, request: CoordRequest) -> (CoordResponse, bool) {
    let mut table = shared.table.lock();
    let response = match table.apply(shared.now_tick(), &request) {
        Some(Ok(entry)) => {
            shared.journal_append(&entry);
            table.reply(&entry, shared.config.ttl_ms())
        }
        Some(Err(e)) => CoordResponse::Rejected { code: e.code().into(), detail: e.to_string() },
        None if request == CoordRequest::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            return (CoordResponse::ShuttingDown, true);
        }
        None => CoordResponse::Stats(shared.stats(&table)),
    };
    (response, false)
}

/// A blocking client for the coordinator protocol (the shard lease
/// client and the tests).
pub type CoordClient = FrameClient<CoordRequest, CoordResponse>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("acs-coord-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn config(journal: Option<PathBuf>) -> CoordinatorConfig {
        CoordinatorConfig {
            global_cap_w: 100.0,
            floor_w: 5.0,
            // Slow ticks so nothing expires under the test.
            tick_ms: 60_000,
            ttl_ticks: 10,
            journal,
            ..CoordinatorConfig::default()
        }
    }

    #[test]
    fn grant_renew_release_over_the_wire() {
        let coord = Coordinator::spawn(config(None)).unwrap();
        let mut c = CoordClient::connect(&coord.addr).unwrap();

        let (lease_id, epoch) =
            match c.call(&CoordRequest::Lease { shard_id: None, demand_w: 10.0 }).unwrap() {
                CoordResponse::Granted { lease_id, shard_id, epoch, budget_w, ttl_ms, .. } => {
                    assert_eq!(shard_id, lease_id);
                    assert_eq!(budget_w, 100.0, "sole shard owns the pool");
                    assert_eq!(ttl_ms, 10 * 60_000);
                    (lease_id, epoch)
                }
                other => panic!("expected Granted, got {other:?}"),
            };

        match c.call(&CoordRequest::Renew { lease_id, epoch, demand_w: 12.0 }).unwrap() {
            CoordResponse::Renewed { budget_w, .. } => assert_eq!(budget_w, 100.0),
            other => panic!("expected Renewed, got {other:?}"),
        }

        match c.call(&CoordRequest::Stats).unwrap() {
            CoordResponse::Stats(s) => {
                assert_eq!((s.live_leases, s.grants, s.renews), (1, 1, 1));
                assert_eq!(s.overshoot_w, 0.0);
            }
            other => panic!("expected Stats, got {other:?}"),
        }

        match c.call(&CoordRequest::Release { lease_id }).unwrap() {
            CoordResponse::Released => {}
            other => panic!("expected Released, got {other:?}"),
        }
        match c.call(&CoordRequest::Renew { lease_id, epoch, demand_w: 0.0 }).unwrap() {
            CoordResponse::Rejected { code, .. } => assert_eq!(code, "unknown-lease"),
            other => panic!("expected Rejected, got {other:?}"),
        }

        let stats = coord.stop().stats();
        assert_eq!(stats.live_committed_w + stats.encumbered_w, 0.0);
    }

    #[test]
    fn restart_replays_the_lease_table_and_readopts() {
        let dir = scratch("restart");
        let journal_path = dir.join("coord.journal");

        let (lease_id, epoch) = {
            let coord = Coordinator::spawn(config(Some(journal_path.clone()))).unwrap();
            let mut c = CoordClient::connect(&coord.addr).unwrap();
            let out = match c.call(&CoordRequest::Lease { shard_id: None, demand_w: 10.0 }).unwrap()
            {
                CoordResponse::Granted { lease_id, epoch, .. } => (lease_id, epoch),
                other => panic!("expected Granted, got {other:?}"),
            };
            // Abrupt death: no Release, no drain.
            coord.handle.simulate_crash();
            coord.join();
            out
        };

        let coord = Coordinator::spawn(config(Some(journal_path))).unwrap();
        let recovery = coord.handle.recovery().expect("a journaled coordinator reports recovery");
        assert_eq!(recovery.replayed, 1);
        assert_eq!(recovery.live_leases, vec![lease_id]);
        assert_eq!(coord.handle.stats().overshoot_w, 0.0);

        // The shard's fence survived the restart: its next renewal just
        // works — no re-lease, no double grant.
        let mut c = CoordClient::connect(&coord.addr).unwrap();
        match c.call(&CoordRequest::Renew { lease_id, epoch, demand_w: 10.0 }).unwrap() {
            CoordResponse::Renewed { lease_id: id, .. } => assert_eq!(id, lease_id),
            other => panic!("expected Renewed, got {other:?}"),
        }
        // And a full re-lease (e.g. the shard reconnected after a
        // partition that outlived the coordinator) re-adopts the same id.
        match c.call(&CoordRequest::Lease { shard_id: Some(lease_id), demand_w: 10.0 }).unwrap() {
            CoordResponse::Granted { lease_id: id, .. } => assert_eq!(id, lease_id),
            other => panic!("expected Granted, got {other:?}"),
        }
        match c.call(&CoordRequest::Stats).unwrap() {
            CoordResponse::Stats(s) => {
                assert_eq!(s.live_leases, 1, "re-adoption never duplicates a lease");
                assert_eq!(s.journal_replayed, 1);
                assert!(s.journal_appends >= 2, "the renewal and re-adoption were journaled");
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        coord.stop();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn eviction_reclaims_a_silent_shards_reserve_over_the_wire() {
        let mut cfg = config(None);
        cfg.tick_ms = 1;
        cfg.ttl_ticks = 5;
        cfg.evict_after_ticks = 5;
        let coord = Coordinator::spawn(cfg).unwrap();
        let mut c = CoordClient::connect(&coord.addr).unwrap();
        let (lease_id, shard_id) =
            match c.call(&CoordRequest::Lease { shard_id: None, demand_w: 0.0 }).unwrap() {
                CoordResponse::Granted { lease_id, shard_id, .. } => (lease_id, shard_id),
                other => panic!("expected Granted, got {other:?}"),
            };
        // Sleep past expiry + horizon, then drive any mutation to advance
        // the clock: the silent shard is evicted, not floor-parked.
        std::thread::sleep(Duration::from_millis(30));
        let _ = c.call(&CoordRequest::Lease { shard_id: None, demand_w: 0.0 });
        match c.call(&CoordRequest::Stats).unwrap() {
            CoordResponse::Stats(s) => {
                assert!(s.evicted_shards >= 1, "the silent shard was evicted");
                assert_eq!(s.encumbered_w, 0.0, "eviction reclaims the reserve");
                assert_eq!(s.overshoot_w, 0.0);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        // The returning shard re-admits as a fresh grant.
        match c.call(&CoordRequest::Lease { shard_id: Some(shard_id), demand_w: 0.0 }).unwrap() {
            CoordResponse::Granted { lease_id: id, shard_id: sid, .. } => {
                assert_ne!(id, lease_id, "burned lease ids stay burned");
                assert_eq!(sid, shard_id);
            }
            other => panic!("expected Granted, got {other:?}"),
        }
        coord.stop();
    }

    #[test]
    fn revoke_frees_a_dead_shards_encumbrance() {
        // Fast ticks so the lease actually expires under the test.
        let mut cfg = config(None);
        cfg.tick_ms = 1;
        cfg.ttl_ticks = 5;
        let coord = Coordinator::spawn(cfg).unwrap();
        let mut c = CoordClient::connect(&coord.addr).unwrap();
        let lease_id = match c.call(&CoordRequest::Lease { shard_id: None, demand_w: 0.0 }).unwrap()
        {
            CoordResponse::Granted { lease_id, .. } => lease_id,
            other => panic!("expected Granted, got {other:?}"),
        };
        // Let the lease expire, then poke the clock with a Stats-adjacent
        // mutation (a denied grant advances time too; Stats alone does not
        // mutate, so drive an op).
        std::thread::sleep(Duration::from_millis(20));
        let _ = c.call(&CoordRequest::Lease { shard_id: None, demand_w: 0.0 });
        match c.call(&CoordRequest::Stats).unwrap() {
            CoordResponse::Stats(s) => {
                assert!(s.encumbered_leases >= 1, "the silent shard is encumbered");
                assert!(s.encumbered_w > 0.0);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        match c.call(&CoordRequest::Revoke { lease_id }).unwrap() {
            CoordResponse::Revoked => {}
            other => panic!("expected Revoked, got {other:?}"),
        }
        match c.call(&CoordRequest::Stats).unwrap() {
            CoordResponse::Stats(s) => {
                assert_eq!(s.encumbered_w, 0.0, "revocation frees the reserve");
                assert_eq!(s.revocations, 1);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        coord.stop();
    }
}
