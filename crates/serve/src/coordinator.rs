//! The `acs coordinator` process: owner of the fleet power budget.
//!
//! One coordinator serves many `acs serve` shards. Shards acquire
//! time-bounded leases on slices of the global cap over the same
//! length-prefixed JSON transport the selection protocol uses
//! ([`CoordRequest`]/[`CoordResponse`]). The lease protocol itself —
//! grant, renew, expiry, encumbrance, fencing — lives in [`crate::lease`]
//! and is pure; this module is only plumbing: the listener, the logical
//! clock, and the journal. A lease request is one call of
//! [`LeaseTable::apply`] at the current time; the entry it returns is
//! journaled and `LeaseTable::reply` answers the shard.
//!
//! ## Clock
//!
//! Lease expiry is defined in logical milliseconds, the unit of the
//! shard's own TTL clock; a connection reads the time as `base +
//! elapsed_ms` and hands it to the one request step, which a test calls
//! with times of its own. `base` resumes from the replayed journal's last
//! recorded time, so a restarted coordinator never steps time backwards
//! (leases that should have expired during the outage expire on the first
//! operation after restart, not retroactively mid-replay).
//!
//! ## Crash failover
//!
//! Every applied grant/renew/release/revoke is journaled *under the
//! table lock* — the entry `apply` returned, with the time it was applied
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
use acs_sim::Cap;
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
    pub global_cap_w: Cap,
    /// How lease targets split the pool (equal, or demand-proportional).
    pub policy: ArbiterPolicy,
    /// Lease TTL, ms: a lease expires this long after its last grant or
    /// renewal, and its shard clamps to the floor as long after its last
    /// answered round.
    pub ttl_ms: u64,
    /// Degraded-mode floor, W: what an expired lease stays encumbered at,
    /// and what its silent shard clamps itself to. Below the cap.
    pub floor_w: Cap,
    /// Health-check eviction horizon, ms: an expired lease whose shard
    /// stays silent this long past its expiry is evicted — its encumbered
    /// reserve returns to the pool and the shard must re-admit as a fresh
    /// grant. `0` (the default) disables eviction and floor-parks silent
    /// shards forever. Must match across restarts of a journaled
    /// coordinator (replay recomputes evictions from it), like the TTL.
    pub evict_after_ms: u64,
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
            global_cap_w: Cap::new(120.0).expect("120 W is a cap"),
            policy: ArbiterPolicy::DemandProportional,
            ttl_ms: 1_000,
            floor_w: Cap::new(5.0).expect("5 W is a cap"),
            evict_after_ms: 0,
            journal: None,
            journal_sync: false,
        }
    }
}

/// State shared by the accept loop and every connection.
pub(crate) struct CoordShared {
    pub(crate) table: Mutex<LeaseTable>,
    journal: Option<Arc<Journal<CoordJournalEntry>>>,
    recovery: Option<CoordRecovery>,
    shutdown: AtomicBool,
    started: Instant,
    base_ms: u64,
}

impl CoordShared {
    /// The current logical time, ms (never behind the replayed journal).
    fn now_ms(&self) -> u64 {
        self.base_ms + self.started.elapsed().as_millis() as u64
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

    /// Everything a coordinator is but its listener, from a configuration
    /// it checks before it opens a file: the lease journal, if one is
    /// configured, replayed. Divergent journals are a typed error, never a
    /// guess at who holds which watts.
    pub(crate) fn new(config: &CoordinatorConfig) -> Result<Self, ServeError> {
        // `LeaseTable::new` asserts these; an operator's typo must not get
        // that far.
        let (cap_w, floor_w) = (config.global_cap_w.get(), config.floor_w.get());
        if floor_w >= cap_w {
            return Err(ServeError::Config(format!(
                "--floor must be below --cap, got {floor_w} W against {cap_w} W"
            )));
        }
        if config.ttl_ms == 0 {
            return Err(ServeError::Config(
                "--ttl-ms must be at least 1: a lease must live one millisecond".into(),
            ));
        }
        let (journal, entries) = match &config.journal {
            Some(path) => {
                let (journal, entries) = Journal::open_with_sync(path, config.journal_sync)
                    .map_err(|e| ServeError::Journal(e.to_string()))?;
                (Some(Arc::new(journal)), entries)
            }
            None => (None, Vec::new()),
        };
        // A coordinator without a journal starts from the empty one.
        let fresh = LeaseTable::new(
            config.global_cap_w,
            config.policy,
            config.ttl_ms,
            config.floor_w,
            config.evict_after_ms,
        );
        let (table, recovery) =
            replay_coordinator(&entries, fresh).map_err(|e| ServeError::Journal(e.to_string()))?;
        let recovery = journal.is_some().then_some(recovery);
        let base_ms = table.tick();
        Ok(Self {
            table: Mutex::new(table),
            journal,
            recovery,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            base_ms,
        })
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
    fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
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
    /// configured ([`ServeError::Journal`] on a divergent one).
    pub fn bind(config: CoordinatorConfig) -> Result<Self, ServeError> {
        let listener = Listener::bind(&format!("{}:{}", config.host, config.port))?;
        Ok(Self { listener, shared: Arc::new(CoordShared::new(&config)?) })
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
            Ok(request) => step(self.0, self.0.now_ms(), request),
            Err(err) => {
                (CoordResponse::Error { code: err.code().into(), detail: err.to_string() }, true)
            }
        }
    }
}

/// Serve one request at logical time `now_ms`. A lease operation is one
/// step of the table, journaled under the table lock, so the recorded time
/// and epoch are exactly the ones the operation produced.
pub(crate) fn step(
    shared: &CoordShared,
    now_ms: u64,
    request: CoordRequest,
) -> (CoordResponse, bool) {
    let mut table = shared.table.lock();
    let response = match table.apply(now_ms, &request) {
        Some(Ok(entry)) => {
            shared.journal_append(&entry);
            table.reply(&entry)
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
    use acs_sim::Watts;
    use std::path::PathBuf;

    fn watts(w: f64) -> Watts {
        Watts::new(w).unwrap()
    }

    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("acs-coord-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn config(journal: Option<PathBuf>) -> CoordinatorConfig {
        CoordinatorConfig {
            global_cap_w: Cap::new(100.0).unwrap(),
            floor_w: Cap::new(5.0).unwrap(),
            ttl_ms: 10,
            journal,
            ..Default::default()
        }
    }

    #[test]
    fn grant_renew_release() {
        let coord = CoordShared::new(&config(None)).unwrap();
        let (lease_id, epoch) =
            match step(&coord, 0, CoordRequest::Lease { shard_id: 1, demand_w: watts(10.0) }).0 {
                CoordResponse::Granted { lease_id, epoch, budget_w, ttl_ms, floor_w, .. } => {
                    assert_eq!(budget_w.get(), 100.0, "sole shard owns the pool");
                    assert_eq!((ttl_ms, floor_w.get()), (10, 5.0));
                    (lease_id, epoch)
                }
                other => panic!("expected Granted, got {other:?}"),
            };
        let renew = |demand_w| CoordRequest::Renew { lease_id, epoch, demand_w: watts(demand_w) };
        match step(&coord, 1, renew(12.0)).0 {
            CoordResponse::Renewed { budget_w, .. } => assert_eq!(budget_w.get(), 100.0),
            other => panic!("expected Renewed, got {other:?}"),
        }
        let s = stats(&coord, 1);
        assert_eq!((s.live_leases, s.grants, s.renews, s.overshoot_w), (1, 1, 1, 0.0));
        assert_eq!(step(&coord, 1, CoordRequest::Release { lease_id }).0, CoordResponse::Released);
        match step(&coord, 1, renew(0.0)).0 {
            CoordResponse::Rejected { code, .. } => assert_eq!(code, "unknown-lease"),
            other => panic!("expected Rejected, got {other:?}"),
        }
        let s = stats(&coord, 1);
        assert_eq!(s.live_committed_w + s.encumbered_w, 0.0);
    }

    /// What a test reads off a `Granted` reply: the lease id and epoch.
    fn granted(reply: CoordResponse) -> (u64, u64) {
        match reply {
            CoordResponse::Granted { lease_id, epoch, .. } => (lease_id, epoch),
            other => panic!("expected Granted, got {other:?}"),
        }
    }

    fn stats(coord: &CoordShared, now_ms: u64) -> CoordStats {
        match step(coord, now_ms, CoordRequest::Stats).0 {
            CoordResponse::Stats(stats) => stats,
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn a_negative_demand_is_a_decode_error_that_changes_nothing() {
        let dir = scratch("demand");
        let coord = CoordShared::new(&config(Some(dir.join("coord.journal")))).unwrap();
        let text = r#"{"Lease":{"shard_id":1,"demand_w":-1}}"#;
        let mut frame = (text.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(text.as_bytes());
        let before = stats(&coord, 0);
        let decoded = crate::protocol::read_frame_blocking(&mut &frame[..]).transpose();
        match Conn(&coord).handle(decoded.expect("one frame")) {
            (CoordResponse::Error { code, .. }, true) => assert_eq!(code, "malformed"),
            other => panic!("expected the typed decode error, got {other:?}"),
        }
        assert_eq!(stats(&coord, 0), before, "the table or its journal moved");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn restart_replays_the_lease_table_and_readopts() {
        let dir = scratch("restart");
        let journal_path = dir.join("coord.journal");
        let lease = |shard_id| CoordRequest::Lease { shard_id, demand_w: watts(10.0) };

        // Abrupt death: no Release, no drain; the state is just dropped.
        let (lease_id, epoch) = {
            let coord = CoordShared::new(&config(Some(journal_path.clone()))).unwrap();
            granted(step(&coord, 0, lease(1)).0)
        };

        let coord = CoordShared::new(&config(Some(journal_path))).unwrap();
        let recovery = coord.recovery.clone().expect("a journaled coordinator reports recovery");
        assert_eq!(recovery.replayed, 1);
        assert_eq!(recovery.live_leases, vec![lease_id]);
        assert_eq!(stats(&coord, 1).overshoot_w, 0.0);

        // The shard's fence survived the restart: its next renewal just
        // works — no re-lease, no double grant.
        match step(&coord, 1, CoordRequest::Renew { lease_id, epoch, demand_w: watts(10.0) }).0 {
            CoordResponse::Renewed { lease_id: id, .. } => assert_eq!(id, lease_id),
            other => panic!("expected Renewed, got {other:?}"),
        }
        // And a full re-lease (e.g. the shard reconnected after a
        // partition that outlived the coordinator) re-adopts the same id.
        assert_eq!(granted(step(&coord, 1, lease(1)).0).0, lease_id);
        let s = stats(&coord, 1);
        assert_eq!(s.live_leases, 1, "re-adoption never duplicates a lease");
        assert_eq!(s.journal_replayed, 1);
        assert_eq!(s.journal_appends, 2, "the renewal and re-adoption were journaled");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn eviction_reclaims_a_silent_shards_reserve() {
        let coord =
            CoordShared::new(&CoordinatorConfig { ttl_ms: 5, evict_after_ms: 5, ..config(None) })
                .unwrap();
        let lease = |shard_id| CoordRequest::Lease { shard_id, demand_w: Watts::default() };
        let (lease_id, _) = granted(step(&coord, 0, lease(1)).0);
        // Expiry at 5 ms, eviction 5 ms later: any mutation at 10 ms
        // advances the clock past both, and the silent shard is evicted,
        // not floor-parked.
        step(&coord, 10, lease(2));
        let s = stats(&coord, 10);
        assert_eq!(s.evicted_shards, 1, "the silent shard was evicted");
        assert_eq!(s.encumbered_w, 0.0, "eviction reclaims the reserve");
        assert_eq!(s.overshoot_w, 0.0);
        // The returning shard re-admits as a fresh grant.
        let (id, _) = granted(step(&coord, 10, lease(1)).0);
        assert_ne!(id, lease_id, "burned lease ids stay burned");
    }

    #[test]
    fn revoke_frees_a_dead_shards_encumbrance() {
        let coord = CoordShared::new(&CoordinatorConfig { ttl_ms: 5, ..config(None) }).unwrap();
        let lease = |shard_id| CoordRequest::Lease { shard_id, demand_w: Watts::default() };
        let (lease_id, _) = granted(step(&coord, 0, lease(1)).0);
        // Stats alone does not move the clock: a lease operation at the
        // expiry time does, and the silent shard's lease is encumbered.
        step(&coord, 5, lease(2));
        let s = stats(&coord, 5);
        assert_eq!(s.encumbered_leases, 1, "the silent shard is encumbered");
        assert!(s.encumbered_w > 0.0);
        assert_eq!(step(&coord, 5, CoordRequest::Revoke { lease_id }).0, CoordResponse::Revoked);
        let s = stats(&coord, 5);
        assert_eq!(s.encumbered_w, 0.0, "revocation frees the reserve");
        assert_eq!(s.revocations, 1);
    }
}
