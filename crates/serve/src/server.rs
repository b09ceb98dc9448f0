//! The selection server: shared state, admission control, the session
//! handler, the lease client and the brownout controller. Listening,
//! accepting, draining and the per-connection frame loop are the shared
//! connection layer in [`crate::net`].
//!
//! Admission control is a hard bound, not a queue: when `max_sessions`
//! sessions are live, a new connection is answered with one typed
//! [`Response::Overloaded`] frame and closed. Nothing in the server
//! buffers unboundedly — see DESIGN.md §11.

use crate::arbiter::{Arbiter, ArbiterPolicy};
use crate::coordinator::CoordClient;
use crate::engine::{Engine, EngineError};
use crate::journal::{replay, Journal, JournalEntry, Recovery};
use crate::lease::{CoordRequest, CoordResponse, ShardLease};
use crate::metrics::{LeaseReport, Metrics};
use crate::net::{serve_tcp, FrameClient, FrameHandler, Listener, Running};
use crate::protocol::{write_frame, ProtocolError, ReportFeedback, Request, Response, Selection};
use acs_core::{AdaptivePredictor, CappedRuntime, DriftEvent, GuardPolicy, TrainedModel};
use acs_sim::{Configuration, FamilyId, Machine};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-session read timeout; bounds how long a session takes to observe
/// the shutdown flag.
const SESSION_READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Longest single sleep of the lease client between renewals; bounds how
/// long it takes to observe the shutdown flag.
const LEASE_SLEEP_SLICE: Duration = Duration::from_millis(5);

/// Ring-buffer capacity of each session's scheduling timeline — the one
/// per-run record a session keeps, so this bounds a session's memory
/// however many `Run`s it serves. Nothing on the wire reads a timeline,
/// hence a constant rather than a setting.
const SESSION_TIMELINE_CAPACITY: usize = 4096;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Interface to bind.
    pub host: String,
    /// Port to bind; `0` asks the OS for an ephemeral port.
    pub port: u16,
    /// Machine noise seed (each session simulates its own node machine).
    pub seed: u64,
    /// Machine family every session node (and the shared profile engine)
    /// instantiates — a heterogeneous fleet runs one server per family.
    pub family: FamilyId,
    /// Global cluster power cap, W, partitioned by the arbiter.
    pub global_cap_w: f64,
    /// Budget-partition policy.
    pub policy: ArbiterPolicy,
    /// Hard bound on concurrent sessions.
    pub max_sessions: usize,
    /// Hard bound on kernels per `Batch` request.
    pub max_batch: usize,
    /// Recovery-journal path. `Some` makes admissions, arbiter reshuffles,
    /// and first-time cache misses durable: a restarted server replays the
    /// journal and resumes with identical budgets and a warm cache.
    pub journal: Option<std::path::PathBuf>,
    /// `true` upgrades journal durability from flush-per-append to
    /// `sync_data()`-per-append (the `--journal-sync` flag).
    pub journal_sync: bool,
    /// Coordinator address (`host:port`). `Some` turns this server into a
    /// fleet shard: `global_cap_w` becomes its *demand*, and the cap it
    /// actually enforces is whatever its lease grants (starting from
    /// `lease_floor_w` until the first grant lands).
    pub coordinator: Option<String>,
    /// Stable shard identity to present when (re-)leasing, so a restarted
    /// shard is re-adopted instead of double-granted. `None` lets the
    /// coordinator assign one.
    pub shard_id: Option<u64>,
    /// Degraded-mode floor, W: the cap a partitioned shard decays toward
    /// and the pre-lease reserve it runs at before its first grant.
    pub lease_floor_w: f64,
    /// Lease renewal interval, ms.
    pub renew_ms: u64,
    /// Brownout target: the p99 service latency, µs, the server tries to
    /// hold by progressively disabling optional work (level 1 skips
    /// adaptation feedback, 2 strips STATS detail, 3 serializes batch
    /// fan-out and sheds deadline-carrying requests the latency estimate
    /// says would expire before service). `0` (the default) disables the
    /// controller entirely — no thread, no level, the pre-brownout byte
    /// path. Requests without a deadline are never shed at any level.
    pub brownout_us: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            host: "127.0.0.1".into(),
            port: 0,
            seed: 2014,
            family: FamilyId::Trinity,
            global_cap_w: 120.0,
            policy: ArbiterPolicy::EqualShare,
            max_sessions: 8,
            max_batch: 256,
            journal: None,
            journal_sync: false,
            coordinator: None,
            shard_id: None,
            lease_floor_w: 5.0,
            renew_ms: 200,
            brownout_us: 0,
        }
    }
}

/// Typed server failures.
#[derive(Debug)]
pub enum ServeError {
    /// The listener could not bind (EADDRINUSE, bad interface, ...).
    Bind {
        /// The address that was requested.
        addr: String,
        /// OS-level detail.
        detail: String,
    },
    /// Listener failure after binding.
    Io(String),
    /// The recovery journal could not be opened or replayed.
    Journal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, detail } => {
                write!(f, "cannot bind {addr}: {detail}")
            }
            ServeError::Io(m) => write!(f, "listener failure: {m}"),
            ServeError::Journal(m) => write!(f, "recovery journal: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// State shared by the accept loop and every session.
struct Shared {
    config: ServeConfig,
    model: Arc<TrainedModel>,
    engine: Engine,
    arbiter: Mutex<Arbiter>,
    metrics: Metrics,
    shutdown: AtomicBool,
    /// Crash simulation (tests, `bench_recovery`): sessions stop without
    /// journaling `Leave`, exactly like a SIGKILL mid-conversation.
    crashed: AtomicBool,
    active: AtomicUsize,
    next_node: AtomicU64,
    journal: Option<Arc<Journal>>,
    recovery: Option<Recovery>,
    /// The shard-side lease state machine; `Some` iff a coordinator is
    /// configured. The lease client thread mutates it; `Stats` reads it.
    lease: Option<Mutex<ShardLease>>,
    /// Current brownout level (0 = everything enabled). Written by the
    /// brownout thread, read on every request; stays 0 forever when the
    /// controller is disabled.
    brownout_level: AtomicU8,
    /// The brownout thread's cached p99 service-latency estimate, µs —
    /// what the shed decision compares deadlines against (sessions must
    /// not pay a reservoir scan per request).
    est_p99_us: AtomicU64,
    /// Times the lease client learned its lease was evicted by the
    /// coordinator's health check (`unknown-lease` on renew).
    evicted_observed: AtomicU64,
    /// Per-session online adaptation state, keyed by node id. A clean
    /// `Bye` removes the entry; a crash leaves it, mirroring the journal's
    /// replay semantics (orphans keep their rebuilt state).
    adapt: Mutex<BTreeMap<u64, AdaptivePredictor>>,
}

/// Best-effort journal append. Append failures (disk full, journal file
/// deleted under us) degrade durability, not availability: the server
/// keeps serving, and the next restart simply recovers less.
fn journal_append(shared: &Shared, entry: &JournalEntry) {
    if let Some(journal) = &shared.journal {
        let _ = journal.append(entry);
    }
}

/// A cheap handle for observing and stopping a running server.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Request shutdown; the accept loop and sessions drain within their
    /// next poll interval.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Wire-protocol failures observed so far.
    pub fn protocol_errors(&self) -> u64 {
        self.shared.metrics.protocol_errors()
    }

    /// Sessions currently connected.
    pub fn active_sessions(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// `Run` requests answered from the idempotency memo so far.
    pub fn idem_replays(&self) -> u64 {
        self.shared.metrics.idem_replays()
    }

    /// The arbiter's current epoch.
    pub fn arbiter_epoch(&self) -> u64 {
        self.shared.arbiter.lock().epoch()
    }

    /// `|global cap − Σ budgets|`, which the arbiter keeps at exactly zero
    /// (the chaos tests assert this after every injected disconnect).
    pub fn budget_conservation_error_w(&self) -> f64 {
        self.shared.arbiter.lock().conservation_error_w()
    }

    /// What journal replay reconstructed at bind time, if a journal was
    /// configured.
    pub fn recovery(&self) -> Option<Recovery> {
        self.shared.recovery.clone()
    }

    /// The shard's lease state name (`standalone` when no coordinator is
    /// configured).
    pub fn lease_state(&self) -> String {
        match &self.shared.lease {
            Some(lease) => lease.lock().state().name().to_string(),
            None => "standalone".to_string(),
        }
    }

    /// The cap the shard currently enforces: its lease budget, or the
    /// configured global cap when standalone.
    pub fn lease_cap_w(&self) -> f64 {
        match &self.shared.lease {
            Some(lease) => lease.lock().cap_w(),
            None => self.shared.config.global_cap_w,
        }
    }

    /// Times the shard has entered degraded mode.
    pub fn degraded_entries(&self) -> u64 {
        self.shared.lease.as_ref().map(|l| l.lock().degraded_entries()).unwrap_or(0)
    }

    /// Successful lease renewals against the coordinator.
    pub fn lease_renews(&self) -> u64 {
        self.shared.metrics.lease_renews()
    }

    /// Per-session adaptation-state digests, sorted by node id. The
    /// kill-and-restart e2e compares these against the digests of the
    /// predictors journal replay rebuilds.
    pub fn adapt_digests(&self) -> Vec<(u64, u64)> {
        self.shared
            .adapt
            .lock()
            .iter()
            .map(|(node_id, predictor)| (*node_id, predictor.state_digest()))
            .collect()
    }

    /// Measured-feedback observations consumed by adaptive predictors.
    pub fn adapt_observations(&self) -> u64 {
        self.shared.metrics.adapt_observations()
    }

    /// Requests shed by the deadline gate so far.
    pub fn sheds(&self) -> u64 {
        self.shared.metrics.sheds()
    }

    /// Served requests that exceeded their own deadline in service.
    pub fn deadline_misses(&self) -> u64 {
        self.shared.metrics.deadline_misses()
    }

    /// The current brownout level (0 when the controller is disabled).
    pub fn brownout_level(&self) -> u8 {
        self.shared.brownout_level.load(Ordering::SeqCst)
    }

    /// Times this shard observed its lease evicted by the coordinator's
    /// health check.
    pub fn evictions_observed(&self) -> u64 {
        self.shared.evicted_observed.load(Ordering::SeqCst)
    }

    /// Die like a SIGKILL: stop every session *without* journaling their
    /// `Leave` entries, so the journal ends exactly as a crashed process
    /// would leave it. In-process stand-in for the out-of-process kill in
    /// `bench_recovery` (tests cannot SIGKILL themselves).
    pub fn simulate_crash(&self) {
        self.shared.crashed.store(true, Ordering::SeqCst);
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }
}

/// A bound, not-yet-running selection server.
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the configured address. `port: 0` binds an ephemeral port —
    /// read it back with [`local_addr`](Self::local_addr). Bind failures
    /// (EADDRINUSE and friends) come back as [`ServeError::Bind`], never
    /// a panic.
    pub fn bind(config: ServeConfig, model: TrainedModel) -> Result<Self, ServeError> {
        let listener = Listener::bind(&format!("{}:{}", config.host, config.port))?;
        let model = Arc::new(model);

        // Crash recovery: open the journal, replay its valid prefix into a
        // fresh arbiter (orphaned sessions removed, next node id resumed),
        // and re-warm the profile cache with the journaled miss keys. The
        // miss hook is installed only *after* warm-up, so replayed keys are
        // not journaled a second time.
        let (journal, recovery, mut arbiter, next_node) = match &config.journal {
            Some(path) => {
                let (journal, entries) = Journal::open_with_sync(path, config.journal_sync)
                    .map_err(|e| ServeError::Journal(e.to_string()))?;
                let (arbiter, recovery) = replay(&entries, config.global_cap_w, config.policy)
                    .map_err(|e| ServeError::Journal(e.to_string()))?;
                let next_node = recovery.next_node;
                (Some(Arc::new(journal)), Some(recovery), arbiter, next_node)
            }
            None => (None, None, Arbiter::new(config.global_cap_w, config.policy), 1),
        };
        // A coordinator-bound shard must not exceed its pre-lease reserve
        // (the floor) until its first grant lands, whatever cap the journal
        // replayed — the coordinator only encumbers the floor for a silent
        // shard, so anything above it would break fleet conservation.
        let lease = if config.coordinator.is_some() {
            let shard = ShardLease::new(config.lease_floor_w);
            arbiter.set_global_cap(shard.cap_w());
            if let Some(journal) = &journal {
                let _ = journal.append(&JournalEntry::Cap {
                    cap_w: arbiter.global_cap_w(),
                    epoch: arbiter.epoch(),
                });
            }
            Some(Mutex::new(shard))
        } else {
            None
        };
        let engine =
            Engine::new(Arc::clone(&model), Machine::from_family(config.family, config.seed));
        if let Some(recovery) = &recovery {
            for kernel_id in &recovery.warm_kernels {
                let _ = engine.profile(kernel_id);
            }
        }
        if let Some(journal) = &journal {
            let sink = Arc::clone(journal);
            engine.set_miss_hook(Box::new(move |kernel_id| {
                let _ = sink.append(&JournalEntry::CacheKey { kernel_id: kernel_id.to_string() });
            }));
        }

        // Reconcile the STATS degradation-rung tallies with replayed
        // history: a restarted server reports the rungs it already served,
        // not a fresh zero next to a warm cache.
        let metrics = Metrics::new();
        if let Some(recovery) = &recovery {
            metrics.seed_rungs(&recovery.rung_tallies);
        }
        let shared = Arc::new(Shared {
            engine,
            arbiter: Mutex::new(arbiter),
            metrics,
            shutdown: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            next_node: AtomicU64::new(next_node),
            journal,
            recovery,
            lease,
            brownout_level: AtomicU8::new(0),
            est_p99_us: AtomicU64::new(0),
            evicted_observed: AtomicU64::new(0),
            adapt: Mutex::new(BTreeMap::new()),
            model,
            config,
        });
        Ok(Self { listener, shared })
    }

    /// Bind, then serve on a background thread until stopped.
    pub fn spawn(
        config: ServeConfig,
        model: TrainedModel,
    ) -> Result<Running<ServerHandle>, ServeError> {
        let server = Self::bind(config, model)?;
        let (addr, handle) = (server.local_addr(), server.handle());
        Ok(Running::start(addr, handle, ServerHandle::shutdown, move || server.run()))
    }

    /// The address actually bound (resolves `--port 0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// A handle usable from other threads while [`run`](Self::run) blocks.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: Arc::clone(&self.shared) }
    }

    /// Serve until SIGINT or a `Shutdown` poison request, then drain and
    /// join every session.
    pub fn run(self) -> Result<(), ServeError> {
        let shared = self.shared;
        let lease_thread = shared.config.coordinator.clone().map(|target| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_lease_client(shared, target))
        });
        let brownout_thread = (shared.config.brownout_us > 0).then(|| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_brownout(shared))
        });
        let served = self.listener.serve(&shared.shutdown, |mut stream| {
            let active = shared.active.load(Ordering::SeqCst);
            if active >= shared.config.max_sessions {
                shared.metrics.record_overloaded();
                let _ = write_frame(
                    &mut stream,
                    &Response::Overloaded {
                        load: active as u64 + 1,
                        limit: shared.config.max_sessions as u64,
                    },
                );
                return None;
            }
            shared.active.fetch_add(1, Ordering::SeqCst);
            let node_id = shared.next_node.fetch_add(1, Ordering::SeqCst);
            let shared = Arc::clone(&shared);
            Some(std::thread::spawn(move || run_session(shared, stream, node_id)))
        });
        // Also after an accept-loop failure, so the helper threads exit.
        shared.shutdown.store(true, Ordering::SeqCst);
        for handle in lease_thread.into_iter().chain(brownout_thread) {
            let _ = handle.join();
        }
        served
    }
}

/// How often the brownout controller re-reads the latency reservoir.
const BROWNOUT_POLL: Duration = Duration::from_millis(100);

/// Map an observed p99 to a brownout level against the configured target:
/// within target → 0, within 2× → 1, within 4× → 2, beyond → 3. Pure, so
/// the ladder is unit-testable without a server.
pub fn brownout_level_for(target_us: u64, p99_us: u64) -> u8 {
    if p99_us <= target_us {
        0
    } else if p99_us <= target_us.saturating_mul(2) {
        1
    } else if p99_us <= target_us.saturating_mul(4) {
        2
    } else {
        3
    }
}

/// The brownout controller: one thread, one reservoir read per poll.
/// Level transitions are journaled (pure observability — replay counts
/// them, the live level always restarts at 0) and published through the
/// shared atomics the request path reads.
fn run_brownout(shared: Arc<Shared>) {
    let target_us = shared.config.brownout_us;
    while !shared.shutdown.load(Ordering::SeqCst) {
        let p99_us = shared.metrics.p99_latency_us_now();
        shared.est_p99_us.store(p99_us, Ordering::SeqCst);
        let level = brownout_level_for(target_us, p99_us);
        let previous = shared.brownout_level.swap(level, Ordering::SeqCst);
        if level != previous {
            journal_append(&shared, &JournalEntry::Brownout { level });
        }
        std::thread::sleep(BROWNOUT_POLL);
    }
}

/// The priority a deadline-carrying request must meet to be served, as a
/// `u16` so 256 means "shed regardless of priority". A zero deadline has
/// already expired before service. At full brownout (level 3) requests
/// whose deadline the current p99 estimate says cannot be met are shed
/// unless they carry high priority (≥ 128). Below level 3 nothing with a
/// positive deadline is shed — brownout dims optional work first.
pub fn required_priority(brownout_level: u8, deadline_ms: u64, est_p99_us: u64) -> u16 {
    if deadline_ms == 0 {
        return 256;
    }
    if brownout_level >= 3 && est_p99_us > deadline_ms.saturating_mul(1000) {
        return 128;
    }
    0
}

/// Whether to shed a request. Monotone in `priority` for any fixed
/// `(brownout_level, deadline_ms, est_p99_us)` — the property the
/// shedding proptest pins down: no request is shed while a lower-priority
/// request with the same deadline is served.
pub fn should_shed(brownout_level: u8, deadline_ms: u64, priority: u8, est_p99_us: u64) -> bool {
    u16::from(priority) < required_priority(brownout_level, deadline_ms, est_p99_us)
}

/// The shard's lease client: one thread, one renewal per `renew_ms`.
///
/// Each round sends `Renew` (or `Lease` when unleased) and folds the
/// outcome into the [`ShardLease`] state machine; the resulting cap is
/// applied to the arbiter and journaled as a [`JournalEntry::Cap`] so a
/// restarted shard replays to the same budgets. Connection failures and
/// timeouts are *misses* (degraded-mode decay), and when the shard's own
/// clock says the lease TTL has passed without contact, the cap clamps to
/// the coordinator's encumbered reserve — `min(floor, last grant)` — so a
/// fully partitioned fleet still sums below the global cap.
fn run_lease_client(shared: Arc<Shared>, target: String) {
    let lease_mutex = shared.lease.as_ref().expect("lease client requires lease state");
    let renew_every = Duration::from_millis(shared.config.renew_ms.max(10));
    let mut client: Option<CoordClient> = None;
    // (instant of last successful contact, lease TTL) — shard-local expiry.
    let mut contact: Option<(Instant, Duration)> = None;
    'rounds: loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let started = Instant::now();
        let request = {
            let lease = lease_mutex.lock();
            match lease.lease_id() {
                Some(lease_id) => CoordRequest::Renew {
                    lease_id,
                    epoch: lease.epoch(),
                    demand_w: shared.config.global_cap_w,
                },
                None => CoordRequest::Lease {
                    shard_id: shared.config.shard_id.or(lease.shard_id()),
                    demand_w: shared.config.global_cap_w,
                },
            }
        };
        let response = lease_call(&mut client, &target, renew_every, &request);
        let latency_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let cap_w = {
            let mut lease = lease_mutex.lock();
            match response {
                Ok(CoordResponse::Granted {
                    lease_id, shard_id, epoch, budget_w, ttl_ms, ..
                }) => {
                    contact = Some((Instant::now(), Duration::from_millis(ttl_ms)));
                    shared.metrics.record_renew(latency_ns);
                    lease.on_granted(lease_id, shard_id, epoch, budget_w)
                }
                Ok(CoordResponse::Renewed { epoch, budget_w, .. }) => {
                    if let Some((at, _)) = &mut contact {
                        *at = Instant::now();
                    }
                    shared.metrics.record_renew(latency_ns);
                    lease.on_renewed(epoch, budget_w)
                }
                Ok(CoordResponse::Rejected { code, .. }) => {
                    match code.as_str() {
                        // The lease is gone on the coordinator's side:
                        // clamp to the floor and re-lease next round with
                        // the remembered shard id (re-adoption, not a
                        // double grant). `unknown-lease` on a renew means
                        // the health check evicted us — count it so STATS
                        // and the chaos orchestrator can see failovers.
                        "expired" | "fenced" | "unknown-lease" => {
                            if code == "unknown-lease"
                                && matches!(request, CoordRequest::Renew { .. })
                            {
                                shared.evicted_observed.fetch_add(1, Ordering::SeqCst);
                            }
                            contact = None;
                            lease.on_released();
                        }
                        // "denied" and anything else: stay unleased at the
                        // floor and keep asking.
                        _ => {}
                    }
                    lease.cap_w()
                }
                Ok(_) => lease.cap_w(),
                Err(_) => {
                    client = None;
                    let mut cap_w = lease.on_miss();
                    if let Some((at, ttl)) = contact {
                        if at.elapsed() >= ttl {
                            cap_w = lease.on_expired();
                            contact = None;
                        }
                    }
                    cap_w
                }
            }
        };
        apply_lease_cap(&shared, cap_w);
        let deadline = started + renew_every;
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                break 'rounds;
            }
            std::thread::sleep(LEASE_SLEEP_SLICE.min(deadline - now));
        }
    }
    // Clean shutdown releases the lease so the coordinator frees the full
    // encumbrance immediately; a simulated crash must not (the journal and
    // the coordinator should both see a SIGKILL-shaped ending).
    if !shared.crashed.load(Ordering::SeqCst) {
        let lease_id = lease_mutex.lock().lease_id();
        if let Some(lease_id) = lease_id {
            let _ =
                lease_call(&mut client, &target, renew_every, &CoordRequest::Release { lease_id });
        }
    }
}

/// One lease-protocol round trip, (re)connecting as needed. The caller
/// resets `client` on error so the next round reconnects.
fn lease_call(
    client: &mut Option<CoordClient>,
    target: &str,
    timeout: Duration,
    request: &CoordRequest,
) -> Result<CoordResponse, ProtocolError> {
    if client.is_none() {
        let addr = target.to_socket_addrs()?.next().ok_or_else(|| {
            ProtocolError::Io(std::io::Error::new(
                ErrorKind::AddrNotAvailable,
                format!("coordinator address {target} resolved to nothing"),
            ))
        })?;
        *client = Some(CoordClient::connect_timeout(&addr, timeout)?);
    }
    let result = client.as_mut().expect("connected above").call(request);
    if result.is_err() {
        *client = None;
    }
    result
}

/// Apply a lease-derived cap to the shard's arbiter. The mutation and its
/// journal entry happen under the arbiter lock so the recorded epoch is
/// exactly the one this cap change produced.
fn apply_lease_cap(shared: &Shared, cap_w: f64) {
    let mut arbiter = shared.arbiter.lock();
    if (arbiter.global_cap_w() - cap_w).abs() <= 1e-9 {
        return;
    }
    arbiter.set_global_cap(cap_w);
    journal_append(
        shared,
        &JournalEntry::Cap { cap_w: arbiter.global_cap_w(), epoch: arbiter.epoch() },
    );
}

/// One connection: a node in the arbiter's cluster with its own capped,
/// guarded runtime over its own (seed-identical) simulated machine.
struct Session<'a> {
    shared: &'a Shared,
    node_id: u64,
    rt: CappedRuntime<Machine>,
    seen_epoch: u64,
}

fn run_session(shared: Arc<Shared>, stream: TcpStream, node_id: u64) {
    // (mutation, epoch) pairs are journaled under the arbiter lock so the
    // recorded epoch is exactly the one this operation produced.
    let budget_w = {
        let mut arbiter = shared.arbiter.lock();
        let budget_w = arbiter.join(node_id);
        journal_append(&shared, &JournalEntry::Admit { node_id, epoch: arbiter.epoch() });
        budget_w
    };
    shared.adapt.lock().insert(node_id, AdaptivePredictor::default());
    let rt = CappedRuntime::guarded(
        Machine::from_family(shared.config.family, shared.config.seed),
        Arc::clone(&shared.model),
        budget_w,
        GuardPolicy::default(),
    );
    rt.timeline().set_capacity(Some(SESSION_TIMELINE_CAPACITY));
    let seen_epoch = shared.arbiter.lock().epoch();
    let mut session = Session { shared: &shared, node_id, rt, seen_epoch };
    serve_tcp(stream, SESSION_READ_TIMEOUT, &shared.shutdown, &mut session);

    // A simulated crash skips the clean leave: the journal must end the way
    // a SIGKILLed process leaves it, with this session still admitted (the
    // restarted server's replay then removes it as an orphan).
    if !shared.crashed.load(Ordering::SeqCst) {
        let mut arbiter = shared.arbiter.lock();
        arbiter.leave(node_id);
        journal_append(&shared, &JournalEntry::Leave { node_id, epoch: arbiter.epoch() });
        drop(arbiter);
        // A clean close discards the session's adaptation state, exactly
        // as replaying its Leave entry does; a crash leaves it in place.
        shared.adapt.lock().remove(&node_id);
    }
    shared.active.fetch_sub(1, Ordering::SeqCst);
}

impl FrameHandler for Session<'_> {
    type Req = Request;
    type Resp = Response;

    /// Pick up budget reshuffles made on behalf of *other* nodes; a
    /// changed budget re-runs selection from the cached frontiers.
    fn turn(&mut self) {
        let arbiter = self.shared.arbiter.lock();
        let epoch = arbiter.epoch();
        if epoch != self.seen_epoch {
            self.seen_epoch = epoch;
            let budget = arbiter.budget_of(self.node_id);
            drop(arbiter);
            if let Some(budget) = budget {
                apply_budget(self.shared, &mut self.rt, budget);
            }
        }
    }

    fn handle(&mut self, request: Result<Request, ProtocolError>) -> (Response, bool) {
        let shared = self.shared;
        let request = match request {
            Ok(request) => request,
            Err(err) => {
                shared.metrics.record_protocol_error();
                return (
                    Response::Error { code: err.code().into(), detail: err.to_string() },
                    true,
                );
            }
        };
        let started = Instant::now();
        let kind = request.kind();
        let deadline = request.deadline();
        let (response, done) = handle_request(shared, &mut self.rt, self.node_id, request);
        let latency_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        shared.metrics.record_request(kind, latency_ns);
        // A served (not shed) request that blew through its own deadline
        // is a miss — the overload bench's goodput denominator.
        if let Some((deadline_ms, _)) = deadline {
            if !matches!(response, Response::ShedDeadline { .. })
                && latency_ns > deadline_ms.saturating_mul(1_000_000)
            {
                shared.metrics.record_deadline_miss();
            }
        }
        (response, done)
    }
}

/// Apply an arbiter-assigned budget to the session runtime, re-running
/// selection for every classified kernel.
fn apply_budget(shared: &Shared, rt: &mut CappedRuntime<Machine>, budget_w: f64) {
    if (rt.cap_w() - budget_w).abs() > 1e-9 && rt.try_set_cap(budget_w).is_ok() {
        shared.metrics.record_reselection();
    }
}

/// Serve one request. Returns the response and whether the session ends.
fn handle_request(
    shared: &Shared,
    rt: &mut CappedRuntime<Machine>,
    node_id: u64,
    request: Request,
) -> (Response, bool) {
    let brownout_level = shared.brownout_level.load(Ordering::SeqCst);
    // The shed gate runs before any work: a request that has already
    // expired (or that the brownout estimate says will) is answered with
    // one typed frame and costs nothing else. Requests without a deadline
    // never enter the gate.
    if let Some((deadline_ms, priority)) = request.deadline() {
        let est_p99_us = shared.est_p99_us.load(Ordering::SeqCst);
        if should_shed(brownout_level, deadline_ms, priority, est_p99_us) {
            shared.metrics.record_shed();
            return (Response::ShedDeadline { deadline_ms, priority, brownout_level }, false);
        }
    }
    match request {
        Request::Hello => (Response::Welcome { node_id, budget_w: rt.cap_w() }, false),
        Request::Select { kernel_id, .. } => {
            match select_for(shared, node_id, &kernel_id, rt.cap_w()) {
                Ok(selection) => (Response::Selected(selection), false),
                Err(e) => (engine_error(e), false),
            }
        }
        Request::Batch { kernel_ids, .. } => {
            let limit = shared.config.max_batch;
            if kernel_ids.len() > limit {
                shared.metrics.record_overloaded();
                return (
                    Response::Overloaded { load: kernel_ids.len() as u64, limit: limit as u64 },
                    false,
                );
            }
            // Sessions with no confirmed drift correction for any batched
            // kernel take the parallel static path, bit-identical to the
            // pre-adaptation server. Brownout level 3 also forces the
            // sequential walk: selections stay byte-identical, only the
            // fan-out's thread-pool pressure is dropped.
            let any_corrected = {
                let adapt = shared.adapt.lock();
                adapt
                    .get(&node_id)
                    .is_some_and(|p| kernel_ids.iter().any(|k| p.correction(k).is_some()))
            };
            let mut selections = Vec::with_capacity(kernel_ids.len());
            if any_corrected || brownout_level >= 3 {
                for kernel_id in &kernel_ids {
                    match select_for(shared, node_id, kernel_id, rt.cap_w()) {
                        Ok(s) => selections.push(s),
                        Err(e) => return (engine_error(e), false),
                    }
                }
            } else {
                for result in shared.engine.select_batch(&kernel_ids, rt.cap_w()) {
                    match result {
                        Ok(s) => selections.push(s),
                        Err(e) => return (engine_error(e), false),
                    }
                }
            }
            (Response::BatchSelected { selections }, false)
        }
        Request::Run { kernel_id, iterations, idem, .. } => {
            // A retry carrying a known idempotency key replays the first
            // successful execution's exact response instead of running the
            // kernel again (exactly-once in effect).
            if let Some(key) = idem {
                if let Some(memo) = shared.engine.idem_lookup(key) {
                    shared.metrics.record_idem_replay();
                    return (memo, false);
                }
            }
            let Some(kernel) = shared.engine.kernel(&kernel_id).cloned() else {
                return (engine_error(EngineError::UnknownKernel(kernel_id)), false);
            };
            let iterations = iterations.max(1);
            let mut total_time_s = 0.0;
            let mut power_sum = 0.0;
            let mut last_config = None;
            for _ in 0..iterations {
                match rt.run_kernel(&kernel) {
                    Ok(run) => {
                        total_time_s += run.time_s;
                        power_sum += run.power_w();
                        last_config = Some(run.config);
                    }
                    Err(e) => {
                        return (
                            Response::Error { code: "runtime".into(), detail: e.to_string() },
                            false,
                        )
                    }
                }
            }
            let tier = rt
                .health(&kernel_id)
                .map(|h| h.tier.label())
                .unwrap_or_else(|| "model".to_string());
            shared.metrics.record_rung(&tier);
            // Rung tallies are journaled so recovery replay reconciles the
            // STATS degradation history instead of restarting it at zero.
            journal_append(shared, &JournalEntry::Rung { label: tier.clone() });
            let response = Response::Ran {
                kernel_id,
                iterations,
                avg_power_w: power_sum / iterations as f64,
                total_time_s,
                config: last_config.expect("at least one iteration ran"),
                tier,
            };
            // Only successful executions are memoized: a retried failure
            // should re-execute, not replay the error.
            if let Some(key) = idem {
                shared.engine.idem_store(key, &response);
            }
            (response, false)
        }
        Request::Report { residual_w, feedback } => {
            // Feedback is validated and consumed *before* the arbiter
            // mutates: a rejected measurement must leave the session's
            // budget exactly as it was. Brownout level 1 drops feedback
            // processing entirely — adaptation is the first optional work
            // to go, the budget report itself still lands.
            if brownout_level < 1 {
                if let Some(feedback) = feedback {
                    if let Err(response) = observe_feedback(shared, node_id, &feedback) {
                        return (*response, false);
                    }
                }
            }
            let budget = {
                let mut arbiter = shared.arbiter.lock();
                let budget = arbiter.report(node_id, residual_w);
                journal_append(
                    shared,
                    &JournalEntry::Report { node_id, residual_w, epoch: arbiter.epoch() },
                );
                budget
            };
            // Apply our own new budget immediately; other sessions pick
            // the reshuffle up at their next poll via the epoch counter.
            let budget_w = budget.unwrap_or_else(|| rt.cap_w());
            apply_budget(shared, rt, budget_w);
            (Response::Budget { budget_w: rt.cap_w() }, false)
        }
        Request::Stats => {
            let mut snapshot = shared.metrics.snapshot(
                shared.engine.cache_counts(),
                shared.active.load(Ordering::SeqCst) as u64,
                shared.arbiter.lock().rebalances(),
                &lease_report(shared),
            );
            // Brownout level 2 strips the detail maps: the headline
            // counters (and the brownout level itself) still flow, but
            // the per-kind and per-rung breakdowns are optional work.
            if brownout_level >= 2 {
                snapshot.requests_by_kind.clear();
                snapshot.degradation_tallies.clear();
            }
            (Response::Stats(Box::new(snapshot)), false)
        }
        Request::Bye => (Response::Bye, true),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            (Response::ShuttingDown, true)
        }
    }
}

/// Select for one kernel through the session's adaptive predictor. With no
/// confirmed drift correction this is exactly [`Engine::select`] — the
/// bit-identical static path. With one, the frontier is re-walked under
/// the drift-deflated cap and the advertised predictions carry the
/// estimated correction.
fn select_for(
    shared: &Shared,
    node_id: u64,
    kernel_id: &str,
    cap_w: f64,
) -> Result<Selection, EngineError> {
    let correction = shared.adapt.lock().get(&node_id).and_then(|p| p.correction(kernel_id));
    let Some(correction) = correction else {
        return shared.engine.select(kernel_id, cap_w);
    };
    let profile = shared.engine.profile(kernel_id)?;
    let selection = {
        let adapt = shared.adapt.lock();
        // The predictor only mutates from this session's own thread, so it
        // is still present and still corrected here.
        adapt
            .get(&node_id)
            .expect("correction implies a predictor")
            .selection(kernel_id, &profile, cap_w)
    };
    if selection.corrected {
        shared.metrics.record_adapt_reselection();
    }
    let point = profile.point_for(&selection.config);
    Ok(Selection {
        kernel_id: kernel_id.to_string(),
        cluster: profile.cluster,
        config: selection.config,
        predicted_power_w: point.power_w * correction.power_ratio,
        predicted_perf: point.perf * correction.perf_ratio,
        budget_w: cap_w,
    })
}

/// Feed one `Report` feedback payload through the session's predictor:
/// validate, observe, journal the exact clamped ratio bits (plus any
/// cluster-mismatch reclassification), and count the drift events. On
/// error the predictor is untouched and the caller returns the typed
/// response without touching the arbiter.
fn observe_feedback(
    shared: &Shared,
    node_id: u64,
    feedback: &ReportFeedback,
) -> Result<(), Box<Response>> {
    // A hostile config (out-of-range threads or P-states) would index
    // outside the profile's point table; reject it before the lookup.
    let index = feedback.config.index();
    if Configuration::all().get(index) != Some(&feedback.config) {
        return Err(Box::new(Response::Error {
            code: "bad-feedback".into(),
            detail: format!("configuration {:?} is not in the machine's space", feedback.config),
        }));
    }
    let profile = match shared.engine.profile(&feedback.kernel_id) {
        Ok(profile) => profile,
        Err(e) => return Err(Box::new(engine_error(e))),
    };
    let point = profile.point_for(&feedback.config);
    let (predicted_power_w, predicted_perf) = (point.power_w, point.perf);
    let mut adapt = shared.adapt.lock();
    let predictor = adapt.entry(node_id).or_default();
    match predictor.observe(
        &feedback.kernel_id,
        feedback.measured_power_w,
        feedback.measured_perf,
        predicted_power_w,
        predicted_perf,
    ) {
        Ok(outcome) => {
            let mismatches = outcome
                .events
                .iter()
                .filter(|e| matches!(e, DriftEvent::ClusterMismatch { .. }))
                .count() as u64;
            shared.metrics.record_adapt_observation(outcome.events.len() as u64, mismatches);
            journal_append(
                shared,
                &JournalEntry::AdaptObs {
                    node_id,
                    kernel_id: feedback.kernel_id.clone(),
                    power_bits: outcome.power_ratio.to_bits(),
                    perf_bits: outcome.perf_ratio.to_bits(),
                },
            );
            for event in &outcome.events {
                if let DriftEvent::ClusterMismatch { kernel_id, .. } = event {
                    journal_append(
                        shared,
                        &JournalEntry::Reclassify { node_id, kernel_id: kernel_id.clone() },
                    );
                }
            }
            Ok(())
        }
        Err(e) => {
            Err(Box::new(Response::Error { code: "bad-feedback".into(), detail: e.to_string() }))
        }
    }
}

/// Assemble the lease/journal side of a `Stats` snapshot.
fn lease_report(shared: &Shared) -> LeaseReport {
    let (lease_state, lease_budget_w, degraded_entries) = match &shared.lease {
        Some(lease) => {
            let lease = lease.lock();
            (lease.state().name().to_string(), lease.cap_w(), lease.degraded_entries())
        }
        None => ("standalone".to_string(), shared.config.global_cap_w, 0),
    };
    LeaseReport {
        lease_state,
        lease_budget_w,
        degraded_entries,
        journal_appends: shared.journal.as_ref().map(|j| j.appended_entries()).unwrap_or(0),
        journal_replayed: shared.recovery.as_ref().map(|r| r.replayed).unwrap_or(0),
        brownout_level: shared.brownout_level.load(Ordering::SeqCst),
        evicted_shards: shared.evicted_observed.load(Ordering::SeqCst),
    }
}

fn engine_error(e: EngineError) -> Response {
    let code = match &e {
        EngineError::UnknownKernel(_) => "unknown-kernel",
    };
    Response::Error { code: code.into(), detail: e.to_string() }
}

/// A blocking client for the wire protocol (used by `acs loadgen`, the
/// benches, and the tests).
pub type Client = FrameClient<Request, Response>;
