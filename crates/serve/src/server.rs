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
use crate::metrics::{LatencyCounts, LeaseReport, Metrics, StatsSnapshot};
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
    /// adaptation feedback, 2 strips STATS detail, 3 sheds
    /// deadline-carrying requests the latency estimate says would expire
    /// before service). `0` (the default) disables the controller
    /// entirely — no thread, no level, the pre-brownout byte path.
    /// Requests without a deadline are never shed at any level.
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
    /// A configuration value no server can run with; the message names
    /// the command-line flag that sets it.
    Config(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, detail } => {
                write!(f, "cannot bind {addr}: {detail}")
            }
            ServeError::Io(m) => write!(f, "listener failure: {m}"),
            ServeError::Journal(m) => write!(f, "recovery journal: {m}"),
            ServeError::Config(m) => write!(f, "invalid configuration: {m}"),
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
    /// Set by `simulate_crash` (tests only): sessions stop without
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
    /// The brownout thread's p99 service-latency estimate over its last
    /// non-empty poll interval, µs — what the shed decision compares
    /// deadlines against.
    est_p99_us: AtomicU64,
    /// `state_digest()` of each session's adaptive predictor, keyed by
    /// node id — all of the adaptation state a session shares. Written
    /// after each observation; a clean leave removes the entry, a crash
    /// leaves it, mirroring the journal's replay semantics (orphans keep
    /// their rebuilt state).
    adapt_digests: Mutex<BTreeMap<u64, u64>>,
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

    /// Sessions currently connected.
    pub fn active_sessions(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
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

    /// Adaptation-state digests of the sessions that have observed
    /// feedback, sorted by node id. The kill-and-restart e2e compares
    /// these against the digests of the predictors journal replay rebuilds.
    pub fn adapt_digests(&self) -> Vec<(u64, u64)> {
        self.shared.adapt_digests.lock().clone().into_iter().collect()
    }

    /// The snapshot a `Stats` request is answered with, without a socket.
    pub fn stats(&self) -> StatsSnapshot {
        stats_snapshot(&self.shared)
    }

    /// Die like a SIGKILL: stop every session *without* journaling their
    /// `Leave` entries, so the journal ends exactly as a crashed process
    /// would leave it. In-process stand-in for the real SIGKILL that
    /// `crates/cli/tests/sigkill.rs` sends an `acs serve` child.
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
        // `Arbiter::new` and `ShardLease::new` assert positivity; an
        // operator's typo must not get that far. An infinite cap would pass
        // those asserts and then split into NaN budgets.
        for (flag, watts) in
            [("--global-cap", config.global_cap_w), ("--lease-floor", config.lease_floor_w)]
        {
            if !(watts.is_finite() && watts > 0.0) {
                return Err(ServeError::Config(format!(
                    "{flag} must be a finite, positive wattage, got {watts}"
                )));
            }
        }
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
            adapt_digests: Mutex::new(BTreeMap::new()),
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
        // As many threads wait for a next session as can be in one.
        let max_parked = shared.config.max_sessions;
        let served = self.listener.serve(&shared.shutdown, max_parked, |mut stream| {
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
            Some(Box::new(move || run_session(shared, stream, node_id)))
        });
        // `serve` returns with the shutdown flag set, so the helpers exit.
        for handle in lease_thread.into_iter().chain(brownout_thread) {
            let _ = handle.join();
        }
        served
    }
}

/// How often the brownout controller re-reads the latency histogram.
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

/// The brownout controller: one thread, one histogram read per poll.
fn run_brownout(shared: Arc<Shared>) {
    let mut seen = LatencyCounts::default();
    while !shared.shutdown.load(Ordering::SeqCst) {
        brownout_poll(&shared, &mut seen);
        std::thread::sleep(BROWNOUT_POLL);
    }
}

/// One poll: set the level from the p99 of the requests served since the
/// previous poll (`seen`). An interval that served nothing says nothing
/// about latency, so it leaves estimate and level where they were. Level
/// transitions are journaled (pure observability — replay counts them,
/// the live level always restarts at 0) and published through the shared
/// atomics the request path reads.
fn brownout_poll(shared: &Shared, seen: &mut LatencyCounts) {
    let Some(p99_us) = shared.metrics.p99_latency_us_since(seen) else {
        return;
    };
    shared.est_p99_us.store(p99_us, Ordering::SeqCst);
    let level = brownout_level_for(shared.config.brownout_us, p99_us);
    let previous = shared.brownout_level.swap(level, Ordering::SeqCst);
    if level != previous {
        journal_append(shared, &JournalEntry::Brownout { level });
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
/// Each round sends the request [`ShardLease::request`] builds and hands
/// the reply — or the failed call, a *miss* — to [`ShardLease::on_reply`];
/// the resulting cap is applied to the arbiter and journaled as a
/// [`JournalEntry::Cap`] so a restarted shard replays to the same budgets.
fn run_lease_client(shared: Arc<Shared>, target: String) {
    // `bind` builds the lease state, and `run` starts this thread, from the
    // same `config.coordinator.is_some()`.
    let lease_mutex = shared.lease.as_ref().expect("lease client requires lease state");
    let renew_every = Duration::from_millis(shared.config.renew_ms.max(10));
    let mut client: Option<CoordClient> = None;
    'rounds: loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let started = Instant::now();
        let config = &shared.config;
        let request = lease_mutex.lock().request(config.shard_id, config.global_cap_w);
        let reply = lease_call(&mut client, &target, renew_every, &request).ok();
        let replied = Instant::now();
        if let Some(CoordResponse::Granted { .. } | CoordResponse::Renewed { .. }) = reply {
            let latency_ns = (replied - started).as_nanos().min(u128::from(u64::MAX)) as u64;
            shared.metrics.record_renew(latency_ns);
        }
        let cap_w = lease_mutex.lock().on_reply(&request, reply.as_ref(), replied);
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

/// One lease-protocol round trip, (re)connecting as needed. A connection
/// that failed the call is not kept, so the next round reconnects.
fn lease_call(
    client: &mut Option<CoordClient>,
    target: &str,
    timeout: Duration,
    request: &CoordRequest,
) -> Result<CoordResponse, ProtocolError> {
    let mut connection = match client.take() {
        Some(connection) => connection,
        None => {
            let addr = target.to_socket_addrs()?.next().ok_or_else(|| {
                ProtocolError::Io(std::io::Error::new(
                    ErrorKind::AddrNotAvailable,
                    format!("coordinator address {target} resolved to nothing"),
                ))
            })?;
            CoordClient::connect_timeout(&addr, timeout)?
        }
    };
    let result = connection.call(request);
    if result.is_ok() {
        *client = Some(connection);
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

/// A session's seat in the cluster: joining the arbiter constructs it,
/// and dropping it is the only way a session leaves — whether its
/// conversation ended with `Bye`, EOF, a protocol error or a panic.
struct Seat<'a> {
    shared: &'a Shared,
    node_id: u64,
}

impl<'a> Seat<'a> {
    /// Join the arbiter as `node_id`; returns the seat, the node's budget
    /// and the epoch that budget belongs to. The caller (the accept loop)
    /// has already counted the session in `active`.
    fn join(shared: &'a Shared, node_id: u64) -> (Self, f64, u64) {
        // (mutation, epoch) pairs are journaled under the arbiter lock so
        // the recorded epoch is exactly the one this operation produced.
        let mut arbiter = shared.arbiter.lock();
        let budget_w = arbiter.join(node_id);
        let epoch = arbiter.epoch();
        journal_append(shared, &JournalEntry::Admit { node_id, epoch });
        (Self { shared, node_id }, budget_w, epoch)
    }
}

impl Drop for Seat<'_> {
    fn drop(&mut self) {
        let Self { shared, node_id } = *self;
        // A simulated crash skips the clean leave: the journal must end the
        // way a SIGKILLed process leaves it, with this session still
        // admitted (the restarted server's replay then removes it as an
        // orphan) and its adaptation digest still published.
        if !shared.crashed.load(Ordering::SeqCst) {
            let mut arbiter = shared.arbiter.lock();
            arbiter.leave(node_id);
            journal_append(shared, &JournalEntry::Leave { node_id, epoch: arbiter.epoch() });
            drop(arbiter);
            shared.adapt_digests.lock().remove(&node_id);
        }
        shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One connection: a node in the arbiter's cluster with its own capped,
/// guarded runtime over its own (seed-identical) simulated machine and
/// its own online adaptation state.
struct Session<'a> {
    seat: Seat<'a>,
    rt: CappedRuntime<Machine>,
    adapt: AdaptivePredictor,
    seen_epoch: u64,
}

impl<'a> Session<'a> {
    /// Take a seat as `node_id` and build the node's runtime at the
    /// budget the seat came with.
    fn join(shared: &'a Shared, node_id: u64) -> Self {
        let (seat, budget_w, seen_epoch) = Seat::join(shared, node_id);
        let rt = CappedRuntime::guarded(
            Machine::from_family(shared.config.family, shared.config.seed),
            Arc::clone(&shared.model),
            budget_w,
            GuardPolicy::default(),
        );
        // Nothing on the wire reads a session's timeline: at capacity 0 it
        // keeps the virtual clock and builds no event, so a session's memory
        // stays flat however many `Run`s and reselections it serves.
        rt.timeline().set_capacity(Some(0));
        Self { seat, rt, adapt: AdaptivePredictor::default(), seen_epoch }
    }
}

fn run_session(shared: Arc<Shared>, stream: TcpStream, node_id: u64) {
    let mut session = Session::join(&shared, node_id);
    serve_tcp(stream, SESSION_READ_TIMEOUT, &shared.shutdown, &mut session);
}

impl FrameHandler for Session<'_> {
    type Req = Request;
    type Resp = Response;

    /// Pick up budget reshuffles made on behalf of *other* nodes; a
    /// changed budget re-runs selection from the cached frontiers.
    fn turn(&mut self) {
        let Seat { shared, node_id } = self.seat;
        let arbiter = shared.arbiter.lock();
        let epoch = arbiter.epoch();
        if epoch != self.seen_epoch {
            self.seen_epoch = epoch;
            let budget = arbiter.budget_of(node_id);
            drop(arbiter);
            if let Some(budget) = budget {
                self.apply_budget(budget);
            }
        }
    }

    fn handle(&mut self, request: Result<Request, ProtocolError>) -> (Response, bool) {
        let shared = self.seat.shared;
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
        let (response, done) = self.handle_request(request);
        let latency_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        shared.metrics.record_request(kind, latency_ns);
        // A served (not shed) request that blew through its own deadline
        // is a miss, counted in STATS `deadline_misses`.
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

/// Hard bound on `iterations` per `Run` request: at ~4 µs an iteration one
/// frame holds its session thread for about as long as one read timeout,
/// which already bounds how long shutdown waits for a session.
const MAX_RUN_ITERATIONS: u64 = 1 << 14;

impl Session<'_> {
    /// Apply an arbiter-assigned budget to the session runtime, re-running
    /// selection for every classified kernel.
    fn apply_budget(&mut self, budget_w: f64) {
        if (self.rt.cap_w() - budget_w).abs() > 1e-9 && self.rt.try_set_cap(budget_w).is_ok() {
            self.seat.shared.metrics.record_reselection();
        }
    }

    /// Serve one request. Returns the response and whether the session ends.
    fn handle_request(&mut self, request: Request) -> (Response, bool) {
        let Seat { shared, node_id } = self.seat;
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
            Request::Hello => (Response::Welcome { node_id, budget_w: self.rt.cap_w() }, false),
            Request::Select { kernel_id, .. } => match self.select(&kernel_id) {
                Ok(selection) => (Response::Selected(selection), false),
                Err(e) => (engine_error(e), false),
            },
            Request::Batch { kernel_ids, .. } => {
                let limit = shared.config.max_batch;
                if kernel_ids.len() > limit {
                    return (self.overloaded(kernel_ids.len() as u64, limit as u64), false);
                }
                // Sessions with no confirmed drift correction for any batched
                // kernel take the engine's static path, bit-identical to the
                // pre-adaptation server.
                let any_corrected = kernel_ids.iter().any(|k| self.adapt.correction(k).is_some());
                let mut selections = Vec::with_capacity(kernel_ids.len());
                if any_corrected {
                    for kernel_id in &kernel_ids {
                        match self.select(kernel_id) {
                            Ok(s) => selections.push(s),
                            Err(e) => return (engine_error(e), false),
                        }
                    }
                } else {
                    for result in shared.engine.select_batch(&kernel_ids, self.rt.cap_w()) {
                        match result {
                            Ok(s) => selections.push(s),
                            Err(e) => return (engine_error(e), false),
                        }
                    }
                }
                (Response::BatchSelected { selections }, false)
            }
            Request::Run { kernel_id, iterations, idem, .. } => {
                if iterations > MAX_RUN_ITERATIONS {
                    return (self.overloaded(iterations, MAX_RUN_ITERATIONS), false);
                }
                // A retry carrying a known idempotency key replays the first
                // successful execution's exact response instead of running the
                // kernel again (exactly-once in effect).
                if let Some(key) = idem {
                    if let Some(memo) = shared.engine.idem_lookup(key) {
                        shared.metrics.record_idem_replay();
                        return (memo, false);
                    }
                }
                let Some(kernel) = shared.engine.kernel(&kernel_id) else {
                    return (engine_error(EngineError::UnknownKernel(kernel_id)), false);
                };
                let iterations = iterations.max(1);
                let mut total_time_s = 0.0;
                let mut power_sum = 0.0;
                let mut run_once = || {
                    self.rt.run_kernel(kernel).map(|run| {
                        total_time_s += run.time_s;
                        power_sum += run.power_w();
                        run.config
                    })
                };
                // Each run's configuration replaces the one before, so the
                // first run's is the answer for a single iteration.
                let ran =
                    run_once().and_then(|first| (1..iterations).try_fold(first, |_, _| run_once()));
                let config = match ran {
                    Ok(config) => config,
                    Err(e) => {
                        return (
                            Response::Error { code: "runtime".into(), detail: e.to_string() },
                            false,
                        )
                    }
                };
                let tier = self
                    .rt
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
                    config,
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
                // `1e999` reads as +∞. The arbiter would ignore it, but the
                // journal would write it as `null`, which no `f64` reads back:
                // the next open would drop that entry and every later one.
                if !residual_w.is_finite() {
                    return (
                        Response::Error {
                            code: "bad-report".into(),
                            detail: format!("residual_w must be finite, got {residual_w}"),
                        },
                        false,
                    );
                }
                // Feedback is validated and consumed *before* the arbiter
                // mutates: a rejected measurement must leave the session's
                // budget exactly as it was. Brownout level 1 drops feedback
                // processing entirely — adaptation is the first optional work
                // to go, the budget report itself still lands.
                if brownout_level < 1 {
                    if let Some(feedback) = feedback {
                        if let Err(response) = self.observe_feedback(&feedback) {
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
                self.apply_budget(budget.unwrap_or_else(|| self.rt.cap_w()));
                (Response::Budget { budget_w: self.rt.cap_w() }, false)
            }
            Request::Stats => {
                let mut snapshot = stats_snapshot(shared);
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

    /// Count and build the typed refusal of a request that asks for more
    /// than its hard bound.
    fn overloaded(&self, load: u64, limit: u64) -> Response {
        self.seat.shared.metrics.record_overloaded();
        Response::Overloaded { load, limit }
    }

    /// Select for one kernel through the session's adaptive predictor. With
    /// no confirmed drift correction this is exactly [`Engine::select`] —
    /// the bit-identical static path. With one, the frontier is re-walked
    /// under the drift-deflated cap and the advertised predictions carry
    /// the estimated correction.
    fn select(&self, kernel_id: &str) -> Result<Selection, EngineError> {
        let shared = self.seat.shared;
        let cap_w = self.rt.cap_w();
        let Some(correction) = self.adapt.correction(kernel_id) else {
            return shared.engine.select(kernel_id, cap_w);
        };
        let profile = shared.engine.profile(kernel_id)?;
        let selection = self.adapt.selection(kernel_id, &profile, cap_w);
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
    /// cluster-mismatch reclassification), count the drift events and
    /// publish the predictor's new digest. On error the predictor is
    /// untouched and the caller returns the typed response without touching
    /// the arbiter.
    fn observe_feedback(&mut self, feedback: &ReportFeedback) -> Result<(), Box<Response>> {
        let Seat { shared, node_id } = self.seat;
        // A hostile config (out-of-range threads or P-states) would index
        // outside the profile's point table; reject it before the lookup.
        let index = feedback.config.index();
        if Configuration::all().get(index) != Some(&feedback.config) {
            return Err(Box::new(Response::Error {
                code: "bad-feedback".into(),
                detail: format!(
                    "configuration {:?} is not in the machine's space",
                    feedback.config
                ),
            }));
        }
        let profile = match shared.engine.profile(&feedback.kernel_id) {
            Ok(profile) => profile,
            Err(e) => return Err(Box::new(engine_error(e))),
        };
        let point = profile.point_for(&feedback.config);
        let outcome = self
            .adapt
            .observe(
                &feedback.kernel_id,
                feedback.measured_power_w,
                feedback.measured_perf,
                point.power_w,
                point.perf,
            )
            .map_err(|e| {
                Box::new(Response::Error { code: "bad-feedback".into(), detail: e.to_string() })
            })?;
        shared.adapt_digests.lock().insert(node_id, self.adapt.state_digest());
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
}

/// The `Stats` snapshot: what the wire request and
/// [`ServerHandle::stats`] both report.
fn stats_snapshot(shared: &Shared) -> StatsSnapshot {
    let (lease_state, lease_budget_w, degraded_entries, evicted_shards) = match &shared.lease {
        Some(lease) => {
            let lease = lease.lock();
            let state = lease.state().name().to_string();
            (state, lease.cap_w(), lease.degraded_entries(), lease.evictions())
        }
        None => ("standalone".to_string(), shared.config.global_cap_w, 0, 0),
    };
    let lease = LeaseReport {
        lease_state,
        lease_budget_w,
        degraded_entries,
        journal_appends: shared.journal.as_ref().map(|j| j.appended_entries()).unwrap_or(0),
        journal_replayed: shared.recovery.as_ref().map(|r| r.replayed).unwrap_or(0),
        brownout_level: shared.brownout_level.load(Ordering::SeqCst),
        evicted_shards,
    };
    shared.metrics.snapshot(
        shared.engine.cache_counts(),
        shared.active.load(Ordering::SeqCst) as u64,
        shared.arbiter.lock().rebalances(),
        &lease,
    )
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scripted::{Event, Scripted, Step};
    use std::sync::OnceLock;

    fn model() -> TrainedModel {
        static MODEL: OnceLock<TrainedModel> = OnceLock::new();
        MODEL
            .get_or_init(|| {
                acs_core::train_on_suite(&Machine::new(2014), 12).expect("training succeeds")
            })
            .clone()
    }

    fn hello(client: &mut Client) -> (u64, f64) {
        match client.call(&Request::Hello).expect("the session answers") {
            Response::Welcome { node_id, budget_w } => (node_id, budget_w),
            other => panic!("expected Welcome, got {other:?}"),
        }
    }

    fn bye(mut client: Client) {
        assert!(matches!(client.call(&Request::Bye).expect("the session answers"), Response::Bye));
    }

    /// Poll `done` every millisecond; fail with `stuck` after ten seconds.
    fn wait_until(stuck: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "{stuck}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A server on a background thread, and a view of its connection
    /// threads.
    fn spawn_probed(config: ServeConfig) -> (Running<ServerHandle>, crate::net::ThreadsProbe) {
        let server = Server::bind(config, model()).unwrap();
        let threads = server.listener.threads();
        let (addr, handle) = (server.local_addr(), server.handle());
        (Running::start(addr, handle, ServerHandle::shutdown, move || server.run()), threads)
    }

    #[test]
    fn parked_threads_are_not_sessions() {
        const MAX: usize = 3;
        let (running, threads) =
            spawn_probed(ServeConfig { max_sessions: MAX, ..ServeConfig::default() });
        let connect = || Client::connect(&running.addr).unwrap();

        // A full house says Bye: every seat comes back and every thread parks.
        let mut first: Vec<Client> = (0..MAX).map(|_| connect()).collect();
        let node_ids: Vec<u64> = first.iter_mut().map(|c| hello(c).0).collect();
        assert_eq!(node_ids, [1, 2, 3]);
        first.into_iter().for_each(bye);
        wait_until("a finished session kept its seat or its thread never parked", || {
            running.handle.active_sessions() == 0 && threads.parked() == MAX
        });

        // The parked threads take a second full house, which is still the
        // admission bound, and node ids keep counting.
        let mut second: Vec<Client> = (0..MAX).map(|_| connect()).collect();
        let node_ids: Vec<u64> = second.iter_mut().map(|c| hello(c).0).collect();
        assert_eq!(node_ids, [4, 5, 6]);
        assert_eq!(threads.live(), MAX, "a session found no parked thread");
        let mut refused = connect();
        refused.stream_mut().set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        match crate::protocol::read_frame_blocking(refused.stream_mut()).unwrap() {
            Some(Response::Overloaded { load, limit }) => assert_eq!((load, limit), (4, 3)),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        second.into_iter().for_each(bye);

        // A thousand sessions one at a time: the threads stay bounded by
        // the seats.
        for node_id in 7..1_007 {
            let mut client = connect();
            assert_eq!(hello(&mut client).0, node_id);
            bye(client);
        }
        wait_until("a session never left", || running.handle.active_sessions() == 0);
        let live = threads.live();
        assert!(live <= MAX + 1, "{live} connection threads after 1000 sequential sessions");
        running.stop();
        assert_eq!(threads.live(), 0, "drain left a connection thread behind");
    }

    #[test]
    fn a_reused_thread_answers_like_a_fresh_one() {
        let kernel_ids: Vec<String> =
            acs_kernels::all_kernel_instances().iter().take(4).map(|k| k.id()).collect();
        let select =
            |id: &String| Request::Select { kernel_id: id.clone(), deadline_ms: None, priority: 0 };
        let batch =
            Request::Batch { kernel_ids: kernel_ids.clone(), deadline_ms: None, priority: 0 };
        let report = Request::Report { residual_w: 0.0, feedback: None };
        let mut wire = Vec::new();
        for request in kernel_ids.iter().map(select).chain([batch, report, Request::Bye]) {
            write_frame(&mut wire, &request).unwrap();
        }
        // Every byte a server writes back to `wire`, up to its close.
        let replies = |addr: &str| {
            use std::io::{Read, Write};
            let mut client = Client::connect(addr).unwrap();
            let stream = client.stream_mut();
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            stream.write_all(&wire).unwrap();
            let mut replies = Vec::new();
            stream.read_to_end(&mut replies).unwrap();
            replies
        };
        let fresh = {
            let running = Server::spawn(ServeConfig::default(), model()).unwrap();
            let fresh = replies(&running.addr);
            running.stop();
            fresh
        };

        // One whole frame and half the next; the peer takes the first reply
        // and is gone: the session ends mid-frame and its thread parks.
        let (running, threads) = spawn_probed(ServeConfig::default());
        let frame_len =
            |at: usize| 4 + u32::from_be_bytes(wire[at..at + 4].try_into().unwrap()) as usize;
        let torn = frame_len(0) + frame_len(frame_len(0)) / 2;
        let mut client = Client::connect(&running.addr).unwrap();
        let stream = client.stream_mut();
        std::io::Write::write_all(stream, &wire[..torn]).unwrap();
        let first = crate::protocol::read_frame_blocking::<_, Response>(stream).unwrap();
        assert!(matches!(first, Some(Response::Selected(_))), "{first:?}");
        drop(client);
        wait_until("the torn session's thread never parked", || threads.parked() == 1);

        assert_eq!(replies(&running.addr), fresh, "the reused thread answered differently");
        assert_eq!(threads.live(), 1, "the second session got a thread of its own");
        assert_eq!(running.handle.stats().protocol_errors, 1, "the torn frame was not seen");
        running.stop();
    }

    /// A transport whose first `read` takes long enough for another node
    /// to join: the frame it returns was in flight while the arbiter
    /// reshuffled.
    struct JoinDuringRead<'a> {
        wire: Scripted,
        shared: &'a Shared,
        joiner: Option<Seat<'a>>,
    }

    impl std::io::Read for JoinDuringRead<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.joiner.is_none() {
                self.shared.active.fetch_add(1, Ordering::SeqCst);
                self.joiner = Some(Seat::join(self.shared, 2).0);
            }
            self.wire.read(buf)
        }
    }

    impl std::io::Write for JoinDuringRead<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.wire.write(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_in_flight_during_a_join_is_answered_at_the_new_budget() {
        let config = ServeConfig { global_cap_w: 90.0, ..ServeConfig::default() };
        let server = Server::bind(config, model()).unwrap();
        let shared: &Shared = &server.shared;
        let kernel_id = acs_kernels::all_kernel_instances()[0].id();
        let select = Request::Select { kernel_id, deadline_ms: None, priority: 0 };
        let mut request = Vec::new();
        for frame in [&Request::Hello, &select] {
            crate::protocol::write_frame(&mut request, frame).unwrap();
        }

        shared.active.fetch_add(1, Ordering::SeqCst);
        let mut session = Session::join(shared, 1);
        assert_eq!(session.rt.cap_w(), 90.0, "alone, the session owns the whole cap");
        let mut stream =
            JoinDuringRead { wire: Scripted::new([Step::Data(request)]), shared, joiner: None };
        crate::net::serve_frames(&mut stream, &shared.shutdown, &mut session);

        // One read brought both frames, node 2 joined inside it, and both
        // replies are served under the halved budget: what the sessions
        // enforce sums to the cap at every reply, not one request later.
        let Event::Write(replies) = &stream.wire.events[1] else {
            panic!("expected the replies after the first read: {:?}", stream.wire.events);
        };
        let mut replies = replies.as_slice();
        let mut next = || crate::protocol::read_frame_blocking::<_, Response>(&mut replies);
        match next().unwrap() {
            Some(Response::Welcome { node_id: 1, budget_w }) => assert_eq!(budget_w, 45.0),
            other => panic!("expected Welcome, got {other:?}"),
        }
        match next().unwrap() {
            Some(Response::Selected(selection)) => {
                assert!(selection.predicted_power_w <= 45.0, "{selection:?}");
            }
            other => panic!("expected Selected, got {other:?}"),
        }
        assert_eq!(shared.arbiter.lock().budget_of(1), Some(45.0));
        drop((session, stream));
        assert_eq!(shared.active.load(Ordering::SeqCst), 0);
        assert_eq!(server.handle().budget_conservation_error_w(), 0.0);
    }

    #[test]
    fn a_session_keeps_no_timeline_and_answers_as_if_it_did() {
        let server = Server::bind(ServeConfig::default(), model()).unwrap();
        let shared: &Shared = &server.shared;
        // One frame's worth, under `MAX_RUN_ITERATIONS`.
        let run = Request::Run {
            kernel_id: acs_kernels::all_kernel_instances()[0].id(),
            iterations: 5_000,
            idem: None,
            deadline_ms: None,
            priority: 0,
        };

        // The same Run on two lone sessions, the second with an unbounded
        // timeline: keeping nothing changes no reply byte, and the clock
        // and the event count advance alike.
        let mut replies = Vec::new();
        let mut clocks = Vec::new();
        for (node_id, kept) in [(1, false), (2, true)] {
            shared.active.fetch_add(1, Ordering::SeqCst);
            let mut session = Session::join(shared, node_id);
            let timeline = Arc::clone(session.rt.timeline());
            if kept {
                timeline.set_capacity(None);
            }
            let (reply, done) = session.handle_request(run.clone());
            assert!(!done);
            assert!(matches!(reply, Response::Ran { iterations: 5_000, .. }), "{reply:?}");
            assert_eq!(timeline.is_empty(), !kept, "{} entries kept", timeline.len());
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &reply).unwrap();
            replies.push(bytes);
            clocks.push((timeline.now_s().to_bits(), timeline.len() as u64 + timeline.dropped()));
        }
        assert_eq!(replies[0], replies[1]);
        assert_eq!(clocks[0], clocks[1]);
        assert!(clocks[0].1 > 5_000, "every run is one event");
    }

    #[test]
    fn a_session_whose_handler_panics_still_leaves() {
        let journal_path =
            std::env::temp_dir().join(format!("acs-serve-panic-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&journal_path);
        let config = ServeConfig {
            global_cap_w: 90.0,
            journal: Some(journal_path.clone()),
            ..ServeConfig::default()
        };
        let server = Server::bind(config, model()).unwrap();
        let kernels: Vec<String> =
            acs_kernels::all_kernel_instances().iter().take(2).map(|k| k.id()).collect();
        // The victim's handler dies inside its second cache miss, past the
        // decode-error path, with its seat taken and a digest published.
        let fatal = kernels[1].clone();
        server.shared.engine.set_miss_hook(Box::new(move |kernel_id| {
            assert_ne!(kernel_id, fatal, "injected handler panic");
        }));
        let (addr, handle) = (server.local_addr(), server.handle());
        let running = Running::start(addr, handle, ServerHandle::shutdown, move || server.run());

        let mut survivor = Client::connect(&running.addr).unwrap();
        assert_eq!(hello(&mut survivor), (1, 90.0));
        let mut victim = Client::connect(&running.addr).unwrap();
        assert_eq!(hello(&mut victim), (2, 45.0));
        let select =
            |id: &str| Request::Select { kernel_id: id.into(), deadline_ms: None, priority: 0 };
        let picked = match victim.call(&select(&kernels[0])).unwrap() {
            Response::Selected(selection) => selection,
            other => panic!("expected Selected, got {other:?}"),
        };
        let feedback = ReportFeedback {
            kernel_id: picked.kernel_id,
            config: picked.config,
            measured_power_w: picked.predicted_power_w,
            measured_perf: picked.predicted_perf,
        };
        let report = Request::Report { residual_w: 0.0, feedback: Some(feedback) };
        assert!(matches!(victim.call(&report).unwrap(), Response::Budget { .. }));
        assert_eq!(running.handle.adapt_digests().len(), 1);
        assert!(victim.call(&select(&kernels[1])).is_err(), "the panicking session hangs up");

        wait_until("the dead session never gave its seat back", || {
            running.handle.active_sessions() == 1
        });
        // Whether or not an idle poll showed the survivor 45 W in between,
        // its Hello is answered at the epoch it arrives in.
        assert_eq!(hello(&mut survivor), (1, 90.0), "the survivor owns the whole cap again");
        assert_eq!(running.handle.budget_conservation_error_w(), 0.0);
        assert_eq!(running.handle.adapt_digests(), [], "the dead session's digest is gone");
        drop(survivor);
        running.stop();
        let (_, entries) = Journal::<JournalEntry>::open(&journal_path).unwrap();
        assert!(
            entries.iter().any(|e| matches!(e, JournalEntry::Leave { node_id: 2, .. })),
            "the dead session's Leave is journaled: {entries:?}"
        );
        let _ = std::fs::remove_file(&journal_path);
    }

    #[test]
    fn brownout_follows_the_last_poll_window() {
        let config = ServeConfig { brownout_us: 100, ..ServeConfig::default() };
        let server = Server::bind(config, model()).unwrap();
        let shared = &server.shared;
        let state = || {
            (shared.brownout_level.load(Ordering::SeqCst), shared.est_p99_us.load(Ordering::SeqCst))
        };
        let mut seen = LatencyCounts::default();
        brownout_poll(shared, &mut seen);
        assert_eq!(state(), (0, 0), "nothing served yet");

        for _ in 0..1_000 {
            shared.metrics.record_request("select", 1_000_000);
        }
        brownout_poll(shared, &mut seen);
        let (level, slow_p99_us) = state();
        assert_eq!(level, 3, "1 ms against a 100 µs target");
        assert!(slow_p99_us >= 1_000);

        brownout_poll(shared, &mut seen);
        assert_eq!(state(), (3, slow_p99_us), "an empty interval changes nothing");

        // Fewer fast requests than the burst had slow ones: over all of
        // history p99 is still 1 ms, over this interval it is 10 µs.
        for _ in 0..100 {
            shared.metrics.record_request("select", 10_000);
        }
        brownout_poll(shared, &mut seen);
        let (level, fast_p99_us) = state();
        assert_eq!(level, 0);
        assert!((10..=11).contains(&fast_p99_us), "{fast_p99_us} µs");
        assert!(stats_snapshot(shared).p99_latency_us >= 1_000, "STATS is since start");
    }

    /// What each brownout level takes off the wire, with the level and the
    /// latency estimate set by hand instead of by the controller thread.
    #[test]
    fn each_brownout_level_drops_its_own_work_on_the_wire() {
        let config = ServeConfig {
            global_cap_w: 90.0,
            policy: ArbiterPolicy::DemandProportional,
            brownout_us: 100,
            ..ServeConfig::default()
        };
        let server = Server::bind(config, model()).unwrap();
        let shared: &Shared = &server.shared;
        let set = |level: u8, est_p99_us: u64| {
            shared.brownout_level.store(level, Ordering::SeqCst);
            shared.est_p99_us.store(est_p99_us, Ordering::SeqCst);
        };
        // Two nodes, so a Report moves watts between them.
        let join = |node_id| {
            shared.active.fetch_add(1, Ordering::SeqCst);
            Session::join(shared, node_id)
        };
        let (mut session, _neighbour) = (join(1), join(2));
        let kernel_id = acs_kernels::all_kernel_instances()[0].id();
        let select = |deadline_ms, priority| Request::Select {
            kernel_id: kernel_id.clone(),
            deadline_ms,
            priority,
        };
        let picked = match session.handle_request(select(None, 0)).0 {
            Response::Selected(selection) => selection,
            other => panic!("expected Selected, got {other:?}"),
        };
        let report = Request::Report {
            residual_w: 30.0,
            feedback: Some(ReportFeedback {
                kernel_id: kernel_id.clone(),
                config: picked.config,
                measured_power_w: picked.predicted_power_w * 1.2,
                measured_perf: picked.predicted_perf,
            }),
        };

        // Level 1: the budget report lands, the feedback is not observed.
        set(1, 0);
        let digest = session.adapt.state_digest();
        let reply = session.handle_request(report.clone()).0;
        assert_eq!(reply, Response::Budget { budget_w: 22.5 }, "30 W of headroom donates");
        assert_eq!(session.adapt.state_digest(), digest, "level 1 observed the feedback");
        assert!(shared.adapt_digests.lock().is_empty());
        set(0, 0);
        session.handle_request(report);
        assert_ne!(session.adapt.state_digest(), digest, "level 0 ignored the feedback");

        // Level 2: STATS keeps its headline counters and loses its maps.
        let run = Request::Run {
            kernel_id: kernel_id.clone(),
            iterations: 1,
            idem: None,
            deadline_ms: None,
            priority: 0,
        };
        assert!(matches!(session.handle(Ok(run)).0, Response::Ran { .. }));
        let stats = |session: &mut Session| match session.handle_request(Request::Stats).0 {
            Response::Stats(snapshot) => *snapshot,
            other => panic!("expected Stats, got {other:?}"),
        };
        let full = stats(&mut session);
        assert!(!full.requests_by_kind.is_empty() && !full.degradation_tallies.is_empty());
        set(2, 0);
        let dimmed = stats(&mut session);
        assert!(dimmed.requests_by_kind.is_empty(), "{:?}", dimmed.requests_by_kind);
        assert!(dimmed.degradation_tallies.is_empty(), "{:?}", dimmed.degradation_tallies);
        assert_eq!((dimmed.requests_total, dimmed.brownout_level), (full.requests_total, 2));

        // Level 3: a deadline the estimate says is lost is shed below
        // priority 128. Level 2 serves the same request.
        set(2, 5_000);
        let late = select(Some(1), 0);
        assert!(matches!(session.handle_request(late.clone()).0, Response::Selected(_)));
        set(3, 5_000);
        assert_eq!(
            session.handle_request(late).0,
            Response::ShedDeadline { deadline_ms: 1, priority: 0, brownout_level: 3 }
        );
        let urgent = select(Some(1), 128);
        assert!(matches!(session.handle_request(urgent).0, Response::Selected(_)));
        assert_eq!(stats(&mut session).sheds, 1);
    }
}
