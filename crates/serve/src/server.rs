//! The selection server: shared state, admission control, the session
//! (one request path, `Session::step`, in a clock shell), the lease client
//! and the brownout controller. Listening, accepting, draining and the
//! per-connection frame loop are the shared connection layer in
//! [`crate::net`].
//!
//! Admission control is a hard bound, not a queue: when `max_sessions`
//! sessions are live, a new connection is answered with one typed
//! [`Response::Overloaded`] frame and closed. Nothing in the server
//! buffers unboundedly — see DESIGN.md §11.

use crate::arbiter::{Arbiter, ArbiterOp, ArbiterPolicy, BUDGET_EPS_W};
use crate::coordinator::CoordClient;
use crate::engine::{Engine, EngineError};
use crate::journal::{replay, Journal, JournalEntry, Recovery};
use crate::lease::{CoordRequest, CoordResponse, ShardLease};
use crate::metrics::{LatencyCounts, LeaseReport, Metrics, StatsSnapshot};
use crate::net::{serve_tcp, FrameClient, FrameHandler, Listener, Running};
use crate::protocol::{write_frame, ProtocolError, ReportFeedback, Request, Response, Selection};
use acs_core::{AdaptivePredictor, CappedRuntime, DriftEvent, GuardPolicy, TrainedModel};
use acs_sim::{Cap, Configuration, FamilyId, Machine};
use parking_lot::Mutex;
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
    /// Recovery-journal path. `Some` makes admissions, arbiter reshuffles,
    /// and first-time cache misses durable: a restarted server replays the
    /// journal and resumes with identical budgets and a warm cache.
    pub journal: Option<std::path::PathBuf>,
    /// `true` upgrades journal durability from flush-per-append to
    /// `sync_data()`-per-append (the `--journal-sync` flag).
    pub journal_sync: bool,
    /// `Some` turns this server into a fleet shard: `global_cap_w` becomes
    /// its *demand*, and the cap it actually enforces is whatever its lease
    /// grants.
    pub fleet: Option<FleetConfig>,
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
            journal: None,
            journal_sync: false,
            fleet: None,
            brownout_us: 0,
        }
    }
}

/// How a fleet shard leases its cap from the coordinator.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Coordinator address (`host:port`).
    pub coordinator: String,
    /// The id the shard presents on every lease, so a restarted shard
    /// re-adopts its own lease instead of being granted a second one.
    pub shard_id: u64,
    /// Pre-lease reserve, W: the cap the shard runs at until its first
    /// grant lands. From then on it clamps to the coordinator's floor.
    pub lease_floor_w: Cap,
    /// Lease renewal interval, ms.
    pub renew_ms: u64,
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
pub(crate) struct Shared {
    config: ServeConfig,
    model: Arc<TrainedModel>,
    engine: Engine,
    pub(crate) arbiter: Mutex<Arbiter>,
    /// The arbiter's epoch, stored (`Release`) under its lock after every
    /// step and loaded (`Acquire`) by a session's budget pickup, which so
    /// sees that no budget moved without taking the lock.
    epoch: AtomicU64,
    metrics: Metrics,
    shutdown: AtomicBool,
    /// Set by `simulate_crash` (tests only): sessions stop without
    /// journaling `Leave`, exactly like a SIGKILL mid-conversation.
    crashed: AtomicBool,
    active: AtomicUsize,
    next_node: AtomicU64,
    journal: Option<Arc<Journal>>,
    recovery: Option<Recovery>,
    /// The shard-side lease state machine, `Some` iff the shard is in a
    /// fleet: the lease client thread runs exactly when this is set and
    /// mutates the state; `Stats` reads it.
    pub(crate) lease: Option<Mutex<ShardLease>>,
    /// Current brownout level (0 = everything enabled). Written by the
    /// brownout thread, read on every request; stays 0 forever when the
    /// controller is disabled.
    brownout_level: AtomicU8,
    /// The brownout thread's p99 service-latency estimate over its last
    /// non-empty poll interval, µs — what the shed decision compares
    /// deadlines against.
    est_p99_us: AtomicU64,
}

/// Best-effort journal append. Append failures (disk full, journal file
/// deleted under us) degrade durability, not availability: the server
/// keeps serving, and the next restart simply recovers less.
fn journal_append(shared: &Shared, entry: &JournalEntry) {
    if let Some(journal) = &shared.journal {
        let _ = journal.append(entry);
    }
}

impl Shared {
    /// Everything a shard is but its listener, from a configuration it
    /// checks before it opens a file: the journal replayed, the cache
    /// re-warmed, and a fleet shard clamped to its pre-lease reserve.
    pub(crate) fn new(config: ServeConfig, model: Arc<TrainedModel>) -> Result<Self, ServeError> {
        // The wattage `ServeConfig` keeps an `f64`; a fleet shard demands it.
        let global_cap_w = Cap::new(config.global_cap_w)
            .map_err(|e| ServeError::Config(format!("--global-cap: {e}")))?;
        let fleet = config.fleet.as_ref();
        if let Some(renew_ms) = fleet.map(|fleet| fleet.renew_ms).filter(|&ms| ms < 10) {
            return Err(ServeError::Config(format!(
                "--renew-ms must be at least 10, got {renew_ms}"
            )));
        }
        // Crash recovery: open the journal, replay its valid prefix into a
        // fresh arbiter (next node id resumed, orphans still seated until
        // their leaves are journaled below), and re-warm the profile cache with the journaled miss keys. The
        // miss hook is installed only *after* warm-up, so replayed keys are
        // not journaled a second time.
        let (journal, recovery, arbiter, next_node) = match &config.journal {
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
        let lease = fleet.map(|fleet| {
            let (id, reserve_w) = (fleet.shard_id, fleet.lease_floor_w);
            Mutex::new(ShardLease::new(id, global_cap_w.into(), reserve_w, fleet.renew_ms))
        });
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
        let shared = Self {
            engine,
            epoch: AtomicU64::new(arbiter.epoch()),
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
            model,
            config,
        };
        // The orphans' connections died with the old process: their leaves
        // go through the journal, so the next replay removes them too.
        if let Some(recovery) = &shared.recovery {
            for &node_id in &recovery.orphaned_sessions {
                shared.arbitrate(ArbiterOp::Leave { node_id });
            }
        }
        // A fleet shard must not exceed its pre-lease reserve until its
        // first grant lands, whatever cap the journal replayed: the
        // deployment covers that reserve, and nothing above it.
        if let Some(lease) = &shared.lease {
            let cap_w = lease.lock().cap_w();
            shared.arbitrate(ArbiterOp::Cap { cap_w });
        }
        Ok(shared)
    }

    /// Take one arbiter step and journal the entry it returns, under the
    /// arbiter lock so the recorded epoch is exactly the one the step
    /// produced. Returns the budget the op's node holds afterwards (`None`
    /// after a leave or a cap move) and the epoch it belongs to.
    fn arbitrate(&self, op: ArbiterOp) -> (Option<f64>, u64) {
        let mut arbiter = self.arbiter.lock();
        if let Some(entry) = arbiter.apply(op) {
            journal_append(self, &entry);
        }
        self.epoch.store(arbiter.epoch(), Ordering::Release);
        (op.node_id().and_then(|id| arbiter.budget_of(id)), arbiter.epoch())
    }

    /// [`Self::arbitrate`] for an admission, which always seats its node:
    /// the budget the node joined with and the epoch it belongs to.
    fn admit(&self, node_id: u64) -> (f64, u64) {
        let mut arbiter = self.arbiter.lock();
        let (budget_w, entry) = arbiter.admit(node_id);
        journal_append(self, &entry);
        self.epoch.store(arbiter.epoch(), Ordering::Release);
        (budget_w, arbiter.epoch())
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
    /// (the wire-fault tests assert this after every torn or dropped
    /// connection).
    pub fn budget_conservation_error_w(&self) -> f64 {
        self.shared.arbiter.lock().conservation_error_w()
    }

    /// What journal replay reconstructed at bind time, if a journal was
    /// configured.
    pub fn recovery(&self) -> Option<Recovery> {
        self.shared.recovery.clone()
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
        let listener = Listener::bind(&format!("{}:{}", config.host, config.port))?;
        Ok(Self { listener, shared: Arc::new(Shared::new(config, Arc::new(model))?) })
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
        let lease_thread = shared.lease.is_some().then(|| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_lease_client(shared))
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

/// The shard's lease client: one thread, one [`lease_round`] per
/// `renew_ms`. The thread owns what the round leaves out: the socket call,
/// the renew-latency timer and the sleep. The round's time is the
/// thread's own millisecond clock, read as the request goes out.
fn run_lease_client(shared: Arc<Shared>) {
    let (Some(lease_mutex), Some(fleet)) = (&shared.lease, &shared.config.fleet) else {
        return;
    };
    let (target, renew_every) = (&fleet.coordinator, Duration::from_millis(fleet.renew_ms));
    let origin = Instant::now();
    let mut client: Option<CoordClient> = None;
    'rounds: while !shared.shutdown.load(Ordering::SeqCst) {
        let started = origin.elapsed();
        let now_ms = started.as_millis().min(u128::from(u64::MAX)) as u64;
        lease_round(&shared, now_ms, |request| {
            let reply = lease_call(&mut client, target, renew_every, request).ok();
            if let Some(CoordResponse::Granted { .. } | CoordResponse::Renewed { .. }) = reply {
                let latency = origin.elapsed() - started;
                shared.metrics.record_renew(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
            }
            reply
        });
        while let Some(left) = (started + renew_every).checked_sub(origin.elapsed()) {
            if shared.shutdown.load(Ordering::SeqCst) {
                break 'rounds;
            }
            std::thread::sleep(LEASE_SLEEP_SLICE.min(left));
        }
    }
    // Clean shutdown releases the lease so the coordinator frees the full
    // encumbrance immediately; a simulated crash must not (the journal and
    // the coordinator should both see a SIGKILL-shaped ending).
    if !shared.crashed.load(Ordering::SeqCst) {
        let lease_id = lease_mutex.lock().lease_id();
        if let Some(lease_id) = lease_id {
            let _ =
                lease_call(&mut client, target, renew_every, &CoordRequest::Release { lease_id });
        }
    }
}

/// One lease round at `now_ms` on the shard's clock: send the request
/// [`ShardLease::request`] builds through `call`, hand the reply — `None`,
/// a *miss*, when the call failed — to [`ShardLease::on_reply`], and step a
/// resulting cap the arbiter does not hold yet through it as an
/// [`ArbiterOp::Cap`], which journals it so a restarted shard replays to
/// the same budgets. A no-op on a shard with no coordinator.
pub(crate) fn lease_round(
    shared: &Shared,
    now_ms: u64,
    call: impl FnOnce(&CoordRequest) -> Option<CoordResponse>,
) {
    let Some(lease_mutex) = &shared.lease else {
        return;
    };
    let request = lease_mutex.lock().request();
    let reply = call(&request);
    let cap_w = lease_mutex.lock().on_reply(&request, reply.as_ref(), now_ms);
    // Only the lease round moves the cap after `Shared::new`, so the check
    // cannot go stale before the step.
    if (shared.arbiter.lock().global_cap_w() - cap_w.get()).abs() > BUDGET_EPS_W {
        shared.arbitrate(ArbiterOp::Cap { cap_w });
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

/// A session's seat in the cluster: [`Session::join`] takes it as it admits
/// the node, and dropping it is the only way a session leaves — whether
/// its conversation ended with `Bye`, EOF, a protocol error or a panic.
struct Seat<'a> {
    shared: &'a Shared,
    node_id: u64,
}

impl Drop for Seat<'_> {
    fn drop(&mut self) {
        let Self { shared, node_id } = *self;
        // A simulated crash skips the clean leave: the journal must end the
        // way a SIGKILLed process leaves it, with this session still
        // admitted (the restarted server's replay then removes it as an
        // orphan).
        if !shared.crashed.load(Ordering::SeqCst) {
            shared.arbitrate(ArbiterOp::Leave { node_id });
        }
        shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One connection: a node in the arbiter's cluster with its own capped,
/// guarded runtime over its own (seed-identical) simulated machine and
/// its own online adaptation state.
pub(crate) struct Session<'a> {
    seat: Seat<'a>,
    rt: CappedRuntime<Machine>,
    adapt: AdaptivePredictor,
    seen_epoch: u64,
    memo: ReplyMemo,
}

impl<'a> Session<'a> {
    /// Admit the node as `node_id`, take its seat, and build its runtime
    /// at the budget it was admitted with. The caller (the accept loop)
    /// has already counted the session in `active`.
    fn join(shared: &'a Shared, node_id: u64) -> Self {
        let (budget_w, seen_epoch) = shared.admit(node_id);
        let seat = Seat { shared, node_id };
        let rt = CappedRuntime::guarded(
            Machine::from_family(shared.config.family, shared.config.seed),
            Arc::clone(&shared.model),
            budget_w,
            GuardPolicy::default(),
        );
        // Nothing on the wire reads a session's timeline: one that is not
        // keeping advances the virtual clock and builds no event, so a
        // session's memory stays flat however many `Run`s and reselections
        // it serves.
        rt.timeline().set_keeping(false);
        let memo = ReplyMemo::default();
        Self { seat, rt, adapt: AdaptivePredictor::default(), seen_epoch, memo }
    }
}

fn run_session(shared: Arc<Shared>, stream: TcpStream, node_id: u64) {
    let mut session = Session::join(&shared, node_id);
    serve_tcp(stream, SESSION_READ_TIMEOUT, &shared.shutdown, &mut session);
}

impl FrameHandler for Session<'_> {
    type Req = Request;
    type Resp = Response;

    /// An idle connection picks up a reshuffle between frames, so a
    /// session re-selects within one read timeout of it.
    fn turn(&mut self) {
        self.pick_up_budget();
    }

    /// A repeated plain `Select`, answered from the reply memo at the
    /// budget the arbiter holds now, and recorded as [`handle`](Self::handle)
    /// records the `Select` it stands for: its kind and latency, and the
    /// profile-cache hit its selection would have been.
    fn answer_raw(&mut self, body: &[u8], out: &mut Vec<u8>) -> bool {
        let (hit, latency_ns) = timed(|| {
            self.pick_up_budget();
            self.memo.reply(body).map(|reply| out.extend_from_slice(reply)).is_some()
        });
        if hit {
            let shared = self.seat.shared;
            shared.engine.record_hit();
            shared.metrics.record_request("select", latency_ns);
        }
        hit
    }

    /// Keep the reply of a `Select` that [`Session::step`] found storable.
    fn answered(&mut self, body: &[u8], reply: &[u8]) {
        if let Some(kernel_id) = self.memo.storable.take() {
            self.memo.store(kernel_id, body, reply);
        }
    }

    /// The clock shell around [`Session::step`]: times it, and records a
    /// decoded request's kind, latency and deadline miss.
    fn handle(&mut self, request: Result<Request, ProtocolError>) -> (Response, bool) {
        let decoded = request.as_ref().ok().map(|request| (request.kind(), request.deadline()));
        let ((response, done), latency_ns) = timed(|| self.step(request));
        if let Some((kind, deadline)) = decoded {
            let metrics = &self.seat.shared.metrics;
            metrics.record_request(kind, latency_ns);
            // A served (not shed) request that blew through its own deadline
            // is a miss, counted in STATS `deadline_misses`.
            let shed = matches!(response, Response::ShedDeadline { .. });
            if deadline.is_some_and(|(ms, _)| !shed && latency_ns > ms.saturating_mul(1_000_000)) {
                metrics.record_deadline_miss();
            }
        }
        (response, done)
    }
}

/// What `serve` returns, and how long it took in nanoseconds (saturating).
fn timed<T>(serve: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let served = serve();
    (served, started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64)
}

/// The largest request body the reply memo keeps: a plain `Select` for
/// any suite kernel is a fraction of it, and a longer one (padded, say)
/// is answered without being kept.
const MEMO_MAX_BODY: usize = 512;

/// A session's replies to plain `Select`s (no deadline, no adaptive
/// correction), keyed by the request's exact bytes, so that a repeated
/// one is answered without a decode, a selection or an encode
/// (DESIGN.md §11). Such a reply is a function of the kernel's profile,
/// which is pure, and of the session's cap: an entry answers only while
/// `generation`, bumped whenever the cap or the adaptive predictor
/// changes, is the one it was stored under.
///
/// There is at most one entry per suite kernel: a new body for a kernel
/// overwrites that kernel's entry, reusing its buffers, so a warm memo
/// allocates nothing.
#[derive(Default)]
struct ReplyMemo {
    /// Each entry's body hash, in entry order: the one place a lookup
    /// searches.
    hashes: Vec<u64>,
    entries: Vec<MemoEntry>,
    generation: u64,
    /// The kernel of the `Select` just answered, when its reply may be
    /// kept; taken by [`FrameHandler::answered`].
    storable: Option<String>,
}

struct MemoEntry {
    kernel_id: String,
    body: Vec<u8>,
    /// The whole reply frame, length prefix included.
    reply: Vec<u8>,
    generation: u64,
}

impl ReplyMemo {
    /// The reply frame kept for exactly these request bytes, if it is
    /// still current.
    fn reply(&self, body: &[u8]) -> Option<&[u8]> {
        if body.len() > MEMO_MAX_BODY {
            return None;
        }
        let hash = body_hash(body);
        let at = self.hashes.iter().position(|&h| h == hash)?;
        let entry = &self.entries[at];
        (entry.generation == self.generation && entry.body == body).then_some(&entry.reply)
    }

    /// Keep `reply` for `body`, a `Select` for `kernel_id`, in that
    /// kernel's entry; a body over [`MEMO_MAX_BODY`] is not kept.
    fn store(&mut self, kernel_id: String, body: &[u8], reply: &[u8]) {
        if body.len() > MEMO_MAX_BODY {
            return;
        }
        let at = match self.entries.iter().position(|entry| entry.kernel_id == kernel_id) {
            Some(at) => at,
            None => {
                let (body, reply) = (Vec::new(), Vec::new());
                self.entries.push(MemoEntry { kernel_id, body, reply, generation: 0 });
                self.hashes.push(0);
                self.entries.len() - 1
            }
        };
        let entry = &mut self.entries[at];
        entry.body.clear();
        entry.body.extend_from_slice(body);
        entry.reply.clear();
        entry.reply.extend_from_slice(reply);
        entry.generation = self.generation;
        self.hashes[at] = body_hash(body);
    }

    /// Retire every entry: what a kept reply was computed from changed.
    fn invalidate(&mut self) {
        self.generation += 1;
    }
}

/// A fast hash of a request body. It only picks the one entry whose bytes
/// are then compared, so it needs spread, not strength.
fn body_hash(body: &[u8]) -> u64 {
    const MIX: u64 = 0x517c_c1b7_2722_0a95;
    let mut hash = body.len() as u64;
    for chunk in body.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        hash = (hash.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(MIX);
    }
    hash
}

/// Hard bound on `iterations` per `Run` request: at ~4 µs an iteration one
/// frame holds its session thread for about as long as one read timeout,
/// which already bounds how long shutdown waits for a session.
const MAX_RUN_ITERATIONS: u64 = 1 << 14;

/// Hard bound on kernels per `Batch` request.
pub const MAX_BATCH: usize = 256;

impl Session<'_> {
    /// Apply an arbiter-assigned budget to the session runtime, re-running
    /// selection for every classified kernel.
    fn apply_budget(&mut self, budget_w: f64) {
        if (self.rt.cap_w() - budget_w).abs() > BUDGET_EPS_W
            && self.rt.try_set_cap(budget_w).is_ok()
        {
            self.memo.invalidate();
            self.seat.shared.metrics.record_reselection();
        }
    }

    /// Pick up budget reshuffles made on behalf of *other* nodes; a
    /// changed budget re-runs selection from the cached frontiers. While
    /// the arbiter's epoch has not moved this takes no lock.
    fn pick_up_budget(&mut self) {
        let Seat { shared, node_id } = self.seat;
        if shared.epoch.load(Ordering::Acquire) == self.seen_epoch {
            return;
        }
        let arbiter = shared.arbiter.lock();
        self.seen_epoch = arbiter.epoch();
        let budget = arbiter.budget_of(node_id);
        drop(arbiter);
        if let Some(budget) = budget {
            self.apply_budget(budget);
        }
    }

    /// Serve one frame at the budget the arbiter holds for this node when
    /// it is answered: pick that budget up, answer an undecodable frame
    /// with its typed error (and close), run the shed gate, then the
    /// request. Returns the response and whether the session ends.
    pub(crate) fn step(&mut self, request: Result<Request, ProtocolError>) -> (Response, bool) {
        self.memo.storable = None;
        self.pick_up_budget();
        let Seat { shared, node_id } = self.seat;
        let request = match request {
            Ok(request) => request,
            Err(err) => {
                shared.metrics.record_protocol_error();
                return (error_response(err.code(), err), true);
            }
        };
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
            Request::Select { kernel_id, deadline_ms, .. } => match self.select(&kernel_id) {
                Ok(selection) => {
                    // Without a deadline and a correction the reply depends
                    // on the kernel and the cap alone: the memo may keep it.
                    if deadline_ms.is_none() && self.adapt.correction(&kernel_id).is_none() {
                        self.memo.storable = Some(kernel_id);
                    }
                    (Response::Selected(selection), false)
                }
                Err(e) => (engine_error(e), false),
            },
            Request::Batch { kernel_ids, .. } => {
                if kernel_ids.len() > MAX_BATCH {
                    return (self.overloaded(kernel_ids.len() as u64, MAX_BATCH as u64), false);
                }
                // In request order; the first unknown id answers the whole
                // batch, and the ids after it are not profiled.
                let mut selections = Vec::with_capacity(kernel_ids.len());
                for kernel_id in &kernel_ids {
                    match self.select(kernel_id) {
                        Ok(s) => selections.push(s),
                        Err(e) => return (engine_error(e), false),
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
                    Err(e) => return (error_response("runtime", e), false),
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
                    let detail = format!("residual_w must be finite, got {residual_w}");
                    return (error_response("bad-report", detail), false);
                }
                // Feedback is validated and consumed *before* the arbiter
                // mutates: a rejected measurement must leave the session's
                // budget exactly as it was. Brownout level 1 drops feedback
                // processing entirely — adaptation is the first optional work
                // to go, the budget report itself still lands.
                if let Some(feedback) = feedback.filter(|_| brownout_level < 1) {
                    if let Err(response) = self.observe_feedback(&feedback) {
                        return (*response, false);
                    }
                }
                let (budget, epoch) = shared.arbitrate(ArbiterOp::Report { node_id, residual_w });
                // Apply our own new budget immediately; other sessions pick
                // the reshuffle up at their next step via the epoch counter.
                self.seen_epoch = epoch;
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
    /// cluster-mismatch reclassification) and count the drift events. On
    /// error the predictor is
    /// untouched and the caller returns the typed response without touching
    /// the arbiter.
    fn observe_feedback(&mut self, feedback: &ReportFeedback) -> Result<(), Box<Response>> {
        let Seat { shared, node_id } = self.seat;
        // A hostile config (out-of-range threads or P-states) would index
        // outside the profile's point table; reject it before the lookup.
        let index = feedback.config.index();
        if Configuration::all().get(index) != Some(&feedback.config) {
            let detail =
                format!("configuration {:?} is not in the machine's space", feedback.config);
            return Err(Box::new(error_response("bad-feedback", detail)));
        }
        let profile =
            shared.engine.profile(&feedback.kernel_id).map_err(|e| Box::new(engine_error(e)))?;
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
            .map_err(|e| Box::new(error_response("bad-feedback", e)))?;
        let mismatches = outcome
            .events
            .iter()
            .filter(|e| matches!(e, DriftEvent::ClusterMismatch { .. }))
            .count() as u64;
        self.memo.invalidate();
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
pub(crate) fn stats_snapshot(shared: &Shared) -> StatsSnapshot {
    let (lease_state, lease_budget_w, degraded_entries, evicted_shards) = match &shared.lease {
        Some(lease) => {
            let lease = lease.lock();
            let state = lease.state().name().to_string();
            (state, lease.cap_w().get(), lease.degraded_entries(), lease.evictions())
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
    error_response(code, e)
}

fn error_response(code: &str, detail: impl std::fmt::Display) -> Response {
    Response::Error { code: code.into(), detail: detail.to_string() }
}

/// A blocking client for the wire protocol (used by `acs_bench`'s served
/// stream behind `acs loadgen`, and by the tests).
pub type Client = FrameClient<Request, Response>;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::scripted::{faulted, Event, Fault, Scripted, Step};
    use std::sync::OnceLock;

    pub(crate) fn model() -> TrainedModel {
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

    /// Seat node `node_id` as the accept loop does: counted in `active`
    /// first, since its seat's drop uncounts it.
    pub(crate) fn join(shared: &Shared, node_id: u64) -> Session<'_> {
        shared.active.fetch_add(1, Ordering::SeqCst);
        Session::join(shared, node_id)
    }

    /// A server on a background thread, and a view of its connection
    /// threads.
    fn spawn_probed(config: ServeConfig) -> (Running<ServerHandle>, crate::net::ThreadsProbe) {
        let server = Server::bind(config, model()).unwrap();
        let threads = server.listener.threads();
        let (addr, handle) = (server.local_addr(), server.handle());
        (Running::start(addr, handle, ServerHandle::shutdown, move || server.run()), threads)
    }

    /// Serve `steps` to `session` through the real frame loop, as its
    /// connection would; returns every byte the session wrote.
    fn converse(session: &mut Session, steps: Vec<Step>) -> Vec<u8> {
        let mut stream = Scripted::new(steps);
        crate::net::serve_frames(&mut stream, &AtomicBool::new(false), session);
        let writes = stream.events.into_iter().filter_map(|event| match event {
            Event::Write(bytes) => Some(bytes),
            Event::Read | Event::ReadReady => None,
        });
        writes.flatten().collect()
    }

    /// Each reply frame in `wire`: its bytes, and what they decode to.
    fn replies(mut wire: &[u8]) -> Vec<(&[u8], Response)> {
        let mut replies = Vec::new();
        while !wire.is_empty() {
            let len = 4 + u32::from_be_bytes(wire[..4].try_into().unwrap()) as usize;
            let (mut frame, rest) = wire.split_at(len);
            let reply = crate::protocol::read_frame_blocking(&mut frame).expect("a reply decodes");
            replies.push((&wire[..len], reply.expect("a whole reply")));
            wire = rest;
        }
        replies
    }

    fn frame(request: &Request) -> Vec<u8> {
        let mut frame = Vec::new();
        write_frame(&mut frame, request).unwrap();
        frame
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
        // the seats. A session leaves only after its Bye is written, so the
        // next one waits for it.
        for node_id in 7..1_007 {
            wait_until("a session never left", || running.handle.active_sessions() == 0);
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

    #[test]
    fn a_frame_in_flight_during_a_join_is_answered_at_the_new_budget() {
        let config = ServeConfig { global_cap_w: 90.0, ..ServeConfig::default() };
        let server = Server::bind(config, model()).unwrap();
        let shared: &Shared = &server.shared;
        let kernel_id = acs_kernels::all_kernel_instances()[0].id();
        let select = Request::Select { kernel_id, deadline_ms: None, priority: 0 };

        let mut session = join(shared, 1);
        let welcome = session.step(Ok(Request::Hello)).0;
        assert_eq!(welcome, Response::Welcome { node_id: 1, budget_w: 90.0 });
        // Node 2 joins between node 1's frames, with no idle turn between
        // them: the next frame is still answered under the halved budget,
        // so what the sessions enforce sums to the cap at every reply.
        let neighbour = join(shared, 2);
        match session.step(Ok(select)).0 {
            Response::Selected(selection) => {
                assert_eq!(selection.budget_w, 45.0);
                assert!(selection.predicted_power_w <= 45.0, "{selection:?}");
            }
            other => panic!("expected Selected, got {other:?}"),
        }
        drop((session, neighbour));
        assert_eq!(shared.active.load(Ordering::SeqCst), 0);
        assert_eq!(server.handle().budget_conservation_error_w(), 0.0);
    }

    /// The enforced-caps invariant, without sockets: whatever joins, leaves
    /// and reports came before, every budget a session answers with is the
    /// one the arbiter holds for it now, and the arbiter's budgets sum to
    /// the cap.
    #[test]
    fn every_reply_carries_the_budget_the_arbiter_holds_now() {
        let kernels: Vec<String> =
            acs_kernels::all_kernel_instances().iter().take(2).map(|k| k.id()).collect();
        let requests = [
            Request::Hello,
            Request::Select { kernel_id: kernels[0].clone(), deadline_ms: None, priority: 0 },
            Request::Batch { kernel_ids: kernels, deadline_ms: None, priority: 0 },
            Request::Report { residual_w: 0.0, feedback: None },
            Request::Report { residual_w: 30.0, feedback: None },
        ];
        for policy in [ArbiterPolicy::EqualShare, ArbiterPolicy::DemandProportional] {
            let config = ServeConfig { global_cap_w: 90.0, policy, ..ServeConfig::default() };
            let server = Server::bind(config, model()).unwrap();
            let shared: &Shared = &server.shared;
            let mut rng = acs_sim::noise::SplitMix64(policy as u64);
            let mut live: Vec<Session> = Vec::new();
            for (at, node_id) in (0..400).zip(1..) {
                let roll = rng.next_u64() as usize;
                let (kind, pick) = (roll % 8, roll / 8 % live.len().max(1));
                if live.is_empty() || kind == 0 && live.len() < 4 {
                    live.push(join(shared, node_id));
                } else if kind < 2 {
                    drop(live.swap_remove(pick));
                } else {
                    let session = &mut live[pick];
                    let reply = session.step(Ok(requests[(kind - 2) % 5].clone())).0;
                    let held = shared.arbiter.lock().budget_of(session.seat.node_id).unwrap();
                    let check = |budget_w: f64| {
                        let off = (budget_w - held).abs();
                        assert!(
                            off <= BUDGET_EPS_W,
                            "{policy:?} step {at}: {budget_w} W, not {held}"
                        );
                    };
                    match reply {
                        Response::Welcome { budget_w, .. } | Response::Budget { budget_w } => {
                            check(budget_w)
                        }
                        Response::Selected(selection) => check(selection.budget_w),
                        Response::BatchSelected { selections } => {
                            selections.iter().for_each(|s| check(s.budget_w))
                        }
                        other => panic!("step {at}: unexpected {other:?}"),
                    }
                }
                let error_w = shared.arbiter.lock().conservation_error_w();
                assert_eq!(error_w, 0.0, "{policy:?} step {at}");
            }
        }
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

        // The same Run on two lone sessions, the second keeping its
        // timeline: keeping nothing changes no reply byte, and the clock
        // and the event count advance alike.
        let mut replies = Vec::new();
        let mut clocks = Vec::new();
        for (node_id, kept) in [(1, false), (2, true)] {
            let mut session = join(shared, node_id);
            let timeline = Arc::clone(session.rt.timeline());
            timeline.set_keeping(kept);
            let (reply, done) = session.step(Ok(run.clone()));
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
    fn a_batch_stops_at_its_first_unknown_kernel() {
        let journal_path =
            std::env::temp_dir().join(format!("acs-serve-batch-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&journal_path);
        let config = ServeConfig { journal: Some(journal_path.clone()), ..ServeConfig::default() };
        let server = Server::bind(config, model()).unwrap();
        let shared: &Shared = &server.shared;
        let known: Vec<String> =
            acs_kernels::all_kernel_instances().iter().take(2).map(|k| k.id()).collect();
        let kernel_ids = vec![known[0].clone(), "no/such/kernel".into(), known[1].clone()];

        let mut session = join(shared, 1);
        let (reply, done) =
            session.step(Ok(Request::Batch { kernel_ids, deadline_ms: None, priority: 0 }));
        assert!(!done);
        assert!(
            matches!(&reply, Response::Error { code, .. } if code == "unknown-kernel"),
            "{reply:?}"
        );
        // The id after the unknown one is neither profiled nor journaled.
        assert_eq!(shared.engine.cache_counts(), (0, 1));
        drop(session);
        drop(server);
        let (_, entries) = Journal::<JournalEntry>::open(&journal_path).unwrap();
        let cached: Vec<&str> = entries
            .iter()
            .filter_map(|e| match e {
                JournalEntry::CacheKey { kernel_id } => Some(kernel_id.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(cached, [known[0].as_str()]);
        let _ = std::fs::remove_file(&journal_path);
    }

    #[test]
    fn a_restart_journals_its_orphans_leaves_so_the_next_restart_replays() {
        // Admit 1 and 2, crash; restart, admit 3, crash; restart. While
        // replay dropped orphans without journaling it, the second restart
        // recomputed node 3's admission an epoch early and refused to start.
        let journal_path =
            std::env::temp_dir().join(format!("acs-serve-orphans-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&journal_path);
        let config = ServeConfig { journal: Some(journal_path.clone()), ..ServeConfig::default() };
        let start = || Server::bind(config.clone(), model());
        let orphans = |server: &Server| server.shared.recovery.clone().unwrap().orphaned_sessions;
        for (admitted, orphaned) in [([1, 2].as_slice(), vec![]), (&[3], vec![1, 2])] {
            let server = start().unwrap();
            assert_eq!(orphans(&server), orphaned);
            let sessions: Vec<_> = admitted.iter().map(|&id| join(&server.shared, id)).collect();
            server.shared.crashed.store(true, Ordering::SeqCst);
            drop(sessions);
        }
        let server = start().expect("the second restart replays its journal");
        assert_eq!(orphans(&server), vec![3]);
        assert_eq!(server.shared.arbiter.lock().node_count(), 0);
        drop(server);
        let (_, entries) = Journal::<JournalEntry>::open(&journal_path).unwrap();
        let leaves: Vec<u64> = entries
            .iter()
            .filter_map(|e| match e.arbiter_op() {
                Some(ArbiterOp::Leave { node_id }) => Some(node_id),
                _ => None,
            })
            .collect();
        assert_eq!(leaves, [1, 2, 3], "each restart journals its orphans' leaves");
        let _ = std::fs::remove_file(&journal_path);
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
        // decode-error path, with its seat taken and an observation made.
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
        assert_eq!(running.handle.stats().adapt_observations, 1);
        assert!(victim.call(&select(&kernels[1])).is_err(), "the panicking session hangs up");

        wait_until("the dead session never gave its seat back", || {
            running.handle.active_sessions() == 1
        });
        // Whether or not an idle poll showed the survivor 45 W in between,
        // its Hello is answered at the epoch it arrives in.
        assert_eq!(hello(&mut survivor), (1, 90.0), "the survivor owns the whole cap again");
        assert_eq!(running.handle.budget_conservation_error_w(), 0.0);
        drop(survivor);
        running.stop();
        let (_, entries) = Journal::<JournalEntry>::open(&journal_path).unwrap();
        assert!(
            entries.iter().any(|e| e.arbiter_op() == Some(ArbiterOp::Leave { node_id: 2 })),
            "the dead session's Leave is journaled: {entries:?}"
        );
        let _ = std::fs::remove_file(&journal_path);
    }

    /// What journal replay rebuilds for a session that died seated is the
    /// predictor that session held, bit for bit.
    #[test]
    fn replay_rebuilds_a_crashed_sessions_predictor_bit_for_bit() {
        let journal_path =
            std::env::temp_dir().join(format!("acs-serve-adapt-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&journal_path);
        let config = ServeConfig { journal: Some(journal_path.clone()), ..ServeConfig::default() };
        let server = Server::bind(config.clone(), model()).unwrap();
        let mut session = join(&server.shared, 1);
        // Per kernel, 4 on-model observations form the baseline, then 4 at
        // 2× power / 0.6× perf confirm a bias and a cluster mismatch.
        for kernel in acs_kernels::all_kernel_instances().iter().take(2) {
            let select = Request::Select { kernel_id: kernel.id(), deadline_ms: None, priority: 0 };
            let picked = match session.step(Ok(select)).0 {
                Response::Selected(selection) => selection,
                other => panic!("expected Selected, got {other:?}"),
            };
            for step in 0..8 {
                let (power, perf) = if step < 4 { (1.0, 1.0) } else { (2.0, 0.6) };
                let feedback = ReportFeedback {
                    kernel_id: kernel.id(),
                    config: picked.config,
                    measured_power_w: picked.predicted_power_w * power,
                    measured_perf: picked.predicted_perf * perf,
                };
                let report = Request::Report { residual_w: 1.0, feedback: Some(feedback) };
                let reply = session.step(Ok(report)).0;
                assert!(matches!(reply, Response::Budget { .. }), "{reply:?}");
            }
        }
        let live = session.adapt.state_digest();
        assert_ne!(live, AdaptivePredictor::default().state_digest(), "nothing was observed");
        server.shared.crashed.store(true, Ordering::SeqCst);
        drop(session);
        drop(server);

        let (_, entries) = Journal::<JournalEntry>::open(&journal_path).unwrap();
        let (_, recovery) = replay(&entries, config.global_cap_w, config.policy).unwrap();
        let rebuilt: Vec<(u64, u64)> =
            recovery.adapt.iter().map(|s| (s.node_id, s.predictor.state_digest())).collect();
        assert_eq!(rebuilt, [(1, live)]);
        let _ = std::fs::remove_file(&journal_path);
    }

    /// A coordinator reply is decoded like any frame: a `Granted` whose
    /// budget reads as +∞ is no grant but a missed round, so the shard's
    /// cap, its STATS and its journal stay as they were.
    #[test]
    fn a_granted_budget_of_1e999_is_a_missed_round() {
        let journal_path =
            std::env::temp_dir().join(format!("acs-serve-grant-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&journal_path);
        let (coordinator, lease_floor_w) = ("in-process".into(), Cap::new(5.0).unwrap());
        let config = ServeConfig {
            journal: Some(journal_path.clone()),
            fleet: Some(FleetConfig { coordinator, shard_id: 1, lease_floor_w, renew_ms: 200 }),
            ..ServeConfig::default()
        };
        let server = Server::bind(config, model()).unwrap();
        let shared: &Shared = &server.shared;
        let text =
            r#"{"Granted":{"lease_id":1,"epoch":1,"budget_w":1e999,"ttl_ms":500,"floor_w":2}}"#;
        let mut frame = (text.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(text.as_bytes());
        let state = || {
            let appended = shared.journal.as_ref().map(|j| j.appended_entries());
            (appended, shared.arbiter.lock().global_cap_w())
        };
        let before = state();
        lease_round(shared, 0, |_| {
            crate::protocol::read_frame_blocking(&mut &frame[..]).ok().flatten()
        });
        assert_eq!(state(), before, "the reply moved the cap or journaled an entry");
        let mut wire = Vec::new();
        write_frame(&mut wire, &Response::Stats(Box::new(stats_snapshot(shared)))).unwrap();
        match crate::protocol::read_frame_blocking(&mut &wire[..]) {
            Ok(Some(Response::Stats(stats))) => assert_eq!(stats.lease_budget_w, 5.0),
            other => panic!("STATS does not decode: {other:?}"),
        }
        drop(server);
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
        let (mut session, _neighbour) = (join(shared, 1), join(shared, 2));
        let kernel_id = acs_kernels::all_kernel_instances()[0].id();
        let select = |deadline_ms, priority| Request::Select {
            kernel_id: kernel_id.clone(),
            deadline_ms,
            priority,
        };
        let picked = match session.step(Ok(select(None, 0))).0 {
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
        let reply = session.step(Ok(report.clone())).0;
        assert_eq!(reply, Response::Budget { budget_w: 22.5 }, "30 W of headroom donates");
        assert_eq!(session.adapt.state_digest(), digest, "level 1 observed the feedback");
        set(0, 0);
        session.step(Ok(report));
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
        let stats = |session: &mut Session| match session.step(Ok(Request::Stats)).0 {
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
        assert!(matches!(session.step(Ok(late.clone())).0, Response::Selected(_)));
        set(3, 5_000);
        assert_eq!(
            session.step(Ok(late)).0,
            Response::ShedDeadline { deadline_ms: 1, priority: 0, brownout_level: 3 }
        );
        let urgent = select(Some(1), 128);
        assert!(matches!(session.step(Ok(urgent)).0, Response::Selected(_)));
        assert_eq!(stats(&mut session).sheds, 1);
    }

    /// The wire faults a peer can inflict, in-process: under either policy,
    /// beside a seated neighbour, seeded conversations of Selects, keyed
    /// Runs and Reports with feedback are cut off, torn, corrupted,
    /// delayed, duplicated and dribbled. Every fault ends as a typed error
    /// or a clean drop, and no conversation leaves a seat or a watt behind.
    #[test]
    fn seeded_wire_faults_end_typed_or_clean_and_never_poison_the_arbiter() {
        use Fault::{Clean, Corrupt, Delay, Disconnect, Dribble, Duplicate, Tear};
        let plan = [
            Clean, Clean, Clean, Clean, Clean, Clean, Disconnect, Tear, Corrupt, Delay, Duplicate,
            Dribble,
        ];
        let kernels: Vec<String> =
            acs_kernels::all_kernel_instances().iter().take(4).map(|k| k.id()).collect();
        let configs = Configuration::all();
        for policy in [ArbiterPolicy::EqualShare, ArbiterPolicy::DemandProportional] {
            let config = ServeConfig { global_cap_w: 90.0, policy, ..ServeConfig::default() };
            let server = Server::bind(config, model()).unwrap();
            let shared: &Shared = &server.shared;
            let _neighbour = join(shared, 1);
            let (mut replays, mut seen) = (0, Vec::new());
            for seed in 0..32u64 {
                let request = |i: u64| {
                    let kernel_id = kernels[((seed + i) % 4) as usize].clone();
                    match i % 3 {
                        0 => Request::Select { kernel_id, deadline_ms: None, priority: 0 },
                        1 => Request::Run {
                            kernel_id,
                            iterations: 1,
                            idem: Some(seed * 8 + i),
                            deadline_ms: None,
                            priority: 0,
                        },
                        _ => Request::Report {
                            residual_w: ((seed + i) * 3 % 40) as f64,
                            feedback: Some(ReportFeedback {
                                kernel_id,
                                config: configs[((seed * 7 + i * 5) % 42) as usize],
                                measured_power_w: 15.0 + (seed % 8 + i) as f64,
                                measured_perf: 0.5 + (seed % 10) as f64,
                            }),
                        },
                    }
                };
                let frames: Vec<Vec<u8>> = (0..8).map(|i| frame(&request(i))).collect();
                let (steps, drawn) = faulted(&frames, &plan, seed);
                let wire = converse(&mut join(shared, seed + 2), steps);

                // What the drawn faults leave on the wire: a reply per
                // delivered frame, two for a duplicate, and a typed error
                // that ends the session for a tear or a corruption.
                let (mut expected, mut last) = (0, None);
                for (i, fault) in (0..).zip(&drawn) {
                    match fault {
                        Disconnect => break,
                        Tear | Corrupt => {
                            expected += 1;
                            last = Some(if *fault == Tear { "truncated" } else { "invalid-utf8" });
                            break;
                        }
                        Duplicate => {
                            expected += 2;
                            replays += u64::from(i % 3 == 1); // a keyed Run
                        }
                        _ => expected += 1,
                    }
                }
                let replies = replies(&wire);
                let context = format!("{policy:?} seed {seed}: {drawn:?}");
                seen.extend(drawn);
                assert_eq!(replies.len(), expected, "{context}");
                for (at, (_, reply)) in replies.iter().enumerate() {
                    match reply {
                        Response::Error { code, .. } => {
                            assert_eq!((at + 1, Some(code.as_str())), (expected, last), "{context}")
                        }
                        _ => assert!(last.is_none() || at + 1 < expected, "{context}: {reply:?}"),
                    }
                }
                let arbiter = shared.arbiter.lock();
                assert_eq!(arbiter.node_ids(), [1], "{context}: a seat was kept");
                assert_eq!(arbiter.conservation_error_w(), 0.0, "{context}");
            }
            assert!(plan.iter().all(|fault| seen.contains(fault)), "{policy:?}: {seen:?}");
            let stats = stats_snapshot(shared);
            assert_eq!(stats.idem_replays, replays, "{policy:?}: a duplicated Run ran twice");
            assert!(stats.adapt_observations > 0, "{policy:?}: no feedback got through");
        }
    }

    /// A slow or stalled peer is indistinguishable from a fast one: the
    /// same conversation, dribbled a byte per read or delayed behind read
    /// timeouts, writes exactly the bytes it writes when delivered whole.
    #[test]
    fn dribbled_and_delayed_frames_change_no_reply_byte() {
        let kernels: Vec<String> =
            acs_kernels::all_kernel_instances().iter().take(3).map(|k| k.id()).collect();
        let mut requests = vec![Request::Hello];
        for (i, kernel_id) in (0..).zip(&kernels) {
            requests.push(Request::Select {
                kernel_id: kernel_id.clone(),
                deadline_ms: None,
                priority: 0,
            });
            requests.push(Request::Run {
                kernel_id: kernel_id.clone(),
                iterations: 1 + i,
                idem: Some(9000 + i),
                deadline_ms: None,
                priority: 0,
            });
        }
        requests.push(Request::Batch { kernel_ids: kernels, deadline_ms: None, priority: 0 });
        requests.push(Request::Report { residual_w: 3.0, feedback: None });
        let frames: Vec<Vec<u8>> = requests.iter().map(frame).collect();
        let wire = |fault: Fault| {
            let server = Server::bind(ServeConfig::default(), model()).unwrap();
            let wire = converse(&mut join(&server.shared, 1), faulted(&frames, &[fault], 5).0);
            assert_eq!(stats_snapshot(&server.shared).protocol_errors, 0, "{fault:?}");
            wire
        };
        let whole = wire(Fault::Clean);
        assert_eq!(replies(&whole).len(), requests.len());
        assert_eq!(wire(Fault::Dribble), whole, "dribbled frames reassemble exactly");
        assert_eq!(wire(Fault::Delay), whole, "delayed frames are answered alike");
    }

    #[test]
    fn a_duplicated_keyed_run_executes_once_and_replays_its_bytes() {
        let server = Server::bind(ServeConfig::default(), model()).unwrap();
        let run = Request::Run {
            kernel_id: acs_kernels::all_kernel_instances()[0].id(),
            iterations: 2,
            idem: Some(404),
            deadline_ms: None,
            priority: 0,
        };
        let (steps, _) = faulted(&[frame(&run)], &[Fault::Duplicate], 3);
        let wire = converse(&mut join(&server.shared, 1), steps);
        let replies = replies(&wire);
        assert!(
            matches!(replies[..], [(first, Response::Ran { .. }), (second, _)] if first == second),
            "{replies:?}"
        );
        assert_eq!(stats_snapshot(&server.shared).idem_replays, 1);
    }

    /// Hostile numbers in every numeric request field, decoded from JSON
    /// text as the wire delivers them (`±1e999` reads as ±∞): under either
    /// policy, with two sessions seated, no request but `Bye` closes its
    /// session, every budget a reply carries is finite and positive, the
    /// budgets sum to the cap exactly, and a fresh session still joins.
    #[test]
    fn hostile_numbers_in_any_request_field_leave_the_shard_serving() {
        const F64S: [&str; 8] =
            ["0", "-0", "-1", "1e308", "-1e308", "1.7976931348623157e308", "1e999", "-1e999"];
        const U64S: [&str; 3] = ["0", "1", "18446744073709551615"];
        let kernel = acs_kernels::all_kernel_instances()[0].id();
        let config = serde_json::to_string(&Configuration::all()[0]).unwrap();
        let mut texts: Vec<String> = vec!["\"Hello\"".into(), "\"Stats\"".into(), "\"Bye\"".into()];
        for deadline in U64S.into_iter().chain(["null"]) {
            for priority in [0, 255] {
                let shed = format!(r#""deadline_ms":{deadline},"priority":{priority}"#);
                texts.push(format!(r#"{{"Select":{{"kernel_id":"{kernel}",{shed}}}}}"#));
                texts.push(format!(r#"{{"Batch":{{"kernel_ids":["{kernel}"],{shed}}}}}"#));
                for iterations in U64S {
                    for idem in U64S.into_iter().chain(["null"]) {
                        let run = format!(r#""iterations":{iterations},"idem":{idem},{shed}"#);
                        texts.push(format!(r#"{{"Run":{{"kernel_id":"{kernel}",{run}}}}}"#));
                    }
                }
            }
        }
        for residual in F64S {
            texts.push(format!(r#"{{"Report":{{"residual_w":{residual},"feedback":null}}}}"#));
            for power in F64S {
                for perf in F64S {
                    let measured = format!(r#""measured_power_w":{power},"measured_perf":{perf}"#);
                    let feedback =
                        format!(r#"{{"kernel_id":"{kernel}","config":{config},{measured}}}"#);
                    texts.push(format!(
                        r#"{{"Report":{{"residual_w":{residual},"feedback":{feedback}}}}}"#
                    ));
                }
            }
        }
        for policy in [ArbiterPolicy::EqualShare, ArbiterPolicy::DemandProportional] {
            let config = ServeConfig { global_cap_w: 90.0, policy, ..ServeConfig::default() };
            let server = Server::bind(config, model()).unwrap();
            let shared: &Shared = &server.shared;
            let mut node_ids = 1..;
            let mut seat = || join(shared, node_ids.next().unwrap());
            let mut seated = [seat(), seat()];
            for (at, text) in texts.iter().enumerate() {
                let request: Request =
                    serde_json::from_str(text).unwrap_or_else(|e| panic!("{text}: {e}"));
                let bye = request == Request::Bye;
                let (reply, done) = seated[at % 2].step(Ok(request));
                assert_eq!(done, bye, "{policy:?} {text}: {reply:?}");
                if done {
                    seated[at % 2] = seat();
                }
                let budgets = match &reply {
                    Response::Welcome { budget_w, .. } | Response::Budget { budget_w } => {
                        vec![*budget_w]
                    }
                    Response::Selected(selection) => vec![selection.budget_w],
                    Response::BatchSelected { selections } => {
                        selections.iter().map(|s| s.budget_w).collect()
                    }
                    _ => Vec::new(),
                };
                let usable = |budget_w: f64| budget_w.is_finite() && budget_w > 0.0;
                assert!(budgets.into_iter().all(usable), "{policy:?} {text}: {reply:?}");
                assert_eq!(shared.arbiter.lock().conservation_error_w(), 0.0, "{policy:?} {text}");
                assert!(usable(seat().rt.cap_w()), "{policy:?} {text}: a fresh join");
            }
        }
    }

    /// The frame carrying `text` as its body.
    fn text_frame(text: &str) -> Vec<u8> {
        let mut frame = (text.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(text.as_bytes());
        frame
    }

    /// What `twin` answers to `frames`, each decoded, handled and encoded
    /// on its own: the bytes a frame loop must write for them.
    fn stepped(twin: &mut Session, frames: &[Vec<u8>]) -> Vec<u8> {
        let mut wire = Vec::new();
        for frame in frames {
            let (reply, _) = twin.handle(crate::protocol::decode_body(&frame[4..]));
            crate::protocol::encode_frame(&mut wire, &reply).unwrap();
        }
        wire
    }

    /// A `Select` for `kernel_id` in one of its byte variants: plain, with
    /// a priority, with a deadline (one already expired, one not), or
    /// padded with whitespace and its defaulted fields left out.
    fn select_variant(kernel_id: &str, variant: u64) -> Vec<u8> {
        let select = |deadline_ms, priority| {
            frame(&Request::Select { kernel_id: kernel_id.into(), deadline_ms, priority })
        };
        match variant % 5 {
            0 => select(None, 0),
            1 => select(None, (variant / 5 % 256) as u8),
            2 => select(Some(10_000), 0),
            3 => select(Some(0), 1),
            _ => {
                let pad = " ".repeat((variant / 5 % 40) as usize);
                text_frame(&format!(r#"{pad}{{ "Select":{pad}{{"kernel_id": "{kernel_id}"}} }}"#))
            }
        }
    }

    /// A fleet shard's configuration: its lease rounds move the cap.
    fn shard_config() -> ServeConfig {
        let (coordinator, lease_floor_w) = ("in-process".into(), Cap::new(5.0).unwrap());
        ServeConfig {
            global_cap_w: 90.0,
            fleet: Some(FleetConfig { coordinator, shard_id: 1, lease_floor_w, renew_ms: 200 }),
            ..ServeConfig::default()
        }
    }

    /// A lease round whose coordinator grants `budget_w`, or is not heard
    /// from at all.
    fn grant(shared: &Shared, now_ms: u64, budget_w: Option<f64>) {
        lease_round(shared, now_ms, |_| {
            budget_w.map(|budget_w| CoordResponse::Granted {
                lease_id: 1,
                epoch: now_ms,
                budget_w: acs_sim::Watts::new(budget_w).unwrap(),
                ttl_ms: 10_000,
                floor_w: Cap::new(5.0).unwrap(),
            })
        });
    }

    /// The STATS a walk compares: everything but the two wall-clock
    /// quantiles.
    fn counted(shared: &Shared) -> StatsSnapshot {
        let mut snapshot = stats_snapshot(shared);
        (snapshot.p50_latency_us, snapshot.p99_latency_us) = (0, 0);
        snapshot
    }

    /// The reply memo changes no byte and no count. Two identical shards
    /// see the same seeded walk: repeated `Select`s in every byte variant
    /// and for an unknown id, `Report`s with and without drifting
    /// feedback, a neighbour's joins, leaves and reports, lease rounds
    /// that move the cap, and a brownout that sheds every deadline. One session is served through the real frame
    /// loop, memo and all; its twin is handed each decoded request. Every
    /// reply must match byte for byte, and so must the STATS counters.
    #[test]
    fn a_memoized_reply_is_the_reply_the_session_computes() {
        let mut kernels: Vec<String> =
            acs_kernels::all_kernel_instances().iter().take(3).map(|k| k.id()).collect();
        kernels.push("no/such/kernel".into());
        for seed in [1, 2, 3] {
            let (server, twin_server) = (
                Server::bind(shard_config(), model()).unwrap(),
                Server::bind(shard_config(), model()).unwrap(),
            );
            let shareds = [&*server.shared, &*twin_server.shared];
            shareds.iter().for_each(|shared| grant(shared, 0, Some(90.0)));
            let (mut served, mut twin) = (join(shareds[0], 1), join(shareds[1], 1));
            let mut neighbours: Option<[Session; 2]> = None;
            let mut rng = acs_sim::noise::SplitMix64(seed);
            let mut hits = 0;
            for at in 1..=2_000u64 {
                let (roll, kind) = (rng.next_u64() / 10, rng.next_u64() % 40);
                let frames: Vec<Vec<u8>> = match kind {
                    0..=31 => (0..=roll % 3)
                        .map(|_| {
                            let roll = rng.next_u64();
                            let kernel_id = &kernels[(roll % kernels.len() as u64) as usize];
                            // A few fixed variants, mostly plain, so that
                            // each repeats; now and then a fresh one.
                            let pick = roll / 4;
                            let variant = [0, 0, 0, 36, 2, 2, 3, 19, pick / 9][(pick % 9) as usize];
                            select_variant(kernel_id, variant)
                        })
                        .collect(),
                    32..=33 => {
                        let kernel_id = kernels[(roll % 3) as usize].clone();
                        let config = Configuration::all()[(roll / 40 % 42) as usize];
                        // Looked up on both shards, so that their cache counts agree.
                        let [profile, _] =
                            shareds.map(|shared| shared.engine.profile(&kernel_id).unwrap());
                        let point = profile.point_for(&config);
                        // The third kernel drifts halfway through the walk,
                        // once its on-model baseline is in; the others stay
                        // static.
                        let drift = if roll % 3 == 2 && at > 1_000 { 1.6 } else { 1.0 };
                        let feedback = ReportFeedback {
                            kernel_id,
                            config,
                            measured_power_w: point.power_w * drift,
                            measured_perf: point.perf / drift,
                        };
                        let residual_w = (roll / 6_000 % 30) as f64 - 5.0;
                        let feedback = (roll / 200_000 % 3 != 0).then_some(feedback);
                        vec![frame(&Request::Report { residual_w, feedback })]
                    }
                    34..=35 => {
                        match neighbours.take() {
                            None => neighbours = Some(shareds.map(|shared| join(shared, 2))),
                            Some(_) if roll % 2 == 0 => {}
                            Some(mut pair) => {
                                let residual_w = (roll / 20 % 40) as f64;
                                let report = || Ok(Request::Report { residual_w, feedback: None });
                                let replies = pair.each_mut().map(|session| session.step(report()));
                                assert_eq!(replies[0], replies[1], "seed {seed} step {at}");
                                neighbours = Some(pair);
                            }
                        }
                        continue;
                    }
                    36..=37 => {
                        let budget_w = [None, Some(30.0), Some(60.0), Some(90.0), Some(47.5)]
                            [(roll % 5) as usize];
                        shareds.iter().for_each(|shared| grant(shared, at, budget_w));
                        continue;
                    }
                    38 => {
                        // Full brownout with a p99 estimate past every
                        // deadline the walk sends sheds them all; or back.
                        for shared in shareds {
                            let level = 3 - shared.brownout_level.load(Ordering::SeqCst);
                            shared.brownout_level.store(level, Ordering::SeqCst);
                            shared
                                .est_p99_us
                                .store(u64::from(level) * 10_000_000, Ordering::SeqCst);
                        }
                        continue;
                    }
                    _ => vec![frame(&Request::Hello)],
                };
                served.pick_up_budget();
                hits += usize::from(served.memo.reply(&frames[0][4..]).is_some());
                let steps = frames.iter().map(|frame| Step::Data(frame.clone())).collect();
                let (wire, expected) = (converse(&mut served, steps), stepped(&mut twin, &frames));
                if wire != expected {
                    let text = String::from_utf8_lossy;
                    panic!("seed {seed} step {at}: {} != {}", text(&wire), text(&expected));
                }
            }
            let drifted = served.adapt.correction(&kernels[2]).is_some();
            assert!(drifted, "seed {seed}: the walk confirmed no drift");
            assert!(hits > 100, "seed {seed}: the memo answered only {hits} frames");
            assert!(served.memo.entries.len() <= 3, "one entry per suite kernel asked for");
            drop((served, twin, neighbours));
            assert_eq!(counted(shareds[0]), counted(shareds[1]), "seed {seed}");
        }
    }

    #[test]
    fn the_memo_holds_one_entry_per_kernel_and_no_long_body() {
        let server = Server::bind(ServeConfig::default(), model()).unwrap();
        let kernel_id = acs_kernels::all_kernel_instances()[0].id();
        let mut session = join(&server.shared, 1);
        let plain = converse(&mut session, vec![Step::Data(select_variant(&kernel_id, 0))]);
        // 10 000 distinct bodies for one kernel, each answered with the
        // plain reply and each kept in that kernel's one entry.
        for (before, after) in (0..100).flat_map(|b| (0..100).map(move |a| (b, a))) {
            let (before, after) = (" ".repeat(before), " ".repeat(after));
            let text = format!(r#"{before}{{"Select":{{"kernel_id":"{kernel_id}"}}}}{after}"#);
            assert_eq!(converse(&mut session, vec![Step::Data(text_frame(&text))]), plain);
            assert_eq!((session.memo.entries.len(), session.memo.hashes.len()), (1, 1));
        }
        // A 60 KB body is answered but never kept.
        let mut fresh = join(&server.shared, 2);
        let plain = converse(&mut fresh, vec![Step::Data(select_variant(&kernel_id, 0))]);
        fresh.memo = ReplyMemo::default();
        let padded = format!(r#"{{"Select":{{"kernel_id":"{kernel_id}"}}}}{}"#, " ".repeat(60_000));
        assert_eq!(converse(&mut fresh, vec![Step::Data(text_frame(&padded))]), plain);
        assert!(fresh.memo.entries.is_empty(), "a {} byte body was kept", padded.len());
    }
}
