//! A resilient wire-protocol client: deadlines, bounded retries with
//! decorrelated-jitter backoff, idempotency keys, and a per-session
//! circuit breaker.
//!
//! The plain [`Client`] is a bare socket: one torn
//! frame or injected disconnect (see `serve::chaosproxy`) and the caller
//! is on their own. This wrapper owns the failure handling:
//!
//! - **Deadline**: every logical call gets a wall-clock budget covering
//!   all its attempts; the socket read timeout is always the *remaining*
//!   budget, so a hung server cannot stall past it.
//! - **Retry**: failed attempts reconnect (a failed frame leaves the
//!   stream possibly desynced, so the old connection is always dropped)
//!   and back off with decorrelated jitter — `sleep = clamp(base,
//!   rand(base, prev*3), max)` — the AWS-architecture-blog variant that
//!   avoids synchronized retry storms without tracking attempt counts.
//! - **Idempotency**: [`run`](ResilientClient::run) draws one key per
//!   *logical* call and reuses it across retries; the server's memo makes
//!   execution exactly-once in effect and replays byte-identical response
//!   frames. Requests without safe-retry semantics are never retried
//!   (see [`is_idempotent`]).
//! - **Circuit breaker**: consecutive failures open the breaker; while
//!   open, calls fail fast with [`ClientError::CircuitOpen`] instead of
//!   hammering a dead server. After a cooldown one half-open probe is
//!   allowed through; its outcome closes or re-opens the circuit.
//!
//! Determinism note: idempotency keys come from a seeded splitmix64
//! stream, so a reproduced bench run issues the same keys. Backoff sleeps
//! are the only wall-clock-dependent behavior, and they affect timing
//! only, never response bytes.

use acs_serve::{Client, Request, Response};
use acs_sim::noise::{fnv1a, splitmix64, SplitMix64};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Retry/deadline/breaker tuning for a [`ResilientClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per logical call (1 = no retries).
    pub max_attempts: u32,
    /// First backoff sleep; also the decorrelated-jitter floor.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Wall-clock budget for one logical call, all attempts included.
    pub request_deadline: Duration,
    /// Consecutive failures that open the circuit.
    pub breaker_threshold: u32,
    /// How long the circuit stays open before one half-open probe.
    pub breaker_cooldown: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
            request_deadline: Duration::from_secs(5),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250),
        }
    }
}

/// Typed client-side failures (server-side failures arrive as
/// [`Response::Error`] values, not as `Err`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The deadline elapsed before any attempt succeeded.
    DeadlineExceeded {
        /// Attempts made before the budget ran out.
        attempts: u32,
    },
    /// The circuit breaker is open; no attempt was made.
    CircuitOpen,
    /// Every allowed attempt failed.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// Detail of the last failure.
        last: String,
    },
    /// The request is not safe to retry and its single attempt failed.
    NotRetriable {
        /// Detail of the failure.
        detail: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::DeadlineExceeded { attempts } => {
                write!(f, "deadline exceeded after {attempts} attempt(s)")
            }
            ClientError::CircuitOpen => write!(f, "circuit breaker open: failing fast"),
            ClientError::Exhausted { attempts, last } => {
                write!(f, "all {attempts} attempt(s) failed; last: {last}")
            }
            ClientError::NotRetriable { detail } => {
                write!(f, "non-idempotent request failed (not retried): {detail}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Is a request safe to send more than once?
///
/// Reads (`Hello`, `Select`, `Batch`, `Stats`) are pure. A `Run` is only
/// safe when it carries an idempotency key — the server then replays the
/// first execution instead of running again. `Report` re-triggers a
/// budget reshuffle, `Bye`/`Shutdown` are session/process transitions;
/// none of those may be silently doubled.
pub fn is_idempotent(request: &Request) -> bool {
    match request {
        Request::Hello | Request::Select { .. } | Request::Batch { .. } | Request::Stats => true,
        Request::Run { idem, .. } => idem.is_some(),
        Request::Report { .. } | Request::Bye | Request::Shutdown => false,
    }
}

/// Circuit-breaker state machine. Time is passed in, not sampled, so the
/// transitions are unit-testable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    threshold: u32,
    cooldown: Duration,
    opens: u64,
}

impl Breaker {
    fn new(threshold: u32, cooldown: Duration) -> Self {
        Self {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: None,
            threshold: threshold.max(1),
            cooldown,
            opens: 0,
        }
    }

    /// May a call proceed at `now`? Open→HalfOpen happens here once the
    /// cooldown has elapsed.
    fn admit(&mut self, now: Instant) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                let expired =
                    self.opened_at.is_none_or(|at| now.duration_since(at) >= self.cooldown);
                if expired {
                    self.state = BreakerState::HalfOpen;
                }
                expired
            }
        }
    }

    fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.opened_at = None;
    }

    fn on_failure(&mut self, now: Instant) {
        self.consecutive_failures += 1;
        let trip = match self.state {
            BreakerState::HalfOpen => true, // a failed probe re-opens
            _ => self.consecutive_failures >= self.threshold,
        };
        if trip && self.state != BreakerState::Open {
            self.state = BreakerState::Open;
            self.opened_at = Some(now);
            self.opens += 1;
        } else if trip {
            self.opened_at = Some(now);
        }
    }
}

/// Counters a bench or test can assert on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientStats {
    /// TCP connects (first connect plus every reconnect).
    pub connects: u64,
    /// Attempts sent, first tries included.
    pub attempts: u64,
    /// Attempts beyond the first of their logical call.
    pub retries: u64,
    /// Times the circuit breaker tripped open.
    pub breaker_opens: u64,
    /// Calls rejected fast because the circuit was open.
    pub breaker_fast_fails: u64,
}

/// A retrying, deadline-bounded, breaker-guarded client.
pub struct ResilientClient {
    addr: String,
    policy: RetryPolicy,
    conn: Option<Client>,
    breaker: Breaker,
    rng: SplitMix64,
    stats: ClientStats,
}

enum AttemptError {
    /// The remaining deadline hit zero.
    Deadline,
    /// The attempt failed (connect, write, read, torn frame, ...).
    Failed(String),
}

impl ResilientClient {
    /// A client for `addr` (`host:port`). Connects lazily on first call.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        let breaker = Breaker::new(policy.breaker_threshold, policy.breaker_cooldown);
        Self {
            addr: addr.into(),
            policy,
            conn: None,
            breaker,
            rng: SplitMix64(0x5EED_C11E_4715_0001),
            stats: ClientStats::default(),
        }
    }

    /// Seed the idempotency-key stream (defaults to a fixed seed).
    pub fn with_key_seed(mut self, seed: u64) -> Self {
        self.rng = SplitMix64(seed);
        self
    }

    /// Counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Run a kernel with exactly-once-in-effect semantics: one
    /// idempotency key is drawn for the logical call and reused across
    /// every retry, so the server either executes once and replays the
    /// memoized bytes, or the call fails typed.
    pub fn run(&mut self, kernel_id: &str, iterations: u64) -> Result<Response, ClientError> {
        let key = self.rng.next_u64();
        self.call(&Request::Run {
            kernel_id: kernel_id.to_string(),
            iterations,
            idem: Some(key),
            deadline_ms: None,
            priority: 0,
        })
    }

    /// Send a request under the policy. Idempotent requests (see
    /// [`is_idempotent`]) are retried with backoff until the deadline or
    /// attempt bound; everything else gets exactly one attempt.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let started = Instant::now();
        if !self.breaker.admit(started) {
            self.stats.breaker_fast_fails += 1;
            return Err(ClientError::CircuitOpen);
        }
        // A half-open circuit admits a single probe, never a retry burst.
        let max_attempts = if self.breaker.state == BreakerState::HalfOpen {
            1
        } else if is_idempotent(request) {
            self.policy.max_attempts.max(1)
        } else {
            1
        };
        let mut prev_backoff = self.policy.base_backoff;
        let mut last = String::new();
        for attempt in 1..=max_attempts {
            self.stats.attempts += 1;
            if attempt > 1 {
                self.stats.retries += 1;
            }
            match self.attempt(request, started) {
                Ok(response) => {
                    self.breaker.on_success();
                    return Ok(response);
                }
                Err(AttemptError::Deadline) => {
                    self.breaker.on_failure(Instant::now());
                    self.stats.breaker_opens = self.breaker.opens;
                    return Err(ClientError::DeadlineExceeded { attempts: attempt });
                }
                Err(AttemptError::Failed(detail)) => {
                    self.breaker.on_failure(Instant::now());
                    last = detail;
                    // The stream may be desynced mid-frame; never reuse it.
                    self.conn = None;
                }
            }
            if attempt < max_attempts {
                let Some(remaining) = self
                    .policy
                    .request_deadline
                    .checked_sub(started.elapsed())
                    .filter(|r| !r.is_zero())
                else {
                    self.stats.breaker_opens = self.breaker.opens;
                    return Err(ClientError::DeadlineExceeded { attempts: attempt });
                };
                let backoff = self.decorrelated_backoff(prev_backoff);
                prev_backoff = backoff;
                std::thread::sleep(backoff.min(remaining));
            }
        }
        self.stats.breaker_opens = self.breaker.opens;
        if max_attempts == 1 && !is_idempotent(request) {
            Err(ClientError::NotRetriable { detail: last })
        } else {
            Err(ClientError::Exhausted { attempts: max_attempts, last })
        }
    }

    /// One wire attempt under the remaining deadline.
    fn attempt(&mut self, request: &Request, started: Instant) -> Result<Response, AttemptError> {
        let Some(remaining) =
            self.policy.request_deadline.checked_sub(started.elapsed()).filter(|r| !r.is_zero())
        else {
            return Err(AttemptError::Deadline);
        };
        if self.conn.is_none() {
            let conn =
                Client::connect(&self.addr).map_err(|e| AttemptError::Failed(e.to_string()))?;
            self.stats.connects += 1;
            self.conn = Some(conn);
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        // The socket read budget is whatever is left of the deadline, so a
        // silent server cannot hold the call past it.
        let _ = conn.stream_mut().set_read_timeout(Some(remaining));
        conn.call(request).map_err(|e| AttemptError::Failed(e.to_string()))
    }

    /// Decorrelated jitter: uniform in `[base, prev*3]`, capped.
    fn decorrelated_backoff(&mut self, prev: Duration) -> Duration {
        let base = self.policy.base_backoff.as_micros() as u64;
        let ceil = (prev.as_micros() as u64).saturating_mul(3).max(base + 1);
        let span = ceil - base;
        let jitter = base + self.rng.next_u64() % span;
        Duration::from_micros(jitter).min(self.policy.max_backoff).max(self.policy.base_backoff)
    }
}

/// Rendezvous (highest-random-weight) score of `addr` for `session_key`:
/// FNV-1a over the address bytes, mixed with the session key through
/// splitmix64 so each session gets an independent permutation of the
/// shard ring.
pub fn rendezvous_weight(addr: &str, session_key: u64) -> u64 {
    splitmix64(fnv1a(addr.as_bytes()) ^ session_key)
}

/// Counters a fleet bench or chaos test can assert on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Shards this session evicted after a failed logical call.
    pub failovers: u64,
    /// Keyed runs replayed onto a new shard during failover.
    pub replays: u64,
}

/// A session-scoped client over a ring of shards.
///
/// Placement is rendezvous hashing: the session lands on the live shard
/// with the highest [`rendezvous_weight`] for its key, so evicting one
/// shard only remaps the sessions that were on it — everyone else stays
/// put (no ring-wide reshuffle). When a logical call fails the client
/// evicts the shard, re-picks, and **replays its keyed run history** on
/// the new shard before retrying, so exactly-once-in-effect semantics
/// carry across the failover: every idempotency key the session ever
/// issued is re-established on the shard that now owns it.
pub struct FleetClient {
    /// `(label, addr, live)` per shard: the label is the rendezvous
    /// identity, the addr is only for dialing. Keeping them separate lets
    /// callers hash on stable names ("shard-0") while the OS hands out
    /// ephemeral ports.
    shards: Vec<(String, String, bool)>,
    session_key: u64,
    policy: RetryPolicy,
    conn: Option<(String, ResilientClient)>,
    run_history: Vec<(String, u64, u64)>,
    rng: SplitMix64,
    stats: FleetStats,
}

impl FleetClient {
    /// A client over `addrs`; `session_key` fixes both the rendezvous
    /// placement and the idempotency-key stream. Each shard's label is
    /// its address — use [`FleetClient::with_ring`] when placement must
    /// not depend on dialed ports.
    pub fn new(addrs: &[String], session_key: u64, policy: RetryPolicy) -> Self {
        let ring: Vec<(String, String)> = addrs.iter().map(|a| (a.clone(), a.clone())).collect();
        Self::with_ring(&ring, session_key, policy)
    }

    /// A client over `(label, addr)` pairs: rendezvous placement hashes
    /// the label, dialing uses the addr. With stable labels the
    /// session→shard map is a pure function of `session_key`, independent
    /// of whatever ephemeral ports the shards bound.
    pub fn with_ring(ring: &[(String, String)], session_key: u64, policy: RetryPolicy) -> Self {
        Self {
            shards: ring.iter().map(|(l, a)| (l.clone(), a.clone(), true)).collect(),
            session_key,
            policy,
            conn: None,
            run_history: Vec::new(),
            rng: SplitMix64(session_key ^ 0x5EED_C11E_4715_0001),
            stats: FleetStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// The label of the live shard this session currently maps to, if
    /// any. (Under [`FleetClient::new`] the label is the address.)
    pub fn pick(&self) -> Option<&str> {
        self.shards
            .iter()
            .filter(|(_, _, live)| *live)
            .max_by_key(|(label, _, _)| rendezvous_weight(label, self.session_key))
            .map(|(label, _, _)| label.as_str())
    }

    /// The dial address behind `label`, if the label is in the ring.
    fn addr_of(&self, label: &str) -> Option<String> {
        self.shards.iter().find(|(l, _, _)| l == label).map(|(_, a, _)| a.clone())
    }

    /// Mark the shard labelled `label` dead; its sessions re-pick on the
    /// next call.
    pub fn evict(&mut self, label: &str) {
        for (l, _, live) in &mut self.shards {
            if l == label {
                *live = false;
            }
        }
        if self.conn.as_ref().is_some_and(|(l, _)| l == label) {
            self.conn = None;
        }
    }

    /// Mark the shard labelled `label` live again (e.g. after a chaos
    /// restart).
    pub fn restore(&mut self, label: &str) {
        for (l, _, live) in &mut self.shards {
            if l == label {
                *live = true;
            }
        }
    }

    /// Run a kernel with exactly-once-in-effect semantics that survive
    /// shard failover: the drawn key joins the session's replay history.
    pub fn run(&mut self, kernel_id: &str, iterations: u64) -> Result<Response, ClientError> {
        let key = self.rng.next_u64();
        self.run_history.push((kernel_id.to_string(), iterations, key));
        self.call(&Request::Run {
            kernel_id: kernel_id.to_string(),
            iterations,
            idem: Some(key),
            deadline_ms: None,
            priority: 0,
        })
    }

    /// Send a request to the session's shard, failing over (evict,
    /// re-pick, replay keyed history, retry) until it succeeds or no live
    /// shard remains.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        loop {
            let Some(label) = self.pick().map(str::to_string) else {
                return Err(ClientError::Exhausted {
                    attempts: self.stats.failovers as u32,
                    last: "no live shard".into(),
                });
            };
            if self.conn.as_ref().is_none_or(|(l, _)| *l != label) {
                let addr = self.addr_of(&label).expect("picked label is in the ring");
                match self.connect_and_replay(&label, &addr) {
                    Ok(conn) => self.conn = Some((label.clone(), conn)),
                    Err(_) => {
                        self.stats.failovers += 1;
                        self.evict(&label);
                        continue;
                    }
                }
            }
            let (_, conn) = self.conn.as_mut().expect("connection just ensured");
            match conn.call(request) {
                Ok(response) => return Ok(response),
                Err(_) => {
                    self.stats.failovers += 1;
                    self.evict(&label);
                }
            }
        }
    }

    /// Connect to a shard and re-establish the session's keyed runs on
    /// it, in issue order, so later duplicate sends replay memoized bytes
    /// instead of re-executing. The key seed mixes the stable label, not
    /// the dial address, so the stream is port-independent.
    fn connect_and_replay(
        &mut self,
        label: &str,
        addr: &str,
    ) -> Result<ResilientClient, ClientError> {
        let mut conn = ResilientClient::new(addr, self.policy.clone())
            .with_key_seed(self.session_key ^ fnv1a(label.as_bytes()));
        conn.call(&Request::Hello)?;
        for (kernel_id, iterations, key) in &self.run_history {
            conn.call(&Request::Run {
                kernel_id: kernel_id.clone(),
                iterations: *iterations,
                idem: Some(*key),
                deadline_ms: None,
                priority: 0,
            })?;
            self.stats.replays += 1;
        }
        Ok(conn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idempotency_classification() {
        assert!(is_idempotent(&Request::Hello));
        assert!(is_idempotent(&Request::Select {
            kernel_id: "k".into(),
            deadline_ms: None,
            priority: 0
        }));
        assert!(is_idempotent(&Request::Stats));
        assert!(is_idempotent(&Request::Run {
            kernel_id: "k".into(),
            iterations: 1,
            idem: Some(7),
            deadline_ms: None,
            priority: 0
        }));
        assert!(!is_idempotent(&Request::Run {
            kernel_id: "k".into(),
            iterations: 1,
            idem: None,
            deadline_ms: None,
            priority: 0
        }));
        assert!(!is_idempotent(&Request::Report { residual_w: 1.0, feedback: None }));
        assert!(!is_idempotent(&Request::Bye));
        assert!(!is_idempotent(&Request::Shutdown));
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_after_cooldown() {
        let cooldown = Duration::from_millis(100);
        let mut b = Breaker::new(3, cooldown);
        let t0 = Instant::now();
        assert!(b.admit(t0));
        b.on_failure(t0);
        b.on_failure(t0);
        assert!(b.admit(t0), "below threshold: still closed");
        b.on_failure(t0);
        assert_eq!(b.state, BreakerState::Open);
        assert_eq!(b.opens, 1);
        assert!(!b.admit(t0), "open: fail fast");
        assert!(b.admit(t0 + cooldown), "cooldown elapsed: one probe allowed");
        assert_eq!(b.state, BreakerState::HalfOpen);

        // A failed probe re-opens with a fresh cooldown window.
        b.on_failure(t0 + cooldown);
        assert_eq!(b.state, BreakerState::Open);
        assert!(!b.admit(t0 + cooldown + Duration::from_millis(50)));

        // A successful probe closes fully.
        assert!(b.admit(t0 + cooldown * 2 + Duration::from_millis(1)));
        b.on_success();
        assert_eq!(b.state, BreakerState::Closed);
        assert_eq!(b.consecutive_failures, 0);
    }

    #[test]
    fn backoff_stays_inside_the_configured_bounds() {
        let mut c = ResilientClient::new("127.0.0.1:1", RetryPolicy::default());
        let mut prev = c.policy.base_backoff;
        for _ in 0..200 {
            let b = c.decorrelated_backoff(prev);
            assert!(b >= c.policy.base_backoff, "{b:?} below base");
            assert!(b <= c.policy.max_backoff, "{b:?} above cap");
            prev = b;
        }
    }

    #[test]
    fn idempotency_keys_are_seeded_and_unique() {
        let draw = |seed: u64| -> Vec<u64> {
            let mut c =
                ResilientClient::new("127.0.0.1:1", RetryPolicy::default()).with_key_seed(seed);
            (0..32).map(|_| c.rng.next_u64()).collect()
        };
        let a = draw(9);
        assert_eq!(a, draw(9), "same seed, same key stream");
        assert_ne!(a, draw(10));
        let dedup: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(dedup.len(), a.len(), "keys must not collide in-stream");
    }

    #[test]
    fn rendezvous_eviction_only_remaps_the_evicted_shards_sessions() {
        let addrs: Vec<String> = (0..5).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect();
        let picks_before: Vec<String> = (0..200u64)
            .map(|key| {
                FleetClient::new(&addrs, key, RetryPolicy::default())
                    .pick()
                    .expect("live shard")
                    .to_string()
            })
            .collect();
        let victim = picks_before[0].clone();
        let mut moved = 0;
        for (key, before) in picks_before.iter().enumerate() {
            let mut c = FleetClient::new(&addrs, key as u64, RetryPolicy::default());
            c.evict(&victim);
            let after = c.pick().expect("live shard").to_string();
            if *before == victim {
                moved += 1;
                assert_ne!(after, victim, "evicted shard must not be picked");
            } else {
                assert_eq!(after, *before, "session off the victim must not move");
            }
        }
        assert!(moved > 0, "some sessions must have been on the victim");
    }

    #[test]
    fn rendezvous_pick_is_a_pure_function_of_key_and_live_set() {
        let addrs: Vec<String> = (0..4).map(|i| format!("10.0.0.{i}:7000")).collect();
        let a = FleetClient::new(&addrs, 42, RetryPolicy::default());
        let b = FleetClient::new(&addrs, 42, RetryPolicy::default());
        assert_eq!(a.pick(), b.pick());
        let picks: std::collections::HashSet<_> = (0..64u64)
            .filter_map(|k| {
                FleetClient::new(&addrs, k, RetryPolicy::default()).pick().map(str::to_string)
            })
            .collect();
        assert!(picks.len() > 1, "sessions must spread over more than one shard");
    }

    #[test]
    fn restore_brings_an_evicted_shard_back_into_rotation() {
        let addrs: Vec<String> = vec!["a:1".into(), "b:2".into()];
        let mut c = FleetClient::new(&addrs, 7, RetryPolicy::default());
        let home = c.pick().expect("live").to_string();
        c.evict(&home);
        assert_ne!(c.pick().expect("live"), home);
        c.restore(&home);
        assert_eq!(c.pick().expect("live"), home, "restore must reinstate the original mapping");
        c.evict("a:1");
        c.evict("b:2");
        assert!(c.pick().is_none(), "no live shard left");
    }

    #[test]
    fn fleet_call_with_all_shards_dead_fails_typed() {
        let addrs: Vec<String> = vec!["127.0.0.1:1".into()];
        let mut c = FleetClient::new(&addrs, 3, RetryPolicy::default());
        c.evict("127.0.0.1:1");
        match c.call(&Request::Hello) {
            Err(ClientError::Exhausted { last, .. }) => assert_eq!(last, "no live shard"),
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn connecting_nowhere_fails_typed_and_trips_the_breaker() {
        // Port 1 is essentially never listening; connect fails instantly.
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(200),
            breaker_threshold: 3,
            ..RetryPolicy::default()
        };
        let mut c = ResilientClient::new("127.0.0.1:1", policy);
        match c.call(&Request::Hello) {
            Err(ClientError::Exhausted { attempts: 4, .. }) => {}
            other => panic!("expected Exhausted after 4 attempts, got {other:?}"),
        }
        assert_eq!(c.stats().attempts, 4);
        assert_eq!(c.stats().retries, 3);
        assert!(c.stats().breaker_opens >= 1, "repeated failures must trip the breaker");
        match c.call(&Request::Hello) {
            Err(ClientError::CircuitOpen) => {}
            other => panic!("expected fast-fail while open, got {other:?}"),
        }
        assert_eq!(c.stats().breaker_fast_fails, 1);
    }
}
