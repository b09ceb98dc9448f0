//! A seeded fault-injecting TCP proxy, in the spirit of the PR-1
//! `FaultPlan`: the simulator's fault harness injected failures *inside*
//! the machine; this one injects them *around* the process, on the wire
//! between a client (loadgen, the resilient client, a test) and the
//! server. Jepsen-style, but deterministic: every fault decision comes
//! from a splitmix64 stream seeded by `(plan seed, connection index)`, so
//! a chaos run replays.
//!
//! The proxy is frame-aware in the client→server direction — it reads
//! whole length-prefixed frames and then decides, per frame, to
//!
//! - **disconnect**: drop both sides mid-conversation (mid-batch included),
//! - **tear**: forward the header and half the body, then close,
//! - **corrupt**: overwrite one payload byte with `0xFF` (never valid
//!   UTF-8, so the server *must* answer a typed `invalid-utf8` error —
//!   a random printable flip could accidentally remain valid JSON),
//! - **delay**: hold the frame for `delay_ms` before forwarding,
//! - **dribble**: slow-loris the frame — deliver it one byte per poll
//!   tick, so the server's read loop is exercised by a well-formed frame
//!   arriving arbitrarily slowly (not just by tears),
//! - **duplicate**: forward the frame twice (the server answers twice;
//!   a naive closed-loop client desyncs, which is the point),
//! - **partition**: open a proxy-wide blackhole window for
//!   `partition_ms`: both directions silently swallow bytes while every
//!   connection *stays open* — the network-partition shape (distinct from
//!   disconnect, which the peer observes immediately as EOF). Lease
//!   renewals crossing the window time out, which is what drives a shard
//!   into degraded mode.
//!
//! or forward it untouched. The server→client direction is a transparent
//! byte pump (except during a partition window): the contract under test
//! is the *server's* hardening, and asymmetric injection keeps every
//! fault attributable.
//!
//! The hardening contract (checked by `tests/chaosproxy.rs` and the
//! `bench_recovery` smoke): every injected fault maps to a typed
//! [`ProtocolError`](crate::ProtocolError) response or a clean session
//! drop — never a panic, and never a poisoned arbiter (budget
//! conservation holds after every disconnect).

use crate::net::{Listener, Running};
use crate::protocol::MAX_FRAME_LEN;
use crate::server::ServeError;
use acs_sim::noise::{splitmix64, SplitMix64};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pump read timeout; bounds shutdown latency.
const PUMP_READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Per-frame fault probabilities. Probabilities are evaluated in the
/// documented order (disconnect, tear, corrupt, delay, duplicate) against
/// a single roll, so their sum must stay ≤ 1.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChaosPlan {
    /// Seed of the fault-decision stream.
    pub seed: u64,
    /// P(drop both directions mid-conversation).
    pub disconnect_p: f64,
    /// P(forward a torn frame — header plus half the body — then close).
    pub tear_p: f64,
    /// P(overwrite one payload byte with `0xFF`).
    pub corrupt_p: f64,
    /// P(hold the frame for `delay_ms`).
    pub delay_p: f64,
    /// Delay duration, ms.
    pub delay_ms: u64,
    /// P(slow-loris the frame: one byte per poll tick). Absent in plans
    /// serialized before the fault existed, hence the serde default.
    #[serde(default)]
    pub dribble_p: f64,
    /// P(forward the frame twice).
    pub dup_p: f64,
    /// P(open a proxy-wide partition window: both directions blackhole
    /// for `partition_ms` while connections stay open).
    pub partition_p: f64,
    /// Partition-window length, ms.
    pub partition_ms: u64,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        Self {
            seed: 2014,
            disconnect_p: 0.02,
            tear_p: 0.02,
            corrupt_p: 0.02,
            delay_p: 0.05,
            delay_ms: 20,
            dribble_p: 0.02,
            dup_p: 0.02,
            partition_p: 0.0,
            partition_ms: 0,
        }
    }
}

impl ChaosPlan {
    /// A plan that injects nothing (a transparent proxy).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            disconnect_p: 0.0,
            tear_p: 0.0,
            corrupt_p: 0.0,
            delay_p: 0.0,
            dribble_p: 0.0,
            dup_p: 0.0,
            delay_ms: 0,
            partition_p: 0.0,
            partition_ms: 0,
        }
    }

    /// Validate probabilities: each in [0, 1], summing to ≤ 1.
    pub fn validate(&self) -> Result<(), String> {
        let ps = [
            ("disconnect", self.disconnect_p),
            ("tear", self.tear_p),
            ("corrupt", self.corrupt_p),
            ("delay", self.delay_p),
            ("dribble", self.dribble_p),
            ("dup", self.dup_p),
            ("partition", self.partition_p),
        ];
        for (name, p) in ps {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} probability {p} is outside [0, 1]"));
            }
        }
        let total: f64 = ps.iter().map(|(_, p)| p).sum();
        if total > 1.0 {
            return Err(format!("fault probabilities sum to {total}, above 1"));
        }
        Ok(())
    }
}

/// Counters of what the proxy actually injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ChaosStats {
    /// Connections accepted.
    pub connections: u64,
    /// Client→server frames seen (including faulted ones).
    pub frames: u64,
    /// Frames forwarded untouched.
    pub forwarded: u64,
    /// Mid-conversation disconnects injected.
    pub disconnects: u64,
    /// Torn frames injected.
    pub torn: u64,
    /// Corrupted frames injected.
    pub corrupted: u64,
    /// Delayed frames injected.
    pub delayed: u64,
    /// Dribbled (slow-loris) frames injected.
    #[serde(default)]
    pub dribbled: u64,
    /// Duplicated frames injected.
    pub duplicated: u64,
    /// Partition windows opened.
    pub partitions: u64,
    /// Frames and byte chunks silently swallowed inside partition windows.
    pub blackholed: u64,
}

impl ChaosStats {
    /// Total faults injected (blackholed traffic is a consequence of a
    /// partition window, not a separate injection).
    pub fn faults(&self) -> u64 {
        self.disconnects
            + self.torn
            + self.corrupted
            + self.delayed
            + self.dribbled
            + self.duplicated
            + self.partitions
    }
}

struct ProxyShared {
    upstream: String,
    plan: ChaosPlan,
    shutdown: AtomicBool,
    /// When the proxy started; partition deadlines are ms since this.
    started: Instant,
    /// End of the current partition window, ms since `started` (0 = none).
    /// Proxy-wide on purpose: a network partition severs every connection
    /// crossing it at once, not one frame stream.
    partition_until_ms: AtomicU64,
    connections: AtomicU64,
    frames: AtomicU64,
    forwarded: AtomicU64,
    disconnects: AtomicU64,
    torn: AtomicU64,
    corrupted: AtomicU64,
    delayed: AtomicU64,
    dribbled: AtomicU64,
    duplicated: AtomicU64,
    partitions: AtomicU64,
    blackholed: AtomicU64,
}

impl ProxyShared {
    fn new(upstream: &str, plan: ChaosPlan) -> Self {
        let zero = || AtomicU64::new(0);
        Self {
            upstream: upstream.to_string(),
            plan,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            partition_until_ms: zero(),
            connections: zero(),
            frames: zero(),
            forwarded: zero(),
            disconnects: zero(),
            torn: zero(),
            corrupted: zero(),
            delayed: zero(),
            dribbled: zero(),
            duplicated: zero(),
            partitions: zero(),
            blackholed: zero(),
        }
    }

    /// Whether a partition window is currently open.
    fn partition_active(&self) -> bool {
        let now_ms = self.started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
        now_ms < self.partition_until_ms.load(Ordering::SeqCst)
    }

    /// Open (or extend) a partition window of `ms` from now.
    fn open_partition(&self, ms: u64) {
        let now_ms = self.started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
        self.partition_until_ms.fetch_max(now_ms.saturating_add(ms), Ordering::SeqCst);
        self.partitions.fetch_add(1, Ordering::Relaxed);
    }
}

/// Observe and stop a running proxy from another thread.
#[derive(Clone)]
pub struct ChaosProxyHandle {
    shared: Arc<ProxyShared>,
}

impl ChaosProxyHandle {
    /// Ask the accept loop and every pump to drain.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Snapshot of the injection counters.
    pub fn stats(&self) -> ChaosStats {
        let s = &self.shared;
        ChaosStats {
            connections: s.connections.load(Ordering::Relaxed),
            frames: s.frames.load(Ordering::Relaxed),
            forwarded: s.forwarded.load(Ordering::Relaxed),
            disconnects: s.disconnects.load(Ordering::Relaxed),
            torn: s.torn.load(Ordering::Relaxed),
            corrupted: s.corrupted.load(Ordering::Relaxed),
            delayed: s.delayed.load(Ordering::Relaxed),
            dribbled: s.dribbled.load(Ordering::Relaxed),
            duplicated: s.duplicated.load(Ordering::Relaxed),
            partitions: s.partitions.load(Ordering::Relaxed),
            blackholed: s.blackholed.load(Ordering::Relaxed),
        }
    }

    /// Force a partition window of `ms` open right now (the benches and
    /// tests use this for a deterministic partition instead of a roll).
    pub fn partition(&self, ms: u64) {
        self.shared.open_partition(ms);
    }

    /// Whether a partition window is currently open.
    pub fn partition_active(&self) -> bool {
        self.shared.partition_active()
    }
}

/// A bound, not-yet-running chaos proxy.
pub struct ChaosProxy {
    listener: Listener,
    shared: Arc<ProxyShared>,
}

impl ChaosProxy {
    /// Bind `listen` (`host:port`, port 0 for ephemeral) and prepare to
    /// forward every connection to `upstream` under `plan`.
    pub fn bind(listen: &str, upstream: &str, plan: ChaosPlan) -> Result<Self, ServeError> {
        plan.validate().map_err(|detail| ServeError::Bind { addr: listen.into(), detail })?;
        Ok(Self {
            listener: Listener::bind(listen)?,
            shared: Arc::new(ProxyShared::new(upstream, plan)),
        })
    }

    /// Bind, then proxy on a background thread until stopped.
    pub fn spawn(
        listen: &str,
        upstream: &str,
        plan: ChaosPlan,
    ) -> Result<Running<ChaosProxyHandle>, ServeError> {
        let proxy = Self::bind(listen, upstream, plan)?;
        let (addr, handle) = (proxy.local_addr(), proxy.handle());
        Ok(Running::start(addr, handle, ChaosProxyHandle::shutdown, move || proxy.run()))
    }

    /// The address actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// A handle usable while [`run`](Self::run) blocks.
    pub fn handle(&self) -> ChaosProxyHandle {
        ChaosProxyHandle { shared: Arc::clone(&self.shared) }
    }

    /// Proxy until SIGINT or [`ChaosProxyHandle::shutdown`], then drain.
    pub fn run(self) -> Result<(), ServeError> {
        let shared = self.shared;
        // A fault drill, not a hot path: every connection gets a thread.
        self.listener.serve(&shared.shutdown, 0, |client| {
            let conn_id = shared.connections.fetch_add(1, Ordering::SeqCst);
            let shared = Arc::clone(&shared);
            Some(Box::new(move || handle_conn(shared, client, conn_id)))
        })
    }
}

/// One proxied connection: spawn the transparent server→client pump,
/// run the fault-injecting client→server pump inline, then tear both
/// sides down.
fn handle_conn(shared: Arc<ProxyShared>, client: TcpStream, conn_id: u64) {
    let Ok(server) = TcpStream::connect(&shared.upstream) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    let _ = client.set_read_timeout(Some(PUMP_READ_TIMEOUT));
    let _ = server.set_read_timeout(Some(PUMP_READ_TIMEOUT));

    let (Ok(server_read), Ok(client_write)) = (server.try_clone(), client.try_clone()) else {
        let _ = client.shutdown(Shutdown::Both);
        let _ = server.shutdown(Shutdown::Both);
        return;
    };
    let back_shared = Arc::clone(&shared);
    let back = std::thread::spawn(move || pump_bytes(server_read, client_write, &back_shared));

    inject_frames(&shared, client.try_clone().ok(), client, server, conn_id);
    let _ = back.join();
}

/// Transparent byte pump (server→client). Exits on EOF, error, or proxy
/// shutdown; closing its streams unblocks the other pump too.
fn pump_bytes(mut from: TcpStream, mut to: TcpStream, shared: &ProxyShared) {
    let mut buf = [0u8; 4096];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                // Inside a partition window the bytes vanish: the sender
                // saw a successful write, the receiver sees silence, and
                // the connection stays open — unlike a disconnect.
                if shared.partition_active() {
                    shared.blackholed.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Read one raw length-prefixed frame (idle-aware). `Ok(None)` = clean
/// EOF or shutdown; oversized prefixes are passed back to the caller as
/// a frame with an empty body so the bytes still reach the server, which
/// answers with its own typed `oversized` error.
fn read_raw_frame(
    stream: &mut TcpStream,
    shared: &ProxyShared,
) -> Result<Option<(u32, Vec<u8>)>, ()> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < header.len() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(None);
        }
        match stream.read(&mut header[got..]) {
            Ok(0) => return if got == 0 { Ok(None) } else { Err(()) },
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return Err(()),
        }
    }
    let len = u32::from_be_bytes(header);
    if len as usize > MAX_FRAME_LEN {
        // Forward the hostile prefix as-is; the server rejects it typed.
        return Ok(Some((len, Vec::new())));
    }
    let mut body = vec![0u8; len as usize];
    let mut got = 0usize;
    while got < body.len() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(None);
        }
        match stream.read(&mut body[got..]) {
            Ok(0) => return Err(()),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return Err(()),
        }
    }
    Ok(Some((len, body)))
}

/// The fault-injecting client→server pump.
fn inject_frames(
    shared: &ProxyShared,
    client_close: Option<TcpStream>,
    mut client: TcpStream,
    mut server: TcpStream,
    conn_id: u64,
) {
    let plan = shared.plan;
    // Seeded per connection so chaos runs replay.
    let mut rng = SplitMix64(plan.seed ^ splitmix64(conn_id.wrapping_add(1)));
    let close_both = |server: &TcpStream| {
        let _ = server.shutdown(Shutdown::Both);
        if let Some(c) = &client_close {
            let _ = c.shutdown(Shutdown::Both);
        }
    };
    while let Ok(Some((len, mut body))) = read_raw_frame(&mut client, shared) {
        shared.frames.fetch_add(1, Ordering::Relaxed);
        if len as usize > MAX_FRAME_LEN {
            // Oversized prefix from a hostile client: forward verbatim and
            // stop being frame-aware (the server closes after its typed
            // error anyway).
            let _ = server.write_all(&len.to_be_bytes());
            let _ = server.flush();
            continue;
        }

        // A frame arriving inside a partition window is swallowed whole —
        // no fault roll, no forwarding, connection intact.
        if shared.partition_active() {
            shared.blackholed.fetch_add(1, Ordering::Relaxed);
            continue;
        }

        let roll = rng.next_f64();
        let mut edge = plan.partition_p;
        if roll < edge {
            // Open the window and swallow the triggering frame with it.
            shared.open_partition(plan.partition_ms);
            shared.blackholed.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        edge += plan.disconnect_p;
        if roll < edge {
            shared.disconnects.fetch_add(1, Ordering::Relaxed);
            close_both(&server);
            break;
        }
        edge += plan.tear_p;
        if roll < edge {
            shared.torn.fetch_add(1, Ordering::Relaxed);
            let half = body.len() / 2;
            let _ = server.write_all(&len.to_be_bytes());
            let _ = server.write_all(&body[..half]);
            let _ = server.flush();
            close_both(&server);
            break;
        }
        edge += plan.corrupt_p;
        if roll < edge && !body.is_empty() {
            shared.corrupted.fetch_add(1, Ordering::Relaxed);
            let at = (rng.next_u64() % body.len() as u64) as usize;
            body[at] = 0xFF;
        } else {
            edge += plan.delay_p;
            if roll < edge {
                shared.delayed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(plan.delay_ms));
            } else {
                edge += plan.dribble_p;
                if roll < edge {
                    // Slow-loris: the whole (well-formed) frame arrives
                    // one byte per tick; nothing left for the fall-through
                    // write below.
                    shared.dribbled.fetch_add(1, Ordering::Relaxed);
                    if dribble_frame(&mut server, len, &body).is_err() {
                        break;
                    }
                    continue;
                }
                edge += plan.dup_p;
                if roll < edge {
                    shared.duplicated.fetch_add(1, Ordering::Relaxed);
                    if write_frame_raw(&mut server, len, &body).is_err() {
                        break;
                    }
                } else {
                    shared.forwarded.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if write_frame_raw(&mut server, len, &body).is_err() {
            break;
        }
    }
    let _ = server.shutdown(Shutdown::Both);
    let _ = client.shutdown(Shutdown::Both);
}

/// Prefix and body in one `write_all` — one segment, like `write_frame`.
fn write_frame_raw(stream: &mut TcpStream, len: u32, body: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(body);
    stream.write_all(&frame)?;
    stream.flush()
}

/// One byte per poll tick, header included — the slow-loris shape the
/// `dribble` fault injects.
const DRIBBLE_TICK: Duration = Duration::from_millis(1);

fn dribble_frame(stream: &mut TcpStream, len: u32, body: &[u8]) -> std::io::Result<()> {
    for byte in len.to_be_bytes().iter().chain(body.iter()) {
        stream.write_all(std::slice::from_ref(byte))?;
        stream.flush()?;
        std::thread::sleep(DRIBBLE_TICK);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_validates() {
        assert!(ChaosPlan::default().validate().is_ok());
        assert!(ChaosPlan::quiet(7).validate().is_ok());
    }

    #[test]
    fn out_of_range_probabilities_are_rejected() {
        let plan = ChaosPlan { tear_p: 1.5, ..ChaosPlan::quiet(1) };
        assert!(plan.validate().unwrap_err().contains("tear"));
        let plan = ChaosPlan { corrupt_p: -0.1, ..ChaosPlan::quiet(1) };
        assert!(plan.validate().unwrap_err().contains("corrupt"));
        let plan =
            ChaosPlan { disconnect_p: 0.5, tear_p: 0.4, corrupt_p: 0.3, ..ChaosPlan::quiet(1) };
        assert!(plan.validate().unwrap_err().contains("sum"));
    }

    #[test]
    fn stats_faults_sums_the_injections() {
        let s = ChaosStats {
            connections: 1,
            frames: 10,
            forwarded: 5,
            disconnects: 1,
            torn: 1,
            corrupted: 1,
            delayed: 1,
            dribbled: 1,
            duplicated: 1,
            partitions: 1,
            blackholed: 3,
        };
        assert_eq!(s.faults(), 7);
    }

    #[test]
    fn partition_probability_participates_in_validation() {
        let plan = ChaosPlan { partition_p: 1.5, ..ChaosPlan::quiet(1) };
        assert!(plan.validate().unwrap_err().contains("partition"));
        let plan =
            ChaosPlan { disconnect_p: 0.5, tear_p: 0.3, partition_p: 0.3, ..ChaosPlan::quiet(1) };
        assert!(plan.validate().unwrap_err().contains("sum"));
    }

    #[test]
    fn partition_windows_open_extend_and_close() {
        let shared = ProxyShared::new("", ChaosPlan::quiet(1));
        assert!(!shared.partition_active());
        shared.open_partition(60_000);
        assert!(shared.partition_active());
        assert_eq!(shared.partitions.load(Ordering::Relaxed), 1);
        // A second window only ever extends the deadline.
        let before = shared.partition_until_ms.load(Ordering::SeqCst);
        shared.open_partition(1);
        assert!(shared.partition_until_ms.load(Ordering::SeqCst) >= before);
        // Forcing the deadline into the past closes the window.
        shared.partition_until_ms.store(1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(2));
        assert!(!shared.partition_active());
    }
}
