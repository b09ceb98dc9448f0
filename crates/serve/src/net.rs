//! The connection layer shared by the selection server and the coordinator
//! (DESIGN.md §11): one listener, one accept loop, one per-connection frame
//! loop, one blocking frame client, one way to run a server on a background
//! thread. The frame loop is generic over `Read + Write`, so the tests
//! drive it over an in-memory transport that scripts wire faults too.
//!
//! The accept loop waits for a connection in `poll(2)` with a short
//! timeout and re-checks a shutdown flag, so SIGINT and a `Shutdown`
//! request drain a server the same way: stop accepting, let every
//! connection observe the flag at its next read timeout, join the
//! connection threads. A connection thread that has finished its
//! connection parks for the next one, so a short session costs a hand-off
//! instead of a thread.
//!
//! The frame loop pays syscalls per wake-up, not per frame: one `read`
//! takes every request the socket holds, and their replies leave in one
//! `write` just before the loop has to read the socket again. Before that
//! read can put the thread to sleep, the loop takes what has already
//! arrived without waiting and, finding nothing, yields its core once, so
//! a peer that answers within a time slice costs no sleep and wake-up.

use crate::protocol::{
    decode_body, encode_frame, read_frame_blocking, write_frame, FrameReader, ProtocolError,
    ReadOutcome,
};
use crate::server::ServeError;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, Read, Write};
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, SendError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop waits for a connection before it looks at the
/// shutdown flag and SIGINT again, and how long it backs off after an
/// `accept` error it outlives.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Reply bytes a connection holds back at most: past this mark they are
/// written even though requests are still buffered.
const WRITE_HIGH_WATER: usize = 64 * 1024;

/// The libc calls the connection layer needs (there is no `libc` crate
/// here): a SIGINT handler that only sets a flag the accept loop polls,
/// `poll(2)` to wait on the listener, and a `recv(2)` that does not wait.
#[cfg(unix)]
mod sys {
    use std::io::ErrorKind;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    static SIGINT: AtomicBool = AtomicBool::new(false);
    const SIGINT_NO: i32 = 2;
    const POLLIN: i16 = 0x001;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const MSG_DONTWAIT: i32 = 0x40;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const MSG_DONTWAIT: i32 = 0x80;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NfdsT = std::os::raw::c_uint;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" fn on_sigint(_: i32) {
        SIGINT.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout_ms: i32) -> i32;
        fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
    }

    pub(crate) fn install_sigint() {
        // SAFETY: `signal` is the libc function of that signature, and the
        // handler only performs an atomic store, which is async-signal-safe.
        unsafe {
            signal(SIGINT_NO, on_sigint);
        }
    }

    pub(crate) fn sigint_pending() -> bool {
        SIGINT.load(Ordering::SeqCst)
    }

    /// Block until `listener` has a connection to accept, `timeout`
    /// passes, or a signal arrives — whichever is first. The caller tries
    /// `accept` again in every case, so the outcome is not reported.
    pub(crate) fn wait_acceptable(listener: &TcpListener, timeout: Duration) {
        let mut fd = PollFd { fd: listener.as_raw_fd(), events: POLLIN, revents: 0 };
        let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        // SAFETY: `poll` is the libc function of that signature; `fd` is one
        // live, exclusively borrowed `pollfd`-layout struct and `nfds` is 1,
        // so the kernel reads and writes only that struct. The descriptor
        // stays open for the call because `listener` is borrowed across it.
        let rc = unsafe { poll(&mut fd, 1, timeout_ms) };
        // EINTR is SIGINT doing its job. Anything else (ENOMEM) must not
        // turn the accept loop into a spin: wait the timeout out instead.
        if rc < 0 && std::io::Error::last_os_error().kind() != ErrorKind::Interrupted {
            super::back_off(timeout);
        }
    }

    /// Read what `stream` has already received into `buf`, without
    /// waiting: the byte count, and 0 when nothing has arrived, the peer
    /// has closed or the call failed (the blocking read that follows tells
    /// those apart).
    pub(crate) fn recv_ready(stream: &TcpStream, buf: &mut [u8]) -> usize {
        // SAFETY: `recv` is the libc function of that signature; `buf` is
        // one live, exclusively borrowed slice of `buf.len()` bytes, the
        // most the kernel writes. The descriptor stays open for the call
        // because `stream` is borrowed across it.
        let got = unsafe { recv(stream.as_raw_fd(), buf.as_mut_ptr(), buf.len(), MSG_DONTWAIT) };
        usize::try_from(got).unwrap_or(0)
    }

    /// Whether an `accept` error number says the listener itself is
    /// unusable: `EBADF`, `EFAULT`, `EINVAL` or `ENOTSOCK`.
    pub(crate) fn listener_unusable(errno: i32) -> bool {
        const EBADF: i32 = 9;
        const EFAULT: i32 = 14;
        const EINVAL: i32 = 22;
        #[cfg(any(target_os = "linux", target_os = "android"))]
        const ENOTSOCK: i32 = 88;
        #[cfg(not(any(target_os = "linux", target_os = "android")))]
        const ENOTSOCK: i32 = 38;
        matches!(errno, EBADF | EFAULT | EINVAL | ENOTSOCK)
    }
}

#[cfg(not(unix))]
mod sys {
    pub(crate) fn install_sigint() {}
    pub(crate) fn sigint_pending() -> bool {
        false
    }
    pub(crate) fn wait_acceptable(_: &std::net::TcpListener, timeout: std::time::Duration) {
        super::back_off(timeout);
    }
    pub(crate) fn recv_ready(_: &std::net::TcpStream, _: &mut [u8]) -> usize {
        0
    }
    /// `WSAEBADF`, `WSAEFAULT`, `WSAEINVAL` and `WSAENOTSOCK`.
    pub(crate) fn listener_unusable(errno: i32) -> bool {
        matches!(errno, 10009 | 10014 | 10022 | 10038)
    }
}

/// The accept loop's one timed wait that is not `poll(2)`.
fn back_off(timeout: Duration) {
    std::thread::sleep(timeout);
}

/// Whether an `accept` error ends the accept loop. Only an unusable
/// listener does; descriptor or buffer exhaustion (`EMFILE`, `ENFILE`,
/// `ENOBUFS`, `ENOMEM`), an aborted connection and the network errors
/// accept(2) says to retry on pass, and the loop backs off one
/// [`ACCEPT_POLL`] before it accepts again, so a full descriptor table
/// cannot turn it into a spin.
fn accept_error_is_fatal(error: &std::io::Error) -> bool {
    error.raw_os_error().is_some_and(sys::listener_unusable)
}

/// What a connection thread runs for one accepted connection.
pub(crate) type ConnWork = Box<dyn FnOnce() + Send>;

/// The connection threads waiting for their next connection, each as the
/// sending half of its hand-off channel. Drain sets `closed` under the
/// lock a thread holds to park, so no thread parks once it is set.
#[derive(Default)]
struct Parked {
    threads: Vec<SyncSender<ConnWork>>,
    closed: bool,
}

/// A connection thread: run `work`, then park for the next connection
/// unless the list is closed or already holds `max_parked` threads. A
/// parked thread blocks in `recv` until it is handed work or its sender is
/// dropped at drain.
fn conn_thread(mut work: ConnWork, parked: &Mutex<Parked>, max_parked: usize) {
    loop {
        work();
        let next = {
            let mut list = parked.lock();
            if list.closed || list.threads.len() >= max_parked {
                return;
            }
            let (hand_off, next) = sync_channel(1);
            list.threads.push(hand_off);
            next
        };
        let Ok(next) = next.recv() else { return };
        work = next;
    }
}

/// The accept loop's connection threads: a parked thread takes the next
/// connection, and a thread is spawned only when none is parked.
struct ConnThreads {
    parked: Arc<Mutex<Parked>>,
    max_parked: usize,
    /// Every thread not known to have finished; finished ones are dropped
    /// on every spawn, so this is bounded by the threads alive.
    handles: Vec<JoinHandle<()>>,
}

impl ConnThreads {
    fn run(&mut self, mut work: ConnWork) {
        let parked = self.parked.lock().threads.pop();
        if let Some(thread) = parked {
            match thread.send(work) {
                Ok(()) => return,
                // Only a thread that has died drops its receiver.
                Err(SendError(unsent)) => work = unsent,
            }
        }
        self.handles.retain(|h| !h.is_finished());
        let (parked, max_parked) = (Arc::clone(&self.parked), self.max_parked);
        self.handles.push(std::thread::spawn(move || conn_thread(work, &parked, max_parked)));
    }

    /// Close the list: every parked thread wakes by disconnection (work
    /// handed over before the close is still delivered), and every other
    /// one exits when its connection ends.
    fn close(&self) {
        let parked = {
            let mut list = self.parked.lock();
            list.closed = true;
            std::mem::take(&mut list.threads)
        };
        drop(parked);
    }

    fn join(self) {
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// A bound, non-blocking listener and the threads that serve its
/// connections.
pub(crate) struct Listener {
    listener: TcpListener,
    addr: SocketAddr,
    parked: Arc<Mutex<Parked>>,
}

impl Listener {
    /// Bind `requested` (`host:port`; port 0 binds an ephemeral port —
    /// read it back with [`local_addr`](Self::local_addr)). Bind failures
    /// (EADDRINUSE and friends) come back as [`ServeError::Bind`].
    pub(crate) fn bind(requested: &str) -> Result<Self, ServeError> {
        let bind_err =
            |e: std::io::Error| ServeError::Bind { addr: requested.into(), detail: e.to_string() };
        let listener = TcpListener::bind(requested).map_err(bind_err)?;
        let addr = listener.local_addr().map_err(bind_err)?;
        listener.set_nonblocking(true).map_err(|e| ServeError::Io(e.to_string()))?;
        Ok(Self { listener, addr, parked: Arc::default() })
    }

    /// The address actually bound.
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A view of the connection threads that outlives `self` moving into
    /// [`serve`](Self::serve).
    #[cfg(test)]
    pub(crate) fn threads(&self) -> ThreadsProbe {
        ThreadsProbe(Arc::downgrade(&self.parked))
    }

    /// Accept until SIGINT, `shutdown` or an unusable listener, then drain:
    /// set `shutdown`, close the parked list and join every connection
    /// thread. `on_conn`
    /// decides each connection's fate: `Some(work)` to run on a connection
    /// thread, `None` when it was turned away (admission control answers
    /// and closes inline). At most `max_parked` finished threads wait for
    /// a next connection; with 0 every connection gets a thread of its own.
    pub(crate) fn serve(
        self,
        shutdown: &AtomicBool,
        max_parked: usize,
        mut on_conn: impl FnMut(TcpStream) -> Option<ConnWork>,
    ) -> Result<(), ServeError> {
        sys::install_sigint();
        let Self { listener, parked, .. } = self;
        let mut threads = ConnThreads { parked, max_parked, handles: Vec::new() };
        let served = loop {
            if sys::sigint_pending() {
                shutdown.store(true, Ordering::SeqCst);
            }
            if shutdown.load(Ordering::SeqCst) {
                break Ok(());
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if let Some(work) = on_conn(stream) {
                        threads.run(work);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    sys::wait_acceptable(&listener, ACCEPT_POLL);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if accept_error_is_fatal(&e) => {
                    // The server is over: its connections drain as at shutdown.
                    shutdown.store(true, Ordering::SeqCst);
                    break Err(ServeError::Io(e.to_string()));
                }
                Err(_) => back_off(ACCEPT_POLL),
            }
        };
        // The list closes before the listening socket does: a peer that
        // finds the port closed knows that no connection thread parks again.
        threads.close();
        drop(listener);
        threads.join();
        served
    }
}

/// What tests see of a listener's connection threads while it serves.
#[cfg(test)]
pub(crate) struct ThreadsProbe(std::sync::Weak<Mutex<Parked>>);

#[cfg(test)]
impl ThreadsProbe {
    /// Connection threads alive, working or parked: besides the accept
    /// loop, each of them holds the parked list.
    pub(crate) fn live(&self) -> usize {
        self.0.strong_count().saturating_sub(1)
    }

    /// Connection threads parked for a next connection.
    pub(crate) fn parked(&self) -> usize {
        self.0.upgrade().map_or(0, |parked| parked.lock().threads.len())
    }
}

/// A stream the frame loop can also read without waiting.
pub(crate) trait ReadReady: Read {
    /// Read what has already arrived into `buf`, without blocking: the
    /// byte count, and 0 when nothing has or the stream cannot tell
    /// without waiting.
    fn read_ready(&mut self, buf: &mut [u8]) -> usize;
}

impl ReadReady for TcpStream {
    fn read_ready(&mut self, buf: &mut [u8]) -> usize {
        sys::recv_ready(self, buf)
    }
}

/// One side of a framed request/response conversation, driven by
/// [`serve_frames`].
pub(crate) trait FrameHandler {
    /// What the peer sends.
    type Req: Deserialize;
    /// What it gets back.
    type Resp: Serialize;

    /// Runs once per idle read timeout, and never between a frame and
    /// [`handle`](Self::handle): whatever a frame must be answered at,
    /// `handle` picks up itself.
    fn turn(&mut self) {}

    /// Answer a complete frame from its `body` alone, before it is
    /// decoded: append the whole reply frame to `out` and return `true`,
    /// or return `false` to have the frame decoded and
    /// [`handle`](Self::handle)d.
    fn answer_raw(&mut self, _body: &[u8], _out: &mut Vec<u8>) -> bool {
        false
    }

    /// See a frame `handle` answered and did not end the conversation
    /// with: the request `body` and the whole `reply` frame.
    fn answered(&mut self, _body: &[u8], _reply: &[u8]) {}

    /// Answer one frame — or one undecodable frame, which gets its typed
    /// error response and then the connection closes. Returns the response
    /// and whether the conversation ends.
    fn handle(&mut self, request: Result<Self::Req, ProtocolError>) -> (Self::Resp, bool);
}

/// Write the pending replies, if any, with one `write_all`.
fn flush_replies<S: Write>(stream: &mut S, out: &mut Vec<u8>) -> std::io::Result<()> {
    if !out.is_empty() {
        stream.write_all(out)?;
        out.clear();
    }
    Ok(())
}

/// The per-connection loop: until shutdown, EOF, a write failure, a
/// protocol error or the handler saying it is done, answer every frame in
/// arrival order.
///
/// Requests are read into a per-connection read buffer and replies are
/// encoded into a per-connection write buffer, which is written (a) before
/// any read that has to go to the stream, (b) when it passes
/// [`WRITE_HIGH_WATER`], and (c) before the loop returns. A burst of `k`
/// pipelined requests therefore costs one `read` and one `write`, and a
/// peer that waits for each reply before sending again still gets it at
/// once: with nothing left to decode, the next step is a read.
///
/// After a burst of replies is written, the loop first takes whatever
/// the stream already holds without waiting; only if nothing has arrived
/// does it yield its core, once, before the read that may sleep. A peer
/// whose next requests are in flight then costs no sleep and wake-up.
pub(crate) fn serve_frames<S: ReadReady + Write, H: FrameHandler>(
    stream: &mut S,
    shutdown: &AtomicBool,
    handler: &mut H,
) {
    let mut input = FrameReader::new();
    let mut out = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        if !input.has_frame() && !out.is_empty() {
            // A peer we cannot write to is gone; that is not a protocol error.
            if flush_replies(stream, &mut out).is_err() {
                return;
            }
            if !input.read_ready(|free| stream.read_ready(free)) {
                std::thread::yield_now();
            }
        }
        let body = match input.read_body(stream) {
            Ok(ReadOutcome::Frame(body)) => body,
            Ok(ReadOutcome::Idle) => {
                handler.turn();
                continue;
            }
            Ok(ReadOutcome::Eof) => break,
            Err(err) => {
                let (response, _) = handler.handle(Err(err));
                let _ = encode_frame(&mut out, &response);
                break;
            }
        };
        if !handler.answer_raw(body, &mut out) {
            let request = decode_body::<H::Req>(body);
            let failed = request.is_err();
            let (response, done) = handler.handle(request);
            let mark = out.len();
            if encode_frame(&mut out, &response).is_err() || done || failed {
                break;
            }
            handler.answered(body, &out[mark..]);
        }
        if out.len() >= WRITE_HIGH_WATER && flush_replies(stream, &mut out).is_err() {
            return;
        }
    }
    let _ = flush_replies(stream, &mut out);
}

/// [`serve_frames`] over a TCP connection. `read_timeout` bounds how long
/// the connection takes to observe the shutdown flag.
pub(crate) fn serve_tcp<H: FrameHandler>(
    mut stream: TcpStream,
    read_timeout: Duration,
    shutdown: &AtomicBool,
    handler: &mut H,
) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_nodelay(true);
    serve_frames(&mut stream, shutdown, handler);
}

/// A blocking client for one framed request/response protocol
/// ([`Client`](crate::Client) speaks the selection protocol,
/// [`CoordClient`](crate::CoordClient) the lease protocol).
pub struct FrameClient<Req, Resp> {
    stream: TcpStream,
    wire: PhantomData<fn(&Req) -> Resp>,
}

impl<Req: Serialize, Resp: Deserialize> FrameClient<Req, Resp> {
    /// Connect to a server.
    pub fn connect(addr: &str) -> Result<Self, ProtocolError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream, wire: PhantomData })
    }

    /// Connect with a timeout on both the connect and later calls — the
    /// lease client uses this so a partitioned coordinator surfaces as a
    /// miss within one renewal interval, not a hung thread.
    pub(crate) fn connect_timeout(
        addr: &SocketAddr,
        timeout: Duration,
    ) -> Result<Self, ProtocolError> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self { stream, wire: PhantomData })
    }

    /// Send one request and wait for its response. A read timeout (set by
    /// `connect_timeout` or on
    /// [`stream_mut`](Self::stream_mut)) is `TimedOut`; a peer that closes
    /// before answering is `UnexpectedEof`.
    pub fn call(&mut self, request: &Req) -> Result<Resp, ProtocolError> {
        write_frame(&mut self.stream, request)?;
        read_frame_blocking(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(ErrorKind::UnexpectedEof, "peer closed mid-call").into()
        })
    }

    /// The raw stream (for read timeouts, and for tests that need to
    /// write hostile bytes).
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

/// A server running on a background thread: what `Server::spawn` and
/// `Coordinator::spawn` return. Tests and benches hold one per server
/// they start.
pub struct Running<H> {
    /// The address actually bound (`host:port`).
    pub addr: String,
    /// The server's observe-and-stop handle.
    pub handle: H,
    shutdown: fn(&H),
    thread: JoinHandle<Result<(), ServeError>>,
}

impl<H> Running<H> {
    pub(crate) fn start(
        addr: SocketAddr,
        handle: H,
        shutdown: fn(&H),
        run: impl FnOnce() -> Result<(), ServeError> + Send + 'static,
    ) -> Self {
        Self { addr: addr.to_string(), handle, shutdown, thread: std::thread::spawn(run) }
    }

    /// Wait for a server that is stopping on its own (a `Shutdown`
    /// request, `simulate_crash`) and hand back its handle for
    /// post-mortem assertions.
    ///
    /// # Panics
    /// If the server thread panicked or its accept loop failed.
    pub fn join(self) -> H {
        self.thread.join().expect("server thread panicked").expect("accept loop failed");
        self.handle
    }

    /// Request shutdown, then [`join`](Self::join).
    pub fn stop(self) -> H {
        (self.shutdown)(&self.handle);
        self.join()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Request, Response};
    use crate::scripted::{Event, Scripted, Step};

    /// Answers every request with its ordinal (padded to `pad` bytes when
    /// `pad` is set), and ends the conversation the way a session does.
    struct Ordinal<'a> {
        shutdown: &'a AtomicBool,
        pad: usize,
        served: u64,
        turns: u64,
    }

    impl FrameHandler for Ordinal<'_> {
        type Req = Request;
        type Resp = Response;

        fn turn(&mut self) {
            self.turns += 1;
        }

        fn handle(&mut self, request: Result<Request, ProtocolError>) -> (Response, bool) {
            match request {
                Ok(Request::Bye) => (Response::Bye, true),
                Ok(Request::Shutdown) => {
                    self.shutdown.store(true, Ordering::SeqCst);
                    (Response::ShuttingDown, true)
                }
                Ok(_) => {
                    self.served += 1;
                    (ordinal_reply(self.pad, self.served), false)
                }
                Err(err) => {
                    (Response::Error { code: err.code().into(), detail: String::new() }, true)
                }
            }
        }
    }

    fn ordinal_reply(pad: usize, ordinal: u64) -> Response {
        match pad {
            0 => Response::Welcome { node_id: ordinal, budget_w: 0.0 },
            pad => Response::Error { code: ordinal.to_string(), detail: "x".repeat(pad) },
        }
    }

    /// The wire bytes of replies `ordinals`, in order.
    fn replies(pad: usize, ordinals: std::ops::RangeInclusive<u64>) -> Vec<u8> {
        frames(&ordinals.map(|i| ordinal_reply(pad, i)).collect::<Vec<_>>())
    }

    fn frames<T: Serialize>(messages: &[T]) -> Vec<u8> {
        let mut wire = Vec::new();
        for message in messages {
            write_frame(&mut wire, message).expect("in-memory write");
        }
        wire
    }

    /// Run the frame loop over `steps`; returns the call log and the
    /// handler's turn count.
    fn converse(steps: Vec<Step>, pad: usize) -> (Vec<Event>, u64) {
        let shutdown = AtomicBool::new(false);
        let mut stream = Scripted::new(steps);
        let mut handler = Ordinal { shutdown: &shutdown, pad, served: 0, turns: 0 };
        serve_frames(&mut stream, &shutdown, &mut handler);
        (stream.events, handler.turns)
    }

    #[test]
    fn a_burst_of_eight_costs_one_read_and_one_write() {
        let (events, turns) = converse(vec![Step::Data(frames(&vec![Request::Hello; 8]))], 0);
        // The second read is the one that finds EOF.
        assert_eq!(events, [Event::Read, Event::Write(replies(0, 1..=8)), Event::Read]);
        assert_eq!(turns, 0, "a connection that is never idle never turns");
    }

    #[test]
    fn what_has_already_arrived_is_served_without_another_read() {
        let hello = || frames(&[Request::Hello]);
        let mut half = hello();
        let rest = half.split_off(3);
        let steps = || {
            vec![
                Step::Data(hello()),
                Step::Ready(frames(&[Request::Hello, Request::Hello])),
                Step::Data(hello()),
                Step::Ready(half.clone()),
                Step::Data(rest.clone()),
            ]
        };
        let (events, turns) = converse(steps(), 0);
        assert_eq!(
            events,
            [
                Event::Read,
                Event::Write(replies(0, 1..=1)),
                // Two frames had arrived by the time reply 1 was written.
                Event::ReadReady,
                Event::Write(replies(0, 2..=3)),
                // Nothing had: a yield, then the read that waits.
                Event::Read,
                Event::Write(replies(0, 4..=4)),
                // Half a frame had: the read that waits finishes it.
                Event::ReadReady,
                Event::Read,
                Event::Write(replies(0, 5..=5)),
                Event::Read,
            ]
        );
        assert_eq!(turns, 0);

        // A stream that cannot be read without waiting gets the same
        // replies in the same order, one read per arrival.
        let unready = steps().into_iter().map(|step| match step {
            Step::Ready(bytes) => Step::Data(bytes),
            step => step,
        });
        let (events, _) = converse(unready.collect(), 0);
        let written: Vec<u8> = events
            .into_iter()
            .filter_map(|event| match event {
                Event::Write(bytes) => Some(bytes),
                Event::Read => None,
                Event::ReadReady => panic!("a read that does not wait found data"),
            })
            .flatten()
            .collect();
        assert_eq!(written, replies(0, 1..=5));
    }

    #[test]
    fn a_complete_frame_is_answered_before_the_read_that_completes_the_next() {
        // A peer that waits for reply 1 before it finishes frame 2 must
        // not deadlock against a loop that waits for frame 2 to write.
        let mut first = frames(&[Request::Hello, Request::Hello]);
        let rest = first.split_off(first.len() - 5);
        let (events, _) = converse(vec![Step::Data(first), Step::Timeout, Step::Data(rest)], 0);
        assert_eq!(
            events,
            [
                Event::Read,
                Event::Write(replies(0, 1..=1)),
                Event::Read, // times out inside frame 2: retried, not idle
                Event::Read,
                Event::Write(replies(0, 2..=2)),
                Event::Read,
            ]
        );
    }

    #[test]
    fn replies_past_the_high_water_mark_do_not_wait_for_input_to_drain() {
        const PAD: usize = 1_000;
        let (events, _) = converse(vec![Step::Data(frames(&vec![Request::Hello; 100]))], PAD);
        let Event::Write(early) = &events[1] else {
            panic!("expected a write while requests are still buffered, got {:?}", events[1]);
        };
        assert!((WRITE_HIGH_WATER..WRITE_HIGH_WATER + 2 * PAD).contains(&early.len()));
        // Exactly: one read, the high-water write, the rest before the
        // next read, and nothing reordered or lost across the two writes.
        assert!(matches!(events[..], [Event::Read, Event::Write(_), Event::Write(_), Event::Read]));
        let Event::Write(late) = &events[2] else { unreachable!("matched above") };
        assert_eq!([early.as_slice(), late.as_slice()].concat(), replies(PAD, 1..=100));
    }

    #[test]
    fn the_last_reply_is_written_before_the_loop_returns() {
        // Bye, Shutdown and a malformed frame each end the conversation:
        // their reply leaves with what was pending, nothing after them is
        // served, and the stream is not read again.
        let mut garbage = frames(&[Request::Hello]);
        garbage.extend_from_slice(&2u32.to_be_bytes());
        garbage.extend_from_slice(b"{}");
        garbage.extend_from_slice(&frames(&[Request::Hello]));
        let error = Response::Error { code: "malformed".into(), detail: String::new() };
        for (wire, last) in [
            (frames(&[Request::Hello, Request::Bye, Request::Hello]), Response::Bye),
            (frames(&[Request::Hello, Request::Shutdown, Request::Hello]), Response::ShuttingDown),
            (garbage, error),
        ] {
            let (events, _) = converse(vec![Step::Data(wire)], 0);
            let replies = [Response::Welcome { node_id: 1, budget_w: 0.0 }, last];
            assert_eq!(events, [Event::Read, Event::Write(frames(&replies))]);
        }
    }

    #[test]
    fn an_idle_connection_turns_without_writing() {
        let (events, turns) = converse(vec![Step::Timeout, Step::Timeout], 0);
        assert_eq!(events, [Event::Read, Event::Read, Event::Read]);
        assert_eq!(turns, 2, "one per timeout, none for the read that found EOF");
    }

    #[test]
    fn parked_threads_take_the_next_connection_up_to_max_parked() {
        let parked = Arc::<Mutex<Parked>>::default();
        let mut threads =
            ConnThreads { parked: Arc::clone(&parked), max_parked: 2, handles: Vec::new() };
        let parked_now = || parked.lock().threads.len();
        let (ran_tx, ran) = std::sync::mpsc::channel();
        let report = || -> ConnWork {
            let ran_tx = ran_tx.clone();
            Box::new(move || ran_tx.send(std::thread::current().id()).expect("test waits"))
        };

        // One connection at a time: the thread that served the last one
        // serves the next, and no second thread is ever started.
        let mut served_by = Vec::new();
        for _ in 0..1_000 {
            threads.run(report());
            served_by.push(ran.recv().expect("the work ran"));
            while parked_now() == 0 {
                std::thread::yield_now();
            }
        }
        assert!(served_by.iter().all(|id| *id == served_by[0]));
        assert_eq!(threads.handles.len(), 1);

        // Four at once take the parked thread and three new ones; when
        // they finish, two park and two exit.
        let gate = Arc::new(std::sync::Barrier::new(5));
        for _ in 0..4 {
            let gate = Arc::clone(&gate);
            threads.run(Box::new(move || {
                gate.wait();
            }));
        }
        gate.wait();
        // The test and the accept loop's handle hold the list too.
        while Arc::strong_count(&parked) - 2 > 2 || parked_now() < 2 {
            std::thread::yield_now();
        }
        assert_eq!(threads.handles.len(), 4, "nothing finished has been reaped yet");

        // Work handed to a parked thread just before the close still runs.
        threads.run(report());
        threads.close();
        threads.join();
        assert!(ran.try_recv().is_ok(), "drain dropped handed-over work");
        assert_eq!(Arc::strong_count(&parked), 1, "a connection thread outlived drain");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn only_an_unusable_listener_ends_the_accept_loop() {
        let fatal = |errno| accept_error_is_fatal(&std::io::Error::from_raw_os_error(errno));
        // EBADF, EFAULT, EINVAL, ENOTSOCK.
        for errno in [9, 14, 22, 88] {
            assert!(fatal(errno), "errno {errno} is the listener's own failure");
        }
        // EPERM, ENOMEM, ENFILE, EMFILE, ENONET, EPROTO, ENOPROTOOPT,
        // EOPNOTSUPP, ENETDOWN, ENETUNREACH, ECONNABORTED, ENOBUFS,
        // EHOSTDOWN, EHOSTUNREACH.
        for errno in [1, 12, 23, 24, 64, 71, 92, 95, 100, 101, 103, 105, 112, 113] {
            assert!(!fatal(errno), "errno {errno} is worth another accept");
        }
        assert!(!accept_error_is_fatal(&std::io::Error::other("no errno")));
    }
}
