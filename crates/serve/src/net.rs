//! The connection layer shared by the selection server, the coordinator
//! and the chaos proxy (DESIGN.md §11): one listener, one accept loop, one
//! per-connection frame loop, one blocking frame client, one way to run a
//! server on a background thread.
//!
//! The accept loop is non-blocking and polls a shutdown flag, so SIGINT
//! and a `Shutdown` request drain a server the same way: stop accepting,
//! let every connection observe the flag at its next read timeout, join
//! the connection threads. Finished threads are reaped on every accept,
//! so the tracked set is bounded by the connections currently alive.

use crate::protocol::{read_frame, read_frame_blocking, write_frame, ProtocolError, ReadOutcome};
use crate::server::ServeError;
use serde::{Deserialize, Serialize};
use std::io::ErrorKind;
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop sleeps when no connection is pending.
pub(crate) const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// SIGINT plumbing: the handler only sets a flag the accept loop polls.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGINT: AtomicBool = AtomicBool::new(false);
    const SIGINT_NO: i32 = 2;

    extern "C" fn on_sigint(_: i32) {
        SIGINT.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        // SAFETY: `signal` is the libc function of that signature, and the
        // handler only performs an atomic store, which is async-signal-safe.
        unsafe {
            signal(SIGINT_NO, on_sigint);
        }
    }

    pub fn pending() -> bool {
        SIGINT.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn pending() -> bool {
        false
    }
}

/// Join handles of the live connection threads. Pushing reaps the
/// finished ones first, so a long-running server tracks as many handles
/// as it has connections, not as many as it has ever accepted.
#[derive(Default)]
pub(crate) struct Reaper {
    handles: Vec<JoinHandle<()>>,
}

impl Reaper {
    pub(crate) fn push(&mut self, handle: JoinHandle<()>) {
        self.handles.retain(|h| !h.is_finished());
        self.handles.push(handle);
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.handles.len()
    }

    pub(crate) fn join_all(self) {
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// A bound, non-blocking listener.
pub(crate) struct Listener {
    listener: TcpListener,
    addr: SocketAddr,
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
        Ok(Self { listener, addr })
    }

    /// The address actually bound.
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accept until SIGINT or `shutdown`, then join every connection
    /// thread. `on_conn` decides each connection's fate: `Some(handle)`
    /// for a spawned connection thread, `None` when it was turned away
    /// (admission control answers and closes inline).
    pub(crate) fn serve(
        self,
        shutdown: &AtomicBool,
        mut on_conn: impl FnMut(TcpStream) -> Option<JoinHandle<()>>,
    ) -> Result<(), ServeError> {
        sig::install();
        let mut conns = Reaper::default();
        loop {
            if sig::pending() {
                shutdown.store(true, Ordering::SeqCst);
            }
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if let Some(handle) = on_conn(stream) {
                        conns.push(handle);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ServeError::Io(e.to_string())),
            }
        }
        conns.join_all();
        Ok(())
    }
}

/// One side of a framed request/response conversation, driven by
/// [`serve_frames`].
pub(crate) trait FrameHandler {
    /// What the peer sends.
    type Req: Deserialize;
    /// What it gets back.
    type Resp: Serialize;

    /// Runs at the top of every loop turn, idle read timeouts included.
    fn turn(&mut self) {}

    /// Answer one frame — or one undecodable frame, which gets its typed
    /// error response and then the connection closes. Returns the response
    /// and whether the conversation ends.
    fn handle(&mut self, request: Result<Self::Req, ProtocolError>) -> (Self::Resp, bool);
}

/// The per-connection loop: until shutdown, EOF, a write failure, a
/// protocol error or the handler saying it is done, read one frame and
/// write its response. `read_timeout` bounds how long the connection
/// takes to observe the shutdown flag.
pub(crate) fn serve_frames<H: FrameHandler>(
    mut stream: TcpStream,
    read_timeout: Duration,
    shutdown: &AtomicBool,
    handler: &mut H,
) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_nodelay(true);
    while !shutdown.load(Ordering::SeqCst) {
        handler.turn();
        let request = match read_frame::<_, H::Req>(&mut stream) {
            Ok(ReadOutcome::Frame(request)) => Ok(request),
            Ok(ReadOutcome::Idle) => continue,
            Ok(ReadOutcome::Eof) => break,
            Err(err) => Err(err),
        };
        let failed = request.is_err();
        let (response, done) = handler.handle(request);
        if write_frame(&mut stream, &response).is_err() || done || failed {
            break;
        }
    }
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
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> Result<Self, ProtocolError> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self { stream, wire: PhantomData })
    }

    /// Send one request and wait for its response. A read timeout (set by
    /// [`connect_timeout`](Self::connect_timeout) or on
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

/// A server running on a background thread: what `Server::spawn`,
/// `Coordinator::spawn` and `ChaosProxy::spawn` return. Tests, benches
/// and the chaos-fleet orchestrator hold one per server they start.
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

    #[test]
    fn reaper_tracks_live_threads_not_every_thread_ever_pushed() {
        let mut conns = Reaper::default();
        for _ in 0..1_000 {
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            conns.push(std::thread::spawn(move || done_tx.send(()).expect("receiver waits")));
            done_rx.recv().expect("thread ran");
            // The thread has sent its last word; give it a moment to exit
            // so the next push can reap it.
            while !conns.handles.last().expect("just pushed").is_finished() {
                std::thread::yield_now();
            }
        }
        assert!(conns.len() <= 2, "{} handles tracked after 1000 short threads", conns.len());
        conns.join_all();
    }
}
