//! Bringing the system under test up and down.
//!
//! Everything here is what a deployment does before it can serve:
//! characterize the suite, train, persist and reload the model, bind the
//! server and run it on a thread of its own. The server runs in-process
//! and standalone; the load comes from the same process over loopback.

use crate::script::{decode_response, frame_of, Entry};
use crate::Res;
use acs_core::eval::{characterize_apps, AppProfiles};
use acs_core::{train, KernelProfile, TrainedModel, TrainingParams};
use acs_serve::{
    Engine, Request, Response, ServeConfig, ServeError, Server, ServerHandle, StatsSnapshot,
    MAX_FRAME_LEN,
};
use acs_sim::{FamilyId, Machine};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

/// The machine seed of every serve workload: the repository's experiment
/// seed, so the model under test is the one the committed results describe
/// and only the request stream varies with `--seed`.
pub const MACHINE_SEED: u64 = 2014;

/// A characterized suite and the model trained on all of it.
pub struct Trained {
    /// Per-application profiles (what `evaluate` consumes).
    pub apps: Vec<AppProfiles>,
    /// The same profiles flattened, in `all_kernel_instances()` order.
    pub profiles: Vec<KernelProfile>,
    /// Kernel ids, aligned with `profiles`.
    pub kernel_ids: Vec<String>,
    /// The model trained on `profiles`.
    pub model: TrainedModel,
}

/// Characterize one suite.
pub fn characterize(family: FamilyId, machine_seed: u64) -> Vec<AppProfiles> {
    characterize_apps(&Machine::from_family(family, machine_seed), &acs_kernels::app_instances())
}

/// Characterize the serve workloads' suite and train on all of it.
pub fn train_suite() -> Res<Trained> {
    let apps = characterize(FamilyId::Trinity, MACHINE_SEED);
    let profiles: Vec<KernelProfile> =
        apps.iter().flat_map(|a| a.profiles.iter().cloned()).collect();
    let kernel_ids = profiles.iter().map(|p| p.kernel.id()).collect();
    let model = train(&profiles, TrainingParams::default()).map_err(|e| format!("train: {e}"))?;
    Ok(Trained { apps, profiles, kernel_ids, model })
}

/// The offline stage as a deployment runs it: characterize, train, save
/// the model under `dir` and serve the copy loaded back from disk.
pub fn characterize_and_train(dir: &Path) -> Res<Trained> {
    let mut trained = train_suite()?;
    let path = dir.join("model.json");
    trained.model.save(&path).map_err(|e| format!("save model: {e}"))?;
    let loaded = TrainedModel::load(&path).map_err(|e| format!("load model: {e}"))?;
    if loaded != trained.model {
        return Err("the reloaded model differs from the trained one".into());
    }
    trained.model = loaded;
    Ok(trained)
}

/// A server running on its own thread.
pub struct LiveServer {
    /// `host:port` it listens on.
    pub addr: String,
    /// Observation and shutdown handle.
    pub handle: ServerHandle,
    join: JoinHandle<Result<(), ServeError>>,
}

impl LiveServer {
    /// Bind an ephemeral loopback port and start serving.
    pub fn start(config: ServeConfig, model: TrainedModel) -> Res<Self> {
        let server = Server::bind(config, model).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        Ok(Self { addr, handle, join })
    }

    /// Ask the server to stop and wait until it has.
    pub fn stop(self) -> Res<()> {
        self.handle.shutdown();
        match self.join.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server stopped with an error: {e}")),
            Err(_) => Err("the server thread panicked".into()),
        }
    }
}

/// One client connection that reads responses as raw length-prefixed
/// bytes into a reused buffer: no `Response` is decoded unless a check
/// asks for it.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    end: usize,
}

impl Conn {
    /// Connect with Nagle off, as the repository's own client does.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream, buf: vec![0; 64 << 10], pos: 0, end: 0 })
    }

    /// Send one pre-encoded frame.
    pub fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(frame)
    }

    /// The body of the next response frame; valid until the next call.
    pub fn recv(&mut self) -> std::io::Result<&[u8]> {
        self.fill(4)?;
        let header: [u8; 4] = self.buf[self.pos..self.pos + 4].try_into().expect("4 bytes");
        let len = u32::from_be_bytes(header) as usize;
        if len > MAX_FRAME_LEN {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("response frame of {len} bytes exceeds the protocol maximum"),
            ));
        }
        self.fill(4 + len)?;
        let body = &self.buf[self.pos + 4..self.pos + 4 + len];
        self.pos += 4 + len;
        Ok(body)
    }

    /// Send one frame and wait for its response.
    pub fn call(&mut self, frame: &[u8]) -> std::io::Result<&[u8]> {
        self.send(frame)?;
        self.recv()
    }

    /// One control-plane exchange (handshake, STATS, goodbye): encode
    /// `request`, send it, decode the reply. Never used on a timed path.
    pub fn request(&mut self, request: &Request) -> Res<Response> {
        let body = self.call(&frame_of(request)).map_err(|e| format!("{request:?}: {e}"))?;
        decode_response(body)
    }

    /// `Hello`, returning the session's budget, W.
    pub fn hello(&mut self) -> Res<f64> {
        match self.request(&Request::Hello)? {
            Response::Welcome { budget_w, .. } => Ok(budget_w),
            other => Err(format!("Hello was answered with {other:?}")),
        }
    }

    /// `Stats`, returning the server's snapshot.
    pub fn stats(&mut self) -> Res<StatsSnapshot> {
        match self.request(&Request::Stats)? {
            Response::Stats(snapshot) => Ok(*snapshot),
            other => Err(format!("Stats was answered with {other:?}")),
        }
    }

    /// `Bye`, closing the session politely.
    pub fn bye(mut self) -> Res<()> {
        match self.request(&Request::Bye)? {
            Response::Bye => Ok(()),
            other => Err(format!("Bye was answered with {other:?}")),
        }
    }

    /// Make at least `need` unread bytes available.
    fn fill(&mut self, need: usize) -> std::io::Result<()> {
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
        }
        while self.end - self.pos < need {
            if self.pos + need > self.buf.len() {
                self.buf.copy_within(self.pos..self.end, 0);
                self.end -= self.pos;
                self.pos = 0;
                if need > self.buf.len() {
                    self.buf.resize(need.next_power_of_two(), 0);
                }
            }
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "the server closed the connection mid-frame",
                    ))
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// An engine for `model` on the serve workloads' machine, built apart
/// from any server: the reference the checks and the replay answer from.
pub fn reference_engine(model: &TrainedModel) -> Engine {
    Engine::new(Arc::new(model.clone()), Machine::from_family(FamilyId::Trinity, MACHINE_SEED))
}

/// Open `lanes` connections and say `Hello` on each.
pub fn connect_lanes(addr: &str, lanes: usize) -> Res<Vec<Conn>> {
    (0..lanes)
        .map(|_| {
            let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
            conn.hello()?;
            Ok(conn)
        })
        .collect()
}

/// What a server's final STATS must not show: frames it could not parse,
/// work it refused.
pub fn refusals(stats: &StatsSnapshot, problems: &mut Vec<String>) {
    if stats.protocol_errors != 0 {
        problems.push(format!("the server counted {} protocol errors", stats.protocol_errors));
    }
    if stats.overloaded != 0 {
        problems.push(format!("the server refused {} times as overloaded", stats.overloaded));
    }
}

/// Ask for every kernel once so the server's profile cache holds the
/// whole suite before anything is timed. `selects` is one `Select` entry
/// per kernel.
pub fn warm_cache(conn: &mut Conn, selects: &[Entry]) -> Res<()> {
    for entry in selects {
        let body = conn.call(&entry.frame).map_err(|e| format!("cache warm-up: {e}"))?;
        if !entry.accepts(body) {
            return Err(format!(
                "cache warm-up got an unexpected reply: {}",
                String::from_utf8_lossy(body)
            ));
        }
    }
    Ok(())
}
