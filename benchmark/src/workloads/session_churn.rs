//! `session_churn`: what a job launch looks like.
//!
//! One generator thread per core, each repeating connect → `Hello` →
//! four `Select`s → `Bye`, one request at a time; an operation is one
//! whole session. This is the connection path — accept poll, thread
//! spawn, arbiter join/leave and rebalance, the per-session model clone,
//! adaptation-map insert and remove — that the two long-lived-connection
//! workloads never touch.

use crate::loadgen::{join_lane, LaneRecorder, Length, Phase, Recorder, Tick};
use crate::quality::{judge, Quality};
use crate::rng::Stream;
use crate::script::{decode_response, select_entries, Entry};
use crate::sut::{characterize_and_train, refusals, warm_cache, Conn, LiveServer, Trained};
use crate::workload::{Env, Finish, Live, Workload};
use crate::Res;
use acs_serve::{Response, ServeConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// `Select`s per session.
pub const SELECTS: u64 = 4;

/// The cluster cap: a session alone gets all of it (loose for most
/// kernels), one per lane share it (binding for most).
pub const GLOBAL_CAP_W: f64 = 40.0;

/// The workload; it needs no inputs beyond the seed.
pub struct SessionChurn {
    env: Env,
}

impl SessionChurn {
    /// Nothing to generate ahead: the stream is drawn as it is sent.
    pub fn prepare(env: &Env) -> Self {
        Self { env: env.clone() }
    }
}

struct LiveSessionChurn<'w> {
    env: &'w Env,
    trained: Trained,
    server: LiveServer,
    /// One `Select` entry per kernel.
    selects: Vec<Entry>,
    /// Sessions completed per lane; phases continue the stream.
    next: Vec<u64>,
    quality: Quality,
}

impl Workload for SessionChurn {
    fn unit(&self) -> &'static str {
        "sessions"
    }

    /// Sessions keep the process about a tenth busy. Left alone, CPU time
    /// per session read 290 us in a process whose threads the scheduler
    /// had stacked on one core and 440 us in one where it had spread them.
    fn one_core(&self) -> bool {
        true
    }

    fn setup(&self, dir: &Path) -> Res<Box<dyn Live + '_>> {
        let trained = characterize_and_train(dir)?;
        let config = ServeConfig { global_cap_w: GLOBAL_CAP_W, ..ServeConfig::default() };
        let server = LiveServer::start(config, trained.model.clone())?;
        let selects = select_entries(&trained.kernel_ids, None);
        let mut conn = Conn::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
        conn.hello()?;
        warm_cache(&mut conn, &selects)?;
        conn.bye()?;
        Ok(Box::new(LiveSessionChurn {
            env: &self.env,
            trained,
            server,
            selects,
            next: vec![0; self.env.lanes],
            quality: Quality::default(),
        }))
    }
}

/// One whole session; returns whether every reply was the right one.
///
/// Every selection is checked; only those made under `judged_budget_w`
/// — an equal share with one session per lane open, the usual state — are
/// judged for quality. How often a session finds itself alone, or beside
/// a predecessor that has not left yet, depends on timing, and a
/// quality number must not.
fn session(
    addr: &str,
    selects: &[Entry],
    trained: &Trained,
    stream: Stream,
    number: u64,
    judged_budget_w: f64,
    quality: &mut Quality,
) -> Res<bool> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut ok = conn.hello().is_ok();
    for j in 0..SELECTS {
        let kernel = (stream.at(number * SELECTS + j) % selects.len() as u64) as usize;
        let body = conn.call(&selects[kernel].frame).map_err(|e| format!("select: {e}"))?;
        let verdict = match decode_response(body)? {
            Response::Selected(s) if s.kernel_id == trained.kernel_ids[kernel] => {
                judge(&trained.profiles[kernel], &s.config, s.budget_w).map(|v| (v, s.budget_w))
            }
            _ => None,
        };
        match verdict {
            Some((verdict, budget_w)) if (budget_w - judged_budget_w).abs() < 1e-6 => {
                quality.add(verdict, 1.0)
            }
            Some(_) => {}
            None => ok = false,
        }
    }
    Ok(conn.bye().is_ok() && ok)
}

impl Live for LiveSessionChurn<'_> {
    fn counted_ops(&self) -> u64 {
        64
    }

    fn run(&mut self, length: Length) -> Res<Recorder> {
        let (clock, limit) = match length {
            Length::Timed(phase) => (phase.start(), u64::MAX),
            Length::Counted(sessions) => {
                // A place in the stream no timed phase reaches.
                self.next.iter_mut().for_each(|next| *next = 1 << 40);
                (Phase::unmeasured(), sessions)
            }
        };
        let (addr, selects, trained, seed) =
            (&self.server.addr, &self.selects, &self.trained, self.env.seed);
        let judged_budget_w = GLOBAL_CAP_W / self.env.lanes as f64;
        let results: Vec<Res<(LaneRecorder, Quality)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .next
                .iter_mut()
                .enumerate()
                .map(|(lane, next)| {
                    scope.spawn(move || {
                        let stream = Stream::new(seed, lane as u64);
                        let mut recorder = LaneRecorder::new(&clock, lane == 0);
                        let mut quality = Quality::default();
                        for _ in 0..limit {
                            let started = Instant::now();
                            let ok = session(
                                addr,
                                selects,
                                trained,
                                stream,
                                *next,
                                judged_budget_w,
                                &mut quality,
                            )?;
                            *next += 1;
                            let now = Instant::now();
                            let latency_ns = now.duration_since(started).as_nanos() as u64;
                            if recorder.complete(&clock, now, latency_ns, ok) == Tick::Done {
                                break;
                            }
                        }
                        Ok((recorder, quality))
                    })
                })
                .collect();
            handles.into_iter().map(join_lane).collect()
        });
        let mut lanes = Vec::with_capacity(results.len());
        for result in results {
            let (recorder, quality) = result?;
            lanes.push(recorder);
            self.quality.merge(&quality);
        }
        Ok(Recorder::merge(lanes))
    }

    fn finish(self: Box<Self>) -> Res<Finish> {
        let mut problems = Vec::new();
        // Session threads decrement the count just after their last
        // write, so give the last ones a moment to get there.
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.server.handle.active_sessions() != 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let left_open = self.server.handle.active_sessions();
        if left_open != 0 {
            problems.push(format!("{left_open} sessions still open after every Bye"));
        }
        let mut conn = Conn::connect(&self.server.addr).map_err(|e| format!("connect: {e}"))?;
        let stats = conn.stats()?;
        conn.bye()?;
        refusals(&stats, &mut problems);
        self.server.stop()?;
        Ok(Finish {
            caps_met_pct: self.quality.caps_met_pct(),
            oracle_perf_pct: self.quality.oracle_perf_pct(),
            stats: Some(stats),
            problems,
        })
    }
}
