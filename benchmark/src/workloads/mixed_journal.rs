//! `mixed_journal`: the same server layers, used for writes.
//!
//! One connection per core, window eight; 70% `Select`, 10% `Run` with a
//! unique idempotency key, 15% `Report` with measured feedback, 5%
//! `Batch` of 32; demand-proportional arbiter; journal on (flush, no
//! fsync). This is arbiter mutation and cross-session reselection,
//! journal appends, Kalman observation, the capped runtime, rayon
//! fan-out and large frames — so a gain for reads that costs writes
//! shows here.

use crate::loadgen::{drive_lanes, Lane, Length, Observer, Recorder};
use crate::quality::{judge, Quality};
use crate::script::{decode_response, mixed_entries, select_entries, Entry, Kind, Pick, Script};
use crate::sut::{
    characterize_and_train, connect_lanes, refusals, train_suite, warm_cache, LiveServer, Trained,
};
use crate::workload::{Env, Finish, Live, Workload};
use crate::Res;
use acs_serve::{replay, ArbiterPolicy, Journal, JournalEntry, Response, ServeConfig};
use std::path::{Path, PathBuf};

/// Requests each connection keeps outstanding.
pub const WINDOW: usize = 8;

/// The cluster cap; the demand-proportional policy moves each session's
/// share between a quarter and three quarters of it.
pub const GLOBAL_CAP_W: f64 = 60.0;

/// The arbiter policy under test.
pub const POLICY: ArbiterPolicy = ArbiterPolicy::DemandProportional;

/// Entries per lane. Request `i` of a lane is entry `i % POOL`; the pool
/// is long enough that a repeated idempotency key has long left the
/// server's 1024-key memo, so every `Run` executes.
pub const POOL: usize = 16_384;

/// `Select` replies kept per lane for judging after the phase.
const SAMPLES: usize = 4_096;

/// Build every lane's pool. The feedback payloads need the characterized
/// suite, which is a pure function of the machine seed.
pub fn pools(env: &Env, trained: &Trained) -> Vec<Vec<Entry>> {
    (0..env.lanes as u64).map(|lane| mixed_entries(env.seed, lane, POOL, trained)).collect()
}

/// The workload: its request pools, generated once from the seed.
pub struct MixedJournal {
    env: Env,
    pools: Vec<Vec<Entry>>,
}

impl MixedJournal {
    /// Generate the pools.
    pub fn prepare(env: &Env) -> Res<Self> {
        Ok(Self { env: env.clone(), pools: pools(env, &train_suite()?) })
    }
}

/// Counts requests per kind and keeps the first `SAMPLES` measured
/// `Select` replies as raw bytes, in buffers allocated up front.
struct Sampler {
    sent: [u64; 4],
    bytes: Vec<u8>,
    /// (entry index, offset, length) per kept reply.
    kept: Vec<(usize, usize, usize)>,
}

impl Sampler {
    fn new() -> Self {
        Self {
            sent: [0; 4],
            bytes: Vec::with_capacity(SAMPLES * 512),
            kept: Vec::with_capacity(SAMPLES),
        }
    }
}

impl Observer for Sampler {
    fn reply(&mut self, index: usize, entry: &Entry, body: &[u8], measured: bool) {
        self.sent[entry.kind as usize] += 1;
        if measured
            && entry.kind == Kind::Select
            && self.kept.len() < SAMPLES
            && self.bytes.len() + body.len() <= self.bytes.capacity()
        {
            self.kept.push((index, self.bytes.len(), body.len()));
            self.bytes.extend_from_slice(body);
        }
    }
}

struct LiveMixedJournal<'w> {
    w: &'w MixedJournal,
    trained: Trained,
    server: LiveServer,
    journal: PathBuf,
    lanes: Vec<Lane>,
    samplers: Vec<Sampler>,
}

impl Workload for MixedJournal {
    fn unit(&self) -> &'static str {
        "requests"
    }

    fn setup(&self, dir: &Path) -> Res<Box<dyn Live + '_>> {
        let trained = characterize_and_train(dir)?;
        let journal = dir.join("journal.log");
        let config = ServeConfig {
            global_cap_w: GLOBAL_CAP_W,
            policy: POLICY,
            journal: Some(journal.clone()),
            ..ServeConfig::default()
        };
        let server = LiveServer::start(config, trained.model.clone())?;
        let mut conns = connect_lanes(&server.addr, self.env.lanes)?;
        warm_cache(&mut conns[0], &select_entries(&trained.kernel_ids, None))?;
        let samplers = conns.iter().map(|_| Sampler::new()).collect();
        let lanes = conns.into_iter().map(|conn| Lane { conn, next: 0 }).collect();
        Ok(Box::new(LiveMixedJournal { w: self, trained, server, journal, lanes, samplers }))
    }
}

impl Live for LiveMixedJournal<'_> {
    fn counted_ops(&self) -> u64 {
        2 * POOL as u64
    }

    fn run(&mut self, length: Length) -> Res<Recorder> {
        if let Length::Counted(_) = length {
            // Whole passes over each lane's pool, from its start.
            self.lanes.iter_mut().for_each(|lane| lane.next = 0);
        }
        let scripts: Vec<Script<'_>> =
            self.w.pools.iter().map(|entries| Script { entries, pick: Pick::Cyclic }).collect();
        drive_lanes(&mut self.lanes, &scripts, &mut self.samplers, WINDOW, length)
    }

    fn finish(mut self: Box<Self>) -> Res<Finish> {
        let mut problems = Vec::new();
        let kernels = self.trained.kernel_ids.len() as u64;

        // STATS must have counted exactly what was sent.
        let stats = self.lanes[0].conn.stats()?;
        for kind in Kind::ALL {
            let mut sent: u64 = self.samplers.iter().map(|s| s.sent[kind as usize]).sum();
            if kind == Kind::Select {
                sent += kernels; // the cache warm-up
            }
            let counted = stats.requests_by_kind.get(kind.label()).copied().unwrap_or(0);
            if counted != sent {
                problems.push(format!(
                    "STATS counted {counted} {} requests, {sent} were sent",
                    kind.label()
                ));
            }
        }
        refusals(&stats, &mut problems);
        let drift_w = self.server.handle.budget_conservation_error_w();
        if drift_w != 0.0 {
            problems.push(format!("session budgets miss the cluster cap by {drift_w} W"));
        }

        // Judge the kept selections against the simulator's ground truth.
        let mut quality = Quality::default();
        for (lane, sampler) in self.samplers.iter().enumerate() {
            for &(index, offset, len) in &sampler.kept {
                let entry = &self.w.pools[lane][index];
                let verdict = match decode_response(&sampler.bytes[offset..offset + len])? {
                    Response::Selected(s)
                        if s.kernel_id == self.trained.kernel_ids[entry.kernel] =>
                    {
                        judge(&self.trained.profiles[entry.kernel], &s.config, s.budget_w)
                    }
                    _ => None,
                };
                match verdict {
                    Some(verdict) => quality.add(verdict, 1.0),
                    None => problems.push(format!("lane {lane} entry {index}: a wrong selection")),
                }
            }
        }

        for lane in self.lanes.drain(..) {
            lane.conn.bye()?;
        }
        self.server.stop()?;

        // The journal the run left behind must replay.
        let (_, entries) = Journal::<JournalEntry>::open(&self.journal)
            .map_err(|e| format!("reopen journal: {e}"))?;
        if let Err(e) = replay(&entries, GLOBAL_CAP_W, POLICY) {
            problems.push(format!("the journal does not replay: {e}"));
        }

        Ok(Finish {
            caps_met_pct: quality.caps_met_pct(),
            oracle_perf_pct: quality.oracle_perf_pct(),
            stats: Some(stats),
            problems,
        })
    }
}
