//! `select_warm`: a shard's steady state.
//!
//! One connection per core, each a closed loop with eight `Select`s
//! outstanding, kernel ids uniform over the 65 suite ids, profile cache
//! warmed beforehand (so more than 99.9% of lookups hit), equal-share
//! arbiter, no journal. No modelling happens: all the time is in the
//! protocol, the metrics registry, the adaptation and arbiter locks and
//! the socket — where taking locks and allocations off the request path
//! must show.

use crate::loadgen::{drive_lanes, Lane, Length, Observer, Recorder};
use crate::quality::{judge, Quality};
use crate::rng::Stream;
use crate::script::{select_entries, Entry, Pick, Script};
use crate::sut::{
    characterize_and_train, connect_lanes, reference_engine, refusals, warm_cache, LiveServer,
    Trained,
};
use crate::workload::{Env, Finish, Live, Workload};
use crate::Res;
use acs_serve::{Selection, ServeConfig};
use std::path::Path;

/// Requests each connection keeps outstanding.
pub const WINDOW: usize = 8;

/// The cluster cap: low enough that the equal shares bind for most
/// kernels (the suite draws roughly 10–50 W), so selection quality is
/// not trivially 100%.
pub const GLOBAL_CAP_W: f64 = 50.0;

/// The workload; it needs no inputs beyond the seed.
pub struct SelectWarm {
    env: Env,
}

impl SelectWarm {
    /// Nothing to generate ahead: the stream is drawn as it is sent.
    pub fn prepare(env: &Env) -> Self {
        Self { env: env.clone() }
    }
}

/// Counts replies per kernel, to weight the quality verdicts.
struct PerKernel(Vec<u64>);

impl Observer for PerKernel {
    fn reply(&mut self, index: usize, _: &Entry, _: &[u8], _: bool) {
        self.0[index] += 1;
    }
}

struct LiveSelectWarm<'w> {
    env: &'w Env,
    trained: Trained,
    server: LiveServer,
    lanes: Vec<Lane>,
    /// Per lane: one entry per kernel, expecting that lane's exact reply.
    tables: Vec<Vec<Entry>>,
    /// Per lane: the selections those replies carry.
    selections: Vec<Vec<Selection>>,
    counts: Vec<PerKernel>,
}

impl Workload for SelectWarm {
    fn unit(&self) -> &'static str {
        "requests"
    }

    fn setup(&self, dir: &Path) -> Res<Box<dyn Live + '_>> {
        let trained = characterize_and_train(dir)?;
        let config = ServeConfig { global_cap_w: GLOBAL_CAP_W, ..ServeConfig::default() };
        let server = LiveServer::start(config, trained.model.clone())?;
        let mut conns = connect_lanes(&server.addr, self.env.lanes)?;
        warm_cache(&mut conns[0], &select_entries(&trained.kernel_ids, None))?;

        // The replies every lane must get, from an engine the server has
        // never seen. Budgets are read back per lane: equal shares of a
        // cap differ in the last bit when the cap does not divide evenly.
        let oracle = reference_engine(&trained.model);
        let (mut tables, mut selections) = (Vec::new(), Vec::new());
        for conn in &mut conns {
            let budget_w = conn.hello()?;
            let lane_selections = trained
                .kernel_ids
                .iter()
                .map(|id| oracle.select(id, budget_w).map_err(|e| e.to_string()))
                .collect::<Res<Vec<Selection>>>()?;
            tables.push(select_entries(&trained.kernel_ids, Some(&lane_selections)));
            selections.push(lane_selections);
        }
        let counts = tables.iter().map(|t| PerKernel(vec![0; t.len()])).collect();
        let lanes = conns.into_iter().map(|conn| Lane { conn, next: 0 }).collect();
        Ok(Box::new(LiveSelectWarm {
            env: &self.env,
            trained,
            server,
            lanes,
            tables,
            selections,
            counts,
        }))
    }
}

impl Live for LiveSelectWarm<'_> {
    fn counted_ops(&self) -> u64 {
        50_000
    }

    fn run(&mut self, length: Length) -> Res<Recorder> {
        if let Length::Counted(_) = length {
            // A place in the stream no timed phase reaches, the same in
            // every run.
            self.lanes.iter_mut().for_each(|lane| lane.next = 1 << 40);
        }
        let scripts: Vec<Script<'_>> = self
            .tables
            .iter()
            .enumerate()
            .map(|(lane, entries)| Script {
                entries,
                pick: Pick::Uniform(Stream::new(self.env.seed, lane as u64)),
            })
            .collect();
        drive_lanes(&mut self.lanes, &scripts, &mut self.counts, WINDOW, length)
    }

    fn finish(mut self: Box<Self>) -> Res<Finish> {
        let mut problems = Vec::new();
        let stats = self.lanes[0].conn.stats()?;
        refusals(&stats, &mut problems);

        let mut quality = Quality::default();
        for (lane, counts) in self.counts.iter().enumerate() {
            for (kernel, &count) in counts.0.iter().enumerate() {
                let selection = &self.selections[lane][kernel];
                match judge(&self.trained.profiles[kernel], &selection.config, selection.budget_w) {
                    Some(verdict) => quality.add(verdict, count as f64),
                    None => {
                        problems.push(format!("{} selected outside the space", selection.kernel_id))
                    }
                }
            }
        }

        for lane in self.lanes.drain(..) {
            lane.conn.bye()?;
        }
        self.server.stop()?;
        Ok(Finish {
            caps_met_pct: quality.caps_met_pct(),
            oracle_perf_pct: quality.oracle_perf_pct(),
            stats: Some(stats),
            problems,
        })
    }
}
