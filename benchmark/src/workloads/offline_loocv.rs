//! `offline_loocv`: the paper's own pipeline, no sockets.
//!
//! Eight suites (four machine families, each at the repository's
//! experiment seed and at one derived from `--seed`) are characterized
//! during set-up. An operation is one `core::eval::evaluate`: four-fold
//! leave-one-benchmark-out cross-validation — train, predict and score
//! about 4.5 k cases — round-robin over the suites. This is Kendall/PAM/
//! regression/CART, `core::offline` and the fast path through the
//! evaluator, and it is the bypass workload for every serve-path change:
//! the prediction there is no change.
//!
//! The pipeline runs on one thread here. On the two-core machine this
//! was written on (the cores look like siblings of one physical core) a
//! second rayon thread bought nothing — 62–84 evaluations/s against
//! 76–85 on one — and tripled the run-to-run spread, because a fork-join
//! step waits for whichever core a neighbour is slowing.

use crate::loadgen::{LaneRecorder, Length, Phase, Recorder, Tick};
use crate::sut::{characterize, MACHINE_SEED};
use crate::workload::{Env, Finish, Live, Workload};
use crate::Res;
use acs_core::eval::{evaluate, AppProfiles, Evaluation};
use acs_core::{Method, MethodSummary, TrainingParams};
use acs_sim::noise::{fnv1a, splitmix64};
use acs_sim::FamilyId;
use std::path::Path;
use std::time::Instant;

/// Table III as committed, for the Trinity suite at the experiment seed.
const TABLE3: &str = include_str!("../../../results/table3_methods.json");

/// The workload; it needs no inputs beyond the seed.
pub struct OfflineLoocv {
    env: Env,
}

impl OfflineLoocv {
    /// Nothing to generate ahead.
    pub fn prepare(env: &Env) -> Self {
        Self { env: env.clone() }
    }
}

struct LiveOfflineLoocv {
    /// Suite 0 is Trinity at the experiment seed.
    suites: Vec<Vec<AppProfiles>>,
    /// The first digest seen per suite; every later one must equal it.
    digests: Vec<Option<u64>>,
    next: u64,
}

/// The machine seeds every family is characterized at.
pub fn machine_seeds(seed: u64) -> [u64; 2] {
    [MACHINE_SEED, splitmix64(seed)]
}

/// A digest over the exact bits of everything an evaluation decided.
pub fn digest(evaluation: &Evaluation) -> u64 {
    let mut bytes = Vec::with_capacity(evaluation.cases.len() * 40);
    for case in &evaluation.cases {
        bytes.extend_from_slice(&(case.config.index() as u64).to_le_bytes());
        for value in [case.cap_w, case.power_w, case.perf, case.weight] {
            bytes.extend_from_slice(&value.to_bits().to_le_bytes());
        }
    }
    for (_, silhouette) in &evaluation.fold_silhouettes {
        bytes.extend_from_slice(&silhouette.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

impl Workload for OfflineLoocv {
    fn unit(&self) -> &'static str {
        "evaluations"
    }

    fn setup(&self, _dir: &Path) -> Res<Box<dyn Live + '_>> {
        let suites: Vec<Vec<AppProfiles>> = rayon::with_num_threads(1, || {
            machine_seeds(self.env.seed)
                .into_iter()
                .flat_map(|machine_seed| {
                    FamilyId::ALL.into_iter().map(move |family| characterize(family, machine_seed))
                })
                .collect()
        });
        let digests = vec![None; suites.len()];
        Ok(Box::new(LiveOfflineLoocv { suites, digests, next: 0 }))
    }
}

impl LiveOfflineLoocv {
    fn run_on_this_thread(&mut self, length: Length) -> Res<Recorder> {
        let (clock, limit) = match length {
            Length::Timed(phase) => (phase.start(), u64::MAX),
            Length::Counted(evaluations) => {
                self.next = 0;
                (Phase::unmeasured(), evaluations)
            }
        };
        let mut lane = LaneRecorder::new(&clock, true);
        for _ in 0..limit {
            let suite = (self.next % self.suites.len() as u64) as usize;
            self.next += 1;
            let started = Instant::now();
            let evaluation = evaluate(&self.suites[suite], TrainingParams::default())
                .map_err(|e| format!("evaluate suite {suite}: {e}"))?;
            let now = Instant::now();
            let digest = digest(&evaluation);
            let ok = *self.digests[suite].get_or_insert(digest) == digest;
            let latency_ns = now.duration_since(started).as_nanos() as u64;
            if lane.complete(&clock, now, latency_ns, ok) == Tick::Done {
                break;
            }
        }
        Ok(Recorder::merge(vec![lane]))
    }
}

impl Live for LiveOfflineLoocv {
    fn counted_ops(&self) -> u64 {
        2 * self.suites.len() as u64
    }

    fn run(&mut self, length: Length) -> Res<Recorder> {
        rayon::with_num_threads(1, || self.run_on_this_thread(length))
    }

    fn finish(self: Box<Self>) -> Res<Finish> {
        let mut problems = Vec::new();
        let committed: Vec<MethodSummary> = serde_json::from_str(TABLE3)
            .map_err(|e| format!("results/table3_methods.json does not parse: {e}"))?;
        let table = evaluate(&self.suites[0], TrainingParams::default())
            .map_err(|e| format!("evaluate the reference suite: {e}"))?
            .table3();
        if table != committed {
            problems.push("Table III differs from results/table3_methods.json".to_string());
        }
        let row = |method: Method| {
            table.iter().find(|s| s.method == method).expect("Table III has every compared method")
        };
        Ok(Finish {
            caps_met_pct: row(Method::ModelFL).pct_under,
            oracle_perf_pct: row(Method::Model).under_perf_pct.unwrap_or(f64::NAN),
            stats: None,
            problems,
        })
    }
}
