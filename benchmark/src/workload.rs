//! What the runner needs from a workload.
//!
//! A workload is prepared once (its inputs are generated from `--seed`),
//! set up freshly as often as the runner asks (that is what `setup_s`
//! times), driven through timed phases, and finished — which closes it
//! and runs its output checks.

use crate::loadgen::{Length, Recorder};
use crate::Res;
use acs_serve::StatsSnapshot;
use std::path::{Path, PathBuf};

/// The names of the four workloads, in the order `run` executes them.
pub const NAMES: [&str; 4] = ["select_warm", "mixed_journal", "session_churn", "offline_loocv"];

/// What every workload is given.
#[derive(Debug, Clone)]
pub struct Env {
    /// `--seed`: the only source of variation in the inputs.
    pub seed: u64,
    /// Generator threads and connections: one per available core.
    pub lanes: usize,
    /// A directory under `benchmark/out/` this process may fill.
    pub scratch: PathBuf,
}

impl Env {
    /// A fresh, empty directory for one set-up's files.
    pub fn setup_dir(&self, n: usize) -> Res<PathBuf> {
        let dir = self.scratch.join(format!("setup-{n}"));
        recreate(&dir)?;
        Ok(dir)
    }
}

/// Remove `dir` if present and create it empty.
pub fn recreate(dir: &Path) -> Res<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot clear {}: {e}", dir.display())),
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// A workload whose inputs exist but whose system is not up.
pub trait Workload {
    /// What one operation is, for printing ("requests", "sessions", ...).
    fn unit(&self) -> &'static str;

    /// Whether the system and its generators are kept on one core. For a workload that leaves the cores mostly idle: the
    /// scheduler then either stacks its threads on one core or spreads
    /// them, per process, and every wake-up across cores costs CPU time.
    fn one_core(&self) -> bool {
        false
    }

    /// Bring the system up, fresh, until it can take its first timed
    /// operation. `dir` is empty and this set-up's alone.
    fn setup(&self, dir: &Path) -> Res<Box<dyn Live + '_>>;
}

/// A workload that is up.
pub trait Live {
    /// Run one timed phase, or a fixed number of operations per lane
    /// from a fixed place in the stream (so that what the program
    /// allocates for them can be counted exactly and what it keeps of
    /// them weighed), and return what the lanes recorded.
    fn run(&mut self, length: Length) -> Res<Recorder>;

    /// How many operations per lane a counted segment of this workload
    /// runs.
    fn counted_ops(&self) -> u64;

    /// Close the system and check its outputs.
    fn finish(self: Box<Self>) -> Res<Finish>;
}

/// What a finished workload reports.
#[derive(Debug, Clone)]
pub struct Finish {
    /// Percent of selections that really met their power budget.
    pub caps_met_pct: f64,
    /// Percent of oracle performance kept by those that did.
    pub oracle_perf_pct: f64,
    /// The server's own final STATS, for workloads that have a server.
    pub stats: Option<StatsSnapshot>,
    /// Output checks that failed, in words. Empty means correct.
    pub problems: Vec<String>,
}
