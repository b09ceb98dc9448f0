//! Results: what a run measured, as a table for people, a file under
//! `benchmark/out/` for `compare`, and the one-line object the harness
//! that drives the benchmark reads.

use crate::metrics::MetricDef;
use crate::stats::Summary;
use crate::Res;
use serde::Value;
use std::path::{Path, PathBuf};

/// One metric as measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Which metric.
    pub def: MetricDef,
    /// Its value (the median slice) and the slices' quartiles.
    pub summary: Summary,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The workload.
    pub workload: String,
    /// Whether this was the traced run.
    pub trace: bool,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--quick`: numbers are printed but must not be gated on.
    pub quick: bool,
    /// Generator threads and connections (one per core).
    pub nproc: usize,
    /// The commit the checkout is at, when it is a git checkout.
    pub commit: String,
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted, warm-up and drain included.
    pub attempted: u64,
    /// Operations that failed, were refused or came back wrong.
    pub failed: u64,
    /// Operations that fell in a measured slice.
    pub measured_ops: u64,
    /// Failed output checks, in words.
    pub problems: Vec<String>,
    /// The metrics.
    pub metrics: Vec<Measured>,
    /// Facts printed with the metrics but not metrics themselves
    /// (the latency tail and its percentile, sample counts).
    pub notes: Vec<(String, String)>,
    /// Per-slice values behind the sliced metrics, in slice order, for
    /// telling a drift within a run from noise.
    pub series: Vec<(String, Vec<f64>)>,
}

/// `benchmark/out/`, inside the checkout the binary was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The checkout's commit, read from `.git` without running git (the
/// harness's checkout is not a repository; then this is `unknown`).
pub fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(git.join(reference)) {
        return hash.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|line| line.strip_suffix(reference).map(|hash| hash.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn num(x: f64) -> Value {
    if x.is_finite() {
        Value::F64(x)
    } else {
        Value::Null
    }
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl RunResult {
    /// The file this result is stored in.
    pub fn path(&self) -> PathBuf {
        result_path(&self.workload, self.seed, self.trace)
    }

    /// The result as a JSON value (the format `compare` reads).
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.def.name.to_string(),
                    map(vec![
                        ("value", num(m.summary.value)),
                        ("median", num(m.summary.median)),
                        ("q1", num(m.summary.q1)),
                        ("q3", num(m.summary.q3)),
                        ("unit", Value::Str(m.def.unit.into())),
                        ("better", Value::Str(m.def.better.into())),
                    ]),
                )
            })
            .collect();
        map(vec![
            ("workload", Value::Str(self.workload.clone())),
            ("trace", Value::Bool(self.trace)),
            ("seed", Value::U64(self.seed)),
            ("seconds", num(self.seconds)),
            ("quick", Value::Bool(self.quick)),
            ("nproc", Value::U64(self.nproc as u64)),
            ("commit", Value::Str(self.commit.clone())),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("measured_ops", Value::U64(self.measured_ops)),
            ("problems", Value::Array(self.problems.iter().cloned().map(Value::Str).collect())),
            ("metrics", Value::Map(metrics)),
            (
                "notes",
                Value::Map(
                    self.notes.iter().map(|(k, v)| (k.clone(), Value::Str(v.clone()))).collect(),
                ),
            ),
            (
                "series",
                Value::Map(
                    self.series
                        .iter()
                        .map(|(k, v)| {
                            (k.clone(), Value::Array(v.iter().copied().map(num).collect()))
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Store the result under `benchmark/out/`.
    pub fn write(&self) -> Res<PathBuf> {
        let path = self.path();
        write_json(&path, &self.to_value())?;
        Ok(path)
    }

    /// The table people read.
    pub fn print(&self) {
        let run = if self.trace { "traced run" } else { "end-to-end run" };
        let gate = if self.quick { "  [--quick: ungated]" } else { "" };
        println!(
            "== {} · {run} · seed {} · {} s · {} cores{gate}",
            self.workload, self.seed, self.seconds, self.nproc
        );
        for m in &self.metrics {
            let spread = if m.summary.q1 == m.summary.q3 {
                String::new()
            } else {
                format!(
                    "  [slices: median {:.4}, q1 {:.4} .. q3 {:.4}]",
                    m.summary.median, m.summary.q1, m.summary.q3
                )
            };
            println!("  {:<44} {:>16.6} {:<6}{spread}", m.def.name, m.summary.value, m.def.unit);
        }
        for (key, value) in &self.notes {
            println!("  {key:<44} {value}");
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<44} {:>16.6} ratio  ({} failed of {} attempted, {} measured)",
            "failed_share", share, self.failed, self.attempted, self.measured_ops
        );
        for problem in &self.problems {
            println!("  CHECK FAILED: {problem}");
        }
    }

    /// The last line of standard output: exactly the keys the harness
    /// reads, metrics with their values and units.
    pub fn harness_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.def.name.to_string(),
                    map(vec![
                        ("value", num(m.summary.value)),
                        ("unit", Value::Str(m.def.unit.into())),
                    ]),
                )
            })
            .collect();
        let line = map(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted.max(1))),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("a value tree always serializes")
    }
}

/// Where the result of (`workload`, `seed`, `trace`) is stored.
pub fn result_path(workload: &str, seed: u64, trace: bool) -> PathBuf {
    out_dir().join(format!("{workload}-seed{seed}-trace{}.json", u8::from(trace)))
}

/// Write `value` as pretty JSON.
pub fn write_json(path: &Path, value: &Value) -> Res<()> {
    let text = serde_json::to_string_pretty(value).map_err(|e| format!("serialize: {e}"))?;
    std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

/// Read a JSON file.
pub fn read_json(path: &Path) -> Res<Value> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{} does not parse: {e}", path.display()))
}
