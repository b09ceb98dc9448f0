//! Golden-trace snapshots: blessed reference outputs the test suite diffs
//! every run against.
//!
//! Six canonical traces are pinned, chosen to cover the layers a
//! regression could hide in: the *unguarded* scheduler timeline (pure
//! selection logic), the *guarded chaos* timeline (fault handling and the
//! degradation ladder), the *regret summary* (end-to-end selection
//! quality vs. the oracle), and one unguarded timeline per non-Trinity
//! *machine family* (the parametric family descriptors — a drifting
//! BigCore power curve shows up here even if Trinity is untouched). All
//! are deterministic byte-for-byte, so comparison is exact string
//! equality — no tolerance windows to rot.
//!
//! Workflow: `acs verify --bless` regenerates the files under
//! `tests/golden/`; `tests/conformance.rs` fails if a current run
//! disagrees with a blessed file, writing the offending actual output to
//! `target/golden-diffs/` for CI to upload.

use crate::scenario::GridParams;
use acs_core::offline::TrainedModel;
use acs_core::{collect_suite, train, CappedRuntime, GuardPolicy, TrainingParams};
use acs_kernels::AppInstance;
use acs_sim::{FamilyId, FaultPlan, FaultyMachine, Machine};
use std::fs;
use std::path::{Path, PathBuf};

/// Machine seed every golden trace is produced on (the paper's year, as
/// everywhere else in the repo).
pub const GOLDEN_SEED: u64 = 2014;

/// Power cap for the golden runtime traces, W.
pub const GOLDEN_CAP_W: f64 = 25.0;

/// Iterations per kernel in the golden runtime traces — enough to cover
/// both sample iterations, the fixed-selection steady state, and (under
/// chaos) retries and tier moves.
pub const GOLDEN_ITERATIONS: u64 = 6;

/// The train-on suite for golden traces (matches the differential grid's
/// training discipline: CoMD + SMC, never the scheduled app).
fn golden_model(machine: &Machine) -> TrainedModel {
    let profiles = collect_suite(machine, &acs_kernels::training_kernels());
    train(&profiles, TrainingParams::default()).expect("golden training suite is sufficient")
}

fn golden_app() -> AppInstance {
    acs_kernels::app_instances()
        .into_iter()
        .find(|a| a.label() == "LULESH Small")
        .expect("LULESH Small is part of the fixed app list")
}

/// The chaos plan pinned into the guarded golden trace. Aggressive enough
/// to exercise retries, sensor anomalies, and the degradation ladder, yet
/// fully deterministic via its seed.
pub fn golden_fault_plan() -> FaultPlan {
    FaultPlan {
        sensor_dropout_p: 0.10,
        sensor_freeze_p: 0.05,
        pstate_fail_p: 0.05,
        run_fail_p: 0.02,
        ..FaultPlan::none(GOLDEN_SEED ^ 0x5eed)
    }
}

/// Produce the unguarded scheduler timeline (canonical trace 1).
pub fn unguarded_timeline() -> String {
    let machine = Machine::new(GOLDEN_SEED);
    let model = golden_model(&machine);
    let mut rt = CappedRuntime::new(machine, model, GOLDEN_CAP_W);
    rt.run_app(&golden_app(), GOLDEN_ITERATIONS).expect("fault-free run completes");
    rt.timeline().to_json()
}

/// Produce the guarded chaos timeline (canonical trace 2).
pub fn guarded_chaos_timeline() -> String {
    let machine = Machine::new(GOLDEN_SEED);
    let model = golden_model(&machine);
    let executor = FaultyMachine::new(machine, golden_fault_plan());
    let mut rt = CappedRuntime::guarded(executor, model, GOLDEN_CAP_W, GuardPolicy::default());
    rt.run_app(&golden_app(), GOLDEN_ITERATIONS).expect("guarded run absorbs faults");
    rt.timeline().to_json()
}

/// Produce the quick-grid regret summary (canonical trace 3).
pub fn regret_summary() -> String {
    let grid = crate::scenario::ScenarioGrid::generate(GridParams::quick());
    let report = crate::differential::run_differential(&grid, TrainingParams::default())
        .expect("quick grid trains");
    serde_json::to_string_pretty(&report.golden_summary()).expect("summary serializes")
}

/// Produce one machine family's unguarded scheduler timeline: the model
/// trains and schedules on a `GOLDEN_SEED` member of `family`, end to
/// end, so a drift anywhere in that family's descriptor (P-state table,
/// power calibration, GPU width, accelerator derating) moves bytes here.
pub fn family_timeline(family: FamilyId) -> String {
    let machine = Machine::from_family(family, GOLDEN_SEED);
    let model = golden_model(&machine);
    let mut rt = CappedRuntime::new(machine, model, GOLDEN_CAP_W);
    rt.run_app(&golden_app(), GOLDEN_ITERATIONS).expect("fault-free run completes");
    rt.timeline().to_json()
}

/// Canonical trace 4: the BigCore family timeline.
pub fn bigcore_timeline() -> String {
    family_timeline(FamilyId::BigCore)
}

/// Canonical trace 5: the LowPower family timeline.
pub fn lowpower_timeline() -> String {
    family_timeline(FamilyId::LowPower)
}

/// Canonical trace 6: the AccelHybrid family timeline.
pub fn accel_timeline() -> String {
    family_timeline(FamilyId::AccelHybrid)
}

/// A golden-trace producer: renders the canonical byte stream to bless.
pub type TraceProducer = fn() -> String;

/// The golden traces, in blessing order: `(file name, producer)`.
/// (Trinity needs no family trace — trace 1 *is* its timeline, and the
/// family layer is proven bit-identical to it by the sim proptests.)
pub const TRACES: [(&str, TraceProducer); 6] = [
    ("unguarded-timeline.json", unguarded_timeline),
    ("guarded-chaos-timeline.json", guarded_chaos_timeline),
    ("regret-summary.json", regret_summary),
    ("family-bigcore-timeline.json", bigcore_timeline),
    ("family-lowpower-timeline.json", lowpower_timeline),
    ("family-accel-timeline.json", accel_timeline),
];

/// Outcome of comparing one current trace against its blessed file.
#[derive(Debug, Clone, PartialEq)]
pub enum GoldenStatus {
    /// Byte-identical.
    Match,
    /// No blessed file exists (run `acs verify --bless`).
    Missing,
    /// Current output disagrees with the blessed file.
    Mismatch {
        /// First differing byte offset.
        first_diff_at: usize,
        /// A short two-line excerpt around the divergence (blessed, then
        /// actual).
        excerpt: String,
    },
}

/// One trace's comparison result.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenDiff {
    /// Golden file name.
    pub name: String,
    /// Comparison outcome.
    pub status: GoldenStatus,
    /// The freshly produced output (written as a failure artifact when
    /// the comparison did not match).
    pub actual: String,
}

impl GoldenDiff {
    /// True when the trace matched its blessed file.
    pub fn passed(&self) -> bool {
        self.status == GoldenStatus::Match
    }
}

fn excerpt_around(blessed: &str, actual: &str, at: usize) -> String {
    let window = 60;
    let lo = at.saturating_sub(window / 2);
    let snip = |s: &str| {
        let hi = (lo + window).min(s.len());
        // Clamp to char boundaries so slicing never panics on multibyte
        // content.
        let lo_c = (lo..=hi.min(s.len())).find(|&i| s.is_char_boundary(i)).unwrap_or(s.len());
        let hi_c = (hi..s.len() + 1).find(|&i| s.is_char_boundary(i)).unwrap_or(s.len());
        s[lo_c..hi_c].to_string()
    };
    format!("blessed: …{}…\nactual:  …{}…", snip(blessed), snip(actual))
}

/// Compare one produced trace against its blessed file.
fn compare_one(dir: &Path, name: &str, actual: String) -> GoldenDiff {
    let path = dir.join(name);
    let status = match fs::read_to_string(&path) {
        Err(_) => GoldenStatus::Missing,
        Ok(blessed) if blessed == actual => GoldenStatus::Match,
        Ok(blessed) => {
            let at = blessed
                .bytes()
                .zip(actual.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| blessed.len().min(actual.len()));
            GoldenStatus::Mismatch {
                first_diff_at: at,
                excerpt: excerpt_around(&blessed, &actual, at),
            }
        }
    };
    GoldenDiff { name: name.to_string(), status, actual }
}

/// Compare every canonical trace against the blessed files in `dir`.
pub fn compare(dir: &Path) -> Vec<GoldenDiff> {
    TRACES.iter().map(|(name, produce)| compare_one(dir, name, produce())).collect()
}

/// Regenerate (bless) every golden file in `dir`. Returns the written
/// paths.
pub fn bless(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for (name, produce) in TRACES {
        let path = dir.join(name);
        fs::write(&path, produce())?;
        written.push(path);
    }
    Ok(written)
}

/// Write failing traces' actual outputs (plus a summary) under
/// `artifact_dir` so CI can upload them. Returns the paths written.
pub fn write_failure_artifacts(
    artifact_dir: &Path,
    diffs: &[GoldenDiff],
) -> std::io::Result<Vec<PathBuf>> {
    let failing: Vec<&GoldenDiff> = diffs.iter().filter(|d| !d.passed()).collect();
    if failing.is_empty() {
        return Ok(Vec::new());
    }
    fs::create_dir_all(artifact_dir)?;
    let mut written = Vec::new();
    let mut summary = String::new();
    for d in failing {
        let path = artifact_dir.join(format!("actual-{}", d.name));
        fs::write(&path, &d.actual)?;
        written.push(path);
        summary.push_str(&render_diff(d));
        summary.push('\n');
    }
    let summary_path = artifact_dir.join("summary.txt");
    fs::write(&summary_path, summary)?;
    written.push(summary_path);
    Ok(written)
}

/// Human-readable rendering of one comparison result.
pub fn render_diff(d: &GoldenDiff) -> String {
    match &d.status {
        GoldenStatus::Match => format!("{}: ok", d.name),
        GoldenStatus::Missing => {
            format!("{}: missing blessed file (run `acs verify --bless`)", d.name)
        }
        GoldenStatus::Mismatch { first_diff_at, excerpt } => {
            format!("{}: MISMATCH at byte {first_diff_at}\n{excerpt}", d.name)
        }
    }
}

/// The repo-relative default golden directory, resolved against this
/// crate's manifest so it works from any test or binary working
/// directory.
pub fn default_golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// The default failure-artifact directory (`target/golden-diffs/`).
pub fn default_artifact_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/golden-diffs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn producers_are_deterministic() {
        assert_eq!(unguarded_timeline(), unguarded_timeline());
        assert_eq!(guarded_chaos_timeline(), guarded_chaos_timeline());
    }

    #[test]
    fn chaos_trace_differs_from_unguarded_trace() {
        assert_ne!(unguarded_timeline(), guarded_chaos_timeline());
    }

    #[test]
    fn family_traces_are_pairwise_distinct_and_trinity_equals_trace_one() {
        // Each family timeline must carry its own signal (identical bytes
        // would mean the descriptor is not actually reaching the runtime),
        // while Trinity-via-family reproduces the canonical trace exactly.
        let traces =
            [unguarded_timeline(), bigcore_timeline(), lowpower_timeline(), accel_timeline()];
        for i in 0..traces.len() {
            for j in i + 1..traces.len() {
                assert_ne!(traces[i], traces[j], "traces {i} and {j} are identical");
            }
        }
        assert_eq!(family_timeline(FamilyId::Trinity), traces[0]);
    }

    #[test]
    fn bless_then_compare_matches() {
        let dir = std::env::temp_dir().join("acs-verify-test-golden-roundtrip");
        let _ = fs::remove_dir_all(&dir);
        let written = bless(&dir).unwrap();
        assert_eq!(written.len(), TRACES.len());
        let diffs = compare(&dir);
        assert!(diffs.iter().all(GoldenDiff::passed), "{diffs:?}");
    }

    #[test]
    fn tampered_golden_is_flagged_with_offset_and_artifacts() {
        let dir = std::env::temp_dir().join("acs-verify-test-golden-tamper");
        let _ = fs::remove_dir_all(&dir);
        bless(&dir).unwrap();
        let victim = dir.join(TRACES[0].0);
        let mut text = fs::read_to_string(&victim).unwrap();
        text.insert(5, 'X');
        fs::write(&victim, text).unwrap();

        let diffs = compare(&dir);
        let d = &diffs[0];
        match &d.status {
            GoldenStatus::Mismatch { first_diff_at, excerpt } => {
                assert_eq!(*first_diff_at, 5);
                assert!(excerpt.contains("blessed:"), "{excerpt}");
            }
            other => panic!("expected mismatch, got {other:?}"),
        }

        let artifact_dir = std::env::temp_dir().join("acs-verify-test-golden-artifacts");
        let _ = fs::remove_dir_all(&artifact_dir);
        let written = write_failure_artifacts(&artifact_dir, &diffs).unwrap();
        // actual-<name> plus summary.txt.
        assert_eq!(written.len(), 2, "{written:?}");
        assert!(artifact_dir.join("summary.txt").exists());
    }

    #[test]
    fn missing_golden_is_reported_not_panicked() {
        let dir = std::env::temp_dir().join("acs-verify-test-golden-missing");
        let _ = fs::remove_dir_all(&dir);
        let diffs = compare(&dir);
        assert!(diffs.iter().all(|d| d.status == GoldenStatus::Missing));
        assert!(render_diff(&diffs[0]).contains("--bless"));
    }
}
