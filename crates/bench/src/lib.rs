//! # acs-bench — experiment harness
//!
//! A library with no binaries: the registry of every table, figure,
//! ablation and regression trace (`experiments`; `acs reproduce --name
//! NAME` runs a row, DESIGN.md section 4 is the index), and the one seeded
//! session every served-byte check drives ([`served_stream`]; `acs
//! loadgen`).
//! Nothing here times anything for publication: latencies come from the
//! `benchmark/` package's layer table.

#![warn(missing_docs)]

pub mod experiments;
mod stream;

pub use stream::served_stream;

use acs_core::eval::{characterize_apps, evaluate, AppProfiles, Evaluation};
use acs_core::{MethodSummary, TrainingParams};
use acs_sim::Machine;
use std::path::PathBuf;

/// The fixed seed every experiment uses: results in EXPERIMENTS.md were
/// produced with this machine.
const EXPERIMENT_SEED: u64 = 2014;

/// The machine all experiments run on.
fn default_machine() -> Machine {
    Machine::new(EXPERIMENT_SEED)
}

/// Characterize the full 7-instance, 65-kernel-combination suite.
fn characterized_suite() -> Vec<AppProfiles> {
    characterize_apps(&default_machine(), &acs_kernels::app_instances())
}

/// Run the paper's full leave-one-benchmark-out evaluation with default
/// training parameters (k = 5 clusters).
fn full_evaluation() -> Evaluation {
    evaluate(&characterized_suite(), TrainingParams::default())
        .expect("full-suite training succeeds")
}

/// Format an optional percentage for table output.
fn pct(v: Option<f64>) -> String {
    match v {
        Some(p) => format!("{p:.0}"),
        None => "—".to_string(),
    }
}

/// Render summaries as a Table III-style text table.
pub fn render_table3(rows: &[MethodSummary]) -> String {
    let mut out = String::new();
    out.push_str("Method    | %Under  | Under %Perf | Under %Power | Over %Power | Over %Perf\n");
    out.push_str("----------+---------+-------------+--------------+-------------+-----------\n");
    for s in rows {
        out.push_str(&format!(
            "{:<9} | {:>7.0} | {:>11} | {:>12} | {:>11} | {:>10}\n",
            s.method.name(),
            s.pct_under,
            pct(s.under_perf_pct),
            pct(s.under_power_pct),
            pct(s.over_power_pct),
            pct(s.over_perf_pct),
        ));
    }
    out
}

/// Render a per-application-instance figure: one row per app label, one
/// column per compared method, using `metric` to pull the plotted value
/// out of each per-app summary.
fn render_by_app(
    eval: &Evaluation,
    title: &str,
    metric: impl Fn(&MethodSummary) -> Option<f64>,
) -> String {
    use acs_core::Method;
    let mut out = format!("{title}\n\n");
    out.push_str(&format!("{:<14}", "Benchmark"));
    for m in Method::COMPARED {
        out.push_str(&format!(" | {:>9}", m.name()));
    }
    out.push('\n');
    out.push_str(&"-".repeat(14 + Method::COMPARED.len() * 12));
    out.push('\n');
    for label in eval.app_labels() {
        out.push_str(&format!("{label:<14}"));
        for m in Method::COMPARED {
            let per_app = eval.by_app(m);
            let s = per_app.iter().find(|(l, _)| l == &label).map(|(_, s)| s);
            let v = s.and_then(&metric);
            out.push_str(&format!(" | {:>9}", pct(v)));
        }
        out.push('\n');
    }
    out
}

/// An experiment's result as it is committed under `results/`.
fn pretty<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("experiment results serialize")
}

/// Write `json` as `STEM.json` in the repo's `results/` directory
/// (created on demand) — the one writer of everything under `results/`.
/// Returns the path.
pub fn write_result(stem: &str, json: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, json)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(Some(91.4)), "91");
        assert_eq!(pct(None), "—");
    }

    #[test]
    fn machine_is_seeded() {
        assert_eq!(default_machine().seed, EXPERIMENT_SEED);
    }
}
