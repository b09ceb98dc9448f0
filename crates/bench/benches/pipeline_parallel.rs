//! Experiment A12 — sequential-vs-parallel speedup of the sweep-shaped
//! offline pipeline.
//!
//! The end-to-end workload is the paper's offline characterization story
//! at verification scale: generate the quick scenario grid (per-kernel
//! 42-configuration sweeps), train the model (including the O(K²)
//! pairwise Kendall dissimilarity matrix), and replay every scenario
//! through the differential runner. Every stage fans out through the
//! vendored rayon shim, so this bench measures the whole-pipeline speedup
//! of its scoped helper threads over its own 1-thread sequential fallback
//! — results are byte-identical at any thread count (see
//! `tests/parallel_determinism.rs`), so only wall-clock may differ.
//!
//! Writes `results/BENCH_parallel.json` with the measured times and the
//! speedup ratio; CI runs this as a smoke step and uploads the JSON as an
//! artifact. On a single-core host the parallel run degenerates to the
//! sequential fallback and the speedup hovers around 1.0×.
//!
//! Run with: `cargo bench -p acs-bench --bench pipeline_parallel`

use acs_core::TrainingParams;
use acs_verify::{run_differential, GridParams, ScenarioGrid};
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One end-to-end offline-train + oracle-sweep + differential-replay run.
fn pipeline_once() -> usize {
    let grid = ScenarioGrid::generate(GridParams::quick());
    let report = run_differential(&grid, TrainingParams::default()).expect("training succeeds");
    report.total_scenarios
}

/// Median wall-clock of `runs` timed executions of `f`.
fn timed_median(runs: usize, mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

#[derive(Serialize)]
struct SpeedupResult {
    /// Thread count of the parallel run (the process default).
    parallel_threads: usize,
    /// Median sequential (1-thread) wall-clock, milliseconds.
    sequential_ms: f64,
    /// Median parallel wall-clock, milliseconds.
    parallel_ms: f64,
    /// `sequential_ms / parallel_ms`.
    speedup: f64,
    /// Scenarios replayed per run (sanity: both paths did the same work).
    scenarios_per_run: usize,
}

fn bench_pipeline_parallel(c: &mut Criterion) {
    let parallel_threads = rayon::current_num_threads();
    let runs = 5;

    // Warm both paths once (populates the configuration-space cache and
    // the OS page cache) before timing.
    let scenarios = rayon::with_num_threads(1, pipeline_once);
    black_box(pipeline_once());

    // Sequential = forced 1-thread fallback; parallel = the process
    // default exactly as production sees it.
    let seq = timed_median(runs, || {
        rayon::with_num_threads(1, || black_box(pipeline_once()));
    });
    let par = timed_median(runs, || {
        black_box(pipeline_once());
    });
    let result = SpeedupResult {
        parallel_threads,
        sequential_ms: seq.as_secs_f64() * 1e3,
        parallel_ms: par.as_secs_f64() * 1e3,
        speedup: seq.as_secs_f64() / par.as_secs_f64().max(1e-12),
        scenarios_per_run: scenarios,
    };
    let path = acs_bench::write_result("BENCH_parallel", &result);
    println!(
        "pipeline_parallel: seq {:.0} ms, par {:.0} ms on {} thread(s) → {:.2}× (wrote {})",
        result.sequential_ms,
        result.parallel_ms,
        result.parallel_threads,
        result.speedup,
        path.display()
    );

    // Criterion's own per-iteration view of the same two paths.
    c.bench_function("pipeline_e2e_sequential_1thread", |b| {
        b.iter(|| rayon::with_num_threads(1, || black_box(pipeline_once())))
    });
    c.bench_function("pipeline_e2e_parallel_default", |b| b.iter(|| black_box(pipeline_once())));
}

criterion_group!(benches, bench_pipeline_parallel);
criterion_main!(benches);
