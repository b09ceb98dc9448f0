//! Experiment A17 — latency of the flattened selection engine
//! (DESIGN.md §15).
//!
//! Three paths, same decision:
//!
//! * **cold** — `Predictor::select_with` through a reused
//!   [`SelectScratch`]: branchless CART classify, fused per-cluster
//!   regression tables, tie-refined frontier skeleton, binary-search
//!   cap lookup. This is what the serve engine pays on a cache miss.
//! * **warm** — `PredictedProfile::select` on a memoized profile: one
//!   `partition_point` over the predicted frontier. This is the serve
//!   engine's cache-hit path after the profile Arc is cloned.
//! * **scalar** — the reference `predict_scalar(..).select(cap)`
//!   pipeline (per-config feature rows, four `LinearModel::predict`
//!   calls each, full frontier sort). Kept to report the speedup; the
//!   flat paths are gated bit-identical to it in
//!   `tests/fastpath_identity.rs`.
//!
//! Writes `results/BENCH_select.json` and asserts the paper-level
//! budget: cold mean < 10 µs, warm mean < 5 µs. With `ACS_SELECT_GATE=1`
//! the previously committed `results/BENCH_select.json` becomes a
//! regression baseline: the run fails if the cold mean regressed by
//! more than 25%.
//!
//! Run with: `cargo bench -p acs-bench --bench select`

use acs_core::{collect_suite, train, Predictor, SelectScratch, TrainingParams};
use acs_core::{sample_config, SamplePair};
use acs_sim::Device;
use criterion::{criterion_group, criterion_main, Criterion};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;

/// Caps the timed loops rotate through, spanning infeasible-low to
/// uncapped so the binary search visits different frontier prefixes.
const CAPS: [f64; 6] = [8.0, 12.0, 18.0, 25.0, 35.0, 60.0];

/// Iterations per timed batch; the per-op mean comes from the median
/// batch of [`BATCHES`].
const BATCH_ITERS: usize = 20_000;
const BATCHES: usize = 7;

/// Scalar batches are shorter — the reference path is orders of
/// magnitude slower and only needs a mean, not a distribution.
const SCALAR_BATCH_ITERS: usize = 500;

#[derive(Serialize, Deserialize)]
struct SelectBenchResult {
    /// Mean flat cold select (classify + fused regression + frontier +
    /// cap lookup), microseconds.
    cold_mean_us: f64,
    /// Mean warm select (memoized profile, binary-search cap lookup),
    /// microseconds.
    warm_mean_us: f64,
    /// Mean scalar reference select, microseconds.
    scalar_mean_us: f64,
    /// `scalar_mean_us / cold_mean_us`.
    cold_speedup_vs_scalar: f64,
    /// Iterations per timed batch (median of several batches).
    batch_iters: usize,
}

/// Median-batch mean latency, in microseconds, of `iters` calls to `f`.
fn mean_us_of_median_batch(batches: usize, iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_op: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t0.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    per_op.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    per_op[per_op.len() / 2]
}

fn bench_select(c: &mut Criterion) {
    let machine = acs_bench::default_machine();
    let profiles = collect_suite(&machine, &acs_kernels::training_kernels());
    let model = train(&profiles, TrainingParams::default()).expect("training succeeds");
    let predictor = Predictor::new(&model);

    // The probed kernel is held out of training (LULESH vs CoMD+SMC).
    let kernel = &acs_kernels::lulesh::kernels(acs_kernels::InputSize::Small)[0];
    let samples = SamplePair::new(
        machine.run(kernel, &sample_config(Device::Cpu)),
        machine.run(kernel, &sample_config(Device::Gpu)),
    );

    let mut scratch = SelectScratch::new();
    let memoized = predictor.predict(&samples);

    // Warm every path (and the config-space cache) before timing.
    for cap in CAPS {
        assert_eq!(
            predictor.select_with(&samples, cap, &mut scratch),
            predictor.predict_scalar(&samples).select(cap),
            "flat and scalar paths disagree at cap {cap} — run tests/fastpath_identity.rs"
        );
        assert_eq!(memoized.select(cap), predictor.select_with(&samples, cap, &mut scratch));
    }

    let cold_mean_us = mean_us_of_median_batch(BATCHES, BATCH_ITERS, |i| {
        let cap = CAPS[i % CAPS.len()];
        black_box(predictor.select_with(black_box(&samples), cap, &mut scratch));
    });
    let warm_mean_us = mean_us_of_median_batch(BATCHES, BATCH_ITERS, |i| {
        let cap = CAPS[i % CAPS.len()];
        black_box(memoized.select(black_box(cap)));
    });
    let scalar_mean_us = mean_us_of_median_batch(BATCHES, SCALAR_BATCH_ITERS, |i| {
        let cap = CAPS[i % CAPS.len()];
        black_box(predictor.predict_scalar(black_box(&samples)).select(cap));
    });

    let result = SelectBenchResult {
        cold_mean_us,
        warm_mean_us,
        scalar_mean_us,
        cold_speedup_vs_scalar: scalar_mean_us / cold_mean_us.max(1e-12),
        batch_iters: BATCH_ITERS,
    };

    // Optional regression gate against the committed baseline; read it
    // before `write_result` overwrites the file.
    let gate = std::env::var("ACS_SELECT_GATE").is_ok_and(|v| v == "1");
    let baseline: Option<SelectBenchResult> = gate.then(|| {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/BENCH_select.json");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("ACS_SELECT_GATE=1 but no baseline at {path:?}: {e}"));
        serde_json::from_str(&text).expect("baseline BENCH_select.json parses")
    });

    let path = acs_bench::write_result("BENCH_select", &result);
    println!(
        "select: cold {cold_mean_us:.3} µs, warm {warm_mean_us:.3} µs, scalar {scalar_mean_us:.3} µs \
         ({:.1}× cold speedup) (wrote {})",
        result.cold_speedup_vs_scalar,
        path.display()
    );

    // The paper-level latency budget (ISSUE PR 8 / EXPERIMENTS.md A17).
    assert!(cold_mean_us < 10.0, "cold select mean {cold_mean_us:.3} µs ≥ 10 µs budget");
    assert!(warm_mean_us < 5.0, "warm select mean {warm_mean_us:.3} µs ≥ 5 µs budget");

    if let Some(base) = baseline {
        let limit = base.cold_mean_us * 1.25;
        assert!(
            cold_mean_us <= limit,
            "cold select regressed: {cold_mean_us:.3} µs vs committed {:.3} µs (+25% limit {limit:.3})",
            base.cold_mean_us
        );
    }

    // Criterion's per-iteration view of the same three paths.
    c.bench_function("select_cold_flat", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(predictor.select_with(
                black_box(&samples),
                CAPS[i % CAPS.len()],
                &mut scratch,
            ))
        })
    });
    c.bench_function("select_warm_memoized", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(memoized.select(black_box(CAPS[i % CAPS.len()])))
        })
    });
    c.bench_function("select_scalar_reference", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(predictor.predict_scalar(black_box(&samples)).select(CAPS[i % CAPS.len()]))
        })
    });
}

criterion_group!(benches, bench_select);
criterion_main!(benches);
