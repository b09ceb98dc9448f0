//! Thread-count invariance gates for the vendored rayon shim.
//!
//! The shim promises *byte-identical* results at any thread count: chunk
//! boundaries depend only on input length and collection is
//! index-ordered. These tests hold the promise against the four
//! sweep-shaped pipelines the paper's workflow actually runs — offline
//! training, leave-one-benchmark-out evaluation, the exhaustive oracle
//! sweep, and the guarded chaos timeline — by replaying each at 1, 2, and 8 threads and comparing the
//! serialized output byte-for-byte with the sequential (1-thread) run.
//!
//! `rayon::with_num_threads` overrides the thread count for the closure,
//! so one process exercises every count whatever `RAYON_NUM_THREADS`
//! says; CI additionally runs the whole suite under
//! `RAYON_NUM_THREADS=1` and the default count.

use acs::core::collect_suite;
use acs::kernels::training_kernels;
use acs::prelude::*;
use acs::verify::golden::{guarded_chaos_timeline, GOLDEN_SEED};

/// Thread counts every pipeline is replayed at. 1 is the sequential
/// fallback (the byte-level reference), 2 forces real helper threads, and
/// 8 over-subscribes a small host so chunk claiming order scrambles.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Offline training end-to-end: parallel profile sweeps, the O(K²)
/// pairwise Kendall dissimilarity matrix, clustering, and regression —
/// serialized to JSON.
fn training_json() -> String {
    let machine = Machine::new(GOLDEN_SEED);
    let profiles = collect_suite(&machine, &training_kernels());
    let model = train(&profiles, TrainingParams::default()).expect("training succeeds");
    serde_json::to_string(&model).expect("model serializes")
}

/// The exhaustive oracle sweep: one 42-configuration frontier per kernel,
/// fanned out per kernel.
fn oracle_sweep_json() -> String {
    let machine = Machine::new(GOLDEN_SEED);
    let frontiers: Vec<Frontier> = collect_suite(&machine, &training_kernels())
        .iter()
        .map(KernelProfile::oracle_frontier)
        .collect();
    serde_json::to_string(&frontiers).expect("frontiers serialize")
}

/// Leave-one-benchmark-out evaluation of the full suite: the suite-wide
/// dissimilarity matrix fans out over pairs and each fold's replay over
/// the held-out apps.
fn evaluation_json() -> String {
    serde_json::to_string(&acs_bench::full_evaluation()).expect("evaluation serializes")
}

/// Assert `f` produces the same bytes at every pool size in
/// [`THREAD_COUNTS`], returning the sequential reference.
fn assert_thread_invariant(label: &str, f: fn() -> String) -> String {
    let reference = rayon::with_num_threads(1, f);
    assert!(!reference.is_empty(), "{label}: sequential run produced nothing");
    for threads in THREAD_COUNTS {
        let run = rayon::with_num_threads(threads, f);
        assert_eq!(
            run, reference,
            "{label}: {threads}-thread run diverged from the sequential bytes"
        );
    }
    reference
}

#[test]
fn training_is_byte_identical_at_any_thread_count() {
    let json = assert_thread_invariant("offline training", training_json);
    // The serialized model must be substantive, not a degenerate stub.
    assert!(json.contains("clusters"), "model JSON looks truncated: {json:.60}");
}

#[test]
fn evaluation_is_byte_identical_at_any_thread_count_and_is_table3() {
    let json = assert_thread_invariant("evaluation", evaluation_json);
    let evaluation: acs::core::eval::Evaluation =
        serde_json::from_str(&json).expect("evaluation parses back");
    let committed: Vec<acs::core::MethodSummary> =
        serde_json::from_str(include_str!("../results/table3_methods.json"))
            .expect("results/table3_methods.json parses");
    assert_eq!(evaluation.table3(), committed, "Table III differs from the committed artifact");
}

#[test]
fn oracle_sweep_is_byte_identical_at_any_thread_count() {
    let json = assert_thread_invariant("oracle sweep", oracle_sweep_json);
    assert!(json.starts_with('['), "frontier list must serialize as an array");
}

#[test]
fn guarded_chaos_timeline_is_byte_identical_at_any_thread_count() {
    // The PR 1 fault-injection path on top of the PR 2 golden producers:
    // retries, sensor anomalies, and degradation-ladder moves must all
    // land in the same order whatever the thread count.
    assert_thread_invariant("guarded chaos timeline", guarded_chaos_timeline);
}

#[test]
fn pool_override_nests_and_restores() {
    // The comparison harness itself must be trustworthy: overrides nest,
    // and the process default returns once the closure is left.
    let outer = rayon::current_num_threads();
    rayon::with_num_threads(2, || {
        assert_eq!(rayon::current_num_threads(), 2);
        rayon::with_num_threads(3, || assert_eq!(rayon::current_num_threads(), 3));
        assert_eq!(rayon::current_num_threads(), 2);
    });
    assert_eq!(rayon::current_num_threads(), outer);
}
