//! Bit-for-bit identity gate for the precomputed selection engine
//! (DESIGN.md §15).
//!
//! The fast path — SoA config space, fused regression tables, a
//! caller-owned scratch arena, precomputed frontier skeletons —
//! promises *exactly* the scalar pipeline's floats, not merely close
//! ones: every intermediate keeps the scalar IEEE operation order, so
//! `f64::to_bits` must agree on every predicted point, the frontier, and
//! the selected configuration. This suite holds that promise across
//! random machine seeds × all four machine families × every kernel in a
//! cross-application suite × a spread of power caps (including NaN and
//! infeasible caps). It also holds the expected points of
//! `predict_with_confidence`, which reads the same tables, to
//! `Predictor::predict`'s.

use std::sync::OnceLock;

use acs::core::{collect_suite, predict_with_confidence, SelectScratch};
use acs::prelude::*;
use acs::sim::FamilyId;
use acs::verify::reference::predict_scalar;
use proptest::prelude::*;

/// Seed for the per-family training machines; sampling machines use
/// proptest-drawn seeds instead.
const TRAIN_SEED: u64 = 2014;

/// Kernels the identity sweep probes: one app per suite family so the
/// classifier visits CPU-bound, GPU-bound, and mixed clusters.
fn probe_kernels() -> Vec<KernelCharacteristics> {
    acs::kernels::training_kernels()
        .into_iter()
        .chain(acs::kernels::lulesh::kernels(InputSize::Small))
        .chain(acs::kernels::lu::kernels(InputSize::Small))
        .collect()
}

/// One trained model per machine family, built once and shared by every
/// proptest case (training is the expensive part; the identity property
/// itself is cheap).
fn family_models() -> &'static Vec<(FamilyId, TrainedModel)> {
    static MODELS: OnceLock<Vec<(FamilyId, TrainedModel)>> = OnceLock::new();
    MODELS.get_or_init(|| {
        FamilyId::ALL
            .into_iter()
            .map(|family| {
                let machine = Machine::from_family(family, TRAIN_SEED);
                let profiles = collect_suite(&machine, &probe_kernels());
                let model =
                    train(&profiles, TrainingParams::default()).expect("family training succeeds");
                (family, model)
            })
            .collect()
    })
}

/// Assert the flat profile is bit-identical to the scalar one.
fn assert_profiles_identical(fast: &PredictedProfile, scalar: &PredictedProfile, ctx: &str) {
    assert_eq!(fast.cluster, scalar.cluster, "{ctx}: cluster diverged");
    assert_eq!(fast.points.len(), scalar.points.len(), "{ctx}: point count diverged");
    for (f, s) in fast.points.iter().zip(&scalar.points) {
        assert_eq!(f.config, s.config, "{ctx}: point order diverged");
        assert_eq!(
            f.power_w.to_bits(),
            s.power_w.to_bits(),
            "{ctx}: power bits diverged at {}",
            f.config
        );
        assert_eq!(f.perf.to_bits(), s.perf.to_bits(), "{ctx}: perf bits diverged at {}", f.config);
    }
    assert_eq!(
        fast.frontier.points().len(),
        scalar.frontier.points().len(),
        "{ctx}: frontier size diverged"
    );
    for (f, s) in fast.frontier.points().iter().zip(scalar.frontier.points()) {
        assert_eq!(f.config, s.config, "{ctx}: frontier order diverged");
        assert_eq!(f.power_w.to_bits(), s.power_w.to_bits(), "{ctx}: frontier power diverged");
        assert_eq!(f.perf.to_bits(), s.perf.to_bits(), "{ctx}: frontier perf diverged");
    }
}

/// Flat vs scalar for one model on one machine: every predicted point,
/// the frontier, and the selection under each cap.
fn compare(
    model: &TrainedModel,
    machine: &Machine,
    kernels: &[KernelCharacteristics],
    caps: &[f64],
    ctx: &str,
) {
    let predictor = Predictor::new(model);
    let mut scratch = SelectScratch::new();
    for kernel in kernels {
        let samples = SamplePair::new(
            machine.run(kernel, &sample_config(Device::Cpu)),
            machine.run(kernel, &sample_config(Device::Gpu)),
        );
        let ctx = format!("{ctx} kernel {}", kernel.id());
        let scalar = predict_scalar(model, &samples);
        let memoized = predictor.predict(&samples);
        assert_profiles_identical(&memoized, &scalar, &ctx);
        for &cap in caps {
            let fast = predictor.select_with(&samples, cap, &mut scratch);
            assert_eq!(fast, scalar.select(cap), "{ctx}: selection diverged under cap {cap}");
            assert_eq!(fast, memoized.select(cap), "{ctx}: warm and cold disagree under cap {cap}");
        }
    }
}

/// The full identity sweep for one machine seed and cap list: every
/// family × every probe kernel.
fn sweep(seed: u64, caps: &[f64]) {
    let kernels = probe_kernels();
    for (family, model) in family_models() {
        let machine = Machine::from_family(*family, seed);
        compare(model, &machine, &kernels, caps, &format!("family {family:?} seed {seed}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(8))]

    #[test]
    fn flat_path_is_bit_identical_to_scalar_at_any_thread_count(
        seed in 0u64..1_000_000,
        caps in prop::collection::vec((0usize..4, 0.0..80.0f64), 2..6).prop_map(|raw| {
            raw.into_iter()
                .map(|(kind, cap)| match kind {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => -1.0,
                    _ => cap,
                })
                .collect::<Vec<f64>>()
        }),
    ) {
        sweep(seed, &caps);
    }
}

#[test]
fn confidence_bands_center_on_the_predictors_points() {
    // `predict_with_confidence` reads the Predictor's tables: its expected
    // points and cluster must be `Predictor::predict`'s, bit for bit, for
    // every family model and for one trained under the variance-
    // stabilizing transform (whose bands depend on the clamped tables).
    let machine = Machine::new(TRAIN_SEED);
    let stabilized = train(
        &collect_suite(&machine, &probe_kernels()),
        TrainingParams { stabilize_variance: true, ..Default::default() },
    )
    .expect("stabilized training succeeds");
    let models = family_models()
        .iter()
        .map(|(family, model)| {
            (format!("family {family:?}"), model, Machine::from_family(*family, TRAIN_SEED))
        })
        .chain([("stabilized".to_string(), &stabilized, machine)]);
    for (ctx, model, machine) in models {
        let predictor = Predictor::new(model);
        for kernel in probe_kernels() {
            let samples = SamplePair::new(
                machine.run(&kernel, &sample_config(Device::Cpu)),
                machine.run(&kernel, &sample_config(Device::Gpu)),
            );
            let ctx = format!("{ctx} kernel {}", kernel.id());
            let bounded = predict_with_confidence(model, &samples);
            let plain = predictor.predict(&samples);
            assert_eq!(bounded.cluster, plain.cluster, "{ctx}: cluster diverged");
            let expected = bounded.expected_points();
            assert_eq!(expected.len(), plain.points.len(), "{ctx}: point count diverged");
            for (e, p) in expected.iter().zip(&plain.points) {
                assert_eq!(e.config, p.config, "{ctx}: point order diverged");
                assert_eq!(
                    e.power_w.to_bits(),
                    p.power_w.to_bits(),
                    "{ctx}: power at {}",
                    e.config
                );
                assert_eq!(e.perf.to_bits(), p.perf.to_bits(), "{ctx}: perf at {}", e.config);
            }
        }
    }
}

#[test]
fn a_three_cluster_model_is_identical_on_the_kernels_it_was_trained_on() {
    // Not the suite's kernels and not k = 5: generated microbenchmarks,
    // scored on the machine that trained them, at caps pinned to include
    // nothing-fits (0), everything-fits (1e9) and NaN.
    let kernels = acs::kernels::generate(&acs::kernels::GeneratorConfig::default(), 7);
    let machine = Machine::new(7);
    let model = train(
        &collect_suite(&machine, &kernels),
        TrainingParams { n_clusters: 3, ..Default::default() },
    )
    .expect("microbenchmark training succeeds");
    let caps = [0.0, 5.0, 12.5, 20.0, 33.3, 60.0, 1e9, f64::NAN];
    compare(&model, &machine, &kernels, &caps, "microbenchmarks seed 7");
}
