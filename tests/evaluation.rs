//! Integration tests for the evaluation protocol itself: invariants that
//! must hold for *any* correct implementation of Section V, checked on a
//! reduced suite for speed.

use acs::core::dissimilarity::dissimilarity_matrix;
use acs::core::eval::{
    characterize_apps, evaluate, evaluate_kernel, AppProfiles, CaseResult, Evaluation,
    PreparedSuite,
};
use acs::core::methods;
use acs::prelude::*;
use acs::sim::FamilyId;

fn reduced_suite() -> Vec<AppProfiles> {
    let machine = Machine::new(7);
    let apps: Vec<AppInstance> = acs::kernels::app_instances()
        .into_iter()
        .filter(|a| a.input != "Large") // halve the work
        .collect();
    characterize_apps(&machine, &apps)
}

fn run_eval() -> Evaluation {
    evaluate(&reduced_suite(), TrainingParams::default()).expect("training succeeds")
}

#[test]
fn every_kernel_contributes_every_method() {
    let e = run_eval();
    let apps = reduced_suite();
    let kernel_count: usize = apps.iter().map(|a| a.profiles.len()).sum();
    for &m in &Method::COMPARED {
        let mut ids: Vec<&str> =
            e.cases.iter().filter(|c| c.method == m).map(|c| &*c.kernel_id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), kernel_count, "{m} missing kernels");
    }
}

#[test]
fn caps_are_oracle_frontier_powers() {
    // Section V-B: the tested power constraints are exactly the power
    // levels of the oracle frontier configurations.
    let apps = reduced_suite();
    let e = evaluate(&apps, TrainingParams::default()).unwrap();
    for app in &apps {
        for profile in &app.profiles {
            let expected: Vec<f64> =
                profile.oracle_frontier().points().iter().map(|p| p.power_w).collect();
            let mut seen: Vec<f64> = e
                .cases
                .iter()
                .filter(|c| *c.kernel_id == profile.kernel.id() && c.method == Method::Model)
                .map(|c| c.cap_w)
                .collect();
            seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut want = expected.clone();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(seen, want, "caps mismatch for {}", profile.kernel.id());
        }
    }
}

#[test]
fn oracle_meets_every_cap_it_defines() {
    // By construction the oracle frontier point at each cap meets it.
    let apps = reduced_suite();
    for app in &apps {
        for profile in &app.profiles {
            for p in profile.oracle_frontier().points() {
                let cfg = methods::oracle_select(profile, p.power_w);
                assert!(
                    profile.run_at(&cfg).true_power_w() <= p.power_w * (1.0 + 1e-9),
                    "oracle violated its own cap on {}",
                    profile.kernel.id()
                );
            }
        }
    }
}

#[test]
fn public_wrapper_and_fold_path_are_the_same_replay() {
    // `evaluate` compiles one predictor per fold; `evaluate_kernel` takes
    // a model and compiles its own. Hold out LU by hand and the wrapper
    // must reproduce `evaluate`'s cases for LU's kernels exactly.
    let apps = reduced_suite();
    let e = evaluate(&apps, TrainingParams::default()).unwrap();
    let training: Vec<KernelProfile> = apps
        .iter()
        .filter(|a| a.app.benchmark != "LU")
        .flat_map(|a| a.profiles.iter().cloned())
        .collect();
    let fold_model = train(&training, TrainingParams::default()).unwrap();
    let held_out: Vec<&AppProfiles> = apps.iter().filter(|a| a.app.benchmark == "LU").collect();
    assert!(!held_out.is_empty());
    for app in held_out {
        let label = app.app.label();
        for profile in &app.profiles {
            let direct = evaluate_kernel(profile, &fold_model, &label);
            let id = profile.kernel.id();
            let from_evaluate: Vec<CaseResult> = e
                .cases
                .iter()
                .filter(|c| *c.app_label == label && *c.kernel_id == id)
                .cloned()
                .collect();
            assert!(!direct.is_empty());
            assert_eq!(direct, from_evaluate, "{id}");
        }
    }
}

#[test]
fn every_fold_is_what_training_on_its_own_would_build() {
    // `evaluate` compares the suite's frontiers once and fits each fold on
    // a subset of that. Per fold, the sub-matrix must be the matrix of the
    // fold's own frontiers and the model must be `train()` on a copy of
    // the fold's profiles — on every machine family, at two seeds.
    for family in FamilyId::ALL {
        for seed in [2014, 7] {
            let machine = Machine::from_family(family, seed);
            let apps = characterize_apps(&machine, &acs::kernels::app_instances());
            let suite = PreparedSuite::new(&apps).unwrap();
            let evaluation = suite.evaluate(TrainingParams::default()).unwrap();
            assert_eq!(evaluation, evaluate(&apps, TrainingParams::default()).unwrap());

            assert_eq!(suite.folds().len(), 4, "LULESH, CoMD, SMC, LU");
            for (i, (fold, indices)) in suite.folds().iter().enumerate() {
                let training: Vec<KernelProfile> =
                    fold.train.iter().flat_map(|&ai| apps[ai].profiles.iter().cloned()).collect();
                assert_eq!(indices.len(), training.len());
                let frontiers: Vec<Frontier> =
                    training.iter().map(KernelProfile::frontier).collect();
                assert_eq!(
                    suite.kernels().matrix().principal(indices),
                    dissimilarity_matrix(&frontiers),
                    "{family} seed {seed}, fold {}",
                    fold.label
                );
                let model = suite.kernels().fit(indices, TrainingParams::default()).unwrap();
                assert_eq!(
                    model,
                    train(&training, TrainingParams::default()).unwrap(),
                    "{family} seed {seed}, fold {}",
                    fold.label
                );
                assert_eq!(evaluation.fold_silhouettes[i], (fold.label.clone(), model.silhouette));
            }
        }
    }
}

#[test]
fn a_held_out_benchmark_cannot_reach_its_own_fold() {
    // Section V-C: a fold is trained without its held-out benchmark. Scale
    // every run of one benchmark's profiles (time and both power planes,
    // measured and true): the fold holding it out must fit the same model
    // to the bit from its sub-matrix of the suite's matrix, and every fold
    // that trains on it must see the change. Each benchmark in turn.
    let params = TrainingParams::default();
    let apps = reduced_suite();
    let suite = PreparedSuite::new(&apps).unwrap();
    // The JSON model file: every number in it, to the bit.
    let model_bytes = |suite: &PreparedSuite, indices: &[usize]| {
        serde_json::to_string(&suite.kernels().fit(indices, params).unwrap()).unwrap()
    };
    let models: Vec<String> =
        suite.folds().iter().map(|(_, indices)| model_bytes(&suite, indices)).collect();
    for benchmark in ["LULESH", "CoMD", "SMC", "LU"] {
        let mut scaled = apps.clone();
        for app in scaled.iter_mut().filter(|a| a.app.benchmark == benchmark) {
            for run in app.profiles.iter_mut().flat_map(|p| &mut p.runs) {
                run.time_s *= 1.5;
                for power in [&mut run.power, &mut run.true_power] {
                    power.cpu_plane_w *= 1.25;
                    power.gpu_nb_plane_w *= 0.8;
                }
            }
        }
        let twin = PreparedSuite::new(&scaled).unwrap();
        let mut held_out = 0;
        for (((fold, indices), twin_fold), ours) in
            suite.folds().iter().zip(twin.folds()).zip(&models)
        {
            assert_eq!((fold, indices), (&twin_fold.0, &twin_fold.1));
            let theirs = model_bytes(&twin, indices);
            if fold.test.iter().all(|&ai| apps[ai].app.benchmark == benchmark) {
                held_out += 1;
                assert_eq!(ours, &theirs, "fold {} holds {benchmark} out", fold.label);
            } else {
                assert_ne!(ours, &theirs, "fold {} trains on {benchmark}", fold.label);
            }
        }
        assert_eq!(held_out, 1, "one fold holds {benchmark} out");
    }
}

#[test]
fn oracle_perf_bounds_under_limit_methods() {
    let e = run_eval();
    for c in &e.cases {
        if c.under_limit() {
            assert!(c.perf_ratio() <= 1.0 + 1e-9, "{:?}", c);
        } else {
            // Over-limit cases must exceed the cap in true power.
            assert!(c.power_w > c.cap_w);
        }
    }
}

#[test]
fn frequency_limiting_never_hurts_cap_compliance() {
    let e = run_eval();
    let pct = |m: Method| e.table3().iter().find(|s| s.method == m).unwrap().pct_under;
    assert!(pct(Method::ModelFL) >= pct(Method::Model) - 1e-9);
}

#[test]
fn summaries_decompose_by_app() {
    // Per-app weights sum to 1 per method; the all-up weight equals the
    // number of app instances.
    let e = run_eval();
    let labels = e.app_labels();
    for &m in &Method::COMPARED {
        let mut total = 0.0;
        for label in &labels {
            total += e
                .cases
                .iter()
                .filter(|c| c.method == m && &c.app_label == label)
                .map(|c| c.weight)
                .sum::<f64>();
        }
        assert!((total - labels.len() as f64).abs() < 1e-9);
    }
}

#[test]
fn evaluation_is_reproducible_across_runs() {
    let a = run_eval();
    let b = run_eval();
    assert_eq!(a, b);
}

#[test]
fn gpu_fl_never_selects_cpu_device_and_vice_versa() {
    let e = run_eval();
    for c in &e.cases {
        match c.method {
            Method::GpuFL => assert_eq!(c.config.device, Device::Gpu),
            Method::CpuFL => {
                assert_eq!(c.config.device, Device::Cpu);
                assert_eq!(c.config.threads, 4);
            }
            _ => {}
        }
    }
}

#[test]
fn different_seeds_preserve_table3_shape() {
    // The qualitative result must not be an artifact of one noise seed.
    for seed in [1, 99] {
        let machine = Machine::new(seed);
        let apps: Vec<AppInstance> =
            acs::kernels::app_instances().into_iter().filter(|a| a.input != "Large").collect();
        let apps = characterize_apps(&machine, &apps);
        let e = evaluate(&apps, TrainingParams::default()).unwrap();
        let get = |m: Method| e.table3().iter().find(|s| s.method == m).copied().unwrap();
        assert!(
            get(Method::ModelFL).pct_under >= get(Method::GpuFL).pct_under,
            "seed {seed}: Model+FL must beat GPU+FL on cap compliance"
        );
        let cpu_perf = get(Method::CpuFL).under_perf_pct.unwrap_or(0.0);
        let model_perf = get(Method::ModelFL).under_perf_pct.unwrap_or(0.0);
        assert!(
            model_perf > cpu_perf,
            "seed {seed}: Model+FL perf {model_perf} must beat CPU+FL {cpu_perf}"
        );
    }
}
