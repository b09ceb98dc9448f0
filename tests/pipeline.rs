//! End-to-end integration tests: the full offline → online pipeline wired
//! across all five crates, on real suite kernels.

use acs::core::prediction_error;
use acs::prelude::*;

fn machine() -> Machine {
    Machine::new(2014)
}

/// Train on three benchmarks, hold out the fourth.
fn train_without(benchmark: &str) -> (TrainedModel, Vec<KernelProfile>, Vec<KernelProfile>) {
    let m = machine();
    let apps = acs::kernels::app_instances();
    let mut training = Vec::new();
    let mut held_out = Vec::new();
    for app in &apps {
        for k in &app.kernels {
            let p = KernelProfile::collect(&m, k);
            if app.benchmark == benchmark {
                held_out.push(p);
            } else {
                training.push(p);
            }
        }
    }
    let model = train(&training, TrainingParams::default()).expect("training succeeds");
    (model, training, held_out)
}

#[test]
fn full_pipeline_trains_on_real_suite() {
    let (model, training, _) = train_without("LU");
    assert_eq!(model.clusters.len(), 5);
    assert_eq!(model.kernel_ids.len(), training.len());
    assert!(model.silhouette > 0.0, "clusters must have structure");
    // Paper: each cluster contains kernels from several benchmark/input
    // combinations — no cluster is a single benchmark's dumping ground.
    for c in 0..model.clustering.k() {
        assert!(!model.clustering.members(c).is_empty(), "cluster {c} empty");
    }
}

#[test]
fn held_out_predictions_have_bounded_error() {
    // The paper's premise: the model predicts power and performance for
    // kernels it has never seen. Check mean relative errors stay sane on
    // every held-out benchmark.
    for benchmark in ["LULESH", "CoMD", "SMC", "LU"] {
        let (model, _, held_out) = train_without(benchmark);
        let predictor = Predictor::new(&model);
        let mut power_errs = Vec::new();
        let mut perf_errs = Vec::new();
        for p in &held_out {
            let predicted = predictor.predict(&p.sample_pair());
            let err = prediction_error(&predicted, &p.measured_points());
            power_errs.push(err.power_mape);
            perf_errs.push(err.perf_mape);
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&power_errs) < 0.30, "{benchmark}: mean power MAPE {:.3}", mean(&power_errs));
        assert!(mean(&perf_errs) < 0.80, "{benchmark}: mean perf MAPE {:.3}", mean(&perf_errs));
    }
}

#[test]
fn two_iterations_suffice_for_selection() {
    // The headline workflow: exactly two kernel executions, then a
    // configuration for any cap.
    let m = machine();
    let (model, _, held_out) = train_without("CoMD");
    let kernel_profile = &held_out[0];
    let kernel = &kernel_profile.kernel;

    let samples = SamplePair::new(
        m.run_iter(kernel, &sample_config(Device::Cpu), 0),
        m.run_iter(kernel, &sample_config(Device::Gpu), 1),
    );
    let predicted = Predictor::new(&model).predict(&samples);

    for cap in [12.0, 18.0, 25.0, 40.0] {
        let config = predicted.select(cap);
        let run = m.run_iter(kernel, &config, 2);
        assert!(run.time_s > 0.0 && run.power_w() > 0.0);
    }
}

#[test]
fn model_beats_naive_baselines_under_tight_caps() {
    // On a GPU-hostile kernel under a tight cap, the model should pick a
    // configuration that both meets the cap and outperforms GPU+FL's
    // (which is stuck on the GPU and blows the cap).
    let (model, _, held_out) = train_without("SMC");
    let fill_boundary =
        held_out.iter().find(|p| p.kernel.name == "FillBoundary").expect("FillBoundary in SMC");
    let predictor = Predictor::new(&model);

    let cap = fill_boundary.oracle_frontier().min_power().unwrap().power_w * 1.3;
    let predicted = predictor.predict(&fill_boundary.sample_pair()).frontier;
    let pick = |method| acs::core::methods::select(method, fill_boundary, &predicted, cap);
    let (model_cfg, gpu_cfg) = (pick(Method::Model), pick(Method::GpuFL));

    let model_power = fill_boundary.run_at(&model_cfg).true_power_w();
    let gpu_power = fill_boundary.run_at(&gpu_cfg).true_power_w();
    assert!(
        model_power < gpu_power,
        "model ({model_cfg}, {model_power:.1} W) should undercut GPU+FL \
         ({gpu_cfg}, {gpu_power:.1} W) at cap {cap:.1} W"
    );
    assert_eq!(model_cfg.device, Device::Cpu, "GPU-hostile kernel belongs on the CPU");
}

#[test]
fn facade_prelude_exposes_whole_workflow() {
    // Compile-time check that the prelude is sufficient for the README
    // workflow (plus a smoke run).
    let m = Machine::new(1);
    let k = KernelCharacteristics::default();
    let cfg = Configuration::cpu(2, CpuPState::MAX);
    let run: KernelRun = m.run(&k, &cfg);
    let _: &Frontier = &Frontier::from_points(vec![PowerPerfPoint {
        config: cfg,
        power_w: run.power_w(),
        perf: 1.0 / run.time_s,
    }]);
    let _ = (InputSize::Small, Method::Model, GpuPState::MIN);
    let _unused: Option<PredictedProfile> = None;
    let _a: Vec<AppInstance> = acs::kernels::app_instances();
}
