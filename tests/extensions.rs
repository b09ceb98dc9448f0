//! Integration tests for the extension features (confidence, runtime,
//! persistence) on the real suite, wired end to end across crates.

use acs::core::confidence::predict_with_confidence;
use acs::core::CappedRuntime;
use acs::prelude::*;

fn machine() -> Machine {
    Machine::new(2014)
}

fn trained_without(benchmark: &str) -> (TrainedModel, Vec<KernelProfile>) {
    let m = machine();
    let apps = acs::kernels::app_instances();
    let mut training = Vec::new();
    let mut held = Vec::new();
    for app in &apps {
        for k in &app.kernels {
            let p = KernelProfile::collect(&m, k);
            if app.benchmark == benchmark {
                held.push(p);
            } else {
                training.push(p);
            }
        }
    }
    (train(&training, TrainingParams::default()).unwrap(), held)
}

#[test]
fn risk_aversion_trades_perf_for_compliance_on_real_suite() {
    let m = machine();
    let (model, held) = trained_without("SMC");

    let mut compliance = [0usize; 2];
    let mut perf_sum = [0.0f64; 2];
    let mut cases = 0usize;
    for profile in &held {
        let bounded = predict_with_confidence(&model, &profile.sample_pair());
        for cap_point in profile.oracle_frontier().points() {
            let cap = cap_point.power_w;
            for (slot, z) in [(0usize, 0.0), (1usize, 2.0)] {
                let cfg = bounded.select_risk_averse(cap, z);
                let run = m.run(&profile.kernel, &cfg);
                if run.true_power_w() <= cap * (1.0 + 1e-9) {
                    compliance[slot] += 1;
                }
                perf_sum[slot] += 1.0 / run.time_s;
            }
            cases += 1;
        }
    }
    assert!(cases > 100);
    assert!(compliance[1] >= compliance[0], "risk aversion must help compliance");
    assert!(perf_sum[1] <= perf_sum[0] * 1.001, "and cost some performance");
}

#[test]
fn runtime_with_persisted_model_matches_in_memory_model() {
    let (model, _) = trained_without("LULESH");
    let dir = std::env::temp_dir().join("acs-ext-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.json");
    model.save(&path).unwrap();
    let reloaded = TrainedModel::load(&path).unwrap();

    let app =
        acs::kernels::app_instances().into_iter().find(|a| a.label() == "LULESH Small").unwrap();

    let mut rt_a = CappedRuntime::new(machine(), model, 22.0);
    let mut rt_b = CappedRuntime::new(machine(), reloaded, 22.0);
    let a = rt_a.run_app(&app, 3).unwrap();
    let b = rt_b.run_app(&app, 3).unwrap();
    assert_eq!(a, b, "persisted model must schedule identically");
    std::fs::remove_file(path).unwrap();
}

#[test]
fn boost_and_governor_substrates_compose() {
    use acs_sim::boost::{boosted_cpu_run, ThermalModel, BOOST_STATES};
    use acs_sim::{OndemandGovernor, PowerCalibration, TransitionModel};

    // The ondemand governor settles at max under load; boost then rides on
    // top for light thread counts; the transition model prices the walk.
    let gov = OndemandGovernor::default();
    let (state, moves) = gov.settle(CpuPState::MIN, 0.95);
    assert_eq!(state, CpuPState::MAX);
    assert!(moves >= 1);

    let kernel = acs::kernels::app_instances()[0].kernels[0].clone();
    let boosted = boosted_cpu_run(
        &kernel,
        &Configuration::cpu(1, state),
        &PowerCalibration::default(),
        &ThermalModel::default(),
        BOOST_STATES[1],
    );
    assert!(boosted.effective_freq_ghz >= state.freq_ghz());

    let t = TransitionModel::default();
    let walk = t.cpu_walk_latency_s(CpuPState::MIN, state);
    assert!(walk > 0.0 && walk < 1e-3, "ladder walk {walk}s fits the 1 ms budget");
}

#[test]
fn microbenchmark_trained_model_selects_for_real_kernels() {
    let m = machine();
    let micro = acs::kernels::generate(&acs::kernels::GeneratorConfig::default(), 2014);
    let profiles: Vec<KernelProfile> =
        micro.iter().map(|k| KernelProfile::collect(&m, k)).collect();
    let model = train(&profiles, TrainingParams::default()).unwrap();
    let predictor = Predictor::new(&model);

    // Every real kernel classifies into a valid cluster and gets a valid
    // configuration at any cap.
    for kernel in acs::kernels::all_kernel_instances().iter().take(10) {
        let samples = SamplePair::new(
            m.run_iter(kernel, &sample_config(Device::Cpu), 0),
            m.run_iter(kernel, &sample_config(Device::Gpu), 1),
        );
        let predicted = predictor.predict(&samples);
        assert!(predicted.cluster < model.clusters.len());
        let cfg = predicted.select(20.0);
        let run = m.run_iter(kernel, &cfg, 2);
        assert!(run.time_s > 0.0);
    }
}
