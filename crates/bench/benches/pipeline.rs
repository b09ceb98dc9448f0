//! Criterion benchmarks for the pipeline's hot paths.
//!
//! `online_selection` is experiment A3: the paper claims the online stage
//! "requires less than one millisecond to make each configuration
//! selection" (Section II) — classify via the tree, predict the 42-point
//! configuration space, derive the predicted frontier, and pick under a
//! cap.

use acs_core::dissimilarity::dissimilarity_matrix;
use acs_core::{train, Frontier, KernelProfile, Predictor, TrainingParams};
use acs_mlstat::{pam, LinearModel};
use acs_sim::{Configuration, KernelCharacteristics, Machine};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn training_set() -> Vec<KernelProfile> {
    let machine = Machine::new(2014);
    let kernels: Vec<KernelCharacteristics> =
        acs_kernels::app_instances().into_iter().take(3).flat_map(|a| a.kernels).collect();
    acs_core::collect_suite(&machine, &kernels)
}

fn bench_online_selection(c: &mut Criterion) {
    let profiles = training_set();
    let model = train(&profiles, TrainingParams::default()).expect("training succeeds");
    let predictor = Predictor::new(&model);
    let samples = profiles[0].sample_pair();

    // The full online path: classify → predict all configs → frontier →
    // select. Paper bound: < 1 ms.
    c.bench_function("online_selection", |b| {
        b.iter(|| {
            let predicted = predictor.predict(black_box(&samples));
            black_box(predicted.select(25.0))
        })
    });

    // Selection alone once predictions exist (cap changes at runtime —
    // "avoids the need to examine predictions for all configurations when
    // scheduling conditions change").
    let predicted = predictor.predict(&samples);
    c.bench_function("reselect_under_new_cap", |b| {
        let mut cap = 10.0;
        b.iter(|| {
            cap = if cap > 40.0 { 10.0 } else { cap + 0.1 };
            black_box(predicted.select(black_box(cap)))
        })
    });

    c.bench_function("tree_classification", |b| {
        b.iter(|| black_box(predictor.classify(black_box(&samples))))
    });
}

fn bench_offline_stage(c: &mut Criterion) {
    let profiles = training_set();

    c.bench_function("offline_training_full", |b| {
        b.iter(|| black_box(train(black_box(&profiles), TrainingParams::default()).unwrap()))
    });

    let frontiers: Vec<Frontier> = profiles.iter().map(KernelProfile::frontier).collect();
    c.bench_function("dissimilarity_matrix", |b| {
        b.iter(|| black_box(dissimilarity_matrix(black_box(&frontiers))))
    });

    let matrix = dissimilarity_matrix(&frontiers);
    c.bench_function("pam_k5", |b| b.iter(|| black_box(pam(black_box(&matrix), 5))));

    let points = profiles[0].measured_points();
    c.bench_function("frontier_extraction", |b| {
        b.iter_batched(
            || points.clone(),
            |pts| black_box(Frontier::from_points(pts)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_substrates(c: &mut Criterion) {
    let machine = Machine::new(2014);
    let kernel = KernelCharacteristics::default();
    c.bench_function("machine_single_run", |b| {
        let cfg = Configuration::all()[17];
        b.iter(|| black_box(machine.run(black_box(&kernel), &cfg)))
    });
    c.bench_function("machine_full_sweep", |b| {
        b.iter(|| black_box(machine.sweep(black_box(&kernel))))
    });

    // Regression fit at the size the offline stage uses per cluster
    // (~hundreds of rows, 6 columns).
    let rows: Vec<Vec<f64>> = (0..400)
        .map(|i| {
            let x = i as f64 / 400.0;
            vec![x, x * x, (i % 7) as f64, x * (i % 7) as f64, 1.0 - x, x.sqrt()]
        })
        .collect();
    let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - r[2] + 0.5 * r[3] + 3.0).collect();
    c.bench_function("ols_fit_400x6", |b| {
        b.iter(|| black_box(LinearModel::fit(black_box(&rows), black_box(&y), true).unwrap()))
    });
}

fn bench_extensions(c: &mut Criterion) {
    use acs_core::bootstrap::bootstrap_table3;
    use acs_core::eval::{characterize_apps, evaluate};
    use acs_core::partition::{partition_budget, DemandCurve};

    // Partitioning two apps' demand curves at 0.5 W resolution. Use two
    // *distinct* benchmarks (CoMD + SMC) so the LOBO evaluation below has
    // a training fold.
    let machine = Machine::new(2014);
    let two_benchmarks: Vec<acs_kernels::AppInstance> = acs_kernels::app_instances()
        .into_iter()
        .filter(|a| a.label() == "CoMD" || a.label() == "SMC Small")
        .collect();
    let apps = characterize_apps(&machine, &two_benchmarks);
    let model = train(
        &apps.iter().flat_map(|a| a.profiles.iter().cloned()).collect::<Vec<_>>(),
        TrainingParams::default(),
    )
    .expect("training succeeds");
    let predictor = Predictor::new(&model);
    let curves: Vec<DemandCurve> = apps
        .iter()
        .map(|a| {
            let frontiers: Vec<(f64, Frontier)> = a
                .profiles
                .iter()
                .map(|p| (p.kernel.weight, predictor.predict(&p.sample_pair()).frontier))
                .collect();
            DemandCurve::from_frontiers(&a.app.label(), &frontiers)
        })
        .collect();
    c.bench_function("partition_two_apps", |b| {
        b.iter(|| black_box(partition_budget(black_box(&curves), 50.0, 0.5)))
    });

    // Bootstrap CIs over a mini evaluation (100 replicates).
    let eval = evaluate(&apps, TrainingParams::default()).expect("evaluation succeeds");
    c.bench_function("bootstrap_100", |b| {
        b.iter(|| black_box(bootstrap_table3(black_box(&eval.cases), 100, 0.95, 1)))
    });

    // Phase-trace construction and accumulator sampling.
    let kernel = KernelCharacteristics::default();
    let cfg = Configuration::all()[30];
    let cal = acs_sim::PowerCalibration::default();
    c.bench_function("trace_build_and_sense", |b| {
        let sensor = acs_sim::PowerSensor::default();
        let noise = acs_sim::NoiseSource::new(1, "bench", cfg.index(), 0);
        b.iter(|| {
            let trace = acs_sim::trace_for(black_box(&kernel), &cfg, &cal);
            black_box(sensor.estimate_trace(&trace, |p| p.cpu_plane_w, &noise))
        })
    });
}

criterion_group!(
    benches,
    bench_online_selection,
    bench_offline_stage,
    bench_substrates,
    bench_extensions
);
criterion_main!(benches);
