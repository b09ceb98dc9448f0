//! Bit identity of the offline stage's kernels with their obvious
//! statements in `acs_verify::reference`: the rank-table frontier
//! dissimilarity against ranks-as-floats + `kendall::tau_a`, PAM's
//! one-pass-per-candidate SWAP against a full re-assignment per trial,
//! the one-pass silhouette against a rescan per cluster, one Gram per
//! design and one factorization per regression against a Gram per model
//! and a factorization per right-hand side, a running Gram over a block
//! stacked once per cluster member against the Gram of the repeated
//! rows, the CART's one sort per feature against a sort per node, the
//! evaluation loop's one predicted frontier per kernel against a
//! prediction per cap, and the power sensor's one sweep over a two-phase
//! waveform against a scan from `t = 0` per sample per plane over the
//! materialized segments. Equality is on `to_bits()`, not within a
//! tolerance: every committed result depends on these kernels.

use acs_core::dissimilarity::{dissimilarity_matrix, frontier_dissimilarity};
use acs_core::eval::{characterize_apps, replay, Pick};
use acs_core::{train_on_suite, Frontier, KernelProfile, Method, PowerPerfPoint, Predictor};
use acs_kernels::GeneratorConfig;
use acs_mlstat::cluster::NearestMedoids;
use acs_mlstat::tree::Node;
use acs_mlstat::{
    pam, silhouette, ClassificationTree, Design, Dissimilarity, FitError, LinearModel, Matrix,
    MatrixError, TreeParams,
};
use acs_sim::{
    Configuration, FamilyId, Machine, NoiseSource, PowerBreakdown, PowerSensor, PowerTrace,
};
use acs_verify::reference::{self, SegmentTrace};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A frontier holding `configs` in this order: power and performance rise
/// with position, so `from_points` keeps every point — repeated
/// configurations included.
fn frontier(configs: &[usize]) -> Frontier {
    let space = Configuration::all();
    let points = configs
        .iter()
        .enumerate()
        .map(|(rank, &ci)| PowerPerfPoint {
            config: space[ci],
            power_w: 5.0 + rank as f64,
            perf: 1.0 + rank as f64,
        })
        .collect();
    Frontier::from_points(points)
}

/// Configuration indices in any order, short of a full space by one so a
/// test can add one.
fn configs() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..42, 0..42)
}

/// A symmetric matrix over `n` items whose entries mostly come from a
/// five-value grid starting at zero — ties and zero off-diagonal
/// dissimilarities are the cases the tie-breaks exist for — and a
/// medoid order (a permutation of the items).
fn matrix_and_order() -> impl Strategy<Value = (Dissimilarity, Vec<usize>)> {
    (1usize..=9).prop_flat_map(|n| {
        let entries = prop::collection::vec((0u8..8, 0.0..1.0f64), n * (n - 1) / 2);
        let keys = prop::collection::vec(0u64..u64::MAX, n);
        (entries, keys).prop_map(move |(entries, keys)| {
            let mut d = Dissimilarity::zeros(n);
            let mut entries = entries.into_iter();
            for i in 0..n {
                for j in 0..i {
                    let (grid, free) = entries.next().expect("one entry per pair");
                    d.set(i, j, if grid < 5 { f64::from(grid) * 0.25 } else { free });
                }
            }
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| (keys[i], i));
            (d, order)
        })
    })
}

/// Design rows on a small integer grid (so columns repeat and the Gram
/// goes singular often enough), a response, and whether to fit an
/// intercept. There are at least as many rows as columns.
fn design() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>, bool)> {
    (1usize..=5, 1usize..=25).prop_flat_map(|(p, extra)| {
        let n = p + extra;
        let rows = prop::collection::vec(prop::collection::vec(0u8..4, p), n);
        let y = prop::collection::vec(-10.0..10.0f64, n);
        (rows, y, 0u8..2).prop_map(|(rows, y, intercept)| {
            let rows = rows.into_iter().map(|r| r.into_iter().map(f64::from).collect()).collect();
            (rows, y, intercept == 1)
        })
    })
}

/// A block of design rows, mostly zeros (so columns vanish or repeat and
/// the Gram goes singular often), the number of cluster members that
/// stack it, and one response per stacked row.
fn stacked_design() -> impl Strategy<Value = (Vec<Vec<f64>>, usize, Vec<f64>)> {
    (1usize..=6, 1usize..=24, 1usize..=70).prop_flat_map(|(p, b, members)| {
        let entry = (0u8..10, -2.0..2.0f64).prop_map(|(pick, free)| match pick {
            0..=5 => 0.0,
            6..=8 => f64::from(pick - 5),
            _ => free,
        });
        let rows = prop::collection::vec(prop::collection::vec(entry, p), b);
        (rows, Just(members), prop::collection::vec(-10.0..10.0f64, b * members))
    })
}

/// A CART training set with its controls, and a held-out set to prune
/// the grown tree against.
#[derive(Debug, Clone)]
struct TreeProblem {
    rows: Vec<Vec<f64>>,
    labels: Vec<usize>,
    n_classes: usize,
    params: TreeParams,
    held_rows: Vec<Vec<f64>>,
    held_labels: Vec<usize>,
}

/// A feature value, three times in four from a small set holding both
/// zeros: features tie often, and equal values of either sign meet.
fn tied_value() -> impl Strategy<Value = f64> {
    (0u8..8, -5.0..5.0f64).prop_map(|(pick, free)| {
        [-0.0, 0.0, 0.25, 1.0, -1.0, 3.0].get(usize::from(pick)).copied().unwrap_or(free)
    })
}

/// Up to 50 samples of 1–6 tied features in 1–6 classes, any controls.
fn tree_problem() -> impl Strategy<Value = TreeProblem> {
    let sizes = (1usize..=6, 1usize..=6, 1usize..=50, 0usize..=12);
    (sizes, (0usize..=8, 0usize..=6, 0usize..=4)).prop_flat_map(
        |((n_classes, n_features, n, held), (max_depth, min_split, min_leaf))| {
            let rows =
                |n| prop::collection::vec(prop::collection::vec(tied_value(), n_features), n);
            let labels = |n| prop::collection::vec(0..n_classes, n);
            (rows(n), labels(n), rows(held), labels(held)).prop_map(
                move |(rows, labels, held_rows, held_labels)| TreeProblem {
                    rows,
                    labels,
                    n_classes,
                    params: TreeParams { max_depth, min_split, min_leaf },
                    held_rows,
                    held_labels,
                },
            )
        },
    )
}

/// A tree's nodes with every number as its bits: `(is a split, feature
/// or class, threshold or purity, left child or count, right child)`.
fn node_bits(tree: &ClassificationTree) -> Vec<(bool, usize, u64, usize, usize)> {
    let bits = |node: &Node| match *node {
        Node::Split { feature, threshold, left, right } => {
            (true, feature, threshold.to_bits(), left, right)
        }
        Node::Leaf { class, purity, count } => (false, class, purity.to_bits(), count, 0),
    };
    tree.nodes().iter().map(bits).collect()
}

/// The sensors in the tree: the machine's default, the noiseless
/// machine's, a noiseless 1 kHz one, and `ablation_noise`'s degraded one.
fn sensors() -> [PowerSensor; 4] {
    [
        PowerSensor::default(),
        PowerSensor::ideal(),
        PowerSensor { noise_sigma: 0.0, ..PowerSensor::default() },
        PowerSensor { sample_hz: 100.0, quantum_w: 0.25, noise_sigma: 0.05 },
    ]
}

/// The same waveform built, jittered and sensed both ways: every segment,
/// the total, the average, a few windows of a width the sensor would not
/// pick (the last ones past the end of the trace), and each sensor's
/// estimate on both planes must agree to the bit.
fn assert_sensed_alike(
    (mut ours, mut theirs): (PowerTrace, SegmentTrace),
    (time_scale, power_scale): (f64, f64),
    seed: u64,
) {
    ours.scale_time(time_scale);
    ours.scale_power(power_scale);
    theirs.scale_time(time_scale);
    theirs.scale_power(power_scale);
    assert_eq!(ours.segments().collect::<Vec<_>>(), theirs.segments);
    assert_eq!(ours.total_s().to_bits(), theirs.total_s.to_bits());
    let planes: [fn(&PowerBreakdown) -> f64; 2] = [|p| p.cpu_plane_w, |p| p.gpu_nb_plane_w];
    for plane in planes {
        assert_eq!(plane(&ours.average()).to_bits(), plane(&theirs.average()).to_bits());
    }

    let dt = theirs.total_s / 6.5;
    for (k, window) in ours.windows(dt).take(9).enumerate() {
        let t0 = k as f64 * dt;
        for plane in planes {
            let expected = theirs.window_average(plane, t0, t0 + dt);
            assert_eq!(plane(&window).to_bits(), expected.to_bits(), "window {k} of width {dt}");
        }
    }

    let cpu_noise = NoiseSource::new(seed, "identity", 3, 1);
    let gpu_noise = NoiseSource::new(seed ^ 0xA5A5, "identity", 3, 1);
    for sensor in sensors() {
        let sensed = sensor.estimate_trace(&ours, &cpu_noise, &gpu_noise);
        for (plane, noise) in planes.into_iter().zip([&cpu_noise, &gpu_noise]) {
            assert_eq!(
                plane(&sensed).to_bits(),
                reference::estimate_trace(&sensor, &theirs, plane, noise).to_bits(),
                "{sensor:?} over {} s in {} segments",
                theirs.total_s,
                theirs.segments.len()
            );
        }
    }
}

/// A phase lasting 10 µs … 20 s (log-uniform) at 0.5 … 60 W per plane.
fn phase() -> impl Strategy<Value = (f64, PowerBreakdown)> {
    (-5.0..1.30103f64, 0.5..60.0f64, 0.5..60.0f64).prop_map(|(exponent, cpu, gpu)| {
        (10f64.powf(exponent), PowerBreakdown { cpu_plane_w: cpu, gpu_nb_plane_w: gpu })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(96))]

    #[test]
    fn one_sweep_is_a_scan_from_zero_per_sample(
        a in phase(),
        b in phase(),
        shape in 0u8..8,
        scales in (0.5..2.0f64, 0.5..2.0f64),
        seed in 0u64..u64::MAX,
    ) {
        // One case in four degenerates: either phase empty, or a trace
        // that was constant to begin with.
        let traces = match shape {
            0 => (PowerTrace::constant(a.0, a.1), SegmentTrace::constant(a.0, a.1)),
            1 => (PowerTrace::interleaved((0.0, a.1), b), SegmentTrace::interleaved((0.0, a.1), b)),
            2 => (PowerTrace::interleaved(a, (0.0, b.1)), SegmentTrace::interleaved(a, (0.0, b.1))),
            _ => (PowerTrace::interleaved(a, b), SegmentTrace::interleaved(a, b)),
        };
        assert_sensed_alike(traces, scales, seed);
    }
}

proptest! {
    #[test]
    fn table_dissimilarity_is_the_tau_a_statement(
        a in configs(),
        b in configs(),
        common in 0usize..21,
    ) {
        // Disjoint halves of the space, then the same two with exactly
        // one configuration in common.
        let low: Vec<usize> = a.iter().map(|c| c % 21).filter(|&c| c != common).collect();
        let high: Vec<usize> = b.iter().map(|c| 21 + c % 21).collect();
        let (mut low_plus, mut high_plus) = (low.clone(), high.clone());
        low_plus.push(common);
        high_plus.insert(0, common);

        let frontiers: Vec<Frontier> =
            [&a, &b, &low, &high, &low_plus, &high_plus].map(|c| frontier(c)).into();
        for x in &frontiers {
            for y in &frontiers {
                prop_assert_eq!(
                    frontier_dissimilarity(x, y).to_bits(),
                    reference::frontier_dissimilarity(x, y).to_bits()
                );
            }
        }
        prop_assert_eq!(frontier_dissimilarity(&frontiers[2], &frontiers[3]), 1.0);

        let matrix = dissimilarity_matrix(&frontiers);
        for (i, x) in frontiers.iter().enumerate() {
            for (j, y) in frontiers.iter().enumerate().take(i) {
                let expected = reference::frontier_dissimilarity(x, y);
                prop_assert_eq!(matrix.get(i, j).to_bits(), expected.to_bits());
                prop_assert_eq!(matrix.get(j, i).to_bits(), expected.to_bits());
            }
        }
    }

    #[test]
    fn cached_swap_is_the_full_reassignment((d, order) in matrix_and_order()) {
        let n = d.len();
        for k in 1..=n {
            let medoids = &order[..k];
            let near = NearestMedoids::new(&d, medoids);
            prop_assert_eq!(
                near.cost().to_bits(),
                reference::assign_and_cost(&d, medoids).1.to_bits()
            );
            let mut costs = vec![f64::NAN; k];
            for &item in &order[k..] {
                near.swap_costs(&d, item, &mut costs);
                for (slot, cost) in costs.iter().enumerate() {
                    let mut trial = medoids.to_vec();
                    trial[slot] = item;
                    prop_assert_eq!(
                        cost.to_bits(),
                        reference::assign_and_cost(&d, &trial).1.to_bits(),
                        "k = {}, slot {}, item {}", k, slot, item
                    );
                }
            }

            let (ours, theirs) = (pam(&d, k), reference::pam(&d, k));
            prop_assert_eq!(ours.cost.to_bits(), theirs.cost.to_bits());
            prop_assert_eq!(
                silhouette(&d, &ours).to_bits(),
                reference::silhouette(&d, &theirs).to_bits()
            );
            prop_assert_eq!(ours, theirs);
        }
    }

    #[test]
    fn factor_once_is_factor_per_solve((rows, y, intercept) in design()) {
        // The whole fit: coefficients, R², ridge penalty, standard errors.
        prop_assert_eq!(
            LinearModel::fit(&rows, &y, intercept),
            reference::fit(&rows, &y, intercept)
        );

        // The solve on its own, against the Gram as it is (often
        // singular) and ridged (always positive definite).
        let p = rows[0].len();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let mut gram = Matrix::from_rows(rows.len(), p, flat).expect("rectangular").gram();
        let rhs = &y[..p];
        for _ in 0..2 {
            let expected = reference::solve_spd(&gram, rhs);
            prop_assert_eq!(gram.cholesky().and_then(|factor| factor.solve(rhs)), expected.clone());
            prop_assert_eq!(gram.solve_spd(rhs), expected);
            gram.add_diagonal(0.5);
        }
    }

    #[test]
    fn one_gram_is_a_gram_per_model((rows, perf, _) in design()) {
        // A cluster's perf model (no intercept) and power model
        // (intercept) over the same rows, each against its own Gram.
        let power: Vec<f64> = perf.iter().rev().map(|y| 2.5 * y + 40.0).collect();
        let design = Design::new(&rows).expect("non-empty, rectangular");
        prop_assert_eq!(
            model_bits(design.fit(&perf, false)),
            model_bits(reference::fit(&rows, &perf, false))
        );
        prop_assert_eq!(
            model_bits(design.fit(&power, true)),
            model_bits(reference::fit(&rows, &power, true))
        );
    }

    #[test]
    fn a_running_gram_is_the_gram_of_the_repeated_rows((block, members, y) in stacked_design()) {
        // One design for clusters of up to 70 members, fitted at growing
        // sizes so each continues the Grams the one before left.
        let design = Design::repeated(&block, 70).expect("non-empty, rectangular");
        for members in [1, members.div_ceil(2), members] {
            let y = &y[..block.len() * members];
            let repeated: Vec<Vec<f64>> = block.iter().cycle().take(y.len()).cloned().collect();
            for intercept in [false, true] {
                prop_assert_eq!(
                    model_bits(design.fit(y, intercept)),
                    model_bits(reference::fit(&repeated, y, intercept)),
                    "{} members, intercept {}", members, intercept
                );
            }
        }
    }

    #[test]
    fn one_sort_per_feature_is_a_sort_per_node(p in tree_problem()) {
        let mut ours = ClassificationTree::fit(&p.rows, &p.labels, p.n_classes, p.params)
            .expect("finite, labelled rows");
        let mut theirs = reference::tree_fit(&p.rows, &p.labels, p.n_classes, p.params)
            .expect("finite, labelled rows");
        prop_assert_eq!(node_bits(&ours), node_bits(&theirs));
        prop_assert_eq!(
            ours.prune(&p.held_rows, &p.held_labels),
            theirs.prune(&p.held_rows, &p.held_labels)
        );
        prop_assert_eq!(node_bits(&ours), node_bits(&theirs));
    }
}

/// A fitted model as the bits of every number in it.
fn model_bits(model: Result<LinearModel, FitError>) -> Result<(bool, Vec<u64>), FitError> {
    let m = model?;
    let scalars = [m.r_squared, m.ridge_lambda, m.residual_rmse];
    let bits = m.coeffs.iter().chain(&scalars).chain(&m.coef_std_errors).map(|v| v.to_bits());
    Ok((m.intercept, bits.collect()))
}

/// A pick as the bits of every number in it.
fn pick_bits(p: &Pick) -> (Method, [u64; 5], [usize; 2], bool) {
    let numbers = [p.cap_w, p.picked.power_w, p.picked.perf, p.oracle.power_w, p.oracle.perf];
    let configs = [p.picked.config.index(), p.oracle.config.index()];
    (p.method, numbers.map(f64::to_bits), configs, p.feasible)
}

/// One model per machine family, trained on the whole suite at the
/// experiment seed.
fn family_models() -> &'static [(Machine, Predictor)] {
    static MODELS: OnceLock<Vec<(Machine, Predictor)>> = OnceLock::new();
    MODELS.get_or_init(|| {
        FamilyId::ALL
            .into_iter()
            .map(|family| {
                let machine = Machine::from_family(family, 2014);
                let model = train_on_suite(&machine, usize::MAX).expect("the suite trains");
                (machine, Predictor::new(&model))
            })
            .collect()
    })
}

/// Where a cap comes from: anywhere on the real line or off it, or exactly
/// at a predicted or oracle-frontier point's power.
fn cap() -> impl Strategy<Value = (u8, f64, usize)> {
    (0u8..9, -20.0..90.0f64, 0usize..42)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(48))]

    #[test]
    fn one_predicted_frontier_is_a_prediction_per_cap(
        family in 0usize..4,
        seed in 0u64..u64::MAX,
        kernel in 0usize..40,
        caps in prop::collection::vec(cap(), 0..12),
    ) {
        let (machine, predictor) = &family_models()[family];
        let kernel = &acs_kernels::generate(&GeneratorConfig::default(), seed)[kernel];
        let profile = KernelProfile::collect(machine, kernel);
        let predicted = predictor.predict(&profile.sample_pair()).points;
        let oracle = profile.oracle_frontier();
        let caps: Vec<f64> = caps
            .into_iter()
            .map(|(kind, w, i)| match kind {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 0.0,
                4 => -w.abs(),
                5 => predicted[i].power_w,
                6 => oracle.points()[i % oracle.len()].power_w,
                _ => w,
            })
            .collect();
        let methods =
            [Method::Model, Method::Oracle, Method::ModelFL, Method::GpuFL, Method::CpuFL];
        for caps in [None, Some(caps.as_slice())] {
            let ours: Vec<_> = replay(&profile, caps, &methods, predictor).iter().map(pick_bits).collect();
            let theirs: Vec<_> =
                reference::replay(&profile, caps, &methods, predictor).iter().map(pick_bits).collect();
            prop_assert_eq!(ours, theirs);
        }
    }
}

#[test]
fn a_rank_deficient_design_still_takes_the_ridge_path() {
    // The second column copies the first: the Gram is singular, the first
    // factorization must fail and the second run on the ridged Gram.
    let rows: Vec<Vec<f64>> = (0..12).map(|i| vec![f64::from(i), f64::from(i), 1.5]).collect();
    let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] - 1.0).collect();
    for intercept in [false, true] {
        let ours = LinearModel::fit(&rows, &y, intercept).expect("ridge rescues the fit");
        let theirs = reference::fit(&rows, &y, intercept).expect("ridge rescues the fit");
        assert!(ours.ridge_lambda > 0.0);
        assert_eq!(ours.ridge_lambda.to_bits(), theirs.ridge_lambda.to_bits());
        assert_eq!(ours, theirs);
        assert_eq!(ours.coef_std_errors.len(), ours.coeffs.len());
    }

    // Stacking the rows adds no rank: three members' Gram is singular too.
    let stacked: Vec<f64> = y.iter().chain(&y).chain(&y).map(|v| v * 0.5).collect();
    let repeated: Vec<Vec<f64>> = rows.iter().cycle().take(stacked.len()).cloned().collect();
    let design = Design::repeated(&rows, 3).expect("non-empty, rectangular");
    for intercept in [false, true] {
        let ours = design.fit(&stacked, intercept).expect("ridge rescues the fit");
        assert!(ours.ridge_lambda > 0.0);
        assert_eq!(
            model_bits(Ok(ours)),
            model_bits(reference::fit(&repeated, &stacked, intercept))
        );
    }
}

#[test]
fn a_matrix_that_is_not_positive_definite_has_no_factor() {
    let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
    assert_eq!(a.cholesky().err(), Some(MatrixError::Singular));
    assert_eq!(reference::solve_spd(&a, &[1.0, 1.0]), Err(MatrixError::Singular));
    assert!(matches!(Matrix::zeros(2, 3).cholesky(), Err(MatrixError::Dimension(_))));
    let factor = Matrix::identity(3).cholesky().unwrap();
    assert!(matches!(factor.solve(&[1.0]), Err(MatrixError::Dimension(_))));
}

#[test]
fn the_sweep_is_the_scan_at_every_edge_of_the_sampling_grid() {
    let a = PowerBreakdown { cpu_plane_w: 31.0, gpu_nb_plane_w: 4.5 };
    let b = PowerBreakdown { cpu_plane_w: 9.25, gpu_nb_plane_w: 17.0 };
    let both = |a, b| (PowerTrace::interleaved(a, b), SegmentTrace::interleaved(a, b));
    for (dur_a, dur_b) in [
        (6e-6, 4e-6),     // one cycle, one sample
        (0.0004, 0.0004), // sub-millisecond: still one sample, four cycles
        (0.0009, 0.0011), // two samples, cycle boundaries on neither
        (0.08, 0.0475),   // 127 samples, 510 cycles: just under the clamp
        (0.1, 0.05),      // hundreds of samples, the 512-cycle clamp
        (6.0, 3.9999),    // 9 999 samples
        (6.0, 4.0),       // exactly the 10 000-sample cap
        (13.0, 7.0),      // past the cap: 2 ms windows inside 25 and 14 ms segments
        (0.0, 0.0),       // no trace at all
        (0.0, 0.003),     // a zero-length leading phase
        (0.003, 0.0),     // a zero-length trailing phase
    ] {
        for scales in [(1.0, 1.0), (0.5, 2.0), (1.0173, 0.9911), (2.0, 0.5)] {
            assert_sensed_alike(both((dur_a, a), (dur_b, b)), scales, 2014);
        }
    }
}

#[test]
fn characterization_is_the_reference_estimator_run_for_run() {
    let apps = acs_kernels::app_instances();
    for family in FamilyId::ALL {
        for seed in [2014, 7] {
            let machine = Machine::from_family(family, seed);
            for app in characterize_apps(&machine, &apps) {
                for profile in &app.profiles {
                    for run in &profile.runs {
                        let theirs =
                            reference::sensed_power(&machine, &profile.kernel, &run.config, 0);
                        assert_eq!(
                            (run.power.cpu_plane_w.to_bits(), run.power.gpu_nb_plane_w.to_bits()),
                            (theirs.cpu_plane_w.to_bits(), theirs.gpu_nb_plane_w.to_bits()),
                            "{family} seed {seed}: {} at {}",
                            profile.kernel.id(),
                            run.config
                        );
                    }
                }
            }
        }
    }
}
