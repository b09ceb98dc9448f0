//! The pipeline's kernels written the slow, obvious way.
//!
//! Production answers from precompiled tables and cached scans; each
//! function here is the same step as the paper states it, with the same
//! IEEE operations in the same order, so the tests can demand bit
//! equality:
//!
//! * [`predict_scalar`] — the online stage: walk the tree, build each
//!   configuration's feature row, evaluate the cluster's regressions, sort
//!   the 42 points into a frontier (`tests/fastpath_identity.rs` holds
//!   `acs_core::fastpath` to it);
//! * [`frontier_dissimilarity`] — shared configurations by search, ranks
//!   as floats, `kendall::tau_a`;
//! * [`assign_and_cost`], [`pam`] — PAM whose SWAP re-scans every medoid
//!   for every item of every trial;
//! * [`silhouette`] — a rescan of every item per cluster per item;
//! * [`solve_spd`], [`fit`] — a Cholesky factorization per right-hand
//!   side, p + 1 of them per regression, and a Gram per model over every
//!   row it is given (a cluster's configuration rows repeated once per
//!   member, where production continues one running Gram per device);
//! * [`tree_fit`] — the CART growing each node from a copy of its sample
//!   indices, sorted afresh per feature;
//! * [`replay`] — the evaluation loop re-predicting the kernel at every
//!   cap for each model method;
//! * [`SegmentTrace`], [`estimate_trace`], [`sensed_power`] — the power
//!   sensor over a waveform stored segment by segment: every window of
//!   every plane integrates from `t = 0`.
//!
//! `tests/kernel_identity.rs` holds `acs_core::{dissimilarity, eval}`,
//! `acs_mlstat::{cluster, matrix, regression, tree}` and
//! `acs_sim::{trace, sensor, machine}` to all but the first.

use acs_core::eval::Pick;
use acs_core::features::config_features;
use acs_core::limiter::limit_active_device;
use acs_core::methods::{cpu_fl_select, gpu_fl_select, oracle_select, Method};
use acs_core::offline::unstabilize;
use acs_core::{
    Frontier, KernelProfile, PowerPerfPoint, PredictedProfile, Predictor, SamplePair,
    SelectScratch, TrainedModel,
};
use acs_mlstat::tree::Node;
use acs_mlstat::{
    kendall, ClassificationTree, Clustering, Dissimilarity, FitError, LinearModel, Matrix,
    MatrixError, TreeError, TreeParams,
};
use acs_sim::cpu::cpu_time_on;
use acs_sim::gpu::gpu_time_on;
use acs_sim::noise::Stream;
use acs_sim::{
    Configuration, Device, KernelCharacteristics, Machine, MachineFamily, NoiseSource,
    PowerBreakdown, PowerCalibration, PowerSensor, TraceSegment,
};

/// Predict the full configuration space of one kernel, one feature row
/// and one regression pair per configuration.
pub fn predict_scalar(model: &TrainedModel, samples: &SamplePair) -> PredictedProfile {
    let cluster = model.tree.predict(&samples.tree_features());
    let models = &model.clusters[cluster];
    let stab = model.params.stabilize_variance;

    let points: Vec<PowerPerfPoint> = Configuration::all()
        .iter()
        .map(|config| {
            let x = config_features(config);
            let (perf_model, power_model) = match config.device {
                Device::Cpu => (&models.perf_cpu, &models.power_cpu),
                Device::Gpu => (&models.perf_gpu, &models.power_gpu),
            };
            let ratio = unstabilize(perf_model.predict(&x), stab).max(1e-9);
            let perf = ratio * samples.perf_on(config.device);
            let power = unstabilize(power_model.predict(&x), stab).max(0.1);
            PowerPerfPoint { config: *config, power_w: power, perf }
        })
        .collect();

    let frontier = Frontier::from_points(points.clone());
    PredictedProfile { cluster, points, frontier }
}

/// Frontier dissimilarity (Section III-B) as the paper words it: pick the
/// configurations present on both frontiers, rank them within each, take
/// Kendall's τ between the two rank sequences, and blend `(1 − τ)/2` with
/// the Jaccard distance between the two configuration sets.
pub fn frontier_dissimilarity(a: &Frontier, b: &Frontier) -> f64 {
    let idx_a = a.config_indices();
    let idx_b = b.config_indices();

    let mut ranks_a = Vec::new();
    let mut ranks_b = Vec::new();
    for (rank_a, ci) in idx_a.iter().enumerate() {
        if let Some(rank_b) = idx_b.iter().position(|cj| cj == ci) {
            ranks_a.push(rank_a as f64);
            ranks_b.push(rank_b as f64);
        }
    }

    let shared = ranks_a.len();
    let union = idx_a.len() + idx_b.len() - shared;
    let membership = if union == 0 { 1.0 } else { 1.0 - shared as f64 / union as f64 };

    let order = match kendall::tau_a(&ranks_a, &ranks_b) {
        Some(tau) => (1.0 - tau) / 2.0,
        None => 1.0,
    };

    0.5 * order + 0.5 * membership
}

/// Assign every item to its nearest medoid (a medoid to itself, ties to
/// the lower slot) and total the non-medoids' dissimilarities.
pub fn assign_and_cost(d: &Dissimilarity, medoids: &[usize]) -> (Vec<usize>, f64) {
    let mut assignment = vec![0usize; d.len()];
    let mut cost = 0.0;
    for (i, slot) in assignment.iter_mut().enumerate() {
        if let Some(own) = medoids.iter().position(|&m| m == i) {
            *slot = own;
            continue;
        }
        let (best_c, best_d) = medoids
            .iter()
            .enumerate()
            .map(|(c, &m)| (c, d.get(i, m)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .expect("at least one medoid");
        *slot = best_c;
        cost += best_d;
    }
    (assignment, cost)
}

/// PAM with every quantity recomputed where it is used: BUILD evaluates a
/// candidate's gain inside the comparison, SWAP prices a trial by
/// [`assign_and_cost`] on a copy of the medoids.
pub fn pam(d: &Dissimilarity, k: usize) -> Clustering {
    let n = d.len();
    assert!(k >= 1 && k <= n, "k = {k} must be in 1..={n}");

    let mut medoids: Vec<usize> = Vec::with_capacity(k);
    let first = (0..n)
        .min_by(|&a, &b| {
            let ca: f64 = (0..n).map(|i| d.get(i, a)).sum();
            let cb: f64 = (0..n).map(|i| d.get(i, b)).sum();
            ca.partial_cmp(&cb).unwrap()
        })
        .expect("non-empty matrix");
    medoids.push(first);

    while medoids.len() < k {
        let near: Vec<f64> = (0..n)
            .map(|i| medoids.iter().map(|&m| d.get(i, m)).fold(f64::INFINITY, f64::min))
            .collect();
        let candidate = (0..n)
            .filter(|i| !medoids.contains(i))
            .max_by(|&a, &b| {
                let gain =
                    |c: usize| -> f64 { (0..n).map(|i| (near[i] - d.get(i, c)).max(0.0)).sum() };
                gain(a).partial_cmp(&gain(b)).unwrap().then(b.cmp(&a))
            })
            .expect("k <= n leaves a candidate");
        medoids.push(candidate);
    }

    let (mut assignment, mut cost) = assign_and_cost(d, &medoids);
    loop {
        let mut best: Option<(usize, usize, f64)> = None;
        for slot in 0..medoids.len() {
            for item in 0..n {
                if medoids.contains(&item) {
                    continue;
                }
                let mut trial = medoids.clone();
                trial[slot] = item;
                let (_, c) = assign_and_cost(d, &trial);
                if c + 1e-12 < best.map_or(cost, |(_, _, bc)| bc) {
                    best = Some((slot, item, c));
                }
            }
        }
        match best {
            Some((slot, item, c)) => {
                medoids[slot] = item;
                cost = c;
                assignment = assign_and_cost(d, &medoids).0;
            }
            None => break,
        }
    }

    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&c| medoids[c]);
    let mut remap = vec![0usize; k];
    for (new_c, &old_c) in order.iter().enumerate() {
        remap[old_c] = new_c;
    }
    Clustering {
        medoids: order.iter().map(|&c| medoids[c]).collect(),
        assignment: assignment.into_iter().map(|a| remap[a]).collect(),
        cost,
    }
}

/// Mean silhouette width with every item's own-cluster and other-cluster
/// means each rescanning all items.
pub fn silhouette(d: &Dissimilarity, clustering: &Clustering) -> f64 {
    let n = d.len();
    if n == 0 || clustering.k() < 2 {
        return 0.0;
    }
    let sizes = clustering.sizes();
    let mut total = 0.0;
    for i in 0..n {
        let own = clustering.assignment[i];
        if sizes[own] <= 1 {
            continue;
        }
        let mut a = 0.0;
        for j in 0..n {
            if j != i && clustering.assignment[j] == own {
                a += d.get(i, j);
            }
        }
        a /= (sizes[own] - 1) as f64;
        let mut b = f64::INFINITY;
        #[allow(clippy::needless_range_loop)] // parallel-array indexing is the clear form here
        for c in 0..clustering.k() {
            if c == own || sizes[c] == 0 {
                continue;
            }
            let mut m = 0.0;
            for j in 0..n {
                if clustering.assignment[j] == c {
                    m += d.get(i, j);
                }
            }
            b = b.min(m / sizes[c] as f64);
        }
        if b.is_finite() {
            total += (b - a) / a.max(b).max(1e-300);
        }
    }
    total / n as f64
}

/// Solve the symmetric positive-definite `a · x = b` in one shot:
/// factor `a = L Lᵀ`, substitute forward, substitute back.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, MatrixError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(MatrixError::Dimension("solve_spd needs square A and matching b".into()));
    }
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                let tol = 1e-10 * a[(i, i)].abs().max(1e-300);
                if sum <= tol || !sum.is_finite() {
                    return Err(MatrixError::Singular);
                }
                l[i * n + i] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    let mut z = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i * n + k] * z[k];
        }
        z[i] = sum / l[i * n + i];
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = z[i];
        for k in i + 1..n {
            sum -= l[k * n + i] * x[k];
        }
        x[i] = sum / l[i * n + i];
    }
    Ok(x)
}

/// `Design::fit` by the normal equations over a Gram of this model's own
/// columns, every solve a [`solve_spd`] of its own: one for the
/// coefficients (a second after the ridge penalty when the first finds
/// the Gram singular) and one per standard-error column. `rows` must be
/// non-empty and rectangular.
pub fn fit(rows: &[Vec<f64>], y: &[f64], intercept: bool) -> Result<LinearModel, FitError> {
    let p = rows[0].len() + usize::from(intercept);
    let mut data = Vec::with_capacity(rows.len() * p);
    for r in rows {
        if intercept {
            data.push(1.0);
        }
        data.extend_from_slice(r);
    }
    let x = Matrix::from_rows(rows.len(), p, data)?;
    let mut gram = x.gram();
    let xty = x.t_vec(y)?;

    let mut ridge_lambda = 0.0;
    let coeffs = match solve_spd(&gram, &xty) {
        Ok(c) => c,
        Err(MatrixError::Singular) => {
            let trace: f64 = (0..p).map(|i| gram[(i, i)]).sum();
            ridge_lambda = 1e-6 * (trace / p as f64).max(1e-12);
            gram.add_diagonal(ridge_lambda);
            solve_spd(&gram, &xty)?
        }
        Err(e) => return Err(e.into()),
    };

    let yhat = x.matvec(&coeffs)?;
    let mean = y.iter().sum::<f64>() / y.len() as f64;
    let ss_res: f64 = y.iter().zip(&yhat).map(|(a, b)| (a - b).powi(2)).sum();
    let ss_tot: f64 = y.iter().map(|a| (a - mean).powi(2)).sum();
    let r_squared = if ss_tot > 0.0 { 1.0 - ss_res / ss_tot } else { 1.0 };
    let residual_rmse = (ss_res / y.len() as f64).sqrt();

    let dof = y.len().saturating_sub(p);
    let mut coef_std_errors = Vec::new();
    if dof > 0 {
        let sigma2 = ss_res / dof as f64;
        for j in 0..p {
            let mut e = vec![0.0; p];
            e[j] = 1.0;
            let col = solve_spd(&gram, &e)?;
            coef_std_errors.push((sigma2 * col[j].max(0.0)).sqrt());
        }
    }

    Ok(LinearModel { coeffs, intercept, r_squared, ridge_lambda, residual_rmse, coef_std_errors })
}

/// `ClassificationTree::fit` growing every node from its own list of
/// sample indices: each feature sorts a copy of the list, the class counts
/// are taken afresh for the node and for each feature's scan, and a split
/// collects its children's lists.
pub fn tree_fit(
    rows: &[Vec<f64>],
    labels: &[usize],
    n_classes: usize,
    params: TreeParams,
) -> Result<ClassificationTree, TreeError> {
    if rows.is_empty() || rows.len() != labels.len() {
        return Err(TreeError::BadInput(format!("{} rows vs {} labels", rows.len(), labels.len())));
    }
    let n_features = rows[0].len();
    if n_features == 0 || rows.iter().any(|r| r.len() != n_features) {
        return Err(TreeError::BadInput("ragged or empty feature rows".into()));
    }
    for (r, row) in rows.iter().enumerate() {
        if let Some(f) = row.iter().position(|v| !v.is_finite()) {
            return Err(TreeError::BadInput(format!("row {r} feature {f} is {}", row[f])));
        }
    }
    if let Some(&bad) = labels.iter().find(|&&l| l >= n_classes) {
        return Err(TreeError::BadInput(format!("label {bad} >= n_classes {n_classes}")));
    }

    let mut tree = Grown { nodes: Vec::new(), n_features, n_classes };
    let all: Vec<usize> = (0..rows.len()).collect();
    tree.build(rows, labels, &all, 0, &params);
    ClassificationTree::from_nodes(tree.nodes, n_features, n_classes)
}

/// The nodes [`tree_fit`] grows.
struct Grown {
    nodes: Vec<Node>,
    n_features: usize,
    n_classes: usize,
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

fn class_counts(labels: &[usize], idx: &[usize], n_classes: usize) -> Vec<usize> {
    let mut counts = vec![0usize; n_classes];
    for &i in idx {
        counts[labels[i]] += 1;
    }
    counts
}

fn majority(counts: &[usize]) -> (usize, usize) {
    counts
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(c, &n)| (c, n))
        .unwrap_or((0, 0))
}

impl Grown {
    fn build(
        &mut self,
        rows: &[Vec<f64>],
        labels: &[usize],
        idx: &[usize],
        depth: usize,
        params: &TreeParams,
    ) -> usize {
        let counts = class_counts(labels, idx, self.n_classes);
        let node_gini = gini(&counts, idx.len());
        let (class, count) = majority(&counts);

        let make_leaf =
            depth >= params.max_depth || idx.len() < params.min_split || node_gini == 0.0;
        if !make_leaf {
            if let Some((feature, threshold, left_idx, right_idx)) =
                self.best_split(rows, labels, idx, params)
            {
                let slot = self.nodes.len();
                self.nodes.push(Node::Leaf { class, purity: 0.0, count });
                let left = self.build(rows, labels, &left_idx, depth + 1, params);
                let right = self.build(rows, labels, &right_idx, depth + 1, params);
                self.nodes[slot] = Node::Split { feature, threshold, left, right };
                return slot;
            }
        }
        let purity = if idx.is_empty() { 0.0 } else { count as f64 / idx.len() as f64 };
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf { class, purity, count });
        slot
    }

    #[allow(clippy::type_complexity)]
    fn best_split(
        &self,
        rows: &[Vec<f64>],
        labels: &[usize],
        idx: &[usize],
        params: &TreeParams,
    ) -> Option<(usize, f64, Vec<usize>, Vec<usize>)> {
        let parent_gini = gini(&class_counts(labels, idx, self.n_classes), idx.len());
        let mut best: Option<(f64, usize, f64)> = None; // (score, feature, threshold)

        #[allow(clippy::needless_range_loop)] // parallel-array indexing is the clear form here
        for feature in 0..self.n_features {
            let mut order: Vec<usize> = idx.to_vec();
            order.sort_by(|&a, &b| rows[a][feature].partial_cmp(&rows[b][feature]).unwrap());

            let mut left = vec![0usize; self.n_classes];
            let mut right = class_counts(labels, idx, self.n_classes);
            for split_at in 1..order.len() {
                let moved = order[split_at - 1];
                left[labels[moved]] += 1;
                right[labels[moved]] -= 1;

                let lo = rows[order[split_at - 1]][feature];
                let hi = rows[order[split_at]][feature];
                if lo == hi {
                    continue;
                }
                if split_at < params.min_leaf || order.len() - split_at < params.min_leaf {
                    continue;
                }
                let nl = split_at;
                let nr = order.len() - split_at;
                let score = (nl as f64 * gini(&left, nl) + nr as f64 * gini(&right, nr))
                    / order.len() as f64;
                let threshold = 0.5 * (lo + hi);
                let better = match best {
                    None => score + 1e-12 < parent_gini,
                    Some((bs, _, _)) => score + 1e-12 < bs,
                };
                if better {
                    best = Some((score, feature, threshold));
                }
            }
        }

        best.map(|(_, feature, threshold)| {
            let (mut l, mut r) = (Vec::new(), Vec::new());
            for &i in idx {
                if rows[i][feature] < threshold {
                    l.push(i);
                } else {
                    r.push(i);
                }
            }
            (feature, threshold, l, r)
        })
    }
}

/// `acs_core::eval::replay` with the model methods selecting through
/// [`Predictor::select_with`] at every cap: a classification, a 42-point
/// prediction and a frontier sweep per cap and method.
pub fn replay(
    profile: &KernelProfile,
    caps: Option<&[f64]>,
    methods: &[Method],
    predictor: &Predictor,
) -> Vec<Pick> {
    let frontier = profile.oracle_frontier();
    let frontier_powers: Vec<f64>;
    let caps = match caps {
        Some(caps) => caps,
        None => {
            frontier_powers = frontier.points().iter().map(|p| p.power_w).collect();
            &frontier_powers
        }
    };
    let samples = profile.sample_pair();
    let mut scratch = SelectScratch::new();

    let mut picks = Vec::with_capacity(caps.len() * methods.len());
    for &cap_w in caps {
        let (&oracle, feasible) = frontier.select(cap_w);
        for &method in methods {
            let config = select(method, profile, &samples, predictor, cap_w, &mut scratch);
            let run = profile.run_at(&config);
            let picked =
                PowerPerfPoint { config, power_w: run.true_power_w(), perf: 1.0 / run.time_s };
            picks.push(Pick { method, cap_w, picked, oracle, feasible });
        }
    }
    picks
}

/// The method dispatch [`replay`] calls at each cap.
fn select(
    method: Method,
    profile: &KernelProfile,
    samples: &SamplePair,
    predictor: &Predictor,
    cap_w: f64,
    scratch: &mut SelectScratch,
) -> Configuration {
    let measure = |c: &Configuration| profile.run_at(c).power_w();
    match method {
        Method::Oracle => oracle_select(profile, cap_w),
        Method::Model => predictor.select_with(samples, cap_w, scratch),
        Method::ModelFL => {
            let picked = predictor.select_with(samples, cap_w, scratch);
            limit_active_device(picked, cap_w, measure).config
        }
        Method::CpuFL => cpu_fl_select(cap_w, measure),
        Method::GpuFL => gpu_fl_select(cap_w, measure),
    }
}

/// A power waveform with every segment materialized: `2 · cycles`
/// entries for a two-phase trace, each scaled in place.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentTrace {
    /// The segments, in time order.
    pub segments: Vec<TraceSegment>,
    /// Total duration, seconds.
    pub total_s: f64,
}

impl SegmentTrace {
    /// Two phases interleaved every 250 µs, at most 512 cycles; a
    /// non-positive phase collapses the trace to the other one.
    pub fn interleaved(a: (f64, PowerBreakdown), b: (f64, PowerBreakdown)) -> Self {
        let (dur_a, pow_a) = a;
        let (dur_b, pow_b) = b;
        let total = dur_a + dur_b;
        if total <= 0.0 {
            return Self { segments: Vec::new(), total_s: 0.0 };
        }
        if dur_a <= 0.0 || dur_b <= 0.0 {
            let (d, p) = if dur_a > 0.0 { (dur_a, pow_a) } else { (dur_b, pow_b) };
            return Self { segments: vec![TraceSegment { duration_s: d, power: p }], total_s: d };
        }

        let cycles = ((total / 250e-6).ceil() as usize).clamp(1, 512);
        let slice_a = dur_a / cycles as f64;
        let slice_b = dur_b / cycles as f64;
        let mut segments = Vec::with_capacity(cycles * 2);
        for _ in 0..cycles {
            segments.push(TraceSegment { duration_s: slice_a, power: pow_a });
            segments.push(TraceSegment { duration_s: slice_b, power: pow_b });
        }
        Self { segments, total_s: total }
    }

    /// A single-phase (constant) trace.
    pub fn constant(duration_s: f64, power: PowerBreakdown) -> Self {
        Self { segments: vec![TraceSegment { duration_s, power }], total_s: duration_s }
    }

    /// Time-weighted average power over the whole trace.
    pub fn average(&self) -> PowerBreakdown {
        if self.total_s <= 0.0 {
            return PowerBreakdown { cpu_plane_w: 0.0, gpu_nb_plane_w: 0.0 };
        }
        let mut cpu = 0.0;
        let mut gpu = 0.0;
        for s in &self.segments {
            cpu += s.power.cpu_plane_w * s.duration_s;
            gpu += s.power.gpu_nb_plane_w * s.duration_s;
        }
        PowerBreakdown { cpu_plane_w: cpu / self.total_s, gpu_nb_plane_w: gpu / self.total_s }
    }

    /// Scale every segment duration by `factor`.
    pub fn scale_time(&mut self, factor: f64) {
        for s in &mut self.segments {
            s.duration_s *= factor;
        }
        self.total_s *= factor;
    }

    /// Scale every segment's power by `factor`.
    pub fn scale_power(&mut self, factor: f64) {
        for s in &mut self.segments {
            s.power.cpu_plane_w *= factor;
            s.power.gpu_nb_plane_w *= factor;
        }
    }

    /// Time-average of `plane` over the interval `[t0, t1)`, walking the
    /// segments from the start of the trace.
    pub fn window_average(&self, plane: fn(&PowerBreakdown) -> f64, t0: f64, t1: f64) -> f64 {
        if t1 <= t0 || self.segments.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut covered = 0.0;
        let mut seg_start = 0.0;
        for s in &self.segments {
            let seg_end = seg_start + s.duration_s;
            let lo = t0.max(seg_start);
            let hi = t1.min(seg_end);
            if hi > lo {
                acc += plane(&s.power) * (hi - lo);
                covered += hi - lo;
            }
            seg_start = seg_end;
            if seg_start >= t1 {
                break;
            }
        }
        // Windows extending past the trace hold the last segment's power.
        if covered < (t1 - t0) - 1e-15 {
            let last = plane(&self.segments.last().expect("non-empty").power);
            let rest = (t1 - t0) - covered;
            acc += last * rest;
            covered += rest;
        }
        acc / covered
    }
}

/// One plane's estimate: a [`SegmentTrace::window_average`] per sample,
/// each with its noise draw and quantization, averaged.
pub fn estimate_trace(
    sensor: &PowerSensor,
    trace: &SegmentTrace,
    plane: fn(&PowerBreakdown) -> f64,
    noise: &NoiseSource,
) -> f64 {
    if !sensor.sample_hz.is_finite() {
        return plane(&trace.average());
    }
    let n = sensor.samples_for(trace.total_s).min(10_000);
    let dt = trace.total_s / n as f64;
    let mut acc = 0.0;
    for lane in 0..n {
        let t0 = lane as f64 * dt;
        let window = trace.window_average(plane, t0, t0 + dt)
            * (1.0 + sensor.noise_sigma * noise.standard_normal(Stream::Sensor, lane));
        acc += sensor.quantize_pub(window.max(0.0));
    }
    acc / n as f64
}

/// The phase trace of one kernel execution, no jitter applied.
fn trace_for_on(
    family: &MachineFamily,
    kernel: &KernelCharacteristics,
    config: &Configuration,
    cal: &PowerCalibration,
) -> SegmentTrace {
    match config.device {
        Device::Cpu => {
            let t = cpu_time_on(family, kernel, config);
            let (busy, stall) = cal.cpu_phase_powers_on(family, kernel, config);
            SegmentTrace::interleaved((t.busy_s, busy), (t.memory_s, stall))
        }
        Device::Gpu => {
            let t = gpu_time_on(family, kernel, config);
            let (host, device) = cal.gpu_phase_powers_on(family, kernel, config, &t);
            SegmentTrace::interleaved((t.host_s, host), (t.device_s, device))
        }
    }
}

/// The `power` field of `machine.run_iter(kernel, config, run)`: the
/// jittered waveform estimated one plane at a time, each plane's noise
/// source built from the kernel's id string.
pub fn sensed_power(
    machine: &Machine,
    kernel: &KernelCharacteristics,
    config: &Configuration,
    run: u64,
) -> PowerBreakdown {
    let noise = NoiseSource::new(machine.seed, &kernel.id(), config.index(), run);
    let t_jitter = noise.jitter(Stream::Timing, machine.timing_sigma);
    let p_jitter = noise.jitter(Stream::Power, machine.power_sigma);
    let mut trace = trace_for_on(machine.family.descriptor(), kernel, config, &machine.power_cal);
    trace.scale_time(t_jitter);
    trace.scale_power(p_jitter);
    let plane_noise = NoiseSource::new(machine.seed ^ 0xA5A5, &kernel.id(), config.index(), run);
    PowerBreakdown {
        cpu_plane_w: estimate_trace(&machine.sensor, &trace, |p| p.cpu_plane_w, &noise),
        gpu_nb_plane_w: estimate_trace(&machine.sensor, &trace, |p| p.gpu_nb_plane_w, &plane_noise),
    }
}
