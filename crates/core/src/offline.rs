//! The offline stage (Section III-B): characterize training kernels, group
//! them into clusters by frontier similarity, fit per-cluster regression
//! models, and train the classification tree that will route new kernels to
//! clusters online.

use crate::dissimilarity::dissimilarity_matrix;
use crate::fastpath::ConfigSpace;
use crate::features::{config_features, TREE_FEATURE_NAMES};
use crate::profile::{collect_suite, KernelProfile};
use acs_mlstat::{
    pam, silhouette, ClassificationTree, Clustering, Design, Dissimilarity, FitError, LinearModel,
    TreeError, TreeParams,
};
use acs_sim::{Configuration, Device, KernelRun, Machine};
use serde::{Deserialize, Serialize};

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingParams {
    /// Number of kernel clusters. The paper found five optimal: "using
    /// fewer clusters resulted in over-generalized models, and using more
    /// clusters resulted in over-specialized models".
    pub n_clusters: usize,
    /// Classification-tree controls.
    pub tree: TreeParams,
    /// Apply a square-root variance-stabilizing transform to regression
    /// responses (the Section VI future-work idea; exposed for ablation
    /// A2 and off by default).
    pub stabilize_variance: bool,
    /// Reduced-error-prune the classification tree against a held-out
    /// fifth of the training kernels (CART's standard overfitting
    /// control; off by default to match the paper's small fixed-depth
    /// tree).
    pub prune_tree: bool,
}

impl Default for TrainingParams {
    fn default() -> Self {
        Self {
            n_clusters: 5,
            tree: TreeParams::default(),
            stabilize_variance: false,
            prune_tree: false,
        }
    }
}

/// The four regression models of one kernel cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterModels {
    /// Performance-scaling model for CPU configurations (no intercept;
    /// predicts `perf(config) / perf(CPU sample)`).
    pub perf_cpu: LinearModel,
    /// Performance-scaling model for GPU configurations.
    pub perf_gpu: LinearModel,
    /// Absolute power model for CPU configurations (with intercept, W).
    pub power_cpu: LinearModel,
    /// Absolute power model for GPU configurations.
    pub power_gpu: LinearModel,
}

/// Errors from offline training.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// Not enough training kernels for the requested cluster count.
    TooFewKernels {
        /// Kernels available for training.
        kernels: usize,
        /// Clusters requested.
        clusters: usize,
    },
    /// A training profile has a run the offline stage cannot use.
    BadProfile {
        /// The kernel's id.
        kernel: String,
        /// Position of the run in the profile's `runs`.
        run: usize,
        /// What is wrong with it.
        fault: RunFault,
    },
    /// A cluster regression failed to fit.
    Regression(FitError),
    /// The classification tree failed to fit.
    Tree(TreeError),
}

/// What makes a profile's run unusable for training (see
/// [`TrainError::BadProfile`]).
#[derive(Debug, Clone, PartialEq)]
pub enum RunFault {
    /// The profile ends before this configuration.
    Missing(Configuration),
    /// The profile has more runs than there are configurations.
    Extra,
    /// The run is at another configuration than the one its position
    /// names.
    Misplaced {
        /// The configuration at this position of `Configuration::all()`.
        expected: Configuration,
        /// The run's configuration.
        found: Configuration,
    },
    /// The run's time is not finite and positive.
    Time(f64),
    /// A measured or true plane power is negative or not finite.
    Power(f64),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::TooFewKernels { kernels, clusters } => {
                write!(f, "{kernels} kernels cannot form {clusters} clusters")
            }
            TrainError::BadProfile { kernel, run, fault } => {
                write!(f, "profile of {kernel}, run {run}: ")?;
                match fault {
                    RunFault::Missing(config) => write!(f, "missing (no run at {config})"),
                    RunFault::Extra => {
                        write!(f, "past the {} configurations", Configuration::space_size())
                    }
                    RunFault::Misplaced { expected, found } => {
                        write!(f, "at {found}, where {expected} belongs")
                    }
                    RunFault::Time(t) => write!(f, "time_s is {t}, not a positive time"),
                    RunFault::Power(w) => write!(f, "a plane power is {w} W, not a power"),
                }
            }
            TrainError::Regression(e) => write!(f, "cluster regression: {e}"),
            TrainError::Tree(e) => write!(f, "classification tree: {e}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Check that a training profile holds one usable run per configuration,
/// in `Configuration::all()` order: what every step of the offline stage
/// assumes (the regressions stack one block of configuration rows per
/// member). Counters are the classification tree's to check.
fn check_profile(profile: &KernelProfile) -> Result<(), TrainError> {
    let bad = |run, fault| TrainError::BadProfile { kernel: profile.kernel.id(), run, fault };
    let space = Configuration::all();
    for (i, (run, &expected)) in profile.runs.iter().zip(space).enumerate() {
        if run.config != expected {
            return Err(bad(i, RunFault::Misplaced { expected, found: run.config }));
        }
        if !(run.time_s.is_finite() && run.time_s > 0.0) {
            return Err(bad(i, RunFault::Time(run.time_s)));
        }
        let (measured, truth) = (run.power, run.true_power);
        let planes = [
            measured.cpu_plane_w,
            measured.gpu_nb_plane_w,
            truth.cpu_plane_w,
            truth.gpu_nb_plane_w,
        ];
        if let Some(&w) = planes.iter().find(|w| !(w.is_finite() && **w >= 0.0)) {
            return Err(bad(i, RunFault::Power(w)));
        }
    }
    match profile.runs.len() {
        n if n < space.len() => Err(bad(n, RunFault::Missing(space[n]))),
        n if n > space.len() => Err(bad(space.len(), RunFault::Extra)),
        _ => Ok(()),
    }
}

/// The product of the offline stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainedModel {
    /// Hyperparameters used.
    pub params: TrainingParams,
    /// Training-kernel ids, aligned with `clustering.assignment`.
    pub kernel_ids: Vec<String>,
    /// The kernel clustering over the training set.
    pub clustering: Clustering,
    /// Mean silhouette width of the clustering (model-quality diagnostic).
    pub silhouette: f64,
    /// Per-cluster regression models, indexed by cluster id.
    pub clusters: Vec<ClusterModels>,
    /// The classifier that assigns new kernels to clusters.
    pub tree: ClassificationTree,
}

/// Response transform (and its inverse) for the optional variance
/// stabilization ablation. Responses here are non-negative (performance
/// ratios and watts), so a square root is the classic choice.
fn stabilize(y: f64, on: bool) -> f64 {
    if on {
        y.max(0.0).sqrt()
    } else {
        y
    }
}

/// Invert the variance-stabilizing transform applied to regression
/// targets when `stabilize_variance` is on.
pub fn unstabilize(y: f64, on: bool) -> f64 {
    if on {
        y.max(0.0) * y.max(0.0)
    } else {
        y
    }
}

/// One device's responses within a cluster, a block per member in
/// configuration order: each run's performance ratio and power.
struct Responses {
    perf: Vec<f64>,
    power: Vec<f64>,
}

impl Responses {
    fn with_capacity(n: usize) -> Self {
        Self { perf: Vec::with_capacity(n), power: Vec::with_capacity(n) }
    }

    /// Append one member's runs on the device, whose sample-configuration
    /// performance there is `sample_perf`.
    fn extend(&mut self, runs: &[KernelRun], sample_perf: f64, stabilize_variance: bool) {
        let ratio = |run: &KernelRun| (1.0 / run.time_s) / sample_perf;
        self.perf.extend(runs.iter().map(|run| stabilize(ratio(run), stabilize_variance)));
        self.power.extend(runs.iter().map(|run| stabilize(run.power_w(), stabilize_variance)));
    }

    /// The device's performance model (no intercept) and power model
    /// (intercept), over its `design` stacked once per member.
    fn fit(&self, design: &Design) -> Result<(LinearModel, LinearModel), FitError> {
        Ok((design.fit(&self.perf, false)?, design.fit(&self.power, true)?))
    }
}

/// Fit a cluster's four regressions against the CPU and GPU designs,
/// gathering the responses in the CPU and GPU buffers (emptied first). Every
/// member's runs are the configurations in index order
/// ([`check_profile`]): its CPU runs, then its GPU runs, each run at its
/// design row.
fn fit_cluster(
    members: &[&KernelProfile],
    (cpu_design, gpu_design): &(Design, Design),
    (cpu, gpu): &mut (Responses, Responses),
    stabilize_variance: bool,
) -> Result<ClusterModels, TrainError> {
    for device in [&mut *cpu, &mut *gpu] {
        device.perf.clear();
        device.power.clear();
    }
    let cpu_end = ConfigSpace::get().cpu_end();
    for profile in members {
        let samples = profile.sample_pair();
        let (on_cpu, on_gpu) = profile.runs.split_at(cpu_end);
        cpu.extend(on_cpu, samples.perf_on(Device::Cpu), stabilize_variance);
        gpu.extend(on_gpu, samples.perf_on(Device::Gpu), stabilize_variance);
    }

    let (perf_cpu, power_cpu) = cpu.fit(cpu_design).map_err(TrainError::Regression)?;
    let (perf_gpu, power_gpu) = gpu.fit(gpu_design).map_err(TrainError::Regression)?;
    Ok(ClusterModels { perf_cpu, perf_gpu, power_cpu, power_gpu })
}

/// Characterize the first `n` kernel instances of the benchmark suite on
/// `machine` and train on them with default parameters — the model every
/// serve-side test, bench and in-process `acs serve` uses. `usize::MAX`
/// takes the whole suite.
pub fn train_on_suite(machine: &Machine, n: usize) -> Result<TrainedModel, TrainError> {
    let kernels = acs_kernels::all_kernel_instances();
    let profiles = collect_suite(machine, &kernels[..n.min(kernels.len())]);
    train(&profiles, TrainingParams::default())
}

/// Run the complete offline stage on a training set of characterized
/// kernels.
pub fn train(
    profiles: &[KernelProfile],
    params: TrainingParams,
) -> Result<TrainedModel, TrainError> {
    let all: Vec<usize> = (0..profiles.len()).collect();
    Prepared::new(profiles)?.fit(&all, params)
}

/// Characterized kernels together with the part of the offline stage that
/// neither a hyperparameter nor the choice of a training subset changes:
/// the pairwise dissimilarity of their measured frontiers, and each
/// device's regression design. Each dissimilarity is a function of its
/// two kernels alone, so the matrix of any subset is the principal
/// sub-matrix on it; a cluster's design is its device's configuration
/// rows once per member, whichever kernels they are. Cross-validation
/// prepares the suite once and [`fit`](Self::fit)s every fold from it.
pub struct Prepared<'a> {
    profiles: Vec<&'a KernelProfile>,
    matrix: Dissimilarity,
    /// The CPU's and the GPU's configuration rows, in index order, for
    /// clusters of up to every prepared kernel.
    designs: (Design, Design),
}

impl<'a> Prepared<'a> {
    /// Check every profile ([`TrainError::BadProfile`] names the first
    /// unusable run), then build every kernel's measured Pareto frontier
    /// and compare them pairwise.
    pub fn new(profiles: impl IntoIterator<Item = &'a KernelProfile>) -> Result<Self, TrainError> {
        let profiles: Vec<&KernelProfile> = profiles.into_iter().collect();
        for profile in &profiles {
            check_profile(profile)?;
        }
        let space = ConfigSpace::get();
        let (cpu, gpu) = space.configs().split_at(space.cpu_end());
        let design = |configs: &[Configuration]| {
            let rows: Vec<_> = configs.iter().map(config_features).collect();
            Design::repeated(&rows, profiles.len()).map_err(TrainError::Regression)
        };
        let designs = (design(cpu)?, design(gpu)?);
        let frontiers: Vec<_> = profiles.iter().map(|p| p.frontier()).collect();
        Ok(Self { matrix: dissimilarity_matrix(&frontiers), profiles, designs })
    }

    /// The dissimilarity matrix over all prepared kernels.
    pub fn matrix(&self) -> &Dissimilarity {
        &self.matrix
    }

    /// The rest of the offline stage on the kernels at `subset` (indices
    /// into the prepared set, in training order): cluster, fit each
    /// cluster's regressions, train the classifier.
    pub fn fit(
        &self,
        subset: &[usize],
        params: TrainingParams,
    ) -> Result<TrainedModel, TrainError> {
        if subset.len() < params.n_clusters || params.n_clusters == 0 {
            return Err(TrainError::TooFewKernels {
                kernels: subset.len(),
                clusters: params.n_clusters,
            });
        }
        let profiles: Vec<&KernelProfile> = subset.iter().map(|&i| self.profiles[i]).collect();

        // 1. Frontier dissimilarity → PAM clustering.
        let matrix = self.matrix.principal(subset);
        let clustering = pam(&matrix, params.n_clusters);
        let sil = silhouette(&matrix, &clustering);

        // 2. Per-cluster regression models.
        let space = ConfigSpace::get();
        let mut responses = (
            Responses::with_capacity(subset.len() * space.cpu_end()),
            Responses::with_capacity(subset.len() * (space.len() - space.cpu_end())),
        );
        let stabilize = params.stabilize_variance;
        let mut clusters = Vec::with_capacity(params.n_clusters);
        for c in 0..params.n_clusters {
            let members: Vec<&KernelProfile> =
                clustering.members(c).into_iter().map(|i| profiles[i]).collect();
            clusters.push(fit_cluster(&members, &self.designs, &mut responses, stabilize)?);
        }

        // 3. Classification tree on sample-configuration features. With
        // pruning enabled, every fifth kernel is held out of tree *growth*
        // and used to prune it instead.
        let rows: Vec<Vec<f64>> =
            profiles.iter().map(|p| p.sample_pair().tree_features().to_vec()).collect();
        let tree = if params.prune_tree && profiles.len() >= 10 {
            let grow: Vec<usize> = (0..rows.len()).filter(|i| i % 5 != 4).collect();
            let hold: Vec<usize> = (0..rows.len()).filter(|i| i % 5 == 4).collect();
            let grow_rows: Vec<Vec<f64>> = grow.iter().map(|&i| rows[i].clone()).collect();
            let grow_labels: Vec<usize> = grow.iter().map(|&i| clustering.assignment[i]).collect();
            let mut t =
                ClassificationTree::fit(&grow_rows, &grow_labels, params.n_clusters, params.tree)
                    .map_err(TrainError::Tree)?;
            let hold_rows: Vec<Vec<f64>> = hold.iter().map(|&i| rows[i].clone()).collect();
            let hold_labels: Vec<usize> = hold.iter().map(|&i| clustering.assignment[i]).collect();
            t.prune(&hold_rows, &hold_labels);
            t
        } else {
            ClassificationTree::fit(&rows, &clustering.assignment, params.n_clusters, params.tree)
                .map_err(TrainError::Tree)?
        };

        Ok(TrainedModel {
            params,
            kernel_ids: profiles.iter().map(|p| p.kernel.id()).collect(),
            clustering,
            silhouette: sil,
            clusters,
            tree,
        })
    }
}

impl TrainedModel {
    /// Render the classification tree with feature names (Figure 3).
    pub fn render_tree(&self) -> String {
        self.tree.render(&TREE_FEATURE_NAMES)
    }

    /// Training accuracy of the tree on its own training kernels.
    pub fn tree_training_accuracy(&self, profiles: &[KernelProfile]) -> f64 {
        let rows: Vec<Vec<f64>> =
            profiles.iter().map(|p| p.sample_pair().tree_features().to_vec()).collect();
        self.tree.accuracy(&rows, &self.clustering.assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::collect_suite;
    use acs_sim::{KernelCharacteristics, Machine};

    /// A small but diverse training set: three archetypes × variations.
    fn training_profiles() -> Vec<KernelProfile> {
        let m = Machine::new(7);
        let mut kernels = Vec::new();
        for i in 0..4u32 {
            let s = 1.0 + i as f64 * 0.2;
            kernels.push(KernelCharacteristics {
                name: format!("gpu-friendly-{i}"),
                gpu_speedup: 12.0 * s,
                compute_time_s: 0.012 * s,
                ..Default::default()
            });
            kernels.push(KernelCharacteristics {
                name: format!("membound-{i}"),
                compute_time_s: 0.001 * s,
                memory_time_s: 0.012 * s,
                gpu_speedup: 3.0,
                ..Default::default()
            });
            kernels.push(KernelCharacteristics {
                name: format!("divergent-{i}"),
                gpu_speedup: 1.2,
                branch_divergence: 0.7,
                parallel_fraction: 0.85,
                ..Default::default()
            });
        }
        collect_suite(&m, &kernels)
    }

    #[test]
    fn training_succeeds_on_diverse_suite() {
        let profiles = training_profiles();
        let model = train(&profiles, TrainingParams { n_clusters: 3, ..Default::default() })
            .expect("training succeeds");
        assert_eq!(model.clusters.len(), 3);
        assert_eq!(model.kernel_ids.len(), profiles.len());
        assert_eq!(model.clustering.assignment.len(), profiles.len());
    }

    #[test]
    fn clustering_recovers_archetypes() {
        let profiles = training_profiles();
        let model =
            train(&profiles, TrainingParams { n_clusters: 3, ..Default::default() }).unwrap();
        // Kernels of the same archetype should mostly share a cluster.
        let cluster_of = |name: &str| {
            let i = profiles.iter().position(|p| p.kernel.name == name).unwrap();
            model.clustering.assignment[i]
        };
        assert_eq!(cluster_of("gpu-friendly-0"), cluster_of("gpu-friendly-3"));
        assert_ne!(cluster_of("gpu-friendly-0"), cluster_of("divergent-0"));
        // The CPU-leaning archetypes are closer to each other than to the
        // GPU cluster; require majority cohesion rather than purity.
        let membound: Vec<usize> = (0..4).map(|i| cluster_of(&format!("membound-{i}"))).collect();
        let modal = *membound
            .iter()
            .max_by_key(|&&c| membound.iter().filter(|&&x| x == c).count())
            .unwrap();
        let cohesion = membound.iter().filter(|&&c| c == modal).count();
        assert!(cohesion >= 3, "membound assignments {membound:?}");
    }

    #[test]
    fn regressions_fit_training_data_well() {
        let profiles = training_profiles();
        let model =
            train(&profiles, TrainingParams { n_clusters: 3, ..Default::default() }).unwrap();
        for (i, c) in model.clusters.iter().enumerate() {
            assert!(c.perf_cpu.r_squared > 0.7, "cluster {i} perf_cpu r² {}", c.perf_cpu.r_squared);
            assert!(
                c.power_cpu.r_squared > 0.7,
                "cluster {i} power_cpu r² {}",
                c.power_cpu.r_squared
            );
            assert!(c.perf_gpu.r_squared > 0.5, "cluster {i} perf_gpu r² {}", c.perf_gpu.r_squared);
            assert!(
                c.power_gpu.r_squared > 0.5,
                "cluster {i} power_gpu r² {}",
                c.power_gpu.r_squared
            );
        }
    }

    #[test]
    fn tree_classifies_training_kernels_well() {
        let profiles = training_profiles();
        let model =
            train(&profiles, TrainingParams { n_clusters: 3, ..Default::default() }).unwrap();
        let acc = model.tree_training_accuracy(&profiles);
        assert!(acc > 0.8, "tree training accuracy {acc}");
    }

    #[test]
    fn too_few_kernels_is_an_error() {
        let profiles = training_profiles();
        let err = train(&profiles[..2], TrainingParams { n_clusters: 5, ..Default::default() });
        assert!(matches!(err, Err(TrainError::TooFewKernels { .. })));
        let err0 = train(&profiles, TrainingParams { n_clusters: 0, ..Default::default() });
        assert!(matches!(err0, Err(TrainError::TooFewKernels { .. })));
    }

    #[test]
    fn a_non_finite_sample_counter_is_a_tree_error() {
        let gpu_sample = crate::features::sample_config(Device::Gpu).index();
        for bad in [f64::NAN, f64::INFINITY] {
            let mut profiles = training_profiles();
            profiles[4].runs[gpu_sample].counters.dram_accesses = bad;
            let err = train(&profiles, TrainingParams { n_clusters: 3, ..Default::default() });
            assert!(matches!(err, Err(TrainError::Tree(TreeError::BadInput(_)))), "{err:?}");
        }
    }

    #[test]
    fn a_malformed_profile_is_an_error_naming_its_kernel_and_run() {
        let space = Configuration::all();
        type Break = fn(&mut KernelProfile);
        let cases: [(Break, usize, RunFault); 9] = [
            (|p| p.runs.truncate(30), 30, RunFault::Missing(space[30])),
            (|p| p.runs.push(p.runs[0].clone()), 42, RunFault::Extra),
            (|p| p.runs.reverse(), 0, RunFault::Misplaced { expected: space[0], found: space[41] }),
            (|p| p.runs[7].time_s = 0.0, 7, RunFault::Time(0.0)),
            (|p| p.runs[7].time_s = -1.0, 7, RunFault::Time(-1.0)),
            (|p| p.runs[7].time_s = f64::INFINITY, 7, RunFault::Time(f64::INFINITY)),
            (|p| p.runs[9].power.gpu_nb_plane_w = -50.0, 9, RunFault::Power(-50.0)),
            (
                |p| p.runs[40].power.cpu_plane_w = f64::NEG_INFINITY,
                40,
                RunFault::Power(f64::NEG_INFINITY),
            ),
            (|p| p.runs[0].true_power.cpu_plane_w = -1e-9, 0, RunFault::Power(-1e-9)),
        ];
        let params = TrainingParams { n_clusters: 3, ..Default::default() };
        for (break_it, run, fault) in cases {
            let mut profiles = training_profiles();
            break_it(&mut profiles[5]);
            let kernel = profiles[5].kernel.id();
            let expected = TrainError::BadProfile { kernel: kernel.clone(), run, fault };
            assert!(expected.to_string().contains(&format!("{kernel}, run {run}:")), "{expected}");
            assert_eq!(train(&profiles, params), Err(expected));
        }

        // NaN equals nothing, so match on it.
        let mut profiles = training_profiles();
        profiles[2].runs[3].time_s = f64::NAN;
        let err = train(&profiles, params);
        assert!(
            matches!(&err, Err(TrainError::BadProfile { run: 3, fault: RunFault::Time(t), .. }) if t.is_nan()),
            "{err:?}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let profiles = training_profiles();
        let p = TrainingParams { n_clusters: 3, ..Default::default() };
        assert_eq!(train(&profiles, p).unwrap(), train(&profiles, p).unwrap());
    }

    #[test]
    fn render_tree_mentions_features() {
        let profiles = training_profiles();
        let model =
            train(&profiles, TrainingParams { n_clusters: 3, ..Default::default() }).unwrap();
        let txt = model.render_tree();
        assert!(txt.contains("cluster"), "rendered tree:\n{txt}");
    }

    #[test]
    fn pruned_tree_training_still_classifies() {
        let profiles = training_profiles();
        let params = TrainingParams { n_clusters: 3, prune_tree: true, ..Default::default() };
        let model = train(&profiles, params).unwrap();
        // The pruned tree is at most as large as the unpruned one and
        // still routes training kernels decently.
        let unpruned =
            train(&profiles, TrainingParams { n_clusters: 3, ..Default::default() }).unwrap();
        assert!(model.tree.node_count() <= unpruned.tree.node_count());
        assert!(model.tree_training_accuracy(&profiles) > 0.6);
    }

    #[test]
    fn variance_stabilization_roundtrip() {
        assert_eq!(unstabilize(stabilize(4.0, true), true), 4.0);
        assert_eq!(unstabilize(stabilize(4.0, false), false), 4.0);
        let profiles = training_profiles();
        let model = train(
            &profiles,
            TrainingParams { n_clusters: 3, stabilize_variance: true, ..Default::default() },
        )
        .unwrap();
        assert_eq!(model.clusters.len(), 3);
    }
}
