//! The online stage (Section III-C): after a new kernel's first two
//! iterations (one per sample configuration), classify it into a trained
//! cluster, predict power and performance for every configuration on both
//! devices, derive the predicted Pareto frontier, and select configurations
//! under power caps from it.
//!
//! The whole pipeline is a tree walk plus a matrix–vector product — the
//! paper reports "less than one millisecond to make each configuration
//! selection" (Section II), which `tests/paper_claims.rs`
//! (`online_overhead_is_sub_millisecond`) asserts for this implementation.

use crate::fastpath::{ClusterTables, ConfigSpace, SelectScratch};
use crate::features::SamplePair;
use crate::frontier::{Frontier, PowerPerfPoint};
use crate::offline::TrainedModel;
use acs_mlstat::ClassificationTree;
use acs_sim::Configuration;
use serde::{Deserialize, Serialize};

/// Power and performance predictions for the full configuration space of
/// one kernel, plus the predicted Pareto frontier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictedProfile {
    /// Cluster the kernel was classified into.
    pub cluster: usize,
    /// Predicted (power, performance) for every configuration, aligned
    /// with `Configuration::all()` order.
    pub points: Vec<PowerPerfPoint>,
    /// The predicted Pareto frontier.
    pub frontier: Frontier,
}

impl PredictedProfile {
    /// Best predicted configuration whose *predicted* power meets the cap;
    /// falls back to the minimum-predicted-power configuration when none
    /// does (the scheduler must still run the kernel somewhere).
    pub fn select(&self, cap_w: f64) -> Configuration {
        self.frontier.select(cap_w).0.config
    }

    /// Predicted point for a specific configuration.
    pub fn point_for(&self, config: &Configuration) -> &PowerPerfPoint {
        &self.points[config.index()]
    }
}

/// Applies a trained model to new kernels.
///
/// Construction precompiles the model (microseconds): each cluster's
/// regressions collapse into [`fastpath`](crate::fastpath) tables
/// (DESIGN.md §15). Classification walks the CART; prediction and
/// selection read the tables, bit-identical to the scalar reference in
/// `acs_verify::reference`. Owns everything it needs — no lifetime ties
/// back to the model.
#[derive(Debug, Clone)]
pub struct Predictor {
    tree: ClassificationTree,
    clusters: Vec<ClusterTables>,
}

impl Predictor {
    /// Precompile a trained model.
    pub fn new(model: &TrainedModel) -> Self {
        let space = ConfigSpace::get();
        let stab = model.params.stabilize_variance;
        Self {
            tree: model.tree.clone(),
            clusters: model.clusters.iter().map(|m| ClusterTables::build(space, m, stab)).collect(),
        }
    }

    /// Assign the kernel to a cluster from its two sample runs: the CART
    /// walk ([`ClassificationTree::predict`]).
    pub fn classify(&self, samples: &SamplePair) -> usize {
        self.tree.predict(&samples.tree_features())
    }

    /// The cluster's precomputed prediction tables.
    pub(crate) fn tables(&self, cluster: usize) -> &ClusterTables {
        &self.clusters[cluster]
    }

    /// Select the best predicted configuration under `cap_w` (minimum-
    /// predicted-power fallback when nothing meets the cap) through a
    /// caller-owned scratch arena — the allocation-free equivalent of
    /// `predict(samples).select(cap_w)`, bit-identical to it.
    pub fn select_with(
        &self,
        samples: &SamplePair,
        cap_w: f64,
        scratch: &mut SelectScratch,
    ) -> Configuration {
        self.clusters[self.classify(samples)].prepare(samples, scratch);
        // Frontier power is strictly increasing, so `power ≤ cap` is a
        // true-prefix predicate; index 0 means nothing fits → min-power
        // fallback (the sweep always keeps at least one point).
        let f = &scratch.frontier;
        let idx = f.partition_point(|p| p.power_w <= cap_w);
        f[idx.saturating_sub(1)].config
    }

    /// Predict power and performance for every configuration.
    ///
    /// Performance predictions are the cluster's scaling model times the
    /// kernel's own sample performance on the relevant device ("once a new
    /// kernel is associated with a cluster, the only new information
    /// required ... is the kernel's performance on the sample
    /// configurations"). Power predictions are absolute.
    pub fn predict(&self, samples: &SamplePair) -> PredictedProfile {
        self.predict_with(samples, &mut SelectScratch::new())
    }

    /// [`Predictor::predict`] writing through a caller-owned scratch (the
    /// returned profile still owns its points/frontier; the scratch only
    /// absorbs the intermediate sort/sweep allocations).
    pub fn predict_with(
        &self,
        samples: &SamplePair,
        scratch: &mut SelectScratch,
    ) -> PredictedProfile {
        let cluster = self.classify(samples);
        let t = &self.clusters[cluster];
        t.prepare(samples, scratch);
        let points: Vec<PowerPerfPoint> = ConfigSpace::get()
            .configs()
            .iter()
            .enumerate()
            .map(|(i, c)| PowerPerfPoint { config: *c, power_w: t.power[i], perf: scratch.perf[i] })
            .collect();
        let frontier = Frontier::from_sorted(scratch.frontier.clone());
        PredictedProfile { cluster, points, frontier }
    }
}

/// Relative prediction-error summary of a predicted profile against
/// ground-truth observations (used by EXPERIMENTS.md accuracy reporting).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictionError {
    /// Mean absolute relative error of power predictions.
    pub power_mape: f64,
    /// Mean absolute relative error of performance predictions.
    pub perf_mape: f64,
}

/// Compare predictions with actual measurements, configuration by
/// configuration.
pub fn prediction_error(
    predicted: &PredictedProfile,
    actual: &[PowerPerfPoint],
) -> PredictionError {
    assert_eq!(predicted.points.len(), actual.len(), "point count mismatch");
    let n = actual.len() as f64;
    let mut power = 0.0;
    let mut perf = 0.0;
    for (p, a) in predicted.points.iter().zip(actual) {
        power += ((p.power_w - a.power_w) / a.power_w).abs();
        perf += ((p.perf - a.perf) / a.perf).abs();
    }
    PredictionError { power_mape: power / n, perf_mape: perf / n }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::{train, TrainingParams};
    use crate::profile::{collect_suite, KernelProfile};
    use acs_sim::{KernelCharacteristics, Machine};

    fn machine() -> Machine {
        Machine::new(7)
    }

    fn archetypes() -> Vec<KernelCharacteristics> {
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
        kernels
    }

    fn trained() -> (TrainedModel, Vec<KernelProfile>) {
        let profiles = collect_suite(&machine(), &archetypes());
        let model =
            train(&profiles, TrainingParams { n_clusters: 3, ..Default::default() }).unwrap();
        (model, profiles)
    }

    #[test]
    fn predicts_full_space() {
        let (model, profiles) = trained();
        let p = Predictor::new(&model).predict(&profiles[0].sample_pair());
        assert_eq!(p.points.len(), Configuration::space_size());
        assert!(!p.frontier.is_empty());
        for pt in &p.points {
            assert!(pt.power_w > 0.0 && pt.perf > 0.0);
        }
    }

    #[test]
    fn select_meets_predicted_cap() {
        let (model, profiles) = trained();
        let p = Predictor::new(&model).predict(&profiles[0].sample_pair());
        let cap = 20.0;
        let cfg = p.select(cap);
        // Either the predicted power respects the cap, or the min-power
        // fallback was used.
        let predicted = p.point_for(&cfg).power_w;
        let min_power = p.frontier.min_power().unwrap().power_w;
        assert!(predicted <= cap || (predicted - min_power).abs() < 1e-9);
    }

    #[test]
    fn generous_cap_selects_max_predicted_perf() {
        let (model, profiles) = trained();
        let p = Predictor::new(&model).predict(&profiles[0].sample_pair());
        let cfg = p.select(1e6);
        assert_eq!(cfg, p.frontier.max_perf().unwrap().config);
    }

    #[test]
    fn held_out_kernel_predictions_are_sane() {
        // Train without one kernel, then predict it: errors should be
        // bounded (this is the paper's entire premise).
        let profiles = collect_suite(&machine(), &archetypes());
        let held = profiles[0].clone();
        let rest: Vec<KernelProfile> = profiles[1..].to_vec();
        let model = train(&rest, TrainingParams { n_clusters: 3, ..Default::default() }).unwrap();
        let predicted = Predictor::new(&model).predict(&held.sample_pair());
        let err = prediction_error(&predicted, &held.measured_points());
        assert!(err.power_mape < 0.35, "power MAPE {}", err.power_mape);
        assert!(err.perf_mape < 0.60, "perf MAPE {}", err.perf_mape);
    }

    #[test]
    fn classification_matches_training_cluster_for_training_kernel() {
        let (model, profiles) = trained();
        let predictor = Predictor::new(&model);
        let mut hits = 0;
        for (i, p) in profiles.iter().enumerate() {
            if predictor.classify(&p.sample_pair()) == model.clustering.assignment[i] {
                hits += 1;
            }
        }
        assert!(hits as f64 / profiles.len() as f64 > 0.8);
    }

    #[test]
    fn gpu_friendly_kernel_gets_gpu_at_high_cap() {
        let (model, profiles) = trained();
        let friendly = profiles.iter().find(|p| p.kernel.name == "gpu-friendly-0").unwrap();
        let p = Predictor::new(&model).predict(&friendly.sample_pair());
        let cfg = p.select(100.0);
        assert_eq!(cfg.device, acs_sim::Device::Gpu, "selected {cfg}");
    }

    #[test]
    fn prediction_error_zero_for_identical_points() {
        let (model, profiles) = trained();
        let p = Predictor::new(&model).predict(&profiles[0].sample_pair());
        let err = prediction_error(&p, &p.points);
        assert_eq!(err.power_mape, 0.0);
        assert_eq!(err.perf_mape, 0.0);
    }

    #[test]
    fn selection_is_fast() {
        // The paper's <1 ms online-overhead claim, asserted coarsely here
        // (`acs-benchmark`'s `core.fastpath.predict_us` measures it).
        let (model, profiles) = trained();
        let samples = profiles[0].sample_pair();
        let predictor = Predictor::new(&model);
        let start = std::time::Instant::now();
        let iters = 100;
        for i in 0..iters {
            let p = predictor.predict(&samples);
            std::hint::black_box(p.select(10.0 + i as f64));
        }
        let per_selection = start.elapsed().as_secs_f64() / f64::from(iters);
        assert!(per_selection < 1e-3, "selection took {per_selection}s");
    }
}
