//! The scalar reference for the online stage.
//!
//! `acs_core::Predictor` answers from precompiled tables
//! (`acs_core::fastpath`); this is the pipeline as the paper states it —
//! walk the tree, build each configuration's feature row, evaluate the
//! cluster's regressions, sort the 42 points into a frontier — with the
//! same IEEE operations in the same order, so `tests/fastpath_identity.rs`
//! can demand bit equality.

use acs_core::features::config_features;
use acs_core::offline::unstabilize;
use acs_core::{Frontier, PowerPerfPoint, PredictedProfile, SamplePair, TrainedModel};
use acs_sim::{Configuration, Device};

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
