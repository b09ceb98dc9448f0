//! Confidence-aware prediction and risk-averse selection (Section VI).
//!
//! "Taking variance into account when predicting best configurations could
//! also improve model accuracy when applied to new applications. If the
//! confidence interval for a prediction is large, it may be wise to choose
//! another configuration with smaller confidence interval and lower
//! expected performance."
//!
//! Each cluster regression carries its training residual RMSE; a
//! risk-averse selector discounts predicted performance and inflates
//! predicted power by `z` residual standard deviations before applying the
//! usual frontier logic. `z = 0` recovers the paper's baseline selection;
//! larger `z` trades performance for cap-compliance.

use crate::features::SamplePair;
use crate::frontier::PowerPerfPoint;
use crate::offline::TrainedModel;
use crate::online::Predictor;
use acs_sim::{Configuration, Device};
use serde::{Deserialize, Serialize};

/// A prediction with one-sigma uncertainty bands.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundedPoint {
    /// Expected power and performance.
    pub point: PowerPerfPoint,
    /// One-sigma uncertainty of the power prediction, W.
    pub power_sigma: f64,
    /// One-sigma uncertainty of the performance prediction (same units as
    /// `point.perf`).
    pub perf_sigma: f64,
}

/// Predictions with uncertainty for the full configuration space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundedProfile {
    /// Cluster the kernel was classified into.
    pub cluster: usize,
    /// One bounded prediction per configuration, in
    /// `Configuration::all()` order.
    pub points: Vec<BoundedPoint>,
}

impl BoundedProfile {
    /// Risk-averse selection: the best *pessimistic* performance whose
    /// *pessimistic* power (expected + `z`·sigma) meets the cap; falls
    /// back to the minimum-pessimistic-power configuration.
    pub fn select_risk_averse(&self, cap_w: f64, z: f64) -> Configuration {
        let pessim_power = |b: &BoundedPoint| b.point.power_w + z * b.power_sigma;
        let pessim_perf = |b: &BoundedPoint| b.point.perf - z * b.perf_sigma;

        self.points
            .iter()
            .filter(|b| pessim_power(b) <= cap_w)
            .max_by(|a, b| pessim_perf(a).partial_cmp(&pessim_perf(b)).unwrap())
            .or_else(|| {
                self.points
                    .iter()
                    .min_by(|a, b| pessim_power(a).partial_cmp(&pessim_power(b)).unwrap())
            })
            .expect("configuration space is never empty")
            .point
            .config
    }

    /// The plain (z = 0) expected points.
    pub fn expected_points(&self) -> Vec<PowerPerfPoint> {
        self.points.iter().map(|b| b.point).collect()
    }
}

/// Predict the full configuration space with uncertainty bands, from a
/// kernel's two sample runs. The expected points are
/// [`Predictor::predict`]'s; only the bands are computed here.
pub fn predict_with_confidence(model: &TrainedModel, samples: &SamplePair) -> BoundedProfile {
    let predictor = Predictor::new(model);
    let cluster = predictor.classify(samples);
    let tables = predictor.tables(cluster);
    let models = &model.clusters[cluster];
    let stab = model.params.stabilize_variance;

    let points = Configuration::all()
        .iter()
        .map(|config| {
            let (perf_model, power_model) = match config.device {
                Device::Cpu => (&models.perf_cpu, &models.power_cpu),
                Device::Gpu => (&models.perf_gpu, &models.power_gpu),
            };
            let s_perf = samples.perf_on(config.device);
            let (ratio, power) = (tables.ratio[config.index()], tables.power[config.index()]);

            // Residual RMSEs live in (possibly transformed) response
            // space; first-order error propagation through the inverse
            // transform: d(y²)/dy = 2y.
            let (power_sigma, perf_ratio_sigma) = if stab {
                (
                    2.0 * power.sqrt() * power_model.residual_rmse,
                    2.0 * ratio.sqrt() * perf_model.residual_rmse,
                )
            } else {
                (power_model.residual_rmse, perf_model.residual_rmse)
            };

            BoundedPoint {
                point: PowerPerfPoint { config: *config, power_w: power, perf: ratio * s_perf },
                power_sigma,
                perf_sigma: perf_ratio_sigma * s_perf,
            }
        })
        .collect();

    BoundedProfile { cluster, points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::{train, TrainingParams};
    use crate::profile::{collect_suite, KernelProfile};
    use acs_sim::{KernelCharacteristics, Machine};

    fn setup() -> (TrainedModel, Vec<KernelProfile>) {
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
        let profiles = collect_suite(&m, &kernels);
        let model =
            train(&profiles, TrainingParams { n_clusters: 3, ..Default::default() }).unwrap();
        (model, profiles)
    }

    #[test]
    fn bounded_prediction_matches_plain_expectation() {
        let (model, profiles) = setup();
        let samples = profiles[0].sample_pair();
        let bounded = predict_with_confidence(&model, &samples);
        let plain = Predictor::new(&model).predict(&samples);
        assert_eq!(bounded.cluster, plain.cluster);
        assert_eq!(bounded.expected_points(), plain.points);
    }

    #[test]
    fn sigmas_are_positive_and_finite() {
        let (model, profiles) = setup();
        let bounded = predict_with_confidence(&model, &profiles[0].sample_pair());
        for b in &bounded.points {
            assert!(b.power_sigma > 0.0 && b.power_sigma.is_finite());
            assert!(b.perf_sigma > 0.0 && b.perf_sigma.is_finite());
        }
    }

    #[test]
    fn z_zero_matches_plain_selection() {
        let (model, profiles) = setup();
        let samples = profiles[0].sample_pair();
        let bounded = predict_with_confidence(&model, &samples);
        let plain = Predictor::new(&model).predict(&samples);
        for cap in [12.0, 18.0, 25.0, 40.0] {
            let a = bounded.select_risk_averse(cap, 0.0);
            let b = plain.select(cap);
            // Both maximize expected perf under expected power; allow
            // equality of the achieved objective rather than identity
            // (frontier construction breaks perf ties differently).
            let perf_of = |c: Configuration| bounded.points[c.index()].point.perf;
            assert!((perf_of(a) - perf_of(b)).abs() < 1e-12, "cap {cap}: {a} vs {b}");
        }
    }

    #[test]
    fn higher_z_never_picks_higher_predicted_power() {
        let (model, profiles) = setup();
        for p in profiles.iter().take(6) {
            let bounded = predict_with_confidence(&model, &p.sample_pair());
            for cap in [14.0, 20.0, 28.0] {
                let relaxed = bounded.select_risk_averse(cap, 0.0);
                let cautious = bounded.select_risk_averse(cap, 2.0);
                let power_of = |c: Configuration| bounded.points[c.index()].point.power_w;
                assert!(
                    power_of(cautious) <= power_of(relaxed) + 1e-9,
                    "risk aversion must not increase predicted power"
                );
            }
        }
    }

    #[test]
    fn risk_aversion_improves_real_cap_compliance() {
        // Across held-out kernels and caps, z = 1.5 must violate true
        // power caps no more often than z = 0.
        let m = Machine::new(7);
        let (model, profiles) = setup();
        let mut violations = [0usize; 2];
        let mut cases = 0usize;
        for p in &profiles {
            let bounded = predict_with_confidence(&model, &p.sample_pair());
            for cap_point in p.oracle_frontier().points() {
                let cap = cap_point.power_w;
                for (slot, z) in [(0usize, 0.0), (1usize, 1.5)] {
                    let cfg = bounded.select_risk_averse(cap, z);
                    let run = m.run(&p.kernel, &cfg);
                    if run.true_power_w() > cap * (1.0 + 1e-9) {
                        violations[slot] += 1;
                    }
                }
                cases += 1;
            }
        }
        assert!(cases > 50);
        assert!(
            violations[1] <= violations[0],
            "z=1.5 violated {} caps vs {} at z=0 over {cases} cases",
            violations[1],
            violations[0]
        );
    }
}
