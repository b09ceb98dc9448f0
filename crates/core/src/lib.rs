//! # acs-core — adaptive configuration selection
//!
//! The paper's primary contribution: an offline-trained, online-applied
//! power/performance model that selects hardware configurations (device,
//! thread count, CPU/GPU P-states) maximizing performance under a power
//! constraint on a heterogeneous processor.
//!
//! Pipeline (Figure 1):
//!
//! 1. **Offline** ([`offline::train`]): characterize training kernels over
//!    the full configuration space ([`profile`]), extract power–performance
//!    Pareto frontiers ([`frontier`]), compare frontier orderings with
//!    Kendall's τ into a dissimilarity matrix ([`dissimilarity`]), cluster
//!    kernels with PAM, fit per-cluster linear regression models for power
//!    and performance, and train a classification tree over
//!    sample-configuration features ([`features`]).
//! 2. **Online** ([`online::Predictor`]): run a new kernel once per device
//!    at the Table II sample configurations, classify it into a cluster,
//!    predict the whole configuration space, derive the predicted frontier,
//!    and select the best predicted configuration under the active cap —
//!    in well under a millisecond.
//!
//! [`methods`] implements the paper's comparison policies (Oracle, Model,
//! Model+FL, CPU+FL, GPU+FL) on top of the simulated RAPL-style frequency
//! [`limiter`], and [`eval`] reproduces the leave-one-benchmark-out
//! evaluation protocol behind Table III and Figures 4–9.
//!
//! ```
//! use acs_core::{train, sample_config, KernelProfile, Predictor, SamplePair, TrainingParams};
//! use acs_sim::{Device, KernelCharacteristics, Machine};
//!
//! // Offline: characterize a (tiny, for the doctest) training set.
//! let machine = Machine::new(42);
//! let training: Vec<KernelProfile> = (0..6)
//!     .map(|i| {
//!         let k = KernelCharacteristics {
//!             name: format!("k{i}"),
//!             gpu_speedup: 2.0 + 3.0 * f64::from(i),
//!             ..Default::default()
//!         };
//!         KernelProfile::collect(&machine, &k)
//!     })
//!     .collect();
//! let model = train(&training, TrainingParams { n_clusters: 3, ..Default::default() }).unwrap();
//!
//! // Online: two sample iterations of a new kernel → configuration.
//! let new_kernel = KernelCharacteristics { name: "new".into(), ..Default::default() };
//! let samples = SamplePair::new(
//!     machine.run(&new_kernel, &sample_config(Device::Cpu)),
//!     machine.run(&new_kernel, &sample_config(Device::Gpu)),
//! );
//! let config = Predictor::new(&model).predict(&samples).select(20.0);
//! assert!(config.index() < acs_sim::Configuration::space_size());
//! ```

#![warn(missing_docs)]

pub mod adapt;
pub mod bootstrap;
pub mod confidence;
pub mod dissimilarity;
pub mod eval;
pub mod fastpath;
pub mod features;
pub mod frontier;
pub mod health;
pub mod limiter;
pub mod methods;
pub mod objective;
pub mod offline;
pub mod online;
pub mod partition;
pub mod persist;
pub mod profile;
pub mod runtime;

pub use adapt::{
    AdaptCorrection, AdaptError, AdaptOutcome, AdaptParams, AdaptSelection, AdaptivePredictor,
    DriftEvent, KalmanFilter, Signal,
};
pub use bootstrap::{bootstrap_table3, Interval, MethodIntervals};
pub use confidence::{predict_with_confidence, BoundedPoint, BoundedProfile};
pub use eval::{characterize_apps, evaluate, AppProfiles, CaseResult, Evaluation, MethodSummary};
pub use fastpath::{ConfigSpace, FastModel, SelectScratch};
pub use features::{sample_config, SamplePair, TREE_FEATURE_NAMES};
pub use frontier::{Frontier, PowerPerfPoint};
pub use health::{
    safe_min_config, DegradationTier, GuardPolicy, KernelHealth, RuntimeError, TierState,
};
pub use methods::Method;
pub use objective::Objective;
pub use offline::{train, train_on_suite, ClusterModels, TrainedModel, TrainingParams};
pub use online::{prediction_error, PredictedProfile, Predictor};
pub use partition::{
    partition_budget, partition_budget_with, DemandCurve, Partition, PartitionObjective,
};
pub use persist::{
    crc32, quarantine_path, read_artifact, write_artifact, PersistError, ARTIFACT_VERSION,
};
pub use profile::{collect_suite, KernelProfile};
pub use runtime::{AppRunReport, CappedRuntime};
