//! # acs-core — adaptive configuration selection
//!
//! The paper's primary contribution: an offline-trained, online-applied
//! power/performance model that selects hardware configurations (device,
//! thread count, CPU/GPU P-states) maximizing performance under a power
//! constraint on a heterogeneous processor.
//!
//! The modules are declared in the order the paper reads (Figure 1).
//!
//! **Offline, once per machine** (Section III-B) — [`offline::train`]:
//!
//! 1. characterize every training kernel at all 42 configurations
//!    ([`profile::KernelProfile::collect`]);
//! 2. take each kernel's power–performance Pareto frontier
//!    ([`frontier::Frontier::from_points`]);
//! 3. compare frontier orderings pair by pair with Kendall's τ into a
//!    dissimilarity matrix ([`dissimilarity::dissimilarity_matrix`]);
//! 4. cluster the kernels on that matrix with PAM
//!    ([`offline::Prepared::fit`], which also does 5 and 6);
//! 5. fit each cluster's power and performance regressions over the
//!    configuration variables ([`features::config_features`] →
//!    [`offline::ClusterModels`]);
//! 6. train the classification tree over the sample-configuration
//!    features ([`features::tree_features`]).
//!
//! **Online, per new kernel** (Section III-C) — [`online::Predictor`]:
//!
//! 1. run the kernel once per device at the Table II sample
//!    configurations ([`features::sample_config`] →
//!    [`features::SamplePair`]);
//! 2. classify it into a cluster by walking the CART
//!    ([`online::Predictor::classify`]);
//! 3. predict power and performance at every configuration and derive the
//!    predicted frontier ([`online::Predictor::predict`], on the
//!    precomputed tables of [`fastpath`]);
//! 4. walk that frontier to the best configuration under the active cap
//!    ([`online::PredictedProfile::select`]; without allocating,
//!    [`online::Predictor::select_with`]) — in well under a millisecond.
//!
//! **Evaluation** (Section V): [`methods::Method`] names the five policies
//! compared (Oracle, Model, Model+FL, CPU+FL, GPU+FL), [`limiter`] is the
//! simulated RAPL-style frequency limiter three of them walk,
//! [`eval::evaluate`] is the leave-one-benchmark-out protocol behind
//! Table III and Figures 4–9, and [`bootstrap::bootstrap_table3`] puts
//! confidence intervals on that table.
//!
//! **Beyond the paper, and who runs it:** [`adapt`] (Kalman-tracked drift
//! correction) — every `acs-serve` session; [`health`], [`runtime`]
//! (the guarded, power-capped application runtime) and [`timeline`] (its
//! run record) — the server's `Run` request, `acs runtime` and
//! `acs chaos`; [`persist`] (checksummed, atomically replaced artifacts)
//! — the CLI's model files and the server journal's CRC; [`confidence`]
//! (Section VI's risk-averse selection) — ablation A5,
//! `acs reproduce --name ablation_confidence`.
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

// In the paper's order. The comment between two modules is load-bearing:
// rustfmt sorts a contiguous run of `mod` items alphabetically.
//
// Offline (III-B) step 1: characterization sweeps.
pub mod profile;
// Step 2: Pareto frontiers.
pub mod frontier;
// Step 3: the Kendall-τ dissimilarity matrix.
pub mod dissimilarity;
// Steps 4–6: PAM, per-cluster regressions, the classification tree.
pub mod offline;
// What steps 5 and 6 are fitted on; the Table II sample configurations.
pub mod features;
// Online (III-C): classify → predict → frontier walk.
pub mod online;
// The precomputed tables `online` runs on.
pub mod fastpath;
// Evaluation (V): the five methods.
pub mod methods;
// The frequency limiter behind the three "+FL" methods.
pub mod limiter;
// Leave-one-benchmark-out: Table III, Figures 4–9.
pub mod eval;
// Confidence intervals on Table III.
pub mod bootstrap;

// Beyond the paper (the module doc says who runs each).
pub mod adapt;
pub mod confidence;
pub mod health;
pub mod persist;
pub mod runtime;
pub mod timeline;

pub use bootstrap::{bootstrap_table3, Interval, MethodIntervals};
pub use eval::{characterize_apps, evaluate, AppProfiles, CaseResult, Evaluation, MethodSummary};
pub use fastpath::{ConfigSpace, FastModel, SelectScratch};
pub use features::{sample_config, SamplePair, TREE_FEATURE_NAMES};
pub use frontier::{Frontier, PowerPerfPoint};
pub use methods::Method;
pub use offline::{train, train_on_suite, ClusterModels, TrainedModel, TrainingParams};
pub use online::{prediction_error, PredictedProfile, Predictor};
pub use profile::{collect_suite, KernelProfile};

pub use adapt::{
    AdaptCorrection, AdaptError, AdaptOutcome, AdaptSelection, AdaptivePredictor, DriftEvent,
    KalmanFilter, Signal,
};
pub use confidence::{predict_with_confidence, BoundedPoint, BoundedProfile};
pub use health::{
    safe_min_config, DegradationTier, GuardPolicy, KernelHealth, RuntimeError, TierState,
};
pub use persist::{
    crc32, quarantine_path, read_artifact, write_artifact, PersistError, ARTIFACT_VERSION,
};
pub use runtime::{AppRunReport, CappedRuntime};
