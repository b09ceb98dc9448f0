//! # acs — Adaptive Configuration Selection for Power-Constrained
//! Heterogeneous Systems
//!
//! A from-scratch Rust reproduction of Bailey et al., ICPP 2014. Given a
//! node-level power cap on a heterogeneous (CPU + integrated GPU)
//! processor, the library selects the hardware configuration — device,
//! CPU thread count, CPU P-state, GPU P-state — that maximizes a kernel's
//! performance while respecting the cap, after observing the kernel for
//! only **two** iterations (one per device).
//!
//! The workspace is organized as the paper's system plus every substrate
//! it needs:
//!
//! * [`sim`] — a deterministic analytic simulator of the AMD Trinity APU
//!   (P-states, timing, two power planes, PMU counters, 1 kHz power
//!   sensor),
//! * [`kernels`] — a 36-kernel synthetic proxy-application suite (LULESH,
//!   CoMD, SMC, LU) at multiple input sizes (65 combinations),
//! * [`mlstat`] — regression, Kendall rank correlation, PAM clustering,
//!   and CART trees, implemented from scratch,
//! * [`core`] — the paper's contribution, its modules in the paper's
//!   order: Pareto frontiers, offline cluster-and-regress training, online
//!   classify-and-predict selection ([`core::Predictor`]), simulated RAPL
//!   frequency limiting, the full Table III / Figures 4–9 evaluation
//!   protocol, and the power-capped runtime with its run record
//!   ([`core::timeline`]),
//! * [`verify`] — the correctness tooling: exhaustive-oracle differential
//!   testing, metamorphic invariants, and the regression traces pinned
//!   under `results/`,
//! * [`serve`] — the multi-tenant online selection server: a length-
//!   prefixed JSON protocol over TCP, memoized selection, and a cluster
//!   power-budget arbiter partitioning a global cap across sessions.
//!
//! ## Quickstart
//!
//! ```
//! use acs::prelude::*;
//!
//! // A machine and a small training suite.
//! let machine = Machine::new(42);
//! let apps = acs::kernels::app_instances();
//! let training: Vec<KernelProfile> = apps[0]
//!     .kernels
//!     .iter()
//!     .map(|k| KernelProfile::collect(&machine, k))
//!     .collect();
//!
//! // Offline: cluster + regress + train the classifier.
//! let model = acs::core::train(&training, TrainingParams::default()).unwrap();
//!
//! // Online: two sample iterations of a new kernel, then selection.
//! let new_kernel = &apps[1].kernels[0];
//! let samples = SamplePair::new(
//!     machine.run(new_kernel, &sample_config(Device::Cpu)),
//!     machine.run(new_kernel, &sample_config(Device::Gpu)),
//! );
//! let predicted = Predictor::new(&model).predict(&samples);
//! let config = predicted.select(25.0); // 25 W cap
//! println!("run {} at {config}", new_kernel.id());
//! ```

pub use acs_core as core;
pub use acs_kernels as kernels;
pub use acs_mlstat as mlstat;
pub use acs_serve as serve;
pub use acs_sim as sim;
pub use acs_verify as verify;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use acs_core::{
        sample_config, train, Frontier, KernelProfile, Method, PowerPerfPoint, PredictedProfile,
        Predictor, SamplePair, TrainedModel, TrainingParams,
    };
    pub use acs_kernels::{AppInstance, InputSize};
    pub use acs_sim::{
        Configuration, CpuPState, Device, GpuPState, KernelCharacteristics, KernelRun, Machine,
    };
}
