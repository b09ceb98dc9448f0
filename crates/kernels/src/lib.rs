//! # acs-kernels — synthetic exascale-proxy benchmark suite
//!
//! Stand-ins for the paper's benchmark suite (Section IV-B): LULESH (20
//! kernels), CoMD (7), SMC (8), and Rodinia LU (1) — 36 kernels total, run
//! at multiple input sizes for 65 benchmark/input combinations.
//!
//! Each kernel is a `KernelSpec` table row of latent characteristics
//! (parallel fraction, memory-boundedness, GPU affinity, branch divergence,
//! vectorization, launch overhead, switching activity) instantiated into an
//! [`acs_sim::KernelCharacteristics`] for a concrete input size. The latents
//! are chosen per archetype — compute-dense force/chemistry kernels,
//! bandwidth-bound streaming updates, divergent neighbor/limiter kernels,
//! and tiny launch-dominated boundary kernels — so that the suite spans the
//! behavioral diversity the paper reports (best-config power spread and
//! multi-order-of-magnitude performance ranges).
//!
//! ```
//! let combos = acs_kernels::all_kernel_instances();
//! assert_eq!(combos.len(), 65);
//! ```

#![warn(missing_docs)]

pub mod comd;
pub mod generator;
pub mod inputs;
pub mod lu;
pub mod lulesh;
pub mod smc;
pub mod spec;
pub mod suite;

pub use generator::{generate, GeneratorConfig};
pub use inputs::InputSize;

pub use suite::{all_kernel_instances, app_instances, training_kernels, AppInstance};
