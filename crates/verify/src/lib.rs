//! acs-verify — oracle differential testing, metamorphic invariants, and
//! the regression traces `acs reproduce` pins.
//!
//! The paper's central claim (Figures 4–6) is that model-based
//! configuration selection lands within a few percent of an exhaustive
//! oracle while respecting power caps. This crate turns that claim into
//! permanent machinery, in four layers:
//!
//! * [`scenario`] — a deterministic grid of `(machine seed, kernel, cap)`
//!   scenarios with leave-one-benchmark-out training discipline.
//! * [`oracle`] — the exhaustive ground truth's answer at a cap (the
//!   sweep itself is `KernelProfile::oracle_frontier`).
//! * [`differential`] — every method replayed against the oracle, scored
//!   as per-method regret with pass/fail thresholds from the paper.
//! * [`transfer`] — the cross-architecture differential: models trained
//!   on one machine family scheduling another, gated on transfer regret.
//! * [`mod@reference`] — the online stage, frontier dissimilarity, PAM, the
//!   regression solve and the power sensor written the slow, obvious way;
//!   the production kernels in `acs-core`, `acs-mlstat` and `acs-sim` are
//!   held bit-identical to it.
//! * [`metamorphic`] — first-principles invariants.
//! * [`golden`] — the scheduler timelines and the regret summary that,
//!   with the transfer matrix and the drift grid, are rows of the
//!   experiment registry: `acs reproduce` writes them to `results/` and
//!   `tests/reproduce.rs` holds them there byte for byte.
//!
//! `tests/conformance.rs` at the workspace root wires the gates into
//! `cargo test`; the `acs verify` CLI subcommand runs them on demand and
//! writes nothing.

#![warn(missing_docs)]

pub mod differential;
pub mod drift;
pub mod golden;
pub mod metamorphic;
pub mod oracle;
pub mod reference;
pub mod scenario;
pub mod transfer;

pub use differential::{run_differential, MethodRegret, Thresholds};
pub use drift::{run_drift, AdaptThresholds, DriftGridParams};
pub use metamorphic::{check_cap_monotonicity, check_frontier_non_domination};

pub use scenario::{GridParams, ScenarioGrid};
pub use transfer::{run_transfer, TransferThresholds};
