//! Input sizes and their effect on kernel characteristics.
//!
//! "Running benchmarks with various inputs increases the variance in kernel
//! behavior, and increases our benchmark/input combination count to 65"
//! (Section IV-B). Larger inputs grow working sets and memory-boundedness,
//! amortize OpenCL launch overhead, and improve GPU occupancy — the same
//! qualitative shifts observed between the paper's Small and Large runs.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Input-size label for a benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InputSize {
    /// Problem fits mostly in cache; launch overheads are significant.
    Small,
    /// Problem spills to DRAM; GPU occupancy is high.
    Large,
    /// Single reference input (used by CoMD, which the paper runs at one
    /// size).
    Default,
}

impl InputSize {
    /// Multiplier on compute time relative to the Small baseline (an 8×
    /// element count for a 2× refinement in each spatial dimension).
    pub(crate) fn compute_scale(self) -> f64 {
        match self {
            InputSize::Small | InputSize::Default => 1.0,
            InputSize::Large => 8.0,
        }
    }

    /// Multiplier on DRAM-bound time. Grows faster than compute because the
    /// larger working set also lowers cache hit rates.
    pub(crate) fn memory_scale(self) -> f64 {
        match self {
            InputSize::Small | InputSize::Default => 1.0,
            InputSize::Large => 11.0,
        }
    }

    /// Multiplier on the resident working set.
    pub(crate) fn working_set_scale(self) -> f64 {
        match self {
            InputSize::Small | InputSize::Default => 1.0,
            InputSize::Large => 8.0,
        }
    }

    /// Multiplier on effective GPU speedup: more work per launch means
    /// better occupancy on the 384-lane array.
    pub(crate) fn gpu_occupancy_scale(self) -> f64 {
        match self {
            InputSize::Small | InputSize::Default => 1.0,
            InputSize::Large => 1.15,
        }
    }

    /// The label used in kernel ids and result tables.
    pub fn label(self) -> &'static str {
        match self {
            InputSize::Small => "Small",
            InputSize::Large => "Large",
            InputSize::Default => "Default",
        }
    }
}

impl fmt::Display for InputSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_grows_memory_faster_than_compute() {
        assert!(InputSize::Large.memory_scale() > InputSize::Large.compute_scale());
    }

    #[test]
    fn small_and_default_are_identity() {
        for s in [InputSize::Small, InputSize::Default] {
            assert_eq!(s.compute_scale(), 1.0);
            assert_eq!(s.memory_scale(), 1.0);
            assert_eq!(s.working_set_scale(), 1.0);
            assert_eq!(s.gpu_occupancy_scale(), 1.0);
        }
    }

    #[test]
    fn labels_are_distinct() {
        assert_ne!(InputSize::Small.label(), InputSize::Large.label());
        assert_eq!(InputSize::Large.to_string(), "Large");
    }
}
