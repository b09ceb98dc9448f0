//! Kernel specification table format.
//!
//! Each benchmark module describes its kernels as a compact static table of
//! `KernelSpec` rows (latents at the Small input), which are instantiated
//! into [`KernelCharacteristics`] for a concrete input size.

use crate::inputs::InputSize;
use acs_sim::KernelCharacteristics;

/// Static description of one kernel at the Small reference input.
///
/// Time-like fields are in milliseconds for readability; instantiation
/// converts to seconds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KernelSpec {
    /// Kernel name as it appears in the source benchmark.
    pub(crate) name: &'static str,
    /// Single-thread compute time at 3.7 GHz, milliseconds.
    pub(crate) compute_ms: f64,
    /// Single-thread DRAM-bound time, milliseconds.
    pub(crate) memory_ms: f64,
    /// Amdahl parallel fraction.
    pub(crate) parallel_fraction: f64,
    /// Threads at which DRAM bandwidth saturates.
    pub(crate) bw_saturation_threads: f64,
    /// Module-sharing (shared FPU/front-end) throughput penalty.
    pub(crate) module_sharing_penalty: f64,
    /// Per-extra-thread synchronization overhead.
    pub(crate) sync_overhead: f64,
    /// Effective GPU speedup over one reference CPU core.
    pub(crate) gpu_speedup: f64,
    /// Branch-divergence factor.
    pub(crate) branch_divergence: f64,
    /// GPU bandwidth advantage over one CPU thread.
    pub(crate) gpu_bw_advantage: f64,
    /// OpenCL launch + driver overhead, milliseconds.
    pub(crate) launch_ms: f64,
    /// Fraction of vector (SIMD) instructions.
    pub(crate) vector_fraction: f64,
    /// Working set, MiB.
    pub(crate) working_set_mb: f64,
    /// CPU switching activity.
    pub(crate) cpu_activity: f64,
    /// GPU switching activity.
    pub(crate) gpu_activity: f64,
    /// Relative share of application time (normalized per app later).
    pub(crate) weight: f64,
}

impl KernelSpec {
    /// Instantiate this spec for a benchmark at an input size.
    pub(crate) fn instantiate(&self, benchmark: &str, input: InputSize) -> KernelCharacteristics {
        KernelCharacteristics {
            name: self.name.to_string(),
            benchmark: benchmark.to_string(),
            input: input.label().to_string(),
            compute_time_s: self.compute_ms * 1e-3 * input.compute_scale(),
            memory_time_s: self.memory_ms * 1e-3 * input.memory_scale(),
            parallel_fraction: self.parallel_fraction,
            bw_saturation_threads: self.bw_saturation_threads,
            module_sharing_penalty: self.module_sharing_penalty,
            sync_overhead: self.sync_overhead,
            gpu_speedup: (self.gpu_speedup * input.gpu_occupancy_scale()).max(0.05),
            branch_divergence: self.branch_divergence,
            gpu_bw_advantage: self.gpu_bw_advantage,
            launch_overhead_s: self.launch_ms * 1e-3,
            vector_fraction: self.vector_fraction,
            working_set_mb: self.working_set_mb * input.working_set_scale(),
            cpu_activity: self.cpu_activity,
            gpu_activity: self.gpu_activity,
            weight: self.weight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> KernelSpec {
        KernelSpec {
            name: "TestKernel",
            compute_ms: 10.0,
            memory_ms: 2.0,
            parallel_fraction: 0.95,
            bw_saturation_threads: 3.0,
            module_sharing_penalty: 0.2,
            sync_overhead: 0.03,
            gpu_speedup: 8.0,
            branch_divergence: 0.1,
            gpu_bw_advantage: 1.3,
            launch_ms: 0.4,
            vector_fraction: 0.5,
            working_set_mb: 16.0,
            cpu_activity: 0.4,
            gpu_activity: 0.6,
            weight: 1.0,
        }
    }

    #[test]
    fn small_instantiation_converts_units() {
        let k = spec().instantiate("Bench", InputSize::Small);
        assert!((k.compute_time_s - 0.010).abs() < 1e-12);
        assert!((k.memory_time_s - 0.002).abs() < 1e-12);
        assert!((k.launch_overhead_s - 0.0004).abs() < 1e-12);
        assert_eq!(k.id(), "Bench/Small/TestKernel");
        assert!(k.validate().is_empty());
    }

    #[test]
    fn large_instantiation_scales() {
        let s = spec().instantiate("Bench", InputSize::Small);
        let l = spec().instantiate("Bench", InputSize::Large);
        assert!((l.compute_time_s / s.compute_time_s - 8.0).abs() < 1e-9);
        assert!((l.memory_time_s / s.memory_time_s - 11.0).abs() < 1e-9);
        assert!(l.memory_boundedness() > s.memory_boundedness());
        assert!(l.gpu_speedup > s.gpu_speedup);
        // Launch overhead does not grow: it amortizes on large inputs.
        assert_eq!(l.launch_overhead_s, s.launch_overhead_s);
    }
}
