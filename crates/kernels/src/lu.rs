//! LU — the Rodinia `lud` dense LU-decomposition benchmark.
//!
//! A single kernel chosen by the paper for its relevance to LINPACK. It is
//! the suite's extreme case: dense, regular, massively GPU-friendly compute
//! with a sharp performance cliff at the CPU→GPU switch (paper Figure 7:
//! attainable performance jumps from 10.4% to 89.0% when the available
//! power crosses from 17.2 W to 17.6 W).

use crate::inputs::InputSize;
use crate::spec::KernelSpec;
use acs_sim::KernelCharacteristics;

/// Benchmark name used in kernel ids and evaluation tables.
pub(crate) const NAME: &str = "LU";

/// The single `lud` kernel specification at the Small input.
pub(crate) const SPECS: [KernelSpec; 1] = [KernelSpec {
    name: "lud",
    compute_ms: 16.0,
    memory_ms: 1.2,
    parallel_fraction: 0.995,
    bw_saturation_threads: 2.5,
    module_sharing_penalty: 0.20,
    sync_overhead: 0.03,
    gpu_speedup: 90.0,
    branch_divergence: 0.06,
    gpu_bw_advantage: 1.5,
    launch_ms: 0.25,
    vector_fraction: 0.50,
    working_set_mb: 18.0,
    cpu_activity: 0.45,
    gpu_activity: 0.72,
    weight: 1.0,
}];

/// Instantiate the LU kernel for an input size.
pub fn kernels(input: InputSize) -> Vec<KernelCharacteristics> {
    SPECS.iter().map(|s| s.instantiate(NAME, input)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_sim::{Configuration, CpuPState, GpuPState, Machine};

    #[test]
    fn single_valid_kernel() {
        let ks = kernels(InputSize::Small);
        assert_eq!(ks.len(), 1);
        assert!(ks[0].validate().is_empty());
    }

    #[test]
    fn gpu_cliff_exists() {
        // The defining property from Figure 7: even the slowest GPU
        // configuration crushes the best CPU configuration.
        let k = &kernels(InputSize::Small)[0];
        let m = Machine::noiseless(0);
        let best_cpu = m.run(k, &Configuration::cpu(4, CpuPState::MAX)).time_s;
        let slowest_gpu = m.run(k, &Configuration::gpu(GpuPState::MIN, CpuPState::MIN)).time_s;
        assert!(
            slowest_gpu < best_cpu / 2.0,
            "GPU min ({slowest_gpu}) must far outrun CPU best ({best_cpu})"
        );
    }
}
