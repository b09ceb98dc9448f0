//! CoMD — classical molecular dynamics proxy application.
//!
//! Seven significant kernels: the Lennard-Jones and three-pass EAM force
//! computations (compute-dense, GPU-friendly), streaming integrator updates
//! (bandwidth-bound), and neighbor-list construction (divergent and
//! GPU-hostile). The paper runs CoMD at a single input size.

use crate::inputs::InputSize;
use crate::spec::KernelSpec;
use acs_sim::KernelCharacteristics;

/// Benchmark name used in kernel ids and evaluation tables.
pub(crate) const NAME: &str = "CoMD";

/// The 7 CoMD kernel specifications.
const SPECS: [KernelSpec; 7] = [
    KernelSpec {
        name: "LJForce",
        compute_ms: 30.0,
        memory_ms: 4.0,
        parallel_fraction: 0.99,
        bw_saturation_threads: 3.0,
        module_sharing_penalty: 0.30,
        sync_overhead: 0.02,
        gpu_speedup: 7.5,
        branch_divergence: 0.15,
        gpu_bw_advantage: 1.4,
        launch_ms: 0.40,
        vector_fraction: 0.55,
        working_set_mb: 24.0,
        cpu_activity: 0.52,
        gpu_activity: 0.78,
        weight: 0.55,
    },
    KernelSpec {
        name: "EAMForcePass1",
        compute_ms: 18.0,
        memory_ms: 3.5,
        parallel_fraction: 0.98,
        bw_saturation_threads: 3.0,
        module_sharing_penalty: 0.28,
        sync_overhead: 0.02,
        gpu_speedup: 6.5,
        branch_divergence: 0.18,
        gpu_bw_advantage: 1.35,
        launch_ms: 0.40,
        vector_fraction: 0.50,
        working_set_mb: 26.0,
        cpu_activity: 0.50,
        gpu_activity: 0.74,
        weight: 0.15,
    },
    KernelSpec {
        name: "EAMForcePass2",
        compute_ms: 10.0,
        memory_ms: 2.5,
        parallel_fraction: 0.98,
        bw_saturation_threads: 2.5,
        module_sharing_penalty: 0.25,
        sync_overhead: 0.02,
        gpu_speedup: 5.5,
        branch_divergence: 0.15,
        gpu_bw_advantage: 1.3,
        launch_ms: 0.35,
        vector_fraction: 0.45,
        working_set_mb: 22.0,
        cpu_activity: 0.47,
        gpu_activity: 0.70,
        weight: 0.08,
    },
    KernelSpec {
        name: "EAMForcePass3",
        compute_ms: 12.0,
        memory_ms: 2.8,
        parallel_fraction: 0.98,
        bw_saturation_threads: 2.5,
        module_sharing_penalty: 0.25,
        sync_overhead: 0.02,
        gpu_speedup: 6.0,
        branch_divergence: 0.16,
        gpu_bw_advantage: 1.3,
        launch_ms: 0.35,
        vector_fraction: 0.48,
        working_set_mb: 22.0,
        cpu_activity: 0.48,
        gpu_activity: 0.70,
        weight: 0.09,
    },
    KernelSpec {
        name: "AdvanceVelocity",
        compute_ms: 0.7,
        memory_ms: 1.2,
        parallel_fraction: 0.97,
        bw_saturation_threads: 2.0,
        module_sharing_penalty: 0.03,
        sync_overhead: 0.03,
        gpu_speedup: 4.2,
        branch_divergence: 0.05,
        gpu_bw_advantage: 1.3,
        launch_ms: 0.20,
        vector_fraction: 0.30,
        working_set_mb: 10.0,
        cpu_activity: 0.30,
        gpu_activity: 0.40,
        weight: 0.03,
    },
    KernelSpec {
        name: "AdvancePosition",
        compute_ms: 0.7,
        memory_ms: 1.2,
        parallel_fraction: 0.97,
        bw_saturation_threads: 2.0,
        module_sharing_penalty: 0.03,
        sync_overhead: 0.03,
        gpu_speedup: 4.2,
        branch_divergence: 0.05,
        gpu_bw_advantage: 1.3,
        launch_ms: 0.20,
        vector_fraction: 0.30,
        working_set_mb: 10.0,
        cpu_activity: 0.30,
        gpu_activity: 0.40,
        weight: 0.03,
    },
    KernelSpec {
        name: "BuildNeighborList",
        compute_ms: 5.0,
        memory_ms: 3.2,
        parallel_fraction: 0.90,
        bw_saturation_threads: 2.0,
        module_sharing_penalty: 0.08,
        sync_overhead: 0.05,
        gpu_speedup: 1.8,
        branch_divergence: 0.60,
        gpu_bw_advantage: 1.0,
        launch_ms: 0.45,
        vector_fraction: 0.10,
        working_set_mb: 30.0,
        cpu_activity: 0.34,
        gpu_activity: 0.40,
        weight: 0.07,
    },
];

/// Instantiate the CoMD kernels for an input size.
pub fn kernels(input: InputSize) -> Vec<KernelCharacteristics> {
    SPECS.iter().map(|s| s.instantiate(NAME, input)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_seven_kernels() {
        assert_eq!(SPECS.len(), 7);
    }

    #[test]
    fn all_kernels_validate() {
        for k in kernels(InputSize::Default) {
            assert!(k.validate().is_empty(), "{:?}", k.validate());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn force_kernels_dominate_runtime() {
        let w: f64 = SPECS.iter().filter(|s| s.name.contains("Force")).map(|s| s.weight).sum();
        assert!(w > 0.8, "force computation should dominate MD time");
    }
}
