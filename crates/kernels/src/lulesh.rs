//! LULESH — Livermore Unstructured Lagrangian Explicit Shock Hydrodynamics.
//!
//! The paper's OpenCL/OpenMP port contains 20 significant kernels spanning
//! compute-dense element loops (hourglass control, stress integration),
//! memory-bound nodal streaming updates, branchy limiter kernels, and tiny
//! boundary-condition kernels where launch overhead dominates. The latents
//! below encode those archetypes; the suite runs LULESH at Small and Large
//! inputs.

use crate::inputs::InputSize;
use crate::spec::KernelSpec;
use acs_sim::KernelCharacteristics;

/// Benchmark name used in kernel ids and evaluation tables.
pub(crate) const NAME: &str = "LULESH";

/// The 20 LULESH kernel specifications at the Small input.
const SPECS: [KernelSpec; 20] = [
    // Compute-dense element kernels: high parallel fraction, strong GPU
    // affinity, FP-heavy (module sharing hurts), big weights.
    KernelSpec {
        name: "CalcFBHourglassForce",
        compute_ms: 22.0,
        memory_ms: 3.0,
        parallel_fraction: 0.99,
        bw_saturation_threads: 3.0,
        module_sharing_penalty: 0.25,
        sync_overhead: 0.02,
        gpu_speedup: 8.0,
        branch_divergence: 0.05,
        gpu_bw_advantage: 1.5,
        launch_ms: 0.35,
        vector_fraction: 0.60,
        working_set_mb: 30.0,
        cpu_activity: 0.50,
        gpu_activity: 0.75,
        weight: 0.18,
    },
    KernelSpec {
        name: "CalcHourglassControlForElems",
        compute_ms: 12.0,
        memory_ms: 2.5,
        parallel_fraction: 0.98,
        bw_saturation_threads: 3.0,
        module_sharing_penalty: 0.22,
        sync_overhead: 0.02,
        gpu_speedup: 7.0,
        branch_divergence: 0.08,
        gpu_bw_advantage: 1.4,
        launch_ms: 0.30,
        vector_fraction: 0.55,
        working_set_mb: 28.0,
        cpu_activity: 0.48,
        gpu_activity: 0.70,
        weight: 0.10,
    },
    KernelSpec {
        name: "CalcVolumeForceForElems",
        compute_ms: 6.0,
        memory_ms: 1.2,
        parallel_fraction: 0.97,
        bw_saturation_threads: 3.0,
        module_sharing_penalty: 0.20,
        sync_overhead: 0.03,
        gpu_speedup: 6.0,
        branch_divergence: 0.10,
        gpu_bw_advantage: 1.3,
        launch_ms: 0.30,
        vector_fraction: 0.50,
        working_set_mb: 20.0,
        cpu_activity: 0.45,
        gpu_activity: 0.65,
        weight: 0.05,
    },
    KernelSpec {
        name: "IntegrateStressForElems",
        compute_ms: 10.0,
        memory_ms: 2.8,
        parallel_fraction: 0.98,
        bw_saturation_threads: 2.5,
        module_sharing_penalty: 0.20,
        sync_overhead: 0.02,
        gpu_speedup: 6.5,
        branch_divergence: 0.07,
        gpu_bw_advantage: 1.4,
        launch_ms: 0.30,
        vector_fraction: 0.45,
        working_set_mb: 26.0,
        cpu_activity: 0.46,
        gpu_activity: 0.68,
        weight: 0.09,
    },
    // Nodal gather: irregular access, memory-bound, weak GPU mapping.
    KernelSpec {
        name: "CalcForceForNodes",
        compute_ms: 1.5,
        memory_ms: 2.2,
        parallel_fraction: 0.92,
        bw_saturation_threads: 2.0,
        module_sharing_penalty: 0.08,
        sync_overhead: 0.04,
        gpu_speedup: 3.5,
        branch_divergence: 0.20,
        gpu_bw_advantage: 1.1,
        launch_ms: 0.25,
        vector_fraction: 0.15,
        working_set_mb: 18.0,
        cpu_activity: 0.33,
        gpu_activity: 0.45,
        weight: 0.03,
    },
    // Streaming nodal updates: bandwidth-bound, DVFS-insensitive.
    KernelSpec {
        name: "CalcAccelerationForNodes",
        compute_ms: 0.8,
        memory_ms: 1.4,
        parallel_fraction: 0.95,
        bw_saturation_threads: 2.0,
        module_sharing_penalty: 0.05,
        sync_overhead: 0.04,
        gpu_speedup: 4.0,
        branch_divergence: 0.10,
        gpu_bw_advantage: 1.2,
        launch_ms: 0.20,
        vector_fraction: 0.30,
        working_set_mb: 12.0,
        cpu_activity: 0.30,
        gpu_activity: 0.40,
        weight: 0.02,
    },
    // Tiny boundary-condition kernel: mostly serial, launch-dominated on
    // the GPU — the classic "do not offload" case.
    KernelSpec {
        name: "ApplyAccelerationBoundaryConditions",
        compute_ms: 0.30,
        memory_ms: 0.15,
        parallel_fraction: 0.55,
        bw_saturation_threads: 1.5,
        module_sharing_penalty: 0.05,
        sync_overhead: 0.06,
        gpu_speedup: 0.8,
        branch_divergence: 0.35,
        gpu_bw_advantage: 1.0,
        launch_ms: 0.20,
        vector_fraction: 0.10,
        working_set_mb: 2.0,
        cpu_activity: 0.28,
        gpu_activity: 0.30,
        weight: 0.01,
    },
    KernelSpec {
        name: "CalcVelocityForNodes",
        compute_ms: 0.9,
        memory_ms: 1.6,
        parallel_fraction: 0.96,
        bw_saturation_threads: 2.0,
        module_sharing_penalty: 0.05,
        sync_overhead: 0.03,
        gpu_speedup: 4.5,
        branch_divergence: 0.08,
        gpu_bw_advantage: 1.25,
        launch_ms: 0.20,
        vector_fraction: 0.35,
        working_set_mb: 14.0,
        cpu_activity: 0.30,
        gpu_activity: 0.42,
        weight: 0.02,
    },
    KernelSpec {
        name: "CalcPositionForNodes",
        compute_ms: 0.8,
        memory_ms: 1.5,
        parallel_fraction: 0.96,
        bw_saturation_threads: 2.0,
        module_sharing_penalty: 0.05,
        sync_overhead: 0.03,
        gpu_speedup: 4.5,
        branch_divergence: 0.08,
        gpu_bw_advantage: 1.25,
        launch_ms: 0.20,
        vector_fraction: 0.35,
        working_set_mb: 14.0,
        cpu_activity: 0.30,
        gpu_activity: 0.42,
        weight: 0.02,
    },
    KernelSpec {
        name: "CalcKinematicsForElems",
        compute_ms: 9.0,
        memory_ms: 2.0,
        parallel_fraction: 0.98,
        bw_saturation_threads: 3.0,
        module_sharing_penalty: 0.18,
        sync_overhead: 0.02,
        gpu_speedup: 6.5,
        branch_divergence: 0.08,
        gpu_bw_advantage: 1.35,
        launch_ms: 0.30,
        vector_fraction: 0.50,
        working_set_mb: 24.0,
        cpu_activity: 0.44,
        gpu_activity: 0.66,
        weight: 0.08,
    },
    KernelSpec {
        name: "CalcLagrangeElements",
        compute_ms: 3.0,
        memory_ms: 1.0,
        parallel_fraction: 0.95,
        bw_saturation_threads: 2.5,
        module_sharing_penalty: 0.15,
        sync_overhead: 0.03,
        gpu_speedup: 4.5,
        branch_divergence: 0.10,
        gpu_bw_advantage: 1.3,
        launch_ms: 0.25,
        vector_fraction: 0.40,
        working_set_mb: 16.0,
        cpu_activity: 0.40,
        gpu_activity: 0.55,
        weight: 0.03,
    },
    KernelSpec {
        name: "CalcMonotonicQGradientsForElems",
        compute_ms: 7.0,
        memory_ms: 2.4,
        parallel_fraction: 0.97,
        bw_saturation_threads: 2.5,
        module_sharing_penalty: 0.15,
        sync_overhead: 0.03,
        gpu_speedup: 5.0,
        branch_divergence: 0.12,
        gpu_bw_advantage: 1.3,
        launch_ms: 0.30,
        vector_fraction: 0.40,
        working_set_mb: 26.0,
        cpu_activity: 0.41,
        gpu_activity: 0.60,
        weight: 0.06,
    },
    // Branch-heavy limiter: divergence wrecks GPU throughput.
    KernelSpec {
        name: "CalcMonotonicQRegionForElems",
        compute_ms: 4.0,
        memory_ms: 1.6,
        parallel_fraction: 0.93,
        bw_saturation_threads: 2.0,
        module_sharing_penalty: 0.10,
        sync_overhead: 0.04,
        gpu_speedup: 2.5,
        branch_divergence: 0.50,
        gpu_bw_advantage: 1.1,
        launch_ms: 0.30,
        vector_fraction: 0.20,
        working_set_mb: 20.0,
        cpu_activity: 0.36,
        gpu_activity: 0.45,
        weight: 0.04,
    },
    KernelSpec {
        name: "CalcQForElems",
        compute_ms: 2.5,
        memory_ms: 1.0,
        parallel_fraction: 0.94,
        bw_saturation_threads: 2.0,
        module_sharing_penalty: 0.10,
        sync_overhead: 0.04,
        gpu_speedup: 3.0,
        branch_divergence: 0.40,
        gpu_bw_advantage: 1.1,
        launch_ms: 0.25,
        vector_fraction: 0.25,
        working_set_mb: 16.0,
        cpu_activity: 0.36,
        gpu_activity: 0.45,
        weight: 0.03,
    },
    KernelSpec {
        name: "CalcPressureForElems",
        compute_ms: 3.5,
        memory_ms: 0.9,
        parallel_fraction: 0.96,
        bw_saturation_threads: 3.0,
        module_sharing_penalty: 0.18,
        sync_overhead: 0.03,
        gpu_speedup: 5.5,
        branch_divergence: 0.10,
        gpu_bw_advantage: 1.3,
        launch_ms: 0.25,
        vector_fraction: 0.50,
        working_set_mb: 12.0,
        cpu_activity: 0.43,
        gpu_activity: 0.60,
        weight: 0.04,
    },
    // Iterative EOS solve with data-dependent convergence branches.
    KernelSpec {
        name: "CalcEnergyForElems",
        compute_ms: 8.0,
        memory_ms: 1.8,
        parallel_fraction: 0.96,
        bw_saturation_threads: 3.0,
        module_sharing_penalty: 0.18,
        sync_overhead: 0.03,
        gpu_speedup: 5.5,
        branch_divergence: 0.25,
        gpu_bw_advantage: 1.3,
        launch_ms: 0.30,
        vector_fraction: 0.45,
        working_set_mb: 20.0,
        cpu_activity: 0.42,
        gpu_activity: 0.58,
        weight: 0.08,
    },
    KernelSpec {
        name: "CalcSoundSpeedForElems",
        compute_ms: 1.2,
        memory_ms: 0.5,
        parallel_fraction: 0.95,
        bw_saturation_threads: 2.5,
        module_sharing_penalty: 0.15,
        sync_overhead: 0.03,
        gpu_speedup: 4.0,
        branch_divergence: 0.10,
        gpu_bw_advantage: 1.2,
        launch_ms: 0.20,
        vector_fraction: 0.45,
        working_set_mb: 8.0,
        cpu_activity: 0.40,
        gpu_activity: 0.50,
        weight: 0.02,
    },
    KernelSpec {
        name: "UpdateVolumesForElems",
        compute_ms: 0.4,
        memory_ms: 1.1,
        parallel_fraction: 0.97,
        bw_saturation_threads: 2.0,
        module_sharing_penalty: 0.03,
        sync_overhead: 0.03,
        gpu_speedup: 3.8,
        branch_divergence: 0.05,
        gpu_bw_advantage: 1.3,
        launch_ms: 0.20,
        vector_fraction: 0.20,
        working_set_mb: 10.0,
        cpu_activity: 0.28,
        gpu_activity: 0.38,
        weight: 0.01,
    },
    // Reduction kernels with data-dependent branches.
    KernelSpec {
        name: "CalcCourantConstraintForElems",
        compute_ms: 1.8,
        memory_ms: 0.9,
        parallel_fraction: 0.90,
        bw_saturation_threads: 2.0,
        module_sharing_penalty: 0.10,
        sync_overhead: 0.05,
        gpu_speedup: 2.2,
        branch_divergence: 0.45,
        gpu_bw_advantage: 1.1,
        launch_ms: 0.30,
        vector_fraction: 0.30,
        working_set_mb: 14.0,
        cpu_activity: 0.35,
        gpu_activity: 0.42,
        weight: 0.02,
    },
    KernelSpec {
        name: "CalcHydroConstraintForElems",
        compute_ms: 1.6,
        memory_ms: 0.8,
        parallel_fraction: 0.90,
        bw_saturation_threads: 2.0,
        module_sharing_penalty: 0.10,
        sync_overhead: 0.05,
        gpu_speedup: 2.2,
        branch_divergence: 0.40,
        gpu_bw_advantage: 1.1,
        launch_ms: 0.30,
        vector_fraction: 0.30,
        working_set_mb: 14.0,
        cpu_activity: 0.35,
        gpu_activity: 0.42,
        weight: 0.02,
    },
];

/// Instantiate the LULESH kernels for an input size.
pub fn kernels(input: InputSize) -> Vec<KernelCharacteristics> {
    SPECS.iter().map(|s| s.instantiate(NAME, input)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_twenty_kernels() {
        assert_eq!(SPECS.len(), 20);
        assert_eq!(kernels(InputSize::Small).len(), 20);
    }

    #[test]
    fn all_kernels_validate() {
        for input in [InputSize::Small, InputSize::Large] {
            for k in kernels(input) {
                assert!(k.validate().is_empty(), "{:?}", k.validate());
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20);
    }

    #[test]
    fn suite_has_behavioral_diversity() {
        let ks = kernels(InputSize::Small);
        let max_gpu = ks.iter().map(|k| k.gpu_speedup).fold(0.0, f64::max);
        let min_gpu = ks.iter().map(|k| k.gpu_speedup).fold(f64::INFINITY, f64::min);
        assert!(max_gpu / min_gpu > 8.0, "GPU affinity must vary widely");
        let max_mb = ks.iter().map(|k| k.memory_boundedness()).fold(0.0, f64::max);
        let min_mb = ks.iter().map(|k| k.memory_boundedness()).fold(f64::INFINITY, f64::min);
        assert!(max_mb > 0.5 && min_mb < 0.2, "memory-boundedness must vary");
    }
}
