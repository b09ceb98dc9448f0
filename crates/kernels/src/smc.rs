//! SMC — combustion (reacting compressible Navier–Stokes) proxy application.
//!
//! Eight significant kernels: dense chemistry-rate evaluation (the most
//! power-hungry, highly vectorized kernel in the suite), wide stencil
//! diffusion/hyperbolic terms (large working sets), transport-coefficient
//! and primitive-variable kernels, a halo-exchange boundary fill that the
//! GPU handles poorly, and a streaming Runge-Kutta update.

use crate::inputs::InputSize;
use crate::spec::KernelSpec;
use acs_sim::KernelCharacteristics;

/// Benchmark name used in kernel ids and evaluation tables.
pub(crate) const NAME: &str = "SMC";

/// The 8 SMC kernel specifications at the Small input.
const SPECS: [KernelSpec; 8] = [
    KernelSpec {
        name: "ChemRates",
        compute_ms: 40.0,
        memory_ms: 2.0,
        parallel_fraction: 0.99,
        bw_saturation_threads: 4.0,
        module_sharing_penalty: 0.30,
        sync_overhead: 0.015,
        gpu_speedup: 9.0,
        branch_divergence: 0.08,
        gpu_bw_advantage: 1.5,
        launch_ms: 0.50,
        vector_fraction: 0.65,
        working_set_mb: 16.0,
        cpu_activity: 0.55,
        gpu_activity: 0.80,
        weight: 0.35,
    },
    KernelSpec {
        name: "DiffTerm",
        compute_ms: 14.0,
        memory_ms: 5.0,
        parallel_fraction: 0.97,
        bw_saturation_threads: 2.5,
        module_sharing_penalty: 0.15,
        sync_overhead: 0.03,
        gpu_speedup: 4.5,
        branch_divergence: 0.10,
        gpu_bw_advantage: 1.4,
        launch_ms: 0.45,
        vector_fraction: 0.45,
        working_set_mb: 40.0,
        cpu_activity: 0.42,
        gpu_activity: 0.60,
        weight: 0.18,
    },
    KernelSpec {
        name: "HypTerm",
        compute_ms: 12.0,
        memory_ms: 4.5,
        parallel_fraction: 0.97,
        bw_saturation_threads: 2.5,
        module_sharing_penalty: 0.15,
        sync_overhead: 0.03,
        gpu_speedup: 5.0,
        branch_divergence: 0.12,
        gpu_bw_advantage: 1.4,
        launch_ms: 0.45,
        vector_fraction: 0.45,
        working_set_mb: 36.0,
        cpu_activity: 0.42,
        gpu_activity: 0.60,
        weight: 0.15,
    },
    KernelSpec {
        name: "CalcDiffusionCoeffs",
        compute_ms: 8.0,
        memory_ms: 1.5,
        parallel_fraction: 0.98,
        bw_saturation_threads: 3.0,
        module_sharing_penalty: 0.22,
        sync_overhead: 0.02,
        gpu_speedup: 5.5,
        branch_divergence: 0.10,
        gpu_bw_advantage: 1.3,
        launch_ms: 0.35,
        vector_fraction: 0.50,
        working_set_mb: 14.0,
        cpu_activity: 0.46,
        gpu_activity: 0.65,
        weight: 0.08,
    },
    KernelSpec {
        name: "CalcPrimitives",
        compute_ms: 3.0,
        memory_ms: 1.8,
        parallel_fraction: 0.96,
        bw_saturation_threads: 2.0,
        module_sharing_penalty: 0.08,
        sync_overhead: 0.03,
        gpu_speedup: 4.5,
        branch_divergence: 0.08,
        gpu_bw_advantage: 1.3,
        launch_ms: 0.30,
        vector_fraction: 0.35,
        working_set_mb: 22.0,
        cpu_activity: 0.36,
        gpu_activity: 0.50,
        weight: 0.05,
    },
    KernelSpec {
        name: "FillBoundary",
        compute_ms: 0.6,
        memory_ms: 0.9,
        parallel_fraction: 0.70,
        bw_saturation_threads: 1.5,
        module_sharing_penalty: 0.05,
        sync_overhead: 0.06,
        gpu_speedup: 0.9,
        branch_divergence: 0.50,
        gpu_bw_advantage: 1.0,
        launch_ms: 0.30,
        vector_fraction: 0.10,
        working_set_mb: 6.0,
        cpu_activity: 0.30,
        gpu_activity: 0.33,
        weight: 0.03,
    },
    KernelSpec {
        name: "UpdateRK3",
        compute_ms: 1.2,
        memory_ms: 2.4,
        parallel_fraction: 0.98,
        bw_saturation_threads: 2.0,
        module_sharing_penalty: 0.03,
        sync_overhead: 0.02,
        gpu_speedup: 4.8,
        branch_divergence: 0.04,
        gpu_bw_advantage: 1.35,
        launch_ms: 0.25,
        vector_fraction: 0.40,
        working_set_mb: 28.0,
        cpu_activity: 0.30,
        gpu_activity: 0.42,
        weight: 0.06,
    },
    KernelSpec {
        name: "CalcSpeciesEnergy",
        compute_ms: 5.0,
        memory_ms: 1.2,
        parallel_fraction: 0.97,
        bw_saturation_threads: 3.0,
        module_sharing_penalty: 0.20,
        sync_overhead: 0.025,
        gpu_speedup: 5.5,
        branch_divergence: 0.10,
        gpu_bw_advantage: 1.3,
        launch_ms: 0.30,
        vector_fraction: 0.50,
        working_set_mb: 12.0,
        cpu_activity: 0.44,
        gpu_activity: 0.62,
        weight: 0.05,
    },
];

/// Instantiate the SMC kernels for an input size.
pub fn kernels(input: InputSize) -> Vec<KernelCharacteristics> {
    SPECS.iter().map(|s| s.instantiate(NAME, input)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_eight_kernels() {
        assert_eq!(SPECS.len(), 8);
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
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn chemistry_is_the_power_hog() {
        // ChemRates has the highest activity product in the suite — it is
        // the kernel that pushes best-config power toward the top of the
        // paper's 19–55 W spread.
        let chem = &SPECS[0];
        for s in &SPECS[1..] {
            assert!(chem.cpu_activity >= s.cpu_activity);
            assert!(chem.gpu_activity >= s.gpu_activity);
        }
    }
}
