//! Latent kernel characteristics that drive the analytic timing, power, and
//! counter models.
//!
//! The real system profiles opaque OpenMP/OpenCL kernels; the model only ever
//! sees `(time, power, counters)` tuples. Our substitute generates those
//! tuples from a small set of latent characteristics per kernel. The latents
//! are *not* visible to the model — they are the simulator's ground truth.

use crate::noise::{fnv1a_extend, FNV_OFFSET_BASIS};
use serde::{Deserialize, Serialize};

/// Latent description of one computational kernel at one input size.
///
/// All time-like quantities are expressed at the reference operating point
/// (one CPU thread at 3.7 GHz; GPU at 819 MHz) and scaled by the timing
/// models in [`crate::cpu`] and [`crate::gpu`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelCharacteristics {
    /// Kernel name, e.g. `CalcFBHourglassForce`.
    pub name: String,
    /// Benchmark the kernel belongs to (`LULESH`, `CoMD`, `SMC`, `LU`).
    pub benchmark: String,
    /// Input-size label (`Small`, `Medium`, `Large`).
    pub input: String,

    /// Single-thread compute time at the CPU reference frequency, seconds.
    /// This is the frequency-scalable portion of execution.
    pub compute_time_s: f64,
    /// DRAM-bound time with one thread, seconds. Per the leading-loads model
    /// this portion does not scale with core frequency.
    pub memory_time_s: f64,
    /// Fraction of compute work that parallelizes across CPU threads
    /// (Amdahl). The remainder is serial and also runs on the CPU when the
    /// kernel is offloaded to the GPU.
    pub parallel_fraction: f64,
    /// Thread count at which DRAM bandwidth saturates; memory time stops
    /// improving beyond this many threads.
    pub bw_saturation_threads: f64,
    /// Throughput lost by a core when it shares a module's front-end/FPU
    /// with its sibling (0 = none, 1 = total). FP-heavy kernels suffer more.
    pub module_sharing_penalty: f64,
    /// Per-extra-thread synchronization overhead fraction.
    pub sync_overhead: f64,

    /// Effective GPU compute speedup over one CPU core at reference
    /// frequencies, after occupancy and coalescing effects.
    pub gpu_speedup: f64,
    /// Branch-divergence factor in 0..1; reduces effective GPU throughput.
    pub branch_divergence: f64,
    /// GPU memory-bandwidth advantage over a single CPU thread's achievable
    /// bandwidth (the APU shares one memory controller, so this is modest).
    pub gpu_bw_advantage: f64,
    /// OpenCL kernel-launch plus driver time at the CPU reference frequency,
    /// seconds. Runs on the host CPU, hence scales with CPU frequency.
    pub launch_overhead_s: f64,

    /// Fraction of CPU instructions that are vector (packed SIMD) ops.
    pub vector_fraction: f64,
    /// Resident working set in MiB; drives cache and TLB miss rates.
    pub working_set_mb: f64,
    /// CPU switching-activity factor in roughly 0.2..0.6.
    pub cpu_activity: f64,
    /// GPU switching-activity factor in roughly 0.3..0.9.
    pub gpu_activity: f64,

    /// Fraction of whole-application time spent in this kernel, used for
    /// the iteration-weighted aggregation of Section V-D.
    pub weight: f64,
}

impl KernelCharacteristics {
    /// Total single-thread time at the reference operating point.
    pub(crate) fn reference_time_s(&self) -> f64 {
        self.compute_time_s + self.memory_time_s
    }

    /// Memory-boundedness in [0, 1]: fraction of reference time that is
    /// DRAM-bound.
    pub fn memory_boundedness(&self) -> f64 {
        let total = self.reference_time_s();
        if total <= 0.0 {
            return 0.0;
        }
        self.memory_time_s / total
    }

    /// The pieces [`id`](Self::id) joins.
    fn id_parts(&self) -> [&str; 5] {
        [&self.benchmark, "/", &self.input, "/", &self.name]
    }

    /// A stable identifier combining benchmark, input, and kernel name.
    pub fn id(&self) -> String {
        self.id_parts().concat()
    }

    /// Append [`id`](Self::id) to `out`, which allocates only if `out` has
    /// to grow.
    pub fn write_id(&self, out: &mut String) {
        self.id_parts().iter().for_each(|part| out.push_str(part));
    }

    /// `fnv1a` of [`id`](Self::id), computed without building the string:
    /// the kernel's address in the simulator's noise streams.
    pub(crate) fn id_hash(&self) -> u64 {
        self.id_parts().iter().fold(FNV_OFFSET_BASIS, |h, part| fnv1a_extend(h, part.as_bytes()))
    }

    /// Validate that every latent lies in its physically meaningful range.
    /// Returns a list of violations (empty when the kernel is well-formed).
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        let mut check = |ok: bool, msg: &str| {
            if !ok {
                errs.push(format!("{}: {msg}", self.id()));
            }
        };
        check(self.compute_time_s > 0.0, "compute_time_s must be positive");
        check(self.memory_time_s >= 0.0, "memory_time_s must be non-negative");
        check((0.0..=1.0).contains(&self.parallel_fraction), "parallel_fraction must be in [0,1]");
        check(self.bw_saturation_threads >= 1.0, "bw_saturation_threads must be >= 1");
        check(
            (0.0..=1.0).contains(&self.module_sharing_penalty),
            "module_sharing_penalty must be in [0,1]",
        );
        check(self.sync_overhead >= 0.0, "sync_overhead must be non-negative");
        check(self.gpu_speedup > 0.0, "gpu_speedup must be positive");
        check((0.0..=1.0).contains(&self.branch_divergence), "branch_divergence must be in [0,1]");
        check(self.gpu_bw_advantage > 0.0, "gpu_bw_advantage must be positive");
        check(self.launch_overhead_s >= 0.0, "launch_overhead_s must be non-negative");
        check((0.0..=1.0).contains(&self.vector_fraction), "vector_fraction must be in [0,1]");
        check(self.working_set_mb > 0.0, "working_set_mb must be positive");
        check((0.05..=1.0).contains(&self.cpu_activity), "cpu_activity must be in [0.05,1]");
        check((0.05..=1.0).contains(&self.gpu_activity), "gpu_activity must be in [0.05,1]");
        check(self.weight > 0.0, "weight must be positive");
        errs
    }
}

/// A convenient builder-style default for tests and examples: a balanced
/// kernel with moderate parallelism and GPU affinity.
impl Default for KernelCharacteristics {
    fn default() -> Self {
        Self {
            name: "synthetic".into(),
            benchmark: "Synthetic".into(),
            input: "Default".into(),
            compute_time_s: 0.010,
            memory_time_s: 0.004,
            parallel_fraction: 0.95,
            bw_saturation_threads: 3.0,
            module_sharing_penalty: 0.15,
            sync_overhead: 0.03,
            gpu_speedup: 8.0,
            branch_divergence: 0.1,
            gpu_bw_advantage: 1.3,
            launch_overhead_s: 0.000_4,
            vector_fraction: 0.3,
            working_set_mb: 24.0,
            cpu_activity: 0.40,
            gpu_activity: 0.65,
            weight: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_kernel_is_valid() {
        assert!(KernelCharacteristics::default().validate().is_empty());
    }

    #[test]
    fn memory_boundedness_is_fractional() {
        let k = KernelCharacteristics {
            compute_time_s: 0.006,
            memory_time_s: 0.002,
            ..Default::default()
        };
        assert!((k.memory_boundedness() - 0.25).abs() < 1e-12);
        assert!((k.reference_time_s() - 0.008).abs() < 1e-12);
    }

    #[test]
    fn memory_boundedness_handles_zero_time() {
        let k = KernelCharacteristics {
            compute_time_s: 1e-300,
            memory_time_s: 0.0,
            ..Default::default()
        };
        assert_eq!(k.memory_boundedness(), 0.0);
    }

    #[test]
    fn validate_flags_bad_fields() {
        let k = KernelCharacteristics {
            parallel_fraction: 1.5,
            gpu_speedup: -1.0,
            ..Default::default()
        };
        let errs = k.validate();
        assert_eq!(errs.len(), 2);
        assert!(errs.iter().any(|e| e.contains("parallel_fraction")));
        assert!(errs.iter().any(|e| e.contains("gpu_speedup")));
    }

    #[test]
    fn id_is_hierarchical() {
        let k = KernelCharacteristics::default();
        assert_eq!(k.id(), "Synthetic/Default/synthetic");
        assert_eq!(k.id_hash(), crate::noise::fnv1a(k.id().as_bytes()));
    }
}
