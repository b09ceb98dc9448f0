//! GPU timing model.
//!
//! A GPU execution consists of host-side work (the kernel's serial portion
//! plus OpenCL launch/driver overhead, both of which run on the CPU and
//! scale with the *CPU* frequency — this is why the paper's Pareto frontiers
//! contain GPU configurations at several CPU frequencies) and device-side
//! work. Device time is the max of a compute phase (scales with GPU
//! frequency, derated by branch divergence) and a memory phase (bound by the
//! shared memory controller, insensitive to GPU DVFS). The max models the
//! paper's observed plateau: memory-bound kernels gain nothing from the top
//! GPU P-state.

use crate::config::Configuration;
use crate::family::MachineFamily;
use crate::kernel::KernelCharacteristics;

/// Breakdown of a GPU execution.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GpuTiming {
    /// Total wall time, seconds.
    pub(crate) total_s: f64,
    /// Host (CPU) time: serial portion + launch/driver overhead, seconds.
    pub host_s: f64,
    /// Device compute-limited time, seconds.
    device_compute_s: f64,
    /// Device memory-limited time, seconds.
    pub(crate) device_memory_s: f64,
    /// Device time actually accounted (max of compute/memory with overlap).
    pub device_s: f64,
}

/// Fraction of the shorter device phase that is *not* hidden under the
/// longer one. A small non-overlap keeps the plateau soft, as on real
/// hardware where compute and memory phases interleave imperfectly.
const NON_OVERLAP: f64 = 0.12;

/// Effective GPU compute speedup over one reference-frequency CPU core,
/// after branch-divergence derating.
fn effective_gpu_speedup(kernel: &KernelCharacteristics) -> f64 {
    kernel.gpu_speedup * (1.0 - 0.75 * kernel.branch_divergence)
}

/// Wall time of one kernel iteration at a GPU configuration, without noise.
/// The Trinity form the timing, power and trace tests measure.
#[cfg(test)]
pub(crate) fn gpu_time(kernel: &KernelCharacteristics, config: &Configuration) -> GpuTiming {
    gpu_time_on(crate::family::FamilyId::Trinity.descriptor(), kernel, config)
}

/// `gpu_time` on an explicit machine family. The family reshapes the
/// device through its GPU array width and memory bandwidth; an attached
/// `crate::family::Accelerator` further scales regular-kernel speedup,
/// punishes divergence, and adds a fixed offload cost to the host phase.
/// With the Trinity descriptor every hook is a bitwise-neutral `× 1.0`.
pub fn gpu_time_on(
    family: &MachineFamily,
    kernel: &KernelCharacteristics,
    config: &Configuration,
) -> GpuTiming {
    let fc_rel = (family.cpu_point(config.cpu_pstate).freq_ghz / family.cpu_ref_freq_ghz())
        * family.ipc_scale;
    let fg_rel = family.gpu_point(config.gpu_pstate).freq_ghz / family.gpu_ref_freq_ghz();

    // Host work: the Amdahl-serial part cannot be offloaded, and launching
    // the kernel costs driver time; both run on the CPU.
    let serial = kernel.compute_time_s * (1.0 - kernel.parallel_fraction) / fc_rel;
    let mut launch = kernel.launch_overhead_s / fc_rel;

    // Device compute: parallel work accelerated by the (derated) GPU
    // speedup at the reference GPU frequency, scaled by GPU DVFS and the
    // family's array width.
    let mut raw_speedup = effective_gpu_speedup(kernel) * family.gpu_width_scale;
    if let Some(acc) = family.accelerator {
        raw_speedup *=
            acc.speedup_scale * (1.0 - acc.divergence_penalty * kernel.branch_divergence).max(0.05);
        launch += acc.offload_overhead_s / fc_rel;
    }
    let host = serial + launch;
    let speedup = raw_speedup.max(1e-3);
    let compute = kernel.compute_time_s * kernel.parallel_fraction / (speedup * fg_rel);

    // Device memory: shares the APU memory controller with the CPU; GPU
    // coalescing gives a modest bandwidth advantage. Insensitive to GPU
    // core DVFS.
    let memory = kernel.memory_time_s / (kernel.gpu_bw_advantage.max(1e-3) * family.mem_bw_scale);

    let device = compute.max(memory) + NON_OVERLAP * compute.min(memory);

    GpuTiming {
        total_s: host + device,
        host_s: host,
        device_compute_s: compute,
        device_memory_s: memory,
        device_s: device,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pstate::{CpuPState, GpuPState};

    fn kernel() -> KernelCharacteristics {
        KernelCharacteristics::default()
    }

    #[test]
    fn time_decreases_with_gpu_frequency_for_compute_bound() {
        let k = KernelCharacteristics { memory_time_s: 0.0, ..kernel() };
        let mut prev = f64::INFINITY;
        for gp in GpuPState::all() {
            let t = gpu_time(&k, &Configuration::gpu(gp, CpuPState::MAX)).total_s;
            assert!(t < prev);
            prev = t;
        }
    }

    #[test]
    fn memory_bound_kernel_plateaus_with_gpu_frequency() {
        let k = KernelCharacteristics { compute_time_s: 0.001, memory_time_s: 0.020, ..kernel() };
        let mid = gpu_time(&k, &Configuration::gpu(GpuPState(1), CpuPState::MAX)).total_s;
        let max = gpu_time(&k, &Configuration::gpu(GpuPState(2), CpuPState::MAX)).total_s;
        // Nearly no benefit from the top P-state once memory-bound.
        assert!((mid - max) / mid < 0.02, "mid={mid} max={max}");
    }

    #[test]
    fn host_time_scales_with_cpu_frequency() {
        let k = kernel();
        let slow = gpu_time(&k, &Configuration::gpu(GpuPState::MAX, CpuPState::MIN));
        let fast = gpu_time(&k, &Configuration::gpu(GpuPState::MAX, CpuPState::MAX));
        let ratio = slow.host_s / fast.host_s;
        let f_ratio = CpuPState::MAX.freq_ghz() / CpuPState::MIN.freq_ghz();
        assert!((ratio - f_ratio).abs() < 1e-9, "host time scales inversely with CPU f");
        assert!(slow.total_s > fast.total_s);
    }

    #[test]
    fn device_time_unaffected_by_cpu_frequency() {
        let k = kernel();
        let a = gpu_time(&k, &Configuration::gpu(GpuPState(1), CpuPState::MIN));
        let b = gpu_time(&k, &Configuration::gpu(GpuPState(1), CpuPState::MAX));
        assert!((a.device_s - b.device_s).abs() < 1e-15);
    }

    #[test]
    fn branch_divergence_slows_gpu() {
        let smooth = KernelCharacteristics { branch_divergence: 0.0, ..kernel() };
        let divergent = KernelCharacteristics { branch_divergence: 0.8, ..kernel() };
        let cfg = Configuration::gpu(GpuPState::MAX, CpuPState::MAX);
        assert!(gpu_time(&divergent, &cfg).total_s > gpu_time(&smooth, &cfg).total_s);
    }

    #[test]
    fn gpu_beats_cpu_for_friendly_kernel() {
        let k = KernelCharacteristics {
            gpu_speedup: 12.0,
            branch_divergence: 0.0,
            parallel_fraction: 0.99,
            ..kernel()
        };
        let g = gpu_time(&k, &Configuration::gpu(GpuPState::MAX, CpuPState::MAX)).total_s;
        let c = crate::cpu::cpu_time(&k, &Configuration::cpu(4, CpuPState::MAX)).total_s;
        assert!(g < c, "GPU ({g}) should beat 4-thread CPU ({c}) on a friendly kernel");
    }

    #[test]
    fn cpu_beats_gpu_for_hostile_kernel() {
        let k = KernelCharacteristics {
            gpu_speedup: 2.0,
            branch_divergence: 0.9,
            parallel_fraction: 0.7,
            launch_overhead_s: 0.002,
            ..kernel()
        };
        let g = gpu_time(&k, &Configuration::gpu(GpuPState::MAX, CpuPState::MAX)).total_s;
        let c = crate::cpu::cpu_time(&k, &Configuration::cpu(4, CpuPState::MAX)).total_s;
        assert!(c < g, "CPU ({c}) should beat GPU ({g}) on a divergent kernel");
    }

    #[test]
    fn timing_breakdown_is_consistent() {
        let k = kernel();
        let t = gpu_time(&k, &Configuration::gpu(GpuPState(1), CpuPState(2)));
        assert!((t.host_s + t.device_s - t.total_s).abs() < 1e-15);
        assert!(t.device_s >= t.device_compute_s.max(t.device_memory_s));
    }

    #[test]
    fn effective_speedup_deration() {
        let k = KernelCharacteristics { gpu_speedup: 10.0, branch_divergence: 1.0, ..kernel() };
        assert!((effective_gpu_speedup(&k) - 2.5).abs() < 1e-12);
    }
}
