//! CPU timing model.
//!
//! Execution time is split into a frequency-scalable compute portion and a
//! DRAM-bound portion that is invariant under core DVFS (the leading-loads
//! observation the paper cites \[21\]–\[23\]). Thread scaling follows Amdahl's
//! law with three realistic corrections: per-thread synchronization
//! overhead, module sharing (two cores of a Piledriver module share the
//! front-end and FPU), and memory-bandwidth saturation.

use crate::config::Configuration;
use crate::family::{FamilyId, MachineFamily};
use crate::kernel::KernelCharacteristics;

/// Breakdown of a CPU execution, useful for counters and power activity.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CpuTiming {
    /// Total wall time, seconds.
    pub total_s: f64,
    /// Time the cores spend executing instructions (busy), seconds.
    pub busy_s: f64,
    /// Time stalled on DRAM, seconds.
    pub memory_s: f64,
    /// Effective parallel speedup achieved by the thread count.
    pub speedup: f64,
}

/// Fraction of active threads that share a module with a sibling thread,
/// assuming compact packing (cores 0,1 on module 0; 2,3 on module 1).
pub fn shared_core_fraction(threads: u8) -> f64 {
    match threads {
        0 | 1 => 0.0,
        2 => 1.0,
        3 => 2.0 / 3.0,
        _ => 1.0,
    }
}

/// Effective compute throughput (in units of single cores) of `threads`
/// threads for a given kernel on `family`: Amdahl-style scaling damped by
/// module sharing and synchronization overhead. Only physically backed
/// threads contribute throughput (oversubscription adds nothing),
/// module-sharing loss follows the family's topology, and synchronization
/// overhead follows the *software* thread count — oversubscribed threads
/// still synchronize.
pub fn effective_compute_threads_on(
    family: &MachineFamily,
    kernel: &KernelCharacteristics,
    threads: u8,
) -> f64 {
    let t = f64::from(threads);
    let phys = f64::from(family.physical_threads(threads));
    let sharing_loss = kernel.module_sharing_penalty * family.shared_core_fraction(threads);
    let sync = 1.0 + kernel.sync_overhead * (t - 1.0);
    (phys * (1.0 - sharing_loss)) / sync
}

/// Wall time of one kernel iteration at a CPU configuration, without noise.
pub fn cpu_time(kernel: &KernelCharacteristics, config: &Configuration) -> CpuTiming {
    cpu_time_on(FamilyId::Trinity.descriptor(), kernel, config)
}

/// [`cpu_time`] on an explicit machine family.
pub fn cpu_time_on(
    family: &MachineFamily,
    kernel: &KernelCharacteristics,
    config: &Configuration,
) -> CpuTiming {
    cpu_time_at_on(family, kernel, family.cpu_point(config.cpu_pstate).freq_ghz, config.threads)
}

/// Wall time at an arbitrary core frequency (GHz) — the P-state table does
/// not constrain this entry point, which the opportunistic-overclocking
/// model uses for boost-blended effective frequencies.
pub fn cpu_time_at(kernel: &KernelCharacteristics, freq_ghz: f64, threads: u8) -> CpuTiming {
    cpu_time_at_on(FamilyId::Trinity.descriptor(), kernel, freq_ghz, threads)
}

/// [`cpu_time_at`] on an explicit machine family. Kernel latents stay
/// anchored at the *Trinity* single-thread reference; the family reshapes
/// the response through its frequency anchor, IPC, core topology, and
/// memory bandwidth. With the Trinity descriptor every scale factor is a
/// bitwise-neutral `× 1.0` in unchanged operation order.
pub fn cpu_time_at_on(
    family: &MachineFamily,
    kernel: &KernelCharacteristics,
    freq_ghz: f64,
    threads: u8,
) -> CpuTiming {
    let f_rel = (freq_ghz / family.cpu_ref_freq_ghz()) * family.ipc_scale;

    let serial = kernel.compute_time_s * (1.0 - kernel.parallel_fraction) / f_rel;

    let eff = effective_compute_threads_on(family, kernel, threads)
        .max(1.0 / f64::from(threads).max(1.0));
    let parallel = kernel.compute_time_s * kernel.parallel_fraction / (f_rel * eff.max(1e-9));

    // DRAM time: parallelizes until bandwidth saturates (only physical
    // threads issue memory streams), unaffected by DVFS.
    let mem_speedup = f64::from(family.physical_threads(threads)).min(kernel.bw_saturation_threads)
        * family.mem_bw_scale;
    let memory = kernel.memory_time_s / mem_speedup;

    let busy = serial + parallel;
    let total = busy + memory;
    let single_thread_ref =
        kernel.compute_time_s / f_rel + kernel.memory_time_s / family.mem_bw_scale;

    CpuTiming { total_s: total, busy_s: busy, memory_s: memory, speedup: single_thread_ref / total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pstate::CpuPState;

    fn kernel() -> KernelCharacteristics {
        KernelCharacteristics::default()
    }

    #[test]
    fn reference_config_matches_reference_time() {
        let k = kernel();
        let t = cpu_time(&k, &Configuration::cpu(1, CpuPState::MAX));
        assert!((t.total_s - k.reference_time_s()).abs() < 1e-12);
        assert!((t.speedup - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_decreases_with_frequency() {
        let k = kernel();
        let mut prev = f64::INFINITY;
        for p in CpuPState::all() {
            let t = cpu_time(&k, &Configuration::cpu(2, p)).total_s;
            assert!(t < prev, "time must strictly decrease with frequency");
            prev = t;
        }
    }

    #[test]
    fn time_decreases_with_threads_for_parallel_kernel() {
        let k = kernel();
        let mut prev = f64::INFINITY;
        for threads in 1..=4 {
            let t = cpu_time(&k, &Configuration::cpu(threads, CpuPState::MAX)).total_s;
            assert!(t < prev, "parallel kernel must speed up with threads");
            prev = t;
        }
    }

    #[test]
    fn serial_kernel_does_not_benefit_from_threads() {
        let k = KernelCharacteristics { parallel_fraction: 0.0, memory_time_s: 0.0, ..kernel() };
        let t1 = cpu_time(&k, &Configuration::cpu(1, CpuPState::MAX)).total_s;
        let t4 = cpu_time(&k, &Configuration::cpu(4, CpuPState::MAX)).total_s;
        assert!((t1 - t4).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_kernel_is_dvfs_insensitive() {
        let k = KernelCharacteristics { compute_time_s: 1e-6, memory_time_s: 0.010, ..kernel() };
        let slow = cpu_time(&k, &Configuration::cpu(4, CpuPState::MIN)).total_s;
        let fast = cpu_time(&k, &Configuration::cpu(4, CpuPState::MAX)).total_s;
        // Less than 1% improvement from a 2.6x frequency increase.
        assert!((slow - fast) / slow < 0.01);
    }

    #[test]
    fn bandwidth_saturation_caps_memory_scaling() {
        let k = KernelCharacteristics {
            compute_time_s: 1e-9,
            memory_time_s: 0.010,
            bw_saturation_threads: 2.0,
            ..kernel()
        };
        let t2 = cpu_time(&k, &Configuration::cpu(2, CpuPState::MAX)).total_s;
        let t4 = cpu_time(&k, &Configuration::cpu(4, CpuPState::MAX)).total_s;
        assert!((t2 - t4).abs() / t2 < 1e-6, "no benefit beyond saturation");
    }

    #[test]
    fn module_sharing_hurts_two_threads() {
        let fp_heavy = KernelCharacteristics {
            module_sharing_penalty: 0.4,
            sync_overhead: 0.0,
            memory_time_s: 0.0,
            parallel_fraction: 1.0,
            ..kernel()
        };
        let t1 = cpu_time(&fp_heavy, &Configuration::cpu(1, CpuPState::MAX)).total_s;
        let t2 = cpu_time(&fp_heavy, &Configuration::cpu(2, CpuPState::MAX)).total_s;
        let speedup = t1 / t2;
        assert!(speedup < 1.5, "sharing-penalized speedup {speedup} should be well below 2");
        assert!(speedup > 1.0, "two threads still beat one");
    }

    #[test]
    fn shared_core_fraction_is_correct() {
        assert_eq!(shared_core_fraction(1), 0.0);
        assert_eq!(shared_core_fraction(2), 1.0);
        assert!((shared_core_fraction(3) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(shared_core_fraction(4), 1.0);
    }

    #[test]
    fn busy_plus_memory_equals_total() {
        let k = kernel();
        for threads in 1..=4 {
            let t = cpu_time(&k, &Configuration::cpu(threads, CpuPState(2)));
            assert!((t.busy_s + t.memory_s - t.total_s).abs() < 1e-15);
        }
    }

    #[test]
    fn speedup_is_relative_to_one_thread_same_frequency() {
        let k = kernel();
        let cfg = Configuration::cpu(4, CpuPState(1));
        let t4 = cpu_time(&k, &cfg);
        let t1 = cpu_time(&k, &Configuration::cpu(1, CpuPState(1)));
        assert!((t4.speedup - t1.total_s / t4.total_s).abs() < 1e-12);
    }
}
