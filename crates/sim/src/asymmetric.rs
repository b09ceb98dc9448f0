//! Per-module (asymmetric) CPU P-states.
//!
//! Section IV-A: "P-states can be assigned per CU. However, since all
//! compute units on the chip share a voltage plane, the voltage across all
//! compute units is set by the CU with maximum frequency." The paper's
//! configuration space uses symmetric P-states only; this module models
//! the asymmetric ones so the choice can be *quantified*: on a shared
//! voltage plane, a slow module still pays the fast module's V², which
//! pushes asymmetric configurations inside the symmetric Pareto frontier.

use crate::config::NUM_CPU_CORES;
use crate::cpu::{cpu_time_at, shared_core_fraction};
use crate::kernel::KernelCharacteristics;
use crate::power::{PowerBreakdown, PowerCalibration};
use crate::pstate::{shared_plane_voltage, CpuPState};
use serde::{Deserialize, Serialize};

/// A CPU-device configuration with independent per-module P-states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AsymmetricCpuConfig {
    /// P-state of each dual-core module.
    module_pstates: [CpuPState; 2],
    /// Active threads (1..=4), packed compactly (module 0 first).
    threads: u8,
}

impl AsymmetricCpuConfig {
    /// Construct, validating the thread count.
    fn new(module_pstates: [CpuPState; 2], threads: u8) -> Self {
        assert!((1..=NUM_CPU_CORES).contains(&threads), "threads must be 1..=4");
        Self { module_pstates, threads }
    }

    /// Active cores per module under compact packing.
    fn cores_per_module(&self) -> [u8; 2] {
        [self.threads.min(2), self.threads.saturating_sub(2)]
    }

    /// Shared-plane voltage: set by the *faster* module among those with
    /// active cores.
    fn plane_voltage(&self) -> f64 {
        let cores = self.cores_per_module();
        let active: Vec<CpuPState> =
            (0..2).filter(|&m| cores[m] > 0).map(|m| self.module_pstates[m]).collect();
        shared_plane_voltage(&active)
    }

    /// True when both modules run the same P-state (the paper's space).
    pub fn is_symmetric(&self) -> bool {
        let cores = self.cores_per_module();
        cores[1] == 0 || self.module_pstates[0] == self.module_pstates[1]
    }

    /// All asymmetric-capable configurations: threads × P-state pairs.
    /// Symmetric members are included (they are the baseline).
    pub fn enumerate() -> Vec<AsymmetricCpuConfig> {
        let mut out = Vec::new();
        for threads in 1..=NUM_CPU_CORES {
            for p0 in CpuPState::all() {
                if threads <= 2 {
                    // Only module 0 is populated; module 1's state is
                    // irrelevant — park it at the floor.
                    out.push(AsymmetricCpuConfig::new([p0, CpuPState::MIN], threads));
                } else {
                    for p1 in CpuPState::all() {
                        out.push(AsymmetricCpuConfig::new([p0, p1], threads));
                    }
                }
            }
        }
        out
    }
}

/// Timing under asymmetric module frequencies.
///
/// Parallel compute throughput sums per-core frequency contributions
/// (derated by module sharing and synchronization, as in the symmetric
/// model); serial work runs on the fastest active core; DRAM time is
/// frequency-invariant.
pub fn asymmetric_cpu_time(
    kernel: &KernelCharacteristics,
    config: &AsymmetricCpuConfig,
) -> crate::cpu::CpuTiming {
    let cores = config.cores_per_module();
    let f_ref = crate::pstate::CPU_REF_FREQ_GHZ;

    // Aggregate compute throughput in reference-core units.
    let sharing_loss = kernel.module_sharing_penalty * shared_core_fraction(config.threads);
    let sync = 1.0 + kernel.sync_overhead * (f64::from(config.threads) - 1.0);
    let raw: f64 =
        (0..2).map(|m| f64::from(cores[m]) * config.module_pstates[m].freq_ghz() / f_ref).sum();
    let throughput = raw * (1.0 - sharing_loss) / sync;

    // Equivalent single frequency that yields the same throughput with
    // the same thread count lets us reuse the symmetric timing model for
    // the parallel part; serial work uses the fastest active core.
    let f_fast = (0..2)
        .filter(|&m| cores[m] > 0)
        .map(|m| config.module_pstates[m].freq_ghz())
        .fold(0.0, f64::max);

    let serial = kernel.compute_time_s * (1.0 - kernel.parallel_fraction) / (f_fast / f_ref);
    let parallel = kernel.compute_time_s * kernel.parallel_fraction / throughput.max(1e-9);
    let mem_speedup = f64::from(config.threads).min(kernel.bw_saturation_threads);
    let memory = kernel.memory_time_s / mem_speedup;

    let busy = serial + parallel;
    let total = busy + memory;
    let reference = cpu_time_at(kernel, f_ref, 1).total_s;
    crate::cpu::CpuTiming {
        total_s: total,
        busy_s: busy,
        memory_s: memory,
        speedup: reference / total,
    }
}

/// Average power under asymmetric module frequencies: every active core's
/// dynamic power uses the *shared plane voltage* but its own module
/// frequency; leakage follows the plane voltage.
pub fn asymmetric_cpu_power(
    kernel: &KernelCharacteristics,
    config: &AsymmetricCpuConfig,
    timing: &crate::cpu::CpuTiming,
    cal: &PowerCalibration,
) -> PowerBreakdown {
    let v = config.plane_voltage();
    let cores = config.cores_per_module();
    let busy_frac = if timing.total_s > 0.0 { timing.busy_s / timing.total_s } else { 0.0 };
    let activity = kernel.cpu_activity * (busy_frac + cal.mem_stall_activity * (1.0 - busy_frac));

    let mut dyn_w = 0.0;
    let mut leak_w = 0.0;
    let mut idle_cores = 0u8;
    let mut gated_modules = 0u8;
    #[allow(clippy::needless_range_loop)] // parallel-array indexing is the clear form here
    for m in 0..2 {
        if cores[m] == 0 {
            gated_modules += 1;
            continue;
        }
        let f = config.module_pstates[m].freq_ghz();
        dyn_w += cal.k_cpu_dyn * v * v * f * activity * f64::from(cores[m]);
        leak_w += cal.k_cpu_leak_module * v * v;
        idle_cores += 2 - cores[m];
    }
    let cpu_plane_w = dyn_w
        + leak_w
        + cal.cpu_idle_core_w * f64::from(idle_cores)
        + cal.cpu_gated_module_w * f64::from(gated_modules)
        + cal.cpu_uncore_w;

    // GPU parked + NB, exactly as in the symmetric CPU-device model.
    let mem_frac = if timing.total_s > 0.0 { timing.memory_s / timing.total_s } else { 0.0 };
    let sat = (f64::from(config.threads) / kernel.bw_saturation_threads).min(1.0);
    let gp = crate::pstate::GpuPState::MIN.point();
    let gpu_idle = cal.k_gpu_leak * gp.voltage_v * gp.voltage_v;
    let nb = cal.nb_base_w + cal.nb_dram_w * (mem_frac * sat).clamp(0.0, 1.0);

    PowerBreakdown { cpu_plane_w, gpu_nb_plane_w: gpu_idle + nb }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;

    fn kernel() -> KernelCharacteristics {
        KernelCharacteristics::default()
    }

    fn cal() -> PowerCalibration {
        PowerCalibration::default()
    }

    #[test]
    fn symmetric_members_match_the_symmetric_model() {
        let k = kernel();
        for threads in [1u8, 2, 3, 4] {
            for p in CpuPState::all() {
                let asym = AsymmetricCpuConfig::new([p, p], threads);
                assert!(asym.is_symmetric());
                let sym_cfg = Configuration::cpu(threads, p);
                let t_asym = asymmetric_cpu_time(&k, &asym);
                let t_sym = crate::cpu::cpu_time(&k, &sym_cfg);
                assert!(
                    (t_asym.total_s - t_sym.total_s).abs() < 1e-12,
                    "{threads}T {p:?}: {t_asym:?} vs {t_sym:?}"
                );
                let p_asym = asymmetric_cpu_power(&k, &asym, &t_asym, &cal());
                let p_sym = cal().cpu_run_power(&k, &sym_cfg, &t_sym);
                assert!((p_asym.total_w() - p_sym.total_w()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn plane_voltage_is_fastest_active_module() {
        let c = AsymmetricCpuConfig::new([CpuPState(1), CpuPState(5)], 4);
        assert_eq!(c.plane_voltage(), CpuPState(5).voltage_v());
        // With ≤2 threads only module 0 is active: its own voltage rules.
        let c = AsymmetricCpuConfig::new([CpuPState(1), CpuPState(5)], 2);
        assert_eq!(c.plane_voltage(), CpuPState(1).voltage_v());
    }

    #[test]
    fn asymmetric_sits_between_the_symmetric_extremes() {
        let k = kernel();
        let asym = AsymmetricCpuConfig::new([CpuPState(5), CpuPState(1)], 4);
        let t = asymmetric_cpu_time(&k, &asym);
        let fast = crate::cpu::cpu_time(&k, &Configuration::cpu(4, CpuPState(5)));
        let slow = crate::cpu::cpu_time(&k, &Configuration::cpu(4, CpuPState(1)));
        assert!(t.total_s > fast.total_s && t.total_s < slow.total_s);
    }

    #[test]
    fn shared_voltage_penalizes_asymmetry() {
        // The slow module pays the fast module's V²: an asymmetric config
        // draws more power than the throughput-equivalent blend of the
        // two symmetric configs.
        let k = KernelCharacteristics { memory_time_s: 0.0, ..kernel() };
        let hi = CpuPState(5);
        let lo = CpuPState(1);
        let asym = AsymmetricCpuConfig::new([hi, lo], 4);
        let t = asymmetric_cpu_time(&k, &asym);
        let p_asym = asymmetric_cpu_power(&k, &asym, &t, &cal()).total_w();

        // Perf-weighted blend of symmetric powers at the same V²f budget.
        let p_hi = cal()
            .cpu_run_power(
                &k,
                &Configuration::cpu(4, hi),
                &crate::cpu::cpu_time(&k, &Configuration::cpu(4, hi)),
            )
            .total_w();
        let p_lo = cal()
            .cpu_run_power(
                &k,
                &Configuration::cpu(4, lo),
                &crate::cpu::cpu_time(&k, &Configuration::cpu(4, lo)),
            )
            .total_w();
        // Same compute throughput: α·4f_hi + (1−α)·4f_lo = 2(f_hi+f_lo)
        // ⇒ α = 1/2 regardless of the frequencies.
        let blend = 0.5 * p_hi + 0.5 * p_lo;
        assert!(
            p_asym > blend,
            "asymmetric {p_asym:.2} W should exceed the throughput-blend {blend:.2} W"
        );
    }

    #[test]
    fn enumeration_counts() {
        // threads 1,2: 6 each; threads 3,4: 36 each → 12 + 72 = 84.
        let all = AsymmetricCpuConfig::enumerate();
        assert_eq!(all.len(), 84);
        let asym_only = all.iter().filter(|c| !c.is_symmetric()).count();
        assert_eq!(asym_only, 60, "30 asymmetric pairs × 2 thread counts");
    }

    #[test]
    #[should_panic(expected = "threads must be")]
    fn zero_threads_rejected() {
        let _ = AsymmetricCpuConfig::new([CpuPState::MIN, CpuPState::MIN], 0);
    }
}
