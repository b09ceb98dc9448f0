//! Power model for the two Trinity power planes.
//!
//! The simulated microcontroller (like the real one, Section III-B) reports
//! two domains: the CPU cores, and the northbridge + GPU together. Each
//! plane combines dynamic power `k · V² · f · activity` with voltage-
//! dependent leakage; the northbridge adds a DRAM-traffic component so
//! memory-bound kernels draw visibly different power than compute-bound
//! ones at the same operating point.

use crate::config::{Configuration, Device};
use crate::cpu::CpuTiming;
use crate::family::{FamilyId, MachineFamily};
use crate::gpu::GpuTiming;
use crate::kernel::KernelCharacteristics;
use serde::{Deserialize, Serialize};

/// Tunable calibration constants for the power model. The defaults are
/// calibrated so that the configuration space spans roughly the paper's
/// 10–60 W envelope, with CPU configurations reaching the lowest power
/// levels and the best-kernel spread matching the reported 19–55 W.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerCalibration {
    /// CPU dynamic power coefficient, W / (V² · GHz) per active core.
    pub k_cpu_dyn: f64,
    /// CPU leakage per powered module, W / V².
    pub k_cpu_leak_module: f64,
    /// Idle core parked inside a powered module, W.
    pub cpu_idle_core_w: f64,
    /// Fully power-gated module, W.
    pub cpu_gated_module_w: f64,
    /// CPU-plane uncore (shared front-end clocks etc.), W.
    pub cpu_uncore_w: f64,
    /// GPU dynamic power coefficient, W / (V² · GHz) for the whole array.
    pub k_gpu_dyn: f64,
    /// GPU leakage, W / V².
    pub k_gpu_leak: f64,
    /// Always-on cost of an *active* GPU (ungated array, clock tree,
    /// command processor), W, scaled by utilization. This is why Trinity's
    /// slowest GPU configuration still draws far more than a one-thread
    /// CPU configuration (paper Table I: 24.2 W vs 12.5 W) while GPU DVFS
    /// changes total power only mildly.
    pub gpu_active_base_w: f64,
    /// Northbridge base power, W.
    pub nb_base_w: f64,
    /// Additional northbridge power at full DRAM utilization, W.
    pub nb_dram_w: f64,
    /// Relative switching activity of a core while stalled on memory.
    pub mem_stall_activity: f64,
    /// Relative activity of the host core polling for GPU completion.
    pub gpu_host_poll_activity: f64,
}

impl Default for PowerCalibration {
    fn default() -> Self {
        Self {
            k_cpu_dyn: 4.0,
            k_cpu_leak_module: 1.6,
            cpu_idle_core_w: 0.2,
            cpu_gated_module_w: 0.3,
            cpu_uncore_w: 1.8,
            k_gpu_dyn: 26.0,
            k_gpu_leak: 1.8,
            gpu_active_base_w: 7.5,
            nb_base_w: 3.0,
            nb_dram_w: 6.0,
            mem_stall_activity: 0.35,
            gpu_host_poll_activity: 0.10,
        }
    }
}

/// Average power of one kernel execution, split by plane, in watts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerBreakdown {
    /// CPU-core power plane, W.
    pub cpu_plane_w: f64,
    /// Northbridge + GPU power plane, W.
    pub gpu_nb_plane_w: f64,
}

impl PowerBreakdown {
    /// Total package power, W.
    #[inline]
    pub fn total_w(&self) -> f64 {
        self.cpu_plane_w + self.gpu_nb_plane_w
    }
}

impl PowerCalibration {
    /// CPU-plane power for `active` cores running at `v`/`f` with the given
    /// effective activity, plus idle-core and gated-module overheads, on
    /// `family`'s core/module topology. Threads beyond the family's
    /// physical core count draw nothing extra — they time-share cores that
    /// are already burning.
    fn cpu_plane(
        &self,
        family: &MachineFamily,
        active_cores: u8,
        v: f64,
        f: f64,
        activity: f64,
    ) -> f64 {
        let per_module = family.cores_per_module.max(1);
        let phys = family.physical_threads(active_cores);
        let active_modules = phys.div_ceil(per_module).max(1);
        let gated_modules = family.total_modules().saturating_sub(active_modules);
        let idle_cores = active_modules * per_module - phys;

        let dyn_w = self.k_cpu_dyn * v * v * f * activity * f64::from(phys);
        let leak_w = self.k_cpu_leak_module * v * v * f64::from(active_modules);
        dyn_w
            + leak_w
            + self.cpu_idle_core_w * f64::from(idle_cores)
            + self.cpu_gated_module_w * f64::from(gated_modules)
            + self.cpu_uncore_w
    }

    /// DRAM-saturation share of `threads` software threads on `family`:
    /// only physically backed threads issue memory streams.
    fn dram_sat(family: &MachineFamily, kernel: &KernelCharacteristics, threads: u8) -> f64 {
        (f64::from(family.physical_threads(threads)) / kernel.bw_saturation_threads).min(1.0)
    }

    /// GPU contribution to the NB+GPU plane at utilization `util`.
    fn gpu_component(&self, v: f64, f: f64, activity: f64, util: f64) -> f64 {
        self.k_gpu_dyn * v * v * f * activity * util
            + self.gpu_active_base_w * util
            + self.k_gpu_leak * v * v
    }

    /// Northbridge power given DRAM utilization in [0, 1].
    fn nb_component(&self, dram_util: f64) -> f64 {
        self.nb_base_w + self.nb_dram_w * dram_util.clamp(0.0, 1.0)
    }

    /// Per-phase powers of a CPU-device execution on `family`: the
    /// compute-busy phase and the DRAM-stall phase. Their time-weighted
    /// mean over `(busy_s, memory_s)` equals
    /// [`PowerCalibration::cpu_run_power`] exactly — the phase
    /// decomposition refines, never contradicts, the average model.
    pub fn cpu_phase_powers_on(
        &self,
        family: &MachineFamily,
        kernel: &KernelCharacteristics,
        config: &Configuration,
    ) -> (PowerBreakdown, PowerBreakdown) {
        debug_assert_eq!(config.device, Device::Cpu);
        let p = family.cpu_point(config.cpu_pstate);
        let gp = family.gpu_point(config.gpu_pstate);
        let gpu_idle = self.k_gpu_leak * gp.voltage_v * gp.voltage_v;
        let sat = Self::dram_sat(family, kernel, config.threads);

        let busy = PowerBreakdown {
            cpu_plane_w: self.cpu_plane(
                family,
                config.threads,
                p.voltage_v,
                p.freq_ghz,
                kernel.cpu_activity,
            ),
            gpu_nb_plane_w: gpu_idle + self.nb_component(0.0),
        };
        let stall = PowerBreakdown {
            cpu_plane_w: self.cpu_plane(
                family,
                config.threads,
                p.voltage_v,
                p.freq_ghz,
                kernel.cpu_activity * self.mem_stall_activity,
            ),
            gpu_nb_plane_w: gpu_idle + self.nb_component(sat),
        };
        (busy, stall)
    }

    /// Per-phase powers of a GPU-device execution on `family`: the host
    /// phase (serial portion + launch, GPU idle) and the device phase (GPU
    /// busy, host polling). Their time-weighted mean over
    /// `(host_s, device_s)` equals [`PowerCalibration::gpu_run_power`]
    /// exactly.
    pub fn gpu_phase_powers_on(
        &self,
        family: &MachineFamily,
        kernel: &KernelCharacteristics,
        config: &Configuration,
        timing: &GpuTiming,
    ) -> (PowerBreakdown, PowerBreakdown) {
        debug_assert_eq!(config.device, Device::Gpu);
        let cp = family.cpu_point(config.cpu_pstate);
        let gp = family.gpu_point(config.gpu_pstate);

        let mem_share = if timing.device_s > 0.0 {
            (timing.device_memory_s / timing.device_s).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let gpu_activity =
            kernel.gpu_activity * ((1.0 - mem_share) + self.mem_stall_activity * mem_share);

        let host = PowerBreakdown {
            cpu_plane_w: self.cpu_plane(family, 1, cp.voltage_v, cp.freq_ghz, kernel.cpu_activity),
            gpu_nb_plane_w: self.gpu_component(gp.voltage_v, gp.freq_ghz, gpu_activity, 0.0)
                + self.nb_component(0.0),
        };
        let device_dram = if timing.device_s > 0.0 {
            (timing.device_memory_s / timing.device_s * kernel.gpu_bw_advantage).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let device = PowerBreakdown {
            cpu_plane_w: self.cpu_plane(
                family,
                1,
                cp.voltage_v,
                cp.freq_ghz,
                self.gpu_host_poll_activity,
            ),
            gpu_nb_plane_w: self.gpu_component(gp.voltage_v, gp.freq_ghz, gpu_activity, 1.0)
                + self.nb_component(device_dram),
        };
        (host, device)
    }

    /// Average power of a CPU-device execution.
    pub fn cpu_run_power(
        &self,
        kernel: &KernelCharacteristics,
        config: &Configuration,
        timing: &CpuTiming,
    ) -> PowerBreakdown {
        self.cpu_run_power_on(FamilyId::Trinity.descriptor(), kernel, config, timing)
    }

    /// [`PowerCalibration::cpu_run_power`] on an explicit family.
    pub fn cpu_run_power_on(
        &self,
        family: &MachineFamily,
        kernel: &KernelCharacteristics,
        config: &Configuration,
        timing: &CpuTiming,
    ) -> PowerBreakdown {
        debug_assert_eq!(config.device, Device::Cpu);
        let p = family.cpu_point(config.cpu_pstate);

        let busy_frac = if timing.total_s > 0.0 { timing.busy_s / timing.total_s } else { 0.0 };
        let activity =
            kernel.cpu_activity * (busy_frac + self.mem_stall_activity * (1.0 - busy_frac));
        let cpu_plane_w = self.cpu_plane(family, config.threads, p.voltage_v, p.freq_ghz, activity);

        // DRAM utilization: fraction of time on memory, scaled by how close
        // the thread count is to saturating bandwidth.
        let mem_frac = if timing.total_s > 0.0 { timing.memory_s / timing.total_s } else { 0.0 };
        let sat = Self::dram_sat(family, kernel, config.threads);
        let dram_util = mem_frac * sat;

        // GPU parked at its minimum P-state: leakage only.
        let gp = family.gpu_point(config.gpu_pstate);
        let gpu_idle = self.k_gpu_leak * gp.voltage_v * gp.voltage_v;

        PowerBreakdown { cpu_plane_w, gpu_nb_plane_w: gpu_idle + self.nb_component(dram_util) }
    }

    /// Average power of a GPU-device execution.
    pub fn gpu_run_power(
        &self,
        kernel: &KernelCharacteristics,
        config: &Configuration,
        timing: &GpuTiming,
    ) -> PowerBreakdown {
        self.gpu_run_power_on(FamilyId::Trinity.descriptor(), kernel, config, timing)
    }

    /// [`PowerCalibration::gpu_run_power`] on an explicit family.
    pub fn gpu_run_power_on(
        &self,
        family: &MachineFamily,
        kernel: &KernelCharacteristics,
        config: &Configuration,
        timing: &GpuTiming,
    ) -> PowerBreakdown {
        debug_assert_eq!(config.device, Device::Gpu);
        let cp = family.cpu_point(config.cpu_pstate);
        let gp = family.gpu_point(config.gpu_pstate);
        let total = timing.total_s.max(1e-12);

        // Host core: busy for the host fraction, polling otherwise.
        let host_frac = (timing.host_s / total).clamp(0.0, 1.0);
        let host_activity =
            kernel.cpu_activity * host_frac + self.gpu_host_poll_activity * (1.0 - host_frac);
        let cpu_plane_w = self.cpu_plane(family, 1, cp.voltage_v, cp.freq_ghz, host_activity);

        // GPU: active for the device fraction; activity derated when the
        // device is memory-stalled.
        let util = (timing.device_s / total).clamp(0.0, 1.0);
        let mem_share = if timing.device_s > 0.0 {
            (timing.device_memory_s / timing.device_s).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let gpu_activity =
            kernel.gpu_activity * ((1.0 - mem_share) + self.mem_stall_activity * mem_share);
        let gpu_w = self.gpu_component(gp.voltage_v, gp.freq_ghz, gpu_activity, util);

        // The GPU saturates DRAM more readily than CPU threads. The
        // instantaneous utilization (clamped to the channel's capacity)
        // applies during the device phase only, so the average weights it
        // by the device-phase share — keeping this average model exactly
        // the time-mean of `gpu_phase_powers_on`.
        let device_dram = if timing.device_s > 0.0 {
            (timing.device_memory_s / timing.device_s * kernel.gpu_bw_advantage).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let dram_util = (timing.device_s / total).clamp(0.0, 1.0) * device_dram;

        PowerBreakdown { cpu_plane_w, gpu_nb_plane_w: gpu_w + self.nb_component(dram_util) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::cpu_time;
    use crate::gpu::gpu_time;
    use crate::pstate::{CpuPState, GpuPState};

    fn kernel() -> KernelCharacteristics {
        KernelCharacteristics::default()
    }

    fn cpu_power(threads: u8, p: CpuPState) -> PowerBreakdown {
        let k = kernel();
        let cfg = Configuration::cpu(threads, p);
        let t = cpu_time(&k, &cfg);
        PowerCalibration::default().cpu_run_power(&k, &cfg, &t)
    }

    fn gpu_power(gp: GpuPState, cp: CpuPState) -> PowerBreakdown {
        let k = kernel();
        let cfg = Configuration::gpu(gp, cp);
        let t = gpu_time(&k, &cfg);
        PowerCalibration::default().gpu_run_power(&k, &cfg, &t)
    }

    #[test]
    fn cpu_power_increases_with_frequency() {
        let mut prev = 0.0;
        for p in CpuPState::all() {
            let w = cpu_power(4, p).total_w();
            assert!(w > prev, "power must increase with frequency");
            prev = w;
        }
    }

    #[test]
    fn cpu_power_increases_with_threads() {
        let mut prev = 0.0;
        for threads in 1..=4 {
            let w = cpu_power(threads, CpuPState::MAX).total_w();
            assert!(w > prev, "power must increase with threads");
            prev = w;
        }
    }

    #[test]
    fn gpu_power_increases_with_gpu_frequency() {
        let mut prev = 0.0;
        for gp in GpuPState::all() {
            let w = gpu_power(gp, CpuPState::MIN).total_w();
            assert!(w > prev);
            prev = w;
        }
    }

    #[test]
    fn gpu_run_power_increases_with_host_frequency() {
        let mut prev = 0.0;
        for cp in CpuPState::all() {
            let w = gpu_power(GpuPState::MAX, cp).total_w();
            assert!(w > prev, "host DVFS must show up in package power");
            prev = w;
        }
    }

    #[test]
    fn power_envelope_is_plausible() {
        // The whole configuration space should live within the paper's
        // observed 8–60 W envelope for a typical kernel.
        let min = cpu_power(1, CpuPState::MIN).total_w();
        let max = cpu_power(4, CpuPState::MAX).total_w();
        assert!(min > 5.0 && min < 16.0, "min power {min} out of envelope");
        assert!(max > 20.0 && max < 60.0, "max power {max} out of envelope");
    }

    #[test]
    fn cpu_min_configs_reach_lower_power_than_gpu_configs() {
        // Paper Figure 2: "the CPU is able to reach lower power limits".
        let cpu_min = cpu_power(1, CpuPState::MIN).total_w();
        let gpu_min = gpu_power(GpuPState::MIN, CpuPState::MIN).total_w();
        assert!(cpu_min < gpu_min, "cpu {cpu_min} vs gpu {gpu_min}");
    }

    #[test]
    fn planes_are_positive_and_sum() {
        let p = gpu_power(GpuPState(1), CpuPState(2));
        assert!(p.cpu_plane_w > 0.0);
        assert!(p.gpu_nb_plane_w > 0.0);
        assert!((p.total_w() - (p.cpu_plane_w + p.gpu_nb_plane_w)).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_kernel_raises_nb_power() {
        let cal = PowerCalibration::default();
        let compute = KernelCharacteristics { memory_time_s: 0.0, ..kernel() };
        let membound =
            KernelCharacteristics { compute_time_s: 0.001, memory_time_s: 0.02, ..kernel() };
        let cfg = Configuration::cpu(4, CpuPState::MAX);
        let p_c = cal.cpu_run_power(&compute, &cfg, &cpu_time(&compute, &cfg));
        let p_m = cal.cpu_run_power(&membound, &cfg, &cpu_time(&membound, &cfg));
        assert!(p_m.gpu_nb_plane_w > p_c.gpu_nb_plane_w, "DRAM traffic must cost NB power");
        assert!(p_m.cpu_plane_w < p_c.cpu_plane_w, "stalled cores must draw less");
    }

    #[test]
    fn higher_activity_kernel_draws_more() {
        let cal = PowerCalibration::default();
        let lo = KernelCharacteristics { cpu_activity: 0.25, ..kernel() };
        let hi = KernelCharacteristics { cpu_activity: 0.55, ..kernel() };
        let cfg = Configuration::cpu(4, CpuPState::MAX);
        let p_lo = cal.cpu_run_power(&lo, &cfg, &cpu_time(&lo, &cfg));
        let p_hi = cal.cpu_run_power(&hi, &cfg, &cpu_time(&hi, &cfg));
        assert!(p_hi.total_w() > p_lo.total_w());
    }

    #[test]
    fn gpu_idle_when_parked() {
        // A CPU run's GPU/NB plane should be much smaller than an active
        // GPU run's at max GPU P-state.
        let parked = cpu_power(4, CpuPState::MAX).gpu_nb_plane_w;
        let active = gpu_power(GpuPState::MAX, CpuPState::MIN).gpu_nb_plane_w;
        assert!(active > parked + 5.0, "active {active} vs parked {parked}");
    }
}
