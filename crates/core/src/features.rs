//! Feature construction: regression design rows for configurations and
//! classification features for kernels.
//!
//! The regression models of Section III-B take "the configuration variables
//! (frequency, number of cores, etc.) and their first-order interactions"
//! as inputs. Because power is physically `∝ V²·f`, the voltage implied by
//! each P-state is part of the configuration variables; including the
//! `V²·f` product term keeps the *linear* model family while letting it
//! rank DVFS states correctly.
//!
//! Configurations on the two devices have different knobs, so each cluster
//! trains separate CPU and GPU models; these builders produce the
//! per-device design rows.

use acs_sim::{Configuration, CpuPState, Device, GpuPState, KernelRun};
use serde::{Deserialize, Serialize};

/// The two sample configurations of Table II: the configurations a new
/// kernel runs at (one iteration each) before any prediction is made.
pub fn sample_config(device: Device) -> Configuration {
    match device {
        // CPU: 3.7 GHz, 4 threads, GPU parked at 311 MHz.
        Device::Cpu => Configuration::cpu(4, CpuPState::MAX),
        // GPU: 819 MHz, host CPU at 3.7 GHz.
        Device::Gpu => Configuration::gpu(GpuPState::MAX, CpuPState::MAX),
    }
}

/// Number of raw regression features per device row.
pub(crate) const CONFIG_FEATURES: usize = 6;

/// Design row for one configuration on its own device: configuration
/// variables plus first-order interactions, normalized to the reference
/// operating point so coefficients are comparable across devices.
pub fn config_features(config: &Configuration) -> [f64; CONFIG_FEATURES] {
    match config.device {
        Device::Cpu => {
            let f = config.cpu_pstate.freq_ghz() / acs_sim::CPU_REF_FREQ_GHZ;
            let v = config.cpu_pstate.voltage_v();
            let t = f64::from(config.threads) / 4.0;
            [f, t, f * t, v * v * f, v * v * f * t, v * v]
        }
        Device::Gpu => {
            let fg = config.gpu_pstate.freq_ghz() / acs_sim::GPU_REF_FREQ_GHZ;
            let vg = config.gpu_pstate.voltage_v();
            let fc = config.cpu_pstate.freq_ghz() / acs_sim::CPU_REF_FREQ_GHZ;
            [fg, fc, fg * fc, vg * vg * fg, vg * vg * fc, vg * vg]
        }
    }
}

/// Number of classification-tree features.
const TREE_FEATURES: usize = 16;

/// Names of the classification features, aligned with [`tree_features`].
pub(crate) const TREE_FEATURE_NAMES: [&str; TREE_FEATURES] = [
    "ipc",
    "l1_mpki",
    "l2_mpki",
    "tlb_mpki",
    "branches_per_inst",
    "vector_per_inst",
    "stall_fraction",
    "fpu_idle_fraction",
    "interrupts_per_ref_gcycle",
    "dram_per_kinst",
    "cpu_sample_power_w",
    "gpu_sample_power_w",
    "cpu_sample_plane_ratio",
    "gpu_sample_plane_ratio",
    "log_gpu_speedup",
    "gpu_dram_per_kinst",
];

/// Classification features for a kernel from its two sample-configuration
/// runs (Section III-B: "performance counter and power data from training
/// kernels on the sample configurations").
fn tree_features(cpu_sample: &KernelRun, gpu_sample: &KernelRun) -> [f64; TREE_FEATURES] {
    debug_assert_eq!(cpu_sample.config.device, Device::Cpu);
    debug_assert_eq!(gpu_sample.config.device, Device::Gpu);

    let c = cpu_sample.counters.normalized_features();
    let gpu_inst = gpu_sample.counters.instructions.max(1.0);

    [
        c[0],
        c[1],
        c[2],
        c[3],
        c[4],
        c[5],
        c[6],
        c[7],
        c[8],
        c[9],
        cpu_sample.power_w(),
        gpu_sample.power_w(),
        cpu_sample.power.cpu_plane_w / cpu_sample.power_w().max(1e-300),
        gpu_sample.power.gpu_nb_plane_w / gpu_sample.power_w().max(1e-300),
        (cpu_sample.time_s / gpu_sample.time_s.max(1e-300)).max(1e-12).ln(),
        gpu_sample.counters.dram_accesses / gpu_inst * 1000.0,
    ]
}

/// A reusable pair of sample observations for one kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SamplePair {
    /// The CPU sample run (Table II row 1).
    pub(crate) cpu: KernelRun,
    /// The GPU sample run (Table II row 2).
    pub(crate) gpu: KernelRun,
}

impl SamplePair {
    /// Build from two runs, checking devices.
    pub fn new(cpu: KernelRun, gpu: KernelRun) -> Self {
        assert_eq!(cpu.config.device, Device::Cpu, "first sample must be the CPU config");
        assert_eq!(gpu.config.device, Device::Gpu, "second sample must be the GPU config");
        Self { cpu, gpu }
    }

    /// The sample performance on a device (the `S_perf` of the paper's
    /// performance model).
    pub fn perf_on(&self, device: Device) -> f64 {
        match device {
            Device::Cpu => 1.0 / self.cpu.time_s,
            Device::Gpu => 1.0 / self.gpu.time_s,
        }
    }

    /// Classification features for this kernel.
    pub fn tree_features(&self) -> [f64; TREE_FEATURES] {
        tree_features(&self.cpu, &self.gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_sim::{KernelCharacteristics, Machine};

    fn samples() -> SamplePair {
        let m = Machine::new(1);
        let k = KernelCharacteristics::default();
        SamplePair::new(
            m.run(&k, &sample_config(Device::Cpu)),
            m.run(&k, &sample_config(Device::Gpu)),
        )
    }

    #[test]
    fn sample_configs_match_table_ii() {
        let c = sample_config(Device::Cpu);
        assert_eq!(c.threads, 4);
        assert_eq!(c.cpu_pstate.freq_ghz(), 3.7);
        assert_eq!(c.gpu_pstate.freq_ghz(), 0.311);
        let g = sample_config(Device::Gpu);
        assert_eq!(g.gpu_pstate.freq_ghz(), 0.819);
        assert_eq!(g.cpu_pstate.freq_ghz(), 3.7);
        assert_eq!(g.threads, 1);
    }

    #[test]
    fn cpu_features_at_reference_are_normalized() {
        let x = config_features(&sample_config(Device::Cpu));
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        assert!((x[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gpu_features_at_reference_are_normalized() {
        let x = config_features(&sample_config(Device::Gpu));
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn features_vary_across_space() {
        // No two configurations on the same device share a feature row.
        let mut rows: Vec<(usize, Vec<f64>)> =
            Configuration::all().iter().map(|c| (c.index(), config_features(c).to_vec())).collect();
        rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        for w in rows.windows(2) {
            assert_ne!(w[0].1, w[1].1, "configs {} and {} collide", w[0].0, w[1].0);
        }
    }

    #[test]
    fn tree_features_are_finite() {
        let s = samples();
        let f = s.tree_features();
        assert_eq!(f.len(), TREE_FEATURE_NAMES.len());
        for (name, v) in TREE_FEATURE_NAMES.iter().zip(f) {
            assert!(v.is_finite(), "{name} = {v}");
        }
    }

    #[test]
    fn log_speedup_separates_gpu_affinity() {
        let m = Machine::noiseless(0);
        let friendly = KernelCharacteristics { gpu_speedup: 20.0, ..Default::default() };
        let hostile = KernelCharacteristics { gpu_speedup: 0.5, ..Default::default() };
        let feat = |k: &KernelCharacteristics| {
            SamplePair::new(
                m.run(k, &sample_config(Device::Cpu)),
                m.run(k, &sample_config(Device::Gpu)),
            )
            .tree_features()[14]
        };
        assert!(feat(&friendly) > feat(&hostile));
    }

    #[test]
    fn perf_on_is_inverse_sample_time() {
        let s = samples();
        assert!((s.perf_on(Device::Cpu) * s.cpu.time_s - 1.0).abs() < 1e-12);
        assert!((s.perf_on(Device::Gpu) * s.gpu.time_s - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "first sample")]
    fn sample_pair_checks_devices() {
        let m = Machine::new(1);
        let k = KernelCharacteristics::default();
        let gpu = m.run(&k, &sample_config(Device::Gpu));
        let _ = SamplePair::new(gpu.clone(), gpu);
    }
}
