//! Hardware configurations: the unit the model ranks and the scheduler picks.
//!
//! A configuration is a device selection plus the DVFS and concurrency knobs
//! of Section I: device (CPU or GPU), CPU thread count, CPU P-state, and GPU
//! P-state. CPU-device configurations park the GPU at its minimum P-state;
//! GPU-device configurations use one host thread (the OpenCL driver thread),
//! whose CPU P-state still matters because kernel-launch overhead runs on it.

use crate::pstate::{CpuPState, GpuPState};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which device executes the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Device {
    /// OpenMP implementation on the CPU compute units.
    Cpu,
    /// OpenCL implementation on the integrated GPU.
    Gpu,
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Device::Cpu => write!(f, "CPU"),
            Device::Gpu => write!(f, "GPU"),
        }
    }
}

/// Number of CPU cores on the simulated APU (two dual-core modules).
pub const NUM_CPU_CORES: u8 = 4;

/// Number of CPU compute units (dual-core "Piledriver" modules).
pub(crate) const NUM_CPU_MODULES: u8 = 2;

/// A full hardware configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Configuration {
    /// Executing device.
    pub device: Device,
    /// Active CPU threads (1..=4 for CPU device; always 1 for GPU device).
    pub threads: u8,
    /// P-state of the CPU compute units.
    pub cpu_pstate: CpuPState,
    /// P-state of the GPU (minimum when the CPU executes the kernel).
    pub gpu_pstate: GpuPState,
}

impl Configuration {
    /// A CPU-device configuration. The GPU is parked at its minimum P-state.
    pub fn cpu(threads: u8, cpu_pstate: CpuPState) -> Self {
        assert!(
            (1..=NUM_CPU_CORES).contains(&threads),
            "CPU thread count must be in 1..={NUM_CPU_CORES}, got {threads}"
        );
        Self { device: Device::Cpu, threads, cpu_pstate, gpu_pstate: GpuPState::MIN }
    }

    /// A GPU-device configuration with one host thread.
    pub fn gpu(gpu_pstate: GpuPState, cpu_pstate: CpuPState) -> Self {
        Self { device: Device::Gpu, threads: 1, cpu_pstate, gpu_pstate }
    }

    /// The full configuration space of the simulated machine:
    /// 6 CPU P-states × 4 thread counts (CPU device) plus
    /// 6 CPU P-states × 3 GPU P-states (GPU device) = 42 configurations.
    ///
    /// The space is enumerated once and cached for the life of the
    /// process — it sits on the sub-millisecond online selection path, so
    /// every caller borrows it allocation-free.
    pub fn all() -> &'static [Configuration] {
        static SPACE: std::sync::OnceLock<Vec<Configuration>> = std::sync::OnceLock::new();
        SPACE.get_or_init(|| {
            let mut out = Vec::with_capacity(Self::space_size());
            for cp in CpuPState::all() {
                for threads in 1..=NUM_CPU_CORES {
                    out.push(Configuration::cpu(threads, cp));
                }
            }
            for cp in CpuPState::all() {
                for gp in GpuPState::all() {
                    out.push(Configuration::gpu(gp, cp));
                }
            }
            out
        })
    }

    /// A stable dense index of this configuration within [`all`]'s
    /// ordering. Useful as a compact key for per-configuration tables.
    ///
    /// [`all`]: Configuration::all
    pub fn index(&self) -> usize {
        match self.device {
            Device::Cpu => {
                self.cpu_pstate.0 as usize * NUM_CPU_CORES as usize + (self.threads as usize - 1)
            }
            Device::Gpu => {
                CpuPState::COUNT * NUM_CPU_CORES as usize
                    + self.cpu_pstate.0 as usize * GpuPState::COUNT
                    + self.gpu_pstate.0 as usize
            }
        }
    }

    /// Total number of configurations in the space.
    pub const fn space_size() -> usize {
        CpuPState::COUNT * NUM_CPU_CORES as usize + CpuPState::COUNT * GpuPState::COUNT
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.device {
            Device::Cpu => write!(
                f,
                "CPU {}T @ {:.1} GHz (GPU parked {:.3} GHz)",
                self.threads,
                self.cpu_pstate.freq_ghz(),
                self.gpu_pstate.freq_ghz()
            ),
            Device::Gpu => write!(
                f,
                "GPU @ {:.3} GHz (host CPU {:.1} GHz)",
                self.gpu_pstate.freq_ghz(),
                self.cpu_pstate.freq_ghz()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_has_42_configurations() {
        let all = Configuration::all();
        assert_eq!(all.len(), 42);
        assert_eq!(all.len(), Configuration::space_size());
    }

    #[test]
    fn all_is_cached() {
        // Same static slice on every call (one enumeration per process).
        assert!(std::ptr::eq(Configuration::all(), Configuration::all()));
    }

    #[test]
    fn enumeration_has_no_duplicates() {
        let all = Configuration::all();
        let mut dedup = all.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn index_matches_enumeration_order() {
        for (i, c) in Configuration::all().iter().enumerate() {
            assert_eq!(c.index(), i, "config {c} has wrong index");
        }
    }

    #[test]
    fn cpu_configs_park_gpu() {
        for c in Configuration::all() {
            if c.device == Device::Cpu {
                assert_eq!(c.gpu_pstate, GpuPState::MIN);
            } else {
                assert_eq!(c.threads, 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn zero_threads_rejected() {
        let _ = Configuration::cpu(0, CpuPState::MIN);
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn too_many_threads_rejected() {
        let _ = Configuration::cpu(5, CpuPState::MIN);
    }

    #[test]
    fn display_is_stable() {
        let c = Configuration::cpu(4, CpuPState::MAX);
        assert!(c.to_string().contains("CPU 4T @ 3.7 GHz"));
        let g = Configuration::gpu(GpuPState::MAX, CpuPState::MIN);
        assert!(g.to_string().contains("GPU @ 0.819 GHz"));
    }
}
