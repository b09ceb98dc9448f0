//! Machine families: parametric descriptors the simulator instantiates.
//!
//! The paper measures one machine — a Trinity A10-5800K — but a fleet is
//! heterogeneous, and *Cross Architectural Power Modelling* shows model
//! accuracy degrades non-trivially across architectures. A
//! [`MachineFamily`] captures the physical response of one architecture
//! class — P-state tables, core/module topology, relative IPC, GPU array
//! width, memory bandwidth, power calibration, and an optional Lumos-style
//! offload accelerator — while the *software control interface* stays the
//! paper's fixed 42-configuration knob space. That keeps models trained on
//! one family mechanically servable on another, which is exactly the
//! transfer gap the verify crate's transfer harness measures.
//!
//! The Trinity descriptor is arithmetically neutral: every family hook it
//! passes through (`ipc_scale`, `gpu_width_scale`, `mem_bw_scale` at 1.0,
//! the global P-state tables, 2-core modules) reproduces the original
//! hard-coded model bit-for-bit, so blessed golden traces stay valid.

use crate::config::{NUM_CPU_CORES, NUM_CPU_MODULES};
use crate::power::PowerCalibration;
use crate::pstate::{CpuPState, GpuPState, OperatingPoint, CPU_PSTATES, GPU_PSTATES};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Identifier of a canonical machine family. Serialized as a unit variant,
/// so it is cheap to embed in cache keys, configs, and wire messages.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum FamilyId {
    /// The paper's AMD Trinity A10-5800K: 2 dual-core modules + iGPU.
    #[default]
    Trinity,
    /// A big desktop APU: 8 cores in 4 modules, faster clocks, wide GPU.
    BigCore,
    /// A low-power embedded APU: 2 cores, one module, narrow GPU.
    LowPower,
    /// A Lumos-style asymmetric part: one 4-wide CPU cluster plus a wide
    /// offload accelerator on the GPU plane.
    AccelHybrid,
}

impl FamilyId {
    /// Every canonical family, Trinity first.
    pub const ALL: [FamilyId; 4] =
        [FamilyId::Trinity, FamilyId::BigCore, FamilyId::LowPower, FamilyId::AccelHybrid];

    /// Stable lowercase name (used in cache file names, CLI flags, and
    /// reports).
    pub fn as_str(self) -> &'static str {
        match self {
            FamilyId::Trinity => "trinity",
            FamilyId::BigCore => "bigcore",
            FamilyId::LowPower => "lowpower",
            FamilyId::AccelHybrid => "accel",
        }
    }

    /// Parse a [`FamilyId::as_str`] name (case-insensitive).
    pub fn parse(s: &str) -> Option<FamilyId> {
        FamilyId::ALL.into_iter().find(|f| f.as_str().eq_ignore_ascii_case(s.trim()))
    }

    /// The family's full descriptor (lazily built, process-wide).
    pub fn descriptor(self) -> &'static MachineFamily {
        static TABLE: OnceLock<[MachineFamily; 4]> = OnceLock::new();
        let table = TABLE.get_or_init(|| [trinity(), bigcore(), lowpower(), accel_hybrid()]);
        match self {
            FamilyId::Trinity => &table[0],
            FamilyId::BigCore => &table[1],
            FamilyId::LowPower => &table[2],
            FamilyId::AccelHybrid => &table[3],
        }
    }
}

impl std::fmt::Display for FamilyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A Lumos-style offload accelerator attached to the GPU power plane: very
/// wide for regular data-parallel work, brutally derated by control-flow
/// divergence, and paying a fixed per-launch offload cost. Its power curve
/// lives in the owning family's [`PowerCalibration`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct Accelerator {
    /// Extra compute speedup multiplier on top of the kernel's (already
    /// divergence-derated) GPU speedup.
    pub(crate) speedup_scale: f64,
    /// Divergence derating strength: throughput is further multiplied by
    /// `(1 − penalty · branch_divergence)`, floored at 5%. Accelerator
    /// lanes stall far harder on divergent control flow than GPU SIMDs.
    pub(crate) divergence_penalty: f64,
    /// Fixed offload/reconfiguration overhead per launch, seconds (at the
    /// reference host frequency; scales with host DVFS like launch cost).
    pub(crate) offload_overhead_s: f64,
}

/// Parametric description of one machine architecture class.
///
/// The knob space (6 CPU P-state indices × 4 threads, 3 GPU P-state
/// indices) is fixed across families — it is the *software interface* the
/// paper's selector manipulates — while this struct defines what the
/// hardware underneath does with each knob.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineFamily {
    /// Which canonical family this is.
    id: FamilyId,
    /// CPU voltage/frequency table, slowest first (always 6 entries — the
    /// knob space is shared; the *values* are per-family).
    cpu_pstates: [OperatingPoint; CpuPState::COUNT],
    /// GPU voltage/frequency table, slowest first (always 3 entries).
    gpu_pstates: [OperatingPoint; GpuPState::COUNT],
    /// Physical core count. The thread knob still spans 1..=4; a family
    /// with fewer cores oversubscribes (extra software threads add sync
    /// overhead but no compute or memory parallelism), one with more
    /// leaves cores dark.
    cpu_cores: u8,
    /// Cores per shared-front-end module (Piledriver: 2). `1` disables
    /// module sharing entirely.
    pub(crate) cores_per_module: u8,
    /// Single-core compute throughput relative to a Trinity core at equal
    /// frequency (multiplies the effective frequency).
    pub(crate) ipc_scale: f64,
    /// GPU array width relative to Trinity's (multiplies the kernel's
    /// effective GPU speedup).
    pub(crate) gpu_width_scale: f64,
    /// Memory subsystem bandwidth relative to Trinity's (divides DRAM
    /// time on both devices).
    pub(crate) mem_bw_scale: f64,
    /// The family's power-model calibration.
    pub(crate) power_cal: PowerCalibration,
    /// Offload accelerator in place of a conventional GPU, if any.
    pub(crate) accelerator: Option<Accelerator>,
}

impl MachineFamily {
    /// Operating point behind a CPU P-state knob on this family.
    #[inline]
    pub(crate) fn cpu_point(&self, p: CpuPState) -> OperatingPoint {
        self.cpu_pstates[p.0 as usize]
    }

    /// Operating point behind a GPU P-state knob on this family.
    #[inline]
    pub(crate) fn gpu_point(&self, p: GpuPState) -> OperatingPoint {
        self.gpu_pstates[p.0 as usize]
    }

    /// Reference (fastest) CPU frequency, GHz — the family's counter
    /// normalization and leading-loads anchor.
    #[inline]
    pub(crate) fn cpu_ref_freq_ghz(&self) -> f64 {
        self.cpu_pstates[CpuPState::COUNT - 1].freq_ghz
    }

    /// Reference (fastest) GPU frequency, GHz.
    #[inline]
    pub(crate) fn gpu_ref_freq_ghz(&self) -> f64 {
        self.gpu_pstates[GpuPState::COUNT - 1].freq_ghz
    }

    /// Total module count (`cpu_cores / cores_per_module`, rounded up).
    #[inline]
    pub(crate) fn total_modules(&self) -> u8 {
        self.cpu_cores.div_ceil(self.cores_per_module.max(1))
    }

    /// Threads actually backed by physical cores (oversubscribed software
    /// threads share cores and contribute no extra parallelism).
    #[inline]
    pub(crate) fn physical_threads(&self, threads: u8) -> u8 {
        threads.min(self.cpu_cores)
    }

    /// Fraction of physically-placed threads that share a module with a
    /// sibling, under compact packing. Generalizes the Trinity table
    /// (0, 1, 2/3, 1 for 1..=4 threads on 2-core modules) to any module
    /// width.
    pub(crate) fn shared_core_fraction(&self, threads: u8) -> f64 {
        let m = self.cores_per_module;
        let active = self.physical_threads(threads);
        if m <= 1 || active <= 1 {
            return 0.0;
        }
        let full = (active / m) * m;
        let rem = active % m;
        let shared = full + if rem >= 2 { rem } else { 0 };
        f64::from(shared) / f64::from(active)
    }
}

/// The paper's Trinity A10-5800K — the neutral element of the family
/// abstraction: every scale factor is 1.0 and the tables are the global
/// constants, so the generalized model reproduces the original bit-for-bit.
fn trinity() -> MachineFamily {
    MachineFamily {
        id: FamilyId::Trinity,
        cpu_pstates: CPU_PSTATES,
        gpu_pstates: GPU_PSTATES,
        cpu_cores: NUM_CPU_CORES,
        cores_per_module: NUM_CPU_CORES / NUM_CPU_MODULES,
        ipc_scale: 1.0,
        gpu_width_scale: 1.0,
        mem_bw_scale: 1.0,
        power_cal: PowerCalibration::default(),
        accelerator: None,
    }
}

/// A big desktop APU: 8 cores in 4 dual-core modules, higher clocks and
/// IPC, a much wider GPU, and half again the memory bandwidth — with the
/// power bill to match. The 4-thread knob ceiling leaves half the machine
/// dark, so idle/gated overheads weigh more than on Trinity.
fn bigcore() -> MachineFamily {
    MachineFamily {
        id: FamilyId::BigCore,
        cpu_pstates: [
            OperatingPoint::new(1.6, 0.800),
            OperatingPoint::new(2.1, 0.875),
            OperatingPoint::new(2.6, 0.950),
            OperatingPoint::new(3.1, 1.025),
            OperatingPoint::new(3.6, 1.100),
            OperatingPoint::new(4.2, 1.200),
        ],
        gpu_pstates: [
            OperatingPoint::new(0.400, 0.850),
            OperatingPoint::new(0.800, 1.000),
            OperatingPoint::new(1.100, 1.150),
        ],
        cpu_cores: 8,
        cores_per_module: 2,
        ipc_scale: 1.15,
        gpu_width_scale: 1.6,
        mem_bw_scale: 1.5,
        power_cal: PowerCalibration {
            k_cpu_dyn: 4.6,
            k_cpu_leak_module: 1.9,
            cpu_idle_core_w: 0.25,
            cpu_gated_module_w: 0.35,
            cpu_uncore_w: 3.2,
            k_gpu_dyn: 30.0,
            k_gpu_leak: 2.4,
            gpu_active_base_w: 10.0,
            nb_base_w: 4.0,
            nb_dram_w: 8.0,
            ..PowerCalibration::default()
        },
        accelerator: None,
    }
}

/// A low-power embedded APU: two cores on one module, sub-GHz floor,
/// narrow GPU, and ~70% of Trinity's memory bandwidth. Thread knobs 3 and
/// 4 oversubscribe — they pay synchronization overhead without adding
/// compute, producing the inverted thread-scaling curve transfer models
/// trained on Trinity never saw.
fn lowpower() -> MachineFamily {
    MachineFamily {
        id: FamilyId::LowPower,
        cpu_pstates: [
            OperatingPoint::new(0.8, 0.750),
            OperatingPoint::new(1.0, 0.800),
            OperatingPoint::new(1.2, 0.850),
            OperatingPoint::new(1.5, 0.900),
            OperatingPoint::new(1.8, 0.975),
            OperatingPoint::new(2.2, 1.050),
        ],
        gpu_pstates: [
            OperatingPoint::new(0.200, 0.800),
            OperatingPoint::new(0.450, 0.900),
            OperatingPoint::new(0.600, 1.000),
        ],
        cpu_cores: 2,
        cores_per_module: 2,
        ipc_scale: 0.8,
        gpu_width_scale: 0.5,
        mem_bw_scale: 0.7,
        power_cal: PowerCalibration {
            k_cpu_dyn: 2.2,
            k_cpu_leak_module: 0.8,
            cpu_idle_core_w: 0.1,
            cpu_gated_module_w: 0.15,
            cpu_uncore_w: 0.9,
            k_gpu_dyn: 12.0,
            k_gpu_leak: 0.9,
            gpu_active_base_w: 3.0,
            nb_base_w: 1.5,
            nb_dram_w: 3.0,
            ..PowerCalibration::default()
        },
        accelerator: None,
    }
}

/// A Lumos-style asymmetric part: four cores sharing one wide front-end
/// cluster (all threads contend once two are active), and a wide offload
/// accelerator on the GPU plane — 3× the effective speedup on regular
/// kernels, savage divergence derating, and a fixed offload cost per
/// launch.
fn accel_hybrid() -> MachineFamily {
    MachineFamily {
        id: FamilyId::AccelHybrid,
        cpu_pstates: [
            OperatingPoint::new(1.2, 0.825),
            OperatingPoint::new(1.7, 0.900),
            OperatingPoint::new(2.2, 0.975),
            OperatingPoint::new(2.7, 1.050),
            OperatingPoint::new(3.1, 1.125),
            OperatingPoint::new(3.5, 1.200),
        ],
        gpu_pstates: [
            OperatingPoint::new(0.250, 0.850),
            OperatingPoint::new(0.500, 1.000),
            OperatingPoint::new(0.700, 1.125),
        ],
        cpu_cores: 4,
        cores_per_module: 4,
        ipc_scale: 0.9,
        gpu_width_scale: 2.0,
        mem_bw_scale: 1.2,
        power_cal: PowerCalibration {
            k_cpu_dyn: 3.4,
            k_cpu_leak_module: 2.4,
            cpu_idle_core_w: 0.2,
            cpu_gated_module_w: 0.3,
            cpu_uncore_w: 1.5,
            k_gpu_dyn: 20.0,
            k_gpu_leak: 1.4,
            gpu_active_base_w: 9.0,
            nb_base_w: 3.5,
            nb_dram_w: 7.0,
            ..PowerCalibration::default()
        },
        accelerator: Some(Accelerator {
            speedup_scale: 3.0,
            divergence_penalty: 0.9,
            offload_overhead_s: 0.0008,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trinity_descriptor_is_neutral() {
        let t = FamilyId::Trinity.descriptor();
        assert_eq!(t.cpu_pstates, CPU_PSTATES);
        assert_eq!(t.gpu_pstates, GPU_PSTATES);
        assert_eq!(t.cpu_cores, NUM_CPU_CORES);
        assert_eq!(t.cores_per_module, 2);
        assert_eq!(t.total_modules(), NUM_CPU_MODULES);
        assert_eq!(t.ipc_scale, 1.0);
        assert_eq!(t.gpu_width_scale, 1.0);
        assert_eq!(t.mem_bw_scale, 1.0);
        assert_eq!(t.power_cal, PowerCalibration::default());
        assert!(t.accelerator.is_none());
        assert_eq!(t.cpu_ref_freq_ghz(), crate::pstate::CPU_REF_FREQ_GHZ);
        assert_eq!(t.gpu_ref_freq_ghz(), crate::pstate::GPU_REF_FREQ_GHZ);
    }

    #[test]
    fn trinity_shared_core_fraction_matches_the_legacy_table() {
        let t = FamilyId::Trinity.descriptor();
        for threads in 0..=5u8 {
            assert_eq!(
                t.shared_core_fraction(threads).to_bits(),
                crate::cpu::shared_core_fraction(threads).to_bits(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn family_names_roundtrip() {
        for f in FamilyId::ALL {
            assert_eq!(FamilyId::parse(f.as_str()), Some(f));
            assert_eq!(FamilyId::parse(&f.as_str().to_uppercase()), Some(f));
        }
        assert_eq!(FamilyId::parse("no-such-family"), None);
    }

    #[test]
    fn descriptors_are_stable_references() {
        for f in FamilyId::ALL {
            assert!(std::ptr::eq(f.descriptor(), f.descriptor()));
            assert_eq!(f.descriptor().id, f);
        }
    }

    #[test]
    fn every_family_has_monotone_pstate_tables() {
        for f in FamilyId::ALL {
            let d = f.descriptor();
            for w in d.cpu_pstates.windows(2) {
                assert!(w[0].freq_ghz < w[1].freq_ghz, "{f}: cpu freqs must rise");
                assert!(w[0].voltage_v < w[1].voltage_v, "{f}: cpu volts must rise");
            }
            for w in d.gpu_pstates.windows(2) {
                assert!(w[0].freq_ghz < w[1].freq_ghz, "{f}: gpu freqs must rise");
                assert!(w[0].voltage_v < w[1].voltage_v, "{f}: gpu volts must rise");
            }
        }
    }

    #[test]
    fn lowpower_oversubscribes_above_its_core_count() {
        let d = FamilyId::LowPower.descriptor();
        assert_eq!(d.physical_threads(1), 1);
        assert_eq!(d.physical_threads(2), 2);
        assert_eq!(d.physical_threads(3), 2);
        assert_eq!(d.physical_threads(4), 2);
    }

    #[test]
    fn accel_family_shares_one_wide_module() {
        let d = FamilyId::AccelHybrid.descriptor();
        assert_eq!(d.total_modules(), 1);
        assert_eq!(d.shared_core_fraction(1), 0.0);
        // Any two or more threads all contend on the single cluster.
        assert_eq!(d.shared_core_fraction(2), 1.0);
        assert_eq!(d.shared_core_fraction(3), 1.0);
        assert_eq!(d.shared_core_fraction(4), 1.0);
        assert!(d.accelerator.is_some());
    }

    #[test]
    fn family_id_serializes_as_its_variant() {
        let json = serde_json::to_string(&FamilyId::BigCore).unwrap();
        let back: FamilyId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, FamilyId::BigCore);
    }
}
