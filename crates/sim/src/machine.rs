//! The assembled machine: runs a kernel at a configuration and reports what
//! the profiling library would observe on real hardware — wall time, the
//! microcontroller's per-plane power estimates, and performance counters.

use crate::config::{Configuration, Device};
use crate::counters::{self, CounterInputs, CounterSet};
use crate::cpu::cpu_time_on;
use crate::family::FamilyId;
use crate::gpu::gpu_time_on;
use crate::kernel::KernelCharacteristics;
use crate::noise::{NoiseSource, Stream};
use crate::power::{PowerBreakdown, PowerCalibration};
use crate::sensor::PowerSensor;
use serde::{Deserialize, Serialize};

/// One observed kernel execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelRun {
    /// The configuration the kernel ran at.
    pub config: Configuration,
    /// Measured wall time, seconds.
    pub time_s: f64,
    /// Sensor-estimated average power per plane, W (what software sees).
    pub power: PowerBreakdown,
    /// True average power per plane, W (ground truth, for oracle use only).
    pub true_power: PowerBreakdown,
    /// Performance counter readings.
    pub counters: CounterSet,
}

impl KernelRun {
    /// Total measured package power, W.
    #[inline]
    pub fn power_w(&self) -> f64 {
        self.power.total_w()
    }

    /// Total true package power, W.
    #[inline]
    pub fn true_power_w(&self) -> f64 {
        self.true_power.total_w()
    }

    /// Performance as inverse time (kernel iterations per second).
    #[inline]
    pub fn performance(&self) -> f64 {
        1.0 / self.time_s
    }
}

/// A simulated APU with a fixed calibration and noise seed.
///
/// All observations are deterministic functions of
/// `(seed, kernel id, configuration, run index)`, so sweeps may be executed
/// in any order (or in parallel) and reproduce bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// Master noise seed.
    pub seed: u64,
    /// Which machine family this node belongs to (defaults to Trinity, so
    /// records serialized before families existed still deserialize).
    #[serde(default)]
    pub family: FamilyId,
    /// Power model calibration.
    pub power_cal: PowerCalibration,
    /// The on-chip power estimator.
    pub sensor: PowerSensor,
    /// Relative run-to-run timing jitter (OS noise, DRAM refresh, ...).
    pub timing_sigma: f64,
    /// Relative true-power jitter (temperature, input data, ...).
    pub power_sigma: f64,
}

impl Machine {
    /// A Trinity machine with default calibration and the given seed
    /// (equivalent to `Machine::from_family(FamilyId::Trinity, seed)`).
    pub fn new(seed: u64) -> Self {
        Self::from_family(FamilyId::Trinity, seed)
    }

    /// A machine of the given family, instantiated deterministically from
    /// `seed`: same family + same seed ⇒ bit-identical observations.
    pub fn from_family(family: FamilyId, seed: u64) -> Self {
        Self {
            seed,
            family,
            power_cal: family.descriptor().power_cal.clone(),
            sensor: PowerSensor::default(),
            timing_sigma: 0.01,
            power_sigma: 0.01,
        }
    }

    /// A noiseless machine: exact timing, exact power, ideal sensor.
    /// Useful for tests and for isolating model error in ablations.
    pub fn noiseless(seed: u64) -> Self {
        Self::noiseless_from_family(FamilyId::Trinity, seed)
    }

    /// [`Machine::noiseless`] on an explicit family.
    pub fn noiseless_from_family(family: FamilyId, seed: u64) -> Self {
        Self {
            seed,
            family,
            power_cal: family.descriptor().power_cal.clone(),
            sensor: PowerSensor::ideal(),
            timing_sigma: 0.0,
            power_sigma: 0.0,
        }
    }

    /// Execute `kernel` at `config` (first iteration).
    pub fn run(&self, kernel: &KernelCharacteristics, config: &Configuration) -> KernelRun {
        self.run_iter(kernel, config, 0)
    }

    /// Execute iteration `run` of `kernel` at `config`.
    pub fn run_iter(
        &self,
        kernel: &KernelCharacteristics,
        config: &Configuration,
        run: u64,
    ) -> KernelRun {
        let fam = self.family.descriptor();
        let id_hash = kernel.id_hash();
        let noise = NoiseSource::from_id_hash(self.seed, id_hash, config.index(), run);
        let t_jitter = noise.jitter(Stream::Timing, self.timing_sigma);
        let p_jitter = noise.jitter(Stream::Power, self.power_sigma);

        let (time_s, true_power, counter_inputs) = match config.device {
            Device::Cpu => {
                let t = cpu_time_on(fam, kernel, config);
                let p = self.power_cal.cpu_run_power_on(fam, kernel, config, &t);
                let ci = CounterInputs {
                    device: Device::Cpu,
                    total_s: t.total_s * t_jitter,
                    host_busy_s: t.busy_s * t_jitter,
                    memory_s: t.memory_s * t_jitter,
                    threads: config.threads,
                    cpu_freq_ghz: fam.cpu_point(config.cpu_pstate).freq_ghz,
                };
                (t.total_s * t_jitter, p, ci)
            }
            Device::Gpu => {
                let t = gpu_time_on(fam, kernel, config);
                let p = self.power_cal.gpu_run_power_on(fam, kernel, config, &t);
                let ci = CounterInputs {
                    device: Device::Gpu,
                    total_s: t.total_s * t_jitter,
                    host_busy_s: t.host_s * t_jitter,
                    memory_s: t.device_memory_s * t_jitter,
                    threads: 1,
                    cpu_freq_ghz: fam.cpu_point(config.cpu_pstate).freq_ghz,
                };
                (t.total_s * t_jitter, p, ci)
            }
        };

        let true_power = PowerBreakdown {
            cpu_plane_w: true_power.cpu_plane_w * p_jitter,
            gpu_nb_plane_w: true_power.gpu_nb_plane_w * p_jitter,
        };

        // The sensor samples the phase-resolved power waveform (compute
        // vs. memory phases, host vs. device phases) at its own rate —
        // each plane through an independent accumulator, as the firmware
        // exposes them. Jitter applies to the waveform so the sensed and
        // true powers describe the same execution.
        let mut trace = crate::trace::trace_for_on(fam, kernel, config, &self.power_cal);
        trace.scale_time(t_jitter);
        trace.scale_power(p_jitter);
        let plane_noise =
            NoiseSource::from_id_hash(self.seed ^ 0xA5A5, id_hash, config.index(), run);
        let power = self.sensor.estimate_trace(&trace, &noise, &plane_noise);

        let counters = counters::generate(kernel, &counter_inputs, &noise);

        KernelRun { config: *config, time_s, power, true_power, counters }
    }

    /// Execute the kernel at every configuration in the space.
    pub fn sweep(&self, kernel: &KernelCharacteristics) -> Vec<KernelRun> {
        Configuration::all().iter().map(|c| self.run(kernel, c)).collect()
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
    fn run_is_deterministic() {
        let m = Machine::new(7);
        let cfg = Configuration::cpu(4, CpuPState::MAX);
        assert_eq!(m.run(&kernel(), &cfg), m.run(&kernel(), &cfg));
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = Configuration::cpu(4, CpuPState::MAX);
        let a = Machine::new(1).run(&kernel(), &cfg);
        let b = Machine::new(2).run(&kernel(), &cfg);
        assert_ne!(a.time_s, b.time_s);
    }

    #[test]
    fn iterations_jitter_but_stay_close() {
        let m = Machine::new(7);
        let cfg = Configuration::cpu(4, CpuPState::MAX);
        let a = m.run_iter(&kernel(), &cfg, 0);
        let b = m.run_iter(&kernel(), &cfg, 1);
        assert_ne!(a.time_s, b.time_s);
        assert!((a.time_s - b.time_s).abs() / a.time_s < 0.10);
    }

    #[test]
    fn noiseless_machine_reports_exact_model() {
        let m = Machine::noiseless(0);
        let k = kernel();
        let cfg = Configuration::cpu(1, CpuPState::MAX);
        let r = m.run(&k, &cfg);
        assert!((r.time_s - k.reference_time_s()).abs() < 1e-12);
        // The ideal sensor reads the trace time-average, equal to the
        // closed-form average power up to float association order.
        assert!((r.power.cpu_plane_w - r.true_power.cpu_plane_w).abs() < 1e-9);
        assert!((r.power.gpu_nb_plane_w - r.true_power.gpu_nb_plane_w).abs() < 1e-9);
    }

    #[test]
    fn sweep_covers_whole_space() {
        let m = Machine::noiseless(0);
        let runs = m.sweep(&kernel());
        assert_eq!(runs.len(), Configuration::space_size());
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.config.index(), i);
            assert!(r.time_s > 0.0);
            assert!(r.power_w() > 0.0);
        }
    }

    #[test]
    fn sensor_estimate_tracks_true_power() {
        let m = Machine::new(3);
        // A long-running kernel: the 1 kHz sensor collects many samples.
        let k = KernelCharacteristics { compute_time_s: 1.0, memory_time_s: 0.3, ..kernel() };
        let r = m.run(&k, &Configuration::cpu(4, CpuPState::MAX));
        let rel = (r.power_w() - r.true_power_w()).abs() / r.true_power_w();
        assert!(rel < 0.02, "sensor error {rel}");
    }

    #[test]
    fn gpu_run_has_gpu_shaped_observations() {
        let m = Machine::new(3);
        let cfg = Configuration::gpu(GpuPState::MAX, CpuPState::MIN);
        let r = m.run(&kernel(), &cfg);
        assert_eq!(r.config.device, Device::Gpu);
        // GPU plane dominates while the host plane is modest.
        assert!(r.true_power.gpu_nb_plane_w > r.true_power.cpu_plane_w);
    }

    #[test]
    fn performance_is_inverse_time() {
        let m = Machine::noiseless(0);
        let r = m.run(&kernel(), &Configuration::cpu(2, CpuPState(3)));
        assert!((r.performance() * r.time_s - 1.0).abs() < 1e-12);
    }
}
