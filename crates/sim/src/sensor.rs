//! On-chip power estimator.
//!
//! The Trinity system-management microcontroller provides real-time power
//! estimates that the paper samples and accumulates at 1 kHz (Section IV-C),
//! integrating over each kernel to obtain an average. We model the same
//! estimator: discrete sampling of the instantaneous (noisy, quantized)
//! power, averaged over the kernel's duration. Short kernels see more
//! estimation error because fewer samples land inside them — the same
//! artifact a real 1 kHz sampler has.

use crate::noise::{NoiseSource, Stream};
use crate::power::PowerBreakdown;
use crate::trace::PowerTrace;
use serde::{Deserialize, Serialize};

/// Configuration of the simulated power estimator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSensor {
    /// Sampling rate, Hz.
    pub sample_hz: f64,
    /// Quantization step of each instantaneous estimate, W.
    pub quantum_w: f64,
    /// Relative standard deviation of instantaneous estimate noise.
    pub noise_sigma: f64,
}

impl Default for PowerSensor {
    fn default() -> Self {
        Self { sample_hz: 1000.0, quantum_w: 0.125, noise_sigma: 0.015 }
    }
}

/// Most samples one estimate accumulates (caps the work for long kernels).
const MAX_SAMPLES: u64 = 10_000;

impl PowerSensor {
    /// An ideal sensor: continuous, noiseless, unquantized. Useful for
    /// isolating model error from measurement error in ablations.
    pub fn ideal() -> Self {
        Self { sample_hz: f64::INFINITY, quantum_w: 0.0, noise_sigma: 0.0 }
    }

    /// Number of samples the estimator accumulates for a kernel of the
    /// given duration (at least one — the paper reads the estimate at
    /// kernel start and finish even for sub-millisecond kernels).
    pub fn samples_for(&self, duration_s: f64) -> u64 {
        if !self.sample_hz.is_finite() {
            return u64::MAX; // continuous; handled separately in `estimate_trace`
        }
        ((duration_s * self.sample_hz).floor() as u64).max(1)
    }

    /// Estimate per-plane average power from a trace.
    ///
    /// The firmware exposes a running energy accumulator per plane, read
    /// at the sensor's rate: each reading reflects the *average* power
    /// over its window (not an instantaneous point), then suffers
    /// estimation noise and quantization. Short kernels therefore measure
    /// as one coarse window rather than a randomly-phased point sample.
    /// Both planes come out of one sweep over the waveform; each draws its
    /// estimation noise from its own source.
    pub fn estimate_trace(
        &self,
        trace: &PowerTrace,
        cpu_noise: &NoiseSource,
        gpu_nb_noise: &NoiseSource,
    ) -> PowerBreakdown {
        if !self.sample_hz.is_finite() {
            return trace.average();
        }
        let n = self.samples_for(trace.total_s()).min(MAX_SAMPLES);
        let dt = trace.total_s() / n as f64;
        let reading = |window_w: f64, noise: &NoiseSource, lane: u64| {
            let noisy =
                window_w * (1.0 + self.noise_sigma * noise.standard_normal(Stream::Sensor, lane));
            self.quantize_pub(noisy.max(0.0))
        };
        let (mut cpu, mut gpu_nb) = (0.0, 0.0);
        for (lane, window) in (0..n).zip(trace.windows(dt)) {
            cpu += reading(window.cpu_plane_w, cpu_noise, lane);
            gpu_nb += reading(window.gpu_nb_plane_w, gpu_nb_noise, lane);
        }
        PowerBreakdown { cpu_plane_w: cpu / n as f64, gpu_nb_plane_w: gpu_nb / n as f64 }
    }

    /// Quantize an instantaneous reading to the estimator's resolution.
    #[inline]
    pub fn quantize_pub(&self, w: f64) -> f64 {
        if self.quantum_w <= 0.0 {
            return w;
        }
        (w / self.quantum_w).round() * self.quantum_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise() -> NoiseSource {
        NoiseSource::new(11, "sensor-test", 0, 0)
    }

    /// The CPU-plane estimate of a constant `power_w` held for `duration_s`.
    fn estimate(s: &PowerSensor, power_w: f64, duration_s: f64, noise: &NoiseSource) -> f64 {
        let power = PowerBreakdown { cpu_plane_w: power_w, gpu_nb_plane_w: 0.0 };
        s.estimate_trace(&PowerTrace::constant(duration_s, power), noise, noise).cpu_plane_w
    }

    #[test]
    fn ideal_sensor_is_exact() {
        let s = PowerSensor::ideal();
        // A power-of-two duration: `w · d / d` is then `w` to the bit.
        assert_eq!(estimate(&s, 23.456, 1.0 / 8192.0, &noise()), 23.456);
    }

    #[test]
    fn long_kernel_estimate_converges_to_truth() {
        let s = PowerSensor::default();
        let est = estimate(&s, 30.0, 5.0, &noise());
        assert!((est - 30.0).abs() < 0.1, "estimate {est}");
    }

    #[test]
    fn short_kernel_has_single_sample() {
        let s = PowerSensor::default();
        assert_eq!(s.samples_for(0.0001), 1);
        assert_eq!(s.samples_for(0.0500), 50);
    }

    #[test]
    fn estimate_is_quantized_for_single_sample() {
        let s = PowerSensor { noise_sigma: 0.0, ..PowerSensor::default() };
        let est = estimate(&s, 20.06, 0.0001, &noise());
        assert!((est - 20.0).abs() < 1e-12, "single noiseless sample quantizes: {est}");
    }

    #[test]
    fn estimate_never_negative() {
        let s = PowerSensor { noise_sigma: 0.8, ..PowerSensor::default() };
        for run in 0..50 {
            let n = NoiseSource::new(5, "neg", 0, run);
            assert!(estimate(&s, 0.5, 0.001, &n) >= 0.0);
        }
    }

    #[test]
    fn deterministic_per_address() {
        let s = PowerSensor::default();
        assert_eq!(estimate(&s, 25.0, 0.01, &noise()), estimate(&s, 25.0, 0.01, &noise()));
    }

    #[test]
    fn sample_cap_bounds_work() {
        let s = PowerSensor::default();
        // A 100-second kernel would need 100k samples; the cap keeps it at 10k.
        let est = estimate(&s, 40.0, 100.0, &noise());
        assert!((est - 40.0).abs() < 0.1);
    }

    #[test]
    fn each_plane_draws_from_its_own_noise_source() {
        let s = PowerSensor::default();
        let power = PowerBreakdown { cpu_plane_w: 20.0, gpu_nb_plane_w: 20.0 };
        let trace = PowerTrace::constant(0.05, power);
        let other = NoiseSource::new(12, "sensor-test", 0, 0);
        let same = s.estimate_trace(&trace, &noise(), &noise());
        assert_eq!(same.cpu_plane_w, same.gpu_nb_plane_w);
        let split = s.estimate_trace(&trace, &noise(), &other);
        assert_eq!(split.cpu_plane_w, same.cpu_plane_w);
        assert_ne!(split.gpu_nb_plane_w, same.gpu_nb_plane_w);
    }
}
