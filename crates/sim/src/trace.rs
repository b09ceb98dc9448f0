//! Phase-resolved power traces.
//!
//! The real microcontroller samples *instantaneous* power at 1 kHz while
//! the kernel's power draw swings between compute-busy and memory-stall
//! phases (CPU) or host and device phases (GPU). This module synthesizes a
//! piecewise-constant power signal whose time average equals the analytic
//! average model exactly, so the sensor can sample a realistic waveform
//! instead of a constant — short kernels then see genuine phase-aliasing
//! error, exactly like hardware.

use crate::config::{Configuration, Device};
use crate::cpu::cpu_time_on;
use crate::family::{FamilyId, MachineFamily};
use crate::gpu::gpu_time_on;
use crate::kernel::KernelCharacteristics;
use crate::power::{PowerBreakdown, PowerCalibration};
use serde::{Deserialize, Serialize};
use std::iter::Peekable;

/// A piecewise-constant two-plane power signal: one segment, or two
/// phases alternating for a number of cycles. Only the two phases are
/// stored; the segments are produced on demand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    /// The segments of one cycle, leading phase first. Segment `i` of the
    /// trace is `phases[i % 2]`; a one-segment trace uses slot 0 only.
    phases: [TraceSegment; 2],
    /// Number of segments: 0, 1, or twice the cycle count.
    len: usize,
    total_s: f64,
}

/// One constant-power span of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSegment {
    /// Segment duration, seconds.
    pub duration_s: f64,
    /// Power during the segment.
    pub power: PowerBreakdown,
}

/// Target alternation period between phases, seconds. Real kernels swing
/// between compute and memory phases at sub-millisecond granularity.
const PHASE_PERIOD_S: f64 = 250e-6;

/// Maximum number of alternation cycles in a trace (bounds the sweep for
/// very long kernels; the sensor's own sample cap dominates anyway).
const MAX_CYCLES: usize = 512;

const NO_POWER: PowerBreakdown = PowerBreakdown { cpu_plane_w: 0.0, gpu_nb_plane_w: 0.0 };

impl PowerTrace {
    /// Build a trace from two phases interleaved at a fixed sub-millisecond period
    /// granularity. `a` and `b` are (duration, power) pairs; phase `a`
    /// leads (e.g. launch/host work precedes device work).
    pub fn interleaved(a: (f64, PowerBreakdown), b: (f64, PowerBreakdown)) -> Self {
        let (dur_a, pow_a) = a;
        let (dur_b, pow_b) = b;
        let total = dur_a + dur_b;
        if total <= 0.0 {
            return Self { len: 0, ..Self::constant(0.0, NO_POWER) }; // no segments
        }
        if dur_a <= 0.0 || dur_b <= 0.0 {
            let (d, p) = if dur_a > 0.0 { (dur_a, pow_a) } else { (dur_b, pow_b) };
            return Self::constant(d, p);
        }

        let cycles = ((total / PHASE_PERIOD_S).ceil() as usize).clamp(1, MAX_CYCLES);
        let phases = [
            TraceSegment { duration_s: dur_a / cycles as f64, power: pow_a },
            TraceSegment { duration_s: dur_b / cycles as f64, power: pow_b },
        ];
        Self { phases, len: cycles * 2, total_s: total }
    }

    /// A single-phase (constant) trace.
    pub fn constant(duration_s: f64, power: PowerBreakdown) -> Self {
        Self { phases: [TraceSegment { duration_s, power }; 2], len: 1, total_s: duration_s }
    }

    /// The trace's segments, in time order.
    pub fn segments(
        &self,
    ) -> impl DoubleEndedIterator<Item = TraceSegment> + ExactSizeIterator + Clone + '_ {
        (0..self.len).map(|i| self.phases[i % 2])
    }

    /// Total duration, seconds.
    pub fn total_s(&self) -> f64 {
        self.total_s
    }

    /// Time-weighted average power over the whole trace.
    pub fn average(&self) -> PowerBreakdown {
        if self.total_s <= 0.0 {
            return NO_POWER;
        }
        // Summed segment by segment, not phase by phase: `cycles` equal
        // additions do not round like one multiplication.
        let mut cpu = 0.0;
        let mut gpu = 0.0;
        for s in self.segments() {
            cpu += s.power.cpu_plane_w * s.duration_s;
            gpu += s.power.gpu_nb_plane_w * s.duration_s;
        }
        PowerBreakdown { cpu_plane_w: cpu / self.total_s, gpu_nb_plane_w: gpu / self.total_s }
    }

    /// Scale every segment duration by `factor` (used to apply run-to-run
    /// timing jitter to the waveform).
    pub fn scale_time(&mut self, factor: f64) {
        for s in &mut self.phases {
            s.duration_s *= factor;
        }
        self.total_s *= factor;
    }

    /// Scale every segment's power by `factor`.
    pub fn scale_power(&mut self, factor: f64) {
        for s in &mut self.phases {
            s.power.cpu_plane_w *= factor;
            s.power.gpu_nb_plane_w *= factor;
        }
    }

    /// The per-plane time averages of the consecutive windows
    /// `[k·dt, k·dt + dt)`, `k = 0, 1, …`, by exact integration of the
    /// piecewise-constant signal. Windows reaching past the trace hold its
    /// last segment's power, so the iterator never ends: `take` what the
    /// sensor samples.
    pub fn windows(&self, dt: f64) -> Windows<impl Iterator<Item = TraceSegment> + Clone + '_> {
        Windows {
            segments: self.segments().peekable(),
            seg_start: 0.0,
            last: self.segments().next_back().map(|s| s.power),
            dt,
            lane: 0,
        }
    }
}

/// [`PowerTrace::windows`]: one forward sweep over a segment stream. The
/// windows' starts never decrease, so a segment that ends at or before one
/// window's start is consumed for good and the whole sweep visits each
/// segment once per window it overlaps.
#[derive(Debug, Clone)]
pub struct Windows<I: Iterator<Item = TraceSegment>> {
    /// The segments not yet known to end at or before a window's start.
    segments: Peekable<I>,
    /// Where the first of them begins: the running sum of every consumed
    /// duration, added in segment order.
    seg_start: f64,
    /// Power of the stream's final segment; `None` for an empty stream.
    last: Option<PowerBreakdown>,
    dt: f64,
    lane: u64,
}

impl<I: Iterator<Item = TraceSegment> + Clone> Iterator for Windows<I> {
    type Item = PowerBreakdown;

    fn next(&mut self) -> Option<PowerBreakdown> {
        let t0 = self.lane as f64 * self.dt;
        let t1 = t0 + self.dt;
        self.lane += 1;
        // A degenerate window, or no trace at all, reads nothing.
        let Some(last) = self.last.filter(|_| t1 > t0) else { return Some(NO_POWER) };
        while let Some(s) = self.segments.peek() {
            let seg_end = self.seg_start + s.duration_s;
            if seg_end > t0 {
                break;
            }
            self.seg_start = seg_end;
            self.segments.next();
        }

        // The next window starts at `(lane + 1)·dt`, which can round to
        // just below this one's `t0 + dt`: only the test against a window's
        // own start may consume a segment, so integration reads ahead on a
        // copy of the cursor.
        let (mut cpu, mut gpu) = (0.0, 0.0);
        let mut covered = 0.0;
        let mut seg_start = self.seg_start;
        for s in self.segments.clone() {
            let seg_end = seg_start + s.duration_s;
            let lo = t0.max(seg_start);
            let hi = t1.min(seg_end);
            if hi > lo {
                cpu += s.power.cpu_plane_w * (hi - lo);
                gpu += s.power.gpu_nb_plane_w * (hi - lo);
                covered += hi - lo;
            }
            seg_start = seg_end;
            if seg_start >= t1 {
                break;
            }
        }
        // Windows extending past the trace hold the last segment's power.
        if covered < (t1 - t0) - 1e-15 {
            let rest = (t1 - t0) - covered;
            cpu += last.cpu_plane_w * rest;
            gpu += last.gpu_nb_plane_w * rest;
            covered += rest;
        }
        Some(PowerBreakdown { cpu_plane_w: cpu / covered, gpu_nb_plane_w: gpu / covered })
    }
}

/// Build the phase trace of one kernel execution (no noise applied).
pub fn trace_for(
    kernel: &KernelCharacteristics,
    config: &Configuration,
    cal: &PowerCalibration,
) -> PowerTrace {
    trace_for_on(FamilyId::Trinity.descriptor(), kernel, config, cal)
}

/// [`trace_for`] on an explicit machine family.
pub fn trace_for_on(
    family: &MachineFamily,
    kernel: &KernelCharacteristics,
    config: &Configuration,
    cal: &PowerCalibration,
) -> PowerTrace {
    match config.device {
        Device::Cpu => {
            let t = cpu_time_on(family, kernel, config);
            let (busy, stall) = cal.cpu_phase_powers_on(family, kernel, config);
            PowerTrace::interleaved((t.busy_s, busy), (t.memory_s, stall))
        }
        Device::Gpu => {
            let t = gpu_time_on(family, kernel, config);
            let (host, device) = cal.gpu_phase_powers_on(family, kernel, config, &t);
            PowerTrace::interleaved((t.host_s, host), (t.device_s, device))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::cpu_time;
    use crate::noise::NoiseSource;
    use crate::pstate::{CpuPState, GpuPState};
    use crate::sensor::PowerSensor;

    fn kernel() -> KernelCharacteristics {
        KernelCharacteristics::default()
    }

    fn cal() -> PowerCalibration {
        PowerCalibration::default()
    }

    #[test]
    fn cpu_trace_average_matches_analytic_model() {
        let k = kernel();
        for threads in 1..=4u8 {
            let cfg = Configuration::cpu(threads, CpuPState(2));
            let trace = trace_for(&k, &cfg, &cal());
            let t = cpu_time(&k, &cfg);
            let analytic = cal().cpu_run_power(&k, &cfg, &t);
            let avg = trace.average();
            assert!((avg.cpu_plane_w - analytic.cpu_plane_w).abs() < 1e-9, "{threads}T cpu plane");
            assert!((avg.gpu_nb_plane_w - analytic.gpu_nb_plane_w).abs() < 1e-9);
            assert!((trace.total_s() - t.total_s).abs() < 1e-12);
        }
    }

    #[test]
    fn gpu_trace_average_matches_analytic_model() {
        let k = kernel();
        for gp in GpuPState::all() {
            let cfg = Configuration::gpu(gp, CpuPState(1));
            let trace = trace_for(&k, &cfg, &cal());
            let t = crate::gpu::gpu_time(&k, &cfg);
            let analytic = cal().gpu_run_power(&k, &cfg, &t);
            let avg = trace.average();
            assert!(
                (avg.cpu_plane_w - analytic.cpu_plane_w).abs() < 1e-9,
                "gpu pstate {gp:?} cpu plane {} vs {}",
                avg.cpu_plane_w,
                analytic.cpu_plane_w
            );
            assert!(
                (avg.gpu_nb_plane_w - analytic.gpu_nb_plane_w).abs() < 1e-9,
                "gpu pstate {gp:?}"
            );
        }
    }

    #[test]
    fn trace_has_phase_contrast() {
        let k = kernel();
        let cfg = Configuration::cpu(4, CpuPState::MAX);
        let trace = trace_for(&k, &cfg, &cal());
        let powers: Vec<f64> = trace.segments().map(|s| s.power.total_w()).collect();
        let max = powers.iter().fold(0.0f64, |a, &b| a.max(b));
        let min = powers.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        assert!(max > min + 1.0, "phases should differ by watts: {min}..{max}");
    }

    #[test]
    fn degenerate_phases_collapse_to_constant() {
        let p = PowerBreakdown { cpu_plane_w: 5.0, gpu_nb_plane_w: 5.0 };
        let zero = PowerBreakdown { cpu_plane_w: 0.0, gpu_nb_plane_w: 0.0 };
        let t = PowerTrace::interleaved((0.01, p), (0.0, zero));
        assert_eq!(t.segments().len(), 1);
        assert_eq!(t.average(), p);
        let empty = PowerTrace::interleaved((0.0, p), (0.0, zero));
        assert_eq!(empty.segments().len(), 0);
        assert_eq!(empty.average().total_w(), 0.0);
    }

    #[test]
    fn sensor_on_trace_converges_for_long_kernels() {
        let k = KernelCharacteristics { compute_time_s: 1.0, memory_time_s: 0.4, ..kernel() };
        let cfg = Configuration::cpu(4, CpuPState::MAX);
        let trace = trace_for(&k, &cfg, &cal());
        let sensor = PowerSensor::default();
        let noise = NoiseSource::new(3, "trace-sensor", 0, 0);
        let est = sensor.estimate_trace(&trace, &noise, &noise).cpu_plane_w;
        let truth = trace.average().cpu_plane_w;
        assert!((est - truth).abs() / truth < 0.02, "est {est} vs {truth}");
    }

    #[test]
    fn short_kernel_single_window_covers_whole_trace() {
        // A sub-millisecond kernel gets a single accumulator window, which
        // averages the whole execution: the noiseless estimate is the
        // quantized trace average (the accumulator architecture is what
        // keeps short-kernel measurements sane).
        let k = KernelCharacteristics { compute_time_s: 0.0004, memory_time_s: 0.0004, ..kernel() };
        let cfg = Configuration::cpu(4, CpuPState::MAX);
        let trace = trace_for(&k, &cfg, &cal());
        let sensor = PowerSensor { noise_sigma: 0.0, ..PowerSensor::default() };
        let noise = NoiseSource::new(3, "alias", 0, 0);
        let est = sensor.estimate_trace(&trace, &noise, &noise);
        let average = trace.average();
        for (est, average) in
            [(est.cpu_plane_w, average.cpu_plane_w), (est.gpu_nb_plane_w, average.gpu_nb_plane_w)]
        {
            let expected = sensor.quantize_pub(average);
            assert!((est - expected).abs() < 1e-9, "est {est} vs quantized average {expected}");
        }
    }

    #[test]
    fn windows_integrate_exactly() {
        let a = PowerBreakdown { cpu_plane_w: 10.0, gpu_nb_plane_w: 1.0 };
        let b = PowerBreakdown { cpu_plane_w: 2.0, gpu_nb_plane_w: 3.0 };
        let trace = PowerTrace::interleaved((0.002, a), (0.002, b));
        let mut whole = trace.windows(trace.total_s());
        // The whole-trace window equals the average, on both planes.
        let first = whole.next().unwrap();
        assert!((first.cpu_plane_w - 6.0).abs() < 1e-9, "{first:?}");
        assert!((first.gpu_nb_plane_w - 2.0).abs() < 1e-9, "{first:?}");
        // A window past the end extends the last phase, for as long as asked.
        for past in whole.take(3) {
            assert!((past.cpu_plane_w - 2.0).abs() < 1e-9, "{past:?}");
            assert!((past.gpu_nb_plane_w - 3.0).abs() < 1e-9, "{past:?}");
        }
        // Degenerate windows, and windows over no trace at all.
        assert_eq!(trace.windows(0.0).nth(5), Some(NO_POWER));
        let empty = PowerTrace::interleaved((0.0, a), (0.0, b));
        assert_eq!(empty.windows(0.001).next(), Some(NO_POWER));
    }

    #[test]
    fn a_sweep_reads_what_a_scan_from_the_start_reads() {
        // Narrow windows carry the cursor across every segment boundary;
        // each must equal, to the bit, a fresh sweep started at that lane,
        // which walks the segments from t = 0.
        let a = PowerBreakdown { cpu_plane_w: 10.0, gpu_nb_plane_w: 1.0 };
        let b = PowerBreakdown { cpu_plane_w: 2.0, gpu_nb_plane_w: 3.0 };
        let mut trace = PowerTrace::interleaved((0.0007, a), (0.0004, b));
        trace.scale_time(1.003);
        for samples in [1.0, 3.0, 37.0, 1000.0] {
            let dt = trace.total_s() / samples;
            for (lane, window) in (0..samples as u64 + 3).zip(trace.windows(dt)) {
                let from_start = Windows { lane, ..trace.windows(dt) }.next();
                assert_eq!(Some(window), from_start, "{samples} samples, lane {lane}");
            }
        }
    }

    #[test]
    fn scaling_preserves_structure() {
        let k = kernel();
        let cfg = Configuration::cpu(2, CpuPState(3));
        let mut trace = trace_for(&k, &cfg, &cal());
        let before = trace.average();
        let t_before = trace.total_s();
        trace.scale_time(2.0);
        trace.scale_power(0.5);
        assert!((trace.total_s() - 2.0 * t_before).abs() < 1e-12);
        let after = trace.average();
        assert!((after.total_w() - 0.5 * before.total_w()).abs() < 1e-9);
    }

    #[test]
    fn ideal_sensor_reads_exact_average() {
        let k = kernel();
        let cfg = Configuration::gpu(GpuPState::MAX, CpuPState::MAX);
        let trace = trace_for(&k, &cfg, &cal());
        let sensor = PowerSensor::ideal();
        let noise = NoiseSource::new(0, "ideal", 0, 0);
        assert_eq!(sensor.estimate_trace(&trace, &noise, &noise), trace.average());
    }
}
