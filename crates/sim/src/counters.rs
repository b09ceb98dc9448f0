//! Synthetic performance counters.
//!
//! The paper records eleven hardware events per kernel execution via PAPI
//! and the northbridge PMU (Section III-B) and normalizes them to cycles,
//! reference cycles, and instructions. We synthesize the same events from
//! the kernel latents, so the classification tree faces the same learning
//! problem: counter-derived rates that correlate with power/performance
//! scaling behavior, measured only at the two sample configurations.

use crate::config::Device;
use crate::kernel::KernelCharacteristics;
use crate::noise::{NoiseSource, Stream};
use serde::{Deserialize, Serialize};

/// Raw event counts for one kernel execution (floating point: these are
/// large aggregates, not exact integers).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CounterSet {
    /// Retired instructions (host CPU).
    pub instructions: f64,
    /// Aggregate busy core cycles across active cores.
    pub core_cycles: f64,
    /// Reference (fixed-rate) cycles across active cores.
    pub(crate) ref_cycles: f64,
    /// L1 data-cache misses.
    pub(crate) l1d_misses: f64,
    /// L2 data-cache misses.
    pub(crate) l2d_misses: f64,
    /// Data TLB misses.
    pub(crate) tlb_misses: f64,
    /// Retired conditional branches.
    pub(crate) branches: f64,
    /// Retired vector (packed SIMD) instructions.
    pub(crate) vector_instructions: f64,
    /// Cycles stalled on any resource.
    pub(crate) stalled_cycles: f64,
    /// Cycles the module FPU was idle.
    pub(crate) fpu_idle_cycles: f64,
    /// Timer and device interrupts observed during the execution.
    pub(crate) interrupts: f64,
    /// DRAM accesses observed by the northbridge PMU (includes GPU traffic).
    pub dram_accesses: f64,
}

/// Timing facts the counter generator needs about an execution.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CounterInputs {
    /// Executing device.
    pub(crate) device: Device,
    /// Total wall time, seconds.
    pub(crate) total_s: f64,
    /// Host-CPU busy time (all of it for CPU runs; serial + launch for GPU
    /// runs), seconds.
    pub(crate) host_busy_s: f64,
    /// Time stalled on DRAM, seconds.
    pub(crate) memory_s: f64,
    /// Active CPU threads.
    pub(crate) threads: u8,
    /// Host CPU core frequency, GHz.
    pub(crate) cpu_freq_ghz: f64,
}

/// Base in-flight IPC of the host cores when not stalled.
const BASE_IPC: f64 = 1.4;
/// Timer interrupt rate, Hz (Linux CONFIG_HZ=250 as in the paper's setup).
const TIMER_HZ: f64 = 250.0;
/// Fixed TSC reference rate, GHz.
const REF_CLOCK_GHZ: f64 = 3.7;
/// Relative noise applied to each raw count.
const COUNT_SIGMA: f64 = 0.02;

/// Generate the counter set for one execution.
pub(crate) fn generate(
    kernel: &KernelCharacteristics,
    inputs: &CounterInputs,
    noise: &NoiseSource,
) -> CounterSet {
    let mem_intensity = kernel.memory_boundedness();
    let ws_big = (kernel.working_set_mb / 64.0).clamp(0.0, 1.0);

    // Host instruction stream. GPU runs only retire the serial + driver
    // portion on the CPU.
    let inst = (inputs.host_busy_s * inputs.cpu_freq_ghz * 1e9 * BASE_IPC).max(1.0)
        * noise.jitter(Stream::Instructions, COUNT_SIGMA);

    let threads = f64::from(inputs.threads.max(1));
    let core_cycles = inputs.total_s * inputs.cpu_freq_ghz * 1e9 * threads;
    let ref_cycles = inputs.total_s * REF_CLOCK_GHZ * 1e9 * threads;

    // Cache/TLB miss rates per kilo-instruction, driven by memory intensity
    // and working-set size.
    let l1_mpki = (1.0 + 45.0 * mem_intensity) * noise.jitter(Stream::L1Miss, COUNT_SIGMA);
    let l2_share = 0.15 + 0.75 * ws_big;
    let tlb_mpki = (0.05 + 3.0 * ws_big) * noise.jitter(Stream::TlbMiss, COUNT_SIGMA);

    let l1d = inst / 1000.0 * l1_mpki;
    let l2d = l1d * l2_share * noise.jitter(Stream::L2Miss, COUNT_SIGMA);

    let branches =
        inst * (0.05 + 0.25 * kernel.branch_divergence) * noise.jitter(Stream::Branch, COUNT_SIGMA);
    let vector = inst * kernel.vector_fraction * 0.4 * noise.jitter(Stream::Vector, COUNT_SIGMA);

    let stall_frac =
        if inputs.total_s > 0.0 { (inputs.memory_s / inputs.total_s).clamp(0.0, 1.0) } else { 0.0 };
    let stalled =
        core_cycles * (0.08 + 0.85 * stall_frac) * noise.jitter(Stream::Stall, COUNT_SIGMA);
    let fpu_idle = core_cycles
        * (1.0 - 0.8 * kernel.vector_fraction)
        * 0.6
        * noise.jitter(Stream::FpuIdle, COUNT_SIGMA);

    let interrupts =
        (inputs.total_s * TIMER_HZ).max(1.0) * noise.jitter(Stream::Interrupt, COUNT_SIGMA);

    // NB PMU sees all DRAM traffic, including the GPU's. Approximate total
    // traffic from the kernel's memory time (one cache line per ~4 ns of
    // DRAM-bound time per saturating agent).
    let agents = match inputs.device {
        Device::Cpu => threads.min(kernel.bw_saturation_threads),
        Device::Gpu => kernel.gpu_bw_advantage * kernel.bw_saturation_threads,
    };
    let dram =
        (kernel.memory_time_s * agents * 2.5e8).max(0.0) * noise.jitter(Stream::Dram, COUNT_SIGMA);

    CounterSet {
        instructions: inst,
        core_cycles,
        ref_cycles,
        l1d_misses: l1d,
        l2d_misses: l2d,
        tlb_misses: inst / 1000.0 * tlb_mpki,
        branches,
        vector_instructions: vector,
        stalled_cycles: stalled,
        fpu_idle_cycles: fpu_idle,
        interrupts,
        dram_accesses: dram,
    }
}

impl CounterSet {
    /// Normalized rates, matching the paper's normalization of every count
    /// to cycles, reference cycles, or instructions. These are the inputs
    /// to the classification tree (together with sample power draws).
    pub fn normalized_features(&self) -> [f64; 10] {
        let inst = self.instructions.max(1.0);
        let cycles = self.core_cycles.max(1.0);
        let refc = self.ref_cycles.max(1.0);
        [
            self.instructions / cycles,
            self.l1d_misses / inst * 1000.0,
            self.l2d_misses / inst * 1000.0,
            self.tlb_misses / inst * 1000.0,
            self.branches / inst,
            self.vector_instructions / inst,
            self.stalled_cycles / cycles,
            self.fpu_idle_cycles / cycles,
            self.interrupts / refc * 1e9,
            self.dram_accesses / inst * 1000.0,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> CounterInputs {
        CounterInputs {
            device: Device::Cpu,
            total_s: 0.014,
            host_busy_s: 0.010,
            memory_s: 0.004,
            threads: 4,
            cpu_freq_ghz: 3.7,
        }
    }

    fn noise() -> NoiseSource {
        NoiseSource::new(1, "counters-test", 0, 0)
    }

    #[test]
    fn counts_are_positive() {
        let c = generate(&KernelCharacteristics::default(), &inputs(), &noise());
        for (i, v) in [
            c.instructions,
            c.core_cycles,
            c.ref_cycles,
            c.l1d_misses,
            c.l2d_misses,
            c.tlb_misses,
            c.branches,
            c.vector_instructions,
            c.stalled_cycles,
            c.fpu_idle_cycles,
            c.interrupts,
            c.dram_accesses,
        ]
        .iter()
        .enumerate()
        {
            assert!(*v >= 0.0, "count {i} negative: {v}");
        }
    }

    #[test]
    fn l2_misses_do_not_exceed_l1_misses() {
        // L2 misses are a subset of L1 misses (inclusive hierarchy); the
        // jitter band (≤2x) times the max share (0.9) stays below 2.0,
        // but assert the modeled relation directly.
        let k = KernelCharacteristics { working_set_mb: 512.0, ..Default::default() };
        let c = generate(&k, &inputs(), &noise());
        assert!(c.l2d_misses <= c.l1d_misses * 2.0);
    }

    #[test]
    fn memory_bound_kernel_has_high_stall_fraction() {
        let k = KernelCharacteristics::default();
        let membound = CounterInputs { memory_s: 0.012, host_busy_s: 0.002, ..inputs() };
        let c = generate(&k, &membound, &noise());
        let f = c.normalized_features();
        assert!(f[6] > 0.5, "stall fraction {}", f[6]);
    }

    #[test]
    fn vector_kernel_has_more_vector_instructions() {
        let scalar = KernelCharacteristics { vector_fraction: 0.0, ..Default::default() };
        let simd = KernelCharacteristics { vector_fraction: 0.9, ..Default::default() };
        let cs = generate(&scalar, &inputs(), &noise());
        let cv = generate(&simd, &inputs(), &noise());
        assert_eq!(cs.vector_instructions, 0.0);
        assert!(cv.vector_instructions > 0.0);
        assert!(cv.fpu_idle_cycles < cs.fpu_idle_cycles);
    }

    #[test]
    fn gpu_run_retires_fewer_host_instructions() {
        let k = KernelCharacteristics::default();
        let cpu = generate(&k, &inputs(), &noise());
        let gpu_inputs =
            CounterInputs { device: Device::Gpu, host_busy_s: 0.001, threads: 1, ..inputs() };
        let gpu = generate(&k, &gpu_inputs, &noise());
        assert!(gpu.instructions < cpu.instructions / 4.0);
    }

    #[test]
    fn features_are_finite_and_bounded() {
        let c = generate(&KernelCharacteristics::default(), &inputs(), &noise());
        let f = c.normalized_features();
        for (i, v) in f.iter().enumerate() {
            assert!(v.is_finite(), "feature {i} not finite");
            assert!(*v >= 0.0, "feature {i} negative");
        }
        // IPC below machine width, stall fraction a fraction.
        assert!(f[0] < 4.0);
        assert!(f[6] <= 1.2);
    }

    #[test]
    fn deterministic_given_same_noise_address() {
        let k = KernelCharacteristics::default();
        let a = generate(&k, &inputs(), &noise());
        let b = generate(&k, &inputs(), &noise());
        assert_eq!(a, b);
    }

    #[test]
    fn zero_duration_run_is_safe() {
        let k = KernelCharacteristics::default();
        let zero = CounterInputs { total_s: 0.0, host_busy_s: 0.0, memory_s: 0.0, ..inputs() };
        let c = generate(&k, &zero, &noise());
        let f = c.normalized_features();
        assert!(f.iter().all(|v| v.is_finite()));
    }
}
