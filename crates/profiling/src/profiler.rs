//! The integrated profiling library (Section III-D).
//!
//! On real hardware the library wraps kernels with instrumentation pragmas
//! that a preprocessor lowers to enter/exit calls recording counters and
//! power. Here the profiler drives the [`acs_sim::Machine`] instead, but
//! exposes the same shape of API: per-kernel, per-iteration samples pushed
//! into a shared [`History`].
//!
//! The paper reports two overheads (Section IV-C): <50 µs to record a
//! sample, and <10% from the 1 kHz power-estimate sampling loop. Both can
//! be enabled via [`Profiler::with_overheads`] to study their effect; the
//! default profiler is overhead-free so model error can be isolated from
//! instrumentation error.

use crate::history::History;
use crate::sample::ProfileSample;
use acs_sim::{Configuration, KernelCharacteristics, Machine};
use std::sync::Arc;

/// Drives simulated kernel executions and records them.
#[derive(Debug, Clone)]
pub struct Profiler {
    machine: Machine,
    history: Arc<History>,
    /// Fixed cost of recording one sample, seconds.
    record_overhead_s: f64,
    /// Relative slowdown from the power-sampling loop.
    sampling_overhead_frac: f64,
}

impl Profiler {
    /// An overhead-free profiler on the given machine.
    pub fn new(machine: Machine) -> Self {
        Self {
            machine,
            history: Arc::new(History::new()),
            record_overhead_s: 0.0,
            sampling_overhead_frac: 0.0,
        }
    }

    /// A profiler modeling the paper's measured instrumentation overheads:
    /// `record_overhead_s` per sample (paper: < 50 µs) and a relative
    /// `sampling_overhead_frac` slowdown (paper: < 10%).
    pub fn with_overheads(
        machine: Machine,
        record_overhead_s: f64,
        sampling_overhead_frac: f64,
    ) -> Self {
        assert!(record_overhead_s >= 0.0 && sampling_overhead_frac >= 0.0);
        Self {
            machine,
            history: Arc::new(History::new()),
            record_overhead_s,
            sampling_overhead_frac,
        }
    }

    /// The shared history this profiler records into.
    pub fn history(&self) -> &Arc<History> {
        &self.history
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Execute one iteration of a kernel at a configuration, record it,
    /// and return the sample.
    pub fn profile(
        &self,
        kernel: &KernelCharacteristics,
        config: &Configuration,
        iteration: u64,
    ) -> ProfileSample {
        let run = self.machine.run_iter(kernel, config, iteration);
        let mut sample = ProfileSample::from_run(&kernel.id(), iteration, &run);
        sample.time_s =
            sample.time_s * (1.0 + self.sampling_overhead_frac) + self.record_overhead_s;
        self.history.record(sample.clone());
        sample
    }

    /// Profile a kernel across the entire configuration space (the offline
    /// characterization sweep), recording every sample.
    pub fn sweep(&self, kernel: &KernelCharacteristics) -> Vec<ProfileSample> {
        Configuration::all().iter().map(|c| self.profile(kernel, c, 0)).collect()
    }

    /// Total instrumented wall time currently recorded, seconds. The
    /// offline stage must stay cheap — the paper's training runs take
    /// under two hours.
    pub fn recorded_time_s(&self) -> f64 {
        self.history
            .kernel_ids()
            .iter()
            .flat_map(|id| self.history.samples(id))
            .map(|s| s.time_s)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_sim::CpuPState;

    fn kernel() -> KernelCharacteristics {
        KernelCharacteristics::default()
    }

    #[test]
    fn profile_records_into_history() {
        let p = Profiler::new(Machine::noiseless(0));
        let k = kernel();
        let s = p.profile(&k, &Configuration::cpu(2, CpuPState::MAX), 0);
        assert_eq!(p.history().sample_count(&k.id()), 1);
        assert_eq!(p.history().samples(&k.id())[0], s);
    }

    #[test]
    fn sweep_covers_configuration_space() {
        let p = Profiler::new(Machine::noiseless(0));
        let k = kernel();
        let samples = p.sweep(&k);
        assert_eq!(samples.len(), Configuration::space_size());
        assert_eq!(p.history().sample_count(&k.id()), Configuration::space_size());
    }

    #[test]
    fn overheads_inflate_measured_time() {
        let k = kernel();
        let cfg = Configuration::cpu(4, CpuPState::MAX);
        let clean = Profiler::new(Machine::noiseless(0)).profile(&k, &cfg, 0);
        let dirty =
            Profiler::with_overheads(Machine::noiseless(0), 50e-6, 0.05).profile(&k, &cfg, 0);
        let expected = clean.time_s * 1.05 + 50e-6;
        assert!((dirty.time_s - expected).abs() < 1e-12);
    }

    #[test]
    fn paper_overhead_bound_holds() {
        // With the paper's worst-case overheads, a millisecond-scale kernel
        // still measures within ~15% of its true time.
        let k = kernel();
        let cfg = Configuration::cpu(4, CpuPState::MAX);
        let clean = Profiler::new(Machine::noiseless(0)).profile(&k, &cfg, 0);
        let dirty =
            Profiler::with_overheads(Machine::noiseless(0), 50e-6, 0.10).profile(&k, &cfg, 0);
        assert!(dirty.time_s / clean.time_s < 1.15);
    }

    #[test]
    fn recorded_time_accumulates() {
        let p = Profiler::new(Machine::noiseless(0));
        let k = kernel();
        let s1 = p.profile(&k, &Configuration::cpu(1, CpuPState::MIN), 0);
        let s2 = p.profile(&k, &Configuration::cpu(4, CpuPState::MAX), 1);
        assert!((p.recorded_time_s() - (s1.time_s + s2.time_s)).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn negative_overheads_rejected() {
        let _ = Profiler::with_overheads(Machine::noiseless(0), -1.0, 0.0);
    }
}
