//! Per-kernel characterization data: the full-configuration-space sweep the
//! offline stage trains on, plus views of it (Pareto frontier, sample pair,
//! per-device observations).

use crate::features::{sample_config, SamplePair};
use crate::frontier::{Frontier, PowerPerfPoint};
use acs_sim::{Configuration, Device, KernelCharacteristics, KernelRun, Machine};
use serde::{Deserialize, Serialize};

/// A kernel plus its observations at every configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// The kernel's identity (and, for the simulator, its latents — the
    /// model code only reads `id`, `benchmark`, `input`, and `weight`).
    pub kernel: KernelCharacteristics,
    /// One run per configuration, aligned with `Configuration::all()`
    /// order (`runs[c.index()]` is configuration `c`).
    pub runs: Vec<KernelRun>,
}

impl KernelProfile {
    /// Characterize a kernel by sweeping the full configuration space.
    pub fn collect(machine: &Machine, kernel: &KernelCharacteristics) -> Self {
        Self { kernel: kernel.clone(), runs: machine.sweep(kernel) }
    }

    /// The run at a specific configuration.
    pub fn run_at(&self, config: &Configuration) -> &KernelRun {
        &self.runs[config.index()]
    }

    /// Measured (sensor) power/performance points for every configuration.
    pub fn measured_points(&self) -> Vec<PowerPerfPoint> {
        self.runs
            .iter()
            .map(|r| PowerPerfPoint {
                config: r.config,
                power_w: r.power_w(),
                perf: 1.0 / r.time_s,
            })
            .collect()
    }

    /// Ground-truth power/performance points (true power, not the sensor
    /// estimate) — what a perfect-knowledge oracle sees.
    pub fn true_points(&self) -> Vec<PowerPerfPoint> {
        self.runs
            .iter()
            .map(|r| PowerPerfPoint {
                config: r.config,
                power_w: r.true_power_w(),
                perf: 1.0 / r.time_s,
            })
            .collect()
    }

    /// The measured Pareto frontier (what the offline stage clusters on).
    pub fn frontier(&self) -> Frontier {
        Frontier::from_points(self.measured_points())
    }

    /// The oracle's Pareto frontier (true power).
    pub fn oracle_frontier(&self) -> Frontier {
        Frontier::from_points(self.true_points())
    }

    /// The two sample-configuration observations (Table II).
    pub fn sample_pair(&self) -> SamplePair {
        SamplePair::new(
            self.run_at(&sample_config(Device::Cpu)).clone(),
            self.run_at(&sample_config(Device::Gpu)).clone(),
        )
    }

    /// The best-performing run regardless of power (for normalization).
    pub fn best_run(&self) -> &KernelRun {
        self.runs
            .iter()
            .min_by(|a, b| a.time_s.partial_cmp(&b.time_s).unwrap())
            .expect("profiles contain at least one run")
    }
}

/// Characterize a whole suite, in suite order.
pub fn collect_suite(machine: &Machine, kernels: &[KernelCharacteristics]) -> Vec<KernelProfile> {
    kernels.iter().map(|k| KernelProfile::collect(machine, k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_sim::CpuPState;

    fn profile() -> KernelProfile {
        KernelProfile::collect(&Machine::noiseless(0), &KernelCharacteristics::default())
    }

    #[test]
    fn collect_covers_space_in_index_order() {
        let p = profile();
        assert_eq!(p.runs.len(), Configuration::space_size());
        for (i, r) in p.runs.iter().enumerate() {
            assert_eq!(r.config.index(), i);
        }
    }

    #[test]
    fn run_at_returns_matching_config() {
        let p = profile();
        let c = Configuration::cpu(3, CpuPState(2));
        assert_eq!(p.run_at(&c).config, c);
    }

    #[test]
    fn frontier_is_nonempty_and_within_space() {
        let p = profile();
        let f = p.frontier();
        assert!(!f.is_empty());
        assert!(f.len() <= Configuration::space_size());
    }

    #[test]
    fn noiseless_measured_equals_true_frontier() {
        // The ideal sensor reads the trace's time-average, which equals
        // the closed-form average power up to floating-point association.
        let p = profile();
        let measured = p.frontier();
        let oracle = p.oracle_frontier();
        assert_eq!(measured.len(), oracle.len());
        for (m, o) in measured.points().iter().zip(oracle.points()) {
            assert_eq!(m.config, o.config);
            assert!((m.power_w - o.power_w).abs() < 1e-9);
            assert_eq!(m.perf, o.perf);
        }
    }

    #[test]
    fn best_run_matches_frontier_top() {
        let p = profile();
        let f = p.oracle_frontier();
        assert_eq!(f.max_perf().unwrap().config, p.best_run().config);
    }

    #[test]
    fn sample_pair_devices() {
        let p = profile();
        let s = p.sample_pair();
        assert_eq!(s.cpu.config.device, Device::Cpu);
        assert_eq!(s.gpu.config.device, Device::Gpu);
    }

    #[test]
    fn suite_collection_is_deterministic() {
        let m = Machine::new(9);
        let ks = vec![
            KernelCharacteristics::default(),
            KernelCharacteristics { name: "b".into(), ..Default::default() },
        ];
        let a = collect_suite(&m, &ks);
        let b = collect_suite(&m, &ks);
        assert_eq!(a, b);
        assert_eq!(a[0], KernelProfile::collect(&m, &ks[0]));
    }
}
