//! The power-limiting methods compared in Section V: `Oracle`, `Model`,
//! `Model+FL`, `CPU+FL`, and `GPU+FL`. Each maps a power cap to a
//! configuration for one kernel; they differ in what information they may
//! consult:
//!
//! * **Oracle** — perfect knowledge: the true power/performance of every
//!   configuration.
//! * **Model** — predictions only, from two sample iterations.
//! * **Model+FL** — the model's pick, corrected by a frequency limiter
//!   that observes measured power.
//! * **CPU+FL / GPU+FL** — state-of-the-practice RAPL-style limiting with
//!   a fixed device policy; no model at all.

use crate::frontier::Frontier;
use crate::limiter::{
    limit_active_device, limit_cpu_freq, limit_gpu_freq, raise_cpu_freq_within, start,
};
use crate::profile::KernelProfile;
use acs_sim::Configuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a power-limiting method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Perfect-knowledge oracle.
    Oracle,
    /// Model predictions alone.
    Model,
    /// Model predictions plus frequency limiting.
    ModelFL,
    /// CPU-focused frequency limiting (all cores, GPU parked).
    CpuFL,
    /// GPU-focused frequency limiting (GPU max, host CPU raised into
    /// remaining headroom).
    GpuFL,
}

impl Method {
    /// The four non-oracle methods, in the paper's Table III order.
    pub const COMPARED: [Method; 4] =
        [Method::Model, Method::ModelFL, Method::GpuFL, Method::CpuFL];

    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Oracle => "Oracle",
            Method::Model => "Model",
            Method::ModelFL => "Model+FL",
            Method::CpuFL => "CPU+FL",
            Method::GpuFL => "GPU+FL",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Select the oracle configuration for a cap: the best-performing
/// configuration whose *true* power meets the cap, or the minimum-power
/// configuration if none does.
pub fn oracle_select(profile: &KernelProfile, cap_w: f64) -> Configuration {
    profile.oracle_frontier().select(cap_w).0.config
}

/// The CPU+FL baseline: all cores enabled, GPU at minimum frequency, CPU
/// P-state walked down to meet the cap.
pub fn cpu_fl_select(cap_w: f64, measure: impl FnMut(&Configuration) -> f64) -> Configuration {
    limit_cpu_freq(start::cpu_fl(), cap_w, measure).config
}

/// The GPU+FL baseline: GPU frequency walked down from maximum with the
/// host CPU at minimum; any remaining headroom is spent raising the host
/// CPU frequency.
pub fn gpu_fl_select(cap_w: f64, mut measure: impl FnMut(&Configuration) -> f64) -> Configuration {
    let limited = limit_gpu_freq(start::gpu_fl(), cap_w, &mut measure);
    if !limited.met {
        return limited.config;
    }
    raise_cpu_freq_within(limited.config, cap_w, measure).config
}

/// Dispatch a method for one kernel. The model methods see only
/// `predicted`, the frontier [`Predictor::predict`] derives from the
/// kernel's two Table II runs: it does not depend on the cap, so the
/// caller builds it once per kernel, and `Model` is its
/// [`Frontier::select`] at each cap. Measurement-driven methods read
/// sensor power from `profile` (equivalent to running the kernel at each
/// probed configuration).
///
/// [`Predictor::predict`]: crate::online::Predictor::predict
pub fn select(
    method: Method,
    profile: &KernelProfile,
    predicted: &Frontier,
    cap_w: f64,
) -> Configuration {
    let measure = |c: &Configuration| profile.run_at(c).power_w();
    match method {
        Method::Oracle => oracle_select(profile, cap_w),
        Method::Model => predicted.select(cap_w).0.config,
        Method::ModelFL => {
            // The model's pick, then the frequency limiter pulls the
            // active device's P-state down while measured power exceeds
            // the cap.
            let picked = predicted.select(cap_w).0.config;
            limit_active_device(picked, cap_w, measure).config
        }
        Method::CpuFL => cpu_fl_select(cap_w, measure),
        Method::GpuFL => gpu_fl_select(cap_w, measure),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::{train, TrainingParams};
    use crate::online::Predictor;
    use crate::profile::collect_suite;
    use acs_sim::{CpuPState, Device, KernelCharacteristics, Machine};

    fn kernels() -> Vec<KernelCharacteristics> {
        let mut ks = Vec::new();
        for i in 0..4u32 {
            let s = 1.0 + i as f64 * 0.2;
            ks.push(KernelCharacteristics {
                name: format!("gpu-friendly-{i}"),
                gpu_speedup: 12.0 * s,
                compute_time_s: 0.012 * s,
                ..Default::default()
            });
            ks.push(KernelCharacteristics {
                name: format!("membound-{i}"),
                compute_time_s: 0.001 * s,
                memory_time_s: 0.012 * s,
                gpu_speedup: 3.0,
                ..Default::default()
            });
            ks.push(KernelCharacteristics {
                name: format!("divergent-{i}"),
                gpu_speedup: 1.2,
                branch_divergence: 0.7,
                parallel_fraction: 0.85,
                ..Default::default()
            });
        }
        ks
    }

    #[test]
    fn oracle_is_optimal_under_cap() {
        let profiles = collect_suite(&Machine::new(3), &kernels());
        for profile in &profiles {
            for cap in [12.0, 18.0, 25.0, 40.0, 1e9] {
                let cfg = oracle_select(profile, cap);
                let picked = profile.run_at(&cfg);
                if picked.true_power_w() <= cap {
                    // No configuration under the cap may beat it.
                    for r in &profile.runs {
                        if r.true_power_w() <= cap {
                            assert!(
                                r.time_s >= picked.time_s - 1e-12,
                                "{}: {} beats oracle {} at cap {cap}",
                                profile.kernel.id(),
                                r.config,
                                cfg
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn oracle_falls_back_to_min_power() {
        let profiles = collect_suite(&Machine::new(3), &kernels()[..1]);
        let cfg = oracle_select(&profiles[0], 0.0);
        let picked = profiles[0].run_at(&cfg).true_power_w();
        for r in &profiles[0].runs {
            assert!(picked <= r.true_power_w() + 1e-9);
        }
    }

    #[test]
    fn cpu_fl_always_uses_all_cores_and_cpu() {
        let profiles = collect_suite(&Machine::new(3), &kernels()[..2]);
        let measure = |c: &Configuration| profiles[0].run_at(c).power_w();
        for cap in [5.0, 15.0, 25.0, 1e9] {
            let cfg = cpu_fl_select(cap, measure);
            assert_eq!(cfg.device, Device::Cpu);
            assert_eq!(cfg.threads, 4, "CPU+FL always runs on four threads");
        }
    }

    #[test]
    fn gpu_fl_always_uses_gpu() {
        let profiles = collect_suite(&Machine::new(3), &kernels()[..2]);
        let measure = |c: &Configuration| profiles[0].run_at(c).power_w();
        for cap in [5.0, 15.0, 25.0, 1e9] {
            let cfg = gpu_fl_select(cap, measure);
            assert_eq!(cfg.device, Device::Gpu);
        }
    }

    #[test]
    fn gpu_fl_spends_headroom_on_cpu() {
        let profiles = collect_suite(&Machine::new(3), &kernels()[..1]);
        let measure = |c: &Configuration| profiles[0].run_at(c).power_w();
        let generous = gpu_fl_select(1e9, measure);
        assert_eq!(generous.cpu_pstate, CpuPState::MAX, "unlimited cap: host CPU raised fully");
        assert_eq!(generous.gpu_pstate.freq_ghz(), 0.819);
    }

    #[test]
    fn model_methods_respect_predicted_caps() {
        let profiles = collect_suite(&Machine::new(3), &kernels());
        let model =
            train(&profiles, TrainingParams { n_clusters: 3, ..Default::default() }).unwrap();
        let p = &profiles[0];
        let predicted = Predictor::new(&model).predict(&p.sample_pair()).frontier;
        for cap in [12.0, 20.0, 30.0] {
            let pick = |m| select(m, p, &predicted, cap);
            let (plain, fl) = (pick(Method::Model), pick(Method::ModelFL));
            // With FL, measured power can only be <= the plain pick's
            // measured power (FL only steps down).
            assert!(
                p.run_at(&fl).power_w() <= p.run_at(&plain).power_w() + 1e-9,
                "FL must not raise power"
            );
        }
    }

    #[test]
    fn method_names_match_paper() {
        assert_eq!(Method::ModelFL.to_string(), "Model+FL");
        assert_eq!(Method::CpuFL.to_string(), "CPU+FL");
        assert_eq!(Method::GpuFL.to_string(), "GPU+FL");
        assert_eq!(Method::COMPARED.len(), 4);
    }
}
