//! Opportunistic overclocking ("boost"), the Section VI future-work
//! feature: "This feature allows the CPU to increase its frequency beyond
//! user-selectable levels, but only when there is enough thermal headroom;
//! if the chip is too hot, such frequency boosting will not engage."
//!
//! The Trinity A10-5800K turbos from its 3.8/3.7 GHz base up to 4.2 GHz.
//! We model boost residency with a steady-state thermal model: die
//! temperature is ambient plus thermal resistance times package power, and
//! the boost governor duty-cycles the boost state so the die never exceeds
//! its limit. Lightly-threaded workloads (low package power) therefore
//! boost continuously, while all-core workloads get little or nothing —
//! the behavior the real governor exhibits.

use crate::config::{Configuration, Device};
use crate::cpu::{cpu_time_at, CpuTiming};
use crate::kernel::KernelCharacteristics;
use crate::power::{PowerBreakdown, PowerCalibration};
use crate::pstate::{CpuPState, OperatingPoint};
use serde::{Deserialize, Serialize};

/// Boost operating points above the software-visible P-state ceiling.
pub const BOOST_STATES: [OperatingPoint; 2] =
    [OperatingPoint::new(4.0, 1.3250), OperatingPoint::new(4.2, 1.4000)];

/// Steady-state thermal model of the package.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalModel {
    /// Ambient (inlet) temperature, °C.
    t_ambient_c: f64,
    /// Junction-to-ambient thermal resistance, °C/W.
    r_th_c_per_w: f64,
    /// Maximum junction temperature the boost governor allows, °C.
    t_max_c: f64,
}

impl Default for ThermalModel {
    fn default() -> Self {
        Self { t_ambient_c: 35.0, r_th_c_per_w: 1.10, t_max_c: 95.0 }
    }
}

impl ThermalModel {
    /// The package power at which the die reaches its thermal limit, W.
    #[inline]
    pub fn power_budget_w(&self) -> f64 {
        (self.t_max_c - self.t_ambient_c) / self.r_th_c_per_w
    }

    /// Boost residency in [0, 1]: the duty cycle at which the governor can
    /// run the boosted state so the *average* power stays within the
    /// thermal budget. 1 when even sustained boost fits; 0 when the base
    /// state already saturates the budget.
    fn residency(&self, base_power_w: f64, boost_power_w: f64) -> f64 {
        let budget = self.power_budget_w();
        if boost_power_w <= budget {
            return 1.0;
        }
        if base_power_w >= budget || boost_power_w <= base_power_w {
            return 0.0;
        }
        ((budget - base_power_w) / (boost_power_w - base_power_w)).clamp(0.0, 1.0)
    }
}

/// Outcome of a boosted CPU execution estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoostedRun {
    /// Fraction of time spent in the boost state.
    pub residency: f64,
    /// Effective average core frequency, GHz.
    pub effective_freq_ghz: f64,
    /// Timing at the effective frequency.
    pub timing: CpuTiming,
    /// Average package power including boost residency, W.
    pub power: PowerBreakdown,
}

/// Estimate a CPU-device execution with opportunistic boost enabled on top
/// of the configuration's P-state. Only meaningful when the configured
/// P-state is the software ceiling (the governor boosts from the top
/// state); lower P-states return the unboosted result.
pub fn boosted_cpu_run(
    kernel: &KernelCharacteristics,
    config: &Configuration,
    cal: &PowerCalibration,
    thermal: &ThermalModel,
    boost: OperatingPoint,
) -> BoostedRun {
    assert_eq!(config.device, Device::Cpu, "boost model applies to CPU executions");

    let base_timing = cpu_time_at(kernel, config.cpu_pstate.freq_ghz(), config.threads);
    let base_power = cal.cpu_run_power(kernel, config, &base_timing);

    // Boost only engages from the top software-visible P-state.
    if config.cpu_pstate != CpuPState::MAX {
        return BoostedRun {
            residency: 0.0,
            effective_freq_ghz: config.cpu_pstate.freq_ghz(),
            timing: base_timing,
            power: base_power,
        };
    }

    // Power in the boost state: same activity structure, boost V/f. Reuse
    // the calibrated model by scaling the CPU plane's dynamic+leakage
    // portion with (V²f) and (V²) ratios respectively — a first-order
    // estimate that matches the plane model's structure.
    let base_pt = config.cpu_pstate.point();
    let vf_ratio = (boost.voltage_v * boost.voltage_v * boost.freq_ghz)
        / (base_pt.voltage_v * base_pt.voltage_v * base_pt.freq_ghz);
    let boost_cpu_plane = base_power.cpu_plane_w * vf_ratio;
    let boost_power_total = boost_cpu_plane + base_power.gpu_nb_plane_w;

    let residency = thermal.residency(base_power.total_w(), boost_power_total);
    let f_eff = base_pt.freq_ghz + residency * (boost.freq_ghz - base_pt.freq_ghz);
    let timing = cpu_time_at(kernel, f_eff, config.threads);

    let power = PowerBreakdown {
        cpu_plane_w: base_power.cpu_plane_w * (1.0 - residency) + boost_cpu_plane * residency,
        gpu_nb_plane_w: base_power.gpu_nb_plane_w,
    };

    BoostedRun { residency, effective_freq_ghz: f_eff, timing, power }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> KernelCharacteristics {
        KernelCharacteristics::default()
    }

    fn run(threads: u8, pstate: CpuPState) -> BoostedRun {
        boosted_cpu_run(
            &kernel(),
            &Configuration::cpu(threads, pstate),
            &PowerCalibration::default(),
            &ThermalModel::default(),
            BOOST_STATES[1],
        )
    }

    #[test]
    fn thermal_model_basics() {
        let t = ThermalModel::default();
        assert!(t.power_budget_w() > 40.0 && t.power_budget_w() < 70.0);
    }

    #[test]
    fn residency_extremes() {
        let t = ThermalModel::default();
        let budget = t.power_budget_w();
        assert_eq!(t.residency(10.0, budget - 1.0), 1.0, "boost fits: full residency");
        assert_eq!(t.residency(budget + 1.0, budget + 10.0), 0.0, "already hot: none");
        let partial = t.residency(budget - 10.0, budget + 10.0);
        assert!((partial - 0.5).abs() < 1e-12, "halfway duty cycle, got {partial}");
    }

    #[test]
    fn single_thread_boosts_fully() {
        let r = run(1, CpuPState::MAX);
        assert_eq!(r.residency, 1.0);
        assert!((r.effective_freq_ghz - 4.2).abs() < 1e-12);
    }

    #[test]
    fn all_cores_boost_less_than_one_core() {
        let light = run(1, CpuPState::MAX);
        let heavy = run(4, CpuPState::MAX);
        assert!(
            heavy.residency < light.residency,
            "4T residency {} must trail 1T residency {}",
            heavy.residency,
            light.residency
        );
    }

    #[test]
    fn boost_speeds_up_and_costs_power() {
        let base = cpu_time_at(&kernel(), 3.7, 1);
        let boosted = run(1, CpuPState::MAX);
        assert!(boosted.timing.total_s < base.total_s);
        let unboosted_power = PowerCalibration::default().cpu_run_power(
            &kernel(),
            &Configuration::cpu(1, CpuPState::MAX),
            &base,
        );
        assert!(boosted.power.total_w() > unboosted_power.total_w());
    }

    #[test]
    fn boost_requires_top_pstate() {
        let r = run(2, CpuPState(3));
        assert_eq!(r.residency, 0.0);
        assert_eq!(r.effective_freq_ghz, CpuPState(3).freq_ghz());
    }

    #[test]
    fn boost_never_exceeds_thermal_budget_on_average() {
        let t = ThermalModel::default();
        for threads in 1..=4 {
            let r = run(threads, CpuPState::MAX);
            if r.residency < 1.0 {
                // Partial residency means the governor pinned average
                // power at the budget.
                assert!(
                    r.power.total_w() <= t.power_budget_w() + 1e-9,
                    "threads {threads}: {} W exceeds budget {}",
                    r.power.total_w(),
                    t.power_budget_w()
                );
            }
        }
    }

    #[test]
    fn hot_ambient_disables_boost() {
        let hot = ThermalModel { t_ambient_c: 90.0, ..Default::default() };
        let r = boosted_cpu_run(
            &kernel(),
            &Configuration::cpu(4, CpuPState::MAX),
            &PowerCalibration::default(),
            &hot,
            BOOST_STATES[1],
        );
        assert_eq!(r.residency, 0.0);
    }

    #[test]
    #[should_panic(expected = "CPU executions")]
    fn gpu_config_rejected() {
        let _ = boosted_cpu_run(
            &kernel(),
            &Configuration::gpu(crate::pstate::GpuPState::MAX, CpuPState::MAX),
            &PowerCalibration::default(),
            &ThermalModel::default(),
            BOOST_STATES[0],
        );
    }

    #[test]
    fn boost_states_exceed_software_ceiling() {
        for b in BOOST_STATES {
            assert!(b.freq_ghz > CpuPState::MAX.freq_ghz());
            assert!(b.voltage_v > CpuPState::MAX.voltage_v());
        }
    }
}
