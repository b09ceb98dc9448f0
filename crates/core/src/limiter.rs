//! Simulated RAPL-style frequency limiting (Section V-A).
//!
//! "RAPL dynamically adjusts CPU core frequency to meet an imposed power
//! constraint. Our test system is not equipped with RAPL, so we simulate
//! its behavior" — exactly what this module does, for both the CPU and the
//! GPU. The limiter only observes *measured* power (the on-chip estimate)
//! for the configuration it is currently running; it never sees the model
//! or the true power.

use acs_sim::{Configuration, CpuPState, Device, GpuPState};

/// Outcome of a frequency-limiting walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LimitResult {
    /// The configuration the limiter settled on.
    pub config: Configuration,
    /// Number of P-state changes performed.
    steps: u32,
    /// Whether the final measured power met the cap.
    pub(crate) met: bool,
    /// Measured power still above the cap at the settled configuration,
    /// W. Zero when `met`; positive when the cap is below the minimum
    /// achievable power (the walk terminates at the floor and reports the
    /// shortfall instead of looping).
    residual_w: f64,
}

/// Walk the *CPU* P-state of `config` down from its current state until
/// measured power meets `cap_w` or the floor is reached.
pub(crate) fn limit_cpu_freq(
    mut config: Configuration,
    cap_w: f64,
    mut measure: impl FnMut(&Configuration) -> f64,
) -> LimitResult {
    let mut steps = 0;
    loop {
        let power = measure(&config);
        if power <= cap_w {
            return LimitResult { config, steps, met: true, residual_w: 0.0 };
        }
        match config.cpu_pstate.step_down() {
            Some(lower) => {
                config.cpu_pstate = lower;
                steps += 1;
            }
            None => return LimitResult { config, steps, met: false, residual_w: power - cap_w },
        }
    }
}

/// Walk the *GPU* P-state down until measured power meets `cap_w` or the
/// floor is reached. Only meaningful for GPU-device configurations.
pub(crate) fn limit_gpu_freq(
    mut config: Configuration,
    cap_w: f64,
    mut measure: impl FnMut(&Configuration) -> f64,
) -> LimitResult {
    debug_assert_eq!(config.device, Device::Gpu);
    let mut steps = 0;
    loop {
        let power = measure(&config);
        if power <= cap_w {
            return LimitResult { config, steps, met: true, residual_w: 0.0 };
        }
        match config.gpu_pstate.step_down() {
            Some(lower) => {
                config.gpu_pstate = lower;
                steps += 1;
            }
            None => return LimitResult { config, steps, met: false, residual_w: power - cap_w },
        }
    }
}

/// Raise the CPU P-state as far as possible while measured power stays
/// within `cap_w` (the "power headroom" step of the GPU+FL baseline).
pub(crate) fn raise_cpu_freq_within(
    mut config: Configuration,
    cap_w: f64,
    mut measure: impl FnMut(&Configuration) -> f64,
) -> LimitResult {
    let mut steps = 0;
    let start_power = measure(&config);
    let met = start_power <= cap_w;
    while let Some(higher) = config.cpu_pstate.step_up() {
        let candidate = Configuration { cpu_pstate: higher, ..config };
        if measure(&candidate) <= cap_w {
            config = candidate;
            steps += 1;
        } else {
            break;
        }
    }
    LimitResult { config, steps, met, residual_w: (start_power - cap_w).max(0.0) }
}

/// Frequency-limit whichever device executes `config`: CPU-device configs
/// walk the CPU P-state; GPU-device configs walk the GPU P-state first and
/// then, if still over, the host CPU P-state (the launch overhead draws
/// CPU power too).
pub fn limit_active_device(
    config: Configuration,
    cap_w: f64,
    mut measure: impl FnMut(&Configuration) -> f64,
) -> LimitResult {
    match config.device {
        Device::Cpu => limit_cpu_freq(config, cap_w, measure),
        Device::Gpu => {
            let first = limit_gpu_freq(config, cap_w, &mut measure);
            if first.met {
                return first;
            }
            let second = limit_cpu_freq(first.config, cap_w, measure);
            LimitResult { steps: first.steps + second.steps, ..second }
        }
    }
}

/// Convenience constructors for the baselines' starting configurations.
pub mod start {
    use super::*;

    /// CPU+FL starting point: all cores, fastest CPU P-state, GPU parked.
    pub(crate) fn cpu_fl() -> Configuration {
        Configuration::cpu(acs_sim::NUM_CPU_CORES, CpuPState::MAX)
    }

    /// GPU+FL starting point: GPU at maximum frequency, host CPU at
    /// minimum.
    pub(crate) fn gpu_fl() -> Configuration {
        Configuration::gpu(GpuPState::MAX, CpuPState::MIN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy power function: monotone in both frequencies.
    fn toy_power(c: &Configuration) -> f64 {
        let cpu = c.cpu_pstate.freq_ghz() * f64::from(c.threads) * 2.0;
        let gpu = match c.device {
            Device::Gpu => c.gpu_pstate.freq_ghz() * 20.0,
            Device::Cpu => 1.0,
        };
        5.0 + cpu + gpu
    }

    #[test]
    fn cpu_walk_stops_at_first_fit() {
        let start = start::cpu_fl();
        let full = toy_power(&start);
        let r = limit_cpu_freq(start, full - 1.0, toy_power);
        assert!(r.met);
        assert_eq!(r.steps, 1, "one step down suffices");
        assert!(toy_power(&r.config) <= full - 1.0);
    }

    #[test]
    fn cpu_walk_hits_floor_when_cap_unreachable() {
        let r = limit_cpu_freq(start::cpu_fl(), 0.0, toy_power);
        assert!(!r.met);
        assert_eq!(r.config.cpu_pstate, CpuPState::MIN);
        assert_eq!(r.steps, (CpuPState::COUNT - 1) as u32);
        // The shortfall at the floor is reported, not looped on.
        let floor = Configuration::cpu(acs_sim::NUM_CPU_CORES, CpuPState::MIN);
        assert!((r.residual_w - toy_power(&floor)).abs() < 1e-12);
    }

    #[test]
    fn unreachable_cap_settles_on_min_power_with_residual() {
        // Regression: a cap below the minimum achievable power must
        // terminate at the min-power config with the residual violation
        // reported — bounded measurements, no panic, no infinite walk.
        let mut calls = 0u32;
        let cap = 1.0; // toy_power floor is > 6 W
        let r = limit_active_device(start::gpu_fl(), cap, |c| {
            calls += 1;
            assert!(calls < 64, "limiter must terminate");
            toy_power(c)
        });
        assert!(!r.met);
        assert_eq!(r.config.gpu_pstate, GpuPState::MIN);
        assert_eq!(r.config.cpu_pstate, CpuPState::MIN);
        let floor_power = toy_power(&r.config);
        assert!((r.residual_w - (floor_power - cap)).abs() < 1e-12);
        assert!(r.residual_w > 0.0);
        // A met walk reports zero residual.
        let ok = limit_cpu_freq(start::cpu_fl(), 1e9, toy_power);
        assert!(ok.met);
        assert_eq!(ok.residual_w, 0.0);
    }

    #[test]
    fn no_walk_when_already_under() {
        let r = limit_cpu_freq(start::cpu_fl(), 1e9, toy_power);
        assert!(r.met);
        assert_eq!(r.steps, 0);
        assert_eq!(r.config, start::cpu_fl());
    }

    #[test]
    fn gpu_walk_reduces_gpu_state() {
        let start = start::gpu_fl();
        let cap = toy_power(&Configuration::gpu(GpuPState(0), CpuPState::MIN)) + 0.1;
        let r = limit_gpu_freq(start, cap, toy_power);
        assert!(r.met);
        assert_eq!(r.config.gpu_pstate, GpuPState(0));
        assert_eq!(r.steps, 2);
    }

    #[test]
    fn raise_cpu_uses_headroom() {
        let base = Configuration::gpu(GpuPState::MIN, CpuPState::MIN);
        // Cap allows exactly two CPU steps up.
        let two_up = Configuration::gpu(GpuPState::MIN, CpuPState(2));
        let cap = toy_power(&two_up);
        let r = raise_cpu_freq_within(base, cap, toy_power);
        assert!(r.met);
        assert_eq!(r.config.cpu_pstate, CpuPState(2));
        assert_eq!(r.steps, 2);
        assert!(toy_power(&r.config) <= cap);
    }

    #[test]
    fn raise_cpu_never_violates_cap() {
        let base = Configuration::gpu(GpuPState::MIN, CpuPState::MIN);
        let cap = toy_power(&base); // zero headroom
        let r = raise_cpu_freq_within(base, cap, toy_power);
        assert_eq!(r.config, base);
        assert_eq!(r.steps, 0);
    }

    #[test]
    fn active_device_limits_gpu_then_cpu() {
        let start = Configuration::gpu(GpuPState::MAX, CpuPState::MAX);
        // Cap reachable only with GPU at min AND CPU lowered.
        let target = Configuration::gpu(GpuPState::MIN, CpuPState(1));
        let cap = toy_power(&target) + 0.1;
        let r = limit_active_device(start, cap, toy_power);
        assert!(r.met);
        assert_eq!(r.config.gpu_pstate, GpuPState::MIN);
        assert!(r.config.cpu_pstate <= CpuPState(1));
    }

    #[test]
    fn active_device_reports_unreachable_cap() {
        let r = limit_active_device(start::gpu_fl(), 0.0, toy_power);
        assert!(!r.met);
        assert_eq!(r.config.gpu_pstate, GpuPState::MIN);
        assert_eq!(r.config.cpu_pstate, CpuPState::MIN);
    }

    #[test]
    fn limiter_converges_in_few_measurements() {
        // Section IV-C-style overhead concern: the walk is bounded by the
        // P-state count.
        let mut calls = 0;
        let _ = limit_cpu_freq(start::cpu_fl(), 0.0, |c| {
            calls += 1;
            toy_power(c)
        });
        assert!(calls <= CpuPState::COUNT as u32);
    }
}
