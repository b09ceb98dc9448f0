//! Runtime health: typed errors, the degradation ladder, and the guard
//! policy for the self-healing capped runtime.
//!
//! The paper's protocol assumes trustworthy sensors and obedient DVFS
//! hardware. The guarded [`CappedRuntime`](crate::CappedRuntime) drops
//! that assumption: a post-run watchdog tracks measured power against the
//! cap and the sensor's vital signs, and on repeated violations steps the
//! kernel *down* a ladder of ever-more-conservative strategies —
//!
//! 1. **Model** — trust the predicted frontier (the paper's method),
//! 2. **Model + FL** — the model's pick, frequency-limited some P-states
//!    below the prediction,
//! 3. **CPU + FL** — abandon the model: all cores, walked down from the
//!    top CPU P-state (the paper's model-free baseline),
//! 4. **Safe minimum** — one core at the lowest P-state, the least power
//!    the machine can draw while making progress —
//!
//! and back *up* one rung after enough consecutive clean iterations.

use crate::limiter::start;
use acs_sim::{Configuration, CpuPState, Device};
use serde::{Deserialize, Serialize};

/// Typed failures from the capped runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RuntimeError {
    /// A power cap must be a positive number of watts.
    NonPositiveCap {
        /// The rejected cap, W.
        cap_w: f64,
    },
    /// A kernel reached its post-sample phase without a fixed
    /// configuration (protocol state corrupted or never classified).
    UnconfiguredKernel {
        /// Kernel identifier.
        kernel_id: String,
    },
    /// The scheduling protocol's internal state is inconsistent.
    ProtocolViolation {
        /// Kernel identifier.
        kernel_id: String,
        /// What was expected but missing.
        detail: String,
    },
    /// A kernel execution failed and retries were exhausted.
    ExecutionFailed {
        /// Kernel identifier.
        kernel_id: String,
        /// Iteration that failed.
        iteration: u64,
        /// Number of attempts made (including the first).
        attempts: u32,
        /// The underlying fault, rendered.
        fault: String,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::NonPositiveCap { cap_w } => {
                write!(f, "power cap must be positive, got {cap_w} W")
            }
            RuntimeError::UnconfiguredKernel { kernel_id } => {
                write!(f, "kernel '{kernel_id}' has no fixed configuration after sampling")
            }
            RuntimeError::ProtocolViolation { kernel_id, detail } => {
                write!(f, "scheduling state for kernel '{kernel_id}' is inconsistent: {detail}")
            }
            RuntimeError::ExecutionFailed { kernel_id, iteration, attempts, fault } => {
                write!(
                    f,
                    "kernel '{kernel_id}' iteration {iteration} failed after {attempts} \
                     attempt(s): {fault}"
                )
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// The rungs of the degradation ladder, most-trusting first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum DegradationTier {
    /// Trust the model's frontier selection unmodified.
    Model,
    /// The model's selection, frequency-limited below the prediction.
    ModelFl,
    /// Model-free: all cores, frequency-limited from the top CPU P-state.
    CpuFl,
    /// Pinned to the machine's minimum-power configuration.
    SafeMin,
}

/// A position on the ladder: the tier plus how many frequency-limiting
/// steps are applied within it (0 for `Model` and `SafeMin`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierState {
    /// Current rung.
    pub(crate) tier: DegradationTier,
    /// P-state step-downs applied from the rung's base configuration.
    pub(crate) fl_steps: u8,
}

/// Walk `config`'s active device down `n` P-states, saturating at the
/// floor (GPU configurations drain the GPU ladder first, then the host
/// CPU's — the same order the RAPL-style limiter walks).
fn step_down(mut config: Configuration, n: u8) -> Configuration {
    for _ in 0..n {
        let stepped = match config.device {
            Device::Gpu => {
                if let Some(lower) = config.gpu_pstate.step_down() {
                    config.gpu_pstate = lower;
                    true
                } else if let Some(lower) = config.cpu_pstate.step_down() {
                    config.cpu_pstate = lower;
                    true
                } else {
                    false
                }
            }
            Device::Cpu => {
                if let Some(lower) = config.cpu_pstate.step_down() {
                    config.cpu_pstate = lower;
                    true
                } else {
                    false
                }
            }
        };
        if !stepped {
            break;
        }
    }
    config
}

/// The machine's minimum-power configuration that still makes progress.
pub(crate) fn safe_min_config() -> Configuration {
    Configuration::cpu(1, CpuPState::MIN)
}

impl TierState {
    /// The healthiest state: trust the model.
    pub(crate) fn model() -> Self {
        Self { tier: DegradationTier::Model, fl_steps: 0 }
    }

    /// The configuration this rung runs, given the model's selection.
    pub(crate) fn apply(&self, model_choice: Configuration) -> Configuration {
        match self.tier {
            DegradationTier::Model => model_choice,
            DegradationTier::ModelFl => step_down(model_choice, self.fl_steps),
            DegradationTier::CpuFl => step_down(start::cpu_fl(), self.fl_steps),
            DegradationTier::SafeMin => safe_min_config(),
        }
    }

    /// One rung down. Within the FL tiers this adds a frequency-limiting
    /// step; once a tier's ladder is exhausted it falls to the next tier.
    /// `SafeMin` is absorbing.
    pub(crate) fn degraded(&self, model_choice: Configuration) -> Self {
        match self.tier {
            DegradationTier::Model => Self { tier: DegradationTier::ModelFl, fl_steps: 1 },
            DegradationTier::ModelFl => {
                let deeper = self.fl_steps + 1;
                if step_down(model_choice, deeper) != step_down(model_choice, self.fl_steps) {
                    Self { tier: DegradationTier::ModelFl, fl_steps: deeper }
                } else {
                    Self { tier: DegradationTier::CpuFl, fl_steps: 0 }
                }
            }
            DegradationTier::CpuFl => {
                let deeper = self.fl_steps + 1;
                if step_down(start::cpu_fl(), deeper) != step_down(start::cpu_fl(), self.fl_steps) {
                    Self { tier: DegradationTier::CpuFl, fl_steps: deeper }
                } else {
                    Self { tier: DegradationTier::SafeMin, fl_steps: 0 }
                }
            }
            DegradationTier::SafeMin => *self,
        }
    }

    /// One rung up (toward trusting the model again).
    pub(crate) fn recovered(&self) -> Self {
        match self.tier {
            DegradationTier::Model => *self,
            DegradationTier::ModelFl => {
                if self.fl_steps <= 1 {
                    Self::model()
                } else {
                    Self { tier: DegradationTier::ModelFl, fl_steps: self.fl_steps - 1 }
                }
            }
            // Re-trust the cap-aware model (one notch of margin) rather
            // than climbing back through CPU+FL's upper rungs: those sit
            // near 4-cores-at-max power, so a kernel that degraded past
            // them would re-violate there and oscillate forever.
            DegradationTier::CpuFl => Self { tier: DegradationTier::ModelFl, fl_steps: 1 },
            // Re-entry from the pinned floor starts at CPU+FL's own floor.
            DegradationTier::SafeMin => {
                Self { tier: DegradationTier::CpuFl, fl_steps: (CpuPState::COUNT - 1) as u8 }
            }
        }
    }

    /// Human-readable rung label (used in timeline events).
    pub fn label(&self) -> String {
        match self.tier {
            DegradationTier::Model => "model".into(),
            DegradationTier::ModelFl => format!("model+fl({})", self.fl_steps),
            DegradationTier::CpuFl => format!("cpu+fl({})", self.fl_steps),
            DegradationTier::SafeMin => "safe-min".into(),
        }
    }

    /// Maximum number of `degraded` calls from `model()` to `SafeMin`,
    /// regardless of the model's choice (bounds watchdog convergence).
    #[cfg(test)]
    fn max_rungs() -> u32 {
        // Model → up to COUNT-1 ModelFl steps (+ GPU ladder on GPU picks)
        // → CpuFl{0..COUNT-1} → SafeMin, with one transition rung each.
        let cpu = CpuPState::COUNT as u32;
        let gpu = acs_sim::GpuPState::COUNT as u32;
        1 + (cpu - 1 + gpu - 1) + cpu + 1
    }
}

/// Tunables for the guarded runtime's watchdog and retry logic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GuardPolicy {
    /// Consecutive measured-over-cap iterations before stepping down a
    /// rung (the ISSUE's `K`).
    pub(crate) max_overcap_streak: u32,
    /// Consecutive clean (valid-sensor, under-cap) iterations before
    /// stepping back up a rung (the ISSUE's `N`).
    pub(crate) recovery_clean_iters: u32,
    /// Retries for a failed execution or clamped transition, per
    /// iteration.
    pub(crate) max_retries: u32,
    /// First retry waits this long; each further retry doubles it.
    pub(crate) backoff_base_s: f64,
    /// Consecutive invalid sensor readings (dropouts or exact repeats)
    /// before degrading on suspicion of a stale sensor. `0` disables
    /// stale detection (needed for noiseless machines, whose genuine
    /// readings repeat exactly).
    pub(crate) stale_sensor_window: u32,
}

impl Default for GuardPolicy {
    fn default() -> Self {
        Self {
            max_overcap_streak: 3,
            recovery_clean_iters: 8,
            max_retries: 3,
            backoff_base_s: 1e-3,
            stale_sensor_window: 4,
        }
    }
}

/// Per-kernel health bookkeeping maintained by the guard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelHealth {
    /// Current ladder position.
    pub tier: TierState,
    /// Consecutive measured-over-cap iterations.
    pub(crate) overcap_streak: u32,
    /// Consecutive clean iterations (toward recovery).
    pub(crate) clean_streak: u32,
    /// Consecutive invalid sensor readings (dropout or frozen).
    pub(crate) stale_streak: u32,
    /// Last measured package power, W (for frozen-reading detection).
    pub(crate) last_power_w: Option<f64>,
    /// Total rung step-downs.
    pub degradations: u32,
    /// Total rung step-ups.
    pub recoveries: u32,
    /// Total execution retries.
    pub retries: u32,
}

impl Default for KernelHealth {
    fn default() -> Self {
        Self {
            tier: TierState::model(),
            overcap_streak: 0,
            clean_streak: 0,
            stale_streak: 0,
            last_power_w: None,
            degradations: 0,
            recoveries: 0,
            retries: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_sim::GpuPState;

    #[test]
    fn ladder_reaches_safe_min_from_any_choice() {
        for &choice in Configuration::all() {
            let mut state = TierState::model();
            let mut rungs = 0;
            while state.tier != DegradationTier::SafeMin {
                let next = state.degraded(choice);
                assert_ne!(next, state, "ladder stalled at {state:?} for {choice}");
                state = next;
                rungs += 1;
                assert!(rungs <= TierState::max_rungs(), "too many rungs for {choice}");
            }
            assert_eq!(state.apply(choice), safe_min_config());
            // SafeMin is absorbing.
            assert_eq!(state.degraded(choice), state);
        }
    }

    #[test]
    fn recovery_climbs_back_to_model() {
        let choice = Configuration::cpu(4, CpuPState::MAX);
        let mut state = TierState::model();
        while state.tier != DegradationTier::SafeMin {
            state = state.degraded(choice);
        }
        let mut climbs = 0;
        while state != TierState::model() {
            let next = state.recovered();
            assert_ne!(next, state, "recovery stalled at {state:?}");
            state = next;
            climbs += 1;
            assert!(climbs <= TierState::max_rungs() + 2);
        }
        assert_eq!(state.recovered(), state, "model is the top rung");
    }

    #[test]
    fn each_rung_draws_no_more_power_shaped_config() {
        // Stepping down never raises a P-state.
        let choice = Configuration::gpu(GpuPState::MAX, CpuPState::MAX);
        let mut state = TierState::model();
        let mut prev = state.apply(choice);
        for _ in 0..3 {
            state = state.degraded(choice);
            if state.tier == DegradationTier::ModelFl {
                let cfg = state.apply(choice);
                assert!(
                    cfg.gpu_pstate <= prev.gpu_pstate && cfg.cpu_pstate <= prev.cpu_pstate,
                    "{prev} → {cfg}"
                );
                prev = cfg;
            }
        }
    }

    #[test]
    fn model_fl_limits_the_model_choice() {
        let choice = Configuration::cpu(4, CpuPState(3));
        let s = TierState { tier: DegradationTier::ModelFl, fl_steps: 2 };
        assert_eq!(s.apply(choice), Configuration::cpu(4, CpuPState(1)));
        // Saturates at the floor instead of wrapping.
        let deep = TierState { tier: DegradationTier::ModelFl, fl_steps: 40 };
        assert_eq!(deep.apply(choice), Configuration::cpu(4, CpuPState::MIN));
    }

    #[test]
    fn cpu_fl_ignores_the_model_choice() {
        let s = TierState { tier: DegradationTier::CpuFl, fl_steps: 1 };
        let a = s.apply(Configuration::gpu(GpuPState::MAX, CpuPState::MAX));
        let b = s.apply(Configuration::cpu(1, CpuPState::MIN));
        assert_eq!(a, b);
        assert_eq!(a.device, Device::Cpu);
        assert_eq!(a.threads, acs_sim::NUM_CPU_CORES);
    }

    #[test]
    fn errors_render_descriptively() {
        let e = RuntimeError::ExecutionFailed {
            kernel_id: "LULESH/Small/K1".into(),
            iteration: 7,
            attempts: 4,
            fault: "kernel run failure at invocation 9".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("LULESH/Small/K1"));
        assert!(msg.contains("iteration 7"));
        assert!(msg.contains("4 attempt(s)"));
        assert!(RuntimeError::NonPositiveCap { cap_w: -1.0 }.to_string().contains("positive"));
    }
}
