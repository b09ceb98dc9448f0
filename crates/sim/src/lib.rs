//! # acs-sim — analytic APU simulator
//!
//! A deterministic, calibrated stand-in for the AMD Trinity A10-5800K APU
//! the paper measures: two dual-core CPU modules sharing a voltage plane, an
//! integrated GPU on a second power plane, a shared memory controller, six
//! CPU P-states (1.4–3.7 GHz), three GPU P-states (311/649/819 MHz), eleven
//! PMU events, and a 1 kHz on-chip power estimator.
//!
//! The simulator's contract with the rest of the workspace is a single call:
//!
//! ```
//! use acs_sim::{Machine, Configuration, CpuPState, KernelCharacteristics};
//!
//! let machine = Machine::new(42);
//! let kernel = KernelCharacteristics::default();
//! let run = machine.run(&kernel, &Configuration::cpu(4, CpuPState::MAX));
//! assert!(run.time_s > 0.0 && run.power_w() > 0.0);
//! ```
//!
//! Everything downstream (profiling, model training, scheduling,
//! evaluation) consumes only `(time, power, counters)` tuples — exactly the
//! information the paper's profiling library records on real hardware.

#![warn(missing_docs)]

pub mod asymmetric;
pub mod boost;
pub mod config;
pub mod counters;
pub mod cpu;
pub mod drift;
pub mod family;
pub mod faults;
pub mod governor;
pub mod gpu;
pub mod kernel;
pub mod machine;
pub mod noise;
pub mod power;
pub mod pstate;
pub mod sensor;
pub mod trace;

pub use config::{Configuration, Device, NUM_CPU_CORES};

pub use drift::{DriftPlan, DriftedMachine};
pub use family::{FamilyId, MachineFamily};
pub use faults::{Executor, FaultPlan, FaultyMachine};
pub use governor::{OndemandGovernor, TransitionModel};
pub use kernel::KernelCharacteristics;
pub use machine::{KernelRun, Machine};
pub use noise::{NoiseSource, SplitMix64};
pub use power::{PowerBreakdown, PowerCalibration};
pub use pstate::{CpuPState, GpuPState, CPU_REF_FREQ_GHZ, GPU_REF_FREQ_GHZ};
pub use sensor::PowerSensor;
pub use trace::{trace_for, PowerTrace, TraceSegment};
