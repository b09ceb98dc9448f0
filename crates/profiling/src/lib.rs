//! # acs-profiling — integrated power/performance profiling library
//!
//! The reproduction of the paper's Section III-D library: it associates
//! power and performance measurements with individual kernel executions,
//! keeps a shared run [`History`] accessible to the scheduler, and drives
//! the offline characterization sweeps (optionally modeling the paper's
//! measured instrumentation overheads).
//!
//! ```
//! use acs_profiling::Profiler;
//! use acs_sim::{Configuration, CpuPState, KernelCharacteristics, Machine};
//!
//! let profiler = Profiler::new(Machine::new(42));
//! let kernel = KernelCharacteristics::default();
//! let sample = profiler.profile(&kernel, &Configuration::cpu(4, CpuPState::MAX), 0);
//! assert_eq!(profiler.history().sample_count(&kernel.id()), 1);
//! assert!(sample.power_w() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod history;
pub mod profiler;
pub mod sample;
pub mod timeline;

pub use history::History;
pub use profiler::Profiler;
pub use sample::ProfileSample;
pub use timeline::{Entry, Event, Timeline};
