//! # acs-cli — command-line interface
//!
//! The workflow a system operator runs once per machine, then per
//! application:
//!
//! ```text
//! acs characterize --out profiles.json        # offline sweep (hours on hardware)
//! acs train --profiles profiles.json --out model.json
//! acs predict --model model.json --kernel LULESH/Small/CalcFBHourglassForce --cap 25
//! acs evaluate                                # the paper's Table III
//! ```
//!
//! All subcommands are plain library functions over a `Write` sink
//! ([`commands::run`]), so the whole surface is unit-tested without
//! spawning processes.

#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::Args;
pub use commands::{run, USAGE};
