//! **acs-serve** — a multi-tenant online selection server.
//!
//! The paper's online stage answers "which configuration should this
//! kernel run at under this power cap?" in under a millisecond — but only
//! inside one-shot CLI invocations. This crate turns it into a
//! long-running daemon: trained offline artifacts are loaded once, every
//! TCP connection becomes a *node* of a simulated cluster, and a
//! **power-budget arbiter** partitions a global cap across the connected
//! nodes (equal-share, or demand-proportional using each node's reported
//! residual headroom). When the arbiter reshuffles budgets, sessions
//! re-run selection from their cached predicted frontiers — the paper's
//! Section III-C dynamic-constraint property, exercised as a service.
//!
//! Module map:
//! - [`protocol`] — length-prefixed JSON frames, typed [`ProtocolError`]
//! - [`engine`] — memoized classify+predict, bounded LRU caches,
//!   idempotency memo
//! - [`arbiter`] — global-cap partitioning policies (budgets always sum
//!   exactly to the cap)
//! - [`metrics`] — counters, latency quantiles, the `STATS` snapshot
//! - [`net`] — the connection layer every server shares: listener,
//!   accept/reap/drain loop, per-connection frame loop, [`FrameClient`],
//!   `Running` background servers
//! - [`server`] — admission control, sessions, lease client, brownout
//! - [`journal`] — append-only recovery journal; a restarted server
//!   replays it and resumes with identical budgets and a warm cache
//! - [`lease`] — the fleet layer's state machines: the coordinator's
//!   lease table (epoch-fenced, encumbrance-at-floor expiry, exact-sum
//!   conservation) and the shard's degraded-mode cap
//! - [`coordinator`] — the `acs coordinator` process: owns the global
//!   budget, leases slices to shards, journals every grant/renew for
//!   crash failover
//!
//! Determinism contract (DESIGN.md §11): for a single-session client, a
//! fixed seed and a recorded request stream replay to a byte-identical
//! response log. Responses therefore never leak cache state, wall-clock
//! time, or thread interleavings; those live only in the `STATS`
//! snapshot, which replay logs exclude.
//!
//! Wire faults (torn, corrupt, delayed, duplicated and dribbled frames,
//! disconnects) are tested in-process: a seeded fault plan is served
//! through the real frame loop from memory (DESIGN.md §12).

pub mod arbiter;
pub mod coordinator;
pub mod engine;
#[cfg(test)]
mod fleet;
pub mod journal;
pub mod lease;
pub mod metrics;
pub mod net;
pub mod protocol;
#[cfg(test)]
mod scripted;
pub mod server;

pub use arbiter::{Arbiter, ArbiterOp, ArbiterPolicy};
pub use coordinator::{CoordClient, Coordinator, CoordinatorConfig};
pub use engine::{Engine, EngineError};
pub use journal::{replay, Journal, JournalEntry, JournalError, Recovery, SessionAdapt};
pub use lease::{
    replay_coordinator, CoordJournalEntry, CoordRequest, CoordResponse, CoordStats, LeaseTable,
};
pub use metrics::{LeaseReport, Metrics, StatsSnapshot};
pub use net::FrameClient;
pub use protocol::{
    read_frame, read_frame_blocking, write_frame, ProtocolError, ReadOutcome, ReportFeedback,
    Request, Response, Selection, MAX_FRAME_LEN,
};
pub use server::{
    brownout_level_for, required_priority, should_shed, Client, FleetConfig, ServeConfig,
    ServeError, Server, ServerHandle, MAX_BATCH,
};
