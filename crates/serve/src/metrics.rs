//! Server metrics: counters, latency quantiles, and the `STATS` snapshot.
//!
//! Latencies are recorded in **nanoseconds** into a bounded reservoir (the
//! server is long-running; an unbounded sample vector would be the same
//! bug the Timeline ring buffer exists to prevent). Snapshots report
//! microseconds, rounding each quantile *up* — warm selects service in
//! well under a microsecond, so truncating division would report the
//! median of a busy server as 0 µs (the PR-8 reservoir bug). Quantiles are
//! computed on demand by sorting a copy — snapshots are rare relative to
//! requests.
//!
//! Snapshots carry wall-clock-derived latency numbers, so replay logs
//! exclude `Stats` responses (DESIGN.md §11); everything else in the
//! snapshot is a plain counter.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cap on retained latency samples. Beyond it, recording falls back to
/// overwriting a rotating slot, which keeps quantiles fresh without growth.
const LATENCY_RESERVOIR: usize = 1 << 16;

/// Point-in-time server statistics, as returned for a `Stats` request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Requests served, all kinds.
    pub requests_total: u64,
    /// Per-kind request counts (`select`, `batch`, `run`, ...).
    pub requests_by_kind: BTreeMap<String, u64>,
    /// Median request service latency, µs (rounded up from nanosecond
    /// samples: any recorded request reports at least 1 µs).
    pub p50_latency_us: u64,
    /// 99th-percentile request service latency, µs (rounded up).
    pub p99_latency_us: u64,
    /// Profile-cache hits since startup.
    pub cache_hits: u64,
    /// Profile-cache misses since startup.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`, 0 when nothing was looked up.
    pub cache_hit_rate: f64,
    /// Sessions currently connected.
    pub active_sessions: u64,
    /// Arbiter rebalances that changed at least one budget.
    pub arbiter_rebalances: u64,
    /// Budget reshuffles that made a session re-run selection.
    pub reselections: u64,
    /// Connections or batches refused with a typed `Overloaded`.
    pub overloaded: u64,
    /// `Run` requests answered from the idempotency memo (a retry with a
    /// known key) instead of executing again.
    pub idem_replays: u64,
    /// Frames that failed to parse (truncated, oversized, bad UTF-8, ...).
    pub protocol_errors: u64,
    /// Requests served per degradation-ladder rung label (PR-1 ladder:
    /// `model`, `model+fl(1)`, ..., `safe-min`).
    pub degradation_tallies: BTreeMap<String, u64>,
    /// Shard lease state: `standalone` (no coordinator configured),
    /// `unleased`, `leased`, or `degraded`.
    pub lease_state: String,
    /// The cap the shard currently enforces (its lease budget, or the
    /// configured global cap when standalone).
    pub lease_budget_w: f64,
    /// Times the shard has *entered* degraded mode (missed-renewal decay).
    pub degraded_entries: u64,
    /// Successful lease renewals against the coordinator.
    pub lease_renews: u64,
    /// Median renew round-trip latency, µs (0 when standalone).
    pub p50_renew_latency_us: u64,
    /// 99th-percentile renew round-trip latency, µs.
    pub p99_renew_latency_us: u64,
    /// Entries appended to the recovery journal by *this* process.
    pub journal_appends: u64,
    /// Entries replayed from the journal at startup.
    pub journal_replayed: u64,
    /// Measured-feedback observations consumed by per-session adaptive
    /// predictors (both live Reports and journal replay).
    #[serde(default)]
    pub adapt_observations: u64,
    /// Typed drift events (bias, variance blow-up, cluster mismatch)
    /// emitted by the drift detectors.
    #[serde(default)]
    pub drift_events: u64,
    /// Selections where the adaptive correction changed the configuration
    /// the static model would have picked.
    #[serde(default)]
    pub adapt_reselections: u64,
    /// Kernels flagged for cluster re-classification by a gross mismatch.
    #[serde(default)]
    pub reclassifications: u64,
    /// Deadline-carrying requests shed before service with a typed
    /// `ShedDeadline` (the deadline was already unmeetable).
    #[serde(default)]
    pub sheds: u64,
    /// Deadline-carrying requests that were served but finished *after*
    /// their declared deadline (served late, not shed).
    #[serde(default)]
    pub deadline_misses: u64,
    /// Current brownout level (0 = normal; higher levels progressively
    /// disable optional work before shedding real selects).
    #[serde(default)]
    pub brownout_level: u8,
    /// Times this shard observed its lease evicted by the coordinator
    /// (a renew rejected with `unknown-lease` after silence).
    #[serde(default)]
    pub evicted_shards: u64,
}

/// Snapshot inputs that live outside the registry: the shard lease state
/// machine (guarded by its own lock) and the recovery-journal counters.
#[derive(Debug, Clone)]
pub struct LeaseReport {
    /// `standalone`, `unleased`, `leased`, or `degraded`.
    pub lease_state: String,
    /// The cap the shard currently enforces.
    pub lease_budget_w: f64,
    /// Times the shard entered degraded mode.
    pub degraded_entries: u64,
    /// Journal entries appended by this process.
    pub journal_appends: u64,
    /// Journal entries replayed at startup.
    pub journal_replayed: u64,
    /// Current brownout level (0 = normal).
    pub brownout_level: u8,
    /// Times this shard's lease was evicted by the coordinator.
    pub evicted_shards: u64,
}

impl Default for LeaseReport {
    fn default() -> Self {
        Self {
            lease_state: "standalone".into(),
            lease_budget_w: 0.0,
            degraded_entries: 0,
            journal_appends: 0,
            journal_replayed: 0,
            brownout_level: 0,
            evicted_shards: 0,
        }
    }
}

/// Thread-safe metric registry shared by all sessions.
#[derive(Default)]
pub struct Metrics {
    requests_total: AtomicU64,
    by_kind: Mutex<BTreeMap<String, u64>>,
    latencies_ns: Mutex<Vec<u64>>,
    next_slot: AtomicU64,
    overloaded: AtomicU64,
    protocol_errors: AtomicU64,
    reselections: AtomicU64,
    idem_replays: AtomicU64,
    degradation: Mutex<BTreeMap<String, u64>>,
    lease_renews: AtomicU64,
    renew_latencies_ns: Mutex<Vec<u64>>,
    renew_next_slot: AtomicU64,
    adapt_observations: AtomicU64,
    drift_events: AtomicU64,
    adapt_reselections: AtomicU64,
    reclassifications: AtomicU64,
    sheds: AtomicU64,
    deadline_misses: AtomicU64,
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one served request of `kind` with its service latency in
    /// nanoseconds (sub-µs services must not collapse to 0).
    pub fn record_request(&self, kind: &str, latency_ns: u64) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        // Allocate the key only the first time a kind is seen.
        let mut by_kind = self.by_kind.lock();
        if let Some(count) = by_kind.get_mut(kind) {
            *count += 1;
        } else {
            by_kind.insert(kind.to_string(), 1);
        }
        drop(by_kind);
        let mut lat = self.latencies_ns.lock();
        if lat.len() < LATENCY_RESERVOIR {
            lat.push(latency_ns);
        } else {
            let slot = self.next_slot.fetch_add(1, Ordering::Relaxed) as usize;
            lat[slot % LATENCY_RESERVOIR] = latency_ns;
        }
    }

    /// Count a typed `Overloaded` rejection.
    pub fn record_overloaded(&self) {
        self.overloaded.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a wire-protocol failure.
    pub fn record_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a budget reshuffle that re-ran selection in some session.
    pub fn record_reselection(&self) {
        self.reselections.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a `Run` answered from the idempotency memo.
    pub fn record_idem_replay(&self) {
        self.idem_replays.fetch_add(1, Ordering::Relaxed);
    }

    /// Idempotent replays so far.
    pub fn idem_replays(&self) -> u64 {
        self.idem_replays.load(Ordering::Relaxed)
    }

    /// Tally one request served at a degradation-ladder rung.
    pub fn record_rung(&self, label: &str) {
        *self.degradation.lock().entry(label.to_string()).or_insert(0) += 1;
    }

    /// Seed the rung tallies from journal replay, so a restarted server's
    /// STATS reconcile with the history it recovered instead of restarting
    /// every rung at zero.
    pub fn seed_rungs(&self, tallies: &BTreeMap<String, u64>) {
        let mut degradation = self.degradation.lock();
        for (label, count) in tallies {
            *degradation.entry(label.clone()).or_insert(0) += count;
        }
    }

    /// Count adaptation-loop activity after an observation: `events` drift
    /// events, of which `reclassifications` flagged a cluster mismatch.
    pub fn record_adapt_observation(&self, events: u64, reclassifications: u64) {
        self.adapt_observations.fetch_add(1, Ordering::Relaxed);
        self.drift_events.fetch_add(events, Ordering::Relaxed);
        self.reclassifications.fetch_add(reclassifications, Ordering::Relaxed);
    }

    /// Count a selection the adaptive correction steered away from the
    /// static model's pick.
    pub fn record_adapt_reselection(&self) {
        self.adapt_reselections.fetch_add(1, Ordering::Relaxed);
    }

    /// Adaptive observations so far.
    pub fn adapt_observations(&self) -> u64 {
        self.adapt_observations.load(Ordering::Relaxed)
    }

    /// Record one successful lease renewal and its round-trip latency in
    /// nanoseconds.
    pub fn record_renew(&self, latency_ns: u64) {
        self.lease_renews.fetch_add(1, Ordering::Relaxed);
        let mut lat = self.renew_latencies_ns.lock();
        if lat.len() < LATENCY_RESERVOIR {
            lat.push(latency_ns);
        } else {
            let slot = self.renew_next_slot.fetch_add(1, Ordering::Relaxed) as usize;
            lat[slot % LATENCY_RESERVOIR] = latency_ns;
        }
    }

    /// Successful lease renewals so far.
    pub fn lease_renews(&self) -> u64 {
        self.lease_renews.load(Ordering::Relaxed)
    }

    /// Wire-protocol failures so far.
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors.load(Ordering::Relaxed)
    }

    /// Count a deadline-carrying request shed before service.
    pub fn record_shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests shed so far.
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }

    /// Count a deadline-carrying request that was served late.
    pub fn record_deadline_miss(&self) {
        self.deadline_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Deadline misses so far.
    pub fn deadline_misses(&self) -> u64 {
        self.deadline_misses.load(Ordering::Relaxed)
    }

    /// The current 99th-percentile request latency in µs, straight off
    /// the reservoir. The brownout controller polls this; quantiles sort
    /// a copy, so callers should sample at a bounded rate.
    pub fn p99_latency_us_now(&self) -> u64 {
        self.latency_quantiles().1
    }

    /// Build a snapshot. Cache and arbiter counters live elsewhere, so the
    /// caller passes them in.
    pub fn snapshot(
        &self,
        cache_counts: (u64, u64),
        active_sessions: u64,
        arbiter_rebalances: u64,
        lease: &LeaseReport,
    ) -> StatsSnapshot {
        let (p50, p99) = self.latency_quantiles();
        let (renew_p50, renew_p99) = self.renew_quantiles();
        let (cache_hits, cache_misses) = cache_counts;
        let looked_up = cache_hits + cache_misses;
        StatsSnapshot {
            requests_total: self.requests_total.load(Ordering::Relaxed),
            requests_by_kind: self.by_kind.lock().clone(),
            p50_latency_us: p50,
            p99_latency_us: p99,
            cache_hits,
            cache_misses,
            cache_hit_rate: if looked_up == 0 { 0.0 } else { cache_hits as f64 / looked_up as f64 },
            active_sessions,
            arbiter_rebalances,
            reselections: self.reselections.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            idem_replays: self.idem_replays.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            degradation_tallies: self.degradation.lock().clone(),
            lease_state: lease.lease_state.clone(),
            lease_budget_w: lease.lease_budget_w,
            degraded_entries: lease.degraded_entries,
            lease_renews: self.lease_renews.load(Ordering::Relaxed),
            p50_renew_latency_us: renew_p50,
            p99_renew_latency_us: renew_p99,
            journal_appends: lease.journal_appends,
            journal_replayed: lease.journal_replayed,
            adapt_observations: self.adapt_observations.load(Ordering::Relaxed),
            drift_events: self.drift_events.load(Ordering::Relaxed),
            adapt_reselections: self.adapt_reselections.load(Ordering::Relaxed),
            reclassifications: self.reclassifications.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            brownout_level: lease.brownout_level,
            evicted_shards: lease.evicted_shards,
        }
    }

    fn latency_quantiles(&self) -> (u64, u64) {
        Self::quantiles_us(&mut self.latencies_ns.lock().clone())
    }

    fn renew_quantiles(&self) -> (u64, u64) {
        Self::quantiles_us(&mut self.renew_latencies_ns.lock().clone())
    }

    /// (p50, p99) of nanosecond samples, reported in µs rounded up so a
    /// recorded request is never summarized as 0 µs.
    fn quantiles_us(lat_ns: &mut [u64]) -> (u64, u64) {
        if lat_ns.is_empty() {
            return (0, 0);
        }
        lat_ns.sort_unstable();
        // `.max(1)` guards the (clock-granularity) case of a 0 ns sample:
        // with any samples at all, quantiles are ≥ 1 µs by contract.
        (quantile(lat_ns, 0.50).div_ceil(1000).max(1), quantile(lat_ns, 0.99).div_ceil(1000).max(1))
    }
}

/// Nearest-rank quantile of a sorted, non-empty sample.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_quantiles() {
        let m = Metrics::new();
        for us in 1..=100u64 {
            m.record_request("select", us * 1000); // µs-scale samples, in ns
        }
        m.record_request("stats", 1_000_000);
        let s = m.snapshot((30, 70), 2, 5, &LeaseReport::default());
        assert_eq!(s.requests_total, 101);
        assert_eq!(s.requests_by_kind["select"], 100);
        assert_eq!(s.requests_by_kind["stats"], 1);
        assert_eq!(s.p50_latency_us, 51);
        assert_eq!(s.p99_latency_us, 100);
        assert_eq!(s.cache_hits, 30);
        assert!((s.cache_hit_rate - 0.30).abs() < 1e-12);
        assert_eq!(s.active_sessions, 2);
        assert_eq!(s.arbiter_rebalances, 5);
    }

    #[test]
    fn sub_microsecond_services_do_not_report_zero() {
        // The PR-8 reservoir bug: warm selects finish in hundreds of ns,
        // and µs-truncated recording summarized a busy server as p50 = 0.
        let m = Metrics::new();
        for ns in [120u64, 300, 450, 800, 950] {
            m.record_request("select", ns);
        }
        let s = m.snapshot((0, 0), 1, 0, &LeaseReport::default());
        assert_eq!(s.p50_latency_us, 1, "sub-µs median rounds up to 1 µs");
        assert_eq!(s.p99_latency_us, 1);
        // Mixed scales: the µs-and-up tail still reports faithfully.
        m.record_request("select", 29_400); // 29.4 µs
        m.record_request("select", 30_001); // just over 30 µs rounds up
        for _ in 0..5 {
            m.record_request("select", 2_000);
        }
        let s = m.snapshot((0, 0), 1, 0, &LeaseReport::default());
        assert_eq!(s.p50_latency_us, 2);
        assert_eq!(s.p99_latency_us, 31);
    }

    #[test]
    fn empty_registry_snapshots_cleanly() {
        let s = Metrics::new().snapshot((0, 0), 0, 0, &LeaseReport::default());
        assert_eq!(s.p50_latency_us, 0);
        assert_eq!(s.p99_latency_us, 0);
        assert_eq!(s.cache_hit_rate, 0.0);
        assert!(s.degradation_tallies.is_empty());
        assert_eq!(s.lease_state, "standalone");
        assert_eq!(s.lease_renews, 0);
        assert_eq!(s.p50_renew_latency_us, 0);
    }

    #[test]
    fn lease_fields_flow_into_the_snapshot() {
        let m = Metrics::new();
        for us in [100u64, 200, 300] {
            m.record_renew(us * 1000);
        }
        let report = LeaseReport {
            lease_state: "degraded".into(),
            lease_budget_w: 7.5,
            degraded_entries: 2,
            journal_appends: 11,
            journal_replayed: 4,
            brownout_level: 2,
            evicted_shards: 1,
        };
        let s = m.snapshot((0, 0), 1, 0, &report);
        assert_eq!(s.lease_state, "degraded");
        assert_eq!(s.lease_budget_w, 7.5);
        assert_eq!(s.degraded_entries, 2);
        assert_eq!(s.lease_renews, 3);
        assert_eq!(s.p50_renew_latency_us, 200);
        assert_eq!(s.p99_renew_latency_us, 300);
        assert_eq!(s.journal_appends, 11);
        assert_eq!(s.journal_replayed, 4);
        assert_eq!(s.brownout_level, 2);
        assert_eq!(s.evicted_shards, 1);
    }

    #[test]
    fn reservoir_is_bounded() {
        let m = Metrics::new();
        for i in 0..(LATENCY_RESERVOIR as u64 + 500) {
            m.record_request("select", i);
        }
        assert_eq!(m.latencies_ns.lock().len(), LATENCY_RESERVOIR);
    }

    #[test]
    fn rung_tallies_accumulate() {
        let m = Metrics::new();
        m.record_rung("model");
        m.record_rung("model");
        m.record_rung("safe-min");
        let s = m.snapshot((0, 0), 0, 0, &LeaseReport::default());
        assert_eq!(s.degradation_tallies["model"], 2);
        assert_eq!(s.degradation_tallies["safe-min"], 1);
    }

    #[test]
    fn seeded_rungs_merge_with_live_tallies() {
        // Recovery replay seeds the rung history; live requests keep
        // adding on top — the snapshot reports the reconciled sum.
        let m = Metrics::new();
        let mut replayed = BTreeMap::new();
        replayed.insert("model".to_string(), 3u64);
        replayed.insert("safe-min".to_string(), 1u64);
        m.seed_rungs(&replayed);
        m.record_rung("model");
        let s = m.snapshot((0, 0), 0, 0, &LeaseReport::default());
        assert_eq!(s.degradation_tallies["model"], 4);
        assert_eq!(s.degradation_tallies["safe-min"], 1);
    }

    #[test]
    fn adaptation_counters_flow_into_the_snapshot() {
        let m = Metrics::new();
        m.record_adapt_observation(0, 0);
        m.record_adapt_observation(2, 1);
        m.record_adapt_reselection();
        let s = m.snapshot((0, 0), 0, 0, &LeaseReport::default());
        assert_eq!(s.adapt_observations, 2);
        assert_eq!(s.drift_events, 2);
        assert_eq!(s.reclassifications, 1);
        assert_eq!(s.adapt_reselections, 1);
    }

    #[test]
    fn pre_adapt_snapshots_parse_with_zero_adapt_counters() {
        // A snapshot serialized before the adaptation counters existed
        // must still deserialize (old recordings, mixed-version fleets).
        let m = Metrics::new();
        let s = m.snapshot((0, 0), 0, 0, &LeaseReport::default());
        let mut json = serde_json::to_string(&s).unwrap();
        for field in
            ["adapt_observations", "drift_events", "adapt_reselections", "reclassifications"]
        {
            json = json.replace(&format!(",\"{field}\":0"), "");
            json = json.replace(&format!("\"{field}\":0,"), "");
        }
        assert!(!json.contains("adapt_observations"));
        let back: StatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn pre_shed_snapshots_parse_with_zero_overload_counters() {
        // Snapshots serialized before the overload layer existed lack the
        // shed/brownout/eviction fields; they must default to zero.
        let m = Metrics::new();
        let s = m.snapshot((0, 0), 0, 0, &LeaseReport::default());
        let mut json = serde_json::to_string(&s).unwrap();
        for field in ["sheds", "deadline_misses", "brownout_level", "evicted_shards"] {
            json = json.replace(&format!(",\"{field}\":0"), "");
            json = json.replace(&format!("\"{field}\":0,"), "");
        }
        assert!(!json.contains("brownout_level"));
        let back: StatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn shed_and_deadline_miss_counters_flow_into_the_snapshot() {
        let m = Metrics::new();
        m.record_shed();
        m.record_shed();
        m.record_deadline_miss();
        let s = m.snapshot((0, 0), 0, 0, &LeaseReport::default());
        assert_eq!(s.sheds, 2);
        assert_eq!(s.deadline_misses, 1);
        assert_eq!(s.brownout_level, 0);
        // The reservoir p99 accessor mirrors the snapshot's quantile.
        m.record_request("select", 5_000);
        assert_eq!(m.p99_latency_us_now(), 5);
    }

    #[test]
    fn snapshot_roundtrips_through_the_wire_format() {
        let m = Metrics::new();
        m.record_request("select", 10);
        m.record_rung("model");
        let s = m.snapshot((1, 1), 1, 0, &LeaseReport::default());
        let json = serde_json::to_string(&s).unwrap();
        let back: StatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
