//! Server metrics: counters, latency quantiles, and the `STATS` snapshot.
//!
//! Everything a request touches here is a relaxed atomic add: counters,
//! one slot of a per-kind array, one bucket of a latency histogram.
//! Latencies are recorded in **nanoseconds**; snapshots report
//! microseconds, rounding each quantile *up* — warm selects service in
//! well under a microsecond, so truncating division would report the
//! median of a busy server as 0 µs (the PR-8 reservoir bug).
//!
//! Snapshots carry wall-clock-derived latency numbers, so replay logs
//! exclude `Stats` responses (DESIGN.md §11); everything else in the
//! snapshot is a plain counter.

use crate::protocol::Request;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

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
    reselections: u64,
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
    drift_events: u64,
    /// Selections where the adaptive correction changed the configuration
    /// the static model would have picked.
    #[serde(default)]
    adapt_reselections: u64,
    /// Kernels flagged for cluster re-classification by a gross mismatch.
    #[serde(default)]
    reclassifications: u64,
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

/// Sub-buckets per power of two, so a bucket is at most 1/16 as wide as
/// its lower bound.
const SUB_BUCKETS: usize = 16;

/// One bucket per value below 16, then 16 per power of two up to 2⁶⁴:
/// every `u64` has a bucket, so nothing is clamped.
const BUCKETS: usize = SUB_BUCKETS * 61;

/// The bucket holding `ns`: its top five significant bits (the leading
/// one and four more) select the bucket, the rest are dropped.
fn bucket_of(ns: u64) -> usize {
    let shift = ns.max(16).ilog2() - 4;
    shift as usize * SUB_BUCKETS + (ns >> shift) as usize
}

/// The largest value [`bucket_of`] maps to `bucket`.
fn upper_bound_ns(bucket: usize) -> u64 {
    let shift = (bucket / SUB_BUCKETS).saturating_sub(1);
    let lowest = ((bucket - shift * SUB_BUCKETS) as u64) << shift;
    lowest + ((1u64 << shift) - 1)
}

/// A fixed-size log-linear latency histogram: recording is one relaxed
/// add, reading copies the counts without stopping writers.
struct Histogram([AtomicU64; BUCKETS]);

impl Default for Histogram {
    fn default() -> Self {
        Self(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl Histogram {
    fn record(&self, ns: u64) {
        self.0[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn counts(&self) -> LatencyCounts {
        LatencyCounts(std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed)))
    }
}

/// One reading of a latency histogram. The brownout controller keeps
/// its previous one so that each poll judges only the requests served
/// since ([`Metrics::p99_latency_us_since`]).
#[derive(Clone)]
pub(crate) struct LatencyCounts([u64; BUCKETS]);

impl Default for LatencyCounts {
    fn default() -> Self {
        Self([0; BUCKETS])
    }
}

impl LatencyCounts {
    /// The samples recorded after `earlier` was read.
    fn since(&self, earlier: &Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i].saturating_sub(earlier.0[i])))
    }

    /// Nearest-rank quantile, reported as the upper bound of the bucket
    /// holding it: never below the exact value, and above it by less than
    /// one bucket width. `None` when nothing was recorded.
    fn quantile_ns(&self, q: f64) -> Option<u64> {
        let total: u64 = self.0.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut reached = 0;
        let bucket = self.0.iter().position(|&count| {
            reached += count;
            reached >= rank
        })?;
        Some(upper_bound_ns(bucket))
    }

    /// A quantile in µs; 0 when nothing was recorded.
    fn quantile_us(&self, q: f64) -> u64 {
        self.quantile_ns(q).map_or(0, ns_to_us)
    }
}

/// µs rounded up, and at least 1 (a 0 ns sample is clock granularity):
/// a recorded request is never summarized as 0 µs.
fn ns_to_us(ns: u64) -> u64 {
    ns.div_ceil(1000).max(1)
}

/// Thread-safe metric registry shared by all sessions.
#[derive(Default)]
pub struct Metrics {
    /// One slot per entry of [`Request::KINDS`]; their sum is
    /// `requests_total`.
    by_kind: [AtomicU64; Request::KINDS.len()],
    latencies: Histogram,
    overloaded: AtomicU64,
    protocol_errors: AtomicU64,
    reselections: AtomicU64,
    idem_replays: AtomicU64,
    degradation: Mutex<BTreeMap<String, u64>>,
    lease_renews: AtomicU64,
    renew_latencies: Histogram,
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

    /// Record one served request of `kind` (a [`Request::kind`] label)
    /// with its service latency in nanoseconds (sub-µs services must not
    /// collapse to 0). A label [`Request::kind`] never returns counts its
    /// latency only.
    pub fn record_request(&self, kind: &str, latency_ns: u64) {
        if let Some(slot) = Request::KINDS.iter().position(|k| *k == kind) {
            self.by_kind[slot].fetch_add(1, Ordering::Relaxed);
        }
        self.latencies.record(latency_ns);
    }

    /// Count a typed `Overloaded` rejection.
    pub(crate) fn record_overloaded(&self) {
        self.overloaded.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a wire-protocol failure.
    pub(crate) fn record_protocol_error(&self) {
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

    /// Tally one request served at a degradation-ladder rung.
    pub fn record_rung(&self, label: &str) {
        let mut degradation = self.degradation.lock();
        match degradation.get_mut(label) {
            Some(count) => *count += 1,
            None => {
                degradation.insert(label.to_string(), 1);
            }
        }
    }

    /// Seed the rung tallies from journal replay, so a restarted server's
    /// STATS reconcile with the history it recovered instead of restarting
    /// every rung at zero.
    pub(crate) fn seed_rungs(&self, tallies: &BTreeMap<String, u64>) {
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

    /// Record one successful lease renewal and its round-trip latency in
    /// nanoseconds.
    pub(crate) fn record_renew(&self, latency_ns: u64) {
        self.lease_renews.fetch_add(1, Ordering::Relaxed);
        self.renew_latencies.record(latency_ns);
    }

    /// Count a deadline-carrying request shed before service.
    pub(crate) fn record_shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a deadline-carrying request that was served late.
    pub(crate) fn record_deadline_miss(&self) {
        self.deadline_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// The 99th-percentile latency, µs, of the requests recorded since
    /// `seen` was last passed here (`seen` is advanced to now); `None`
    /// when there were none. The brownout controller polls this, so its
    /// estimate follows the last poll interval rather than all of history.
    pub(crate) fn p99_latency_us_since(&self, seen: &mut LatencyCounts) -> Option<u64> {
        let now = self.latencies.counts();
        let window = now.since(seen);
        *seen = now;
        window.quantile_ns(0.99).map(ns_to_us)
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
        let latencies = self.latencies.counts();
        let renew_latencies = self.renew_latencies.counts();
        let (cache_hits, cache_misses) = cache_counts;
        let looked_up = cache_hits + cache_misses;
        let by_kind: [u64; Request::KINDS.len()] =
            std::array::from_fn(|slot| self.by_kind[slot].load(Ordering::Relaxed));
        StatsSnapshot {
            requests_total: by_kind.iter().sum(),
            requests_by_kind: Request::KINDS
                .iter()
                .zip(by_kind)
                .filter(|(_, count)| *count > 0)
                .map(|(kind, count)| (kind.to_string(), count))
                .collect(),
            p50_latency_us: latencies.quantile_us(0.50),
            p99_latency_us: latencies.quantile_us(0.99),
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
            p50_renew_latency_us: renew_latencies.quantile_us(0.50),
            p99_renew_latency_us: renew_latencies.quantile_us(0.99),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Nearest-rank quantile of a sorted, non-empty sample: the exact value
    /// the histogram's bucketed answer is tested against.
    fn quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// The histogram's contract, for a quantile whose exact nearest-rank
    /// value is `exact_ns`: never below it, and above it by less than one
    /// bucket width (at most 1/16 of the value).
    fn assert_within_a_bucket(reported_us: u64, exact_ns: u64) {
        let (low, high) = (ns_to_us(exact_ns), ns_to_us(exact_ns + exact_ns / 16));
        assert!(
            (low..=high).contains(&reported_us),
            "{reported_us} µs reported for {exact_ns} ns, expected {low}..={high} µs"
        );
    }

    #[test]
    fn every_value_has_a_bucket_and_the_buckets_tile_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(upper_bound_ns(BUCKETS - 1), u64::MAX);
        assert_eq!(upper_bound_ns(bucket_of(1 << 40)), (1 << 40) + (1 << 36) - 1);
        for bucket in 0..BUCKETS - 1 {
            let upper = upper_bound_ns(bucket);
            assert_eq!(bucket_of(upper), bucket, "upper bound {upper} of bucket {bucket}");
            assert_eq!(bucket_of(upper + 1), bucket + 1, "bucket {bucket} ends at {upper}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against the exact nearest-rank [`quantile`] of the same samples
        /// (0 ns … 2⁴⁰ ns, log-uniform so that small multisets repeat
        /// values): every quantile, p50 and p99 among them, is at least
        /// the exact value, above it by less than one bucket width, and
        /// monotone in `q`.
        #[test]
        fn histogram_quantiles_bound_the_exact_ones(
            draws in proptest::collection::vec((0u32..=40, 0u64..=u64::MAX), 1..300),
        ) {
            let mut samples: Vec<u64> =
                draws.iter().map(|&(bits, draw)| (draw >> 24) >> (40 - bits)).collect();
            let histogram = Histogram::default();
            for &ns in &samples {
                histogram.record(ns);
            }
            samples.sort_unstable();
            let counts = histogram.counts();
            let mut previous = 0;
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                let exact = quantile(&samples, q);
                let reported = counts.quantile_ns(q).expect("samples were recorded");
                prop_assert!(
                    exact <= reported && reported <= exact + exact / 16,
                    "q {q}: exact {exact} ns, reported {reported} ns"
                );
                prop_assert_eq!(bucket_of(reported), bucket_of(exact));
                prop_assert!(previous <= reported, "q {q}: {reported} ns after {previous} ns");
                previous = reported;
            }
        }
    }

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
        assert_within_a_bucket(s.p50_latency_us, 51_000);
        assert_within_a_bucket(s.p99_latency_us, 100_000);
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
        assert_within_a_bucket(s.p50_latency_us, 2_000);
        assert_within_a_bucket(s.p99_latency_us, 30_001);
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
        assert_within_a_bucket(s.p50_renew_latency_us, 200_000);
        assert_within_a_bucket(s.p99_renew_latency_us, 300_000);
        assert_eq!(s.journal_appends, 11);
        assert_eq!(s.journal_replayed, 4);
        assert_eq!(s.brownout_level, 2);
        assert_eq!(s.evicted_shards, 1);
    }

    #[test]
    fn what_a_request_records_into_cannot_grow() {
        // Two histograms and the counters, all inline: however many
        // requests are recorded, this is every byte they can occupy (the
        // rung tallies are the one map, keyed by the ladder's few labels).
        assert!(std::mem::size_of::<Metrics>() <= 16 * 1024);
    }

    #[test]
    fn unseen_kinds_are_omitted_and_every_request_kind_is_counted() {
        let m = Metrics::new();
        assert!(m.snapshot((0, 0), 0, 0, &LeaseReport::default()).requests_by_kind.is_empty());
        let requests = [
            Request::Hello,
            Request::Select { kernel_id: String::new(), deadline_ms: None, priority: 0 },
            Request::Batch { kernel_ids: Vec::new(), deadline_ms: None, priority: 0 },
            Request::Run {
                kernel_id: String::new(),
                iterations: 1,
                idem: None,
                deadline_ms: None,
                priority: 0,
            },
            Request::Report { residual_w: 0.0, feedback: None },
            Request::Stats,
            Request::Bye,
            Request::Shutdown,
        ];
        for request in &requests {
            m.record_request(request.kind(), 1);
        }
        let s = m.snapshot((0, 0), 0, 0, &LeaseReport::default());
        assert_eq!(s.requests_by_kind.len(), requests.len());
        assert!(s.requests_by_kind.values().all(|&count| count == 1));
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
