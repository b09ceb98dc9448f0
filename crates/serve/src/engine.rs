//! The request executor: memoized online selection over a shared model.
//!
//! The cold path for a kernel is the paper's full online stage — two
//! sample-configuration runs, CART classification, and per-configuration
//! regression (Section III-C). The engine memoizes the resulting
//! [`PredictedProfile`] per kernel id, so repeat clients pay only a Pareto
//! frontier walk. A batch is that walk once per kernel, in request order.
//!
//! Determinism rule (DESIGN.md §11): a cache hit and a cache miss must
//! produce byte-identical selections. That holds because the profile is a
//! pure function of `(machine seed, kernel id, model)` — the cache changes
//! *when* work happens, never *what* is answered — and it is why
//! [`Selection`] carries no hit/miss flag; hit rates live in the metrics
//! snapshot only. The same rule makes eviction safe: the profile cache is
//! bounded LRU (least-recently-used out first, ties broken by kernel id),
//! and an evicted kernel is simply recomputed to the identical value.
//!
//! Two memo layers live here:
//!
//! - the **profile cache** (kernel id → [`PredictedProfile`]), a pure
//!   memo whose misses are reported to an optional hook — the server
//!   wires that hook to the recovery journal so a restart can re-warm
//!   the same keys;
//! - the **idempotency memo** (client key → [`Response`]), which makes
//!   retried `Run` requests exactly-once in effect: the first successful
//!   execution's response bytes are replayed verbatim for any retry
//!   carrying the same key. Also bounded LRU, evicting through an index
//!   ordered by last use, since every keyed `Run` stores a key; an
//!   evicted key merely downgrades a late retry to a re-execution.

use crate::protocol::{Response, Selection};
use acs_core::{
    sample_config, PredictedProfile, Predictor, SamplePair, SelectScratch, TrainedModel,
};
use acs_sim::{Device, KernelCharacteristics, Machine};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Typed engine failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The kernel id is not in the suite.
    UnknownKernel(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownKernel(id) => {
                write!(f, "unknown kernel '{id}' (try `acs suite`)")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Default bound on memoized kernel profiles. The full suite is far
/// smaller, so the default never evicts in practice; tests shrink it.
const DEFAULT_PROFILE_CAPACITY: usize = 512;

/// Default bound on remembered idempotency keys.
const IDEM_CAPACITY: usize = 1024;

/// An LRU slot: the value plus the tick of its last touch.
struct Slot<V> {
    value: V,
    last_used: u64,
}

/// Called with the kernel id whenever a profile-cache miss inserts a new
/// entry (the server journals these so a restart can re-warm the cache).
type MissHook = Box<dyn Fn(&str) + Send + Sync>;

/// Shared, thread-safe selection engine.
pub struct Engine {
    /// The model precompiled for flat evaluation (DESIGN.md §15), built
    /// once at engine construction so cold misses skip per-request
    /// tree-flattening and regression-table setup.
    predictor: Predictor,
    machine: Machine,
    kernels: BTreeMap<String, KernelCharacteristics>,
    cache: Mutex<HashMap<String, Slot<Arc<PredictedProfile>>>>,
    profile_capacity: usize,
    idem: Mutex<IdemMemo>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    on_miss: Mutex<Option<MissHook>>,
}

/// Evict least-recently-used slots (ties broken by smallest key, so the
/// victim is deterministic under equal ticks) until `map` fits `capacity`.
/// A scan per victim: the profile cache, which holds the suite's kernels
/// and never reaches its bound in service, evicts this way and so keeps a
/// hit down to one map lookup.
fn evict_lru<K: Ord + std::hash::Hash + Clone, V>(map: &mut HashMap<K, Slot<V>>, capacity: usize) {
    while map.len() > capacity {
        let Some(victim) = map
            .iter()
            .min_by(|(ka, a), (kb, b)| a.last_used.cmp(&b.last_used).then_with(|| ka.cmp(kb)))
            .map(|(k, _)| k.clone())
        else {
            break;
        };
        map.remove(&victim);
    }
}

/// The idempotency memo: key → response, bounded LRU. Beside the map,
/// an index ordered by `(last use, key)` names the victim of
/// [`evict_lru`]'s rule without a scan.
struct IdemMemo {
    slots: HashMap<u64, Slot<Response>>,
    by_use: BTreeSet<(u64, u64)>,
    capacity: usize,
}

impl IdemMemo {
    fn new(capacity: usize) -> Self {
        Self { slots: HashMap::new(), by_use: BTreeSet::new(), capacity }
    }

    /// The response kept under `key`, now last used at `tick`.
    fn lookup(&mut self, key: u64, tick: u64) -> Option<&Response> {
        let slot = self.slots.get_mut(&key)?;
        self.by_use.remove(&(slot.last_used, key));
        self.by_use.insert((tick, key));
        slot.last_used = tick;
        Some(&slot.value)
    }

    /// Keep `value` under `key`, last used at `tick`, evicting the least
    /// recently used keys past capacity.
    fn store(&mut self, key: u64, value: Response, tick: u64) {
        if let Some(old) = self.slots.insert(key, Slot { value, last_used: tick }) {
            self.by_use.remove(&(old.last_used, key));
        }
        self.by_use.insert((tick, key));
        while self.slots.len() > self.capacity {
            let Some((_, victim)) = self.by_use.pop_first() else { break };
            self.slots.remove(&victim);
        }
    }
}

impl Engine {
    /// An engine answering for the full benchmark suite on `machine`.
    pub fn new(model: Arc<TrainedModel>, machine: Machine) -> Self {
        let kernels =
            acs_kernels::all_kernel_instances().into_iter().map(|k| (k.id(), k)).collect();
        Self {
            predictor: Predictor::new(&model),
            machine,
            kernels,
            cache: Mutex::new(HashMap::new()),
            profile_capacity: DEFAULT_PROFILE_CAPACITY,
            idem: Mutex::new(IdemMemo::new(IDEM_CAPACITY)),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            on_miss: Mutex::new(None),
        }
    }

    /// Shrink (or grow) the profile-cache bound. Clamped to at least 1.
    pub fn with_profile_capacity(mut self, capacity: usize) -> Self {
        self.profile_capacity = capacity.max(1);
        self
    }

    /// Install the cache-miss hook (server → recovery journal). Installed
    /// *after* recovery warm-up so replayed keys are not re-journaled.
    pub(crate) fn set_miss_hook(&self, hook: MissHook) {
        *self.on_miss.lock() = Some(hook);
    }

    /// The kernel with this id, if it is in the suite.
    pub fn kernel(&self, id: &str) -> Option<&KernelCharacteristics> {
        self.kernels.get(id)
    }

    /// Count a profile-cache hit made without a lookup: a session that
    /// answers a `Select` from its reply memo stands in for one.
    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// `(hits, misses)` of the profile cache since startup.
    pub(crate) fn cache_counts(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// The memoized predicted profile for a kernel; computed on first use
    /// (two sample runs + classify + regress), a map lookup afterwards.
    /// The cache is bounded: beyond capacity the least-recently-used
    /// kernel is dropped and will be recomputed — to the bit-identical
    /// value — if asked for again.
    pub fn profile(&self, kernel_id: &str) -> Result<Arc<PredictedProfile>, EngineError> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        if let Some(hit) = self.cache.lock().get_mut(kernel_id) {
            hit.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&hit.value));
        }
        let kernel = self
            .kernels
            .get(kernel_id)
            .ok_or_else(|| EngineError::UnknownKernel(kernel_id.to_string()))?;
        // Compute outside the lock: concurrent misses for the same kernel
        // duplicate pure work but agree on the result bit-for-bit (the
        // profile is a function of seed + kernel + model only).
        let cpu = self.machine.run_iter(kernel, &sample_config(Device::Cpu), 0);
        let gpu = self.machine.run_iter(kernel, &sample_config(Device::Gpu), 1);
        // Per-thread scratch arena: each connection thread reuses one
        // across requests (the profile itself still owns its
        // points/frontier — the scratch only absorbs the intermediate
        // sort/sweep allocations).
        thread_local! {
            static SCRATCH: std::cell::RefCell<SelectScratch> =
                std::cell::RefCell::new(SelectScratch::new());
        }
        let profile = SCRATCH.with(|s| {
            Arc::new(self.predictor.predict_with(&SamplePair::new(cpu, gpu), &mut s.borrow_mut()))
        });
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (result, inserted) = {
            let mut cache = self.cache.lock();
            let inserted = !cache.contains_key(kernel_id);
            let slot = cache
                .entry(kernel_id.to_string())
                .or_insert(Slot { value: profile, last_used: tick });
            slot.last_used = tick;
            let result = Arc::clone(&slot.value);
            evict_lru(&mut cache, self.profile_capacity);
            (result, inserted)
        };
        if inserted {
            // Outside the cache lock: the hook may take the journal lock.
            if let Some(hook) = self.on_miss.lock().as_ref() {
                hook(kernel_id);
            }
        }
        Ok(result)
    }

    /// The memoized response for an idempotency key, if the keyed request
    /// already executed. Refreshes the key's LRU position.
    pub fn idem_lookup(&self, key: u64) -> Option<Response> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        self.idem.lock().lookup(key, tick).cloned()
    }

    /// Remember a successful response under its idempotency key so a
    /// retry replays these exact bytes instead of executing again.
    pub fn idem_store(&self, key: u64, response: &Response) {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        self.idem.lock().store(key, response.clone(), tick);
    }

    /// Select a configuration for one kernel under a budget.
    pub fn select(&self, kernel_id: &str, budget_w: f64) -> Result<Selection, EngineError> {
        let profile = self.profile(kernel_id)?;
        let config = profile.select(budget_w);
        let point = profile.point_for(&config);
        Ok(Selection {
            kernel_id: kernel_id.to_string(),
            cluster: profile.cluster,
            config,
            predicted_power_w: point.power_w,
            predicted_perf: point.perf,
            budget_w,
        })
    }

    /// Select for many kernels, in request order. Every id is profiled,
    /// also those after an unknown one. The server's `Batch` does not call
    /// this (it stops at the first unknown id); it stays only because
    /// `benchmark/src/replay.rs` calls it.
    pub fn select_batch(
        &self,
        kernel_ids: &[String],
        budget_w: f64,
    ) -> Vec<Result<Selection, EngineError>> {
        kernel_ids.iter().map(|id| self.select(id, budget_w)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn engine() -> Engine {
        let machine = Machine::new(2014);
        let model = acs_core::train_on_suite(&machine, 12).expect("training succeeds");
        Engine::new(Arc::new(model), machine)
    }

    #[test]
    fn cache_hit_equals_cache_miss() {
        let e = engine();
        let id = e.kernels.keys().next().unwrap().clone();
        let cold = e.select(&id, 25.0).unwrap();
        let warm = e.select(&id, 25.0).unwrap();
        assert_eq!(cold, warm);
        let (hits, misses) = e.cache_counts();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn unknown_kernel_is_typed() {
        let e = engine();
        match e.select("no/such/kernel", 25.0) {
            Err(EngineError::UnknownKernel(id)) => assert_eq!(id, "no/such/kernel"),
            other => panic!("expected UnknownKernel, got {other:?}"),
        }
    }

    #[test]
    fn batch_preserves_request_order_and_matches_singles() {
        let e = engine();
        let ids: Vec<String> = e.kernels.keys().take(8).cloned().collect();
        let batch = e.select_batch(&ids, 30.0);
        assert_eq!(batch.len(), ids.len());
        for (id, got) in ids.iter().zip(&batch) {
            let single = e.select(id, 30.0).unwrap();
            assert_eq!(got.as_ref().unwrap(), &single, "order or value drifted for {id}");
        }
    }

    #[test]
    fn lru_eviction_is_bounded_and_recomputes_identically() {
        let e = engine().with_profile_capacity(2);
        let ids: Vec<String> = e.kernels.keys().take(3).cloned().collect();
        let first = e.select(&ids[0], 25.0).unwrap();
        e.select(&ids[1], 25.0).unwrap();
        e.select(&ids[2], 25.0).unwrap(); // ids[0] is now least recent: out
        assert_eq!(e.cache.lock().len(), 2);

        // The evicted kernel recomputes — to the identical selection.
        let again = e.select(&ids[0], 25.0).unwrap();
        assert_eq!(first, again);
        let (hits, misses) = e.cache_counts();
        assert_eq!((hits, misses), (0, 4), "re-selecting an evicted kernel is a miss");
        assert_eq!(e.cache.lock().len(), 2);
    }

    #[test]
    fn lru_refresh_protects_recently_used_entries() {
        let e = engine().with_profile_capacity(2);
        let ids: Vec<String> = e.kernels.keys().take(3).cloned().collect();
        e.select(&ids[0], 25.0).unwrap();
        e.select(&ids[1], 25.0).unwrap();
        e.select(&ids[0], 25.0).unwrap(); // refresh: ids[1] is now LRU
        e.select(&ids[2], 25.0).unwrap(); // evicts ids[1]
        let (hits, _) = e.cache_counts();
        assert_eq!(hits, 1);
        // ids[0] survived the eviction; selecting it again is a hit.
        e.select(&ids[0], 25.0).unwrap();
        let (hits, misses) = e.cache_counts();
        assert_eq!((hits, misses), (2, 3));
    }

    #[test]
    fn restart_without_journal_recomputes_value_equal_selections() {
        // A fresh engine over the same (seed, model) is exactly what a
        // server restart without `--journal` builds: a cold cache. The
        // recomputed selection must be value-equal to the warm one.
        let warm = engine();
        let id = warm.kernels.keys().next().unwrap().clone();
        warm.select(&id, 25.0).unwrap();
        let cached = warm.select(&id, 25.0).unwrap(); // warm-path answer

        let cold = engine();
        let recomputed = cold.select(&id, 25.0).unwrap();
        assert_eq!(cached, recomputed);
        assert_eq!(cold.cache_counts().1, 1, "the restarted engine had to recompute");
    }

    #[test]
    fn idem_memo_replays_identical_bytes() {
        let e = engine();
        let response = Response::Ran {
            kernel_id: "k".into(),
            iterations: 2,
            avg_power_w: 17.5,
            total_time_s: 0.25,
            config: acs_sim::Configuration::all()[0],
            tier: "model".into(),
        };
        assert!(e.idem_lookup(9).is_none());
        e.idem_store(9, &response);
        let replayed = e.idem_lookup(9).expect("stored key replays");
        assert_eq!(
            serde_json::to_string(&replayed).unwrap(),
            serde_json::to_string(&response).unwrap(),
            "a replayed response must re-serialize to identical bytes"
        );
    }

    #[test]
    fn idem_memo_is_bounded_lru() {
        let e = engine();
        let resp = |n: u64| Response::Welcome { node_id: n, budget_w: 1.0 };
        let full = IDEM_CAPACITY as u64;
        for key in 1..=full {
            e.idem_store(key, &resp(key));
        }
        assert!(e.idem_lookup(1).is_some()); // refresh key 1: key 2 is LRU
        e.idem_store(full + 1, &resp(full + 1));
        assert!(e.idem_lookup(2).is_none(), "LRU key evicted at capacity");
        assert!(e.idem_lookup(1).is_some());
        assert!(e.idem_lookup(full + 1).is_some());
        assert_eq!(e.idem.lock().slots.len(), IDEM_CAPACITY);
    }

    proptest! {
        /// The ordered index evicts exactly what a scan for the least
        /// recently used key would: over random store/lookup sequences on a
        /// small memo, every lookup agrees with a scanning model, and the
        /// two hold the same keys at the same ticks throughout.
        #[test]
        fn idem_memo_evicts_as_a_scan_would(
            ops in prop::collection::vec((0u8..3, 0u64..12), 1..200),
        ) {
            const CAPACITY: usize = 4;
            let mut memo = IdemMemo::new(CAPACITY);
            let mut model: HashMap<u64, Slot<Response>> = HashMap::new();
            for (tick, (op, key)) in (0u64..).zip(ops) {
                let value = Response::Welcome { node_id: tick, budget_w: 1.0 };
                if op == 0 {
                    memo.store(key, value.clone(), tick);
                    model.insert(key, Slot { value, last_used: tick });
                    evict_lru(&mut model, CAPACITY);
                } else {
                    let expected = model.get_mut(&key).map(|slot| {
                        slot.last_used = tick;
                        slot.value.clone()
                    });
                    prop_assert_eq!(memo.lookup(key, tick).cloned(), expected);
                }
                let held = |slots: &HashMap<u64, Slot<Response>>| {
                    let mut held: Vec<(u64, u64)> =
                        slots.iter().map(|(key, slot)| (slot.last_used, *key)).collect();
                    held.sort_unstable();
                    held
                };
                prop_assert_eq!(held(&memo.slots), held(&model));
                prop_assert_eq!(memo.by_use.iter().copied().collect::<Vec<_>>(), held(&model));
            }
        }
    }

    #[test]
    fn miss_hook_fires_once_per_inserted_kernel() {
        use std::sync::Mutex as StdMutex;
        let e = engine();
        let seen: Arc<StdMutex<Vec<String>>> = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        e.set_miss_hook(Box::new(move |id| sink.lock().unwrap().push(id.to_string())));
        let ids: Vec<String> = e.kernels.keys().take(2).cloned().collect();
        e.select(&ids[0], 25.0).unwrap();
        e.select(&ids[0], 25.0).unwrap(); // hit: no hook
        e.select(&ids[1], 25.0).unwrap();
        assert_eq!(*seen.lock().unwrap(), ids);
    }

    #[test]
    fn tighter_budget_never_raises_predicted_power() {
        let e = engine();
        let id = e.kernels.keys().next().unwrap().clone();
        let loose = e.select(&id, 60.0).unwrap();
        let tight = e.select(&id, 12.0).unwrap();
        assert!(tight.predicted_power_w <= loose.predicted_power_w + 1e-9);
    }
}
