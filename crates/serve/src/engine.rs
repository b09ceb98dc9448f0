//! The request executor: memoized online selection over a shared model.
//!
//! The cold path for a kernel is the paper's full online stage — two
//! sample-configuration runs, CART classification, and per-configuration
//! regression (Section III-C). The engine keeps the resulting
//! [`PredictedProfile`] beside its kernel in a table of the suite, filled
//! once per kernel, so repeat clients pay only a Pareto frontier walk. A
//! batch is that walk once per kernel, in request order.
//!
//! Determinism rule (DESIGN.md §11): a hit and a miss must produce
//! byte-identical selections. That holds because the profile is a pure
//! function of `(machine seed, kernel id, model)` — the table changes
//! *when* work happens, never *what* is answered — and it is why
//! [`Selection`] carries no hit/miss flag; hit rates live in the metrics
//! snapshot only. The same rule makes a bound safe: an engine built with
//! [`Engine::with_profile_capacity`] keeps at most that many profiles, and
//! a kernel past the bound is recomputed, to the identical value, on
//! every call.
//!
//! Two memo layers live here:
//!
//! - the **profile table** (kernel id → [`PredictedProfile`]), a pure
//!   memo whose misses are reported to an optional hook — the server
//!   wires that hook to the recovery journal so a restart can re-warm
//!   the same keys;
//! - the **idempotency memo** (client key → [`Response`]), which makes
//!   retried `Run` requests exactly-once in effect: the first successful
//!   execution's response bytes are replayed verbatim for any retry
//!   carrying the same key. Its key space is unbounded, so it is a
//!   bounded LRU, evicting through an index ordered by last use; an
//!   evicted key merely downgrades a late retry to a re-execution.

use crate::protocol::{Response, Selection};
use acs_core::{
    sample_config, PredictedProfile, Predictor, SamplePair, SelectScratch, TrainedModel,
};
use acs_sim::{Device, KernelCharacteristics, Machine};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

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

/// Default bound on remembered idempotency keys.
const IDEM_CAPACITY: usize = 1024;

/// An LRU slot: the value plus the tick of its last touch.
struct Slot<V> {
    value: V,
    last_used: u64,
}

/// One suite kernel and, once it has been selected, its profile.
struct Entry {
    kernel: KernelCharacteristics,
    profile: OnceLock<Arc<PredictedProfile>>,
}

/// Called with the kernel id whenever a miss keeps a kernel's profile
/// (the server journals these so a restart can re-warm the table).
type MissHook = Box<dyn Fn(&str) + Send + Sync>;

/// Shared, thread-safe selection engine.
pub struct Engine {
    /// The model precompiled for flat evaluation (DESIGN.md §15), built
    /// once at engine construction so cold misses skip per-request
    /// tree-flattening and regression-table setup.
    predictor: Predictor,
    machine: Machine,
    /// The suite by kernel id, each kernel's profile kept beside it.
    kernels: HashMap<String, Entry>,
    /// At most this many profiles are kept (every kernel, unless a test
    /// or a benchmark probe shrinks it); `kept` counts them.
    profile_capacity: usize,
    kept: AtomicUsize,
    idem: Mutex<IdemMemo>,
    hits: AtomicU64,
    misses: AtomicU64,
    on_miss: Mutex<Option<MissHook>>,
}

/// The idempotency memo: key → response, bounded LRU. Each lookup or
/// store is one tick; beside the map, an index ordered by
/// `(last use, key)` names the least recently used key without a scan.
struct IdemMemo {
    slots: HashMap<u64, Slot<Response>>,
    by_use: BTreeSet<(u64, u64)>,
    capacity: usize,
    tick: u64,
}

impl IdemMemo {
    fn new(capacity: usize) -> Self {
        Self { slots: HashMap::new(), by_use: BTreeSet::new(), capacity, tick: 0 }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick - 1
    }

    /// The response kept under `key`, now the most recently used.
    fn lookup(&mut self, key: u64) -> Option<&Response> {
        let tick = self.next_tick();
        let slot = self.slots.get_mut(&key)?;
        self.by_use.remove(&(slot.last_used, key));
        self.by_use.insert((tick, key));
        slot.last_used = tick;
        Some(&slot.value)
    }

    /// Keep `value` under `key`, evicting the least recently used keys
    /// past capacity.
    fn store(&mut self, key: u64, value: Response) {
        let tick = self.next_tick();
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
        let kernels = acs_kernels::all_kernel_instances()
            .into_iter()
            .map(|kernel| (kernel.id(), Entry { kernel, profile: OnceLock::new() }))
            .collect();
        Self {
            predictor: Predictor::new(&model),
            machine,
            kernels,
            profile_capacity: usize::MAX,
            kept: AtomicUsize::new(0),
            idem: Mutex::new(IdemMemo::new(IDEM_CAPACITY)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            on_miss: Mutex::new(None),
        }
    }

    /// Keep at most `capacity` profiles: the first kernels selected are
    /// kept, and any other is recomputed, as a miss, on every call.
    pub fn with_profile_capacity(mut self, capacity: usize) -> Self {
        self.profile_capacity = capacity;
        self
    }

    /// Install the miss hook (server → recovery journal). Installed
    /// *after* recovery warm-up so replayed keys are not re-journaled.
    pub(crate) fn set_miss_hook(&self, hook: MissHook) {
        *self.on_miss.lock() = Some(hook);
    }

    /// The kernel with this id, if it is in the suite.
    pub fn kernel(&self, id: &str) -> Option<&KernelCharacteristics> {
        self.kernels.get(id).map(|entry| &entry.kernel)
    }

    /// Count a profile hit made without a lookup: a session that answers
    /// a `Select` from its reply memo stands in for one.
    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// `(hits, misses)` of the profile table since startup.
    pub(crate) fn cache_counts(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// The predicted profile for a kernel: computed on first use (two
    /// sample runs + classify + regress) and kept in the kernel's slot,
    /// one map lookup afterwards.
    pub fn profile(&self, kernel_id: &str) -> Result<Arc<PredictedProfile>, EngineError> {
        let entry = self
            .kernels
            .get(kernel_id)
            .ok_or_else(|| EngineError::UnknownKernel(kernel_id.to_string()))?;
        if let Some(profile) = entry.profile.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(profile));
        }
        // Concurrent misses for the same kernel duplicate pure work but
        // agree on the result bit-for-bit (the profile is a function of
        // seed + kernel + model only).
        let cpu = self.machine.run_iter(&entry.kernel, &sample_config(Device::Cpu), 0);
        let gpu = self.machine.run_iter(&entry.kernel, &sample_config(Device::Gpu), 1);
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
        // Keep it if the bound has room. Of racing misses one fills the
        // slot and fires the hook; the others give their room back.
        let room = |kept: usize| (kept < self.profile_capacity).then_some(kept + 1);
        if self.kept.fetch_update(Ordering::Relaxed, Ordering::Relaxed, room).is_ok() {
            if entry.profile.set(Arc::clone(&profile)).is_ok() {
                if let Some(hook) = self.on_miss.lock().as_ref() {
                    hook(kernel_id);
                }
            } else {
                self.kept.fetch_sub(1, Ordering::Relaxed);
            }
        }
        Ok(profile)
    }

    /// The memoized response for an idempotency key, if the keyed request
    /// already executed. Refreshes the key's LRU position.
    pub fn idem_lookup(&self, key: u64) -> Option<Response> {
        self.idem.lock().lookup(key).cloned()
    }

    /// Remember a successful response under its idempotency key so a
    /// retry replays these exact bytes instead of executing again.
    pub fn idem_store(&self, key: u64, response: &Response) {
        self.idem.lock().store(key, response.clone());
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

    /// The first `n` suite kernel ids, in id order.
    fn ids(e: &Engine, n: usize) -> Vec<String> {
        let mut ids: Vec<String> = e.kernels.keys().cloned().collect();
        ids.sort_unstable();
        ids.truncate(n);
        ids
    }

    /// Evict least-recently-used slots (ties broken by smallest key) until
    /// `map` fits `capacity`, a scan per victim: the rule the idempotency
    /// memo's ordered index must reproduce.
    fn evict_lru(map: &mut HashMap<u64, Slot<Response>>, capacity: usize) {
        while map.len() > capacity {
            let Some(victim) = map
                .iter()
                .min_by(|(ka, a), (kb, b)| a.last_used.cmp(&b.last_used).then_with(|| ka.cmp(kb)))
                .map(|(k, _)| *k)
            else {
                break;
            };
            map.remove(&victim);
        }
    }

    #[test]
    fn cache_hit_equals_cache_miss() {
        let e = engine();
        let id = ids(&e, 1).remove(0);
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
        let ids = ids(&e, 8);
        let batch = e.select_batch(&ids, 30.0);
        assert_eq!(batch.len(), ids.len());
        for (id, got) in ids.iter().zip(&batch) {
            let single = e.select(id, 30.0).unwrap();
            assert_eq!(got.as_ref().unwrap(), &single, "order or value drifted for {id}");
        }
    }

    #[test]
    fn a_kernel_past_the_bound_recomputes_identically_as_a_miss() {
        let e = engine().with_profile_capacity(2);
        let ids = ids(&e, 3);
        let kept: Vec<Selection> = ids[..2].iter().map(|id| e.select(id, 25.0).unwrap()).collect();
        let past = e.select(&ids[2], 25.0).unwrap();
        assert_eq!(e.cache_counts(), (0, 3));

        // The two kept kernels hit, to the same selections.
        for (id, first) in ids[..2].iter().zip(&kept) {
            assert_eq!(&e.select(id, 25.0).unwrap(), first);
        }
        assert_eq!(e.cache_counts(), (2, 3));
        // The third is recomputed, to the identical selection, as a miss.
        assert_eq!(e.select(&ids[2], 25.0).unwrap(), past);
        assert_eq!(e.cache_counts(), (2, 4));
        assert_eq!(e.kernels.values().filter(|entry| entry.profile.get().is_some()).count(), 2);
    }

    #[test]
    fn racing_cold_selects_agree_and_keep_the_kernel_once() {
        use std::sync::{Barrier, Mutex as StdMutex};
        const THREADS: usize = 4;
        let e = engine();
        let seen: Arc<StdMutex<Vec<String>>> = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        e.set_miss_hook(Box::new(move |id| sink.lock().unwrap().push(id.to_string())));
        let id = ids(&e, 1).remove(0);
        let barrier = Barrier::new(THREADS);
        let picked: Vec<Selection> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        e.select(&id, 25.0).unwrap()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let bits = |s: &Selection| {
            (s.config, s.cluster, s.predicted_power_w.to_bits(), s.predicted_perf.to_bits())
        };
        for selection in &picked[1..] {
            assert_eq!(bits(selection), bits(&picked[0]));
        }
        assert_eq!(*seen.lock().unwrap(), [id], "the hook fires once for the kernel");
        let (hits, misses) = e.cache_counts();
        assert_eq!(hits + misses, THREADS as u64);
    }

    #[test]
    fn restart_without_journal_recomputes_value_equal_selections() {
        // A fresh engine over the same (seed, model) is exactly what a
        // server restart without `--journal` builds: an empty table. The
        // recomputed selection must be value-equal to the warm one.
        let warm = engine();
        let id = ids(&warm, 1).remove(0);
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
                    memo.store(key, value.clone());
                    model.insert(key, Slot { value, last_used: tick });
                    evict_lru(&mut model, CAPACITY);
                } else {
                    let expected = model.get_mut(&key).map(|slot| {
                        slot.last_used = tick;
                        slot.value.clone()
                    });
                    prop_assert_eq!(memo.lookup(key).cloned(), expected);
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
        let ids = ids(&e, 2);
        e.select(&ids[0], 25.0).unwrap();
        e.select(&ids[0], 25.0).unwrap(); // hit: no hook
        e.select(&ids[1], 25.0).unwrap();
        assert_eq!(*seen.lock().unwrap(), ids);
    }

    #[test]
    fn tighter_budget_never_raises_predicted_power() {
        let e = engine();
        let id = ids(&e, 1).remove(0);
        let loose = e.select(&id, 60.0).unwrap();
        let tight = e.select(&id, 12.0).unwrap();
        assert!(tight.predicted_power_w <= loose.predicted_power_w + 1e-9);
    }
}
