//! The exhaustive oracle engine.
//!
//! Ground truth for every differential check: sweep a kernel over the full
//! 42-configuration space on a seeded [`Machine`], extract the true-power
//! Pareto frontier, and answer "what would a perfect-knowledge scheduler
//! have picked at this cap?". Frontier extraction is cheap but the sweep is
//! not free at grid scale, so frontiers cache to disk as self-describing
//! JSON records keyed by `(machine seed, kernel id)` — a warm cache makes a
//! conformance run mostly I/O.

use acs_core::{Frontier, KernelProfile, PowerPerfPoint};
use acs_sim::{Configuration, FamilyId, KernelCharacteristics, Machine};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// One cached oracle frontier, self-describing so a stale or foreign file
/// is detected instead of silently trusted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierRecord {
    /// Family of the machine the frontier was swept on (absent in
    /// pre-family records, which deserialize as Trinity).
    #[serde(default)]
    pub family: FamilyId,
    /// Seed of the machine the frontier was swept on.
    pub machine_seed: u64,
    /// Kernel identifier.
    pub kernel_id: String,
    /// The true-power Pareto frontier.
    pub frontier: Frontier,
}

/// The oracle engine: exhaustive sweeps with an optional disk cache.
#[derive(Debug, Clone, Default)]
pub struct OracleEngine {
    cache_dir: Option<PathBuf>,
}

/// The oracle's answer at one cap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OracleChoice {
    /// The selected configuration.
    pub config: Configuration,
    /// Its true power, W.
    pub power_w: f64,
    /// Its performance (inverse time).
    pub perf: f64,
    /// Whether the selection meets the cap (false only when no
    /// configuration can: the oracle fell back to minimum power).
    pub feasible: bool,
}

impl OracleChoice {
    /// The answer [`Frontier::select`] gave on a true-power frontier.
    pub fn new(point: &PowerPerfPoint, feasible: bool) -> Self {
        Self { config: point.config, power_w: point.power_w, perf: point.perf, feasible }
    }
}

impl OracleEngine {
    /// An engine that always sweeps (no cache).
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine caching frontiers under `dir` (created on demand).
    pub fn with_cache(dir: impl Into<PathBuf>) -> Self {
        Self { cache_dir: Some(dir.into()) }
    }

    fn cache_path(&self, family: FamilyId, machine_seed: u64, kernel_id: &str) -> Option<PathBuf> {
        let dir = self.cache_dir.as_ref()?;
        let safe: String = kernel_id
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '.' { c } else { '_' })
            .collect();
        // The family id namespaces the cache: each `(family, seed)` node
        // owns its own frontier files, so heterogeneous grids never race
        // or alias on a shared slot. (Trinity's files carry the prefix
        // too; pre-family `oracle-{seed}-…` files are simply ignored.)
        Some(dir.join(format!("oracle-{family}-{machine_seed}-{safe}.json")))
    }

    fn load_cached(
        path: &Path,
        family: FamilyId,
        machine_seed: u64,
        kernel_id: &str,
    ) -> Option<Frontier> {
        let json = std::fs::read_to_string(path).ok()?;
        let record: FrontierRecord = serde_json::from_str(&json).ok()?;
        // A hash-collision or hand-edited file must not masquerade as the
        // requested frontier.
        (record.family == family
            && record.machine_seed == machine_seed
            && record.kernel_id == kernel_id)
            .then_some(record.frontier)
    }

    /// The oracle frontier for `kernel` on `machine`, from cache when
    /// possible. Corrupt or mismatched cache entries are recomputed and
    /// overwritten.
    pub fn frontier(&self, machine: &Machine, kernel: &KernelCharacteristics) -> Frontier {
        let id = kernel.id();
        let path = self.cache_path(machine.family, machine.seed, &id);
        if let Some(p) = &path {
            if let Some(frontier) = Self::load_cached(p, machine.family, machine.seed, &id) {
                return frontier;
            }
        }
        let frontier = KernelProfile::collect(machine, kernel).oracle_frontier();
        if let Some(p) = &path {
            let record = FrontierRecord {
                family: machine.family,
                machine_seed: machine.seed,
                kernel_id: id,
                frontier: frontier.clone(),
            };
            // Cache writes are best-effort: a read-only filesystem costs
            // re-sweeps, never correctness.
            if let Some(parent) = p.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            if let Ok(json) = serde_json::to_string(&record) {
                let _ = std::fs::write(p, json);
            }
        }
        frontier
    }

    /// Oracle frontiers for a whole kernel suite on one machine: the
    /// per-(machine, kernel) 42-configuration sweeps are independent, so
    /// they fan out across rayon threads. Results are index-ordered
    /// (aligned with `kernels`), and the disk cache behaves exactly as in
    /// [`OracleEngine::frontier`] — each kernel writes its own record.
    pub fn frontiers(&self, machine: &Machine, kernels: &[KernelCharacteristics]) -> Vec<Frontier> {
        use rayon::prelude::*;
        kernels.par_iter().map(|k| self.frontier(machine, k)).collect()
    }

    /// The oracle's selection from a frontier at `cap_w`: the
    /// best-performing point meeting the cap, else the minimum-power
    /// fallback.
    pub fn choose(frontier: &Frontier, cap_w: f64) -> OracleChoice {
        let (point, feasible) = frontier.select(cap_w);
        OracleChoice::new(point, feasible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> KernelCharacteristics {
        KernelCharacteristics::default()
    }

    #[test]
    fn uncached_engine_matches_profile_frontier() {
        let machine = Machine::new(3);
        let engine = OracleEngine::new();
        let f = engine.frontier(&machine, &kernel());
        assert_eq!(f, KernelProfile::collect(&machine, &kernel()).oracle_frontier());
    }

    #[test]
    fn cache_roundtrips_and_is_reused() {
        let dir = std::env::temp_dir().join("acs-verify-test-oracle-cache");
        let _ = std::fs::remove_dir_all(&dir);
        let machine = Machine::new(5);
        let engine = OracleEngine::with_cache(&dir);
        let first = engine.frontier(&machine, &kernel());
        let path = engine.cache_path(FamilyId::Trinity, 5, &kernel().id()).unwrap();
        assert!(path.exists(), "sweep must populate the cache");
        let second = engine.frontier(&machine, &kernel());
        assert_eq!(first, second);
    }

    #[test]
    fn corrupt_cache_entry_is_recomputed() {
        let dir = std::env::temp_dir().join("acs-verify-test-oracle-corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let machine = Machine::new(5);
        let engine = OracleEngine::with_cache(&dir);
        let good = engine.frontier(&machine, &kernel());
        let path = engine.cache_path(FamilyId::Trinity, 5, &kernel().id()).unwrap();
        std::fs::write(&path, "{ not json").unwrap();
        assert_eq!(engine.frontier(&machine, &kernel()), good);
        // The corrupt file was overwritten with a valid record.
        assert!(OracleEngine::load_cached(&path, FamilyId::Trinity, 5, &kernel().id()).is_some());
    }

    #[test]
    fn mismatched_seed_in_cache_is_ignored() {
        let dir = std::env::temp_dir().join("acs-verify-test-oracle-mismatch");
        let _ = std::fs::remove_dir_all(&dir);
        let engine = OracleEngine::with_cache(&dir);
        let f7 = engine.frontier(&Machine::new(7), &kernel());
        // Forge seed 8's slot with seed 7's record.
        let forged = engine.cache_path(FamilyId::Trinity, 8, &kernel().id()).unwrap();
        std::fs::copy(engine.cache_path(FamilyId::Trinity, 7, &kernel().id()).unwrap(), &forged)
            .unwrap();
        let f8 = engine.frontier(&Machine::new(8), &kernel());
        assert_ne!(f7, f8, "different machines must not share frontiers via the cache");
    }

    #[test]
    fn families_get_disjoint_cache_slots() {
        let dir = std::env::temp_dir().join("acs-verify-test-oracle-family");
        let _ = std::fs::remove_dir_all(&dir);
        let engine = OracleEngine::with_cache(&dir);
        let k = kernel();
        let mut frontiers = Vec::new();
        for family in FamilyId::ALL {
            let machine = Machine::from_family(family, 11);
            frontiers.push(engine.frontier(&machine, &k));
            let path = engine.cache_path(family, 11, &k.id()).unwrap();
            assert!(path.exists(), "{family} must own a cache slot");
            // A warm hit returns the identical frontier.
            assert_eq!(engine.frontier(&machine, &k), *frontiers.last().unwrap());
        }
        // Distinct families produce distinct frontiers at the same seed —
        // aliasing cache slots would have collapsed them.
        for i in 0..frontiers.len() {
            for j in i + 1..frontiers.len() {
                assert_ne!(
                    frontiers[i],
                    frontiers[j],
                    "{} and {} share a frontier",
                    FamilyId::ALL[i],
                    FamilyId::ALL[j]
                );
            }
        }
        // Forging one family's record into another's slot is detected.
        let trinity_path = engine.cache_path(FamilyId::Trinity, 11, &k.id()).unwrap();
        let accel_path = engine.cache_path(FamilyId::AccelHybrid, 11, &k.id()).unwrap();
        std::fs::copy(&trinity_path, &accel_path).unwrap();
        let accel = engine.frontier(&Machine::from_family(FamilyId::AccelHybrid, 11), &k);
        assert_ne!(accel, frontiers[0], "forged family record must not be trusted");
    }

    #[test]
    fn choose_is_optimal_and_flags_feasibility() {
        let machine = Machine::new(3);
        let f = OracleEngine::new().frontier(&machine, &kernel());
        let generous = OracleEngine::choose(&f, 1e9);
        assert!(generous.feasible);
        assert_eq!(generous.perf, f.max_perf().unwrap().perf);
        let impossible = OracleEngine::choose(&f, 0.1);
        assert!(!impossible.feasible);
        assert_eq!(impossible.power_w, f.min_power().unwrap().power_w);
    }
}
