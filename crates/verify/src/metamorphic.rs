//! Metamorphic invariants: properties every correct implementation must
//! satisfy regardless of tuning, model quality, or simulator constants.
//!
//! Differential testing (see [`crate::differential`]) asks "how close to
//! the oracle?"; metamorphic testing asks "does the system even make
//! sense?". The invariants here come from first principles:
//!
//! 1. **Cap monotonicity** — granting more power can never make the
//!    oracle slower.
//! 2. **Frontier soundness** — Pareto points are mutually non-dominated.
//! 3. **Permutation invariance** — clustering training kernels must not
//!    depend on the order the kernels were listed in.
//! 4. **Seed determinism** — the same seed yields byte-identical
//!    timelines, on any thread, guarded chaos included.

use acs_core::dissimilarity::dissimilarity_matrix;
use acs_core::offline::TrainedModel;
use acs_core::profile::KernelProfile;
use acs_core::{CappedRuntime, Frontier, GuardPolicy};
use acs_kernels::AppInstance;
use acs_mlstat::cluster::pam;
use acs_sim::{FaultPlan, FaultyMachine, Machine};
use std::collections::BTreeSet;

/// One violated invariant, with enough context to debug it.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// Raising the cap lowered oracle performance.
    CapMonotonicity {
        /// Kernel whose frontier misbehaved.
        kernel_id: String,
        /// The lower cap, W.
        cap_lo_w: f64,
        /// The higher cap, W.
        cap_hi_w: f64,
        /// Oracle perf at the lower cap.
        perf_lo: f64,
        /// Oracle perf at the higher cap (smaller — the violation).
        perf_hi: f64,
    },
    /// Two frontier points dominate one another.
    FrontierDomination {
        /// Kernel whose frontier misbehaved.
        kernel_id: String,
        /// Index of the dominating point.
        winner: usize,
        /// Index of the dominated point.
        loser: usize,
    },
    /// Reordering the training kernels changed the clustering partition.
    ClusterPermutation {
        /// Human description of the permutation applied.
        permutation: String,
    },
    /// Two same-seed runs diverged.
    SeedDeterminism {
        /// Which replay path diverged ("unguarded" or "guarded-chaos").
        path: String,
        /// First byte offset at which the serialized timelines differ.
        first_diff_at: usize,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::CapMonotonicity {
                kernel_id,
                cap_lo_w,
                cap_hi_w,
                perf_lo,
                perf_hi,
            } => {
                write!(
                    f,
                    "cap monotonicity: {kernel_id} oracle perf fell {perf_lo:.4} → {perf_hi:.4} \
                     as the cap rose {cap_lo_w:.1} W → {cap_hi_w:.1} W"
                )
            }
            InvariantViolation::FrontierDomination { kernel_id, winner, loser } => {
                write!(f, "frontier: {kernel_id} point #{loser} is dominated by point #{winner}")
            }
            InvariantViolation::ClusterPermutation { permutation } => {
                write!(f, "clustering changed under kernel permutation: {permutation}")
            }
            InvariantViolation::SeedDeterminism { path, first_diff_at } => {
                write!(f, "{path} timelines diverge at byte {first_diff_at} despite equal seeds")
            }
        }
    }
}

/// Invariant 1: sweep caps across (and beyond) the frontier's power range
/// and check the oracle's achievable perf never decreases as the cap rises.
pub fn check_cap_monotonicity(kernel_id: &str, frontier: &Frontier) -> Vec<InvariantViolation> {
    let Some(min_p) = frontier.min_power() else { return Vec::new() };
    let Some(max_p) = frontier.max_perf() else { return Vec::new() };
    let lo = min_p.power_w * 0.8;
    let hi = max_p.power_w * 1.2;
    let caps: Vec<f64> = (0..32).map(|i| lo + (hi - lo) * i as f64 / 31.0).collect();

    let perf_at = |cap: f64| frontier.best_under(cap).map(|p| p.perf);
    let mut violations = Vec::new();
    for w in caps.windows(2) {
        let (a, b) = (perf_at(w[0]), perf_at(w[1]));
        match (a, b) {
            // Feasible at the lower cap but not the higher, or perf drops:
            // both break monotonicity.
            (Some(pa), Some(pb)) if pb < pa => {
                violations.push(InvariantViolation::CapMonotonicity {
                    kernel_id: kernel_id.into(),
                    cap_lo_w: w[0],
                    cap_hi_w: w[1],
                    perf_lo: pa,
                    perf_hi: pb,
                })
            }
            (Some(pa), None) => violations.push(InvariantViolation::CapMonotonicity {
                kernel_id: kernel_id.into(),
                cap_lo_w: w[0],
                cap_hi_w: w[1],
                perf_lo: pa,
                perf_hi: f64::NEG_INFINITY,
            }),
            _ => {}
        }
    }
    violations
}

/// Invariant 2: no frontier point may dominate another (≤ power and
/// ≥ perf, strict somewhere).
pub fn check_frontier_non_domination(
    kernel_id: &str,
    frontier: &Frontier,
) -> Vec<InvariantViolation> {
    let pts = frontier.points();
    let mut violations = Vec::new();
    for i in 0..pts.len() {
        for j in 0..pts.len() {
            if i == j {
                continue;
            }
            let dominates = pts[i].power_w <= pts[j].power_w
                && pts[i].perf >= pts[j].perf
                && (pts[i].power_w < pts[j].power_w || pts[i].perf > pts[j].perf);
            if dominates {
                violations.push(InvariantViolation::FrontierDomination {
                    kernel_id: kernel_id.into(),
                    winner: i,
                    loser: j,
                });
            }
        }
    }
    violations
}

/// A clustering as a label-free partition: the set of co-member groups,
/// each identified by the kernel ids it contains. Two clusterings are the
/// same partition iff these sets are equal, whatever the cluster numbers.
fn partition_of(ids: &[String], assignment: &[usize]) -> BTreeSet<BTreeSet<String>> {
    let k = assignment.iter().copied().max().map_or(0, |m| m + 1);
    (0..k)
        .map(|c| {
            assignment
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a == c)
                .map(|(i, _)| ids[i].clone())
                .collect::<BTreeSet<String>>()
        })
        .filter(|group| !group.is_empty())
        .collect()
}

/// Invariant 3: clustering the same training profiles in a different order
/// must yield the same partition (cluster *labels* may differ — only
/// co-membership matters).
fn check_cluster_permutation_invariance(
    profiles: &[KernelProfile],
    n_clusters: usize,
) -> Vec<InvariantViolation> {
    if profiles.len() < n_clusters || n_clusters == 0 {
        return Vec::new();
    }
    let cluster = |ps: &[&KernelProfile]| {
        let frontiers: Vec<Frontier> = ps.iter().map(|p| p.frontier()).collect();
        let ids: Vec<String> = ps.iter().map(|p| p.kernel.id()).collect();
        let clustering = pam(&dissimilarity_matrix(&frontiers), n_clusters);
        partition_of(&ids, &clustering.assignment)
    };

    let original: Vec<&KernelProfile> = profiles.iter().collect();
    let baseline = cluster(&original);

    let mut violations = Vec::new();
    let permutations: [(&str, Vec<&KernelProfile>); 2] = [
        ("reversed", profiles.iter().rev().collect()),
        ("rotated by 3", {
            let mid = 3 % profiles.len().max(1);
            profiles[mid..].iter().chain(profiles[..mid].iter()).collect()
        }),
    ];
    for (label, permuted) in permutations {
        if cluster(&permuted) != baseline {
            violations.push(InvariantViolation::ClusterPermutation { permutation: label.into() });
        }
    }
    violations
}

/// First index at which two byte strings differ (their common length if
/// one is a prefix of the other).
fn first_diff(a: &str, b: &str) -> usize {
    a.bytes().zip(b.bytes()).position(|(x, y)| x != y).unwrap_or_else(|| a.len().min(b.len()))
}

/// Replay an app twice through identical runtimes and return both
/// serialized timelines. `build` must construct the runtime from scratch
/// (same seed) on every call; the second replay runs on a spawned thread
/// to pin "regardless of thread count".
fn replay_twice<E, F>(build: F, app: &AppInstance, iterations: u64) -> (String, String)
where
    E: acs_sim::Executor,
    F: Fn() -> CappedRuntime<E> + Send + Sync,
{
    let run = |mut rt: CappedRuntime<E>| {
        // Guarded runtimes absorb faults; unguarded replays here use
        // fault-free executors, so errors mean a broken invariant *setup*,
        // not a broken invariant.
        rt.run_app(app, iterations).expect("replay must complete");
        rt.timeline().to_json()
    };
    let first = run(build());
    let second = std::thread::scope(|s| s.spawn(|| run(build())).join().expect("replay thread"));
    (first, second)
}

/// Invariant 4: byte-identical timelines for equal seeds, on the plain
/// machine and under the guarded chaos path from the fault-injection
/// harness.
fn check_seed_determinism(
    machine_seed: u64,
    model: &TrainedModel,
    app: &AppInstance,
) -> Vec<InvariantViolation> {
    let cap_w = 25.0;
    let iterations = 6;
    let mut violations = Vec::new();

    let (a, b) = replay_twice(
        || CappedRuntime::new(Machine::new(machine_seed), model.clone(), cap_w),
        app,
        iterations,
    );
    if a != b {
        violations.push(InvariantViolation::SeedDeterminism {
            path: "unguarded".into(),
            first_diff_at: first_diff(&a, &b),
        });
    }

    let chaos = FaultPlan {
        sensor_dropout_p: 0.10,
        sensor_freeze_p: 0.05,
        pstate_fail_p: 0.05,
        run_fail_p: 0.02,
        ..FaultPlan::none(machine_seed ^ 0x5eed)
    };
    let (a, b) = replay_twice(
        || {
            CappedRuntime::guarded(
                FaultyMachine::new(Machine::new(machine_seed), chaos.clone()),
                model.clone(),
                cap_w,
                GuardPolicy::default(),
            )
        },
        app,
        iterations,
    );
    if a != b {
        violations.push(InvariantViolation::SeedDeterminism {
            path: "guarded-chaos".into(),
            first_diff_at: first_diff(&a, &b),
        });
    }
    violations
}

/// Invariants 1 + 2 swept across a whole machine family: collect each
/// kernel's oracle frontier on a freshly instantiated member of `family`
/// and require cap monotonicity and non-domination. The frontier
/// invariants are family-independent physics — a parametrization that
/// breaks them (e.g. a power curve that inverts under a wide GPU) is a
/// bug in the family descriptor, and this is the check that names it.
/// Only the every-family test runs it.
#[cfg(test)]
fn check_family_frontiers(
    family: acs_sim::FamilyId,
    machine_seed: u64,
    kernels: &[acs_sim::KernelCharacteristics],
) -> Vec<InvariantViolation> {
    let machine = Machine::from_family(family, machine_seed);
    let mut violations = Vec::new();
    for k in kernels {
        let id = format!("{family}:{}", k.id());
        let frontier = KernelProfile::collect(&machine, k).oracle_frontier();
        violations.extend(check_cap_monotonicity(&id, &frontier));
        violations.extend(check_frontier_non_domination(&id, &frontier));
    }
    violations
}

/// Run every metamorphic invariant over a machine's worth of grid data:
/// frontier checks per evaluated kernel, permutation invariance over the
/// training suite, and seed determinism for the runtime.
pub fn check_all(
    machine_seed: u64,
    training: &[KernelProfile],
    evaluated: &[KernelProfile],
    model: &TrainedModel,
    app: &AppInstance,
) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    for p in evaluated {
        let id = p.kernel.id();
        let frontier = p.oracle_frontier();
        violations.extend(check_cap_monotonicity(&id, &frontier));
        violations.extend(check_frontier_non_domination(&id, &frontier));
    }
    violations.extend(check_cluster_permutation_invariance(training, model.params.n_clusters));
    violations.extend(check_seed_determinism(machine_seed, model, app));
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_core::{collect_suite, train, PowerPerfPoint, TrainingParams};
    use acs_kernels::InputSize;
    use acs_sim::{Configuration, CpuPState};

    fn machine() -> Machine {
        Machine::new(2014)
    }

    fn training_profiles(m: &Machine) -> Vec<KernelProfile> {
        collect_suite(m, &acs_kernels::training_kernels())
    }

    fn lulesh() -> AppInstance {
        acs_kernels::app_instances().into_iter().find(|a| a.label() == "LULESH Small").unwrap()
    }

    #[test]
    fn real_frontiers_satisfy_monotonicity_and_non_domination() {
        let m = machine();
        for k in acs_kernels::lulesh::kernels(InputSize::Small) {
            let f = KernelProfile::collect(&m, &k).oracle_frontier();
            assert_eq!(check_cap_monotonicity(&k.id(), &f), vec![]);
            assert_eq!(check_frontier_non_domination(&k.id(), &f), vec![]);
        }
    }

    #[test]
    fn a_dominated_point_is_detected() {
        // Hand-build a frontier-shaped struct with a dominated point by
        // constructing one from raw points via from_points on a crafted
        // set is impossible (it prunes), so check the checker on a pruned
        // frontier plus a synthetic violation of monotonicity instead:
        // best_under on a correct frontier can never violate, so feed the
        // checker a frontier of one point and assert no false positives.
        let cfg = Configuration::cpu(4, CpuPState::MAX);
        let f =
            Frontier::from_points(vec![PowerPerfPoint { config: cfg, power_w: 10.0, perf: 1.0 }]);
        assert_eq!(check_cap_monotonicity("solo", &f), vec![]);
        assert_eq!(check_frontier_non_domination("solo", &f), vec![]);
    }

    #[test]
    fn clustering_is_permutation_invariant_on_the_training_suite() {
        let m = machine();
        let profiles = training_profiles(&m);
        let v = check_cluster_permutation_invariance(&profiles, 5);
        assert_eq!(v, vec![], "{v:?}");
    }

    #[test]
    fn partition_comparison_ignores_label_names() {
        let ids: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        // Same partition, different labels.
        let p1 = partition_of(&ids, &[0, 0, 1]);
        let p2 = partition_of(&ids, &[1, 1, 0]);
        assert_eq!(p1, p2);
        // Genuinely different partition.
        let p3 = partition_of(&ids, &[0, 1, 1]);
        assert_ne!(p1, p3);
    }

    #[test]
    fn seed_determinism_holds_for_plain_and_chaos_paths() {
        let m = machine();
        let model = train(&training_profiles(&m), TrainingParams::default()).unwrap();
        let v = check_seed_determinism(2014, &model, &lulesh());
        assert_eq!(v, vec![], "{v:?}");
    }

    #[test]
    fn check_all_is_clean_on_the_reference_machine() {
        let m = machine();
        let training = training_profiles(&m);
        let model = train(&training, TrainingParams::default()).unwrap();
        let evaluated = collect_suite(&m, &acs_kernels::lu::kernels(InputSize::Small));
        let v = check_all(2014, &training, &evaluated, &model, &lulesh());
        assert_eq!(v, vec![], "{v:?}");
    }

    #[test]
    fn every_family_satisfies_the_frontier_invariants() {
        let kernels = acs_kernels::lu::kernels(InputSize::Small);
        for family in acs_sim::FamilyId::ALL {
            let v = check_family_frontiers(family, 2014, &kernels);
            assert_eq!(v, vec![], "{family}: {v:?}");
        }
    }

    #[test]
    fn first_diff_reports_the_right_offset() {
        assert_eq!(first_diff("abcd", "abXd"), 2);
        assert_eq!(first_diff("abc", "abcd"), 3);
        assert_eq!(first_diff("", ""), 0);
    }
}
