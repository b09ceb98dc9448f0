//! The seeded scenario grid the verification subsystem replays.
//!
//! A *scenario* is one `(machine seed, kernel, power cap)` triple. The grid
//! is generated deterministically from a [`GridParams`], so every session —
//! local `cargo test`, CI, `acs reproduce` — sees exactly the same scenarios
//! and the differential results are comparable across commits.
//!
//! The grid follows the paper's leave-one-benchmark-out discipline: the
//! kernels *evaluated* never appear in the training suite the differential
//! runner trains its model on, so Model/Model+FL are judged on genuinely
//! unseen kernels (Section V-C).

use acs_core::profile::KernelProfile;
use acs_kernels::{training_kernels, InputSize};
use acs_sim::{FamilyId, KernelCharacteristics, Machine};
use serde::{Deserialize, Serialize};

/// Grid generation parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridParams {
    /// Machine seeds: one simulated node per `(family, seed)` pair.
    pub machine_seeds: Vec<u64>,
    /// Machine families instantiated per seed. An empty list (e.g. a
    /// record serialized before families existed) means Trinity only.
    #[serde(default)]
    pub families: Vec<FamilyId>,
    /// Power constraints probed per kernel, spread across the kernel's
    /// oracle frontier power range.
    pub caps_per_kernel: usize,
    /// Stretch factor below the frontier's minimum power for the tightest
    /// cap (a value `< 1` includes one infeasible cap per kernel, forcing
    /// every method through its fallback path).
    pub tight_cap_factor: f64,
}

impl Default for GridParams {
    fn default() -> Self {
        Self {
            machine_seeds: vec![2014, 7, 99],
            families: vec![FamilyId::Trinity],
            caps_per_kernel: 4,
            tight_cap_factor: 0.9,
        }
    }
}

impl GridParams {
    /// A reduced grid for fast smoke checks (one machine, two caps).
    pub fn quick() -> Self {
        Self { machine_seeds: vec![2014], caps_per_kernel: 2, ..Self::default() }
    }

    /// The heterogeneous transfer grid: every machine family on one seed,
    /// full cap resolution. One node per family keeps each
    /// `(train family, serve family)` pair's scenario set identical in
    /// shape, so transfer-regret differences are attributable to the
    /// family alone.
    pub fn transfer() -> Self {
        Self { machine_seeds: vec![2014], families: FamilyId::ALL.to_vec(), ..Self::default() }
    }

    /// [`GridParams::transfer`] at smoke-check resolution (two caps).
    pub fn transfer_quick() -> Self {
        Self { caps_per_kernel: 2, ..Self::transfer() }
    }

    /// The families this grid instantiates (empty normalizes to Trinity).
    fn effective_families(&self) -> Vec<FamilyId> {
        if self.families.is_empty() {
            vec![FamilyId::Trinity]
        } else {
            self.families.clone()
        }
    }
}

/// A machine's worth of scenarios plus the data needed to replay them.
pub struct MachineScenarios {
    /// The simulated node.
    pub machine: Machine,
    /// Profiles the differential runner trains on (never evaluated).
    pub training: Vec<KernelProfile>,
    /// Profiles under evaluation, each with its probe caps.
    pub evaluated: Vec<(KernelProfile, Vec<f64>)>,
}

/// The full grid: per-machine scenario sets.
pub struct ScenarioGrid {
    /// One entry per machine seed.
    pub machines: Vec<MachineScenarios>,
}

/// The held-out evaluation suite: LULESH Small (20 kernels) plus LU at two
/// input sizes — 22 kernels per machine, none of which trains the model.
pub(crate) fn evaluation_kernels() -> Vec<KernelCharacteristics> {
    acs_kernels::lulesh::kernels(InputSize::Small)
        .into_iter()
        .chain(acs_kernels::lu::kernels(InputSize::Small))
        .chain(acs_kernels::lu::kernels(InputSize::Large))
        .collect()
}

/// The probe caps for one kernel: `caps_per_kernel` watt levels spread
/// evenly from below the oracle frontier's minimum power (infeasible when
/// `tight_cap_factor < 1`) up to its maximum.
fn probe_caps(profile: &KernelProfile, params: &GridParams) -> Vec<f64> {
    let frontier = profile.oracle_frontier();
    let lo = frontier.min_power().expect("non-empty frontier").power_w * params.tight_cap_factor;
    let hi = frontier.max_perf().expect("non-empty frontier").power_w;
    let n = params.caps_per_kernel.max(1);
    (0..n).map(|i| if n == 1 { hi } else { lo + (hi - lo) * i as f64 / (n - 1) as f64 }).collect()
}

impl ScenarioGrid {
    /// Generate the grid: characterize training and evaluation kernels on
    /// every machine and derive each kernel's probe caps. The machine
    /// order matches `params.machine_seeds` within each family.
    pub fn generate(params: GridParams) -> Self {
        // Families vary in the outer position so a single-family grid
        // keeps its historical seed order and a transfer grid groups each
        // family's machines together.
        let machines = params
            .effective_families()
            .into_iter()
            .flat_map(|f| params.machine_seeds.iter().map(move |&s| (f, s)))
            .map(|(family, seed)| {
                let machine = Machine::from_family(family, seed);
                let training = acs_core::collect_suite(&machine, &training_kernels());
                let evaluated = acs_core::collect_suite(&machine, &evaluation_kernels())
                    .into_iter()
                    .map(|p| {
                        let caps = probe_caps(&p, &params);
                        (p, caps)
                    })
                    .collect();
                MachineScenarios { machine, training, evaluated }
            })
            .collect();
        Self { machines }
    }

    /// Total `(machine, kernel, cap)` scenario count.
    pub fn len(&self) -> usize {
        self.machines
            .iter()
            .map(|m| m.evaluated.iter().map(|(_, caps)| caps.len()).sum::<usize>())
            .sum()
    }

    /// True when the grid holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_has_at_least_200_scenarios() {
        // 3 machines × 22 kernels × 4 caps = 264.
        let params = GridParams::default();
        let expected =
            params.machine_seeds.len() * evaluation_kernels().len() * params.caps_per_kernel;
        assert!(expected >= 200, "{expected} scenarios");
    }

    #[test]
    fn training_and_evaluation_suites_are_disjoint() {
        let train: Vec<String> = training_kernels().iter().map(|k| k.id()).collect();
        for k in evaluation_kernels() {
            assert!(!train.contains(&k.id()), "{} leaks into training", k.id());
        }
    }

    #[test]
    fn probe_caps_span_the_frontier_and_include_an_infeasible_one() {
        let machine = Machine::new(2014);
        let k = &evaluation_kernels()[0];
        let profile = KernelProfile::collect(&machine, k);
        let caps = probe_caps(&profile, &GridParams::default());
        assert_eq!(caps.len(), 4);
        assert!(caps.windows(2).all(|w| w[0] < w[1]), "caps must increase: {caps:?}");
        let frontier = profile.oracle_frontier();
        assert!(caps[0] < frontier.min_power().unwrap().power_w, "tightest cap is infeasible");
        assert!((caps[3] - frontier.max_perf().unwrap().power_w).abs() < 1e-9);
    }

    #[test]
    fn quick_grid_generates_deterministically() {
        // Every `(family, seed, kernel, caps)` row of a grid.
        let rows = |grid: &ScenarioGrid| -> Vec<(FamilyId, u64, String, Vec<f64>)> {
            let machines = grid.machines.iter();
            machines
                .flat_map(|m| {
                    let at = (m.machine.family, m.machine.seed);
                    m.evaluated
                        .iter()
                        .map(move |(p, caps)| (at.0, at.1, p.kernel.id(), caps.clone()))
                })
                .collect()
        };
        let a = ScenarioGrid::generate(GridParams::quick());
        let b = ScenarioGrid::generate(GridParams::quick());
        assert_eq!(rows(&a), rows(&b));
        assert!(!a.is_empty());
        assert_eq!(a.len(), rows(&a).iter().map(|r| r.3.len()).sum::<usize>());
    }

    #[test]
    fn transfer_grid_covers_every_family_once() {
        let params = GridParams::transfer_quick();
        assert_eq!(params.effective_families().len(), acs_sim::FamilyId::ALL.len());
        let grid = ScenarioGrid::generate(params);
        let families: Vec<_> = grid.machines.iter().map(|m| m.machine.family).collect();
        assert_eq!(families, acs_sim::FamilyId::ALL.to_vec());
        // Every family serves the same kernel × cap shape.
        let shape: Vec<usize> =
            grid.machines[0].evaluated.iter().map(|(_, caps)| caps.len()).collect();
        for m in &grid.machines[1..] {
            let s: Vec<usize> = m.evaluated.iter().map(|(_, caps)| caps.len()).collect();
            assert_eq!(s, shape, "family {} differs in scenario shape", m.machine.family);
        }
    }

    #[test]
    fn empty_families_normalize_to_trinity() {
        let params = GridParams { families: vec![], ..GridParams::quick() };
        assert_eq!(params.effective_families(), vec![acs_sim::FamilyId::Trinity]);
    }
}
