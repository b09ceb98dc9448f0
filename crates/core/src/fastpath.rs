//! Precomputed, allocation-free online selection (DESIGN.md §15).
//!
//! The scalar online path (the reference in `acs_verify::reference`)
//! rebuilds each configuration's feature row, evaluates four regressions
//! per device, clones the 42 predicted points, and fully sorts them to
//! extract the frontier — every select. This module restructures that
//! work for the machine:
//!
//! * [`ConfigSpace`] — a struct-of-arrays view of the 42-configuration
//!   space, feature columns precomputed once per process;
//! * per-model precomputation, held by [`Predictor`]: per-cluster
//!   power/ratio columns (regression inputs are static per configuration,
//!   so the whole regression collapses to tables at build time) plus a
//!   power-sorted frontier skeleton (permutation + equal-power tie-group
//!   ranges);
//! * [`SelectScratch`] — a caller-owned arena so steady-state selection
//!   allocates nothing.
//!
//! A warm select is then: the CART walk, 42 multiplies
//! (`perf = ratio · S_perf`, one fused pass per device block), a
//! non-domination sweep over the precomputed permutation, and a binary
//! search. The fast path is **bit-for-bit float-identical** to the scalar
//! path — same IEEE operations in the same order (the §10/§14 discipline)
//! — gated by `tests/fastpath_identity.rs` and the pinned `results/`
//! artifacts.

use crate::features::{config_features, SamplePair, CONFIG_FEATURES};
use crate::frontier::PowerPerfPoint;
use crate::offline::{unstabilize, ClusterModels};
use crate::online::Predictor;
use acs_mlstat::LinearModel;
use acs_sim::{Configuration, Device};
use std::sync::OnceLock;

/// Struct-of-arrays view of the configuration space: parallel feature
/// columns over [`Configuration::all`]'s order, with the two device blocks
/// contiguous (`[0, cpu_end)` CPU, `[cpu_end, len)` GPU).
#[derive(Debug)]
pub struct ConfigSpace {
    configs: &'static [Configuration],
    /// `cols[k][i]` = feature `k` of configuration `i`
    /// ([`config_features`] laid out column-major).
    cols: [Vec<f64>; CONFIG_FEATURES],
    /// Index of the first GPU-device configuration.
    cpu_end: usize,
}

impl ConfigSpace {
    /// The process-wide space, built once.
    pub fn get() -> &'static ConfigSpace {
        static SPACE: OnceLock<ConfigSpace> = OnceLock::new();
        SPACE.get_or_init(|| {
            let configs = Configuration::all();
            let cpu_end = configs.iter().filter(|c| c.device == Device::Cpu).count();
            // The fused per-device passes assume the enumerate order is
            // index order with contiguous device blocks; assert it once
            // here rather than trusting it silently everywhere below.
            for (i, c) in configs.iter().enumerate() {
                assert_eq!(c.index(), i, "enumerate order must be index order");
                assert_eq!(
                    c.device == Device::Cpu,
                    i < cpu_end,
                    "device blocks must be contiguous"
                );
            }
            let mut cols: [Vec<f64>; CONFIG_FEATURES] =
                std::array::from_fn(|_| Vec::with_capacity(configs.len()));
            for c in configs {
                let x = config_features(c);
                for (col, v) in cols.iter_mut().zip(x) {
                    col.push(v);
                }
            }
            ConfigSpace { configs, cols, cpu_end }
        })
    }

    /// Number of configurations (42).
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Always false — the space is never empty.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Index of the first GPU-device configuration.
    pub fn cpu_end(&self) -> usize {
        self.cpu_end
    }

    /// The configurations, in index order.
    pub fn configs(&self) -> &'static [Configuration] {
        self.configs
    }
}

/// Per-cluster precomputed tables: everything about a cluster's predictions
/// that does not depend on the incoming kernel's samples.
#[derive(Debug, Clone)]
pub(crate) struct ClusterTables {
    /// Predicted performance ratio per configuration (unstabilized,
    /// clamped) — runtime perf is `ratio[i] · S_perf(device)`.
    pub(crate) ratio: Vec<f64>,
    /// Predicted absolute power per configuration (W, clamped).
    pub(crate) power: Vec<f64>,
    /// Frontier skeleton: configuration indices sorted by
    /// `(power asc, index asc)`.
    order: Vec<u32>,
    /// Half-open ranges *within `order`* sharing exactly equal power; only
    /// these need their `(perf desc, index asc)` tie-break refined at
    /// select time (power ties are rare — usually this is empty).
    ties: Vec<(u32, u32)>,
}

impl ClusterTables {
    pub(crate) fn build(space: &ConfigSpace, models: &ClusterModels, stab: bool) -> Self {
        let n = space.len();
        let mut ratio = vec![0.0; n];
        let mut power = vec![0.0; n];
        eval_columns(space, &models.perf_cpu, 0, space.cpu_end, &mut ratio);
        eval_columns(space, &models.perf_gpu, space.cpu_end, n, &mut ratio);
        eval_columns(space, &models.power_cpu, 0, space.cpu_end, &mut power);
        eval_columns(space, &models.power_gpu, space.cpu_end, n, &mut power);
        for i in 0..n {
            ratio[i] = unstabilize(ratio[i], stab).max(1e-9);
            power[i] = unstabilize(power[i], stab).max(0.1);
        }

        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            power[a as usize].partial_cmp(&power[b as usize]).unwrap().then(a.cmp(&b))
        });
        let mut ties = Vec::new();
        let mut start = 0usize;
        for i in 1..=n {
            if i == n || power[order[i] as usize] != power[order[start] as usize] {
                if i - start > 1 {
                    ties.push((start as u32, i as u32));
                }
                start = i;
            }
        }
        Self { ratio, power, order, ties }
    }

    /// Fill `scratch` with this kernel's predictions for the cluster: the
    /// fused perf pass, the tie-refined frontier permutation, and the
    /// non-domination sweep (same semantics as
    /// [`Frontier::from_points`](crate::frontier::Frontier::from_points)).
    pub(crate) fn prepare(&self, samples: &SamplePair, scratch: &mut SelectScratch) {
        let space = ConfigSpace::get();
        let s_cpu = samples.perf_on(Device::Cpu);
        let s_gpu = samples.perf_on(Device::Gpu);

        let SelectScratch { perf, order, frontier } = scratch;
        perf.clear();
        perf.extend(self.ratio[..space.cpu_end].iter().map(|r| r * s_cpu));
        perf.extend(self.ratio[space.cpu_end..].iter().map(|r| r * s_gpu));

        order.clear();
        order.extend_from_slice(&self.order);
        // Only equal-power runs depend on runtime perf for their relative
        // order; refine them to `(perf desc, index asc)` so the full
        // permutation matches `from_points`' `(power asc, perf desc,
        // index asc)` sort exactly.
        for &(a, b) in &self.ties {
            order[a as usize..b as usize].sort_by(|&x, &y| {
                perf[y as usize].partial_cmp(&perf[x as usize]).unwrap().then(x.cmp(&y))
            });
        }

        frontier.clear();
        for &i in order.iter() {
            let i = i as usize;
            let (pw, pf) = (self.power[i], perf[i]);
            match frontier.last() {
                Some(last) if pf <= last.perf => {}
                Some(last) if pw == last.power_w => {}
                _ => frontier.push(PowerPerfPoint {
                    config: space.configs[i],
                    power_w: pw,
                    perf: pf,
                }),
            }
        }
    }
}

/// Evaluate `model` over configurations `[from, to)` into `out`, one fused
/// pass per coefficient column. The accumulation replicates
/// [`LinearModel::predict`]'s left fold exactly: start at `0.0`, add
/// `cₖ·xₖ` in column order, then add the intercept in front — the same
/// IEEE operations in the same order, so the tables are bit-identical to
/// per-config scalar evaluation.
fn eval_columns(space: &ConfigSpace, model: &LinearModel, from: usize, to: usize, out: &mut [f64]) {
    let coeffs = if model.intercept { &model.coeffs[1..] } else { &model.coeffs[..] };
    for v in out[from..to].iter_mut() {
        *v = 0.0;
    }
    // `predict` zips coefficients with features, truncating to the shorter.
    for (col, &c) in space.cols.iter().zip(coeffs) {
        for (v, &x) in out[from..to].iter_mut().zip(&col[from..to]) {
            *v += c * x;
        }
    }
    if model.intercept {
        let b0 = model.coeffs[0];
        // Kept as `b0 + acc` (not `+=`): `predict` computes the intercept
        // on the left, and the bitwise-identity gate pins that op order.
        #[allow(clippy::assign_op_pattern)]
        for v in out[from..to].iter_mut() {
            *v = b0 + *v;
        }
    }
}

/// Caller-owned scratch arena for [`Predictor`] selection: reuse one per
/// worker/request loop and steady-state selects allocate nothing. The
/// contents are dead between calls — any scratch works with any
/// [`Predictor`].
#[derive(Debug, Clone)]
pub struct SelectScratch {
    pub(crate) perf: Vec<f64>,
    order: Vec<u32>,
    pub(crate) frontier: Vec<PowerPerfPoint>,
}

impl SelectScratch {
    /// A scratch sized for the configuration space.
    pub fn new() -> Self {
        let n = Configuration::space_size();
        Self {
            perf: Vec::with_capacity(n),
            order: Vec::with_capacity(n),
            frontier: Vec::with_capacity(n),
        }
    }
}

impl Default for SelectScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// [`Predictor`] under the name `benchmark/` imports it by.
pub type FastModel = Predictor;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::{train, TrainedModel, TrainingParams};
    use crate::profile::{collect_suite, KernelProfile};
    use acs_sim::{KernelCharacteristics, Machine};

    fn archetypes() -> Vec<KernelCharacteristics> {
        let mut kernels = Vec::new();
        for i in 0..4u32 {
            let s = 1.0 + f64::from(i) * 0.2;
            kernels.push(KernelCharacteristics {
                name: format!("gpu-friendly-{i}"),
                gpu_speedup: 12.0 * s,
                compute_time_s: 0.012 * s,
                ..Default::default()
            });
            kernels.push(KernelCharacteristics {
                name: format!("membound-{i}"),
                compute_time_s: 0.001 * s,
                memory_time_s: 0.012 * s,
                gpu_speedup: 3.0,
                ..Default::default()
            });
            kernels.push(KernelCharacteristics {
                name: format!("divergent-{i}"),
                gpu_speedup: 1.2,
                branch_divergence: 0.7,
                parallel_fraction: 0.85,
                ..Default::default()
            });
        }
        kernels
    }

    fn trained() -> (TrainedModel, Vec<KernelProfile>) {
        let profiles = collect_suite(&Machine::new(7), &archetypes());
        let model =
            train(&profiles, TrainingParams { n_clusters: 3, ..Default::default() }).unwrap();
        (model, profiles)
    }

    #[test]
    fn config_space_is_index_ordered_with_contiguous_blocks() {
        let space = ConfigSpace::get();
        assert_eq!(space.len(), Configuration::space_size());
        assert!(!space.is_empty());
        assert!(space.cpu_end() > 0 && space.cpu_end() < space.len());
        for (i, c) in space.configs().iter().enumerate() {
            let x = config_features(c);
            for (k, col) in space.cols.iter().enumerate() {
                assert_eq!(col[i].to_bits(), x[k].to_bits());
            }
        }
    }

    #[test]
    fn cluster_tables_match_scalar_regression_bitwise() {
        let (model, _) = trained();
        let space = ConfigSpace::get();
        let stab = model.params.stabilize_variance;
        for (cluster, models) in model.clusters.iter().enumerate() {
            let tables = ClusterTables::build(space, models, stab);
            for (i, config) in space.configs().iter().enumerate() {
                let x = config_features(config);
                let (perf_model, power_model) = match config.device {
                    Device::Cpu => (&models.perf_cpu, &models.power_cpu),
                    Device::Gpu => (&models.perf_gpu, &models.power_gpu),
                };
                let ratio = unstabilize(perf_model.predict(&x), stab).max(1e-9);
                let power = unstabilize(power_model.predict(&x), stab).max(0.1);
                assert_eq!(tables.ratio[i].to_bits(), ratio.to_bits(), "ratio c{cluster} i{i}");
                assert_eq!(tables.power[i].to_bits(), power.to_bits(), "power c{cluster} i{i}");
            }
        }
    }

    #[test]
    fn scratch_is_reusable_across_models_and_kernels() {
        let (model, profiles) = trained();
        let profiles2 = collect_suite(&Machine::new(11), &archetypes());
        let model2 =
            train(&profiles2, TrainingParams { n_clusters: 4, ..Default::default() }).unwrap();
        let (fast, fast2) = (Predictor::new(&model), Predictor::new(&model2));
        let mut scratch = SelectScratch::new();
        // Interleave models/kernels through one scratch; results must not
        // depend on what the scratch held before.
        for (p, q) in profiles.iter().zip(&profiles2) {
            let a1 = fast.select_with(&p.sample_pair(), 20.0, &mut scratch);
            let b1 = fast2.select_with(&q.sample_pair(), 20.0, &mut scratch);
            let a2 = fast.select_with(&p.sample_pair(), 20.0, &mut SelectScratch::new());
            let b2 = fast2.select_with(&q.sample_pair(), 20.0, &mut SelectScratch::new());
            assert_eq!(a1, a2);
            assert_eq!(b1, b2);
        }
    }
}
