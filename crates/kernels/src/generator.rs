//! Synthetic training-workload generator.
//!
//! Section III-B: "we use a cross-validation scheme to select training
//! kernels; however, the training set could be composed of
//! microbenchmarks or a standard benchmark suite." This module generates
//! such microbenchmark sets: seeded, parameterized sweeps over the latent
//! space (compute/memory mix, GPU affinity, divergence, …) that span
//! behavior space *by construction* instead of by benchmark curation.
//!
//! Experiment A7 (`ablation_microbench`) trains on a generated set and
//! validates on the real suite — the deployment mode a vendor would ship.

use acs_sim::{KernelCharacteristics, SplitMix64};
use serde::{Deserialize, Serialize};

/// Parameter ranges for microbenchmark generation. Each latent is drawn
/// log- or linearly-uniformly from its range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Number of microbenchmarks to generate.
    count: usize,
    /// Single-thread compute time range at reference frequency, seconds
    /// (log-uniform).
    compute_time_s: (f64, f64),
    /// Memory-boundedness range (fraction of reference time DRAM-bound).
    memory_boundedness: (f64, f64),
    /// GPU speedup range (log-uniform).
    gpu_speedup: (f64, f64),
    /// Branch-divergence range.
    branch_divergence: (f64, f64),
    /// Parallel-fraction range.
    parallel_fraction: (f64, f64),
    /// Vectorization range.
    vector_fraction: (f64, f64),
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            count: 40,
            compute_time_s: (0.0005, 0.05),
            memory_boundedness: (0.02, 0.85),
            gpu_speedup: (0.5, 30.0),
            branch_divergence: (0.0, 0.7),
            parallel_fraction: (0.55, 0.995),
            vector_fraction: (0.05, 0.7),
        }
    }
}

fn uniform(state: &mut SplitMix64, (lo, hi): (f64, f64)) -> f64 {
    lo + state.next_f64() * (hi - lo)
}

fn log_uniform(state: &mut SplitMix64, (lo, hi): (f64, f64)) -> f64 {
    assert!(lo > 0.0 && hi > lo);
    (uniform(state, (lo.ln(), hi.ln()))).exp()
}

/// Generate a seeded microbenchmark training set.
///
/// The latents are drawn independently except for physically-motivated
/// couplings: memory-bound kernels saturate bandwidth at fewer threads and
/// switch less; divergent kernels vectorize poorly.
pub fn generate(config: &GeneratorConfig, seed: u64) -> Vec<KernelCharacteristics> {
    let mut state = SplitMix64(seed ^ 0x5DEECE66D);
    (0..config.count)
        .map(|i| {
            let compute = log_uniform(&mut state, config.compute_time_s);
            let mem_bound = uniform(&mut state, config.memory_boundedness);
            let memory = compute * mem_bound / (1.0 - mem_bound).max(0.05);
            let divergence = uniform(&mut state, config.branch_divergence);
            let vector = uniform(&mut state, config.vector_fraction) * (1.0 - divergence);

            KernelCharacteristics {
                name: format!("ubench-{i:03}"),
                benchmark: "Microbench".into(),
                input: "Gen".into(),
                compute_time_s: compute,
                memory_time_s: memory,
                parallel_fraction: uniform(&mut state, config.parallel_fraction),
                bw_saturation_threads: 1.5 + 2.5 * (1.0 - mem_bound),
                module_sharing_penalty: 0.05 + 0.3 * vector,
                sync_overhead: uniform(&mut state, (0.01, 0.08)),
                gpu_speedup: log_uniform(&mut state, config.gpu_speedup),
                branch_divergence: divergence,
                gpu_bw_advantage: uniform(&mut state, (1.0, 1.6)),
                launch_overhead_s: log_uniform(&mut state, (1e-4, 6e-4)),
                vector_fraction: vector.clamp(0.0, 1.0),
                working_set_mb: log_uniform(&mut state, (2.0, 64.0)),
                cpu_activity: 0.26 + 0.30 * (1.0 - mem_bound),
                gpu_activity: 0.35 + 0.45 * (1.0 - mem_bound),
                weight: 1.0 / config.count as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count_of_valid_kernels() {
        let ks = generate(&GeneratorConfig::default(), 1);
        assert_eq!(ks.len(), 40);
        for k in &ks {
            assert!(k.validate().is_empty(), "{:?}", k.validate());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = GeneratorConfig::default();
        assert_eq!(generate(&cfg, 9), generate(&cfg, 9));
        assert_ne!(generate(&cfg, 9), generate(&cfg, 10));
    }

    #[test]
    fn names_are_unique() {
        let ks = generate(&GeneratorConfig::default(), 3);
        let mut names: Vec<&str> = ks.iter().map(|k| k.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 40);
    }

    #[test]
    fn spans_behavior_space() {
        let ks = generate(&GeneratorConfig { count: 100, ..Default::default() }, 7);
        let gpu_min = ks.iter().map(|k| k.gpu_speedup).fold(f64::INFINITY, f64::min);
        let gpu_max = ks.iter().map(|k| k.gpu_speedup).fold(0.0, f64::max);
        assert!(gpu_max / gpu_min > 8.0, "GPU affinity span {gpu_min}..{gpu_max}");
        let mb_min = ks.iter().map(|k| k.memory_boundedness()).fold(f64::INFINITY, f64::min);
        let mb_max = ks.iter().map(|k| k.memory_boundedness()).fold(0.0, f64::max);
        assert!(mb_min < 0.15 && mb_max > 0.6, "memory span {mb_min}..{mb_max}");
    }

    #[test]
    fn couplings_hold() {
        for k in generate(&GeneratorConfig { count: 200, ..Default::default() }, 5) {
            // Divergent kernels cannot also be heavily vectorized.
            assert!(k.vector_fraction <= 1.0 - k.branch_divergence + 1e-9);
            // Memory-bound kernels saturate bandwidth early.
            if k.memory_boundedness() > 0.7 {
                assert!(k.bw_saturation_threads < 3.0);
            }
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let ks = generate(&GeneratorConfig::default(), 2);
        let total: f64 = ks.iter().map(|k| k.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
