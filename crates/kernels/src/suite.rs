//! The full evaluation suite: benchmark/input application instances and the
//! 65 kernel/input combinations of Section IV-B.
//!
//! * LULESH × {Small, Large} — 20 kernels each (40 combinations)
//! * SMC × {Small, Large} — 8 kernels each (16 combinations)
//! * CoMD × {Default} — 7 kernels (7 combinations)
//! * LU × {Small, Large} — 1 kernel each (2 combinations)
//!
//! Total: 36 distinct kernels, 65 kernel/input combinations, 7 application
//! instances.

use crate::inputs::InputSize;
use crate::{comd, lu, lulesh, smc};
use acs_sim::KernelCharacteristics;
use serde::{Deserialize, Serialize};

/// One benchmark at one input size: a sequence of kernels with normalized
/// time weights (kernels execute sequentially, per Section III-A).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppInstance {
    /// Benchmark name (`LULESH`, `CoMD`, `SMC`, `LU`).
    pub benchmark: String,
    /// Input-size label.
    pub input: String,
    /// The kernels, with weights normalized to sum to 1.
    pub kernels: Vec<KernelCharacteristics>,
}

impl AppInstance {
    fn new(benchmark: &str, input: InputSize, mut kernels: Vec<KernelCharacteristics>) -> Self {
        let total: f64 = kernels.iter().map(|k| k.weight).sum();
        assert!(total > 0.0, "{benchmark}/{input}: weights must be positive");
        for k in &mut kernels {
            k.weight /= total;
        }
        Self { benchmark: benchmark.to_string(), input: input.label().to_string(), kernels }
    }

    /// `"<benchmark> <input>"`, e.g. `"LULESH Small"`; CoMD's single input
    /// is rendered without a label, matching the paper's figures.
    pub fn label(&self) -> String {
        if self.input == "Default" {
            self.benchmark.clone()
        } else {
            format!("{} {}", self.benchmark, self.input)
        }
    }
}

/// All seven application instances of the evaluation.
pub fn app_instances() -> Vec<AppInstance> {
    vec![
        AppInstance::new(lulesh::NAME, InputSize::Small, lulesh::kernels(InputSize::Small)),
        AppInstance::new(lulesh::NAME, InputSize::Large, lulesh::kernels(InputSize::Large)),
        AppInstance::new(comd::NAME, InputSize::Default, comd::kernels(InputSize::Default)),
        AppInstance::new(smc::NAME, InputSize::Small, smc::kernels(InputSize::Small)),
        AppInstance::new(smc::NAME, InputSize::Large, smc::kernels(InputSize::Large)),
        AppInstance::new(lu::NAME, InputSize::Small, lu::kernels(InputSize::Small)),
        AppInstance::new(lu::NAME, InputSize::Large, lu::kernels(InputSize::Large)),
    ]
}

/// The training sample every train-here / schedule-elsewhere test, golden
/// and bench uses: CoMD `Default` then SMC `Small` — 15 kernels that never
/// include the scheduled app (LULESH), in the order blessed goldens pin.
pub fn training_kernels() -> Vec<KernelCharacteristics> {
    let mut kernels = comd::kernels(InputSize::Default);
    kernels.extend(smc::kernels(InputSize::Small));
    kernels
}

/// All 65 kernel/input combinations, flattened.
pub fn all_kernel_instances() -> Vec<KernelCharacteristics> {
    app_instances().into_iter().flat_map(|a| a.kernels).collect()
}

/// Number of distinct kernels (ignoring input size).
pub fn distinct_kernel_count() -> usize {
    let mut names: Vec<String> =
        all_kernel_instances().iter().map(|k| format!("{}/{}", k.benchmark, k.name)).collect();
    names.sort();
    names.dedup();
    names.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_65_combinations() {
        assert_eq!(all_kernel_instances().len(), 65);
    }

    #[test]
    fn suite_has_36_distinct_kernels() {
        assert_eq!(distinct_kernel_count(), 36);
    }

    #[test]
    fn suite_has_7_app_instances() {
        assert_eq!(app_instances().len(), 7);
    }

    #[test]
    fn weights_normalize_per_app() {
        for app in app_instances() {
            let total: f64 = app.kernels.iter().map(|k| k.weight).sum();
            assert!((total - 1.0).abs() < 1e-9, "{}: weights sum to {total}", app.label());
        }
    }

    #[test]
    fn all_instances_validate() {
        for k in all_kernel_instances() {
            assert!(k.validate().is_empty(), "{:?}", k.validate());
        }
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<String> = all_kernel_instances().iter().map(|k| k.id()).collect();
        ids.sort();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn labels_match_paper_figures() {
        let labels: Vec<String> = app_instances().iter().map(|a| a.label()).collect();
        assert!(labels.contains(&"LULESH Small".to_string()));
        assert!(labels.contains(&"LULESH Large".to_string()));
        assert!(labels.contains(&"CoMD".to_string()));
        assert!(labels.contains(&"LU Small".to_string()));
        assert!(labels.contains(&"LU Large".to_string()));
    }

    #[test]
    fn benchmark_names_cover_four_suites() {
        let mut benches: Vec<String> =
            app_instances().iter().map(|a| a.benchmark.clone()).collect();
        benches.sort();
        benches.dedup();
        assert_eq!(benches, ["CoMD", "LU", "LULESH", "SMC"]);
    }
}
