//! Bootstrap confidence intervals for evaluation metrics.
//!
//! The paper reports point estimates (Table III); a reproduction should
//! also say how stable those numbers are under resampling of the kernel
//! population. This module bootstraps the per-method summaries by
//! resampling *kernels* (the exchangeable unit — constraints within a
//! kernel are correlated) with replacement.

use crate::eval::{summarize, CaseResult};
use crate::methods::Method;
use acs_sim::SplitMix64;
use serde::{Deserialize, Serialize};

/// A percentile interval for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Interval {
    /// Point estimate from the full sample.
    point: f64,
    /// Lower percentile bound.
    lo: f64,
    /// Upper percentile bound.
    hi: f64,
}

/// Bootstrap intervals for one method's headline metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MethodIntervals {
    /// The method.
    method: Method,
    /// Percent of constraints met.
    pct_under: Interval,
    /// Percent of oracle performance in under-limit cases.
    under_perf_pct: Interval,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Bootstrap the `(pct_under, under_perf_pct)` pair for every compared
/// method by resampling kernels with replacement.
///
/// `confidence` is the two-sided coverage (e.g. 0.95); `replicates`
/// controls resolution (hundreds suffice for percentile intervals).
pub fn bootstrap_table3(
    cases: &[CaseResult],
    replicates: usize,
    confidence: f64,
    seed: u64,
) -> Vec<MethodIntervals> {
    assert!((0.0..1.0).contains(&confidence), "confidence must be in (0,1)");
    assert!(replicates >= 10, "need at least 10 replicates");

    // Group case indices by kernel.
    let mut kernel_ids: Vec<&str> = cases.iter().map(|c| &*c.kernel_id).collect();
    kernel_ids.sort();
    kernel_ids.dedup();
    let groups: Vec<Vec<usize>> = kernel_ids
        .iter()
        .map(|&id| {
            cases
                .iter()
                .enumerate()
                .filter_map(|(i, c)| (*c.kernel_id == *id).then_some(i))
                .collect()
        })
        .collect();

    let alpha = (1.0 - confidence) / 2.0;
    let mut state = SplitMix64(seed);

    Method::COMPARED
        .iter()
        .map(|&method| {
            let point = summarize(cases, method);
            let mut under_samples = Vec::with_capacity(replicates);
            let mut perf_samples = Vec::with_capacity(replicates);
            for _ in 0..replicates {
                let mut resampled: Vec<&CaseResult> = Vec::with_capacity(cases.len());
                for _ in 0..groups.len() {
                    let pick = (state.next_u64() as usize) % groups.len();
                    resampled.extend(groups[pick].iter().map(|&i| &cases[i]));
                }
                let s = summarize(resampled, method);
                under_samples.push(s.pct_under);
                if let Some(p) = s.under_perf_pct {
                    perf_samples.push(p);
                }
            }
            under_samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
            perf_samples.sort_by(|a, b| a.partial_cmp(b).unwrap());

            MethodIntervals {
                method,
                pct_under: Interval {
                    point: point.pct_under,
                    lo: percentile(&under_samples, alpha),
                    hi: percentile(&under_samples, 1.0 - alpha),
                },
                under_perf_pct: Interval {
                    point: point.under_perf_pct.unwrap_or(f64::NAN),
                    lo: percentile(&perf_samples, alpha),
                    hi: percentile(&perf_samples, 1.0 - alpha),
                },
            }
        })
        .collect()
}

/// Convenience: intervals from a full summary's cases and the matching
/// point summaries rendered side by side.
pub fn render_intervals(intervals: &[MethodIntervals]) -> String {
    let mut out = String::from(
        "Method    | %Under [95% CI]          | Under %Perf [95% CI]\n\
         ----------+--------------------------+----------------------------\n",
    );
    for mi in intervals {
        out.push_str(&format!(
            "{:<9} | {:>5.1} [{:>5.1}, {:>5.1}]     | {:>5.1} [{:>5.1}, {:>5.1}]\n",
            mi.method.name(),
            mi.pct_under.point,
            mi.pct_under.lo,
            mi.pct_under.hi,
            mi.under_perf_pct.point,
            mi.under_perf_pct.lo,
            mi.under_perf_pct.hi,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{characterize_apps, evaluate};
    use crate::offline::TrainingParams;
    use acs_kernels::{AppInstance, InputSize};
    use acs_sim::Machine;

    fn cases() -> Vec<CaseResult> {
        let machine = Machine::new(5);
        let apps = vec![
            AppInstance {
                benchmark: "CoMD".into(),
                input: "Default".into(),
                kernels: acs_kernels::comd::kernels(InputSize::Default),
            },
            AppInstance {
                benchmark: "SMC".into(),
                input: "Small".into(),
                kernels: acs_kernels::smc::kernels(InputSize::Small),
            },
        ];
        let apps = characterize_apps(&machine, &apps);
        evaluate(&apps, TrainingParams { n_clusters: 3, ..Default::default() }).unwrap().cases
    }

    #[test]
    fn intervals_bracket_point_estimates() {
        let cases = cases();
        let intervals = bootstrap_table3(&cases, 100, 0.95, 7);
        assert_eq!(intervals.len(), Method::COMPARED.len());
        for mi in &intervals {
            assert!(mi.pct_under.lo <= mi.pct_under.hi);
            // Percentile bootstrap brackets the point estimate in all but
            // pathological cases; allow a whisker of slack.
            assert!(
                mi.pct_under.lo <= mi.pct_under.point + 5.0
                    && mi.pct_under.point - 5.0 <= mi.pct_under.hi,
                "{mi:?}"
            );
            assert!((0.0..=100.0).contains(&mi.pct_under.lo));
            assert!((0.0..=100.0).contains(&mi.pct_under.hi));
        }
    }

    #[test]
    fn wider_confidence_widens_intervals() {
        let cases = cases();
        let narrow = bootstrap_table3(&cases, 200, 0.50, 7);
        let wide = bootstrap_table3(&cases, 200, 0.99, 7);
        let width = |iv: &Interval| iv.hi - iv.lo;
        let mut wider = 0;
        for (n, w) in narrow.iter().zip(&wide) {
            if width(&w.pct_under) >= width(&n.pct_under) {
                wider += 1;
            }
        }
        assert!(wider >= 3, "99% CI should not be narrower than 50% CI (wider={wider}/4)");
    }

    #[test]
    fn deterministic_in_seed() {
        let cases = cases();
        assert_eq!(bootstrap_table3(&cases, 50, 0.95, 11), bootstrap_table3(&cases, 50, 0.95, 11));
        assert_ne!(bootstrap_table3(&cases, 50, 0.95, 11), bootstrap_table3(&cases, 50, 0.95, 12));
    }

    #[test]
    fn render_mentions_every_method() {
        let cases = cases();
        let txt = render_intervals(&bootstrap_table3(&cases, 50, 0.95, 1));
        for m in Method::COMPARED {
            assert!(txt.contains(m.name()));
        }
    }

    #[test]
    #[should_panic(expected = "replicates")]
    fn too_few_replicates_rejected() {
        let cases = cases();
        let _ = bootstrap_table3(&cases, 1, 0.95, 0);
    }
}
