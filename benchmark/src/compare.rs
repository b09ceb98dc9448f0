//! `compare`: hold two result files against the bounds in
//! `BENCHMARK.json`.
//!
//! A result file holds one run or many (`run --runs N`). One row per
//! (workload, end-to-end metric): each side's median over its runs and
//! their quartile range, and a verdict. `regressed` means the second
//! file's median is worse than the first's by more than the metric's
//! bound. `unresolved` means it is not, but one side's run-to-run spread
//! is wider than the bound, so "unchanged" cannot be claimed either. A
//! side with a single run shows the quartiles of that run's slices.

use crate::stats::quartiles;
use crate::Res;
use serde::Value;
use std::collections::BTreeMap;

/// A metric's regression bound and direction, from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Share of the baseline's median the metric may worsen by.
    pub bound: f64,
    /// Whether lower values are better.
    pub lower_is_better: bool,
}

/// The verdict on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and both runs are steadier than the bound.
    Ok,
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// Within the bound, but a run's own spread exceeds it.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric on one side: its value and the quartiles around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The metric's value (the median over runs, when there are several).
    pub value: f64,
    /// First quartile (over runs, or over the one run's slices).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Reading {
    fn spread(&self) -> f64 {
        (self.q3 - self.q1).abs() / self.value.abs()
    }
}

/// Judge `candidate` against `baseline`.
pub fn judge(bound: Bound, baseline: Reading, candidate: Reading) -> Verdict {
    let change = (candidate.value - baseline.value) / baseline.value.abs();
    let worse_by = if bound.lower_is_better { change } else { -change };
    if worse_by > bound.bound {
        Verdict::Regressed
    } else if baseline.spread() > bound.bound || candidate.spread() > bound.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The end-to-end bounds `BENCHMARK.json` fixes, by metric name.
pub fn bounds_of(benchmark_json: &Value) -> Res<BTreeMap<String, Bound>> {
    let list = benchmark_json
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = match m.get("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("an end_to_end metric has no name".to_string()),
            };
            let bound = number(m.get("bound")).ok_or(format!("{name} has no bound"))?;
            let lower_is_better = match m.get("better") {
                Some(Value::Str(s)) if s == "lower" => true,
                Some(Value::Str(s)) if s == "higher" => false,
                _ => return Err(format!("{name} has no direction")),
            };
            Ok((name, Bound { bound, lower_is_better }))
        })
        .collect()
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

/// The per-workload results in a result file: a `run` file holds several,
/// a single workload's file holds itself.
fn workloads_of(file: &Value) -> Vec<&Value> {
    match file.get("workloads").and_then(Value::as_array) {
        Some(list) => list.iter().collect(),
        None => vec![file],
    }
}

/// Several runs of one metric as one reading: the median of their values
/// and the quartiles between them.
fn over_runs(runs: &[Reading]) -> Reading {
    match runs {
        [single] => *single,
        _ => {
            let values: Vec<f64> = runs.iter().map(|r| r.value).collect();
            let (q1, value, q3) = quartiles(&values);
            Reading { value, q1, q3 }
        }
    }
}

fn readings_of(file: &Value) -> BTreeMap<(String, String), Reading> {
    let mut runs: BTreeMap<(String, String), Vec<Reading>> = BTreeMap::new();
    for result in workloads_of(file) {
        let (Some(Value::Str(workload)), Some(metrics)) =
            (result.get("workload"), result.get("metrics").and_then(Value::as_map))
        else {
            continue;
        };
        for (name, m) in metrics {
            if let (Some(value), Some(q1), Some(q3)) =
                (number(m.get("value")), number(m.get("q1")), number(m.get("q3")))
            {
                runs.entry((workload.clone(), name.clone())).or_default().push(Reading {
                    value,
                    q1,
                    q3,
                });
            }
        }
    }
    runs.into_iter().map(|(key, runs)| (key, over_runs(&runs))).collect()
}

/// Compare two result files; prints the table and returns how many rows
/// regressed.
pub fn compare(
    bounds: &BTreeMap<String, Bound>,
    baseline: &Value,
    candidate: &Value,
) -> Res<usize> {
    let (a, b) = (readings_of(baseline), readings_of(candidate));
    let mut regressed = 0;
    let mut rows = 0;
    println!(
        "{:<14} {:<16} {:>14} {:>24} {:>14} {:>24} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "baseline",
        "[q1 .. q3]",
        "candidate",
        "[q1 .. q3]",
        "change",
        "bound"
    );
    for ((workload, metric), base) in &a {
        let (Some(bound), Some(cand)) =
            (bounds.get(metric), b.get(&(workload.clone(), metric.clone())))
        else {
            continue;
        };
        let verdict = judge(*bound, *base, *cand);
        regressed += usize::from(verdict == Verdict::Regressed);
        rows += 1;
        println!(
            "{workload:<14} {metric:<16} {:>14.4} {:>24} {:>14.4} {:>24} {:>+7.2}% {:>5.1}%  {}",
            base.value,
            format!("[{:.4} .. {:.4}]", base.q1, base.q3),
            cand.value,
            format!("[{:.4} .. {:.4}]", cand.q1, cand.q3),
            100.0 * (cand.value - base.value) / base.value.abs(),
            100.0 * bound.bound,
            verdict.label()
        );
    }
    if rows == 0 {
        return Err("the two files share no (workload, end-to-end metric) pair".into());
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(value: f64) -> Reading {
        Reading { value, q1: value * 0.995, q3: value * 1.005 }
    }

    #[test]
    fn an_eleven_percent_drop_regresses_and_a_nine_percent_drop_passes() {
        let throughput = Bound { bound: 0.10, lower_is_better: false };
        assert_eq!(judge(throughput, steady(100_000.0), steady(89_000.0)), Verdict::Regressed);
        assert_eq!(judge(throughput, steady(100_000.0), steady(91_000.0)), Verdict::Ok);
        assert_eq!(judge(throughput, steady(100_000.0), steady(130_000.0)), Verdict::Ok);
        let latency = Bound { bound: 0.10, lower_is_better: true };
        assert_eq!(judge(latency, steady(160.0), steady(177.7)), Verdict::Regressed);
        assert_eq!(judge(latency, steady(160.0), steady(174.3)), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let bound = Bound { bound: 0.10, lower_is_better: true };
        let noisy = Reading { value: 100.0, q1: 90.0, q3: 105.0 };
        assert_eq!(judge(bound, noisy, steady(101.0)), Verdict::Unresolved);
        assert_eq!(judge(bound, steady(100.0), noisy), Verdict::Unresolved);
        // A regression beyond the bound is still a regression.
        assert_eq!(judge(bound, noisy, steady(120.0)), Verdict::Regressed);
    }

    #[test]
    fn files_are_matched_by_workload_and_metric() {
        let file = |ops: f64| {
            serde_json::from_str::<Value>(&format!(
                r#"{{"workloads":[{{"workload":"select_warm","metrics":{{
                    "ops_per_s":{{"value":{ops},"q1":{ops},"q3":{ops}}},
                    "not_gated":{{"value":1.0,"q1":1.0,"q3":1.0}}}}}}]}}"#
            ))
            .unwrap()
        };
        let benchmark = serde_json::from_str::<Value>(
            r#"{"end_to_end":[{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let bounds = bounds_of(&benchmark).unwrap();
        assert_eq!(compare(&bounds, &file(100.0), &file(95.0)).unwrap(), 0);
        assert_eq!(compare(&bounds, &file(100.0), &file(80.0)).unwrap(), 1);
    }

    #[test]
    fn several_runs_are_read_as_their_median_and_quartiles() {
        let runs: Vec<Reading> = [100.0, 104.0, 96.0, 250.0, 98.0].map(steady).to_vec();
        let merged = over_runs(&runs);
        assert_eq!(merged.value, 100.0);
        assert!(merged.q1 < 100.0 && merged.q3 > 100.0);
        assert_eq!(over_runs(&runs[..1]), runs[0]);
    }
}
