//! `acs-benchmark`: the system's benchmark.
//!
//! ```text
//! acs-benchmark run [--workload NAME] [--seed N] [--runs N] [--seconds S] [--trace [0|1]] [--quick]
//! acs-benchmark compare BASELINE.json CANDIDATE.json
//! ```
//!
//! `run` with a workload measures it in this process and ends with the
//! one-line result object; without one it re-executes itself once per
//! workload (so each workload's peak memory is its own) and gathers the
//! results into one file. See `benchmark/README.md`.

mod alloc;
mod compare;
mod layers;
mod loadgen;
mod metrics;
mod quality;
mod replay;
mod report;
mod rng;
mod runner;
mod rusage;
mod script;
mod stats;
mod sut;
mod trace;
mod workload;
mod workloads;

use report::{out_dir, read_json, result_path, write_json};
use runner::RunOpts;
use serde::Value;
use std::path::Path;
use std::process::ExitCode;

/// Errors are sentences: every failure ends the command with one.
pub type Res<T> = Result<T, String>;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "usage:
  acs-benchmark run [--workload NAME] [--seed N] [--runs N] [--seconds S] [--trace [0|1]] [--quick]
  acs-benchmark compare BASELINE.json CANDIDATE.json
workloads: select_warm, mixed_journal, session_churn, offline_loocv";

/// How long a timed phase measures unless `--seconds` says otherwise
/// (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    runs: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse_run(args: &[String]) -> Res<RunArgs> {
    let mut parsed =
        RunArgs { workload: None, seed: 2014, runs: 1, seconds: None, trace: false, quick: false };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?.parse().map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let seconds: f64 =
                    value("--seconds")?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be positive and at most 600".into());
                }
                parsed.seconds = Some(seconds);
            }
            "--runs" => {
                parsed.runs =
                    value("--runs")?.parse().map_err(|_| "--runs takes a whole number")?;
                if parsed.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--quick" => parsed.quick = true,
            // `--trace` alone means the traced run; the harness passes 0 or 1.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown option '{other}'\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn run(args: &[String]) -> Res<bool> {
    let args = parse_run(args)?;
    // A quick run keeps every workload and every check at about a
    // hundredth of the work.
    let seconds = args.seconds.unwrap_or(if args.quick { 0.3 } else { DEFAULT_SECONDS });
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("create {}: {e}", out_dir().display()))?;
    match args.workload {
        // One run of one workload happens in this process.
        Some(workload) if args.runs == 1 => {
            let opts = RunOpts {
                workload,
                seed: args.seed,
                seconds,
                trace: args.trace,
                quick: args.quick,
            };
            let result = runner::run(&opts)?;
            println!("{}", result.harness_line());
            Ok(result.correct)
        }
        Some(workload) => {
            if !workload::NAMES.contains(&workload.as_str()) {
                return Err(format!("unknown workload '{workload}'\n{USAGE}"));
            }
            run_all(&[workload.as_str()], args.seed, args.runs, seconds, args.trace, args.quick)
        }
        None => run_all(&workload::NAMES, args.seed, args.runs, seconds, args.trace, args.quick),
    }
}

/// Every workload `runs` times over (seeds `seed`, `seed + 1`, ...), each
/// run in a process of its own, then one file for all of them.
fn run_all(
    names: &[&str],
    seed: u64,
    runs: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Res<bool> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut results = Vec::new();
    let mut correct = true;
    let each = names.iter().flat_map(|name| (seed..seed + runs).map(move |s| (name, s)));
    for (name, seed) in each {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["run", "--workload", name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if quick {
            child.arg("--quick");
        }
        // `status` waits for the child to end.
        let status = child.status().map_err(|e| format!("cannot start {name}: {e}"))?;
        correct &= status.success();
        if let Ok(result) = read_json(&result_path(name, seed, trace)) {
            results.push(result);
        }
    }
    let repeat = if runs > 1 { format!("-x{runs}") } else { String::new() };
    let path = out_dir().join(format!("run-seed{seed}{repeat}-trace{}.json", u8::from(trace)));
    let all = Value::Map(vec![
        ("seed".into(), Value::U64(seed)),
        ("runs".into(), Value::U64(runs)),
        ("trace".into(), Value::Bool(trace)),
        ("quick".into(), Value::Bool(quick)),
        ("workloads".into(), Value::Array(results)),
    ]);
    write_json(&path, &all)?;
    println!("== all workloads: {}", path.display());
    if quick {
        println!("   --quick: a smoke run; its numbers are not to be gated on");
    }
    Ok(correct)
}

fn compare(args: &[String]) -> Res<bool> {
    let [baseline, candidate] = args else {
        return Err(format!("compare takes two result files\n{USAGE}"));
    };
    let benchmark = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bounds = compare::bounds_of(&read_json(&benchmark)?)?;
    let regressed = compare::compare(
        &bounds,
        &read_json(Path::new(baseline))?,
        &read_json(Path::new(candidate))?,
    )?;
    if regressed > 0 {
        println!("{regressed} regressed");
    }
    Ok(regressed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => run(rest),
        Some((command, rest)) if command == "compare" => compare(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the binary must name the same metrics with
    /// the same units and directions, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let text = include_str!("../../BENCHMARK.json");
        let json: Value = serde_json::from_str(text).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            json.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.get(k) {
                        Some(Value::Str(s)) => s.clone(),
                        other => panic!("{key}: bad {k}: {other:?}"),
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let defined = |defs: &[metrics::MetricDef]| -> Vec<(String, String, String)> {
            defs.iter().map(|d| (d.name.into(), d.unit.into(), d.better.into())).collect()
        };
        assert_eq!(listed("end_to_end"), defined(&metrics::END_TO_END));
        assert_eq!(listed("per_layer"), defined(&metrics::PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| match w.get("name") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("bad workload name {other:?}"),
            })
            .collect();
        assert_eq!(workloads, workload::NAMES);
        assert!(compare::bounds_of(&json).unwrap().values().all(|b| b.bound <= 0.25));
        assert_eq!(json.get("run_seconds"), Some(&Value::U64(DEFAULT_SECONDS as u64)));
    }

    #[test]
    fn trace_flag_takes_an_optional_zero_or_one() {
        let parse = |args: &[&str]| {
            parse_run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
        };
        assert!(parse(&["--trace"]).trace);
        assert!(parse(&["--trace", "1"]).trace);
        assert!(!parse(&["--trace", "0"]).trace);
        let mixed = parse(&["--trace", "--quick", "--seed", "7"]);
        assert!(mixed.trace && mixed.quick && mixed.seed == 7);
        assert!(parse_run(&["--seconds".into(), "0".into()]).is_err());
    }
}
