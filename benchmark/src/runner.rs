//! Running one workload: the end-to-end run and the traced run.

use crate::layers;
use crate::loadgen::{Length, Phase, Recorder, Slice};
use crate::metrics::{find, END_TO_END, PER_LAYER};
use crate::report::{git_commit, out_dir, Measured, RunResult};
use crate::rusage::{allow_cores, cpu_seconds, nproc, pin_to_one_core, usage};
use crate::stats::{tail_percentile, Best, Summary};
use crate::trace::Tracer;
use crate::workload::{recreate, Env, Finish, Workload};
use crate::{alloc, workloads, Res};
use std::collections::BTreeMap;
use std::time::Instant;

/// What `run` was asked for.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The workload's name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the timed phase measures.
    pub seconds: f64,
    /// `--trace 1`: the traced run instead of the end-to-end run.
    pub trace: bool,
    /// `--quick`: a smoke run, not to be gated on.
    pub quick: bool,
}

/// Timed set-ups per end-to-end run; `setup_s` is the fastest of them.
const SETUPS: usize = 9;

/// Span buffer of the traced run (the layer table needs about 100 k).
const SPAN_CAPACITY: usize = 250_000;

/// One per-slice quantity of a phase, in slice order.
fn series(recorder: &Recorder, of: impl Fn(&Slice) -> f64) -> Vec<f64> {
    recorder.slices.iter().map(of).collect()
}

/// The phase's throughput: a slice near its fastest.
fn ops_per_s(recorder: &Recorder) -> Summary {
    Summary::best_of(&series(recorder, |s| s.rate), Best::Highest)
}

fn measured(name: &str, summary: Summary) -> Measured {
    Measured { def: *find(name).expect("every reported metric is defined in metrics.rs"), summary }
}

fn require_measured(recorder: &Recorder) -> Res<()> {
    if recorder.measured_ops() == 0 {
        return Err("no operation completed inside the measured phase".into());
    }
    Ok(())
}

/// Run the workload `opts` names, print it, store it, and return it.
pub fn run(opts: &RunOpts) -> Res<RunResult> {
    let scratch = out_dir().join(format!("tmp-{}", std::process::id()));
    recreate(&scratch)?;
    let env = Env { seed: opts.seed, lanes: nproc(), scratch: scratch.clone() };
    let outcome = (|| {
        let workload = workloads::prepare(&opts.workload, &env)?;
        // The rayon pool's threads start here, with every core allowed:
        // started by a pinned thread the pool would be pinned, and one
        // thread small, for good.
        rayon::current_num_threads();
        if opts.trace {
            run_traced(workload.as_ref(), &env, opts)
        } else {
            run_end_to_end(workload.as_ref(), &env, opts)
        }
    })();
    // The scratch directory goes whether or not the run succeeded.
    let _ = std::fs::remove_dir_all(&scratch);
    let result = outcome?;
    result.print();
    let path = result.write()?;
    println!("  result file: {}", path.display());
    Ok(result)
}

fn base_result(opts: &RunOpts, env: &Env) -> RunResult {
    RunResult {
        workload: opts.workload.clone(),
        trace: opts.trace,
        seed: opts.seed,
        seconds: opts.seconds,
        quick: opts.quick,
        nproc: env.lanes,
        commit: git_commit(),
        correct: false,
        attempted: 0,
        failed: 0,
        measured_ops: 0,
        problems: Vec::new(),
        metrics: Vec::new(),
        notes: Vec::new(),
        series: Vec::new(),
    }
}

fn tail_note(recorder: &Recorder, unit: &str) -> (String, String) {
    let all = &recorder.latency;
    let note = match tail_percentile(all.count()) {
        Some(p) => format!(
            "p{} = {:.3} us over {} {unit}",
            p * 100.0,
            all.quantile(p).unwrap_or(f64::NAN) / 1e3,
            all.count()
        ),
        None => format!("fewer than 100 {unit}: no tail to report"),
    };
    ("lat_tail".into(), note)
}

/// Time `SETUPS` fresh set-ups, each closed again.
///
/// They run on one core: this thread pinned (the server threads a set-up
/// starts inherit that) and the offline stage on one rayon thread. How
/// long a two-thread set-up takes depends on whether the scheduler has
/// the process's threads spread over the cores or stacked on one, which
/// it settles per process: the same code read 0.056 s or 0.092 s.
fn time_setups(workload: &dyn Workload, env: &Env, quick: bool) -> Res<Vec<f64>> {
    let everywhere = pin_to_one_core();
    let timed: Res<Vec<f64>> = (0..if quick { 2 } else { SETUPS })
        .map(|n| {
            let dir = env.setup_dir(n)?;
            let started = Instant::now();
            let live = rayon::with_num_threads(1, || workload.setup(&dir))?;
            let took_s = started.elapsed().as_secs_f64();
            live.finish()?;
            Ok(took_s)
        })
        .collect();
    allow_cores(&everywhere);
    timed
}

/// The end-to-end run: the timed set-ups, then on a set-up of its own
/// one timed phase with tracing off and the output checks.
fn run_end_to_end(workload: &dyn Workload, env: &Env, opts: &RunOpts) -> Res<RunResult> {
    let setup_s = time_setups(workload, env, opts.quick)?;
    if workload.one_core() {
        pin_to_one_core();
    }
    let mut live = workload.setup(&env.setup_dir(setup_s.len())?)?;

    // Memory is read after a fixed amount of work, not after the timed
    // phase: the program keeps per-`Run` history, so its footprint after
    // a fixed time would rise with its speed.
    let counted = live.run(Length::Counted(live.counted_ops()))?;
    let peak_rss_mb = usage().peak_rss_mb;

    let cpu_before_s = cpu_seconds();
    let recorder = live.run(Length::Timed(Phase::of(opts.seconds)))?;
    let cpu_after_s = cpu_seconds();
    require_measured(&recorder)?;
    let Finish { caps_met_pct, oracle_perf_pct, problems, .. } = live.finish()?;

    let rates = series(&recorder, |s| s.rate);
    let medians_us = series(&recorder, |s| s.p50_us);
    let cpu_us = series(&recorder, |s| s.cpu_us_per_op);
    let mean_cpu_us = (cpu_after_s - cpu_before_s) * 1e6 / recorder.attempted as f64;
    let mut result = base_result(opts, env);
    result.metrics = vec![
        measured("setup_s", Summary::best_of(&setup_s, Best::Lowest)),
        measured("ops_per_s", Summary::best_of(&rates, Best::Highest)),
        measured("lat_p50_us", Summary::best_of(&medians_us, Best::Lowest)),
        measured("cpu_us_per_op", Summary::best_of(&cpu_us, Best::Lowest)),
        measured("peak_rss_mb", Summary::point(peak_rss_mb)),
        measured("caps_met_pct", Summary::point(caps_met_pct)),
        measured("oracle_perf_pct", Summary::point(oracle_perf_pct)),
    ];
    debug_assert_eq!(result.metrics.len(), END_TO_END.len());
    result.notes = vec![
        tail_note(&recorder, workload.unit()),
        ("cpu_us_per_op over the whole phase".into(), format!("{mean_cpu_us:.3}")),
    ];
    result.series = vec![
        ("ops_per_s".into(), rates),
        ("lat_p50_us".into(), medians_us),
        ("cpu_us_per_op".into(), cpu_us),
    ];
    result.attempted = recorder.attempted + counted.attempted;
    result.failed = recorder.failed + counted.failed;
    result.measured_ops = recorder.measured_ops();
    result.correct = problems.is_empty() && result.failed == 0;
    result.problems = problems;
    Ok(result)
}

/// The traced run: one set-up; a phase with tracing off and a phase with
/// the allocation counter on, each 40% of `--seconds`; the output
/// checks; then the layer table.
fn run_traced(workload: &dyn Workload, env: &Env, opts: &RunOpts) -> Res<RunResult> {
    let everywhere = workload.one_core().then(pin_to_one_core);
    let mut live = workload.setup(&env.setup_dir(0)?)?;
    let phase = Length::Timed(Phase::of(opts.seconds * 0.4));

    let u0 = usage();
    let plain = live.run(phase)?;
    let u1 = usage();
    // "Tracing on" is the allocation counter counting; what it counts
    // over a timed phase is discarded.
    alloc::start();
    let traced = live.run(phase)?;
    alloc::stop();
    let u2 = usage();
    // Exact counts need an exact amount of work: the same operations in
    // every run, with every lane drained before and after.
    alloc::start();
    let counted = live.run(Length::Counted(live.counted_ops()))?;
    let allocs = alloc::stop();
    require_measured(&plain)?;
    require_measured(&traced)?;
    let finish = live.finish()?;
    // The layer table is one procedure, the same for every workload.
    if let Some(cores) = &everywhere {
        allow_cores(cores);
    }

    let mut tracer = Tracer::new(SPAN_CAPACITY);
    let table = layers::measure(env, &mut tracer, &env.scratch.join("layers"))?;
    let trace_path = out_dir().join("trace.json");
    tracer.write_json(&trace_path).map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let stats = finish.stats.as_ref().unwrap_or(&table.probe_stats);
    let plain_rate = ops_per_s(&plain).median;
    let traced_rate = ops_per_s(&traced).median;
    let cpu_ns_per_op = (u1.cpu_s - u0.cpu_s) * 1e9 / plain.attempted as f64;
    let layers_sum_ns = table.layers_sum_ns[opts.workload.as_str()];

    let mut values: BTreeMap<&str, f64> = table.metrics.clone();
    values.insert("serve.engine.hit_ratio", stats.cache_hit_rate);
    values.insert("serve.server.stats_p50_us", stats.p50_latency_us as f64);
    values.insert("serve.server.stats_p99_us", stats.p99_latency_us as f64);
    values
        .insert("serve.server.lat_p99_us", traced.latency.quantile(0.99).unwrap_or(f64::NAN) / 1e3);
    let counted_ops = counted.attempted as f64;
    values.insert("serve.server.allocs_per_op", allocs.allocations as f64 / counted_ops);
    values.insert("serve.server.alloc_bytes_per_op", allocs.bytes as f64 / counted_ops);
    values.insert(
        "serve.server.ctx_switches_per_op",
        (u2.ctx_switches - u1.ctx_switches) as f64 / traced.attempted as f64,
    );
    values.insert("serve.server.layers_sum_ns", layers_sum_ns);
    values.insert("serve.server.unattributed_ns", cpu_ns_per_op - layers_sum_ns);
    values.insert("trace.overhead_pct", 100.0 * (plain_rate - traced_rate) / plain_rate);

    let mut result = base_result(opts, env);
    result.metrics = PER_LAYER
        .iter()
        .map(|def| match values.get(def.name) {
            Some(&value) if value.is_finite() => {
                Ok(Measured { def: *def, summary: Summary::point(value) })
            }
            _ => Err(format!("the traced run did not measure {}", def.name)),
        })
        .collect::<Res<_>>()?;
    result.notes = vec![
        ("cpu_ns_per_op (tracing off)".into(), format!("{cpu_ns_per_op:.1}")),
        ("ops_per_s (tracing off / on)".into(), format!("{plain_rate:.1} / {traced_rate:.1}")),
        tail_note(&traced, workload.unit()),
        (
            "spans".into(),
            format!(
                "{} recorded, {} dropped, timestamp pair {:.0} ns, span cost {:.0} ns, \
                 written to benchmark/out/trace.json",
                tracer.spans().len(),
                tracer.dropped(),
                tracer.calibration.empty_span_ns,
                tracer.calibration.span_cost_ns
            ),
        ),
    ];
    result.attempted = plain.attempted + traced.attempted + counted.attempted;
    result.failed = plain.failed + traced.failed + counted.failed;
    result.measured_ops = plain.measured_ops() + traced.measured_ops();
    result.correct = finish.problems.is_empty() && result.failed == 0 && tracer.dropped() == 0;
    result.problems = finish.problems;
    if tracer.dropped() > 0 {
        result.problems.push(format!("{} spans did not fit the trace buffer", tracer.dropped()));
    }
    Ok(result)
}
