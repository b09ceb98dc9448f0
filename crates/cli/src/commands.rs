//! The CLI subcommands, as library functions writing to any `Write` sink
//! so they are directly testable.

use crate::args::{ArgError, Args};
use acs_core::eval::{characterize_apps, evaluate};
use acs_core::{
    sample_config, train, train_on_suite, CappedRuntime, KernelProfile, Predictor, SamplePair,
    TrainedModel, TrainingParams,
};
use acs_sim::{Cap, Device, Machine};
use std::io::Write;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments.
    Args(ArgError),
    /// Filesystem or serialization failure.
    Io(String),
    /// Domain failure (training, unknown kernel, ...).
    Domain(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Io(m) | CliError::Domain(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e.to_string())
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Io(e.to_string())
    }
}

impl From<acs_core::PersistError> for CliError {
    fn from(e: acs_core::PersistError) -> Self {
        CliError::Io(e.to_string())
    }
}

/// Usage text.
pub const USAGE: &str = "\
acs — adaptive configuration selection for power-constrained heterogeneous systems

USAGE: acs <command> [--key value ...]

COMMANDS:
  suite                                   list the benchmark suite's kernels
  characterize --out FILE [--seed N]      sweep every kernel over all 42
                                          configurations; write profiles JSON
  train --profiles FILE --out FILE        run the offline stage on profiles
        [--clusters K] [--prune true]     and save the trained model
        [--stabilize true]                (--stabilize: variance-stabilizing
                                          transform, ablation A2)
  tree --model FILE                       print the model's classification tree
  predict --model FILE --kernel ID        classify + predict a kernel and
          [--seed N] [--cap W]            select a configuration under a cap
  evaluate [--seed N] [--clusters K]      full leave-one-benchmark-out
                                          evaluation (Table III)
  runtime --model FILE --app LABEL        run an application under a cap with
          --cap W [--iters N] [--seed N]  the capped scheduler; print the
          [--timeline true]               summary (and, with --timeline,
                                          the scheduling timeline)
  chaos --model FILE --app LABEL --cap W  run under injected faults with the
        [--iters N] [--seed N]            self-healing guarded scheduler and
        [--fault-seed N] [--dropout P]    report fault statistics, retries,
        [--freeze P] [--bias P]           and per-kernel degradation ladders
        [--corrupt P] [--pstate-fail P]   (probabilities in [0,1]; add
        [--run-fail P] [--unguarded true] --timeline true for the full trace)
  reproduce --name NAME|all               regenerate one paper table, figure,
                                          ablation or regression trace (or,
                                          with `all`, every one): print its
                                          report and write results/NAME.json
                                          — the only writer of the pinned
                                          artifacts
  verify [--quick true]                   differential-test every method
         [--transfer true]                against the exhaustive oracle and
         [--drift true]                   check metamorphic invariants;
                                          --transfer instead trains on every
                                          machine family and serves every
                                          other, gating the cross-architecture
                                          transfer-regret matrix; --drift
                                          instead scores static vs adaptive
                                          regret under every seeded drift
                                          process (thermal ramp, step
                                          throttle, aging, co-tenant), gating
                                          strict adaptive wins under drift and
                                          bit-identity at zero drift. Prints
                                          the report, fails on a gate, writes
                                          no file
  serve [--model FILE] [--host H]         long-running selection server: loads
        [--port P] [--global-cap W]       the model once (or trains in-process
        [--policy equal|demand]           when --model is omitted), splits the
        [--max-sessions N] [--seed N]     global cap across connected sessions
        [--family F]                      via the arbiter, prints the bound
        [--journal FILE]                  address (--port 0 = ephemeral), and
        [--journal-sync true]             serves until SIGINT or a Shutdown
        [--coordinator HOST:PORT]         poison request; --journal makes
        [--shard-id N] [--renew-ms MS]    admissions/budgets/cache keys durable
        [--lease-floor W]                 so a restart resumes where a crash
        [--brownout-us US]                stopped (DESIGN.md §12);
                                          --journal-sync upgrades appends to
                                          fdatasync; --coordinator turns the
                                          server into fleet shard --shard-id
                                          (required; restarted under it, the
                                          shard re-adopts its lease), which
                                          leases its cap: --global-cap is its
                                          demand, --lease-floor its reserve
                                          until the first grant, the
                                          coordinator's floor after it; the
                                          fleet flags need --coordinator
                                          (DESIGN.md §13);
                                          --brownout-us arms the brownout
                                          controller: when the observed p99
                                          latency exceeds US µs the server
                                          progressively drops optional work
                                          and, at the top level, sheds
                                          deadline-carrying requests it
                                          predicts will miss (DESIGN.md §17)
  coordinator [--host H] [--port P]       fleet power coordinator: owns the
              [--cap W] [--floor W]       global budget and leases slices of
              [--policy equal|demand]     it to shards for --ttl-ms; silent
              [--ttl-ms MS]               shards decay to the floor every
              [--journal FILE]            reply carries and are re-adopted
              [--journal-sync true]       under their shard id; --journal
              [--evict-after-ms MS]       makes every grant/renew/revoke
                                          durable so a SIGKILLed coordinator
                                          replays to the exact lease table
                                          (DESIGN.md §13); --evict-after-ms
                                          MS evicts a lease MS after it
                                          expires, reclaiming its floor
                                          encumbrance (0 = never; DESIGN.md §17)
  loadgen --addr HOST:PORT                drive one seeded session against the
          [--requests N] [--seed N]       selection server (Selects, every
                                          11th a Run, every 13th a Report
                                          with feedback) and print every
                                          reply but Welcome as a JSON line;
                                          fails on a typed error or a
                                          dropped connection
";

/// A subcommand.
type Command = fn(&Args, &mut dyn Write) -> Result<(), CliError>;

/// Dispatch a parsed command line. An option the command's [`USAGE`]
/// entry does not list is an error before anything runs.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let command: Command = match args.command.as_str() {
        "suite" => cmd_suite,
        "characterize" => cmd_characterize,
        "train" => cmd_train,
        "tree" => cmd_tree,
        "predict" => cmd_predict,
        "evaluate" => cmd_evaluate,
        "runtime" => cmd_runtime,
        "chaos" => cmd_chaos,
        "reproduce" => cmd_reproduce,
        "verify" => cmd_verify,
        "serve" => cmd_serve,
        "coordinator" => cmd_coordinator,
        "loadgen" => cmd_loadgen,
        "help" => cmd_help,
        other => return Err(CliError::Domain(format!("unknown command '{other}'\n\n{USAGE}"))),
    };
    args.only(&usage_flags(&args.command))?;
    command(args, out)
}

/// The options `command` reads: every `--flag` in its [`USAGE`] entry,
/// which runs from the line naming the command to the next line indented
/// like one. A flag the entry omits is rejected, so the text cannot fall
/// behind the code.
fn usage_flags(command: &str) -> Vec<&'static str> {
    let is_entry = |line: &str| line.starts_with("  ") && !line.starts_with("   ");
    let mut lines = USAGE
        .lines()
        .skip_while(|&line| !(is_entry(line) && line.split_whitespace().next() == Some(command)));
    let entry = lines.next().into_iter().chain(lines.take_while(|&line| !is_entry(line)));
    entry
        .flat_map(|line| line.split("--").skip(1))
        .filter_map(|rest| rest.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')).next())
        .filter(|flag| !flag.is_empty())
        .collect()
}

fn cmd_help(_: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    write!(out, "{USAGE}")?;
    Ok(())
}

fn cmd_suite(_: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    for app in acs_kernels::app_instances() {
        writeln!(out, "{} ({} kernels)", app.label(), app.kernels.len())?;
        for k in &app.kernels {
            writeln!(out, "  {}  (weight {:.3})", k.id(), k.weight)?;
        }
    }
    Ok(())
}

fn cmd_characterize(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let seed: u64 = args.get_or("seed", 2014)?;
    let path = args.require("out")?;
    let machine = Machine::new(seed);
    let profiles: Vec<KernelProfile> = acs_kernels::all_kernel_instances()
        .iter()
        .map(|k| KernelProfile::collect(&machine, k))
        .collect();
    let json = serde_json::to_string(&profiles)?;
    std::fs::write(path, json)?;
    writeln!(
        out,
        "characterized {} kernel/input combinations over {} configurations each → {path}",
        profiles.len(),
        acs_sim::Configuration::space_size()
    )?;
    Ok(())
}

fn load_profiles(path: &str) -> Result<Vec<KernelProfile>, CliError> {
    let json = std::fs::read_to_string(path)?;
    Ok(serde_json::from_str(&json)?)
}

fn cmd_train(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let profiles = load_profiles(args.require("profiles")?)?;
    let out_path = args.require("out")?;
    let params = TrainingParams {
        n_clusters: args.get_or("clusters", 5)?,
        prune_tree: args.get_or("prune", false)?,
        stabilize_variance: args.get_or("stabilize", false)?,
        ..Default::default()
    };
    let model = train(&profiles, params).map_err(|e| CliError::Domain(e.to_string()))?;
    model.save(out_path)?;
    writeln!(
        out,
        "trained {} clusters over {} kernels (silhouette {:.3}, tree depth {}) → {out_path}",
        model.clusters.len(),
        model.kernel_ids.len(),
        model.silhouette,
        model.tree.depth()
    )?;
    Ok(())
}

fn cmd_tree(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let model = TrainedModel::load(args.require("model")?)?;
    write!(out, "{}", model.render_tree())?;
    Ok(())
}

fn cmd_predict(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let model = TrainedModel::load(args.require("model")?)?;
    let kernel_id = args.require("kernel")?;
    let seed: u64 = args.get_or("seed", 2014)?;
    let cap: Option<Cap> = args.get_parsed("cap")?;

    let kernel = acs_kernels::all_kernel_instances()
        .into_iter()
        .find(|k| k.id() == kernel_id)
        .ok_or_else(|| {
            CliError::Domain(format!("unknown kernel '{kernel_id}' (try `acs suite` for the list)"))
        })?;

    let machine = Machine::new(seed);
    let samples = SamplePair::new(
        machine.run_iter(&kernel, &sample_config(Device::Cpu), 0),
        machine.run_iter(&kernel, &sample_config(Device::Gpu), 1),
    );
    let predictor = Predictor::new(&model);
    let predicted = predictor.predict(&samples);

    writeln!(out, "kernel:   {kernel_id}")?;
    writeln!(out, "cluster:  {}", predicted.cluster)?;
    writeln!(out, "frontier: {} configurations", predicted.frontier.len())?;
    let config = predicted.select(cap.map_or(f64::INFINITY, Cap::get));
    let point = predicted.point_for(&config);
    if let Some(cap) = cap {
        writeln!(out, "cap:      {:.1} W", cap.get())?;
    }
    writeln!(
        out,
        "selected: {config}  (predicted {:.1} W, {:.3} ms/iter)",
        point.power_w,
        1e3 / point.perf
    )?;
    Ok(())
}

fn cmd_evaluate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let seed: u64 = args.get_or("seed", 2014)?;
    let params = TrainingParams { n_clusters: args.get_or("clusters", 5)?, ..Default::default() };
    let machine = Machine::new(seed);
    let apps = characterize_apps(&machine, &acs_kernels::app_instances());
    let eval = evaluate(&apps, params).map_err(|e| CliError::Domain(e.to_string()))?;

    write!(out, "{}", acs_bench::render_table3(&eval.table3()))?;
    Ok(())
}

fn cmd_runtime(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let model = TrainedModel::load(args.require("model")?)?;
    let label = args.require("app")?;
    let cap = args.require_parsed::<Cap>("cap")?.get();
    let iters: u64 = args.get_or("iters", 3)?;
    let seed: u64 = args.get_or("seed", 2014)?;

    let app =
        acs_kernels::app_instances().into_iter().find(|a| a.label() == label).ok_or_else(|| {
            CliError::Domain(format!("unknown application '{label}' (try `acs suite`)"))
        })?;

    let mut rt = CappedRuntime::new(Machine::new(seed), model, cap);
    let report = rt.run_app(&app, iters).map_err(|e| CliError::Domain(e.to_string()))?;

    writeln!(out, "application:   {}", report.app)?;
    writeln!(out, "cap:           {:.1} W", report.cap_w)?;
    writeln!(out, "total time:    {:.2} ms", report.total_time_s * 1e3)?;
    writeln!(out, "avg power:     {:.1} W", report.avg_power_w)?;
    writeln!(out, "cap compliance: {:.0}%", report.cap_compliance * 100.0)?;
    writeln!(
        out,
        "
final configurations:"
    )?;
    for (id, cfg) in &report.final_configs {
        writeln!(out, "  {id} → {cfg}")?;
    }
    if args.get_or("timeline", false)? {
        writeln!(
            out,
            "
scheduling timeline:"
        )?;
        write!(out, "{}", rt.timeline().render())?;
    }
    Ok(())
}

fn cmd_chaos(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use acs_core::GuardPolicy;
    use acs_sim::{FaultPlan, FaultyMachine};

    let model = TrainedModel::load(args.require("model")?)?;
    let label = args.require("app")?;
    let cap = args.require_parsed::<Cap>("cap")?.get();
    let iters: u64 = args.get_or("iters", 10)?;
    let seed: u64 = args.get_or("seed", 2014)?;

    let plan = FaultPlan {
        seed: args.get_or("fault-seed", 1)?,
        sensor_dropout_p: args.get_or("dropout", 0.0)?,
        sensor_freeze_p: args.get_or("freeze", 0.0)?,
        sensor_bias_p: args.get_or("bias", 0.0)?,
        counter_corrupt_p: args.get_or("corrupt", 0.0)?,
        pstate_fail_p: args.get_or("pstate-fail", 0.0)?,
        run_fail_p: args.get_or("run-fail", 0.0)?,
        ..FaultPlan::default()
    };
    for (name, p) in [
        ("dropout", plan.sensor_dropout_p),
        ("freeze", plan.sensor_freeze_p),
        ("bias", plan.sensor_bias_p),
        ("corrupt", plan.counter_corrupt_p),
        ("pstate-fail", plan.pstate_fail_p),
        ("run-fail", plan.run_fail_p),
    ] {
        if !(0.0..=1.0).contains(&p) {
            return Err(CliError::Domain(format!(
                "--{name} must be a probability in [0,1], got {p}"
            )));
        }
    }

    let app =
        acs_kernels::app_instances().into_iter().find(|a| a.label() == label).ok_or_else(|| {
            CliError::Domain(format!("unknown application '{label}' (try `acs suite`)"))
        })?;

    let executor = FaultyMachine::new(Machine::new(seed), plan);
    let mut rt = if args.get_or("unguarded", false)? {
        CappedRuntime::with_executor(executor, model, cap)
    } else {
        CappedRuntime::guarded(executor, model, cap, GuardPolicy::default())
    };
    let guarded = rt.guard_policy().is_some();
    let report = rt.run_app(&app, iters).map_err(|e| CliError::Domain(e.to_string()))?;
    let stats = rt.executor().stats();

    writeln!(out, "application:    {}", report.app)?;
    writeln!(out, "cap:            {:.1} W", report.cap_w)?;
    writeln!(out, "scheduler:      {}", if guarded { "guarded" } else { "unguarded" })?;
    writeln!(out, "total time:     {:.2} ms", report.total_time_s * 1e3)?;
    writeln!(out, "avg power:      {:.1} W", report.avg_power_w)?;
    writeln!(out, "cap compliance: {:.0}%", report.cap_compliance * 100.0)?;
    writeln!(out, "failed runs:    {}", report.failed_runs)?;
    writeln!(
        out,
        "
injected faults ({} invocations):",
        stats.invocations
    )?;
    writeln!(out, "  sensor dropouts:     {}", stats.sensor_dropouts)?;
    writeln!(out, "  frozen readings:     {}", stats.sensor_freezes)?;
    writeln!(out, "  biased readings:     {}", stats.sensor_biases)?;
    writeln!(out, "  counter corruptions: {}", stats.counter_corruptions)?;
    writeln!(out, "  p-state clamps:      {}", stats.pstate_clamps)?;
    writeln!(out, "  run failures:        {}", stats.run_failures)?;

    if guarded {
        writeln!(
            out,
            "
kernel health:"
        )?;
        for k in &app.kernels {
            let id = k.id();
            if let Some(h) = rt.health(&id) {
                writeln!(
                    out,
                    "  {id}: tier {} (down {}, up {}, retries {})",
                    h.tier.label(),
                    h.degradations,
                    h.recoveries,
                    h.retries
                )?;
            }
        }
    }
    if args.get_or("timeline", false)? {
        writeln!(
            out,
            "
scheduling timeline:"
        )?;
        write!(out, "{}", rt.timeline().render())?;
    }
    Ok(())
}

/// Parse `--family` (default Trinity), with the valid names in the error.
fn family_arg(args: &Args) -> Result<acs_sim::FamilyId, CliError> {
    match args.get("family") {
        Some(s) => acs_sim::FamilyId::parse(s).ok_or_else(|| {
            CliError::Domain(format!(
                "unknown machine family '{s}' (expected trinity|bigcore|lowpower|accel)"
            ))
        }),
        None => Ok(acs_sim::FamilyId::Trinity),
    }
}

/// `acs verify`: gates only. The default mode differential-tests every
/// method against the oracle and checks the metamorphic invariants;
/// `--transfer` and `--drift` gate the transfer matrix and the drift
/// differential instead. Each prints its report and fails on a gate; none
/// writes a file (`acs reproduce` writes the quick grids' reports).
fn cmd_verify(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let quick = args.get_or("quick", false)?;
    let (mode, failures) = if args.get_or("transfer", false)? {
        ("verify --transfer", verify_transfer(quick, out)?)
    } else if args.get_or("drift", false)? {
        ("verify --drift", verify_drift(quick, out)?)
    } else {
        ("verify", verify_differential(quick, out)?)
    };
    if failures.is_empty() {
        writeln!(out, "{mode}: PASS")?;
        Ok(())
    } else {
        Err(CliError::Domain(format!("{mode}: FAIL\n  {}", failures.join("\n  "))))
    }
}

/// Every method against the exhaustive oracle on the scenario grid, and
/// the metamorphic invariants on each of its machines.
fn verify_differential(quick: bool, out: &mut dyn Write) -> Result<Vec<String>, CliError> {
    use acs_verify::{metamorphic, run_differential, GridParams, ScenarioGrid, Thresholds};

    let grid =
        ScenarioGrid::generate(if quick { GridParams::quick() } else { GridParams::default() });
    writeln!(out, "scenario grid: {} (machine, kernel, cap) scenarios", grid.len())?;

    let report = run_differential(&grid, TrainingParams::default())
        .map_err(|e| CliError::Domain(e.to_string()))?;
    write!(out, "{}", report.render())?;
    let mut failures = report.check(&Thresholds::default());

    let app = acs_kernels::app_instances()
        .into_iter()
        .find(|a| a.label() == "LULESH Small")
        .expect("LULESH Small exists");
    for m in &grid.machines {
        let evaluated: Vec<acs_core::KernelProfile> =
            m.evaluated.iter().map(|(p, _)| p.clone()).collect();
        let model = train(&m.training, TrainingParams::default())
            .map_err(|e| CliError::Domain(e.to_string()))?;
        for v in metamorphic::check_all(m.machine.seed, &m.training, &evaluated, &model, &app) {
            failures.push(format!("invariant (machine {}): {v}", m.machine.seed));
        }
    }
    writeln!(out, "metamorphic invariants: checked on {} machine(s)", grid.machines.len())?;
    Ok(failures)
}

/// The cross-architecture differential: a model trained on every machine
/// family serves every other, and the transfer-regret matrix is gated.
fn verify_transfer(quick: bool, out: &mut dyn Write) -> Result<Vec<String>, CliError> {
    use acs_verify::{run_transfer, GridParams, ScenarioGrid, TransferThresholds};

    let params = if quick { GridParams::transfer_quick() } else { GridParams::transfer() };
    let grid = ScenarioGrid::generate(params);
    writeln!(
        out,
        "transfer grid: {} scenarios across {} machine families",
        grid.len(),
        grid.machines.len()
    )?;

    let matrix = run_transfer(&grid, TrainingParams::default())
        .map_err(|e| CliError::Domain(e.to_string()))?;
    write!(out, "{}", matrix.render())?;
    Ok(matrix.check(&TransferThresholds::default()))
}

/// The online-adaptation differential: every seeded drift process over the
/// evaluation kernels, static-model regret against adaptive-model regret
/// per cell. Adaptation must strictly win under drift and be bit-identical
/// to the static path at zero drift.
fn verify_drift(quick: bool, out: &mut dyn Write) -> Result<Vec<String>, CliError> {
    use acs_verify::{run_drift, AdaptThresholds, DriftGridParams};

    let params = if quick { DriftGridParams::quick() } else { DriftGridParams::full() };
    let report = run_drift(&params).map_err(|e| CliError::Domain(e.to_string()))?;
    write!(out, "{}", report.render())?;
    Ok(report.check(&AdaptThresholds::default()))
}

/// The model for `serve`: loaded from `--model`, or trained in-process on
/// the full suite at `--seed` when the flag is omitted (a few seconds;
/// convenient for smoke tests and CI, where no model file exists yet).
/// In-process training characterizes on the *served* family, so a
/// heterogeneous shard's model is native to the hardware it schedules.
fn serve_model(args: &Args, family: acs_sim::FamilyId) -> Result<TrainedModel, CliError> {
    if let Some(path) = args.get("model") {
        return Ok(TrainedModel::load(path)?);
    }
    let machine = Machine::from_family(family, args.get_or("seed", 2014)?);
    train_on_suite(&machine, usize::MAX).map_err(|e| CliError::Domain(e.to_string()))
}

fn cmd_serve(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use acs_serve::{CoordinatorConfig, FleetConfig, ServeConfig, Server};

    let family = family_arg(args)?;
    let fleet = match args.get("coordinator") {
        Some(_) if args.get("shard-id").is_none() => {
            return Err(CliError::Domain(
                "--coordinator needs --shard-id: a shard names itself".into(),
            ))
        }
        Some(coordinator) => Some(FleetConfig {
            coordinator: coordinator.to_string(),
            shard_id: args.require_parsed("shard-id")?,
            lease_floor_w: args.get_or("lease-floor", CoordinatorConfig::default().floor_w)?,
            renew_ms: args.get_or("renew-ms", 200)?,
        }),
        None => match ["shard-id", "lease-floor", "renew-ms"]
            .into_iter()
            .find(|&f| args.get(f).is_some())
        {
            Some(flag) => return Err(CliError::Domain(format!("--{flag} needs --coordinator"))),
            None => None,
        },
    };
    let config = ServeConfig {
        host: args.get("host").unwrap_or("127.0.0.1").to_string(),
        port: args.get_or("port", 4014)?,
        seed: args.get_or("seed", 2014)?,
        family,
        global_cap_w: args.get_parsed("global-cap")?.map_or(120.0, Cap::get),
        policy: args.get("policy").unwrap_or("equal").parse().map_err(CliError::Domain)?,
        max_sessions: args.get_or("max-sessions", 8)?,
        journal: args.get("journal").map(std::path::PathBuf::from),
        journal_sync: args.get_or("journal-sync", false)?,
        fleet,
        brownout_us: args.get_or("brownout-us", 0)?,
    };
    let model = serve_model(args, family)?;
    let server = Server::bind(config, model).map_err(|e| CliError::Domain(e.to_string()))?;
    // Both lines are a contract: `--port 0` callers parse the address to
    // find the ephemeral port, and `crates/cli/tests/sigkill.rs` checks the
    // `recovered:` line of a restart.
    if let Some(recovery) = server.handle().recovery() {
        writeln!(
            out,
            "recovered: {} entries replayed, {} kernels warmed, {} orphaned session(s)",
            recovery.replayed,
            recovery.warm_kernels.len(),
            recovery.orphaned_sessions.len()
        )?;
    }
    writeln!(out, "listening on {}", server.local_addr())?;
    out.flush()?;
    server.run().map_err(|e| CliError::Domain(e.to_string()))
}

fn cmd_coordinator(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use acs_serve::{Coordinator, CoordinatorConfig};

    let defaults = CoordinatorConfig::default();
    let config = CoordinatorConfig {
        host: args.get("host").unwrap_or("127.0.0.1").to_string(),
        port: args.get_or("port", 4015)?,
        global_cap_w: args.get_or("cap", defaults.global_cap_w)?,
        policy: args.get("policy").unwrap_or("demand").parse().map_err(CliError::Domain)?,
        ttl_ms: args.get_or("ttl-ms", 1_000)?,
        floor_w: args.get_or("floor", defaults.floor_w)?,
        evict_after_ms: args.get_or("evict-after-ms", 0)?,
        journal: args.get("journal").map(std::path::PathBuf::from),
        journal_sync: args.get_or("journal-sync", false)?,
    };
    let coordinator = Coordinator::bind(config).map_err(|e| CliError::Domain(e.to_string()))?;
    // Both lines are a contract: `--port 0` callers parse the address, and
    // `crates/cli/tests/sigkill.rs` checks the `recovered:` line of a
    // restart.
    if let Some(recovery) = coordinator.handle().recovery() {
        writeln!(
            out,
            "recovered: {} entries replayed, {} live lease(s), {} encumbered",
            recovery.replayed,
            recovery.live_leases.len(),
            recovery.encumbered_leases.len()
        )?;
    }
    writeln!(out, "listening on {}", coordinator.local_addr())?;
    out.flush()?;
    coordinator.run().map_err(|e| CliError::Domain(e.to_string()))
}

fn cmd_loadgen(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = args.require("addr")?;
    let (requests, seed) = (args.get_or("requests", 1000)?, args.get_or("seed", 7)?);
    for reply in acs_bench::served_stream(addr, requests, seed).map_err(CliError::Domain)? {
        writeln!(out, "{reply}")?;
    }
    Ok(())
}

/// `acs reproduce`: run one row of the experiment registry — or, with
/// `--name all`, every row — printing its report and writing its
/// `results/` artifact.
fn cmd_reproduce(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use acs_bench::experiments::{Experiment, REGISTRY};

    let name = args.require("name")?;
    let rows: Vec<&Experiment> = match name {
        "all" => REGISTRY.iter().collect(),
        _ => vec![REGISTRY.iter().find(|e| e.name == name).ok_or_else(|| {
            let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
            CliError::Domain(format!(
                "unknown experiment '{name}' (expected all or one of: {})",
                names.join(", ")
            ))
        })?],
    };
    for row in rows {
        let json = (row.run)(out)?;
        let path = acs_bench::write_result(row.name, &json)?;
        writeln!(out, "\nwrote {}", path.display())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(cmd: &str) -> Result<String, CliError> {
        let args = Args::parse(cmd.split_whitespace().map(String::from))?;
        let mut buf = Vec::new();
        run(&args, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("acs-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn suite_lists_all_kernels() {
        let out = run_str("suite").unwrap();
        assert!(out.contains("LULESH Small (20 kernels)"));
        assert!(out.contains("LU/Large/lud"));
        assert_eq!(out.matches("weight").count(), 65);
    }

    #[test]
    fn help_prints_usage() {
        for spelling in ["help", "--help", "-h"] {
            let out = run_str(spelling).unwrap();
            assert!(out.contains("USAGE"), "{spelling}");
            assert!(out.contains("characterize"), "{spelling}");
        }
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(matches!(run_str("frobnicate"), Err(CliError::Domain(_))));
    }

    #[test]
    fn characterize_train_predict_roundtrip() {
        let profiles = tmp("profiles.json");
        let model = tmp("model.json");

        let out = run_str(&format!("characterize --out {profiles} --seed 7")).unwrap();
        assert!(out.contains("65 kernel/input combinations"));

        let out = run_str(&format!("train --profiles {profiles} --out {model}")).unwrap();
        assert!(out.contains("trained 5 clusters"));

        let out =
            run_str(&format!("predict --model {model} --kernel LU/Small/lud --cap 20 --seed 7"))
                .unwrap();
        assert!(out.contains("cluster:"));
        assert!(out.contains("selected:"));

        let out = run_str(&format!("tree --model {model}")).unwrap();
        assert!(out.contains("cluster"));
    }

    #[test]
    fn evaluate_prints_table_iii() {
        let out = run_str("evaluate").unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("Method    | %Under  | Under %Perf"), "{out}");
        assert!(lines[1].starts_with("----------+---------+"), "{out}");
        let methods: Vec<&str> =
            lines[2..].iter().map(|l| l.split('|').next().unwrap().trim()).collect();
        let compared: Vec<&str> = acs_core::Method::COMPARED.iter().map(|m| m.name()).collect();
        assert_eq!(methods, compared, "{out}");
    }

    #[test]
    fn reproduce_rejects_an_unknown_name_by_listing_the_registry() {
        match run_str("reproduce --name nope") {
            Err(CliError::Domain(msg)) => {
                assert!(msg.contains("unknown experiment 'nope'"), "{msg}");
                for row in acs_bench::experiments::REGISTRY {
                    assert!(msg.contains(row.name), "{} missing from {msg}", row.name);
                }
            }
            other => panic!("expected domain error, got {other:?}"),
        }
        assert!(matches!(run_str("reproduce"), Err(CliError::Args(_))));
    }

    #[test]
    fn predict_unknown_kernel_fails_cleanly() {
        let profiles = tmp("p2.json");
        let model = tmp("m2.json");
        run_str(&format!("characterize --out {profiles} --seed 3")).unwrap();
        run_str(&format!("train --profiles {profiles} --out {model}")).unwrap();
        let err = run_str(&format!("predict --model {model} --kernel No/Such/Kernel"));
        match err {
            Err(CliError::Domain(msg)) => assert!(msg.contains("unknown kernel")),
            other => panic!("expected domain error, got {other:?}"),
        }
    }

    #[test]
    fn train_rejects_too_many_clusters() {
        let profiles = tmp("p3.json");
        run_str(&format!("characterize --out {profiles} --seed 3")).unwrap();
        let err = run_str(&format!(
            "train --profiles {profiles} --out {} --clusters 100",
            tmp("m3.json")
        ));
        assert!(matches!(err, Err(CliError::Domain(_))));
    }

    #[test]
    fn runtime_reports_and_traces() {
        let profiles = tmp("p4.json");
        let model = tmp("m4.json");
        run_str(&format!("characterize --out {profiles} --seed 7")).unwrap();
        run_str(&format!("train --profiles {profiles} --out {model}")).unwrap();
        let out = run_str(&format!(
            "runtime --model {model} --app CoMD --cap 25 --iters 3 --timeline true --seed 7"
        ))
        .unwrap();
        assert!(out.contains("cap compliance"));
        assert!(out.contains("final configurations"));
        assert!(out.contains("scheduling timeline"));
        assert!(out.contains("CoMD/Default/LJForce"));
        // Unknown app fails cleanly.
        let err = run_str(&format!("runtime --model {model} --app Nope --cap 25"));
        assert!(matches!(err, Err(CliError::Domain(_))));
    }

    #[test]
    fn chaos_reports_faults_and_health() {
        let profiles = tmp("p5.json");
        let model = tmp("m5.json");
        run_str(&format!("characterize --out {profiles} --seed 7")).unwrap();
        run_str(&format!("train --profiles {profiles} --out {model}")).unwrap();
        let out = run_str(&format!(
            "chaos --model {model} --app CoMD --cap 25 --iters 5 --seed 7 \
             --dropout 0.2 --pstate-fail 0.2 --run-fail 0.1 --fault-seed 3"
        ))
        .unwrap();
        assert!(out.contains("scheduler:      guarded"));
        assert!(out.contains("injected faults"));
        assert!(out.contains("sensor dropouts"));
        assert!(out.contains("kernel health:"));
        assert!(out.contains("tier "));
        // Bad probability fails cleanly.
        let err = run_str(&format!("chaos --model {model} --app CoMD --cap 25 --dropout 1.5"));
        match err {
            Err(CliError::Domain(msg)) => assert!(msg.contains("probability")),
            other => panic!("expected domain error, got {other:?}"),
        }
        // A cap that is not finite and positive is refused as the flag is
        // parsed, instead of tripping the runtime's assert.
        let predict = format!("predict --model {model} --kernel LULESH/Small/CalcFBHourglassForce");
        for cmd in [
            format!("chaos --model {model} --app CoMD --cap -5"),
            format!("chaos --model {model} --app CoMD --cap inf"),
            format!("runtime --model {model} --app CoMD --cap 0"),
            format!("runtime --model {model} --app CoMD --cap inf"),
            format!("{predict} --cap nan"),
            format!("{predict} --cap -5"),
            format!("{predict} --cap 0"),
        ] {
            match run_str(&cmd) {
                Err(CliError::Args(ArgError::Invalid { key: "cap", .. })) => {}
                other => panic!("expected an invalid --cap for '{cmd}', got {other:?}"),
            }
        }
    }

    #[test]
    fn verify_quick_passes_its_gates() {
        let out = run_str("verify --quick true").unwrap();
        assert!(out.contains("scenario grid:"), "{out}");
        assert!(out.contains("Model+FL"), "{out}");
        assert!(out.contains("metamorphic invariants"), "{out}");
        assert!(out.contains("verify: PASS"), "{out}");
    }

    #[test]
    fn verify_transfer_scores_every_pair() {
        let out = run_str("verify --transfer true --quick true").unwrap();
        assert!(out.contains("transfer regret matrix"), "{out}");
        for family in ["trinity", "bigcore", "lowpower", "accel"] {
            assert!(out.contains(family), "{family} missing from {out}");
        }
        assert!(out.contains("verify --transfer: PASS"), "{out}");

        // The full grid fails its thresholds on six `→ lowpower` cells
        // (EXPERIMENTS.md A16).
        match run_str("verify --transfer true") {
            Err(CliError::Domain(msg)) => {
                assert!(msg.contains("lowpower Model: transfer regret"), "{msg}")
            }
            other => panic!("expected a threshold failure, got {other:?}"),
        }
    }

    #[test]
    fn verify_drift_scores_every_process() {
        for command in ["verify --drift true --quick true", "verify --drift true"] {
            let out = run_str(command).unwrap();
            assert!(out.contains("drift differential"), "{out}");
            for process in ["zero", "thermal-ramp", "step-throttle", "aging", "co-tenant"] {
                assert!(out.contains(process), "{process} missing from {out}");
            }
            assert!(out.contains("verify --drift: PASS"), "{out}");
        }
    }

    #[test]
    fn an_option_the_command_does_not_read_is_rejected_before_it_runs() {
        // A typo, and flags `verify`, `loadgen` and `coordinator` no longer
        // have (a `loadgen --result` could overwrite a pinned artifact; the
        // stream `loadgen` drives is fixed but for its length and seed; the
        // lease clock counts milliseconds). The coordinator's are assembled
        // from halves: tests/architecture.rs forbids their whole names.
        let loadgen = "result sessions run-every report-every log stats feedback shutdown rate \
                       deadline-ms priority"
            .split_whitespace()
            .map(|flag| (format!("loadgen --addr 127.0.0.1:1 --{flag} 1"), format!("--{flag}")));
        let coordinator = [("tick", "ms"), ("ttl", "ticks"), ("evict-after", "ticks")]
            .map(|(name, unit)| format!("--{name}-{unit}"))
            .map(|flag| (format!("coordinator {flag} 50"), flag));
        let others = [("serve --prot 0", "--prot"), ("verify --transfer true --out x", "--out")]
            .map(|(command, flag)| (command.to_string(), flag.to_string()));
        for (command, flag) in others.into_iter().chain(loadgen).chain(coordinator) {
            match run_str(&command) {
                Err(CliError::Args(e @ ArgError::Unknown { .. })) => {
                    assert!(e.to_string().contains(&flag), "{command}: {e}")
                }
                other => panic!("{command}: expected an unknown-option error, got {other:?}"),
            }
        }
        // Flags USAGE used to leave out reach their command, which then
        // asks for its required option.
        for (command, missing) in [
            ("train --stabilize true", "profiles"),
            ("runtime --timeline true", "model"),
            ("loadgen --requests 5", "addr"),
        ] {
            assert!(
                matches!(run_str(command), Err(CliError::Args(ArgError::Missing(m))) if m == missing),
                "{command}"
            );
        }
    }

    #[test]
    fn serve_rejects_unknown_family() {
        match run_str("serve --family pentium") {
            Err(CliError::Domain(msg)) => {
                assert!(msg.contains("unknown machine family"), "{msg}")
            }
            other => panic!("expected domain error, got {other:?}"),
        }
    }

    #[test]
    fn missing_required_option_is_an_arg_error() {
        assert!(matches!(run_str("characterize"), Err(CliError::Args(_))));
        assert!(matches!(run_str("tree"), Err(CliError::Args(_))));
        assert!(matches!(run_str("loadgen"), Err(CliError::Args(_))));
    }

    #[test]
    fn serve_rejects_bad_cap_and_policy() {
        match run_str("serve --policy fair") {
            Err(CliError::Domain(msg)) => assert!(msg.contains("unknown arbiter policy"), "{msg}"),
            other => panic!("expected domain error, got {other:?}"),
        }
        // A wattage that is not finite and positive is refused as its flag
        // is parsed.
        for (command, flag) in [
            ("serve --global-cap -5", "global-cap"),
            ("serve --global-cap inf --port 0", "global-cap"),
            ("serve --coordinator c:1 --shard-id 1 --lease-floor 0 --port 0", "lease-floor"),
            ("serve --coordinator c:1 --shard-id 1 --lease-floor NaN --port 0", "lease-floor"),
            ("serve --coordinator c:1 --shard-id 1 --lease-floor inf --port 0", "lease-floor"),
            ("coordinator --cap NaN --port 0", "cap"),
            ("coordinator --cap inf --port 0", "cap"),
            ("coordinator --floor 0 --port 0", "floor"),
        ] {
            match run_str(command) {
                Err(CliError::Args(ArgError::Invalid { key, .. })) => assert_eq!(key, flag),
                other => panic!("{command}: expected an invalid --{flag}, got {other:?}"),
            }
        }
        // Values only `bind` can judge come back as its typed error, not
        // as the lease table's assertion.
        for (command, flag) in [
            ("serve --coordinator c:1 --shard-id 1 --renew-ms 5 --port 0", "--renew-ms"),
            ("serve --coordinator c:1 --port 0", "--shard-id"),
            ("serve --shard-id 1 --port 0", "--shard-id"),
            ("serve --lease-floor 2 --port 0", "--lease-floor"),
            ("serve --renew-ms 50 --port 0", "--renew-ms"),
            ("coordinator --ttl-ms 0 --port 0", "--ttl-ms"),
            ("coordinator --floor 200 --port 0", "--floor"),
        ] {
            match run_str(command) {
                Err(CliError::Domain(msg)) => assert!(msg.contains(flag), "{command}: {msg}"),
                other => panic!("{command}: expected domain error, got {other:?}"),
            }
        }
    }

    /// A `Write` sink shareable with the thread `cmd_serve` blocks on, so
    /// the test can read the "listening on" line while the server runs.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).expect("utf8 output")
        }
    }

    /// End-to-end through the CLI surface: `serve --port 0` prints the
    /// bound address, `loadgen` drives it and prints one reply per
    /// request, and a `Shutdown` frame drains the server thread.
    #[test]
    fn serve_and_loadgen_end_to_end() {
        use acs_serve::{Client, Request, Response};

        let buf = SharedBuf::default();
        let server_out = buf.clone();
        let server = std::thread::spawn(move || {
            let mut out = server_out;
            let args = Args::parse(
                "serve --port 0 --global-cap 90 --policy demand --seed 2014"
                    .split_whitespace()
                    .map(String::from),
            )
            .unwrap();
            run(&args, &mut out)
        });
        // In-process training takes a moment; wait for the bound address.
        let addr = loop {
            if let Some(line) = buf.text().lines().find(|l| l.starts_with("listening on ")) {
                break line.trim_start_matches("listening on ").to_string();
            }
            assert!(!server.is_finished(), "server exited early: {:?}", buf.text());
            std::thread::sleep(std::time::Duration::from_millis(50));
        };

        let out = run_str(&format!("loadgen --addr {addr} --requests 60 --seed 7")).unwrap();
        assert_eq!(out.lines().count(), 60, "one reply per request: {out}");
        for kind in ["Selected", "Ran", "Budget"] {
            assert!(out.contains(kind), "no {kind} reply in {out}");
        }
        let mut client = Client::connect(&addr).unwrap();
        assert!(matches!(client.call(&Request::Shutdown).unwrap(), Response::ShuttingDown));
        server.join().unwrap().unwrap();

        // Nothing listens any more: the stream fails instead of printing.
        assert!(matches!(run_str(&format!("loadgen --addr {addr}")), Err(CliError::Domain(_))));
    }
}
