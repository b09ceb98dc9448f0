//! Experiment A14: crash recovery + chaos smoke.
//!
//! Part 1 — a real kill-and-restart cycle, out of process: the binary
//! re-executes itself as a journaled server child, drives half a seeded
//! request stream, SIGKILLs the child mid-conversation (no clean leaves,
//! no warning), restarts it on the same journal, and finishes the stream.
//! The combined response log must be **byte-identical** to an
//! uninterrupted run of the same stream, and the recovery must come back
//! with a warm cache. Measures recovery latency (journal open + replay),
//! replayed-entry count, and the post-recovery cache hit rate.
//!
//! Part 2 — the chaos smoke: 500 seeded loadgen requests through the
//! chaos proxy at a fixed plan. Injected faults may drop requests (that
//! is their job); the assertions are that the server survives, every
//! failure was typed or a clean drop, and the arbiter's budget split
//! still sums exactly to the global cap afterwards.
//!
//! Writes `results/BENCH_recovery.json`.

use acs_bench::loadgen::{run_loadgen, LoadgenOptions};
use acs_core::TrainedModel;
use acs_serve::{
    replay, ArbiterPolicy, ChaosPlan, ChaosProxy, ChaosStats, Client, Journal, Request, Response,
    ServeConfig, Server,
};
use serde::Serialize;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Child-role marker: when set, this process is the journaled server.
const ROLE_ENV: &str = "ACS_BENCH_RECOVERY_ROLE";
const JOURNAL_ENV: &str = "ACS_BENCH_RECOVERY_JOURNAL";
const MODEL_ENV: &str = "ACS_BENCH_RECOVERY_MODEL";

const GLOBAL_CAP_W: f64 = 90.0;

#[derive(Serialize)]
struct RecoveryResult {
    phase1_requests: usize,
    phase2_requests: usize,
    replayed_entries: u64,
    warm_kernels: usize,
    orphaned_sessions: usize,
    recovery_latency_us: u64,
    byte_identical: bool,
    post_recovery_cache_hit_rate: f64,
}

#[derive(Serialize)]
struct ChaosSmokeResult {
    requests: u64,
    plan: ChaosPlan,
    proxy: ChaosStats,
    completed: u64,
    dropped: u64,
    errored: u64,
    conservation_error_w: f64,
}

#[derive(Serialize)]
struct BenchRecovery {
    experiment: String,
    seed: u64,
    global_cap_w: f64,
    recovery: RecoveryResult,
    chaos_smoke: ChaosSmokeResult,
}

/// The child process: bind an ephemeral port, print the contract lines,
/// and serve until the parent kills us.
fn serve_child() {
    let journal = std::env::var(JOURNAL_ENV).expect("child needs the journal path");
    let model_path = std::env::var(MODEL_ENV).expect("child needs the model path");
    let model = TrainedModel::load(&model_path).expect("child loads the saved model");
    let server = Server::bind(
        ServeConfig {
            port: 0,
            seed: acs_bench::EXPERIMENT_SEED,
            global_cap_w: GLOBAL_CAP_W,
            policy: ArbiterPolicy::DemandProportional,
            journal: Some(PathBuf::from(journal)),
            ..ServeConfig::default()
        },
        model,
    )
    .expect("child binds");
    if let Some(recovery) = server.handle().recovery() {
        println!("recovered: {}", recovery.replayed);
    }
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().expect("flush the contract lines");
    server.run().expect("child serves");
}

/// Spawn a server child on `journal`, returning the process and the
/// address parsed from its `listening on` line.
fn spawn_child(journal: &Path, model_path: &Path) -> (std::process::Child, String) {
    let exe = std::env::current_exe().expect("own path");
    let mut child = std::process::Command::new(exe)
        .env(ROLE_ENV, "server")
        .env(JOURNAL_ENV, journal)
        .env(MODEL_ENV, model_path)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn server child");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line =
            lines.next().expect("child printed its contract lines").expect("child stdout is utf8");
        if let Some(addr) = line.strip_prefix("listening on ") {
            break addr.to_string();
        }
    };
    (child, addr)
}

/// The seeded request stream both the reference run and the interrupted
/// run drive. Selections and reports only: `Run` responses depend on
/// per-session runtime noise, which a reconnect legitimately resets
/// (DESIGN.md §12 scopes the recovery contract to selections + budgets).
fn request_stream() -> Vec<Request> {
    let ids: Vec<String> =
        acs_kernels::all_kernel_instances().iter().take(10).map(|k| k.id()).collect();
    let mut stream = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        stream.push(Request::Select { kernel_id: id.clone(), deadline_ms: None, priority: 0 });
        if i % 2 == 1 {
            stream.push(Request::Report { residual_w: 3.0 + i as f64, feedback: None });
        }
        if i % 3 == 2 {
            stream.push(Request::Select {
                kernel_id: ids[i / 2].clone(),
                deadline_ms: None,
                priority: 0,
            });
        }
    }
    stream
}

fn drive(client: &mut Client, requests: &[Request]) -> Vec<String> {
    requests
        .iter()
        .map(|r| serde_json::to_string(&client.call(r).expect("call succeeds")).unwrap())
        .collect()
}

fn run_recovery_cycle(model: &TrainedModel, scratch: &Path) -> RecoveryResult {
    let journal = scratch.join("serve.journal");
    let model_path = scratch.join("model.json");
    model.save(&model_path).expect("save model for the child");

    let stream = request_stream();
    let half = stream.len() / 2;

    // Reference: the whole stream against one uninterrupted in-process
    // server (same code path as the child, minus the journal).
    let reference = {
        let server = Server::spawn(
            ServeConfig {
                port: 0,
                seed: acs_bench::EXPERIMENT_SEED,
                global_cap_w: GLOBAL_CAP_W,
                policy: ArbiterPolicy::DemandProportional,
                ..ServeConfig::default()
            },
            model.clone(),
        )
        .expect("reference bind");
        let mut client = Client::connect(&server.addr).expect("connect reference");
        let log = drive(&mut client, &stream);
        server.stop();
        log
    };

    // Phase 1 against the journaled child — then SIGKILL, mid-session, no
    // Bye, no clean leave.
    let (mut child, addr) = spawn_child(&journal, &model_path);
    let mut client = Client::connect(&addr).expect("connect child");
    let mut log = drive(&mut client, &stream[..half]);
    child.kill().expect("SIGKILL the serving child");
    child.wait().expect("reap the child");
    drop(client);

    // Recovery latency: what a restart pays before it can serve — journal
    // open (validate + truncate) plus arbiter replay.
    let started = Instant::now();
    let (_journal, entries) = Journal::open(&journal).expect("journal survives SIGKILL");
    let (_, recovery) =
        replay(&entries, GLOBAL_CAP_W, ArbiterPolicy::DemandProportional).expect("journal replays");
    let recovery_latency_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;

    // Phase 2 against a restarted child on the same journal.
    let (mut child, addr) = spawn_child(&journal, &model_path);
    let mut client = Client::connect(&addr).expect("reconnect after restart");
    log.extend(drive(&mut client, &stream[half..]));

    let hit_rate = match client.call(&Request::Stats).expect("stats after recovery") {
        Response::Stats(s) => s.cache_hit_rate,
        other => panic!("expected Stats, got {other:?}"),
    };
    // A clean end for the second child: poison it and reap.
    let _ = client.call(&Request::Shutdown);
    child.wait().expect("reap the restarted child");

    let byte_identical = log == reference;
    assert!(byte_identical, "post-recovery selections/budgets diverged from the reference");
    assert!(!recovery.warm_kernels.is_empty(), "phase-1 misses were journaled");
    assert_eq!(recovery.orphaned_sessions.len(), 1, "the killed session is an orphan");
    assert!(hit_rate > 0.0, "phase-2 selects must hit the re-warmed cache");

    RecoveryResult {
        phase1_requests: half,
        phase2_requests: stream.len() - half,
        replayed_entries: recovery.replayed,
        warm_kernels: recovery.warm_kernels.len(),
        orphaned_sessions: recovery.orphaned_sessions.len(),
        recovery_latency_us,
        byte_identical,
        post_recovery_cache_hit_rate: hit_rate,
    }
}

fn run_chaos_smoke(model: TrainedModel) -> ChaosSmokeResult {
    let server = Server::spawn(
        ServeConfig {
            port: 0,
            seed: acs_bench::EXPERIMENT_SEED,
            global_cap_w: GLOBAL_CAP_W,
            max_sessions: 16,
            ..ServeConfig::default()
        },
        model,
    )
    .expect("smoke bind");

    // Session-ending faults (disconnect/tear/corrupt) stay rare: the
    // loadgen is closed-loop without reconnect, so each one forfeits the
    // session's remaining allotment. Delays are harmless to completion
    // and carry most of the injection volume.
    let plan = ChaosPlan {
        disconnect_p: 0.002,
        tear_p: 0.002,
        corrupt_p: 0.001,
        delay_p: 0.03,
        delay_ms: 1,
        dup_p: 0.0, // a dup desyncs the closed-loop loadgen's log pairing
        ..ChaosPlan::quiet(acs_bench::EXPERIMENT_SEED)
    };
    let proxy = ChaosProxy::spawn("127.0.0.1:0", &server.addr, plan).expect("proxy bind");

    let requests = 500u64;
    let opts = LoadgenOptions {
        addr: proxy.addr.clone(),
        requests,
        sessions: 4,
        run_every: 11,
        report_every: 13,
        feedback: true,
        ..Default::default()
    };
    let (report, _log) = run_loadgen(&opts).expect("loadgen completes under chaos");

    // The hardening contract, after ~500 requests' worth of injected
    // faults: server alive, failures typed or clean, budget conserved.
    let mut probe = Client::connect(&server.addr).expect("server still accepts");
    match probe.call(&Request::Hello) {
        Ok(Response::Welcome { .. }) => {}
        other => panic!("server unhealthy after chaos smoke: {other:?}"),
    }
    let conservation_error_w = server.handle.budget_conservation_error_w();
    assert_eq!(conservation_error_w, 0.0, "chaos smoke violated budget conservation");

    let proxy = proxy.stop();
    server.stop();

    ChaosSmokeResult {
        requests,
        plan,
        proxy: proxy.stats(),
        completed: requests - report.dropped,
        dropped: report.dropped,
        errored: report.errors,
        conservation_error_w,
    }
}

fn main() {
    if std::env::var(ROLE_ENV).as_deref() == Ok("server") {
        serve_child();
        return;
    }

    let scratch = std::env::temp_dir().join(format!("acs-bench-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    let model = acs_core::train_on_suite(&acs_bench::default_machine(), usize::MAX)
        .expect("full-suite training succeeds");
    let recovery = run_recovery_cycle(&model, &scratch);
    println!(
        "recovery: {} entries replayed in {} µs, {} kernels warmed, byte-identical: {}, \
         post-recovery hit rate {:.2}",
        recovery.replayed_entries,
        recovery.recovery_latency_us,
        recovery.warm_kernels,
        recovery.byte_identical,
        recovery.post_recovery_cache_hit_rate,
    );

    let chaos_smoke = run_chaos_smoke(model);
    println!(
        "chaos smoke: {}/{} completed ({} dropped, {} errored), {} faults injected, \
         conservation error {} W",
        chaos_smoke.completed,
        chaos_smoke.requests,
        chaos_smoke.dropped,
        chaos_smoke.errored,
        chaos_smoke.proxy.faults(),
        chaos_smoke.conservation_error_w,
    );

    let out = BenchRecovery {
        experiment: "BENCH_recovery".into(),
        seed: acs_bench::EXPERIMENT_SEED,
        global_cap_w: GLOBAL_CAP_W,
        recovery,
        chaos_smoke,
    };
    let path = acs_bench::write_result("BENCH_recovery", &out);
    println!("wrote {}", path.display());
    let _ = std::fs::remove_dir_all(&scratch);
}
