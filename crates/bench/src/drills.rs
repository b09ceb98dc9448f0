//! The failure drills: experiments whose subject is a server being
//! killed, partitioned or overloaded, gated by assertions rather than by
//! committed bytes.
//!
//! A drill that needs a killable OS process runs **this executable** as
//! `acs serve …` / `acs coordinator …` — the commands operators run —
//! and finds the child's port and replay count by parsing the contract
//! lines those commands print (`spawn_listening`).

use crate::client::{FleetClient, RetryPolicy};
use crate::loadgen::{run_loadgen, LoadgenOptions};
use crate::{default_machine, pretty, EXPERIMENT_SEED};
use acs_core::TrainedModel;
use acs_serve::{
    replay, ArbiterPolicy, ChaosPlan, ChaosProxy, ChaosProxyHandle, ChaosStats, Client,
    CoordClient, CoordRequest, CoordResponse, CoordStats, Coordinator, CoordinatorConfig, Journal,
    Request, Response, Running, ServeConfig, Server, ServerHandle,
};
use acs_sim::SplitMix64;
use serde::Serialize;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The budget every drill's fleet (or single journaled server) splits.
const GLOBAL_CAP_W: f64 = 90.0;
/// A shard's degraded-mode reserve, and the coordinator's encumbrance
/// for a lease that went silent.
const FLOOR_W: f64 = 2.0;

/// Read a starting `acs serve` / `acs coordinator` up to its
/// `listening on ADDR` line, returning the address and the count from a
/// preceding `recovered: N entries replayed, …` line (0 on a first start,
/// which prints none).
fn parse_contract(lines: impl Iterator<Item = io::Result<String>>) -> io::Result<(String, u64)> {
    let mut replayed = 0;
    for line in lines {
        let line = line?;
        if let Some(counts) = line.strip_prefix("recovered: ") {
            replayed = counts
                .split(' ')
                .next()
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| io::Error::other(format!("malformed contract line `{line}`")))?;
        } else if let Some(addr) = line.strip_prefix("listening on ") {
            return Ok((addr.to_string(), replayed));
        }
    }
    Err(io::Error::other("child exited before printing `listening on`"))
}

/// Run this executable as a child process with the whitespace-separated
/// arguments of `command_line` (the drills' scratch paths contain none)
/// and wait until it listens: `(child, bound address, journal entries it
/// replayed)`.
fn spawn_listening(command_line: &str) -> io::Result<(Child, String, u64)> {
    let mut child = Command::new(std::env::current_exe()?)
        .args(command_line.split_whitespace())
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    match parse_contract(BufReader::new(stdout).lines()) {
        Ok((addr, replayed)) => Ok((child, addr, replayed)),
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(e)
        }
    }
}

/// Bind a port that was in use a moment ago (by a killed child, by a
/// crashed in-process shard): the OS may hold the address briefly, so
/// retry for up to 10 s.
fn rebind<T, E: std::fmt::Display>(
    what: &str,
    mut bind: impl FnMut() -> Result<T, E>,
) -> io::Result<T> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match bind() {
            Ok(bound) => return Ok(bound),
            Err(e) if Instant::now() >= deadline => {
                return Err(io::Error::other(format!("{what} restart failed: {e}")))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn wait_until(timeout: Duration, mut condition: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if condition() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    condition()
}

/// A shard on an ephemeral port that leases its cap from `coordinator`,
/// asking for `demand_w` and renewing every 25 ms.
fn shard_config(coordinator: &str, demand_w: f64) -> ServeConfig {
    ServeConfig {
        global_cap_w: demand_w,
        policy: ArbiterPolicy::EqualShare,
        coordinator: Some(coordinator.to_string()),
        lease_floor_w: FLOOR_W,
        renew_ms: 25,
        ..ServeConfig::default()
    }
}

/// A fresh per-process scratch directory under the system temp dir.
fn scratch_dir(drill: &str) -> io::Result<std::path::PathBuf> {
    let dir = std::env::temp_dir().join(format!("acs-{drill}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

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

fn run_recovery_cycle(model: &TrainedModel, scratch: &Path) -> io::Result<RecoveryResult> {
    let journal = scratch.join("serve.journal");
    let model_path = scratch.join("model.json");
    model.save(&model_path).expect("save model for the child");
    let serve = format!(
        "serve --model {} --journal {} --port 0 --seed {EXPERIMENT_SEED} \
         --global-cap {GLOBAL_CAP_W} --policy demand",
        model_path.display(),
        journal.display()
    );

    let stream = request_stream();
    let half = stream.len() / 2;

    // Reference: the whole stream against one uninterrupted in-process
    // server (the child's configuration, minus the journal).
    let reference = {
        let server = Server::spawn(
            ServeConfig {
                port: 0,
                seed: EXPERIMENT_SEED,
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
    let (mut child, addr, replayed) = spawn_listening(&serve)?;
    assert_eq!(replayed, 0, "a fresh journal replays nothing");
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
    let (mut child, addr, replayed) = spawn_listening(&serve)?;
    assert_eq!(replayed, recovery.replayed, "the restarted child replayed the same journal");
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

    Ok(RecoveryResult {
        phase1_requests: half,
        phase2_requests: stream.len() - half,
        replayed_entries: recovery.replayed,
        warm_kernels: recovery.warm_kernels.len(),
        orphaned_sessions: recovery.orphaned_sessions.len(),
        recovery_latency_us,
        byte_identical,
        post_recovery_cache_hit_rate: hit_rate,
    })
}

fn run_chaos_smoke(model: TrainedModel) -> ChaosSmokeResult {
    let server = Server::spawn(
        ServeConfig {
            port: 0,
            seed: EXPERIMENT_SEED,
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
        ..ChaosPlan::quiet(EXPERIMENT_SEED)
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

/// Experiment A14: crash recovery + chaos smoke.
///
/// Part 1 — a real kill-and-restart cycle, out of process: a journaled
/// `acs serve` child is driven through half a seeded request stream,
/// SIGKILLed mid-conversation (no clean leaves, no warning), restarted on
/// the same journal, and driven through the rest. The combined response
/// log must be **byte-identical** to an uninterrupted run of the same
/// stream, and the recovery must come back with a warm cache. Measures
/// recovery latency (journal open + replay), replayed-entry count, and
/// the post-recovery cache hit rate.
///
/// Part 2 — the chaos smoke: 500 seeded loadgen requests through the
/// chaos proxy at a fixed plan. Injected faults may drop requests (that
/// is their job); the assertions are that the server survives, every
/// failure was typed or a clean drop, and the arbiter's budget split
/// still sums exactly to the global cap afterwards.
pub fn bench_recovery(out: &mut dyn Write) -> io::Result<String> {
    let scratch = scratch_dir("bench-recovery")?;
    let model = acs_core::train_on_suite(&default_machine(), usize::MAX)
        .expect("full-suite training succeeds");
    let recovery = run_recovery_cycle(&model, &scratch)?;
    writeln!(
        out,
        "recovery: {} entries replayed in {} µs, {} kernels warmed, byte-identical: {}, \
         post-recovery hit rate {:.2}",
        recovery.replayed_entries,
        recovery.recovery_latency_us,
        recovery.warm_kernels,
        recovery.byte_identical,
        recovery.post_recovery_cache_hit_rate,
    )?;

    let chaos_smoke = run_chaos_smoke(model);
    writeln!(
        out,
        "chaos smoke: {}/{} completed ({} dropped, {} errored), {} faults injected, \
         conservation error {} W",
        chaos_smoke.completed,
        chaos_smoke.requests,
        chaos_smoke.dropped,
        chaos_smoke.errored,
        chaos_smoke.proxy.faults(),
        chaos_smoke.conservation_error_w,
    )?;

    let _ = std::fs::remove_dir_all(&scratch);
    Ok(pretty(&BenchRecovery {
        experiment: "BENCH_recovery".into(),
        seed: EXPERIMENT_SEED,
        global_cap_w: GLOBAL_CAP_W,
        recovery,
        chaos_smoke,
    }))
}

/// Shard demands deliberately oversubscribe the cap (100 W asked, 90 W
/// available) so the demand-proportional split is actually exercised.
const DEMANDS_W: [f64; 3] = [50.0, 30.0, 20.0];

#[derive(Serialize)]
struct CoordinatorKillResult {
    outage_max_sum_w: f64,
    degraded_entries: u64,
    replayed_entries: u64,
    reconverge_ms: u64,
}

#[derive(Serialize)]
struct PartitionResult {
    blackholed: u64,
    last_grant_w: f64,
    degraded_min_cap_w: f64,
    recover_ms: u64,
}

#[derive(Serialize)]
struct ShardKillResult {
    encumbered_w: f64,
    survivor_sum_w: f64,
    expirations: u64,
}

#[derive(Serialize)]
struct BenchFleet {
    experiment: String,
    seed: u64,
    global_cap_w: f64,
    floor_w: f64,
    shards: usize,
    demands_w: Vec<f64>,
    converge_ms: u64,
    steady_max_sum_w: f64,
    fleet_max_sum_w: f64,
    coordinator_overshoot_w: f64,
    coordinator_kill: CoordinatorKillResult,
    partition: PartitionResult,
    shard_kill: ShardKillResult,
}

fn fleet_sum_w(handles: &[&ServerHandle]) -> f64 {
    handles.iter().map(|h| h.stats().lease_budget_w).sum()
}

/// Sample the fleet's enforced-cap sum for `window`, asserting the cap at
/// every instant and returning the maximum observed.
fn sample_fleet(handles: &[&ServerHandle], window: Duration, label: &str) -> f64 {
    let deadline = Instant::now() + window;
    let mut max_sum = 0.0f64;
    while Instant::now() < deadline {
        let sum = fleet_sum_w(handles);
        assert!(
            sum <= GLOBAL_CAP_W + 1e-9,
            "{label}: fleet enforces {sum} W, above the {GLOBAL_CAP_W} W cap"
        );
        max_sum = max_sum.max(sum);
        std::thread::sleep(Duration::from_millis(15));
    }
    max_sum
}

fn coordinator_stats(addr: &str) -> CoordStats {
    let mut client = CoordClient::connect(addr).expect("coordinator accepts a stats probe");
    match client.call(&CoordRequest::Stats).expect("stats call succeeds") {
        CoordResponse::Stats(s) => s,
        other => panic!("expected Stats, got {other:?}"),
    }
}

/// Experiment A15: fleet power arbitration under real process failure.
///
/// A journaled `acs coordinator` runs as a **separate OS process**; three
/// in-process shards lease their power caps from it over TCP, one of them
/// through the chaos proxy. The drill then walks the three failure modes
/// the lease protocol exists for:
///
/// 1. **Coordinator SIGKILL + restart** — no clean shutdown, no warning.
///    During the outage the shards' enforced caps may only decay, so the
///    fleet-wide sum stays under the global cap; the restarted
///    coordinator replays its journal and re-adopts the same shards
///    instead of double-granting.
/// 2. **Network partition** — the proxy blackholes a shard's renewals
///    both ways while its connections stay open. The shard decays into
///    degraded mode, bounded by `[min(floor, last grant), last grant]`,
///    then recovers to a full lease when the window closes.
/// 3. **Shard crash** — one shard stops in-process the way a killed
///    process would (`simulate_crash`: no `Release` frame, no clean
///    leaves). Its lease expires to a floor-sized encumbrance and the
///    survivors ramp into the freed budget.
///
/// The gate, sampled throughout: the sum of the caps the shards actually
/// enforce never exceeds the coordinator's global cap, and the
/// coordinator's own overshoot counter stays at zero.
pub fn bench_fleet(out: &mut dyn Write) -> io::Result<String> {
    let scratch = scratch_dir("bench-fleet")?;
    let journal = scratch.join("coordinator.journal");
    // TTL = 20 ticks × 25 ms = 500 ms of silence. The port is ephemeral
    // on the first start and pinned on the restart.
    let spawn_coordinator = |port: u16| {
        spawn_listening(&format!(
            "coordinator --journal {} --port {port} --cap {GLOBAL_CAP_W} --floor {FLOOR_W} \
             --policy demand --ttl-ticks 20 --tick-ms 25",
            journal.display()
        ))
    };

    let model = acs_core::train_on_suite(&default_machine(), 12).expect("training succeeds");
    let (mut coord, coord_addr, replayed0) = spawn_coordinator(0)?;
    assert_eq!(replayed0, 0, "a fresh journal replays nothing");
    let coord_port: u16 = coord_addr.rsplit(':').next().unwrap().parse().expect("coordinator port");

    // Shards 0 and 1 talk to the coordinator directly; shard 2 goes
    // through the chaos proxy so a partition can be injected later.
    let proxy = ChaosProxy::spawn("127.0.0.1:0", &coord_addr, ChaosPlan::quiet(EXPERIMENT_SEED))
        .expect("proxy binds");

    let started = Instant::now();
    let [run0, run1, run2] =
        [(&coord_addr, 0), (&coord_addr, 1), (&proxy.addr, 2)].map(|(via, i)| {
            Server::spawn(shard_config(via, DEMANDS_W[i]), model.clone()).expect("shard binds")
        });
    let (shard0, shard1, shard2) = (run0.handle.clone(), run1.handle.clone(), run2.handle.clone());
    let fleet = [&shard0, &shard1, &shard2];

    // Phase A: converge. Demands oversubscribe the cap, so the enforced
    // sum ramps up to exactly the global cap and stays there.
    let converged = || {
        fleet.iter().all(|h| h.stats().lease_state == "leased")
            && (fleet_sum_w(&fleet) - GLOBAL_CAP_W).abs() < 1e-6
    };
    assert!(
        wait_until(Duration::from_secs(10), converged),
        "fleet failed to converge to the global cap"
    );
    let converge_ms = started.elapsed().as_millis() as u64;
    let steady_max_sum_w = sample_fleet(&fleet, Duration::from_millis(300), "steady state");
    let mut fleet_max_sum_w = steady_max_sum_w;

    // Phase B: SIGKILL the coordinator mid-lease — no Release frames, no
    // warning — and watch the shards decay without ever overshooting.
    coord.kill().expect("SIGKILL the coordinator");
    coord.wait().expect("reap the coordinator");
    let outage_max_sum_w = sample_fleet(&fleet, Duration::from_millis(700), "coordinator outage");
    fleet_max_sum_w = fleet_max_sum_w.max(outage_max_sum_w);
    let degraded_entries: u64 = fleet.iter().map(|h| h.stats().degraded_entries).sum();
    assert!(degraded_entries >= 1, "a 700 ms outage must drive shards into degraded mode");

    // Restart on the same port and journal: the replayed table re-adopts
    // the same shards (each remembers its shard id) instead of granting
    // fresh budget on top of the old.
    let (mut coord, coord_addr2, replayed_entries) =
        rebind("coordinator", || spawn_coordinator(coord_port))?;
    assert_eq!(coord_addr2, coord_addr, "restart must land on the same address");
    assert!(replayed_entries >= 2, "the journal recorded the initial grants");
    let restart = Instant::now();
    assert!(
        wait_until(Duration::from_secs(10), converged),
        "fleet failed to re-converge after the coordinator restart"
    );
    let reconverge_ms = restart.elapsed().as_millis() as u64;
    fleet_max_sum_w =
        fleet_max_sum_w.max(sample_fleet(&fleet, Duration::from_millis(200), "re-adopted"));
    let stats = coordinator_stats(&coord_addr);
    assert_eq!(stats.live_leases, 3, "all three shards re-adopted");
    assert_eq!(stats.overshoot_w, 0.0, "replay must not double-grant");

    // Phase C: partition shard 2 — the proxy swallows its renewals both
    // ways while the connections stay open. Its cap decays below the last
    // grant but never under min(floor, last grant), then recovers.
    let last_grant_w = shard2.stats().lease_budget_w;
    proxy.handle.partition(700);
    assert!(
        wait_until(Duration::from_secs(5), || shard2.stats().lease_state == "degraded"),
        "the partitioned shard never entered degraded mode"
    );
    assert!(
        wait_until(Duration::from_secs(5), || shard2.stats().lease_budget_w < last_grant_w - 1e-9),
        "the partitioned shard's cap never decayed"
    );
    let mut degraded_min_cap_w = f64::INFINITY;
    let deadline = Instant::now() + Duration::from_millis(150);
    while Instant::now() < deadline {
        let cap = shard2.stats().lease_budget_w;
        assert!(cap <= last_grant_w + 1e-9, "degraded cap above the last grant");
        assert!(cap >= FLOOR_W.min(last_grant_w) - 1e-9, "degraded cap under the floor");
        degraded_min_cap_w = degraded_min_cap_w.min(cap);
        std::thread::sleep(Duration::from_millis(10));
    }
    let partition_recover = Instant::now();
    assert!(
        wait_until(Duration::from_secs(10), || {
            shard2.stats().lease_state == "leased"
                && (fleet_sum_w(&fleet) - GLOBAL_CAP_W).abs() < 1e-6
        }),
        "the partitioned shard never recovered its lease"
    );
    let recover_ms = partition_recover.elapsed().as_millis() as u64;
    let blackholed = proxy.handle.stats().blackholed;
    assert!(blackholed > 0, "the partition window swallowed nothing");
    fleet_max_sum_w =
        fleet_max_sum_w.max(sample_fleet(&fleet, Duration::from_millis(200), "post-partition"));

    // Phase D: crash a shard. Its lease expires to a floor-sized
    // encumbrance and the survivors ramp into the freed budget.
    shard1.simulate_crash();
    run1.join();
    assert!(
        wait_until(Duration::from_secs(5), || {
            let s = coordinator_stats(&coord_addr);
            s.live_leases == 2 && s.encumbered_leases == 1
        }),
        "the killed shard's lease never expired"
    );
    let stats = coordinator_stats(&coord_addr);
    assert!(stats.encumbered_w <= FLOOR_W + 1e-9, "encumbrance above the floor");
    assert_eq!(stats.overshoot_w, 0.0);
    let survivors = [&shard0, &shard2];
    let freed_cap_w = GLOBAL_CAP_W - stats.encumbered_w;
    assert!(
        wait_until(Duration::from_secs(10), || {
            (fleet_sum_w(&survivors) - freed_cap_w).abs() < 1e-6
        }),
        "survivors never ramped into the freed budget"
    );
    let survivor_sum_w = fleet_sum_w(&survivors);
    let final_stats = coordinator_stats(&coord_addr);
    assert!(
        final_stats.live_committed_w + final_stats.encumbered_w <= GLOBAL_CAP_W + 1e-9,
        "coordinator's own accounting exceeds the cap"
    );

    // Teardown: clean shard shutdown (Release frames), then the proxy,
    // then the coordinator child.
    run0.stop();
    run2.stop();
    proxy.stop();
    coord.kill().expect("stop the coordinator child");
    coord.wait().expect("reap the coordinator child");
    let _ = std::fs::remove_dir_all(&scratch);

    writeln!(
        out,
        "fleet: converged in {converge_ms} ms, steady max {steady_max_sum_w:.3} W, \
         lifetime max {fleet_max_sum_w:.3} W (cap {GLOBAL_CAP_W} W)"
    )?;
    writeln!(
        out,
        "coordinator kill: outage max {outage_max_sum_w:.3} W, {degraded_entries} degraded \
         entries, {replayed_entries} entries replayed, re-converged in {reconverge_ms} ms"
    )?;
    writeln!(
        out,
        "partition: {blackholed} frames blackholed, cap decayed {last_grant_w:.3} -> \
         {degraded_min_cap_w:.3} W, recovered in {recover_ms} ms"
    )?;
    writeln!(
        out,
        "shard kill: {} W encumbered, survivors enforce {survivor_sum_w:.3} W, \
         {} expirations",
        stats.encumbered_w, final_stats.expirations
    )?;

    Ok(pretty(&BenchFleet {
        experiment: "BENCH_fleet".into(),
        seed: EXPERIMENT_SEED,
        global_cap_w: GLOBAL_CAP_W,
        floor_w: FLOOR_W,
        shards: 3,
        demands_w: DEMANDS_W.to_vec(),
        converge_ms,
        steady_max_sum_w,
        fleet_max_sum_w,
        coordinator_overshoot_w: final_stats.overshoot_w,
        coordinator_kill: CoordinatorKillResult {
            outage_max_sum_w,
            degraded_entries,
            replayed_entries,
            reconverge_ms,
        },
        partition: PartitionResult { blackholed, last_grant_w, degraded_min_cap_w, recover_ms },
        shard_kill: ShardKillResult {
            encumbered_w: stats.encumbered_w,
            survivor_sum_w,
            expirations: final_stats.expirations,
        },
    }))
}

/// Deadline attached to every phase-2 overload request, ms.
const DEADLINE_MS: u64 = 50;
/// Brownout p99 target for the phase-2 overload server, µs.
const BROWNOUT_US: u64 = 2_000;
/// Requests per overload phase.
const REQUESTS: u64 = 600;

#[derive(Serialize)]
struct BenchOverload {
    experiment: String,
    seed: u64,
    deadline_ms: u64,
    brownout_us: u64,
    saturation_rps: f64,
    goodput_rps: f64,
    goodput_ratio: f64,
    sheds: u64,
    deadline_misses: u64,
}

/// Experiment A19: overload resilience under deadline-aware shedding.
///
/// Phase 1 measures single-shard saturation with a closed loop (every
/// session waits for its response, so the server sets the pace). Phase 2
/// offers an *open-loop* load at 2× that rate against a brownout-enabled
/// server, with every request carrying a deadline — the configuration the
/// shed gate exists for. The gates the CI overload-smoke job relies on:
///
/// - goodput (served within deadline, sheds excluded) stays at or above
///   70% of the measured saturation throughput,
/// - the admitted p99 stays bounded (≤ 5× the request deadline) instead
///   of growing with the backlog,
/// - nothing is dropped and nothing errors — overload answers are *typed*
///   (`ShedDeadline`), never torn connections.
///
/// `results/BENCH_overload.json` records the gated quantities only; 600
/// requests per phase decide a pass, they do not measure a latency (the
/// `benchmark/` package does that).
pub fn bench_overload(out: &mut dyn Write) -> io::Result<String> {
    let model = acs_core::train_on_suite(&default_machine(), usize::MAX)
        .expect("full-suite training succeeds");

    // Phase 1: closed-loop saturation. Four sessions, no deadlines, no
    // brownout — the pre-overload byte path, setting the baseline.
    let server = Server::spawn(
        ServeConfig { seed: EXPERIMENT_SEED, max_sessions: 16, ..ServeConfig::default() },
        model.clone(),
    )
    .expect("bind ephemeral port");
    let saturation_opts = LoadgenOptions {
        addr: server.addr.clone(),
        requests: REQUESTS,
        sessions: 4,
        run_every: 10,
        stats_at_end: true,
        shutdown_at_end: true,
        ..Default::default()
    };
    let (saturation, _) = run_loadgen(&saturation_opts).expect("saturation phase completes");
    server.join();
    assert_eq!(saturation.dropped, 0, "saturation: dropped requests");
    assert_eq!(saturation.errors, 0, "saturation: errored requests");
    let saturation_rps = saturation.throughput_rps;
    writeln!(out, "saturation: {saturation_rps:>8.0} req/s")?;

    // Phase 2: open-loop at 2× saturation against a brownout-enabled
    // server, every request deadline-carrying. The offered load exceeds
    // what the closed loop could extract; the shed gate and the brownout
    // ladder keep the admitted latency bounded.
    let offered_rate = saturation_rps * 2.0;
    let server = Server::spawn(
        ServeConfig {
            seed: EXPERIMENT_SEED,
            max_sessions: 16,
            brownout_us: BROWNOUT_US,
            ..ServeConfig::default()
        },
        model,
    )
    .expect("bind ephemeral port");
    let overload_opts = LoadgenOptions {
        addr: server.addr.clone(),
        requests: REQUESTS,
        sessions: 8,
        run_every: 10,
        stats_at_end: true,
        shutdown_at_end: true,
        open_loop: true,
        rate_rps: offered_rate,
        deadline_ms: DEADLINE_MS,
        ..Default::default()
    };
    let (overload, _) = run_loadgen(&overload_opts).expect("overload phase completes");
    server.join();

    assert_eq!(overload.dropped, 0, "overload must answer, not tear connections");
    assert_eq!(overload.errors, 0, "overload answers are typed sheds, not errors");
    let stats = overload.stats.as_ref().expect("stats requested");
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.sheds, overload.sheds, "client and server agree on the shed count");

    // Goodput: answered in time. Sheds are deliberate (excluded from the
    // numerator by construction — a shed is not a served request), and a
    // served request that blew its own deadline does not count either.
    let good = REQUESTS - overload.sheds - stats.deadline_misses;
    let goodput_rps = if overload.elapsed_s > 0.0 { good as f64 / overload.elapsed_s } else { 0.0 };
    let goodput_ratio = goodput_rps / saturation_rps;
    writeln!(
        out,
        "overload:   {:>8.0} req/s offered  {:>8.0} req/s goodput ({:.0}% of saturation)",
        offered_rate,
        goodput_rps,
        goodput_ratio * 100.0
    )?;
    writeln!(
        out,
        "            sheds {}  deadline misses {}  brownout level {}",
        overload.sheds, stats.deadline_misses, stats.brownout_level
    )?;

    assert!(
        goodput_ratio >= 0.70,
        "goodput {goodput_rps:.0} req/s fell below 70% of saturation {saturation_rps:.0} req/s"
    );
    assert!(
        overload.p99_latency_us <= DEADLINE_MS * 1000 * 5,
        "admitted p99 {} µs is unbounded (deadline {DEADLINE_MS} ms)",
        overload.p99_latency_us
    );

    Ok(pretty(&BenchOverload {
        experiment: "BENCH_overload".into(),
        seed: EXPERIMENT_SEED,
        deadline_ms: DEADLINE_MS,
        brownout_us: BROWNOUT_US,
        saturation_rps,
        goodput_rps,
        goodput_ratio,
        sheds: overload.sheds,
        deadline_misses: stats.deadline_misses,
    }))
}

/// What `acs chaosfleet` runs: the seed and the shape of the schedule.
pub struct ChaosFleet {
    /// Seeds the schedule, the proxies and the session keys.
    pub seed: u64,
    /// Shard servers, each behind its own chaos proxy (at least 2, so
    /// failover has somewhere to go).
    pub shards: usize,
    /// Phases; each is a kill, a partition, or calm.
    pub phases: u64,
    /// Fleet-client sessions.
    pub sessions: u64,
    /// Calls every session issues per phase.
    pub calls_per_phase: u64,
    /// The coordinator's global cap, W.
    pub cap_w: f64,
    /// Ticks after expiry at which the coordinator evicts a lease.
    pub evict_after_ticks: u64,
    /// Length of a partition window, ms.
    pub partition_ms: u64,
}

/// The fleet chaos orchestrator (DESIGN.md §17).
///
/// Spins up a coordinator and N shard servers in-process — each shard
/// reaching the coordinator through its own chaos proxy — then drives
/// fleet-client sessions through a seeded phase schedule that kills,
/// restarts, and partitions shards. Throughout the run:
/// - every logical call must complete: sessions homed on a dead shard
///   fail over to a live one and replay their idempotency keys,
/// - the coordinator-side budget must stay conserved (live committed
///   plus encumbered never above the cap, overshoot exactly zero),
/// - a shard's enforced cap must stay inside [min(floor, last grant),
///   global cap] — bounded degraded decay, never an overshoot.
///
/// Everything printed is a pure function of the seed (schedules, call
/// counts, failover counts), never a measurement, so two runs at the
/// same seed produce byte-identical output. A failed gate is an error
/// whose message lists every gate that failed.
pub fn chaosfleet(fleet: &ChaosFleet, out: &mut dyn Write) -> io::Result<()> {
    let &ChaosFleet {
        seed,
        shards: shards_n,
        phases,
        sessions: sessions_n,
        calls_per_phase,
        cap_w,
        evict_after_ticks,
        partition_ms,
    } = fleet;
    writeln!(
        out,
        "chaosfleet: seed {seed}, {shards_n} shards, {phases} phases, {sessions_n} sessions"
    )?;

    // One model shared by every shard, trained on a fixed sample of the
    // suite at a fixed seed: the chaos seed must not change the model.
    let model = acs_core::train_on_suite(&default_machine(), 16).map_err(io::Error::other)?;
    let kernel_ids: Vec<String> =
        acs_kernels::all_kernel_instances().iter().take(8).map(|k| k.id()).collect();

    let coord = Coordinator::spawn(CoordinatorConfig {
        host: "127.0.0.1".into(),
        port: 0,
        global_cap_w: cap_w,
        policy: ArbiterPolicy::DemandProportional,
        ttl_ticks: 20,
        tick_ms: 25,
        floor_w: FLOOR_W,
        evict_after_ticks,
        journal: None,
        journal_sync: false,
    })
    .map_err(io::Error::other)?;

    /// One shard: its (port-pinned) config for restarts, the proxy its
    /// lease client dials, and the running server (`None` while killed).
    struct Shard {
        config: ServeConfig,
        proxy: Running<ChaosProxyHandle>,
        server: Option<Running<ServerHandle>>,
    }
    impl Shard {
        fn running(&self) -> &Running<ServerHandle> {
            self.server.as_ref().expect("shard is running")
        }
    }

    let mut shards: Vec<Shard> = Vec::with_capacity(shards_n);
    for i in 0..shards_n {
        let proxy =
            ChaosProxy::spawn("127.0.0.1:0", &coord.addr, ChaosPlan::quiet(seed ^ i as u64))
                .map_err(io::Error::other)?;
        let mut config = ServeConfig {
            max_sessions: 64,
            shard_id: Some(i as u64),
            ..shard_config(&proxy.addr, cap_w)
        };
        let server = Server::spawn(config.clone(), model.clone()).map_err(io::Error::other)?;
        // Pin the port so a restart rebinds the same address the clients
        // already hold in their rings.
        let bound: std::net::SocketAddr = server.addr.parse().expect("bound address parses");
        config.port = bound.port();
        shards.push(Shard { config, proxy, server: Some(server) });
    }

    if !wait_until(Duration::from_secs(30), || {
        shards.iter().all(|s| s.running().handle.stats().lease_state == "leased")
    }) {
        return Err(io::Error::other("fleet did not lease within 30 s"));
    }
    writeln!(out, "fleet up: {shards_n} shards leased")?;

    // Continuous conservation watchdog: samples the coordinator's books
    // every few milliseconds for the whole run.
    let stop = Arc::new(AtomicBool::new(false));
    let violations = Arc::new(AtomicU64::new(0));
    let monitor = {
        let (stop, violations, coord) = (stop.clone(), violations.clone(), coord.handle.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let stats = coord.stats();
                if stats.overshoot_w != 0.0
                    || stats.live_committed_w + stats.encumbered_w > cap_w + 1e-9
                {
                    violations.fetch_add(1, Ordering::SeqCst);
                }
                std::thread::sleep(Duration::from_millis(3));
            }
        })
    };

    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(20),
        request_deadline: Duration::from_secs(10),
        breaker_threshold: 1000,
        breaker_cooldown: Duration::from_millis(1),
    };
    // Rendezvous placement hashes the stable "shard-i" labels, never the
    // dialed addresses: the OS assigns ephemeral ports, and hashing those
    // would make session homes — and every printed re-admission and
    // failover count — vary run to run at the same seed.
    let ring: Vec<(String, String)> = shards
        .iter()
        .enumerate()
        .map(|(i, s)| (format!("shard-{i}"), s.running().addr.clone()))
        .collect();
    let mut key_rng = SplitMix64(seed ^ 0x5E55_1014_C11E_4715);
    let mut clients: Vec<FleetClient> = (0..sessions_n)
        .map(|_| FleetClient::with_ring(&ring, key_rng.next_u64(), policy.clone()))
        .collect();

    // One phase's worth of traffic: every session issues its calls in
    // order; the schedule of kernels and Run-vs-Select is seed-pure.
    let drive = |clients: &mut Vec<FleetClient>, phase: u64| -> io::Result<u64> {
        let mut completed = 0u64;
        for (s, client) in clients.iter_mut().enumerate() {
            for c in 0..calls_per_phase {
                let kernel = &kernel_ids
                    [((phase * 31 + s as u64 * 7 + c) % kernel_ids.len() as u64) as usize];
                let response = if c % 3 == 2 {
                    client.run(kernel, 1 + c % 2)
                } else {
                    client.call(&Request::Select {
                        kernel_id: kernel.clone(),
                        deadline_ms: None,
                        priority: 0,
                    })
                };
                match response {
                    Ok(Response::Selected(_)) | Ok(Response::Ran { .. }) => completed += 1,
                    Ok(other) => {
                        return Err(io::Error::other(format!(
                            "phase {phase} session {s}: unexpected response {other:?}"
                        )))
                    }
                    Err(e) => {
                        return Err(io::Error::other(format!(
                            "phase {phase} session {s}: call failed: {e}"
                        )))
                    }
                }
            }
        }
        Ok(completed)
    };

    // The chaos schedule's only entropy source, so the whole orchestration
    // is a pure function of the seed.
    let mut sched = SplitMix64(seed ^ 0xC4A0_5F1E_E7B0_0A57);
    let (mut completed, mut kills, mut partitions) = (0u64, 0u64, 0u64);
    let (mut readmitted, mut expected_readmissions) = (0u64, 0u64);
    let mut decay_violations = 0u64;
    for phase in 1..=phases {
        let action = sched.next_u64() % 3;
        let victim = (sched.next_u64() as usize) % shards_n;
        match action {
            0 => {
                writeln!(out, "phase {phase}: kill shard-{victim}")?;
                let victim_label = format!("shard-{victim}");
                let homed: Vec<usize> = clients
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.pick() == Some(victim_label.as_str()))
                    .map(|(i, _)| i)
                    .collect();
                expected_readmissions += homed.len() as u64;
                let server = shards[victim].server.take().expect("shard is running");
                server.handle.simulate_crash();
                server.join();
                kills += 1;
                completed += drive(&mut clients, phase)?;
                for i in homed {
                    if clients[i].pick() != Some(victim_label.as_str()) {
                        readmitted += 1;
                    }
                }
                shards[victim].server = Some(rebind(&victim_label, || {
                    Server::spawn(shards[victim].config.clone(), model.clone())
                })?);
                for client in &mut clients {
                    client.restore(&victim_label);
                }
            }
            1 => {
                writeln!(out, "phase {phase}: partition shard-{victim} ({partition_ms} ms)")?;
                let last_grant = shards[victim].running().handle.stats().lease_budget_w;
                shards[victim].proxy.handle.partition(partition_ms);
                partitions += 1;
                completed += drive(&mut clients, phase)?;
                // Bounded degraded decay: while (and after) the window,
                // the enforced cap stays inside [min(floor, last grant),
                // global cap]. It may recover upward, never overshoot.
                for _ in 0..10 {
                    let cap = shards[victim].running().handle.stats().lease_budget_w;
                    if cap < FLOOR_W.min(last_grant) - 1e-9 || cap > cap_w + 1e-9 {
                        decay_violations += 1;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            _ => {
                writeln!(out, "phase {phase}: calm")?;
                completed += drive(&mut clients, phase)?;
            }
        }
    }

    stop.store(true, Ordering::SeqCst);
    monitor.join().expect("monitor joins");

    let failovers: u64 = clients.iter().map(|c| c.stats().failovers).sum();
    let replays: u64 = clients.iter().map(|c| c.stats().replays).sum();
    let expected = phases * sessions_n * calls_per_phase;
    writeln!(out, "calls: {completed}/{expected} completed")?;
    writeln!(out, "re-admissions: {readmitted} session moves after {kills} kill(s)")?;
    writeln!(out, "failovers: {failovers} evictions, {replays} replays")?;
    writeln!(out, "partitions: {partitions}")?;

    drop(clients);
    for shard in shards {
        shard.server.expect("every killed shard was restarted").stop();
        shard.proxy.stop();
    }
    coord.stop();

    let mut failures = Vec::new();
    if completed != expected {
        failures.push(format!("goodput: only {completed}/{expected} calls completed"));
    }
    if readmitted != expected_readmissions {
        failures.push(format!(
            "re-admission: {readmitted} of {expected_readmissions} killed-shard sessions moved"
        ));
    }
    let budget_violations = violations.load(Ordering::SeqCst);
    if budget_violations > 0 {
        failures.push(format!("budget: {budget_violations} conservation violation(s) observed"));
    }
    if decay_violations > 0 {
        failures.push(format!("decay: {decay_violations} out-of-bounds cap sample(s)"));
    }
    if !failures.is_empty() {
        return Err(io::Error::other(format!("chaosfleet: FAIL\n  {}", failures.join("\n  "))));
    }
    writeln!(out, "budget: conserved under cap {cap_w} W")?;
    writeln!(out, "fleet ok")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contract(text: &str) -> io::Result<(String, u64)> {
        parse_contract(text.lines().map(|l| Ok(l.to_string())))
    }

    /// The two `recovered:` spellings are the ones `acs serve` and
    /// `acs coordinator` print; a first start prints none.
    #[test]
    fn contract_lines_parse_in_both_real_formats() {
        let serve = "recovered: 12 entries replayed, 3 kernels warmed, 0 orphaned session(s)\n\
                     listening on 127.0.0.1:41223\n";
        assert_eq!(contract(serve).unwrap(), ("127.0.0.1:41223".to_string(), 12));
        let coordinator = "recovered: 7 entries replayed, 2 live lease(s), 1 encumbered\n\
                           listening on 127.0.0.1:4015\n";
        assert_eq!(contract(coordinator).unwrap(), ("127.0.0.1:4015".to_string(), 7));
        assert_eq!(contract("listening on 127.0.0.1:9\n").unwrap(), ("127.0.0.1:9".to_string(), 0));
    }

    #[test]
    fn a_child_that_never_listens_is_an_error_not_a_hang() {
        assert!(contract("").is_err());
        assert!(contract("recovered: 3 entries replayed\n").is_err());
        assert!(contract("recovered: many\nlistening on 127.0.0.1:9\n").is_err());
    }
}
