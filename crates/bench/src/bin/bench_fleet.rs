//! Experiment A15: fleet power arbitration under real process failure.
//!
//! A journaled coordinator runs as a **separate OS process** (this binary
//! re-executes itself, exactly like `bench_recovery`); three in-process
//! shards lease their power caps from it over TCP, one of them through
//! the chaos proxy. The bench then walks the three failure modes the
//! lease protocol exists for:
//!
//! 1. **Coordinator SIGKILL + restart** — no clean shutdown, no warning.
//!    During the outage the shards' enforced caps may only decay, so the
//!    fleet-wide sum stays under the global cap; the restarted
//!    coordinator replays its journal and re-adopts the same shards
//!    instead of double-granting.
//! 2. **Network partition** — the proxy blackholes a shard's renewals
//!    both ways while its connections stay open. The shard decays into
//!    degraded mode, bounded by `[min(floor, last grant), last grant]`,
//!    then recovers to a full lease when the window closes.
//! 3. **Shard SIGKILL** — the lease expires to a floor-sized encumbrance
//!    and the survivors ramp into the freed budget.
//!
//! The gate, sampled throughout: the sum of the caps the shards actually
//! enforce never exceeds the coordinator's global cap, and the
//! coordinator's own overshoot counter stays at zero.
//!
//! Writes `results/BENCH_fleet.json`.

use acs_serve::{
    ArbiterPolicy, ChaosPlan, ChaosProxy, CoordClient, CoordRequest, CoordResponse, CoordStats,
    Coordinator, CoordinatorConfig, ServeConfig, Server, ServerHandle,
};
use serde::Serialize;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Child-role marker: when set, this process is the journaled coordinator.
const ROLE_ENV: &str = "ACS_BENCH_FLEET_ROLE";
const JOURNAL_ENV: &str = "ACS_BENCH_FLEET_JOURNAL";
const PORT_ENV: &str = "ACS_BENCH_FLEET_PORT";

const GLOBAL_CAP_W: f64 = 90.0;
const FLOOR_W: f64 = 2.0;
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

/// The child process: bind the coordinator (an explicit port on restart,
/// ephemeral on the first run), print the contract lines, serve until
/// the parent kills us.
fn coordinator_child() {
    let journal = std::env::var(JOURNAL_ENV).expect("child needs the journal path");
    let port: u16 =
        std::env::var(PORT_ENV).expect("child needs a port").parse().expect("port is a u16");
    let coordinator = Coordinator::bind(CoordinatorConfig {
        host: "127.0.0.1".into(),
        port,
        global_cap_w: GLOBAL_CAP_W,
        policy: ArbiterPolicy::DemandProportional,
        ttl_ticks: 20,
        tick_ms: 25, // TTL = 500 ms of silence
        floor_w: FLOOR_W,
        evict_after_ticks: 0,
        journal: Some(PathBuf::from(journal)),
        journal_sync: false,
    })
    .expect("coordinator binds");
    println!("recovered: {}", coordinator.handle().recovery().map_or(0, |r| r.replayed));
    println!("listening on {}", coordinator.local_addr());
    std::io::stdout().flush().expect("flush the contract lines");
    coordinator.run().expect("coordinator serves");
}

/// Spawn a coordinator child on `journal`, returning the process, its
/// address, and the replayed-entry count it reported.
fn spawn_coordinator(journal: &Path, port: u16) -> (std::process::Child, String, u64) {
    let exe = std::env::current_exe().expect("own path");
    let mut child = std::process::Command::new(exe)
        .env(ROLE_ENV, "coordinator")
        .env(JOURNAL_ENV, journal)
        .env(PORT_ENV, port.to_string())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn coordinator child");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let mut replayed = 0u64;
    let addr = loop {
        let line =
            lines.next().expect("child printed its contract lines").expect("child stdout is utf8");
        if let Some(n) = line.strip_prefix("recovered: ") {
            replayed = n.parse().expect("replayed count is a u64");
        } else if let Some(addr) = line.strip_prefix("listening on ") {
            break addr.to_string();
        }
    };
    (child, addr, replayed)
}

fn shard_config(coordinator: &str, demand_w: f64) -> ServeConfig {
    ServeConfig {
        port: 0,
        seed: acs_bench::EXPERIMENT_SEED,
        global_cap_w: demand_w,
        policy: ArbiterPolicy::EqualShare,
        coordinator: Some(coordinator.to_string()),
        lease_floor_w: FLOOR_W,
        renew_ms: 25,
        ..ServeConfig::default()
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

fn main() {
    if std::env::var(ROLE_ENV).as_deref() == Ok("coordinator") {
        coordinator_child();
        return;
    }

    let scratch = std::env::temp_dir().join(format!("acs-bench-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let journal = scratch.join("coordinator.journal");

    let model =
        acs_core::train_on_suite(&acs_bench::default_machine(), 12).expect("training succeeds");
    let (mut coord, coord_addr, replayed0) = spawn_coordinator(&journal, 0);
    assert_eq!(replayed0, 0, "a fresh journal replays nothing");
    let coord_port: u16 = coord_addr.rsplit(':').next().unwrap().parse().expect("coordinator port");

    // Shards 0 and 1 talk to the coordinator directly; shard 2 goes
    // through the chaos proxy so a partition can be injected later.
    let proxy =
        ChaosProxy::spawn("127.0.0.1:0", &coord_addr, ChaosPlan::quiet(acs_bench::EXPERIMENT_SEED))
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
    assert!(
        wait_until(Duration::from_secs(10), || {
            fleet.iter().all(|h| h.stats().lease_state == "leased")
                && (fleet_sum_w(&fleet) - GLOBAL_CAP_W).abs() < 1e-6
        }),
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
    let (mut coord, coord_addr2, replayed_entries) = spawn_coordinator(&journal, coord_port);
    assert_eq!(coord_addr2, coord_addr, "restart must land on the same address");
    assert!(replayed_entries >= 2, "the journal recorded the initial grants");
    let restart = Instant::now();
    assert!(
        wait_until(Duration::from_secs(10), || {
            fleet.iter().all(|h| h.stats().lease_state == "leased")
                && (fleet_sum_w(&fleet) - GLOBAL_CAP_W).abs() < 1e-6
        }),
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

    // Phase D: SIGKILL a shard. Its lease expires to a floor-sized
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

    println!(
        "fleet: converged in {converge_ms} ms, steady max {steady_max_sum_w:.3} W, \
         lifetime max {fleet_max_sum_w:.3} W (cap {GLOBAL_CAP_W} W)"
    );
    println!(
        "coordinator kill: outage max {outage_max_sum_w:.3} W, {degraded_entries} degraded \
         entries, {replayed_entries} entries replayed, re-converged in {reconverge_ms} ms"
    );
    println!(
        "partition: {blackholed} frames blackholed, cap decayed {last_grant_w:.3} -> \
         {degraded_min_cap_w:.3} W, recovered in {recover_ms} ms"
    );
    println!(
        "shard kill: {} W encumbered, survivors enforce {survivor_sum_w:.3} W, \
         {} expirations",
        stats.encumbered_w, final_stats.expirations
    );

    let out = BenchFleet {
        experiment: "BENCH_fleet".into(),
        seed: acs_bench::EXPERIMENT_SEED,
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
    };
    let path = acs_bench::write_result("BENCH_fleet", &out);
    println!("wrote {}", path.display());
    let _ = std::fs::remove_dir_all(&scratch);
}
