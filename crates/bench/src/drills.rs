//! The fleet chaos orchestrator behind `acs chaosfleet`: a coordinator
//! and N shard servers in-process, each shard behind its own chaos proxy,
//! driven through a seeded kill / restart / partition schedule.

use crate::client::{FleetClient, RetryPolicy};
use crate::default_machine;
use acs_serve::{
    ArbiterPolicy, ChaosPlan, ChaosProxy, ChaosProxyHandle, Coordinator, CoordinatorConfig,
    Request, Response, Running, ServeConfig, Server, ServerHandle,
};
use acs_sim::SplitMix64;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shard's degraded-mode reserve, and the coordinator's encumbrance
/// for a lease that went silent.
const FLOOR_W: f64 = 2.0;

/// Bind a port that was in use a moment ago (by a crashed in-process
/// shard): the OS may hold the address briefly, so retry for up to 10 s.
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
