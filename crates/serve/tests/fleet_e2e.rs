//! Fleet end-to-end tests: real shard servers leasing their power caps
//! from a real coordinator over TCP, with the failure modes the lease
//! protocol exists for — a SIGKILLed coordinator restarting from its
//! journal, a SIGKILLed shard decaying to its floor encumbrance, a killed
//! shard's session replaying its idempotency keys on a survivor while the
//! shard comes back under its old id, and a network partition (injected
//! by the chaos proxy) driving a shard into degraded mode and back out.
//!
//! The invariant checked throughout, at every sampled instant: the sum of
//! the caps the shards actually enforce never exceeds the coordinator's
//! global cap. Crashes are in-process (`simulate_crash`), mirroring
//! `recovery_e2e.rs`; `crates/cli/tests/sigkill.rs` SIGKILLs a real
//! `acs coordinator` process.

use acs_core::{train_on_suite, TrainedModel};
use acs_serve::{
    ArbiterPolicy, ChaosPlan, ChaosProxy, Client, Coordinator, CoordinatorConfig, Request,
    Response, ServeConfig, Server, ServerHandle,
};
use acs_sim::{FamilyId, Machine, SplitMix64};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn model() -> TrainedModel {
    static MODEL: OnceLock<TrainedModel> = OnceLock::new();
    MODEL
        .get_or_init(|| train_on_suite(&Machine::new(2014), 16).expect("training succeeds"))
        .clone()
}

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acs-fleet-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const GLOBAL_CAP_W: f64 = 90.0;
const FLOOR_W: f64 = 2.0;

fn coordinator_config(journal: Option<PathBuf>) -> CoordinatorConfig {
    CoordinatorConfig {
        host: "127.0.0.1".into(),
        port: 0,
        global_cap_w: GLOBAL_CAP_W,
        policy: ArbiterPolicy::DemandProportional,
        ttl_ticks: 20,
        tick_ms: 25, // TTL = 500 ms of silence
        floor_w: FLOOR_W,
        evict_after_ticks: 0,
        journal,
        journal_sync: false,
    }
}

/// A shard of `family` demanding 60 W, leasing from `coordinator`.
fn shard_config(family: FamilyId, coordinator: &str) -> ServeConfig {
    ServeConfig {
        family,
        global_cap_w: 60.0,
        policy: ArbiterPolicy::EqualShare,
        coordinator: Some(coordinator.to_string()),
        lease_floor_w: FLOOR_W,
        renew_ms: 25,
        ..ServeConfig::default()
    }
}

/// Poll `check` until it holds or `timeout` passes.
fn wait_until(timeout: Duration, mut check: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if check() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn fleet_cap_w(shards: &[ServerHandle]) -> f64 {
    shards.iter().map(|s| s.stats().lease_budget_w).sum()
}

#[test]
fn three_shards_converge_to_the_global_cap_without_ever_exceeding_it() {
    let coord = Coordinator::spawn(coordinator_config(None)).unwrap();
    let shards: Vec<_> = (0..3)
        .map(|_| Server::spawn(shard_config(FamilyId::Trinity, &coord.addr), model()).unwrap())
        .collect();
    let handles: Vec<ServerHandle> = shards.iter().map(|s| s.handle.clone()).collect();

    assert!(
        wait_until(Duration::from_secs(10), || {
            handles.iter().all(|h| h.stats().lease_state == "leased")
        }),
        "all shards lease within the deadline"
    );
    // Commit-on-contact ramping converges to the full pool at quiescence;
    // conservation holds at every instant on the way there.
    assert!(
        wait_until(Duration::from_secs(10), || {
            (fleet_cap_w(&handles) - GLOBAL_CAP_W).abs() < 1e-6
        }),
        "fleet converges to the global cap, got {} W",
        fleet_cap_w(&handles)
    );
    for _ in 0..20 {
        assert!(fleet_cap_w(&handles) <= GLOBAL_CAP_W + 1e-9);
        let stats = coord.handle.stats();
        assert_eq!(stats.overshoot_w, 0.0);
        assert!(stats.live_committed_w + stats.encumbered_w <= GLOBAL_CAP_W + 1e-9);
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = coord.handle.stats();
    assert_eq!(stats.live_leases, 3);
    assert!(stats.grants >= 3);
    assert!(stats.renews >= 3);

    // The lease shows up in the shard's own STATS frame: state, budget,
    // renew counters, and renew latency quantiles.
    let mut client = Client::connect(&shards[0].addr).unwrap();
    match client.call(&Request::Stats).unwrap() {
        Response::Stats(s) => {
            assert_eq!(s.lease_state, "leased");
            assert!(s.lease_budget_w > FLOOR_W && s.lease_budget_w <= GLOBAL_CAP_W);
            assert_eq!(s.degraded_entries, 0);
            assert!(s.lease_renews >= 1);
            assert!(s.p99_renew_latency_us >= s.p50_renew_latency_us);
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    drop(client);

    // Clean shard shutdown releases the leases; the pool refills.
    for shard in shards {
        shard.stop();
    }
    assert!(
        wait_until(Duration::from_secs(5), || coord.handle.stats().live_leases == 0),
        "released leases leave the table"
    );
    let stats = coord.handle.stats();
    assert_eq!(stats.live_committed_w + stats.encumbered_w, 0.0);
    coord.stop();
}

#[test]
fn heterogeneous_family_shards_share_one_budget_and_warm_their_own_caches() {
    // One coordinator arbitrating three shards that each serve a
    // *different* machine family. The fleet budget invariant is
    // family-blind — watts are watts — but every shard profiles kernels
    // on its own family's machine, so each keeps a private profile
    // cache and its selections reflect its own hardware.
    let coord = Coordinator::spawn(coordinator_config(None)).unwrap();
    let families = [FamilyId::BigCore, FamilyId::LowPower, FamilyId::AccelHybrid];
    let shards: Vec<_> = families
        .iter()
        .map(|&f| Server::spawn(shard_config(f, &coord.addr), model()).unwrap())
        .collect();
    let handles: Vec<ServerHandle> = shards.iter().map(|s| s.handle.clone()).collect();

    assert!(
        wait_until(Duration::from_secs(10), || {
            handles.iter().all(|h| h.stats().lease_state == "leased")
        }),
        "all family shards lease within the deadline"
    );
    assert!(
        wait_until(Duration::from_secs(10), || {
            (fleet_cap_w(&handles) - GLOBAL_CAP_W).abs() < 1e-6
        }),
        "the heterogeneous fleet converges to the global cap, got {} W",
        fleet_cap_w(&handles)
    );
    // Conservation at sampled instants, exactly as in the homogeneous
    // case: heterogeneity must not open any overshoot window.
    for _ in 0..20 {
        assert!(fleet_cap_w(&handles) <= GLOBAL_CAP_W + 1e-9);
        let stats = coord.handle.stats();
        assert_eq!(stats.overshoot_w, 0.0);
        assert!(stats.live_committed_w + stats.encumbered_w <= GLOBAL_CAP_W + 1e-9);
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(coord.handle.stats().live_leases, 3);

    // Drive the same kernel through every shard: the first Select is a
    // profile-cache miss (collected on that shard's family machine),
    // the repeats are hits. STATS reports the per-shard hit rate.
    let kernel_id = acs_kernels::all_kernel_instances()[0].id();
    let mut predicted = Vec::new();
    for shard in &shards {
        let mut client = Client::connect(&shard.addr).unwrap();
        let mut last = None;
        for _ in 0..4 {
            let select =
                Request::Select { kernel_id: kernel_id.clone(), deadline_ms: None, priority: 0 };
            match client.call(&select).unwrap() {
                Response::Selected(s) => {
                    assert_eq!(s.kernel_id, kernel_id);
                    assert!(s.predicted_power_w > 0.0 && s.predicted_perf > 0.0);
                    last = Some(s);
                }
                other => panic!("expected Selected, got {other:?}"),
            }
        }
        predicted.push(last.unwrap());
        match client.call(&Request::Stats).unwrap() {
            Response::Stats(s) => {
                assert_eq!(s.lease_state, "leased");
                assert_eq!(s.cache_misses, 1, "first Select profiles the kernel");
                assert_eq!(s.cache_hits, 3, "repeat Selects hit the shard's cache");
                assert!((s.cache_hit_rate - 0.75).abs() < 1e-12);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }
    // The shards are genuinely heterogeneous: the same kernel under the
    // same arbitration does not predict identically on every family.
    let all_same = predicted.iter().all(|s| {
        s.predicted_power_w == predicted[0].predicted_power_w
            && s.predicted_perf == predicted[0].predicted_perf
    });
    assert!(!all_same, "family machines must differentiate the predictions: {predicted:?}");

    for shard in shards {
        shard.stop();
    }
    assert!(
        wait_until(Duration::from_secs(5), || coord.handle.stats().live_leases == 0),
        "released leases leave the table"
    );
    coord.stop();
}

#[test]
fn coordinator_sigkill_and_restart_readopts_shards_without_double_granting() {
    let dir = scratch("failover");
    let journal = dir.join("coordinator.journal");
    let coord = Coordinator::spawn(CoordinatorConfig {
        journal: Some(journal.clone()),
        ..coordinator_config(None)
    })
    .unwrap();
    let addr = coord.addr.clone();
    let port: u16 = addr.rsplit(':').next().unwrap().parse().unwrap();

    let shards: Vec<_> = (0..2)
        .map(|_| Server::spawn(shard_config(FamilyId::Trinity, &coord.addr), model()).unwrap())
        .collect();
    let handles: Vec<ServerHandle> = shards.iter().map(|s| s.handle.clone()).collect();
    assert!(
        wait_until(Duration::from_secs(10), || {
            handles.iter().all(|h| h.stats().lease_state == "leased")
                && (fleet_cap_w(&handles) - GLOBAL_CAP_W).abs() < 1e-6
        }),
        "fleet converges before the crash"
    );

    // SIGKILL the coordinator. The shards keep running: every missed
    // renewal decays their caps, so the fleet sum can only fall.
    coord.handle.simulate_crash();
    coord.join();
    let mut max_during_outage: f64 = 0.0;
    for _ in 0..30 {
        max_during_outage = max_during_outage.max(fleet_cap_w(&handles));
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        max_during_outage <= GLOBAL_CAP_W + 1e-9,
        "fleet sum {} W exceeded the cap during the outage",
        max_during_outage
    );
    assert!(
        handles.iter().any(|h| h.stats().degraded_entries >= 1),
        "missed renewals drive shards into degraded mode"
    );

    // Restart on the same port from the journal: the replayed table holds
    // the same leases, so returning shards are re-adopted, not granted
    // fresh budget on top of the old (which would double-spend the pool).
    let coord = Coordinator::spawn(CoordinatorConfig {
        port,
        journal: Some(journal),
        ..coordinator_config(None)
    })
    .unwrap();
    assert_eq!(coord.addr, addr);
    let recovery = coord.handle.recovery().expect("journal replayed");
    assert!(recovery.replayed >= 2, "the grants were journaled");

    assert!(
        wait_until(Duration::from_secs(10), || {
            handles.iter().all(|h| h.stats().lease_state == "leased")
                && (fleet_cap_w(&handles) - GLOBAL_CAP_W).abs() < 1e-6
        }),
        "fleet re-converges after failover, got {} W across states {:?}",
        fleet_cap_w(&handles),
        handles.iter().map(|h| h.stats().lease_state).collect::<Vec<_>>()
    );
    let stats = coord.handle.stats();
    assert_eq!(stats.live_leases, 2);
    assert_eq!(stats.overshoot_w, 0.0);
    assert!(stats.journal_replayed >= 2);

    for shard in shards {
        shard.stop();
    }
    coord.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_sigkilled_shards_lease_expires_to_the_floor_and_frees_the_rest() {
    let coord = Coordinator::spawn(coordinator_config(None)).unwrap();
    let alive = Server::spawn(shard_config(FamilyId::Trinity, &coord.addr), model()).unwrap();
    let victim = Server::spawn(shard_config(FamilyId::Trinity, &coord.addr), model()).unwrap();

    assert!(
        wait_until(Duration::from_secs(10), || {
            alive.handle.stats().lease_state == "leased"
                && victim.handle.stats().lease_state == "leased"
        }),
        "both shards lease"
    );

    // SIGKILL the victim: no Release frame, its lease just goes silent.
    victim.handle.simulate_crash();
    victim.join();

    // After the TTL the coordinator expires the lease down to the floor
    // encumbrance and hands the freed watts to the survivor.
    assert!(
        wait_until(Duration::from_secs(10), || {
            let stats = coord.handle.stats();
            stats.live_leases == 1 && stats.encumbered_leases == 1
        }),
        "the silent lease expires"
    );
    let stats = coord.handle.stats();
    assert!(stats.encumbered_w <= FLOOR_W + 1e-9);
    assert!(stats.live_committed_w + stats.encumbered_w <= GLOBAL_CAP_W + 1e-9);
    assert!(
        wait_until(Duration::from_secs(10), || {
            alive.handle.stats().lease_budget_w >= GLOBAL_CAP_W - FLOOR_W - 1e-6
        }),
        "the survivor absorbs the freed budget, got {} W",
        alive.handle.stats().lease_budget_w
    );

    alive.stop();
    coord.stop();
}

#[test]
fn an_evicted_shards_floor_is_reclaimed_and_a_replacement_readmits() {
    // Same SIGKILL as above, but with the health-check horizon armed:
    // 5 ticks past expiry the coordinator *evicts* the silent lease,
    // reclaiming even the floor encumbrance the expiry path parks forever.
    let config = CoordinatorConfig { evict_after_ticks: 5, ..coordinator_config(None) };
    let coord = Coordinator::spawn(config).unwrap();
    let alive = Server::spawn(shard_config(FamilyId::Trinity, &coord.addr), model()).unwrap();
    let victim = Server::spawn(shard_config(FamilyId::Trinity, &coord.addr), model()).unwrap();

    assert!(
        wait_until(Duration::from_secs(10), || {
            alive.handle.stats().lease_state == "leased"
                && victim.handle.stats().lease_state == "leased"
        }),
        "both shards lease"
    );

    victim.handle.simulate_crash();
    victim.join();

    // TTL expires the lease, then the horizon evicts it outright: no
    // encumbered entry survives, and the coordinator counts the eviction.
    assert!(
        wait_until(Duration::from_secs(10), || {
            let stats = coord.handle.stats();
            stats.evicted_shards >= 1 && stats.encumbered_leases == 0 && stats.live_leases == 1
        }),
        "the silent lease is evicted, not floor-parked: {:?}",
        coord.handle.stats()
    );
    assert_eq!(coord.handle.stats().encumbered_w, 0.0, "eviction reclaims the floor watts");

    // The survivor absorbs the FULL global cap — not cap minus floor, the
    // ceiling the expiry-only path converges to.
    assert!(
        wait_until(Duration::from_secs(10), || {
            alive.handle.stats().lease_budget_w >= GLOBAL_CAP_W - 1e-6
        }),
        "the survivor absorbs the whole cap, got {} W",
        alive.handle.stats().lease_budget_w
    );

    // A replacement shard re-admits against the reclaimed pool as a fresh
    // grant — the evicted id is gone, not recycled.
    let replacement = Server::spawn(shard_config(FamilyId::Trinity, &coord.addr), model()).unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || {
            replacement.handle.stats().lease_state == "leased"
                && coord.handle.stats().live_leases == 2
        }),
        "the replacement re-admits"
    );
    let stats = coord.handle.stats();
    assert!(stats.live_committed_w + stats.encumbered_w <= GLOBAL_CAP_W + 1e-9);

    // The overload counters flow through the survivor's wire snapshot:
    // this shard was never shed, never missed, never evicted.
    let mut client = Client::connect(&alive.addr).unwrap();
    assert!(matches!(client.call(&Request::Hello).unwrap(), Response::Welcome { .. }));
    match client.call(&Request::Stats).unwrap() {
        Response::Stats(s) => {
            assert_eq!(s.sheds, 0);
            assert_eq!(s.deadline_misses, 0);
            assert_eq!(s.brownout_level, 0);
            assert_eq!(s.evicted_shards, 0, "the survivor's own lease was never evicted");
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    alive.stop();
    replacement.stop();
    coord.stop();
}

#[test]
fn a_killed_shards_session_replays_its_keys_on_a_survivor_and_the_shard_readopts_its_lease() {
    let coord = Coordinator::spawn(coordinator_config(None)).unwrap();
    let shard_with_id =
        |id| ServeConfig { shard_id: Some(id), ..shard_config(FamilyId::Trinity, &coord.addr) };
    let victim = Server::spawn(shard_with_id(0), model()).unwrap();
    let survivor = Server::spawn(shard_with_id(1), model()).unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || {
            victim.handle.stats().lease_state == "leased"
                && survivor.handle.stats().lease_state == "leased"
        }),
        "both shards lease"
    );

    // A session on shard 0 issues keyed runs, as a retrying client does:
    // one key per logical call, reused on every retry of that call.
    let kernel_id = acs_kernels::all_kernel_instances()[0].id();
    let mut keys = SplitMix64(11);
    let runs: Vec<Request> = (0..3)
        .map(|_| Request::Run {
            kernel_id: kernel_id.clone(),
            iterations: 2,
            idem: Some(keys.next_u64()),
            deadline_ms: None,
            priority: 0,
        })
        .collect();
    let mut session = Client::connect(&victim.addr).unwrap();
    assert!(matches!(session.call(&Request::Hello).unwrap(), Response::Welcome { .. }));
    for run in &runs {
        assert!(matches!(session.call(run).unwrap(), Response::Ran { .. }));
    }

    // Shard 0 dies mid-session; the session fails over to shard 1 and
    // replays its keys there. Shard 1 never saw them, so each one
    // executes — no replay of another shard's memo.
    victim.handle.simulate_crash();
    victim.join();
    drop(session);
    let mut session = Client::connect(&survivor.addr).unwrap();
    assert!(matches!(session.call(&Request::Hello).unwrap(), Response::Welcome { .. }));
    let mut last = String::new();
    for run in &runs {
        let reply = session.call(run).unwrap();
        assert!(matches!(reply, Response::Ran { .. }), "{reply:?}");
        last = serde_json::to_string(&reply).unwrap();
    }
    assert_eq!(survivor.handle.stats().idem_replays, 0, "a failed-over key executes once");
    // A retry of the last call on the survivor is answered from its memo.
    let retried = serde_json::to_string(&session.call(&runs[2]).unwrap()).unwrap();
    assert_eq!(retried, last, "a keyed retry replays identical bytes");
    assert_eq!(survivor.handle.stats().idem_replays, 1);

    // The silent lease expires to its floor encumbrance; shard 0 comes
    // back under its old id and the coordinator re-adopts that lease.
    assert!(
        wait_until(Duration::from_secs(10), || coord.handle.stats().encumbered_leases == 1),
        "the killed shard's lease expires: {:?}",
        coord.handle.stats()
    );
    let restarted = Server::spawn(shard_with_id(0), model()).unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || {
            restarted.handle.stats().lease_state == "leased"
                && coord.handle.stats().live_leases == 2
        }),
        "the restarted shard leases again: {:?}",
        coord.handle.stats()
    );
    // A fresh grant would leave the old lease encumbered beside the new one.
    let stats = coord.handle.stats();
    assert_eq!(stats.encumbered_leases, 0, "re-adopted, not granted afresh: {stats:?}");
    assert_eq!(stats.overshoot_w, 0.0);
    assert!(stats.live_committed_w + stats.encumbered_w <= GLOBAL_CAP_W + 1e-9);

    drop(session);
    survivor.stop();
    restarted.stop();
    coord.stop();
}

#[test]
fn a_partitioned_shard_degrades_below_its_last_grant_and_recovers() {
    let coord = Coordinator::spawn(coordinator_config(None)).unwrap();

    // The shard reaches its coordinator through the chaos proxy, which
    // can blackhole both directions while keeping connections open.
    let proxy =
        ChaosProxy::spawn("127.0.0.1:0", &coord.addr, ChaosPlan::quiet(7)).expect("proxy binds");

    let shard = Server::spawn(shard_config(FamilyId::Trinity, &proxy.addr), model()).unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || shard.handle.stats().lease_state == "leased"),
        "the shard leases through the quiet proxy"
    );
    let last_grant = shard.handle.stats().lease_budget_w;
    assert!(last_grant > FLOOR_W);

    // Partition for ~32 renewal intervals: every renewal inside the
    // window times out, so the cap decays — but never above the last
    // grant, and never below min(floor, last grant).
    proxy.handle.partition(800);
    assert!(
        wait_until(Duration::from_secs(5), || shard.handle.stats().lease_state == "degraded"),
        "missed renewals enter degraded mode"
    );
    assert!(
        wait_until(Duration::from_millis(600), || shard.handle.stats().lease_budget_w
            < last_grant - 1e-9),
        "the cap decays during the partition, still {} W",
        shard.handle.stats().lease_budget_w
    );
    let deadline = Instant::now() + Duration::from_millis(150);
    while Instant::now() < deadline {
        let cap = shard.handle.stats().lease_budget_w;
        assert!(cap <= last_grant + 1e-9, "degraded cap {cap} exceeds last grant {last_grant}");
        assert!(cap >= FLOOR_W.min(last_grant) - 1e-9, "degraded cap {cap} fell below the floor");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(shard.handle.stats().degraded_entries >= 1);

    // The window closes; renewals flow again and the lease recovers.
    assert!(
        wait_until(Duration::from_secs(10), || {
            shard.handle.stats().lease_state == "leased"
                && (shard.handle.stats().lease_budget_w - GLOBAL_CAP_W).abs() < 1e-6
        }),
        "the shard recovers after the partition, state {} cap {} W",
        shard.handle.stats().lease_state,
        shard.handle.stats().lease_budget_w
    );
    assert!(proxy.handle.stats().blackholed > 0, "the partition actually swallowed traffic");

    shard.stop();
    proxy.stop();
    coord.stop();
}
