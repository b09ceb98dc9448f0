//! The fleet over real TCP: three shard servers lease their power caps
//! from a coordinator through their lease threads, converge to the global
//! cap, report the lease in STATS, reconnect to a coordinator restarted
//! from its journal on the same port, and release the lease on a clean
//! stop. Every
//! failure the lease protocol exists for — coordinator and shard crashes,
//! partitions, eviction, a session failing over with its idempotency keys —
//! is stepped in-process on logical time by the `fleet` test module in
//! `crates/serve/src`; `crates/cli/tests/sigkill.rs` SIGKILLs a real
//! `acs coordinator` process.

use acs_core::{train_on_suite, TrainedModel};
use acs_serve::{
    ArbiterPolicy, Client, Coordinator, CoordinatorConfig, FleetConfig, Request, Response,
    ServeConfig, Server, ServerHandle,
};
use acs_sim::{Cap, FamilyId, Machine};
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn model() -> TrainedModel {
    static MODEL: OnceLock<TrainedModel> = OnceLock::new();
    MODEL
        .get_or_init(|| train_on_suite(&Machine::new(2014), 16).expect("training succeeds"))
        .clone()
}

const GLOBAL_CAP_W: f64 = 90.0;
const FLOOR_W: f64 = 2.0;

/// TTL = 500 ms of silence; leases journaled to `journal`.
fn coordinator_config(journal: &Path) -> CoordinatorConfig {
    CoordinatorConfig {
        global_cap_w: Cap::new(GLOBAL_CAP_W).unwrap(),
        floor_w: Cap::new(FLOOR_W).unwrap(),
        ttl_ms: 500,
        journal: Some(journal.to_path_buf()),
        ..Default::default()
    }
}

/// Shard `shard_id` of `family` demanding 60 W, leasing from `coordinator`.
fn shard_config(family: FamilyId, shard_id: u64, coordinator: &str) -> ServeConfig {
    let (coordinator, lease_floor_w) = (coordinator.to_string(), Cap::new(FLOOR_W).unwrap());
    ServeConfig {
        family,
        global_cap_w: 60.0,
        policy: ArbiterPolicy::EqualShare,
        fleet: Some(FleetConfig { coordinator, shard_id, lease_floor_w, renew_ms: 25 }),
        ..ServeConfig::default()
    }
}

/// Poll `check` until it holds or `timeout` passes.
fn wait_until(timeout: Duration, mut check: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !check() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}

fn fleet_cap_w(shards: &[ServerHandle]) -> f64 {
    shards.iter().map(|s| s.stats().lease_budget_w).sum()
}

#[test]
fn three_shards_converge_to_the_global_cap_without_ever_exceeding_it() {
    let journal =
        std::env::temp_dir().join(format!("acs-fleet-e2e-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let coord = Coordinator::spawn(coordinator_config(&journal)).unwrap();
    let shards: Vec<_> = (1..=3)
        .map(|id| Server::spawn(shard_config(FamilyId::Trinity, id, &coord.addr), model()).unwrap())
        .collect();
    let handles: Vec<ServerHandle> = shards.iter().map(|s| s.handle.clone()).collect();

    // Commit-on-contact ramping converges to the full pool at quiescence.
    assert!(
        wait_until(Duration::from_secs(10), || {
            handles.iter().all(|h| h.stats().lease_state == "leased")
                && (fleet_cap_w(&handles) - GLOBAL_CAP_W).abs() < 1e-6
        }),
        "fleet converges to the global cap, got {} W",
        fleet_cap_w(&handles)
    );
    let stats = coord.handle.stats();
    assert_eq!(stats.overshoot_w, 0.0);
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

    // Restart the coordinator from its journal on the port the shards were
    // given. Each lease thread misses on its dead connection, drops it,
    // reconnects and renews into the replayed table: the same three
    // leases, none granted afresh on top of another's encumbrance.
    let port = coord.addr.rsplit(':').next().unwrap().parse().unwrap();
    coord.stop();
    let coord = Coordinator::spawn(CoordinatorConfig { port, ..coordinator_config(&journal) })
        .expect("the shards' port is free again");
    assert!(coord.handle.recovery().expect("journal replayed").replayed >= 3);
    let renewed: Vec<u64> = handles.iter().map(|h| h.stats().lease_renews).collect();
    assert!(
        wait_until(Duration::from_secs(10), || {
            handles.iter().zip(&renewed).all(|(h, &before)| {
                let stats = h.stats();
                stats.lease_renews > before && stats.lease_state == "leased"
            }) && (fleet_cap_w(&handles) - GLOBAL_CAP_W).abs() < 1e-6
        }),
        "fleet re-converges on the restarted coordinator, got {} W",
        fleet_cap_w(&handles)
    );
    assert!(handles.iter().all(|h| h.stats().degraded_entries >= 1), "every shard missed");
    let stats = coord.handle.stats();
    assert_eq!((stats.live_leases, stats.encumbered_leases), (3, 0), "no lease granted twice");
    assert_eq!(stats.overshoot_w, 0.0);

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
    let _ = std::fs::remove_file(journal);
}
