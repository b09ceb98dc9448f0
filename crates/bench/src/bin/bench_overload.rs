//! Experiment A19: overload resilience under deadline-aware shedding.
//!
//! Phase 1 measures single-shard saturation with a closed loop (every
//! session waits for its response, so the server sets the pace). Phase 2
//! offers an *open-loop* load at 2× that rate against a brownout-enabled
//! server, with every request carrying a deadline — the configuration the
//! shed gate exists for. The gates the CI overload-smoke job relies on:
//!
//! - goodput (served within deadline, sheds excluded) stays at or above
//!   70% of the measured saturation throughput,
//! - the admitted p99 stays bounded (≤ 5× the request deadline) instead
//!   of growing with the backlog,
//! - nothing is dropped and nothing errors — overload answers are *typed*
//!   (`ShedDeadline`), never torn connections.
//!
//! `results/BENCH_overload.json` records the gated quantities only; 600
//! requests per phase decide a pass, they do not measure a latency (the
//! `benchmark/` package does that).

use acs_bench::loadgen::{run_loadgen, LoadgenOptions};
use acs_serve::{ServeConfig, Server};
use serde::Serialize;

/// Deadline attached to every phase-2 request, ms.
const DEADLINE_MS: u64 = 50;
/// Brownout p99 target for the phase-2 server, µs.
const BROWNOUT_US: u64 = 2_000;
/// Requests per phase.
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

fn main() {
    let model = acs_core::train_on_suite(&acs_bench::default_machine(), usize::MAX)
        .expect("full-suite training succeeds");

    // Phase 1: closed-loop saturation. Four sessions, no deadlines, no
    // brownout — the pre-overload byte path, setting the baseline.
    let server = Server::spawn(
        ServeConfig {
            seed: acs_bench::EXPERIMENT_SEED,
            max_sessions: 16,
            ..ServeConfig::default()
        },
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
    println!("saturation: {saturation_rps:>8.0} req/s");

    // Phase 2: open-loop at 2× saturation against a brownout-enabled
    // server, every request deadline-carrying. The offered load exceeds
    // what the closed loop could extract; the shed gate and the brownout
    // ladder keep the admitted latency bounded.
    let offered_rate = saturation_rps * 2.0;
    let server = Server::spawn(
        ServeConfig {
            seed: acs_bench::EXPERIMENT_SEED,
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
    println!(
        "overload:   {:>8.0} req/s offered  {:>8.0} req/s goodput ({:.0}% of saturation)",
        offered_rate,
        goodput_rps,
        goodput_ratio * 100.0
    );
    println!(
        "            sheds {}  deadline misses {}  brownout level {}",
        overload.sheds, stats.deadline_misses, stats.brownout_level
    );

    assert!(
        goodput_ratio >= 0.70,
        "goodput {goodput_rps:.0} req/s fell below 70% of saturation {saturation_rps:.0} req/s"
    );
    assert!(
        overload.p99_latency_us <= DEADLINE_MS * 1000 * 5,
        "admitted p99 {} µs is unbounded (deadline {DEADLINE_MS} ms)",
        overload.p99_latency_us
    );

    let out = BenchOverload {
        experiment: "BENCH_overload".into(),
        seed: acs_bench::EXPERIMENT_SEED,
        deadline_ms: DEADLINE_MS,
        brownout_us: BROWNOUT_US,
        saturation_rps,
        goodput_rps,
        goodput_ratio,
        sheds: overload.sheds,
        deadline_misses: stats.deadline_misses,
    };
    let path = acs_bench::write_result("BENCH_overload", &out);
    println!("wrote {}", path.display());
}
