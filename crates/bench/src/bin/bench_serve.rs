//! Experiment A13: serve-path smoke + throughput benchmark.
//!
//! Starts an in-process selection server per arbiter policy, drives 200
//! seeded closed-loop requests at each (with periodic `Run` and `Report`
//! traffic), and records throughput, latency quantiles, and the cold/warm
//! split in `results/BENCH_serve.json`. Asserts the invariants the CI
//! smoke job relies on: zero dropped requests, zero protocol errors,
//! clean shutdown, demand-policy rebalances observed, and the warm
//! (memoized) path beating the cold (CART + regression) path.

use acs_bench::loadgen::{run_loadgen, LoadgenOptions};
use acs_serve::{ArbiterPolicy, ServeConfig, Server};
use serde::Serialize;

#[derive(Serialize)]
struct PolicyResult {
    policy: String,
    sessions: u64,
    report: acs_bench::loadgen::LoadgenReport,
}

#[derive(Serialize)]
struct BenchServe {
    experiment: String,
    seed: u64,
    requests_per_policy: u64,
    policies: Vec<PolicyResult>,
}

fn drive(policy: ArbiterPolicy, sessions: u64, model: acs_core::TrainedModel) -> PolicyResult {
    let server = Server::spawn(
        ServeConfig {
            policy,
            seed: acs_bench::EXPERIMENT_SEED,
            max_sessions: sessions as usize + 2,
            ..ServeConfig::default()
        },
        model,
    )
    .expect("bind ephemeral port");

    let opts = LoadgenOptions {
        addr: server.addr.clone(),
        requests: 200,
        sessions,
        run_every: 10,
        report_every: 7,
        stats_at_end: true,
        shutdown_at_end: true,
        ..Default::default()
    };
    let (report, _log) = run_loadgen(&opts).expect("loadgen completes");
    let handle = server.join();

    assert_eq!(report.dropped, 0, "{policy:?}: dropped requests");
    assert_eq!(report.errors, 0, "{policy:?}: errored requests");
    let stats = report.stats.as_ref().expect("stats requested");
    assert_eq!(stats.protocol_errors, 0, "{policy:?}: protocol errors");
    assert!(handle.is_shutting_down(), "{policy:?}: no clean shutdown");
    if policy == ArbiterPolicy::DemandProportional && sessions > 1 {
        assert!(stats.arbiter_rebalances > 0, "demand policy with residual reports must rebalance");
    }
    assert!(
        report.warm_selects > 0 && report.cold_selects > 0,
        "{policy:?}: both paths must be exercised (cold {}, warm {})",
        report.cold_selects,
        report.warm_selects
    );
    assert!(
        report.warm_mean_us < report.cold_mean_us,
        "{policy:?}: memoized path ({:.0} µs) must beat cold path ({:.0} µs)",
        report.warm_mean_us,
        report.cold_mean_us
    );

    PolicyResult { policy: policy.name().to_string(), sessions, report }
}

fn main() {
    let model = acs_core::train_on_suite(&acs_bench::default_machine(), usize::MAX)
        .expect("full-suite training succeeds");
    let policies = vec![
        drive(ArbiterPolicy::EqualShare, 1, model.clone()),
        drive(ArbiterPolicy::DemandProportional, 3, model),
    ];
    for p in &policies {
        println!(
            "{:<7} sessions={} {:>7.0} req/s  p50 {:>5} µs  p99 {:>5} µs  cold {:>6.0} µs  warm {:>5.0} µs  rebalances {}",
            p.policy,
            p.sessions,
            p.report.throughput_rps,
            p.report.p50_latency_us,
            p.report.p99_latency_us,
            p.report.cold_mean_us,
            p.report.warm_mean_us,
            p.report.stats.as_ref().map(|s| s.arbiter_rebalances).unwrap_or(0),
        );
    }
    let out = BenchServe {
        experiment: "BENCH_serve".into(),
        seed: acs_bench::EXPERIMENT_SEED,
        requests_per_policy: 200,
        policies,
    };
    let path = acs_bench::write_result("BENCH_serve", &out);
    println!("wrote {}", path.display());
}
