//! A seeded closed-loop load generator for the selection server.
//!
//! Each session is one closed loop: send a request, wait for the
//! response, send the next. The request stream is a pure function of
//! `(seed, session index, request index)` via a splitmix64 generator (the
//! vendored `rand` is an empty shim, and a hand-rolled generator keeps
//! replays bit-identical forever), so running the same options twice
//! produces the same request stream — and, for a single session, must
//! produce a byte-identical response log (the tier-1 gate in
//! `tests/serve_determinism.rs`).
//!
//! The response log excludes `Welcome` (carries the server-assigned node
//! id, which depends on how many sessions the server has ever accepted)
//! and `Stats` (carries wall-clock latencies); both are *session-identity*
//! and *observability* data, not selection results. Everything else —
//! selections, batch selections, run reports, budgets, typed errors — is
//! logged verbatim in request order.

use acs_serve::{metrics, Client, ReportFeedback, Request, Response, StatsSnapshot};
use acs_sim::noise::{SplitMix64, MIX_MUL};
use acs_sim::Configuration;
use std::collections::HashSet;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Load-generator options.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Server address (`host:port`).
    pub addr: String,
    /// Total requests across all sessions.
    pub requests: u64,
    /// Seed for the request stream.
    pub seed: u64,
    /// Concurrent closed-loop sessions.
    pub sessions: u64,
    /// Every Nth request is a `Run` (0 = never).
    pub run_every: u64,
    /// Every Nth request is a residual-headroom `Report` (0 = never).
    pub report_every: u64,
    /// Attach seeded measurement feedback to every `Report`, exercising
    /// the server's adaptation loop. The payload is a pure function of
    /// `(seed, session, index)` — same determinism contract as the rest
    /// of the stream.
    pub feedback: bool,
    /// Ask for a `Stats` snapshot after the last request.
    pub stats_at_end: bool,
    /// Send the `Shutdown` poison request once every session is done.
    pub shutdown_at_end: bool,
    /// Open-loop mode: requests are sent at seeded Poisson arrival times
    /// (rate `rate_rps`, split across sessions) instead of waiting for
    /// each response before drawing the next arrival — so the offered
    /// load can exceed capacity instead of self-throttling. Arrival
    /// times come from their own splitmix64 stream, so the *request
    /// contents* are identical to the closed loop's; only timing moves.
    pub open_loop: bool,
    /// Target aggregate arrival rate for open-loop mode, requests/s.
    pub rate_rps: f64,
    /// Attach this deadline to every `Select`/`Run` request (0 = none;
    /// the wire fields stay at their defaults and old servers are
    /// byte-unaffected).
    pub deadline_ms: u64,
    /// Priority class attached alongside `deadline_ms`.
    pub priority: u8,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        Self {
            addr: String::new(),
            requests: 1000,
            seed: 7,
            sessions: 1,
            run_every: 0,
            report_every: 0,
            feedback: false,
            stats_at_end: false,
            shutdown_at_end: false,
            open_loop: false,
            rate_rps: 0.0,
            deadline_ms: 0,
            priority: 0,
        }
    }
}

/// Aggregate results of one load-generator run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    /// Requests sent (excluding the final optional `Stats`/`Shutdown`).
    pub requests: u64,
    /// Sessions driven.
    pub sessions: u64,
    /// Request-stream seed.
    pub seed: u64,
    /// Responses that were typed errors or `Overloaded`.
    pub errors: u64,
    /// Responses that were `ShedDeadline` — deliberate load shedding,
    /// counted apart from errors.
    pub sheds: u64,
    /// Requests lost to connection/protocol failures.
    pub dropped: u64,
    /// Wall time for the whole run, s.
    pub elapsed_s: f64,
    /// Requests per second over the run.
    pub throughput_rps: f64,
    /// Median client-observed latency, µs.
    pub p50_latency_us: u64,
    /// 99th-percentile client-observed latency, µs.
    pub p99_latency_us: u64,
    /// `Select` requests that were the first sight of their kernel
    /// (cold path: sample runs + CART + regression on the server).
    pub cold_selects: u64,
    /// Repeat `Select` requests (warm path: memoized frontier walk).
    pub warm_selects: u64,
    /// Mean cold-path latency, µs.
    pub cold_mean_us: f64,
    /// Mean warm-path latency, µs.
    pub warm_mean_us: f64,
    /// Server stats snapshot, when requested.
    pub stats: Option<StatsSnapshot>,
}

/// One worker's share of the run.
struct SessionOutcome {
    log: String,
    latencies_us: Vec<u64>,
    cold_us: Vec<u64>,
    warm_us: Vec<u64>,
    errors: u64,
    sheds: u64,
    dropped: u64,
}

/// The open-loop arrival stream of one `(seed, session)` pair: a stream
/// of its own, so pacing never perturbs the request contents.
fn arrival_stream(seed: u64, session: u64) -> SplitMix64 {
    SplitMix64(seed ^ 0x5DEE_CE66_D1CE_CAFE ^ session.wrapping_mul(MIX_MUL))
}

/// The deadline fields the options attach to `Select`/`Run` requests.
fn deadline_fields(opts: &LoadgenOptions) -> (Option<u64>, u8) {
    if opts.deadline_ms > 0 {
        (Some(opts.deadline_ms), opts.priority)
    } else {
        (None, 0)
    }
}

/// The deterministic request for `(seed, session, index)`.
fn request_for(
    opts: &LoadgenOptions,
    kernel_ids: &[String],
    rng: &mut SplitMix64,
    index: u64,
) -> Request {
    let draw = rng.next_u64();
    if opts.report_every > 0 && index % opts.report_every == opts.report_every - 1 {
        // Residual headroom in [0, 40) W, deterministic from the stream.
        let residual_w = (draw % 4000) as f64 / 100.0;
        // With feedback on, attach a seeded measurement for a seeded
        // (kernel, config) pair: power in [15, 45) W, perf in [0.5, 8.5).
        // Everything comes out of the same draw, so the payload stays a
        // pure function of (seed, session, index).
        let feedback = opts.feedback.then(|| {
            let configs = Configuration::all();
            ReportFeedback {
                kernel_id: kernel_ids[((draw >> 8) % kernel_ids.len() as u64) as usize].clone(),
                config: configs[((draw >> 16) % configs.len() as u64) as usize],
                measured_power_w: 15.0 + ((draw >> 24) % 3000) as f64 / 100.0,
                measured_perf: 0.5 + ((draw >> 40) % 800) as f64 / 100.0,
            }
        });
        return Request::Report { residual_w, feedback };
    }
    let kernel_id = kernel_ids[(draw % kernel_ids.len() as u64) as usize].clone();
    let (deadline_ms, priority) = deadline_fields(opts);
    if opts.run_every > 0 && index % opts.run_every == opts.run_every - 1 {
        Request::Run { kernel_id, iterations: 1 + draw % 3, idem: None, deadline_ms, priority }
    } else {
        Request::Select { kernel_id, deadline_ms, priority }
    }
}

fn run_session(
    opts: &LoadgenOptions,
    session: u64,
    count: u64,
    kernel_ids: &[String],
    first_seen: &Mutex<HashSet<String>>,
) -> Result<SessionOutcome, String> {
    let mut client =
        Client::connect(&opts.addr).map_err(|e| format!("connect {}: {e}", opts.addr))?;
    let mut outcome = SessionOutcome {
        log: String::new(),
        latencies_us: Vec::with_capacity(count as usize),
        cold_us: Vec::new(),
        warm_us: Vec::new(),
        errors: 0,
        sheds: 0,
        dropped: 0,
    };
    // Handshake; `Welcome` is deliberately not logged (see module docs).
    if client.call(&Request::Hello).is_err() {
        outcome.dropped = count;
        return Ok(outcome);
    }
    let mut rng =
        SplitMix64(opts.seed ^ (session.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(session));
    // Open-loop pacing: seeded exponential inter-arrivals. When service
    // is slower than the arrival process the next send happens
    // immediately — the backlog is the point of an overload bench.
    let session_rate = if opts.open_loop && opts.rate_rps > 0.0 {
        Some(opts.rate_rps / opts.sessions.max(1) as f64)
    } else {
        None
    };
    let mut arrival_rng = arrival_stream(opts.seed, session);
    let mut next_arrival_s = 0.0f64;
    let loop_started = Instant::now();
    for index in 0..count {
        if let Some(rate) = session_rate {
            // Inverse-CDF exponential draw; (1 - u) never hits zero
            // because next_f64 is in [0, 1).
            next_arrival_s += -(1.0 - arrival_rng.next_f64()).ln() / rate;
            let due = Duration::from_secs_f64(next_arrival_s);
            let elapsed = loop_started.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
        }
        let request = request_for(opts, kernel_ids, &mut rng, index);
        let cold = match &request {
            Request::Select { kernel_id, .. } => {
                Some(first_seen.lock().expect("first_seen lock").insert(kernel_id.clone()))
            }
            _ => None,
        };
        let started = Instant::now();
        let response = match client.call(&request) {
            Ok(r) => r,
            Err(_) => {
                // The connection is gone; everything not yet sent is lost.
                outcome.dropped += count - index;
                return Ok(outcome);
            }
        };
        let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        outcome.latencies_us.push(us);
        match cold {
            Some(true) => outcome.cold_us.push(us),
            Some(false) => outcome.warm_us.push(us),
            None => {}
        }
        if matches!(response, Response::Error { .. } | Response::Overloaded { .. }) {
            outcome.errors += 1;
        }
        if matches!(response, Response::ShedDeadline { .. }) {
            outcome.sheds += 1;
        }
        outcome.log.push_str(&serde_json::to_string(&response).expect("serialize response"));
        outcome.log.push('\n');
    }
    let _ = client.call(&Request::Bye);
    Ok(outcome)
}

/// Drive the configured load and return the aggregate report plus the
/// concatenated (session-ordered) response log.
pub fn run_loadgen(opts: &LoadgenOptions) -> Result<(LoadgenReport, String), String> {
    if opts.sessions == 0 {
        return Err("loadgen needs at least one session".into());
    }
    let kernel_ids: Vec<String> =
        acs_kernels::all_kernel_instances().iter().map(|k| k.id()).collect();
    let first_seen = Mutex::new(HashSet::new());
    let base = opts.requests / opts.sessions;
    let extra = opts.requests % opts.sessions;

    let started = Instant::now();
    let outcomes: Vec<Result<SessionOutcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.sessions)
            .map(|session| {
                let count = base + u64::from(session < extra);
                let (kernel_ids, first_seen) = (&kernel_ids, &first_seen);
                scope.spawn(move || run_session(opts, session, count, kernel_ids, first_seen))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen session panicked")).collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();

    let mut log = String::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut cold_us: Vec<u64> = Vec::new();
    let mut warm_us: Vec<u64> = Vec::new();
    let (mut errors, mut sheds, mut dropped) = (0u64, 0u64, 0u64);
    for outcome in outcomes {
        let o = outcome?;
        log.push_str(&o.log);
        latencies.extend(o.latencies_us);
        cold_us.extend(o.cold_us);
        warm_us.extend(o.warm_us);
        errors += o.errors;
        sheds += o.sheds;
        dropped += o.dropped;
    }

    let stats = if opts.stats_at_end {
        let mut client = Client::connect(&opts.addr).map_err(|e| format!("stats connect: {e}"))?;
        match client.call(&Request::Stats).map_err(|e| format!("stats call: {e}"))? {
            Response::Stats(s) => Some(*s),
            other => return Err(format!("expected Stats response, got {other:?}")),
        }
    } else {
        None
    };
    if opts.shutdown_at_end {
        let mut client =
            Client::connect(&opts.addr).map_err(|e| format!("shutdown connect: {e}"))?;
        match client.call(&Request::Shutdown).map_err(|e| format!("shutdown call: {e}"))? {
            Response::ShuttingDown => {}
            other => return Err(format!("expected ShuttingDown response, got {other:?}")),
        }
    }

    latencies.sort_unstable();
    let quantile = |q: f64| if latencies.is_empty() { 0 } else { metrics::quantile(&latencies, q) };
    let mean = |v: &[u64]| -> f64 {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / v.len() as f64
        }
    };
    let report = LoadgenReport {
        requests: opts.requests,
        sessions: opts.sessions,
        seed: opts.seed,
        errors,
        sheds,
        dropped,
        elapsed_s,
        throughput_rps: if elapsed_s > 0.0 { opts.requests as f64 / elapsed_s } else { 0.0 },
        p50_latency_us: quantile(0.50),
        p99_latency_us: quantile(0.99),
        cold_selects: cold_us.len() as u64,
        warm_selects: warm_us.len() as u64,
        cold_mean_us: mean(&cold_us),
        warm_mean_us: mean(&warm_us),
        stats,
    };
    Ok((report, log))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_stream_is_deterministic() {
        let opts = LoadgenOptions { run_every: 5, report_every: 7, ..Default::default() };
        let ids: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
        let stream = |seed: u64| -> Vec<Request> {
            let mut rng = SplitMix64(seed);
            (0..40).map(|i| request_for(&opts, &ids, &mut rng, i)).collect()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8), "different seeds should differ somewhere");
        let s = stream(7);
        assert!(matches!(s[6], Request::Report { .. }), "index 6 is the 7th request");
        assert!(matches!(s[4], Request::Run { .. }));
        assert!(s.iter().any(|r| matches!(r, Request::Select { .. })));
    }

    #[test]
    fn feedback_payloads_are_pure_functions_of_the_stream() {
        let ids: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
        let stream = |feedback: bool| -> Vec<Request> {
            let opts = LoadgenOptions { report_every: 3, feedback, ..Default::default() };
            let mut rng = SplitMix64(opts.seed);
            (0..30).map(|i| request_for(&opts, &ids, &mut rng, i)).collect()
        };
        assert_eq!(stream(true), stream(true), "feedback mode must replay bit-identically");
        for (index, request) in stream(true).iter().enumerate() {
            if let Request::Report { feedback, .. } = request {
                let fb = feedback
                    .as_ref()
                    .unwrap_or_else(|| panic!("report at index {index} should carry feedback"));
                assert!(ids.contains(&fb.kernel_id));
                assert!(Configuration::all().contains(&fb.config));
                assert!((15.0..45.0).contains(&fb.measured_power_w));
                assert!((0.5..8.5).contains(&fb.measured_perf));
            }
        }
        for request in stream(false) {
            if let Request::Report { feedback, .. } = request {
                assert!(feedback.is_none(), "feedback off must send plain reports");
            }
        }
    }

    #[test]
    fn zero_sessions_is_an_error() {
        let opts = LoadgenOptions { sessions: 0, ..Default::default() };
        assert!(run_loadgen(&opts).is_err());
    }

    #[test]
    fn deadlines_attach_to_selects_and_runs_but_never_reports() {
        let ids: Vec<String> = vec!["a".into(), "b".into()];
        let opts = LoadgenOptions {
            run_every: 4,
            report_every: 5,
            deadline_ms: 250,
            priority: 9,
            ..Default::default()
        };
        assert_eq!(deadline_fields(&opts), (Some(250), 9));
        let mut rng = SplitMix64(opts.seed);
        for index in 0..40 {
            match request_for(&opts, &ids, &mut rng, index) {
                Request::Select { deadline_ms, priority, .. }
                | Request::Run { deadline_ms, priority, .. } => {
                    assert_eq!(deadline_ms, Some(250));
                    assert_eq!(priority, 9);
                }
                Request::Report { .. } => {}
                other => panic!("unexpected request {other:?}"),
            }
        }
        // deadline_ms 0 means "attach nothing": the wire stays at the
        // serde defaults even when a priority is configured.
        let off = LoadgenOptions { deadline_ms: 0, priority: 9, ..Default::default() };
        assert_eq!(deadline_fields(&off), (None, 0));
        let mut rng = SplitMix64(off.seed);
        match request_for(&off, &ids, &mut rng, 0) {
            Request::Select { deadline_ms, priority, .. } => {
                assert_eq!(deadline_ms, None);
                assert_eq!(priority, 0);
            }
            other => panic!("unexpected request {other:?}"),
        }
    }

    #[test]
    fn open_loop_pacing_never_perturbs_the_request_stream() {
        // The arrival process draws from its own rng stream; the request
        // contents for (seed, session, index) must be byte-identical with
        // pacing on and off.
        let ids: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
        let stream = |open_loop: bool| -> Vec<String> {
            let opts = LoadgenOptions {
                run_every: 5,
                report_every: 7,
                open_loop,
                rate_rps: if open_loop { 500.0 } else { 0.0 },
                ..Default::default()
            };
            let mut rng = SplitMix64(opts.seed);
            (0..60)
                .map(|i| serde_json::to_string(&request_for(&opts, &ids, &mut rng, i)).unwrap())
                .collect()
        };
        assert_eq!(stream(true), stream(false));
    }

    #[test]
    fn open_loop_arrivals_are_seeded_and_exponential() {
        // Replaying the arrival stream for one (seed, session) pair gives
        // the same schedule; a different session diverges; and the mean
        // inter-arrival approximates 1/rate.
        let arrivals = |seed: u64, session: u64, rate: f64, n: usize| -> Vec<f64> {
            let mut rng = arrival_stream(seed, session);
            let mut t = 0.0f64;
            (0..n)
                .map(|_| {
                    t += -(1.0 - rng.next_f64()).ln() / rate;
                    t
                })
                .collect()
        };
        assert_eq!(arrivals(7, 0, 100.0, 64), arrivals(7, 0, 100.0, 64));
        assert_ne!(arrivals(7, 0, 100.0, 64), arrivals(7, 1, 100.0, 64));
        let schedule = arrivals(7, 0, 100.0, 4096);
        for pair in schedule.windows(2) {
            assert!(pair[1] > pair[0], "arrival times strictly increase");
        }
        let mean_gap = schedule.last().unwrap() / 4096.0;
        assert!(
            (mean_gap - 0.01).abs() < 0.002,
            "mean inter-arrival {mean_gap} s should approximate 1/rate = 0.01 s"
        );
    }
}
