//! End-to-end server tests over real sockets: handshake, selection,
//! batches, runs, arbiter reshuffles, admission control, typed bind
//! errors, hostile frames, and both shutdown paths.

use acs_core::{train_on_suite, TrainedModel};
use acs_serve::{
    ArbiterPolicy, Client, ReportFeedback, Request, Response, ServeConfig, ServeError, Server,
    MAX_BATCH,
};
use acs_sim::Machine;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

/// One small-but-real model shared by every test in this file.
fn model() -> TrainedModel {
    static MODEL: OnceLock<TrainedModel> = OnceLock::new();
    MODEL
        .get_or_init(|| train_on_suite(&Machine::new(2014), 16).expect("training succeeds"))
        .clone()
}

/// Poll `done` every millisecond; fail with `stuck` after ten seconds.
fn wait_until(stuck: &str, mut done: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(std::time::Instant::now() < deadline, "{stuck}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn kernel_ids(n: usize) -> Vec<String> {
    acs_kernels::all_kernel_instances().iter().take(n).map(|k| k.id()).collect()
}

#[test]
fn hello_select_run_stats_bye() {
    let server = Server::spawn(ServeConfig::default(), model()).unwrap();
    let mut client = Client::connect(&server.addr).unwrap();

    let hello = client.call(&Request::Hello).unwrap();
    let budget = match hello {
        Response::Welcome { node_id, budget_w } => {
            assert!(node_id >= 1);
            assert!((budget_w - 120.0).abs() < 1e-9, "sole node owns the cap, got {budget_w}");
            budget_w
        }
        other => panic!("expected Welcome, got {other:?}"),
    };

    let id = &kernel_ids(1)[0];
    match client
        .call(&Request::Select { kernel_id: id.clone(), deadline_ms: None, priority: 0 })
        .unwrap()
    {
        Response::Selected(s) => {
            assert_eq!(&s.kernel_id, id);
            assert_eq!(s.budget_w, budget);
            assert!(s.predicted_power_w > 0.0 && s.predicted_perf > 0.0);
        }
        other => panic!("expected Selected, got {other:?}"),
    }

    match client
        .call(&Request::Run {
            kernel_id: id.clone(),
            iterations: 3,
            idem: None,
            deadline_ms: None,
            priority: 0,
        })
        .unwrap()
    {
        Response::Ran { kernel_id, iterations, avg_power_w, total_time_s, tier, .. } => {
            assert_eq!(&kernel_id, id);
            assert_eq!(iterations, 3);
            assert!(avg_power_w > 0.0 && total_time_s > 0.0);
            assert_eq!(tier, "model", "healthy machine stays on the model rung");
        }
        other => panic!("expected Ran, got {other:?}"),
    }

    match client.call(&Request::Stats).unwrap() {
        Response::Stats(s) => {
            assert!(s.requests_total >= 3);
            assert_eq!(s.requests_by_kind["select"], 1);
            assert_eq!(s.requests_by_kind["run"], 1);
            assert_eq!(s.cache_misses, 1);
            assert_eq!(s.active_sessions, 1);
            assert_eq!(s.degradation_tallies["model"], 1);
            // Latencies record at ns granularity and round up to µs:
            // with requests served, the median can never report as 0
            // (the PR-8 reservoir bug, where sub-µs warm selects
            // truncated to 0 µs).
            assert!(s.p50_latency_us > 0, "served requests must yield a nonzero p50");
            assert!(s.p99_latency_us >= s.p50_latency_us);
            assert_eq!(s.protocol_errors, 0);
            // No coordinator configured: the lease side of the snapshot
            // reports standalone, with the configured cap and no journal.
            assert_eq!(s.lease_state, "standalone");
            assert_eq!(s.lease_budget_w, 120.0);
            assert_eq!(s.degraded_entries, 0);
            assert_eq!(s.lease_renews, 0);
            assert_eq!(s.p50_renew_latency_us, 0);
            assert_eq!(s.journal_appends, 0);
            assert_eq!(s.journal_replayed, 0);
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    assert!(matches!(client.call(&Request::Bye).unwrap(), Response::Bye));
    server.stop();
}

#[test]
fn retried_run_with_one_key_replays_byte_identical_bytes() {
    let server = Server::spawn(ServeConfig::default(), model()).unwrap();
    let ids = kernel_ids(2);

    // The wire-level contract a retrying client relies on: a retry
    // carrying the same idempotency key gets the memoized response back,
    // byte for byte, without a second execution.
    let mut client = Client::connect(&server.addr).unwrap();
    let request = Request::Run {
        kernel_id: ids[0].clone(),
        iterations: 3,
        idem: Some(5005),
        deadline_ms: None,
        priority: 0,
    };
    let first = serde_json::to_string(&client.call(&request).unwrap()).unwrap();
    let retried = serde_json::to_string(&client.call(&request).unwrap()).unwrap();
    assert_eq!(first, retried, "a keyed retry must replay identical bytes");
    assert_eq!(server.handle.stats().idem_replays, 1);

    // Without a key, the second execution runs again: the runtime's noise
    // state advanced, so the responses legitimately differ.
    let unkeyed = Request::Run {
        kernel_id: ids[1].clone(),
        iterations: 3,
        idem: None,
        deadline_ms: None,
        priority: 0,
    };
    let a = serde_json::to_string(&client.call(&unkeyed).unwrap()).unwrap();
    let b = serde_json::to_string(&client.call(&unkeyed).unwrap()).unwrap();
    assert_ne!(a, b, "unkeyed runs re-execute");
    assert_eq!(server.handle.stats().idem_replays, 1, "no key, no replay");

    server.stop();
}

#[test]
fn batch_matches_singles_and_oversized_batch_is_overloaded() {
    let server = Server::spawn(ServeConfig::default(), model()).unwrap();
    let mut client = Client::connect(&server.addr).unwrap();

    let ids = kernel_ids(4);
    // One `Batch`, checked element for element against the same `Select`s.
    let batch_matching_singles = |client: &mut Client| {
        let batch = match client
            .call(&Request::Batch { kernel_ids: ids.clone(), deadline_ms: None, priority: 0 })
            .unwrap()
        {
            Response::BatchSelected { selections } => selections,
            other => panic!("expected BatchSelected, got {other:?}"),
        };
        assert_eq!(batch.len(), ids.len());
        for (id, got) in ids.iter().zip(&batch) {
            match client
                .call(&Request::Select { kernel_id: id.clone(), deadline_ms: None, priority: 0 })
                .unwrap()
            {
                Response::Selected(single) => assert_eq!(&single, got),
                other => panic!("expected Selected, got {other:?}"),
            }
        }
        batch
    };
    let uncorrected = batch_matching_singles(&mut client);

    // Confirm a drift correction for the first batched kernel (4 on-model
    // observations form the baseline, 4 at 2× power / 0.6× perf confirm the
    // bias): the batch now takes the session's corrected walk.
    for step in 0..8u32 {
        let (power_factor, perf_factor) = if step < 4 { (1.0, 1.0) } else { (2.0, 0.6) };
        let feedback = ReportFeedback {
            kernel_id: ids[0].clone(),
            config: uncorrected[0].config,
            measured_power_w: uncorrected[0].predicted_power_w * power_factor,
            measured_perf: uncorrected[0].predicted_perf * perf_factor,
        };
        match client.call(&Request::Report { residual_w: 1.0, feedback: Some(feedback) }).unwrap() {
            Response::Budget { .. } => {}
            other => panic!("expected Budget, got {other:?}"),
        }
    }
    let corrected = batch_matching_singles(&mut client);
    assert_ne!(corrected[0], uncorrected[0], "the correction never reached the batch");
    assert_eq!(corrected[1..], uncorrected[1..], "only the drifted kernel is corrected");

    // The bound counts ids, not kernels: the same one will do.
    let kernel_ids = vec![ids[0].clone(); MAX_BATCH + 1];
    match client.call(&Request::Batch { kernel_ids, deadline_ms: None, priority: 0 }).unwrap() {
        Response::Overloaded { load, limit } => {
            assert_eq!((load, limit), (MAX_BATCH as u64 + 1, MAX_BATCH as u64));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    server.stop();
}

#[test]
fn a_run_of_unbounded_iterations_is_overloaded_and_the_session_stays_usable() {
    let server = Server::spawn(ServeConfig::default(), model()).unwrap();
    let mut client = Client::connect(&server.addr).unwrap();
    // Served, this frame would hold its session thread past any shutdown;
    // the timeout turns that into a failure instead of a hung test.
    client.stream_mut().set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let run = |iterations| Request::Run {
        kernel_id: kernel_ids(1)[0].clone(),
        iterations,
        idem: None,
        deadline_ms: None,
        priority: 0,
    };
    let limit = match client.call(&run(u64::MAX)).unwrap() {
        Response::Overloaded { load, limit } => {
            assert_eq!(load, u64::MAX);
            limit
        }
        other => panic!("expected Overloaded, got {other:?}"),
    };
    assert_eq!(server.handle.stats().overloaded, 1);
    match client.call(&run(limit)).unwrap() {
        Response::Ran { iterations, .. } => assert_eq!(iterations, limit, "the bound is served"),
        other => panic!("expected Ran, got {other:?}"),
    }
    assert_eq!(server.handle.stats().overloaded, 1);
    server.stop();
}

#[test]
fn unknown_kernel_is_a_typed_error_not_a_dropped_session() {
    let server = Server::spawn(ServeConfig::default(), model()).unwrap();
    let mut client = Client::connect(&server.addr).unwrap();
    match client
        .call(&Request::Select {
            kernel_id: "no/such/kernel".into(),
            deadline_ms: None,
            priority: 0,
        })
        .unwrap()
    {
        Response::Error { code, detail } => {
            assert_eq!(code, "unknown-kernel");
            assert!(detail.contains("no/such/kernel"));
        }
        other => panic!("expected Error, got {other:?}"),
    }
    // The session survives a domain error.
    assert!(matches!(client.call(&Request::Hello).unwrap(), Response::Welcome { .. }));
    server.stop();
}

#[test]
fn admission_control_rejects_with_typed_overloaded() {
    let server =
        Server::spawn(ServeConfig { max_sessions: 1, ..ServeConfig::default() }, model()).unwrap();
    let mut first = Client::connect(&server.addr).unwrap();
    assert!(matches!(first.call(&Request::Hello).unwrap(), Response::Welcome { .. }));

    // The second connection must be answered with Overloaded, not queued.
    let mut second = Client::connect(&server.addr).unwrap();
    let resp: Option<Response> = {
        let stream = second.stream_mut();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        acs_serve::read_frame_blocking(stream).unwrap()
    };
    match resp {
        Some(Response::Overloaded { load, limit }) => {
            assert_eq!(limit, 1);
            assert!(load > limit);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    server.stop();
}

#[test]
fn report_reshuffles_budgets_across_sessions() {
    let server = Server::spawn(
        ServeConfig {
            policy: ArbiterPolicy::DemandProportional,
            global_cap_w: 100.0,
            ..ServeConfig::default()
        },
        model(),
    )
    .unwrap();
    let mut a = Client::connect(&server.addr).unwrap();
    assert!(matches!(a.call(&Request::Hello).unwrap(), Response::Welcome { .. }));
    let mut b = Client::connect(&server.addr).unwrap();
    assert!(matches!(b.call(&Request::Hello).unwrap(), Response::Welcome { .. }));

    // a reports plenty of headroom (low demand), b reports none: the
    // arbiter should tilt the discretionary pool toward b.
    match a.call(&Request::Report { residual_w: 30.0, feedback: None }).unwrap() {
        Response::Budget { budget_w } => {
            assert!(budget_w < 50.0, "satisfied node keeps {budget_w} W of 100 W");
            // The demand floor: half an equal share is guaranteed.
            assert!(budget_w >= 25.0 - 1e-9);
        }
        other => panic!("expected Budget, got {other:?}"),
    }
    match b.call(&Request::Report { residual_w: 0.0, feedback: None }).unwrap() {
        Response::Budget { budget_w } => {
            assert!(budget_w > 50.0, "hungry node got only {budget_w} W of 100 W");
        }
        other => panic!("expected Budget, got {other:?}"),
    }

    // The reshuffle is visible in server metrics.
    match a.call(&Request::Stats).unwrap() {
        Response::Stats(s) => assert!(s.arbiter_rebalances >= 1),
        other => panic!("expected Stats, got {other:?}"),
    }

    server.stop();
}

#[test]
fn budget_reshuffle_rewrites_selection() {
    // One node: gets the whole 40 W cap. A second node joins: the budget
    // halves, and the same kernel must re-select under 20 W — the
    // Section III-C dynamic-constraint property, driven by the arbiter.
    let server =
        Server::spawn(ServeConfig { global_cap_w: 40.0, ..ServeConfig::default() }, model())
            .unwrap();
    let id = &kernel_ids(1)[0];

    let mut a = Client::connect(&server.addr).unwrap();
    let select = Request::Select { kernel_id: id.clone(), deadline_ms: None, priority: 0 };
    let mut selected = || match a.call(&select).unwrap() {
        Response::Selected(s) => s,
        other => panic!("expected Selected, got {other:?}"),
    };
    let generous = selected();
    assert!((generous.budget_w - 40.0).abs() < 1e-9);

    let mut b = Client::connect(&server.addr).unwrap();
    assert!(matches!(b.call(&Request::Hello).unwrap(), Response::Welcome { .. }));

    // b was admitted before its Welcome left, and a's next frame picks up
    // the halved budget before it is answered.
    let halved = selected();
    assert_eq!(halved.budget_w, 20.0);
    assert!(
        halved.predicted_power_w <= generous.predicted_power_w + 1e-9,
        "tighter budget cannot select more predicted power"
    );

    server.stop();
}

#[test]
fn eaddrinuse_is_a_typed_bind_error() {
    let held = Server::bind(ServeConfig::default(), model()).expect("first bind succeeds");
    let port = held.local_addr().port();
    match Server::bind(ServeConfig { port, ..ServeConfig::default() }, model()) {
        Err(ServeError::Bind { addr, detail }) => {
            assert!(addr.ends_with(&format!(":{port}")));
            assert!(!detail.is_empty());
        }
        Ok(_) => panic!("second bind of port {port} unexpectedly succeeded"),
        Err(other) => panic!("expected Bind error, got {other}"),
    }
}

#[test]
fn hostile_frame_gets_typed_error_and_counts() {
    let server = Server::spawn(ServeConfig::default(), model()).unwrap();
    let mut client = Client::connect(&server.addr).unwrap();

    // An oversized length prefix straight onto the wire.
    let stream = client.stream_mut();
    stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
    stream.flush().unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match acs_serve::read_frame_blocking::<_, Response>(stream) {
        Ok(Some(Response::Error { code, .. })) => assert_eq!(code, "oversized"),
        other => panic!("expected typed Error response, got {other:?}"),
    }
    assert!(server.handle.stats().protocol_errors >= 1);

    server.stop();
}

/// A well-framed, valid-UTF-8 body whose `\u` escape runs into a two-byte
/// character. The session thread must answer it like any other malformed
/// frame and then *leave*: a thread that dies instead keeps its share of the
/// cap and its admission slot for the life of the server.
#[test]
fn a_frame_that_ends_an_escape_inside_a_character_is_malformed_and_the_session_leaves() {
    let server = Server::spawn(ServeConfig::default(), model()).unwrap();
    let cap = ServeConfig::default().global_cap_w;
    let mut survivor = Client::connect(&server.addr).unwrap();
    match survivor.call(&Request::Hello).unwrap() {
        Response::Welcome { budget_w, .. } => assert_eq!(budget_w, cap),
        other => panic!("expected Welcome, got {other:?}"),
    }
    let active_before = match survivor.call(&Request::Stats).unwrap() {
        Response::Stats(s) => s.active_sessions,
        other => panic!("expected Stats, got {other:?}"),
    };
    assert_eq!(active_before, 1);

    let mut hostile = Client::connect(&server.addr).unwrap();
    match hostile.call(&Request::Hello).unwrap() {
        Response::Welcome { budget_w, .. } => assert_eq!(budget_w, cap / 2.0),
        other => panic!("expected Welcome, got {other:?}"),
    }
    let body = "{\"Select\":{\"kernel_id\":\"\\u123é\"}}";
    let stream = hostile.stream_mut();
    stream.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    stream.flush().unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match acs_serve::read_frame_blocking::<_, Response>(stream) {
        Ok(Some(Response::Error { code, .. })) => assert_eq!(code, "malformed"),
        other => panic!("expected typed Error response, got {other:?}"),
    }
    let closed = acs_serve::read_frame_blocking::<_, Response>(stream);
    assert!(matches!(closed, Ok(None)), "the connection closes after the error, got {closed:?}");

    // The session leaves after its last reply is written; wait for that.
    wait_until("the hostile session never left", || server.handle.active_sessions() == 1);
    match survivor.call(&Request::Stats).unwrap() {
        Response::Stats(s) => {
            assert_eq!(s.active_sessions, active_before);
            assert_eq!(s.protocol_errors, 1);
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    match survivor.call(&Request::Hello).unwrap() {
        Response::Welcome { budget_w, .. } => assert_eq!(budget_w, cap, "the share came back"),
        other => panic!("expected Welcome, got {other:?}"),
    }
    match survivor.call(&Request::Report { residual_w: 0.0, feedback: None }).unwrap() {
        Response::Budget { budget_w } => assert_eq!(budget_w, cap),
        other => panic!("expected Budget, got {other:?}"),
    }
    server.stop();
}

#[test]
fn expired_deadlines_shed_and_misses_surface_in_stats() {
    let server = Server::spawn(ServeConfig::default(), model()).unwrap();
    let mut client = Client::connect(&server.addr).unwrap();
    assert!(matches!(client.call(&Request::Hello).unwrap(), Response::Welcome { .. }));
    let id = &kernel_ids(1)[0];

    // A zero deadline has expired before service: the gate answers with
    // one typed frame before any selection work, even at brownout level 0
    // (the controller is disabled here — brownout_us stays 0).
    match client
        .call(&Request::Select { kernel_id: id.clone(), deadline_ms: Some(0), priority: 9 })
        .unwrap()
    {
        Response::ShedDeadline { deadline_ms, priority, brownout_level } => {
            assert_eq!(deadline_ms, 0);
            assert_eq!(priority, 9, "the shed frame echoes the request's priority");
            assert_eq!(brownout_level, 0);
        }
        other => panic!("expected ShedDeadline, got {other:?}"),
    }
    assert_eq!(server.handle.stats().sheds, 1);

    // A positive deadline is served below full brownout — and a run long
    // enough to blow through it records a miss for the served request.
    match client
        .call(&Request::Run {
            kernel_id: id.clone(),
            iterations: 16_384,
            idem: None,
            deadline_ms: Some(1),
            priority: 0,
        })
        .unwrap()
    {
        Response::Ran { iterations, .. } => assert_eq!(iterations, 16_384),
        other => panic!("expected Ran, got {other:?}"),
    }
    assert_eq!(server.handle.stats().sheds, 1, "a served request is not a shed");
    assert_eq!(server.handle.stats().deadline_misses, 1);

    // Requests without a deadline never enter the gate: the old-client
    // wire shape is untouched by the overload machinery.
    match client
        .call(&Request::Select { kernel_id: id.clone(), deadline_ms: None, priority: 0 })
        .unwrap()
    {
        Response::Selected(_) => {}
        other => panic!("expected Selected, got {other:?}"),
    }

    // All four overload counters flow through the wire snapshot.
    match client.call(&Request::Stats).unwrap() {
        Response::Stats(s) => {
            assert_eq!(s.sheds, 1);
            assert_eq!(s.deadline_misses, 1);
            assert_eq!(s.brownout_level, 0, "disabled controller never leaves level 0");
            assert_eq!(s.evicted_shards, 0, "standalone server observes no evictions");
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    server.stop();
}

#[test]
fn shutdown_poison_drains_the_server() {
    let server = Server::spawn(ServeConfig::default(), model()).unwrap();
    let mut bystander = Client::connect(&server.addr).unwrap();
    assert!(matches!(bystander.call(&Request::Hello).unwrap(), Response::Welcome { .. }));

    let mut killer = Client::connect(&server.addr).unwrap();
    assert!(matches!(killer.call(&Request::Shutdown).unwrap(), Response::ShuttingDown));
    assert!(server.handle.is_shutting_down());
    let addr = server.addr.clone();
    server.join();

    // The drained listener no longer accepts: either the connection is
    // refused outright or the new socket sees EOF/ECONNRESET on use.
    match Client::connect(&addr) {
        Err(_) => {}
        Ok(mut c) => match c.call(&Request::Hello) {
            Err(_) => {}
            Ok(resp) => panic!("server answered {resp:?} after shutdown"),
        },
    }
    // The bystander's session ended without an unsolicited frame.
    let eof: Option<Response> = {
        let stream = bystander.stream_mut();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        acs_serve::read_frame_blocking(stream).unwrap()
    };
    assert!(eof.is_none(), "session must close silently on shutdown, got {eof:?}");
}

/// Twenty thousand connect → `Hello` → `Bye` sessions, then `stop()`.
/// Each session after the first is handed to a parked connection thread
/// or starts one; a hand-off that is never taken, or a parked thread that
/// drain does not wake, hangs `stop()`, so the sessions run on a thread
/// of their own under a watchdog.
#[test]
fn twenty_thousand_short_sessions_then_stop() {
    let (done_tx, done) = std::sync::mpsc::channel();
    let sessions = std::thread::spawn(move || {
        let server = Server::spawn(ServeConfig::default(), model()).unwrap();
        for _ in 0..20_000 {
            let mut client = Client::connect(&server.addr).unwrap();
            assert!(matches!(client.call(&Request::Hello).unwrap(), Response::Welcome { .. }));
            assert!(matches!(client.call(&Request::Bye).unwrap(), Response::Bye));
        }
        server.stop();
        done_tx.send(()).unwrap();
    });
    match done.recv_timeout(Duration::from_secs(120)) {
        Ok(()) => sessions.join().unwrap(),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(sessions.join().unwrap_err())
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("20 000 sessions and a stop() took over 120 s: a lost wake-up")
        }
    }
}

/// `stop()` with threads parked and sessions open: parked threads wake by
/// disconnection, an idle session observes shutdown at its read timeout,
/// and a session that ends after drain has closed the parked list exits
/// instead of parking where nothing will wake it.
#[test]
fn stop_wakes_parked_threads_and_none_parks_after_the_close() {
    const SESSION_READ_TIMEOUT: Duration = Duration::from_millis(100);
    const SLACK: Duration = Duration::from_millis(400);
    let server = Server::spawn(ServeConfig::default(), model()).unwrap();
    let addr = server.addr.clone();
    let hello = || {
        let mut client = Client::connect(&addr).unwrap();
        assert!(matches!(client.call(&Request::Hello).unwrap(), Response::Welcome { .. }));
        client
    };
    let finished: Vec<Client> = (0..4).map(|_| hello()).collect();
    for mut client in finished {
        assert!(matches!(client.call(&Request::Bye).unwrap(), Response::Bye));
    }
    wait_until("a session that said Bye never left", || server.handle.active_sessions() == 0);
    let _idle = hello();
    let mut late = hello();

    let (stopped_tx, stopped) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let started = std::time::Instant::now();
        server.stop();
        let _ = stopped_tx.send(started.elapsed());
    });
    // The listening socket closes after the parked list does.
    wait_until("the listener never closed", || std::net::TcpStream::connect(&addr).is_err());
    // Its session ends now, with the list closed (or at its read timeout,
    // also after the close, if this thread stalled for that long).
    let _ = late.call(&Request::Bye);
    let took = stopped
        .recv_timeout(Duration::from_secs(10))
        .expect("stop() hung: a connection thread parked on the closed list");
    assert!(took < SESSION_READ_TIMEOUT + SLACK, "stop() took {took:?}");
}

/// The raw bytes of the next reply frame, length prefix included.
fn read_raw_reply(stream: &mut std::net::TcpStream) -> Vec<u8> {
    use std::io::Read;
    let mut frame = vec![0u8; 4];
    stream.read_exact(&mut frame).unwrap();
    let len = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    frame.resize(4 + len, 0);
    stream.read_exact(&mut frame[4..]).unwrap();
    frame
}

#[test]
fn a_pipelined_burst_is_answered_in_order_with_the_bytes_of_one_at_a_time() {
    let ids = kernel_ids(8);
    let requests: Vec<Vec<u8>> = (0..256)
        .map(|i| {
            let select = Request::Select {
                kernel_id: ids[i % ids.len()].clone(),
                deadline_ms: None,
                priority: 0,
            };
            let mut frame = Vec::new();
            acs_serve::write_frame(&mut frame, &select).unwrap();
            frame
        })
        .collect();

    // Each side on a fresh server, so both sessions are node 1 of 1.
    let one_at_a_time: Vec<Vec<u8>> = {
        let server = Server::spawn(ServeConfig::default(), model()).unwrap();
        let mut client = Client::connect(&server.addr).unwrap();
        let stream = client.stream_mut();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let replies = requests
            .iter()
            .map(|frame| {
                stream.write_all(frame).unwrap();
                read_raw_reply(stream)
            })
            .collect();
        server.stop();
        replies
    };

    let server = Server::spawn(ServeConfig::default(), model()).unwrap();
    let mut client = Client::connect(&server.addr).unwrap();
    let stream = client.stream_mut();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(&requests.concat()).unwrap();
    for (i, expected) in one_at_a_time.iter().enumerate() {
        assert_eq!(&read_raw_reply(stream), expected, "reply {i} of the burst");
    }
    assert_eq!(server.handle.stats().protocol_errors, 0);
    server.stop();
}

#[test]
fn an_idle_server_accepts_at_once() {
    // The accept loop waits on the listener's readiness; when it slept
    // between polls instead, a connection waited out the rest of a 5 ms
    // sleep and this median was 5 ms by construction.
    let server =
        Server::spawn(ServeConfig { max_sessions: 64, ..ServeConfig::default() }, model()).unwrap();
    let median_of_50 = || {
        let mut round_trips: Vec<Duration> = (0..50)
            .map(|_| {
                let started = std::time::Instant::now();
                let mut client = Client::connect(&server.addr).unwrap();
                assert!(matches!(client.call(&Request::Hello).unwrap(), Response::Welcome { .. }));
                started.elapsed()
            })
            .collect();
        round_trips.sort();
        round_trips[round_trips.len() / 2]
    };
    // The other tests of this file share the cores: a round that lost
    // them is run again, which a sleeping accept loop cannot profit from.
    let limit = Duration::from_millis(2);
    let mut medians = Vec::new();
    while medians.len() < 3 && medians.last().is_none_or(|m| *m >= limit) {
        medians.push(median_of_50());
    }
    assert!(
        medians.last().is_some_and(|m| *m < limit),
        "median connect + Hello per round of 50: {medians:?}"
    );
    server.stop();
}

/// One `FrameClient` call (20 ms read timeout) against a raw peer that reads
/// the request frame and then either closes or holds the socket open in
/// silence; returns the kind of i/o error the call reports.
fn call_mute_peer<Req, Resp>(close: bool, request: &Req) -> std::io::ErrorKind
where
    Req: serde::Serialize,
    Resp: serde::Deserialize + std::fmt::Debug,
{
    use std::io::Read;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (release, released) = std::sync::mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut header = [0u8; 4];
        stream.read_exact(&mut header).unwrap();
        let mut body = vec![0u8; u32::from_be_bytes(header) as usize];
        stream.read_exact(&mut body).unwrap();
        if !close {
            let _ = released.recv();
        }
    });
    let mut client = acs_serve::FrameClient::<Req, Resp>::connect(&addr).unwrap();
    client.stream_mut().set_read_timeout(Some(Duration::from_millis(20))).unwrap();
    let kind = match client.call(request) {
        Err(acs_serve::ProtocolError::Io(e)) => e.kind(),
        other => panic!("expected an i/o error, got {other:?}"),
    };
    drop(release);
    peer.join().unwrap();
    kind
}

#[test]
fn a_silent_peer_is_timed_out_and_a_closing_peer_is_unexpected_eof() {
    use acs_serve::{CoordRequest, CoordResponse};
    use std::io::ErrorKind::{TimedOut, UnexpectedEof};
    // `Client` and `CoordClient` are these two instantiations.
    assert_eq!(call_mute_peer::<Request, Response>(false, &Request::Hello), TimedOut);
    assert_eq!(
        call_mute_peer::<CoordRequest, CoordResponse>(false, &CoordRequest::Stats),
        TimedOut
    );
    assert_eq!(call_mute_peer::<Request, Response>(true, &Request::Hello), UnexpectedEof);
}

/// A raw frame for one request, exactly as the protocol writes it.
fn frame_bytes(request: &Request) -> Vec<u8> {
    let body = serde_json::to_string(request).unwrap().into_bytes();
    let mut bytes = (body.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(&body);
    bytes
}

/// The server must still be fully alive: a fresh session gets a Welcome.
fn assert_alive(addr: &str) {
    let mut probe = Client::connect(addr).expect("server still accepts");
    match probe.call(&Request::Hello) {
        Ok(Response::Welcome { .. }) => {}
        other => panic!("server unhealthy after chaos: {other:?}"),
    }
}

#[test]
fn torn_frame_at_every_offset_is_typed_or_a_clean_drop() {
    let server =
        Server::spawn(ServeConfig { max_sessions: 64, ..ServeConfig::default() }, model()).unwrap();
    let whole = frame_bytes(&Request::Select {
        kernel_id: acs_kernels::all_kernel_instances()[0].id(),
        deadline_ms: None,
        priority: 0,
    });

    for cut in 0..whole.len() {
        let mut stream = TcpStream::connect(&server.addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(&whole[..cut]).unwrap();
        stream.flush().unwrap();
        stream.shutdown(Shutdown::Write).unwrap();

        // The session must answer with a typed error frame (truncated
        // header/body) or close cleanly (an empty prefix is just EOF) —
        // and nothing else. A panic would surface as a connection reset
        // plus a dead accept loop, caught below by assert_alive.
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        match acs_serve::read_frame_blocking::<_, Response>(&mut stream) {
            Ok(None) => assert_eq!(cut, 0, "only an empty prefix may drop without a frame"),
            Ok(Some(Response::Error { code, .. })) => {
                assert_eq!(code, "truncated", "cut at {cut}/{}", whole.len());
            }
            other => panic!("cut at {cut}: expected typed error or EOF, got {other:?}"),
        }
        // No torn frame may poison the arbiter.
        assert_eq!(server.handle.budget_conservation_error_w(), 0.0, "cut at {cut}");
    }
    assert!(server.handle.stats().protocol_errors >= (whole.len() - 1) as u64);
    assert_alive(&server.addr);
    server.stop();
}

#[test]
fn corrupt_byte_at_every_offset_is_typed() {
    let server =
        Server::spawn(ServeConfig { max_sessions: 64, ..ServeConfig::default() }, model()).unwrap();
    let whole = frame_bytes(&Request::Select {
        kernel_id: acs_kernels::all_kernel_instances()[0].id(),
        deadline_ms: None,
        priority: 0,
    });

    // Flip every *payload* byte to 0xFF (never valid UTF-8), one at a time.
    for at in 4..whole.len() {
        let mut bytes = whole.clone();
        bytes[at] = 0xFF;
        let mut stream = TcpStream::connect(&server.addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(&bytes).unwrap();
        stream.flush().unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        match acs_serve::read_frame_blocking::<_, Response>(&mut stream) {
            Ok(Some(Response::Error { code, .. })) => {
                assert_eq!(code, "invalid-utf8", "corrupt byte at {at}");
            }
            other => panic!("corrupt byte at {at}: expected typed error, got {other:?}"),
        }
        assert_eq!(server.handle.budget_conservation_error_w(), 0.0, "corrupt byte at {at}");
    }
    assert_alive(&server.addr);
    server.stop();
}
