//! Chaos hardening tests: every injected wire fault maps to a typed
//! protocol error or a clean session drop — never a panic, and never a
//! poisoned arbiter (budget conservation is asserted after every drop).
//!
//! Two layers: a deterministic sweep that tears one frame at *every*
//! byte offset straight against the server, and randomized runs through
//! the seeded [`ChaosProxy`] across many seeds.

use acs_core::{train_on_suite, TrainedModel};
use acs_serve::{
    ChaosPlan, ChaosProxy, Client, ReportFeedback, Request, Response, ServeConfig, Server,
    ServerHandle,
};
use acs_sim::{Configuration, Machine};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn model() -> TrainedModel {
    static MODEL: OnceLock<TrainedModel> = OnceLock::new();
    MODEL
        .get_or_init(|| train_on_suite(&Machine::new(2014), 12).expect("training succeeds"))
        .clone()
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

/// Wait until every session has left the arbiter. A test that compares a
/// second client's bytes against a first one's needs this between them:
/// the accept is immediate, so the second would otherwise join while the
/// first is still a node and select under half the cap.
fn wait_for_no_sessions(handle: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.active_sessions() != 0 {
        assert!(Instant::now() < deadline, "sessions never drained");
        std::thread::sleep(Duration::from_millis(1));
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

#[test]
fn quiet_proxy_is_byte_transparent() {
    let server = Server::spawn(ServeConfig::default(), model()).unwrap();
    let proxy = ChaosProxy::spawn("127.0.0.1:0", &server.addr, ChaosPlan::quiet(1)).unwrap();

    let kernel_id = acs_kernels::all_kernel_instances()[0].id();
    let requests = [
        Request::Select { kernel_id: kernel_id.clone(), deadline_ms: None, priority: 0 },
        Request::Run {
            kernel_id: kernel_id.clone(),
            iterations: 2,
            idem: Some(77),
            deadline_ms: None,
            priority: 0,
        },
        Request::Report { residual_w: 3.0, feedback: None },
        Request::Select { kernel_id, deadline_ms: None, priority: 0 },
    ];

    let via_proxy: Vec<String> = {
        let mut c = Client::connect(&proxy.addr).unwrap();
        requests.iter().map(|r| serde_json::to_string(&c.call(r).unwrap()).unwrap()).collect()
    };
    wait_for_no_sessions(&server.handle);
    let direct: Vec<String> = {
        let mut c = Client::connect(&server.addr).unwrap();
        requests.iter().map(|r| serde_json::to_string(&c.call(r).unwrap()).unwrap()).collect()
    };
    // The Run carries an idem key, so the second (direct) execution
    // replays the first's memoized bytes: the logs match exactly.
    assert_eq!(via_proxy, direct, "a quiet proxy must be invisible");

    let stats = proxy.handle.stats();
    assert_eq!(stats.faults(), 0);
    assert_eq!(stats.frames, requests.len() as u64);

    proxy.stop();
    server.stop();
}

#[test]
fn seeded_chaos_never_panics_and_never_poisons_the_arbiter() {
    let server =
        Server::spawn(ServeConfig { max_sessions: 64, ..ServeConfig::default() }, model()).unwrap();
    let kernel_ids: Vec<String> =
        acs_kernels::all_kernel_instances().iter().take(4).map(|k| k.id()).collect();
    let configs = Configuration::all();

    for seed in 0..10u64 {
        let plan = ChaosPlan {
            seed,
            disconnect_p: 0.10,
            tear_p: 0.10,
            corrupt_p: 0.10,
            delay_p: 0.05,
            delay_ms: 2,
            dup_p: 0.10,
            dribble_p: 0.05,
            ..ChaosPlan::quiet(seed)
        };
        let proxy = ChaosProxy::spawn("127.0.0.1:0", &server.addr, plan).unwrap();

        // Closed-loop sessions through the proxy. Any call may fail (the
        // proxy tears/drops at will) — the contract is that failures are
        // clean, the server stays alive, and the arbiter stays conserved.
        for conn in 0..6u64 {
            let Ok(mut client) = Client::connect(&proxy.addr) else { continue };
            let _ = client.stream_mut().set_read_timeout(Some(Duration::from_secs(5)));
            for i in 0..6u64 {
                let kernel_id = kernel_ids[(conn + i) as usize % kernel_ids.len()].clone();
                let request = match i % 3 {
                    0 => Request::Select { kernel_id, deadline_ms: None, priority: 0 },
                    1 => Request::Run {
                        kernel_id,
                        iterations: 1,
                        idem: Some(seed * 1000 + conn * 10 + i),
                        deadline_ms: None,
                        priority: 0,
                    },
                    // Measured feedback feeds the session's adaptation
                    // state, which a torn or corrupted frame must not
                    // poison either.
                    _ => Request::Report {
                        residual_w: (i * 3) as f64,
                        feedback: Some(ReportFeedback {
                            kernel_id,
                            config: configs[(seed * 7 + conn * 5 + i) as usize % configs.len()],
                            measured_power_w: 15.0 + (conn * 4 + i) as f64,
                            measured_perf: 0.5 + seed as f64,
                        }),
                    },
                };
                match client.call(&request) {
                    Ok(_) => {}
                    Err(_) => break, // injected fault: the drop must be clean
                }
            }
            // After every connection — dropped mid-batch or not — the
            // global cap is still split exactly.
            assert_eq!(
                server.handle.budget_conservation_error_w(),
                0.0,
                "conservation violated at seed {seed}, conn {conn}"
            );
        }

        let stats = proxy.stop().stats();
        assert!(stats.frames > 0, "seed {seed} drove no frames");
    }

    // Sessions the proxy killed must have left the arbiter; only the
    // probe below may remain. Overall: alive, conserved, typed.
    assert_alive(&server.addr);
    assert_eq!(server.handle.budget_conservation_error_w(), 0.0);
    assert!(server.handle.stats().adapt_observations > 0, "no feedback got through");
    server.stop();
}

#[test]
fn dribbled_frames_arrive_intact_at_every_length() {
    // A dribble-only plan slow-lorises every client frame: the proxy
    // forwards one byte per millisecond tick, so the server's blocking
    // reader sees every possible partial-frame boundary on the way to a
    // complete frame. Sweeping requests of different encoded lengths,
    // the dribbled responses must match direct responses byte-for-byte —
    // a slow sender is indistinguishable from a fast one.
    let server = Server::spawn(ServeConfig::default(), model()).unwrap();
    let plan = ChaosPlan { dribble_p: 1.0, ..ChaosPlan::quiet(5) };
    let proxy = ChaosProxy::spawn("127.0.0.1:0", &server.addr, plan).unwrap();

    let kernel_ids: Vec<String> =
        acs_kernels::all_kernel_instances().iter().take(3).map(|k| k.id()).collect();
    let mut requests = vec![Request::Hello];
    for (i, kernel_id) in kernel_ids.iter().enumerate() {
        requests.push(Request::Select {
            kernel_id: kernel_id.clone(),
            deadline_ms: None,
            priority: 0,
        });
        requests.push(Request::Run {
            kernel_id: kernel_id.clone(),
            iterations: 1 + i as u64,
            idem: Some(9000 + i as u64),
            deadline_ms: None,
            priority: 0,
        });
    }
    let via_proxy: Vec<String> = {
        let mut c = Client::connect(&proxy.addr).unwrap();
        requests.iter().map(|r| serde_json::to_string(&c.call(r).unwrap()).unwrap()).collect()
    };
    wait_for_no_sessions(&server.handle);
    let direct: Vec<String> = {
        let mut c = Client::connect(&server.addr).unwrap();
        requests.iter().map(|r| serde_json::to_string(&c.call(r).unwrap()).unwrap()).collect()
    };
    // Hello responses carry per-session node ids; everything downstream
    // (the keyed Runs replay their memos) must be identical.
    assert_eq!(via_proxy[1..], direct[1..], "dribbled frames must reassemble exactly");

    let stats = proxy.handle.stats();
    assert_eq!(stats.dribbled, requests.len() as u64, "every frame was dribbled");
    assert_eq!(stats.faults(), requests.len() as u64);
    assert_eq!(server.handle.stats().protocol_errors, 0, "no dribbled frame may tear");

    proxy.stop();
    server.stop();
}

#[test]
fn duplicated_frames_do_not_double_execute_keyed_runs() {
    // A dup-only plan: every frame has a 100% duplicate probability would
    // desync a closed-loop client, so inject on exactly one frame by
    // sending one keyed Run through a dup-heavy proxy and counting server
    // executions via the idempotency replay metric.
    let server = Server::spawn(ServeConfig::default(), model()).unwrap();
    let plan = ChaosPlan { dup_p: 1.0, ..ChaosPlan::quiet(3) };
    let proxy = ChaosProxy::spawn("127.0.0.1:0", &server.addr, plan).unwrap();

    let kernel_id = acs_kernels::all_kernel_instances()[0].id();
    let mut client = Client::connect(&proxy.addr).unwrap();
    let first = client
        .call(&Request::Run {
            kernel_id,
            iterations: 2,
            idem: Some(404),
            deadline_ms: None,
            priority: 0,
        })
        .expect("the first response of the duplicated pair");
    assert!(matches!(first, Response::Ran { .. }));
    // The server saw the frame twice; the duplicate was answered from the
    // idempotency memo, not executed again.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.handle.stats().idem_replays == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        server.handle.stats().idem_replays,
        1,
        "the duplicated Run must replay, not re-execute"
    );
    assert_eq!(proxy.handle.stats().duplicated, 1);

    proxy.stop();
    server.stop();
}
