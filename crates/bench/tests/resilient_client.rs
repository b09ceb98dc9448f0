//! End-to-end tests of the resilient client against a real server, with
//! and without the chaos proxy in the middle.

use acs_bench::client::{ClientError, ResilientClient, RetryPolicy};
use acs_core::{train_on_suite, TrainedModel};
use acs_serve::{ChaosPlan, ChaosProxy, Client, Request, Response, ServeConfig, Server};
use acs_sim::Machine;
use std::sync::OnceLock;
use std::time::Duration;

fn model() -> TrainedModel {
    static MODEL: OnceLock<TrainedModel> = OnceLock::new();
    MODEL
        .get_or_init(|| train_on_suite(&Machine::new(2014), 12).expect("training succeeds"))
        .clone()
}

#[test]
fn retried_run_with_one_key_replays_byte_identical_bytes() {
    let server = Server::spawn(ServeConfig::default(), model()).unwrap();
    let kernel_id = acs_kernels::all_kernel_instances()[0].id();

    // The wire-level contract the resilient client relies on: a retry
    // carrying the same idempotency key gets the memoized response back,
    // byte for byte, without a second execution.
    let mut raw = Client::connect(&server.addr).unwrap();
    let request =
        Request::Run { kernel_id, iterations: 3, idem: Some(5005), deadline_ms: None, priority: 0 };
    let first = serde_json::to_string(&raw.call(&request).unwrap()).unwrap();
    let retried = serde_json::to_string(&raw.call(&request).unwrap()).unwrap();
    assert_eq!(first, retried, "a keyed retry must replay identical bytes");
    assert_eq!(server.handle.stats().idem_replays, 1);

    // Without a key, the second execution runs again: the runtime's noise
    // state advanced, so the responses legitimately differ.
    let kernel_id = acs_kernels::all_kernel_instances()[1].id();
    let unkeyed =
        Request::Run { kernel_id, iterations: 3, idem: None, deadline_ms: None, priority: 0 };
    let a = serde_json::to_string(&raw.call(&unkeyed).unwrap()).unwrap();
    let b = serde_json::to_string(&raw.call(&unkeyed).unwrap()).unwrap();
    assert_ne!(a, b, "unkeyed runs re-execute");
    assert_eq!(server.handle.stats().idem_replays, 1, "no key, no replay");

    server.stop();
}

#[test]
fn resilient_client_finishes_a_run_sequence_under_chaos() {
    let server =
        Server::spawn(ServeConfig { max_sessions: 64, ..ServeConfig::default() }, model()).unwrap();
    // Disconnect-and-tear-heavy: roughly one call in four loses its
    // connection, so a bare client would fail the sequence with near
    // certainty. No corruption: a corrupted *request* is a typed
    // permanent failure, not a retriable transient.
    let plan = ChaosPlan {
        disconnect_p: 0.15,
        tear_p: 0.10,
        corrupt_p: 0.0,
        delay_p: 0.10,
        delay_ms: 2,
        dup_p: 0.0,
        ..ChaosPlan::quiet(11)
    };
    let proxy = ChaosProxy::spawn("127.0.0.1:0", &server.addr, plan).unwrap();

    let policy = RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(10),
        request_deadline: Duration::from_secs(10),
        breaker_threshold: 8, // chaos is expected; don't trip on it
        breaker_cooldown: Duration::from_millis(10),
    };
    let mut client = ResilientClient::new(&proxy.addr, policy).with_key_seed(42);

    let kernel_ids: Vec<String> =
        acs_kernels::all_kernel_instances().iter().take(4).map(|k| k.id()).collect();
    let mut completed = 0u32;
    for i in 0..24u32 {
        let kernel_id = &kernel_ids[i as usize % kernel_ids.len()];
        match client.run(kernel_id, 1 + u64::from(i % 2)) {
            Ok(Response::Ran { .. }) => completed += 1,
            Ok(other) => panic!("expected Ran, got {other:?}"),
            Err(e) => panic!("resilient client gave up at call {i}: {e}"),
        }
    }
    assert_eq!(completed, 24, "every logical call must complete under chaos");
    let stats = client.stats();
    assert!(stats.retries > 0, "the plan injects faults; some retries must have happened");
    assert!(stats.connects > 1, "failed attempts reconnect");
    assert!(proxy.handle.stats().faults() > 0, "the proxy injected nothing?");
    assert_eq!(server.handle.budget_conservation_error_w(), 0.0);

    proxy.stop();
    server.stop();
}

#[test]
fn breaker_fails_fast_once_the_server_is_gone() {
    let server = Server::spawn(ServeConfig::default(), model()).unwrap();
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_micros(200),
        max_backoff: Duration::from_millis(1),
        request_deadline: Duration::from_secs(2),
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(30), // long: stays open for the test
    };
    let mut client = ResilientClient::new(&server.addr, policy);
    let kernel_id = acs_kernels::all_kernel_instances()[0].id();
    assert!(matches!(client.run(&kernel_id, 1), Ok(Response::Ran { .. })));

    server.stop();

    // First call after death: real attempts, then Exhausted (2 failures
    // reach the threshold and trip the breaker).
    match client.run(&kernel_id, 1) {
        Err(ClientError::Exhausted { attempts: 2, .. }) => {}
        other => panic!("expected Exhausted, got {other:?}"),
    }
    // Second call: no attempts at all, just a fast CircuitOpen.
    let attempts_before = client.stats().attempts;
    match client.run(&kernel_id, 1) {
        Err(ClientError::CircuitOpen) => {}
        other => panic!("expected CircuitOpen, got {other:?}"),
    }
    assert_eq!(client.stats().attempts, attempts_before, "open circuit must not dial");
    assert!(client.stats().breaker_opens >= 1);
    assert_eq!(client.stats().breaker_fast_fails, 1);
}

#[test]
fn non_idempotent_requests_are_never_retried() {
    // Against a dead address every attempt fails; the attempt counter
    // then reveals the retry decision.
    let policy = RetryPolicy {
        max_attempts: 5,
        base_backoff: Duration::from_micros(100),
        max_backoff: Duration::from_micros(200),
        request_deadline: Duration::from_secs(2),
        breaker_threshold: 100, // keep the breaker out of this test
        breaker_cooldown: Duration::from_millis(1),
    };
    let mut client = ResilientClient::new("127.0.0.1:1", policy);

    match client.call(&Request::Report { residual_w: 1.0, feedback: None }) {
        Err(ClientError::NotRetriable { .. }) => {}
        other => panic!("expected NotRetriable, got {other:?}"),
    }
    assert_eq!(client.stats().attempts, 1, "a Report must get exactly one attempt");

    match client.call(&Request::Select { kernel_id: "k".into(), deadline_ms: None, priority: 0 }) {
        Err(ClientError::Exhausted { attempts: 5, .. }) => {}
        other => panic!("expected Exhausted, got {other:?}"),
    }
    assert_eq!(client.stats().attempts, 6, "an idempotent Select retries to the bound");
}
