//! Tier-1 gate: the acceptance criterion for the selection server.
//!
//! One seeded session of 1000 requests at seed 7 (`acs loadgen --requests
//! 1000 --seed 7`) against a local server must be answered without a
//! typed error or a dropped connection, and replaying it must produce
//! **byte-identical** replies — including the replay, which runs entirely
//! against a warm profile cache. That last part is the
//! determinism-under-concurrency contract of DESIGN.md §11: responses
//! never leak cache state, wall-clock time, or session identity.

use acs::prelude::*;
use acs::serve::{ServeConfig, Server};
use acs_bench::served_stream;

#[test]
fn loadgen_seed7_replays_to_byte_identical_logs() {
    // Train on the full suite at the experiment seed, as `acs serve` does.
    let model =
        acs::core::train_on_suite(&Machine::new(2014), usize::MAX).expect("training succeeds");
    let server = Server::spawn(ServeConfig::default(), model).expect("ephemeral bind succeeds");

    let first = served_stream(&server.addr, 1000, 7).expect("first run completes");
    assert_eq!(first.len(), 1000, "one reply per request");

    // Replay on the same (now cache-warm) server — once the first run's
    // session has left the arbiter: it leaves after its `Bye` is answered,
    // and a connection is accepted at once, so a replay started straight
    // away could join as the second node of two and select under half
    // the cap.
    let drained = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.handle.active_sessions() != 0 {
        assert!(std::time::Instant::now() < drained, "the first run's session never left");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let second = served_stream(&server.addr, 1000, 7).expect("replay completes");

    // Both runs answered all 1000 requests, so they line up reply by reply.
    if let Some(at) = first.iter().zip(&second).position(|(a, b)| a != b) {
        panic!("replay of seed 7 diverged at reply {at}: {} then {}", first[at], second[at]);
    }

    server.stop();
}
