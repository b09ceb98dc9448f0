//! Tier-1 gate: the acceptance criterion for the selection server.
//!
//! `loadgen --requests 1000 --seed 7` against a local server must complete
//! with zero dropped and zero errored requests, and replaying the same
//! seed must produce a **byte-identical** response log — including the
//! second replay, which runs entirely against a warm profile cache. That
//! last part is the determinism-under-concurrency contract of DESIGN.md
//! §11: responses never leak cache state, wall-clock time, or session
//! identity.

use acs::prelude::*;
use acs::serve::{ServeConfig, Server};
use acs_bench::loadgen::{run_loadgen, LoadgenOptions};

#[test]
fn loadgen_seed7_replays_to_byte_identical_logs() {
    // Train on the full suite at the experiment seed, as `acs serve` does.
    let model =
        acs::core::train_on_suite(&Machine::new(2014), usize::MAX).expect("training succeeds");
    let server = Server::spawn(ServeConfig::default(), model).expect("ephemeral bind succeeds");

    // Mixed traffic over the default stream (1000 requests, seed 7, one
    // session): selections, periodic runs, periodic residual reports.
    let opts = LoadgenOptions {
        addr: server.addr.clone(),
        run_every: 11,
        report_every: 13,
        feedback: true,
        ..Default::default()
    };

    let (first_report, first_log) = run_loadgen(&opts).expect("first run completes");
    assert_eq!(first_report.errors, 0, "first run errored requests");
    assert_eq!(first_report.dropped, 0, "first run dropped requests");
    assert_eq!(first_log.lines().count(), 1000, "one logged response per request");

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
    let (second_report, second_log) = run_loadgen(&opts).expect("replay completes");
    assert_eq!(second_report.errors, 0, "replay errored requests");
    assert_eq!(second_report.dropped, 0, "replay dropped requests");

    assert!(
        first_log == second_log,
        "replay of seed 7 diverged at byte {}",
        first_log
            .bytes()
            .zip(second_log.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(first_log.len().min(second_log.len()))
    );

    server.stop();
}
