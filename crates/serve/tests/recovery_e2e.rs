//! Kill-and-restart end-to-end tests for the recovery journal.
//!
//! The crash is in-process ([`ServerHandle::simulate_crash`]): a test
//! cannot SIGKILL itself, and `simulate_crash` reproduces exactly what a
//! SIGKILL leaves behind — sessions die without journaling `Leave`, so
//! the journal's tail still shows them admitted. (`crates/cli/tests/
//! sigkill.rs` does the real out-of-process SIGKILL; this file is the
//! deterministic gate.)
//!
//! The central assertion: a client that drove half its request stream,
//! lost the server, and finished the stream against a restarted server
//! with `--journal` sees **byte-identical** responses to a client that
//! drove the whole stream against one uninterrupted server.

use acs_core::{train_on_suite, TrainedModel};
use acs_serve::{
    read_frame_blocking, ArbiterPolicy, Client, Journal, JournalEntry, ReportFeedback, Request,
    Response, ServeConfig, ServeError, Server,
};
use acs_sim::Machine;
use std::io::Write;
use std::path::PathBuf;
use std::sync::OnceLock;

fn model() -> TrainedModel {
    static MODEL: OnceLock<TrainedModel> = OnceLock::new();
    MODEL
        .get_or_init(|| train_on_suite(&Machine::new(2014), 16).expect("training succeeds"))
        .clone()
}

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acs-recovery-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(journal: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        policy: ArbiterPolicy::DemandProportional,
        global_cap_w: 90.0,
        journal,
        ..ServeConfig::default()
    }
}

/// The deterministic request stream both runs drive: selections over six
/// kernels with a residual report after every other one. `Run` requests
/// are excluded on purpose — their responses depend on per-session
/// runtime noise state, which a reconnect legitimately resets; the
/// recovery contract covers *selections and budgets* (DESIGN.md §12).
fn request_stream() -> Vec<Request> {
    let ids: Vec<String> =
        acs_kernels::all_kernel_instances().iter().take(6).map(|k| k.id()).collect();
    let mut stream = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        stream.push(Request::Select { kernel_id: id.clone(), deadline_ms: None, priority: 0 });
        if i % 2 == 1 {
            stream.push(Request::Report { residual_w: 4.0 + i as f64, feedback: None });
        }
        if i % 3 == 2 {
            stream.push(Request::Select {
                kernel_id: ids[0].clone(),
                deadline_ms: None,
                priority: 0,
            }); // revisit: warm path
        }
    }
    stream
}

fn drive(client: &mut Client, requests: &[Request]) -> Vec<String> {
    requests.iter().map(|r| serde_json::to_string(&client.call(r).unwrap()).unwrap()).collect()
}

#[test]
fn kill_and_restart_resumes_byte_identical_selections() {
    let dir = scratch("byteident");
    let stream = request_stream();
    let half = stream.len() / 2;

    // Reference: the whole stream against one uninterrupted server.
    let reference = {
        let server = Server::spawn(config(None), model()).unwrap();
        let mut client = Client::connect(&server.addr).unwrap();
        let log = drive(&mut client, &stream);
        server.stop();
        log
    };

    // Interrupted: half the stream, then a crash that skips every clean
    // leave — the journal must end the way SIGKILL leaves it.
    let journal_path = dir.join("serve.journal");
    let mut log = {
        let server = Server::spawn(config(Some(journal_path.clone())), model()).unwrap();
        let mut client = Client::connect(&server.addr).unwrap();
        let log = drive(&mut client, &stream[..half]);
        server.handle.simulate_crash();
        server.join();
        log
    };

    // Restart on the same journal and finish the stream.
    let server = Server::spawn(config(Some(journal_path)), model()).unwrap();
    let recovery = server.handle.recovery().expect("a journaled server reports its recovery");
    assert!(recovery.replayed > 0, "the first run journaled entries");
    assert_eq!(recovery.orphaned_sessions.len(), 1, "the crashed session is an orphan");
    assert!(!recovery.warm_kernels.is_empty(), "phase-1 misses were journaled");
    assert_eq!(
        server.handle.budget_conservation_error_w(),
        0.0,
        "replay + orphan cleanup conserves the cap exactly"
    );

    let mut client = Client::connect(&server.addr).unwrap();
    // The restarted cache is warm: phase-1 kernels are hits, so the miss
    // counter stays at what warm-up recomputed.
    let warmed = recovery.warm_kernels.len() as u64;
    log.extend(drive(&mut client, &stream[half..]));
    match client.call(&Request::Stats).unwrap() {
        Response::Stats(s) => {
            assert!(
                s.cache_misses >= warmed,
                "warm-up itself recomputes ({} < {warmed})",
                s.cache_misses
            );
            assert!(
                s.cache_hits > 0,
                "phase-2 selects on phase-1 kernels must hit the re-warmed cache"
            );
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    server.stop();

    assert_eq!(log, reference, "post-recovery selections/budgets must be byte-identical");
}

#[test]
fn kill_and_restart_checks_adaptation_history_and_replays_rung_tallies() {
    let dir = scratch("adapt");
    let journal_path = dir.join("serve.journal");
    let ids: Vec<String> =
        acs_kernels::all_kernel_instances().iter().take(2).map(|k| k.id()).collect();

    // Phase 1: drive measured feedback hard enough to latch corrections
    // (4 on-model observations form the baseline, then 4 at 2× power /
    // 0.6× perf confirm bias and a cluster mismatch), plus a few `Run`s
    // for rung tallies. Then die like a SIGKILL.
    let pre_tallies = {
        let server = Server::spawn(config(Some(journal_path.clone())), model()).unwrap();
        let mut client = Client::connect(&server.addr).unwrap();
        client.call(&Request::Hello).unwrap();
        for id in &ids {
            let selection = match client
                .call(&Request::Select { kernel_id: id.clone(), deadline_ms: None, priority: 0 })
                .unwrap()
            {
                Response::Selected(s) => s,
                other => panic!("expected Selected, got {other:?}"),
            };
            for step in 0..8u32 {
                let (power_factor, perf_factor) = if step < 4 { (1.0, 1.0) } else { (2.0, 0.6) };
                let feedback = ReportFeedback {
                    kernel_id: selection.kernel_id.clone(),
                    config: selection.config,
                    measured_power_w: selection.predicted_power_w * power_factor,
                    measured_perf: selection.predicted_perf * perf_factor,
                };
                if let Response::Error { code, detail } = client
                    .call(&Request::Report { residual_w: 1.0, feedback: Some(feedback) })
                    .unwrap()
                {
                    panic!("feedback rejected: {code} {detail}")
                }
            }
        }
        for _ in 0..3 {
            client
                .call(&Request::Run {
                    kernel_id: ids[0].clone(),
                    iterations: 1,
                    idem: None,
                    deadline_ms: None,
                    priority: 0,
                })
                .unwrap();
        }
        let tallies = match client.call(&Request::Stats).unwrap() {
            Response::Stats(s) => s.degradation_tallies,
            other => panic!("expected Stats, got {other:?}"),
        };
        assert!(!tallies.is_empty(), "the runs never recorded a rung");
        assert!(server.handle.stats().adapt_observations > 0, "feedback never reached a predictor");
        server.handle.simulate_crash();
        server.join();
        tallies
    };

    // The crashed session's journal holds its observations and the
    // reclassifications they earned. A copy with the observation before
    // the first reclassification moved back onto its baseline is refused
    // at that reclassification.
    let (_, mut entries) = Journal::<JournalEntry>::open(&journal_path).unwrap();
    let at = entries.iter().position(|e| matches!(e, JournalEntry::Reclassify { .. }));
    let at = at.expect("the drift was journaled as a reclassification");
    let JournalEntry::AdaptObs { power_bits, perf_bits, .. } = &mut entries[at - 1] else {
        panic!("a reclassification follows its observation: {entries:?}");
    };
    (*power_bits, *perf_bits) = (1f64.to_bits(), 1f64.to_bits());
    let altered_path = dir.join("altered.journal");
    let (altered, _) = Journal::open(&altered_path).unwrap();
    for entry in &entries {
        altered.append(entry).unwrap();
    }
    drop(altered);
    match Server::bind(config(Some(altered_path)), model()) {
        Err(ServeError::Journal(detail)) => {
            assert!(detail.contains(&format!("diverged at entry {at}:")), "{detail}");
        }
        Ok(_) => panic!("bind accepted an unearned reclassification"),
        Err(other) => panic!("expected ServeError::Journal, got {other}"),
    }

    // Phase 2: restart on the journal as recorded. Replay accepts the
    // adaptation history and reconciles the rung tallies into the
    // restarted server's STATS.
    let server = Server::spawn(config(Some(journal_path)), model()).unwrap();
    let recovery = server.handle.recovery().expect("a journaled server reports its recovery");
    assert_eq!(recovery.orphaned_sessions, [1]);
    assert_eq!(recovery.rung_tallies, pre_tallies, "replay reconciles the rung tallies");

    let mut client = Client::connect(&server.addr).unwrap();
    match client.call(&Request::Stats).unwrap() {
        Response::Stats(s) => {
            assert_eq!(
                s.degradation_tallies, pre_tallies,
                "a restarted server's STATS must start from the journaled tallies"
            );
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    server.stop();
}

#[test]
fn restart_never_reuses_node_ids_and_conserves_budgets() {
    let dir = scratch("nodeids");
    let journal_path = dir.join("serve.journal");

    // Two sessions, both killed by the crash.
    {
        let server = Server::spawn(config(Some(journal_path.clone())), model()).unwrap();
        let mut a = Client::connect(&server.addr).unwrap();
        let mut b = Client::connect(&server.addr).unwrap();
        let id_of = |c: &mut Client| match c.call(&Request::Hello).unwrap() {
            Response::Welcome { node_id, .. } => node_id,
            other => panic!("expected Welcome, got {other:?}"),
        };
        assert_eq!((id_of(&mut a), id_of(&mut b)), (1, 2));
        server.handle.simulate_crash();
        server.join();
    }

    let server = Server::spawn(config(Some(journal_path)), model()).unwrap();
    let recovery = server.handle.recovery().unwrap();
    assert_eq!(recovery.orphaned_sessions, vec![1, 2]);
    assert_eq!(recovery.next_node, 3, "burned ids stay burned");

    let mut c = Client::connect(&server.addr).unwrap();
    match c.call(&Request::Hello).unwrap() {
        Response::Welcome { node_id, budget_w } => {
            assert_eq!(node_id, 3, "a restarted server never reuses a journaled node id");
            assert!((budget_w - 90.0).abs() < 1e-12, "sole live session owns the whole cap");
        }
        other => panic!("expected Welcome, got {other:?}"),
    }
    assert_eq!(server.handle.budget_conservation_error_w(), 0.0);
    server.stop();
}

/// Every restart journals its orphans' `Leave`s, so a shard that crashes
/// again and again with several sessions open starts every time.
#[test]
fn three_restarts_with_two_orphans_each_all_replay() {
    let dir = scratch("orphans");
    let journal_path = dir.join("serve.journal");
    let mut next = 1;
    for start in 0..4 {
        let server = Server::spawn(config(Some(journal_path.clone())), model())
            .unwrap_or_else(|e| panic!("start {start} refused its journal: {e}"));
        let recovery = server.handle.recovery().unwrap();
        let orphaned: Vec<u64> = if start == 0 { vec![] } else { vec![next - 2, next - 1] };
        assert_eq!(recovery.orphaned_sessions, orphaned, "start {start}");
        assert_eq!(recovery.next_node, next, "start {start}");
        // Two sessions, admitted in order, and both die with the crash.
        let mut clients: Vec<Client> =
            (0..2).map(|_| Client::connect(&server.addr).unwrap()).collect();
        for client in &mut clients {
            match client.call(&Request::Hello).unwrap() {
                Response::Welcome { node_id, .. } => assert_eq!(node_id, next, "start {start}"),
                other => panic!("expected Welcome, got {other:?}"),
            }
            next += 1;
        }
        assert_eq!(server.handle.budget_conservation_error_w(), 0.0);
        server.handle.simulate_crash();
        server.join();
    }
}

#[test]
fn divergent_journal_is_a_typed_bind_error() {
    let dir = scratch("divergent");
    let journal_path = dir.join("serve.journal");
    // A well-formed line whose recorded epoch cannot be recomputed: replay
    // must refuse with a typed error, not guess at budgets.
    let (journal, _) = Journal::open(&journal_path).unwrap();
    journal.append(&JournalEntry::Admit { node_id: 1, epoch: 42 }).unwrap();
    drop(journal);

    match Server::bind(config(Some(journal_path)), model()) {
        Err(ServeError::Journal(detail)) => {
            assert!(detail.contains("diverged"), "unhelpful detail: {detail}");
        }
        Ok(_) => panic!("bind accepted a divergent journal"),
        Err(other) => panic!("expected ServeError::Journal, got {other}"),
    }
}

/// `1e999` reads as +∞, which the journal would write as `null`: no `f64`
/// reads that back, so the next open would cut the entry and everything
/// after it as crash debris. The report is refused before the arbiter or the
/// journal sees it.
#[test]
fn an_infinite_residual_is_refused_and_the_journal_keeps_what_follows() {
    let dir = scratch("infresidual");
    let journal_path = dir.join("serve.journal");
    {
        let server = Server::spawn(config(Some(journal_path.clone())), model()).unwrap();
        let mut client = Client::connect(&server.addr).unwrap();
        assert!(matches!(client.call(&Request::Hello).unwrap(), Response::Welcome { .. }));
        let frame = br#"{"Report":{"residual_w":1e999}}"#;
        let stream = client.stream_mut();
        stream.write_all(&(frame.len() as u32).to_be_bytes()).unwrap();
        stream.write_all(frame).unwrap();
        match read_frame_blocking::<_, Response>(stream).unwrap() {
            Some(Response::Error { code, .. }) => assert_eq!(code, "bad-report"),
            other => panic!("expected a bad-report error, got {other:?}"),
        }
        // The session lives on, and its Leave is journaled after the refusal.
        match client.call(&Request::Hello).unwrap() {
            Response::Welcome { node_id, budget_w } => assert_eq!((node_id, budget_w), (1, 90.0)),
            other => panic!("expected Welcome, got {other:?}"),
        }
        assert!(matches!(client.call(&Request::Bye).unwrap(), Response::Bye));
        server.stop();
    }

    let (journal, entries) = Journal::<JournalEntry>::open(&journal_path).unwrap();
    assert_eq!(journal.truncated_tail_bytes(), 0, "{entries:?}");
    assert!(entries.iter().all(|e| !matches!(e, JournalEntry::Report { .. })), "{entries:?}");
    drop(journal);
    let server = Server::spawn(config(Some(journal_path)), model()).unwrap();
    let recovery = server.handle.recovery().unwrap();
    assert_eq!(recovery.orphaned_sessions, Vec::<u64>::new(), "the Leave replayed");
    assert_eq!(recovery.next_node, 2);
    server.stop();
}

#[test]
fn crash_during_phase_two_recovers_again() {
    // Two consecutive crashes against the same journal: recovery composes.
    let dir = scratch("twice");
    let journal_path = dir.join("serve.journal");
    let stream = request_stream();
    let third = stream.len() / 3;

    let reference = {
        let server = Server::spawn(config(None), model()).unwrap();
        let mut client = Client::connect(&server.addr).unwrap();
        let log = drive(&mut client, &stream);
        server.stop();
        log
    };

    let mut log = Vec::new();
    for (phase, range) in
        [&stream[..third], &stream[third..2 * third], &stream[2 * third..]].iter().enumerate()
    {
        let server = Server::spawn(config(Some(journal_path.clone())), model()).unwrap();
        let mut client = Client::connect(&server.addr).unwrap();
        log.extend(drive(&mut client, range));
        if phase < 2 {
            server.handle.simulate_crash();
        } else {
            server.handle.shutdown();
        }
        server.join();
    }
    assert_eq!(log, reference, "double recovery still replays byte-identically");
}
