//! A real OS process, killed by SIGKILL and restarted on its journal
//! through the CLI. The in-process e2e suites stand in for the kill with
//! `simulate_crash`; these two tests send the signal to `acs serve` and
//! `acs coordinator` themselves and read the restart from the contract
//! lines the commands print (`recovered: …`, `listening on ADDR`).
//!
//! Every port is ephemeral and nothing sleeps: a test waits only on the
//! child's stdout.

#![cfg(unix)]

use acs_core::train_on_suite;
use acs_serve::{
    ArbiterPolicy, Client, CoordClient, CoordRequest, CoordResponse, Request, Response,
    ServeConfig, Server,
};
use acs_sim::{Machine, Watts};
use std::io::{BufRead, BufReader};
use std::os::unix::process::ExitStatusExt;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// A running `acs-cli`, killed when dropped so that a failed assertion
/// leaves no process behind.
struct Acs(Child);

impl Drop for Acs {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Acs {
    /// Start `acs-cli ARGS` and read its stdout up to `listening on ADDR`:
    /// the process, the address and the lines printed before it.
    fn start(args: &[&str]) -> (Self, String, Vec<String>) {
        let mut acs = Acs(Command::new(env!("CARGO_BIN_EXE_acs-cli"))
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .expect("acs-cli starts"));
        let stdout = acs.0.stdout.take().expect("stdout is piped");
        let mut printed = Vec::new();
        for line in BufReader::new(stdout).lines() {
            let line = line.expect("stdout is readable");
            match line.strip_prefix("listening on ") {
                Some(addr) => return (acs, addr.to_string(), printed),
                None => printed.push(line),
            }
        }
        panic!("acs-cli {args:?} exited before listening, after printing {printed:?}");
    }

    /// SIGKILL: no drain, no clean leave, no last journal entry.
    fn sigkill(mut self) {
        self.0.kill().expect("the child is alive to kill");
        let status = self.0.wait().expect("the child is reaped");
        assert_eq!(status.signal(), Some(9), "{status}");
    }
}

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acs-sigkill-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Selections over ten kernels, a residual report after every other one,
/// and revisits of earlier kernels. No `Run`: its replies depend on the
/// session's runtime noise, which a reconnect resets (DESIGN.md §12).
fn request_stream() -> Vec<Request> {
    let ids: Vec<String> =
        acs_kernels::all_kernel_instances().iter().take(10).map(|k| k.id()).collect();
    let select =
        |id: &String| Request::Select { kernel_id: id.clone(), deadline_ms: None, priority: 0 };
    let mut stream = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        stream.push(select(id));
        if i % 2 == 1 {
            stream.push(Request::Report { residual_w: 3.0 + i as f64, feedback: None });
        }
        if i % 3 == 2 {
            stream.push(select(&ids[i / 2]));
        }
    }
    stream
}

fn drive(client: &mut Client, requests: &[Request]) -> Vec<String> {
    requests.iter().map(|r| serde_json::to_string(&client.call(r).unwrap()).unwrap()).collect()
}

#[test]
fn a_sigkilled_serve_resumes_byte_identical_on_its_journal() {
    let dir = scratch("serve");
    let model = train_on_suite(&Machine::new(2014), 16).expect("training succeeds");
    let (model_path, journal) = (dir.join("model.json"), dir.join("serve.journal"));
    model.save(&model_path).unwrap();
    let serve = [
        "serve",
        "--model",
        model_path.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
        "--port",
        "0",
        "--policy",
        "demand",
        "--global-cap",
        "90",
    ];
    let stream = request_stream();
    let half = stream.len() / 2;

    // The whole stream against one uninterrupted in-process server with
    // the child's configuration.
    let reference = {
        let config = ServeConfig {
            global_cap_w: 90.0,
            policy: ArbiterPolicy::DemandProportional,
            ..ServeConfig::default()
        };
        let server = Server::spawn(config, model).unwrap();
        let log = drive(&mut Client::connect(&server.addr).unwrap(), &stream);
        server.stop();
        log
    };

    let (acs, addr, printed) = Acs::start(&serve);
    assert_eq!(printed, ["recovered: 0 entries replayed, 0 kernels warmed, 0 orphaned session(s)"]);
    // The connection stays open across the kill: closed first, the
    // session could leave (journaled) before the signal lands, and the
    // restart would find no orphan.
    let mut killed = Client::connect(&addr).unwrap();
    let mut log = drive(&mut killed, &stream[..half]);
    acs.sigkill();
    drop(killed);

    let (_acs, addr, printed) = Acs::start(&serve);
    assert_eq!(printed.len(), 1, "{printed:?}");
    assert!(
        printed[0].starts_with("recovered: ")
            && printed[0].ends_with(" kernels warmed, 1 orphaned session(s)"),
        "{printed:?}"
    );
    let mut client = Client::connect(&addr).unwrap();
    log.extend(drive(&mut client, &stream[half..]));
    assert_eq!(log, reference, "the replies across the kill differ from an uninterrupted run");
    match client.call(&Request::Stats).unwrap() {
        Response::Stats(s) => assert!(s.cache_hits > 0, "the restart's cache is cold: {s:?}"),
        other => panic!("expected Stats, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_sigkilled_coordinator_readopts_its_lease_from_the_journal() {
    let dir = scratch("coordinator");
    let journal = dir.join("coordinator.journal");
    let coordinator =
        ["coordinator", "--journal", journal.to_str().unwrap(), "--port", "0", "--ttl-ms", "50000"];
    let lease = CoordRequest::Lease { shard_id: 7, demand_w: Watts::new(10.0).unwrap() };
    let lease_id = |client: &mut CoordClient| match client.call(&lease).unwrap() {
        CoordResponse::Granted { lease_id, .. } => lease_id,
        other => panic!("expected a grant to shard 7, got {other:?}"),
    };

    let (acs, addr, printed) = Acs::start(&coordinator);
    assert_eq!(printed, ["recovered: 0 entries replayed, 0 live lease(s), 0 encumbered"]);
    let granted = lease_id(&mut CoordClient::connect(&addr).unwrap());
    acs.sigkill();

    let (_acs, addr, printed) = Acs::start(&coordinator);
    assert_eq!(printed, ["recovered: 1 entries replayed, 1 live lease(s), 0 encumbered"]);
    let mut client = CoordClient::connect(&addr).unwrap();
    assert_eq!(lease_id(&mut client), granted, "the restart granted a second lease");
    match client.call(&CoordRequest::Stats).unwrap() {
        CoordResponse::Stats(s) => {
            assert_eq!(s.live_leases, 1, "{s:?}");
            assert_eq!(s.overshoot_w, 0.0, "{s:?}");
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(dir);
}
