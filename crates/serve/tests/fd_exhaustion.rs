//! An `accept` that finds the descriptor table full (`EMFILE`) delays a
//! connection instead of stopping the server. The descriptor limit is
//! process-wide, so this test lives in its own test binary (as
//! `sigint.rs` does) and lowers the limit itself.
#![cfg(target_os = "linux")]

use acs_serve::{Client, Request, Response, ServeConfig, Server};
use acs_sim::Machine;
use std::fs::File;
use std::time::Duration;

/// `RLIMIT_NOFILE` on Linux.
const RLIMIT_NOFILE: i32 = 7;

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, limit: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, limit: *const Rlimit) -> i32;
}

#[test]
fn a_full_descriptor_table_delays_a_connection_instead_of_stopping_the_server() {
    let model = acs_core::train_on_suite(&Machine::new(2014), 12).expect("training succeeds");
    let server = Server::spawn(ServeConfig::default(), model).expect("bind succeeds");

    // A soft limit low enough that a few dozen files fill the table.
    let mut limit = Rlimit { cur: 0, max: 0 };
    // SAFETY: `getrlimit` and `setrlimit` are the libc functions of these
    // signatures, and `Rlimit` has `struct rlimit`'s layout on Linux.
    unsafe {
        assert_eq!(getrlimit(RLIMIT_NOFILE, &mut limit), 0);
        limit.cur = limit.cur.min(128);
        assert_eq!(setrlimit(RLIMIT_NOFILE, &limit), 0);
    }
    let mut filler = Vec::new();
    while let Ok(file) = File::open("/dev/null") {
        filler.push(file);
    }
    // One descriptor for the client's socket leaves none for the server's
    // `accept`, which fails with EMFILE for as long as the filler is held.
    filler.pop();
    let mut client = Client::connect(&server.addr).expect("the backlog takes the connection");
    client.stream_mut().set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // The accept loop retries every 5 ms: let it meet EMFILE several times.
    std::thread::sleep(Duration::from_millis(50));
    assert!(!server.handle.is_shutting_down(), "EMFILE stopped the accept loop");

    drop(filler);
    match client.call(&Request::Hello) {
        Ok(Response::Welcome { node_id: 1, .. }) => {}
        other => panic!("expected the first Welcome once descriptors were free, got {other:?}"),
    }
    // `stop` panics if the accept loop failed.
    server.stop();
}
