//! SIGINT handling lives in its own test binary: the signal flag is
//! process-wide (as SIGINT itself is), so this must not share a process
//! with the other server tests.
#![cfg(unix)]

use acs_serve::{Client, Request, Response, ServeConfig, Server};
use acs_sim::Machine;

#[test]
fn sigint_drains_the_server() {
    extern "C" {
        fn raise(sig: i32) -> i32;
    }
    let model = acs_core::train_on_suite(&Machine::new(2014), 12).expect("training succeeds");
    let server = Server::spawn(ServeConfig::default(), model).expect("bind succeeds");

    let mut client = Client::connect(&server.addr).unwrap();
    assert!(matches!(client.call(&Request::Hello).unwrap(), Response::Welcome { .. }));
    unsafe {
        raise(2); // SIGINT; the handler only sets a flag.
    }
    server.join();
}
