//! One seeded session against the selection server.
//!
//! The request stream is a pure function of `(seed, index)` via
//! [`SplitMix64`]: every 13th request is a residual-headroom `Report`
//! carrying seeded measurement feedback, every 11th otherwise a `Run`, and
//! the rest are `Select`s over the whole kernel suite. The replies are
//! what the server's codec, `Session::step` and adaptation loop make of
//! it, so the same stream against two servers in the same state must come
//! back byte for byte: `tests/serve_determinism.rs` replays it twice on
//! one warm server, and the `serve_stream` registry row pins it, with the
//! journal it leaves, in `results/serve_stream.json`.
//!
//! `Welcome` is not part of the stream: its node id depends on how many
//! sessions the server has ever admitted, which is session identity, not
//! a selection result.

use acs_serve::{Client, ReportFeedback, Request, Response};
use acs_sim::noise::SplitMix64;
use acs_sim::Configuration;

/// Every `RUN_EVERY`th request (that is not a `Report`) is a `Run`.
const RUN_EVERY: u64 = 11;
/// Every `REPORT_EVERY`th request is a `Report` with feedback.
const REPORT_EVERY: u64 = 13;

/// Request `index` of the stream `rng` draws.
fn request_for(kernel_ids: &[String], rng: &mut SplitMix64, index: u64) -> Request {
    let draw = rng.next_u64();
    let pick = |bits: u64, len: usize| (bits % len as u64) as usize;
    if index % REPORT_EVERY == REPORT_EVERY - 1 {
        // Residual headroom in [0, 40) W, and a measurement for a seeded
        // (kernel, config) pair: power in [15, 45) W, perf in [0.5, 8.5).
        // Everything comes out of the one draw.
        let configs = Configuration::all();
        let feedback = ReportFeedback {
            kernel_id: kernel_ids[pick(draw >> 8, kernel_ids.len())].clone(),
            config: configs[pick(draw >> 16, configs.len())],
            measured_power_w: 15.0 + ((draw >> 24) % 3000) as f64 / 100.0,
            measured_perf: 0.5 + ((draw >> 40) % 800) as f64 / 100.0,
        };
        return Request::Report {
            residual_w: (draw % 4000) as f64 / 100.0,
            feedback: Some(feedback),
        };
    }
    let kernel_id = kernel_ids[pick(draw, kernel_ids.len())].clone();
    if index % RUN_EVERY == RUN_EVERY - 1 {
        Request::Run {
            kernel_id,
            iterations: 1 + draw % 3,
            idem: None,
            deadline_ms: None,
            priority: 0,
        }
    } else {
        Request::Select { kernel_id, deadline_ms: None, priority: 0 }
    }
}

/// Run one session against the server at `addr`: `Hello`, `requests`
/// requests of the stream seeded `seed`, then `Bye`. Returns every reply
/// but `Welcome` and `Bye` as compact JSON, in request order. A dropped
/// connection, or a typed error (`Error`, `Overloaded`, `ShedDeadline`)
/// in place of an answer, is an `Err` that names the request.
pub fn served_stream(addr: &str, requests: u64, seed: u64) -> Result<Vec<String>, String> {
    let kernel_ids: Vec<String> =
        acs_kernels::all_kernel_instances().iter().map(|k| k.id()).collect();
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut call = |what: &str, request: &Request| -> Result<(Response, String), String> {
        let reply = client.call(request).map_err(|e| format!("{what}: connection lost: {e}"))?;
        let line = serde_json::to_string(&reply).expect("a response serializes");
        match reply {
            Response::Error { .. }
            | Response::Overloaded { .. }
            | Response::ShedDeadline { .. } => Err(format!("{what} was answered {line}")),
            reply => Ok((reply, line)),
        }
    };
    call("Hello", &Request::Hello)?;
    let mut rng = SplitMix64(seed);
    let mut replies = Vec::with_capacity(requests as usize);
    for index in 0..requests {
        let request = request_for(&kernel_ids, &mut rng, index);
        replies.push(call(&format!("request {index}"), &request)?.1);
    }
    match call("Bye", &Request::Bye)? {
        (Response::Bye, _) => Ok(replies),
        (_, line) => Err(format!("Bye was answered {line}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, len: u64) -> Vec<Request> {
        let ids: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
        let mut rng = SplitMix64(seed);
        (0..len).map(|index| request_for(&ids, &mut rng, index)).collect()
    }

    #[test]
    fn the_stream_is_a_pure_function_of_its_seed() {
        assert_eq!(stream(7, 60), stream(7, 60));
        assert_ne!(stream(7, 60), stream(8, 60), "different seeds should differ somewhere");
        let s = stream(7, 60);
        assert!(matches!(s[12], Request::Report { .. }), "index 12 is the 13th request");
        assert!(matches!(s[10], Request::Run { .. }), "index 10 is the 11th request");
        assert!(matches!(s[0], Request::Select { .. }));
    }

    #[test]
    fn every_report_carries_feedback_in_range() {
        let reports: Vec<ReportFeedback> = stream(7, 130)
            .into_iter()
            .filter_map(|request| match request {
                Request::Report { feedback, .. } => feedback,
                _ => None,
            })
            .collect();
        assert_eq!(reports.len(), 10);
        for fb in reports {
            assert!(["a", "b", "c"].contains(&fb.kernel_id.as_str()));
            assert!(Configuration::all().contains(&fb.config));
            assert!((15.0..45.0).contains(&fb.measured_power_w));
            assert!((0.5..8.5).contains(&fb.measured_perf));
        }
    }
}
