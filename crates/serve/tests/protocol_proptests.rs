//! Property tests for the wire protocol: encode/decode round-trips and
//! hostile-input hardening. Nothing here may panic — every failure mode
//! must surface as a typed [`ProtocolError`].

use acs_serve::{
    read_frame, read_frame_blocking, write_frame, ProtocolError, ReadOutcome, Request, Response,
    Selection, MAX_FRAME_LEN,
};
use acs_sim::Configuration;
use proptest::prelude::*;
use std::io::Cursor;

/// A kernel-id alphabet that exercises slashes, spaces, unicode, and
/// emptiness.
fn kernel_id(n: u64) -> String {
    const POOL: &[&str] = &["LU/Small/lud", "SMC/Large/acc", "κ/üñ/…", "", "a b/c d/e f", "x"];
    let base = POOL[(n % POOL.len() as u64) as usize];
    format!("{base}{}", n / POOL.len() as u64)
}

/// Deadlines for the generators: absent two thirds of the time, so both
/// the old-client (no field) and new-client shapes round-trip.
fn deadline_from(n: u64) -> Option<u64> {
    if n.is_multiple_of(3) {
        Some(n % 5000)
    } else {
        None
    }
}

fn request_from(variant: u8, n: u64, w: f64, extra: &[u64]) -> Request {
    match variant % 8 {
        0 => Request::Hello,
        1 => Request::Select {
            kernel_id: kernel_id(n),
            deadline_ms: deadline_from(n),
            priority: (n % 256) as u8,
        },
        2 => Request::Batch {
            kernel_ids: extra.iter().map(|&e| kernel_id(e)).collect(),
            deadline_ms: deadline_from(n.wrapping_add(1)),
            priority: (n % 256) as u8,
        },
        3 => Request::Run {
            kernel_id: kernel_id(n),
            iterations: n % 17,
            idem: if n.is_multiple_of(2) { Some(n.wrapping_mul(31)) } else { None },
            deadline_ms: deadline_from(n.wrapping_add(2)),
            priority: (n % 256) as u8,
        },
        4 => Request::Report { residual_w: w, feedback: None },
        5 => Request::Stats,
        6 => Request::Bye,
        _ => Request::Shutdown,
    }
}

fn response_from(variant: u8, n: u64, w: f64) -> Response {
    let config = Configuration::all()[(n % Configuration::space_size() as u64) as usize];
    let selection = Selection {
        kernel_id: kernel_id(n),
        cluster: (n % 7) as usize,
        config,
        predicted_power_w: w.abs() + 0.1,
        predicted_perf: w.abs() * 3.0 + 1.0,
        budget_w: w.abs() + 5.0,
    };
    match variant % 9 {
        0 => Response::Welcome { node_id: n, budget_w: w.abs() },
        1 => Response::Selected(selection),
        2 => Response::BatchSelected { selections: vec![selection.clone(), selection] },
        3 => Response::Ran {
            kernel_id: kernel_id(n),
            iterations: n % 9 + 1,
            avg_power_w: w.abs(),
            total_time_s: w.abs() * 0.25,
            config,
            tier: "model+fl(1)".into(),
        },
        4 => Response::Budget { budget_w: w.abs() },
        5 => Response::Overloaded { load: n, limit: n / 2 },
        6 => Response::Error { code: "oversized".into(), detail: kernel_id(n) },
        7 => Response::ShedDeadline {
            deadline_ms: n % 5000,
            priority: (n % 256) as u8,
            brownout_level: (n % 4) as u8,
        },
        _ => Response::Bye,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every request survives an encode→decode round trip bit-for-bit.
    #[test]
    fn requests_roundtrip(
        variant in 0u8..8,
        n in 0u64..1_000_000,
        w in -500.0..500.0f64,
        extra in prop::collection::vec(0u64..1000, 0..6),
    ) {
        let msg = request_from(variant, n, w, &extra);
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let back: Request = read_frame_blocking(&mut Cursor::new(&buf)).unwrap().unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Every response survives an encode→decode round trip bit-for-bit.
    #[test]
    fn responses_roundtrip(
        variant in 0u8..8,
        n in 0u64..1_000_000,
        w in -500.0..500.0f64,
    ) {
        let msg = response_from(variant, n, w);
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let back: Response = read_frame_blocking(&mut Cursor::new(&buf)).unwrap().unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Any valid frame truncated at any interior byte decodes to a typed
    /// `Truncated` error — never a panic, never a bogus success.
    #[test]
    fn truncated_frames_are_typed(
        variant in 0u8..8,
        n in 0u64..1_000_000,
        cut in 0u64..10_000,
    ) {
        let msg = request_from(variant, n, 1.0, &[n]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let cut = (cut as usize) % buf.len(); // strictly interior
        match read_frame::<_, Request>(&mut Cursor::new(&buf[..cut])) {
            Ok(ReadOutcome::Eof) => prop_assert_eq!(cut, 0),
            Err(ProtocolError::Truncated { expected, got }) => {
                prop_assert!(got < expected, "got {} of {}", got, expected);
            }
            other => prop_assert!(false, "expected Eof or Truncated, got {:?}", other.is_ok()),
        }
    }

    /// Arbitrary bytes never panic the decoder: every outcome is a clean
    /// frame, a clean EOF, or a typed error.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(0u8..=255, 0..64),
    ) {
        match read_frame::<_, Request>(&mut Cursor::new(&bytes)) {
            Ok(_) => {}
            Err(
                ProtocolError::Truncated { .. }
                | ProtocolError::Oversized { .. }
                | ProtocolError::InvalidUtf8
                | ProtocolError::Malformed(_)
                | ProtocolError::Io(_),
            ) => {}
        }
    }

    /// A length prefix above `MAX_FRAME_LEN` is rejected as `Oversized`
    /// before any payload is read or allocated.
    #[test]
    fn oversized_prefix_is_typed(
        over in 1u64..u32::MAX as u64 - MAX_FRAME_LEN as u64,
    ) {
        let len = (MAX_FRAME_LEN as u64 + over) as u32;
        let buf = len.to_be_bytes();
        match read_frame::<_, Request>(&mut Cursor::new(&buf[..])) {
            Err(ProtocolError::Oversized { len: got, max }) => {
                prop_assert_eq!(got, len as usize);
                prop_assert_eq!(max, MAX_FRAME_LEN);
            }
            other => prop_assert!(false, "expected Oversized, got ok={}", other.is_ok()),
        }
    }

    /// Non-UTF-8 payloads decode to `InvalidUtf8`, not a panic.
    #[test]
    fn invalid_utf8_is_typed(
        prefix in prop::collection::vec(0u8..=127, 0..16),
    ) {
        let mut payload = prefix;
        payload.push(0xff); // never valid in UTF-8
        let mut buf = (payload.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&payload);
        match read_frame::<_, Request>(&mut Cursor::new(&buf)) {
            Err(ProtocolError::InvalidUtf8) => {}
            other => prop_assert!(false, "expected InvalidUtf8, got ok={}", other.is_ok()),
        }
    }
}

// ---------------------------------------------------------------------------
// The codec under the messages, pinned without a second codec to compare
// against: (a) what the derived writers emit is a fixed point of the generic
// `Value` writer, in both layouts; (b) the documents `Request` accepts and
// refuses are written down; (c) no damaged frame panics.
// ---------------------------------------------------------------------------

mod codec {
    use super::*;
    use acs_serve::{
        CoordJournalEntry, CoordRequest, CoordResponse, CoordStats, JournalEntry, LeaseReport,
        Metrics, Recovery, ReportFeedback, SessionAdapt,
    };
    use acs_sim::{Cap, Watts};
    use serde::{Deserialize, Serialize};
    use serde_json::{from_str, parse_value, to_string, to_string_pretty};
    use std::fmt::Debug;

    fn watts(w: f64) -> Watts {
        Watts::new(w).unwrap()
    }

    fn cap(w: f64) -> Cap {
        Cap::new(w).unwrap()
    }

    /// Strings that need every kind of escape, and some that need none.
    const AWKWARD: &str = "q\" b\\ n\n t\t r\r nul\u{0} esc\u{1b} κ/üñ/… 😀";

    /// Checks (a) and (c) for one message and that it reads back equal.
    fn pin<T: Serialize + Deserialize + PartialEq + Debug>(msg: &T) {
        let compact = to_string(msg).unwrap();
        let pretty = to_string_pretty(msg).unwrap();
        let tree = parse_value(&compact).unwrap();
        assert_eq!(to_string(&tree).unwrap(), compact, "compact is not a fixed point");
        let tree = parse_value(&pretty).unwrap();
        assert_eq!(to_string_pretty(&tree).unwrap(), pretty, "pretty is not a fixed point");
        assert_eq!(to_string(&tree).unwrap(), compact, "the layouts disagree");
        assert_eq!(&from_str::<T>(&compact).unwrap(), msg);
        assert_eq!(&from_str::<T>(&pretty).unwrap(), msg);

        let mut frame = Vec::new();
        write_frame(&mut frame, msg).unwrap();
        assert_eq!(&frame[..4], (compact.len() as u32).to_be_bytes());
        assert_eq!(&frame[4..], compact.as_bytes(), "a frame body is the compact text");
        damage::<T>(&frame);
    }

    /// (c): every prefix is `Eof` or `Truncated`; every overwritten byte
    /// is a message or a typed error. Long frames are sampled.
    fn damage<T: Deserialize + Debug>(frame: &[u8]) {
        let stride = frame.len() / 1500 + 1;
        for cut in (0..frame.len()).step_by(stride) {
            match read_frame::<_, T>(&mut &frame[..cut]) {
                Ok(ReadOutcome::Eof) => assert_eq!(cut, 0),
                Err(ProtocolError::Truncated { expected, got }) => assert!(got < expected),
                other => panic!("prefix {cut} of {}: {other:?}", frame.len()),
            }
        }
        let mut bytes = frame.to_vec();
        for at in (0..frame.len()).step_by(stride) {
            for byte in [b'"', b'\\', b'u', b'{', b']', b',', b'-', b'e', b'7', 0, 0xc3, 0xa9] {
                bytes[at] = byte;
                // Returning at all is the property; the value is free.
                let _ = read_frame::<_, T>(&mut &bytes[..]);
            }
            bytes[at] = frame[at];
        }
    }

    fn selection(kernel_id: &str) -> Selection {
        Selection {
            kernel_id: kernel_id.into(),
            cluster: 3,
            config: Configuration::all()[17],
            predicted_power_w: 23.456789012345,
            predicted_perf: 1234.5678901234,
            budget_w: 26.666666666666668,
        }
    }

    #[test]
    fn every_request_and_response_is_pinned() {
        let feedback = ReportFeedback {
            kernel_id: AWKWARD.into(),
            config: Configuration::all()[0],
            measured_power_w: 41.5,
            measured_perf: 12.25,
        };
        for request in [
            Request::Hello,
            Request::Select { kernel_id: AWKWARD.into(), deadline_ms: None, priority: 0 },
            Request::Select {
                kernel_id: "LU/Small/lud".into(),
                deadline_ms: Some(25),
                priority: 255,
            },
            Request::Batch { kernel_ids: vec![], deadline_ms: None, priority: 0 },
            Request::Batch {
                kernel_ids: vec!["a".into(), AWKWARD.into()],
                deadline_ms: Some(0),
                priority: 1,
            },
            Request::Run {
                kernel_id: "x".into(),
                iterations: u64::MAX,
                idem: Some(42),
                deadline_ms: Some(10),
                priority: 1,
            },
            Request::Run {
                kernel_id: String::new(),
                iterations: 0,
                idem: None,
                deadline_ms: None,
                priority: 0,
            },
            Request::Report { residual_w: -0.0, feedback: None },
            Request::Report { residual_w: -1.25e-7, feedback: Some(feedback) },
            Request::Stats,
            Request::Bye,
            Request::Shutdown,
        ] {
            pin(&request);
        }

        let metrics = Metrics::new();
        metrics.record_request("select", 1_500);
        metrics.record_request("batch", 90_000);
        metrics.record_rung("model");
        metrics.record_rung("model+fl(1)");
        let lease = LeaseReport {
            lease_state: "leased".into(),
            lease_budget_w: 60.5,
            ..LeaseReport::default()
        };
        let stats = metrics.snapshot((3, 1), 2, 5, &lease);
        assert!(stats.requests_by_kind.len() == 2 && stats.degradation_tallies.len() == 2);
        for response in [
            Response::Welcome { node_id: 3, budget_w: 40.0 },
            Response::Selected(selection(AWKWARD)),
            Response::BatchSelected { selections: vec![] },
            Response::BatchSelected { selections: vec![selection("a"), selection("LU/Small/lud")] },
            Response::Ran {
                kernel_id: "LU/Small/lud".into(),
                iterations: 9,
                avg_power_w: 31.25,
                total_time_s: 0.001953125,
                config: Configuration::all()[5],
                tier: "model+fl(1)".into(),
            },
            Response::Budget { budget_w: 1e-3 },
            Response::Stats(Box::new(stats)),
            Response::ShedDeadline { deadline_ms: 5, priority: 3, brownout_level: 2 },
            Response::Overloaded { load: 9, limit: 8 },
            Response::Error { code: "malformed".into(), detail: AWKWARD.into() },
            Response::Bye,
            Response::ShuttingDown,
        ] {
            pin(&response);
        }
    }

    #[test]
    fn every_journal_and_lease_message_is_pinned() {
        for entry in [
            JournalEntry::Admit { node_id: 1, epoch: 2 },
            JournalEntry::Leave { node_id: 1, epoch: 3 },
            JournalEntry::Report { node_id: 1, residual_w: -0.0, epoch: 4 },
            JournalEntry::Report { node_id: 1, residual_w: 2.5, epoch: 5 },
            JournalEntry::CacheKey { kernel_id: AWKWARD.into() },
            JournalEntry::Cap { cap_w: cap(119.99999999999999), epoch: 6 },
            JournalEntry::AdaptObs {
                node_id: 1,
                kernel_id: "LU/Small/lud".into(),
                power_bits: 1.25f64.to_bits(),
                perf_bits: (-0.0f64).to_bits(),
            },
            JournalEntry::Reclassify { node_id: 1, kernel_id: "k".into() },
            JournalEntry::Rung { label: "model+fl(1)".into() },
            JournalEntry::Brownout { level: 3 },
        ] {
            pin(&entry);
        }
        pin(&Recovery {
            replayed: 12,
            warm_kernels: vec!["a".into(), AWKWARD.into()],
            orphaned_sessions: vec![2, 5],
            next_node: 6,
            rung_tallies: [("model".to_string(), 4u64)].into_iter().collect(),
            adapt: vec![SessionAdapt { node_id: 2, predictor: Default::default() }],
            brownout_transitions: 1,
        });
        for entry in [
            CoordJournalEntry::Grant {
                lease_id: 1,
                shard_id: 2,
                demand_w: watts(30.5),
                tick: 3,
                epoch: 4,
            },
            CoordJournalEntry::Renew { lease_id: 1, demand_w: watts(0.0), tick: 5, epoch: 6 },
            CoordJournalEntry::Release { lease_id: 1, tick: 7, epoch: 8 },
            CoordJournalEntry::Revoke { lease_id: 1, tick: 9, epoch: 10 },
        ] {
            pin(&entry);
        }
        for request in [
            CoordRequest::Lease { shard_id: 4, demand_w: watts(12.5) },
            CoordRequest::Lease { shard_id: 1 | 1 << 63, demand_w: watts(0.0) },
            CoordRequest::Renew { lease_id: 1, epoch: 2, demand_w: watts(33.333333333333336) },
            CoordRequest::Release { lease_id: 1 },
            CoordRequest::Revoke { lease_id: 1 },
            CoordRequest::Stats,
            CoordRequest::Shutdown,
        ] {
            pin(&request);
        }
        let stats = CoordStats {
            tick: 1,
            epoch: 2,
            global_cap_w: 240.0,
            floor_w: 5.0,
            live_leases: 3,
            encumbered_leases: 1,
            live_committed_w: 180.25,
            encumbered_w: 20.0,
            pool_w: 39.75,
            overshoot_w: 0.0,
            grants: 4,
            renews: 50,
            expirations: 1,
            revocations: 0,
            evicted_shards: 1,
            journal_appends: 55,
            journal_replayed: 0,
        };
        for response in [
            CoordResponse::Granted {
                lease_id: 1,
                epoch: 3,
                budget_w: watts(80.0),
                ttl_ms: 600,
                floor_w: cap(2.5),
            },
            CoordResponse::Renewed {
                lease_id: 1,
                epoch: 4,
                budget_w: watts(79.5),
                ttl_ms: 600,
                floor_w: cap(2.5),
            },
            CoordResponse::Rejected { code: "pool-exhausted".into(), detail: AWKWARD.into() },
            CoordResponse::Released,
            CoordResponse::Revoked,
            CoordResponse::Stats(stats),
            CoordResponse::Error { code: "malformed".into(), detail: String::new() },
            CoordResponse::ShuttingDown,
        ] {
            pin(&response);
        }
    }

    #[test]
    fn a_trained_model_is_pinned() {
        let model = acs_core::train_on_suite(&acs_sim::Machine::new(2014), 16).unwrap();
        pin(&model);
    }

    fn decode<T: Deserialize + Debug>(json: &str) -> Result<T, String> {
        let mut frame = (json.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(json.as_bytes());
        match read_frame::<_, T>(&mut &frame[..]) {
            Ok(ReadOutcome::Frame(request)) => Ok(request),
            Ok(other) => panic!("{json}: {other:?}"),
            Err(ProtocolError::Malformed(why)) => Err(why),
            Err(other) => panic!("{json}: {other:?}"),
        }
    }

    /// (b): what `Request` accepts and what it says of what it refuses, as
    /// it was before the streaming codec (the last two rows excepted).
    #[test]
    fn the_request_accept_set_is_written_down() {
        let select = |kernel_id: &str, deadline_ms, priority| {
            Ok(Request::Select { kernel_id: kernel_id.into(), deadline_ms, priority })
        };
        let run = |iterations, idem| {
            Ok(Request::Run {
                kernel_id: "x".into(),
                iterations,
                idem,
                deadline_ms: None,
                priority: 0,
            })
        };
        // Inside `{"Select":{..}}` a value starts two levels down, so 127
        // nested arrays reach the cap of 128 and one more passes it (129
        // at the top level: `vendor/serde_json/tests/codec.rs`).
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let table: Vec<(String, Result<Request, String>)> = vec![
            // Key order, whitespace, unknown keys, repeated keys.
            (r#"{"Select":{"priority":7,"deadline_ms":9,"kernel_id":"x"}}"#.into(), select("x", Some(9), 7)),
            (" {\n\"Select\" :\t{ \"kernel_id\" : \"x\" } }\r\n".into(), select("x", None, 0)),
            (r#"{"Select":{"trace":{"id":[1,{"a":null}]},"kernel_id":"x","z":-1.5e3}}"#.into(), select("x", None, 0)),
            (r#"{"Select":{"kernel_id":"x","kernel_id":7,"priority":1,"priority":"high"}}"#.into(), select("x", None, 1)),
            // Optional and defaulted fields: absent or null, absent only.
            (r#"{"Select":{"kernel_id":"x","deadline_ms":null}}"#.into(), select("x", None, 0)),
            (r#"{"Run":{"kernel_id":"x","iterations":2}}"#.into(), run(2, None)),
            (r#"{"Run":{"kernel_id":"x","iterations":2,"idem":null}}"#.into(), run(2, None)),
            (r#"{"Run":{"kernel_id":"x","iterations":2,"idem":5}}"#.into(), run(2, Some(5))),
            (r#"{"Select":{"kernel_id":"x","priority":null}}"#.into(), Err("field `priority`: expected unsigned integer for u8, found null".into())),
            (r#"{"Select":{}}"#.into(), Err("missing field `kernel_id`".into())),
            (r#"{"Run":{"kernel_id":"x"}}"#.into(), Err("missing field `iterations`".into())),
            // Numbers.
            (r#"{"Run":{"kernel_id":"x","iterations":3.0}}"#.into(), run(3, None)),
            (r#"{"Run":{"kernel_id":"x","iterations":3.5}}"#.into(), Err("field `iterations`: expected unsigned integer for u64, found number".into())),
            (r#"{"Run":{"kernel_id":"x","iterations":-1}}"#.into(), Err("field `iterations`: expected unsigned integer for u64, found integer".into())),
            (r#"{"Report":{"residual_w":3}}"#.into(), Ok(Request::Report { residual_w: 3.0, feedback: None })),
            (r#"{"Select":{"kernel_id":"x","priority":255}}"#.into(), select("x", None, 255)),
            (r#"{"Select":{"kernel_id":"x","priority":256}}"#.into(), Err("field `priority`: integer 256 out of range for u8".into())),
            (r#"{"Select":{"kernel_id":7}}"#.into(), Err("field `kernel_id`: expected string for String, found integer".into())),
            // Variants: unit ones are strings, data ones single-key objects.
            (r#""Hello""#.into(), Ok(Request::Hello)),
            (r#"{"Hello":null}"#.into(), Err("unknown variant `Hello` for Request".into())),
            (r#""Select""#.into(), Err("unknown variant `Select` for Request".into())),
            (r#""Explain""#.into(), Err("unknown variant `Explain` for Request".into())),
            (r#"{"Explain":{}}"#.into(), Err("unknown variant `Explain` for Request".into())),
            (r#"{"Select":{"kernel_id":"x"},"Stats":null}"#.into(), Err("expected variant string or single-key object for Request, found object".into())),
            (r#"{"Select":{"kernel_id":"x"},"Select":{"kernel_id":"x"}}"#.into(), Err("expected variant string or single-key object for Request, found object".into())),
            ("{}".into(), Err("expected variant string or single-key object for Request, found object".into())),
            ("[\"Hello\"]".into(), Err("expected variant string or single-key object for Request, found array".into())),
            ("null".into(), Err("expected variant string or single-key object for Request, found null".into())),
            (r#"{"Select":["x"]}"#.into(), Err("expected object for Request::Select, found array".into())),
            (r#"{"Report":{"residual_w":1,"feedback":{"kernel_id":"k","config":{"device":"Cpu","threads":2,"cpu_pstate":[4],"gpu_pstate":0},"measured_power_w":1,"measured_perf":1}}}"#.into(),
             Err("field `feedback`: field `config`: field `cpu_pstate`: expected unsigned integer for u8, found array".into())),
            // Text that is not one JSON document.
            (r#""Hello"x"#.into(), Err("trailing characters after JSON document at line 1 column 8".into())),
            (r#"{"Select":{"kernel_id":"x"}}}"#.into(), Err("trailing characters after JSON document at line 1 column 29".into())),
            (r#"{"Select":{"kernel_id":"x"}"#.into(), Err("expected `,` or `}` at line 1 column 28".into())),
            ("".into(), Err("unexpected end of input at line 1 column 1".into())),
            (format!(r#"{{"Select":{{"kernel_id":"x","pad":{}}}}}"#, deep(127)), select("x", None, 0)),
            (format!(r#"{{"Select":{{"kernel_id":"x","pad":{}}}}}"#, deep(128)), Err("recursion limit exceeded at line 1 column 161".into())),
            // Escapes, in values and in keys.
            (r#"{"Select":{"kernel_id":"\"\\\/\b\f\n\r\t\u0041\u00e9\u20ac\ud83d\ude00"}}"#.into(), select("\"\\/\u{8}\u{c}\n\r\tAé€😀", None, 0)),
            (r#"{"\u0053elect":{"kernel\u005fid":"x"}}"#.into(), select("x", None, 0)),
            (r#"{"Select":{"kernel_id":"\ud83d"}}"#.into(), Err("expected `\\` at line 1 column 31".into())),
            (r#"{"Select":{"kernel_id":"\ude00"}}"#.into(), Err("invalid unicode escape at line 1 column 31".into())),
            (r#"{"Select":{"kernel_id":"\q"}}"#.into(), Err("invalid escape `\\q` at line 1 column 27".into())),
            // The two the tree-building parser got wrong: a panic, and an
            // accident of `from_str_radix`.
            ("{\"Select\":{\"kernel_id\":\"\\u123é\"}}".into(), Err("invalid unicode escape at line 1 column 27".into())),
            (r#"{"Select":{"kernel_id":"\u+041"}}"#.into(), Err("invalid unicode escape at line 1 column 27".into())),
        ];
        for (json, expected) in table {
            assert_eq!(decode::<Request>(&json), expected, "{json}");
        }
    }

    /// (b) for the lease wire: the wattages a lease message may not carry.
    /// A demand is finite and at least 0 W, a budget too, and a floor is
    /// finite and above 0 W; anything else is the typed decode error, so
    /// neither side ever folds one in.
    #[test]
    fn the_lease_wattages_refused_are_written_down() {
        let granted = |budget_w: &str, floor_w: &str| {
            let fields = format!(r#""budget_w":{budget_w},"ttl_ms":500,"floor_w":{floor_w}"#);
            format!(r#"{{"Granted":{{"lease_id":1,"epoch":2,{fields}}}}}"#)
        };
        for (json, refusal) in [
            (
                r#"{"Lease":{"shard_id":1,"demand_w":-1}}"#.to_string(),
                "field `demand_w`: -1 W is not finite and at least 0",
            ),
            (
                r#"{"Lease":{"shard_id":1,"demand_w":1e999}}"#.to_string(),
                "field `demand_w`: inf W is not finite and at least 0",
            ),
            (
                r#"{"Renew":{"lease_id":1,"epoch":2,"demand_w":-1}}"#.to_string(),
                "field `demand_w`: -1 W is not finite and at least 0",
            ),
        ] {
            assert_eq!(decode::<CoordRequest>(&json), Err(refusal.to_string()), "{json}");
        }
        for (json, refusal) in [
            (granted("1e999", "2"), "field `budget_w`: inf W is not finite and at least 0"),
            (granted("-1", "2"), "field `budget_w`: -1 W is not finite and at least 0"),
            (granted("80", "0"), "field `floor_w`: 0 W is not finite and above 0"),
            (granted("80", "-1e999"), "field `floor_w`: -inf W is not finite and above 0"),
        ] {
            assert_eq!(decode::<CoordResponse>(&json), Err(refusal.to_string()), "{json}");
        }
        let granted = granted("80", "2.5");
        let expected = CoordResponse::Granted {
            lease_id: 1,
            epoch: 2,
            budget_w: watts(80.0),
            ttl_ms: 500,
            floor_w: cap(2.5),
        };
        assert_eq!(decode::<CoordResponse>(&granted), Ok(expected), "in range it decodes");
    }

    /// Characters of every UTF-8 width, a quote and a backslash included.
    const AFTER_ESCAPE: [char; 12] =
        ['é', 'κ', '…', '€', '😀', '\u{10ffff}', 'g', 'Z', '"', '\\', ' ', '\u{7f}'];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever follows `\u` or `\uD83D\u` short of four hex digits —
        /// multi-byte characters above all — is `Malformed`, not a panic.
        #[test]
        fn junk_after_a_unicode_escape_is_malformed(
            picks in prop::collection::vec(0usize..AFTER_ESCAPE.len(), 0..6),
            hex in prop::collection::vec(0u8..16, 0..4),
            junk_at in 0usize..4,
            paired in 0u8..2,
        ) {
            // Up to three hex digits with the junk spliced in somewhere.
            let digits: String = hex.iter().map(|&d| char::from_digit(d.into(), 16).unwrap()).collect();
            let junk: String = picks.iter().map(|&i| AFTER_ESCAPE[i]).collect();
            let lead = if paired == 1 { "\\uD83D\\u" } else { "\\u" };
            let at = junk_at.min(digits.len());
            let tail = format!("{}{junk}{}", &digits[..at], &digits[at..]);
            let json = format!("{{\"Select\":{{\"kernel_id\":\"{lead}{tail}\"}}}}");
            let mut frame = (json.len() as u32).to_be_bytes().to_vec();
            frame.extend_from_slice(json.as_bytes());
            match read_frame::<_, Request>(&mut &frame[..]) {
                Err(ProtocolError::Malformed(_)) => {}
                // Four hex digits can still turn up (an all-hex tail, or
                // junk that is itself hex): then it may well be a frame.
                Ok(ReadOutcome::Frame(_)) => prop_assert!(tail.chars().take(4).all(|c| c.is_ascii_hexdigit())),
                other => prop_assert!(false, "{}: {:?}", json, other),
            }
        }
    }
}
