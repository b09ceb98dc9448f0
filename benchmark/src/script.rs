//! Request scripts: pre-encoded frames and what each reply must be.
//!
//! A script is a table of entries plus the rule that maps a request
//! number to an entry, so request `i` of lane `c` is a pure function of
//! `(--seed, c, i)`. The socket generators send the frames; the layer
//! replay pushes the very same bytes through the layers in-process.

use crate::rng::{derive, unit, Stream};
use crate::sut::Trained;
use crate::Res;
use acs_serve::{write_frame, ReportFeedback, Request, Response, Selection};
use acs_sim::Configuration;

/// Kinds of request a script can hold, indexable for per-kind counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Select`.
    Select = 0,
    /// `Run`.
    Run = 1,
    /// `Report`.
    Report = 2,
    /// `Batch`.
    Batch = 3,
}

impl Kind {
    /// Every kind, in index order.
    pub const ALL: [Kind; 4] = [Kind::Select, Kind::Run, Kind::Report, Kind::Batch];

    /// The label the server's STATS counts the kind under.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Select => "select",
            Kind::Run => "run",
            Kind::Report => "report",
            Kind::Batch => "batch",
        }
    }

    /// How every acceptable reply to this kind starts on the wire.
    fn reply_prefix(self) -> &'static [u8] {
        match self {
            Kind::Select => b"{\"Selected\":",
            Kind::Run => b"{\"Ran\":",
            Kind::Report => b"{\"Budget\":",
            Kind::Batch => b"{\"BatchSelected\":",
        }
    }
}

/// What a reply must look like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Byte-equal to this body.
    Exact(Vec<u8>),
    /// The variant the request demands (replies whose content depends on
    /// how two sessions interleave cannot be pinned to bytes).
    Variant,
}

/// One scripted request.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The request's kind.
    pub kind: Kind,
    /// The complete frame: length prefix and JSON body.
    pub frame: Vec<u8>,
    /// What the reply must be.
    pub expect: Expect,
    /// Index of the (first) kernel the request names.
    pub kernel: usize,
}

impl Entry {
    /// Whether `body` is an acceptable reply.
    pub fn accepts(&self, body: &[u8]) -> bool {
        match &self.expect {
            Expect::Exact(want) => body == want.as_slice(),
            Expect::Variant => body.starts_with(self.kind.reply_prefix()),
        }
    }
}

/// How request numbers map to entries.
#[derive(Debug, Clone, Copy)]
pub enum Pick {
    /// Entry `stream.at(i) % len`: a uniform draw per request.
    Uniform(Stream),
    /// Entry `i % len`: the table is the stream itself, repeated.
    Cyclic,
}

/// One lane's request stream.
#[derive(Debug, Clone, Copy)]
pub struct Script<'a> {
    /// The entry table.
    pub entries: &'a [Entry],
    /// The request-number-to-entry rule.
    pub pick: Pick,
}

impl Script<'_> {
    /// Index of the entry request `i` sends.
    pub fn index(&self, i: u64) -> usize {
        let n = self.entries.len() as u64;
        match self.pick {
            Pick::Uniform(stream) => (stream.at(i) % n) as usize,
            Pick::Cyclic => (i % n) as usize,
        }
    }
}

/// Encode a request as one frame.
pub fn frame_of(request: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, request).expect("writing a frame to memory cannot fail");
    frame
}

/// The body (frame minus length prefix) the server must send for `response`.
pub fn body_of(response: &Response) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, response).expect("writing a frame to memory cannot fail");
    frame.split_off(4)
}

fn select_request(kernel_id: &str) -> Request {
    Request::Select { kernel_id: kernel_id.to_string(), deadline_ms: None, priority: 0 }
}

/// One `Select` per suite kernel. With `expected`, replies must be
/// byte-equal to the frame of that selection (one per kernel, from an
/// engine built independently of the server).
pub fn select_entries(kernel_ids: &[String], expected: Option<&[Selection]>) -> Vec<Entry> {
    kernel_ids
        .iter()
        .enumerate()
        .map(|(kernel, id)| Entry {
            kind: Kind::Select,
            frame: frame_of(&select_request(id)),
            expect: match expected {
                Some(selections) => {
                    Expect::Exact(body_of(&Response::Selected(selections[kernel].clone())))
                }
                None => Expect::Variant,
            },
            kernel,
        })
        .collect()
}

/// Kernels per `Batch` request of the mixed stream.
pub const BATCH_SIZE: usize = 32;

/// The mixed read/write stream of one lane: 70% `Select`, 10% `Run` (1–3
/// iterations, an idempotency key unique within the table), 15% `Report`
/// with measured feedback, 5% `Batch` of 32.
///
/// Feedback is what a node would really send: the characterized
/// (simulator-measured) power and performance of a drawn kernel at a
/// drawn configuration, with ±3% seeded jitter.
pub fn mixed_entries(seed: u64, lane: u64, len: usize, trained: &Trained) -> Vec<Entry> {
    let stream = Stream::new(seed, lane);
    let ids = &trained.kernel_ids;
    let n = ids.len() as u64;
    let configs = Configuration::all();
    (0..len as u64)
        .map(|i| {
            let d = stream.at(i);
            let kernel = ((d >> 8) % n) as usize;
            let (kind, request) = match d % 100 {
                0..=69 => (Kind::Select, select_request(&ids[kernel])),
                70..=79 => (
                    Kind::Run,
                    Request::Run {
                        kernel_id: ids[kernel].clone(),
                        iterations: 1 + (d >> 32) % 3,
                        idem: Some((lane << 48) | i),
                        deadline_ms: None,
                        priority: 0,
                    },
                ),
                80..=94 => {
                    let config = configs[((d >> 32) % configs.len() as u64) as usize];
                    let run = trained.profiles[kernel].run_at(&config);
                    let jitter = |salt| 1.0 + 0.06 * (unit(derive(d, salt)) - 0.5);
                    let feedback = ReportFeedback {
                        kernel_id: ids[kernel].clone(),
                        config,
                        measured_power_w: run.power_w() * jitter(1),
                        measured_perf: jitter(2) / run.time_s,
                    };
                    let residual_w = ((d >> 40) % 4000) as f64 / 100.0;
                    (Kind::Report, Request::Report { residual_w, feedback: Some(feedback) })
                }
                _ => {
                    let kernel_ids = (0..BATCH_SIZE as u64)
                        .map(|j| if j == 0 { kernel } else { (derive(d, j) % n) as usize })
                        .map(|k| ids[k].clone())
                        .collect();
                    (Kind::Batch, Request::Batch { kernel_ids, deadline_ms: None, priority: 0 })
                }
            };
            Entry { kind, frame: frame_of(&request), expect: Expect::Variant, kernel }
        })
        .collect()
}

/// Decode a reply body.
pub fn decode_response(body: &[u8]) -> Res<Response> {
    let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8".to_string())?;
    serde_json::from_str(text).map_err(|e| format!("reply does not parse: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> Vec<String> {
        acs_kernels::all_kernel_instances().iter().map(|k| k.id()).collect()
    }

    #[test]
    fn uniform_scripts_repeat_for_equal_seeds_only() {
        let entries = select_entries(&ids(), None);
        let script =
            |seed, lane| Script { entries: &entries, pick: Pick::Uniform(Stream::new(seed, lane)) };
        let draw = |s: Script<'_>| (0..256).map(|i| s.index(i)).collect::<Vec<_>>();
        assert_eq!(draw(script(2014, 0)), draw(script(2014, 0)));
        assert_ne!(draw(script(2014, 0)), draw(script(7, 0)));
        assert_ne!(draw(script(2014, 0)), draw(script(2014, 1)));
        assert!(draw(script(2014, 0)).iter().all(|&i| i < entries.len()));
    }

    #[test]
    fn mixed_streams_repeat_for_equal_seeds_only_and_hold_the_stated_mix() {
        let trained = crate::sut::train_suite().unwrap();
        let frames = |seed, lane| -> Vec<Vec<u8>> {
            mixed_entries(seed, lane, 2_000, &trained).into_iter().map(|e| e.frame).collect()
        };
        assert_eq!(frames(2014, 0), frames(2014, 0));
        assert_ne!(frames(2014, 0), frames(7, 0));
        assert_ne!(frames(2014, 0), frames(2014, 1));
        let entries = mixed_entries(2014, 0, 2_000, &trained);
        let share = |kind| entries.iter().filter(|e| e.kind == kind).count() as f64 / 2_000.0;
        assert!((share(Kind::Select) - 0.70).abs() < 0.04);
        assert!((share(Kind::Run) - 0.10).abs() < 0.03);
        assert!((share(Kind::Report) - 0.15).abs() < 0.03);
        assert!((share(Kind::Batch) - 0.05).abs() < 0.02);
    }

    #[test]
    fn variant_expectation_checks_the_reply_kind() {
        let entries = select_entries(&ids(), None);
        assert!(entries[0].accepts(br#"{"Selected":{"kernel_id":"x"}}"#));
        assert!(!entries[0].accepts(br#"{"Error":{"code":"unknown-kernel","detail":""}}"#));
        assert!(!entries[0].accepts(br#"{"Overloaded":{"load":9,"limit":8}}"#));
    }

    #[test]
    fn frames_carry_a_length_prefix_and_decode_back() {
        let frame = frame_of(&select_request("LU/Small/lud"));
        let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4);
        let back: Request =
            serde_json::from_str(std::str::from_utf8(&frame[4..]).unwrap()).unwrap();
        assert_eq!(back, select_request("LU/Small/lud"));
    }
}
