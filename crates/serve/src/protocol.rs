//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message is a 4-byte big-endian `u32` byte length followed by that
//! many bytes of UTF-8 JSON. The length prefix is validated against
//! [`MAX_FRAME_LEN`] *before* any allocation, truncated frames and invalid
//! UTF-8 surface as typed [`ProtocolError`]s, and nothing in this module
//! panics on hostile input.
//!
//! Responses are intentionally free of any field that depends on server
//! cache state or wall-clock time: a recorded request stream must replay to
//! a byte-identical response log (DESIGN.md §11), so `Selected` carries no
//! "cache hit" flag and latency lives only in the [`StatsSnapshot`], which
//! replay logs exclude.

use crate::metrics::StatsSnapshot;
use acs_sim::Configuration;
use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, Read, Write};

/// Hard ceiling on a frame's payload length (1 MiB). A length prefix above
/// this is rejected before any buffer is allocated, so a hostile client
/// cannot make the server reserve gigabytes with four bytes.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// A client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Handshake: ask for the session's node id and current power budget.
    Hello,
    /// Select a configuration for one kernel under the session's budget.
    Select {
        /// Kernel id (`benchmark/input/name`, as listed by `acs suite`).
        kernel_id: String,
        /// Optional service deadline in milliseconds. `Some(d)` lets the
        /// server shed the request with [`Response::ShedDeadline`] when it
        /// knows service cannot complete in time (a zero budget, or a
        /// brownout-tracked p99 above `d`). Absent (`null`, or omitted by
        /// pre-deadline clients) means the request is never shed.
        #[serde(default)]
        deadline_ms: Option<u64>,
        /// Priority class for load shedding (higher survives longer;
        /// 0 — the pre-priority default — is shed first). Only consulted
        /// when `deadline_ms` is set.
        #[serde(default)]
        priority: u8,
    },
    /// Select configurations for many kernels in one round trip.
    Batch {
        /// Kernel ids to select for, answered in the same order.
        kernel_ids: Vec<String>,
        /// Optional service deadline in milliseconds (see `Select`).
        #[serde(default)]
        deadline_ms: Option<u64>,
        /// Priority class for load shedding (see `Select`).
        #[serde(default)]
        priority: u8,
    },
    /// Execute iterations of a kernel on the session's capped runtime.
    Run {
        /// Kernel id.
        kernel_id: String,
        /// Number of iterations to execute (clamped to at least 1).
        iterations: u64,
        /// Client-generated idempotency key. When present, the engine
        /// memoizes the successful response under this key, and a retry
        /// carrying the same key replays those exact bytes instead of
        /// executing again — exactly-once in effect for resilient
        /// clients. Absent (`null`, or omitted by pre-key clients) means
        /// every send executes.
        idem: Option<u64>,
        /// Optional service deadline in milliseconds (see `Select`).
        #[serde(default)]
        deadline_ms: Option<u64>,
        /// Priority class for load shedding (see `Select`).
        #[serde(default)]
        priority: u8,
    },
    /// Report this node's residual power headroom to the arbiter.
    Report {
        /// Residual watts under the node's current budget (negative when
        /// the node overshoots).
        residual_w: f64,
        /// Optional measured-feedback payload for the session's online
        /// adaptation layer. Absent (`null`, or omitted by pre-adapt
        /// clients) means the Report only feeds the arbiter, exactly as
        /// before — the adaptive path stays bit-identical to static.
        #[serde(default)]
        feedback: Option<ReportFeedback>,
    },
    /// Ask for a metrics snapshot.
    Stats,
    /// Close this session politely.
    Bye,
    /// Poison request: shut the whole server down.
    Shutdown,
}

impl Request {
    /// Every label [`kind`](Self::kind) returns: the per-kind counters in
    /// `Metrics` are an array indexed by position in this table.
    pub(crate) const KINDS: [&'static str; 8] =
        ["hello", "select", "batch", "run", "report", "stats", "bye", "shutdown"];

    /// Short label for metrics bucketing, one of `KINDS`.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Hello => "hello",
            Request::Select { .. } => "select",
            Request::Batch { .. } => "batch",
            Request::Run { .. } => "run",
            Request::Report { .. } => "report",
            Request::Stats => "stats",
            Request::Bye => "bye",
            Request::Shutdown => "shutdown",
        }
    }

    /// The request's shedding envelope: `Some((deadline_ms, priority))`
    /// for deadline-carrying work, `None` for everything else (which is
    /// never shed).
    pub(crate) fn deadline(&self) -> Option<(u64, u8)> {
        match *self {
            Request::Select { deadline_ms: Some(d), priority, .. }
            | Request::Batch { deadline_ms: Some(d), priority, .. }
            | Request::Run { deadline_ms: Some(d), priority, .. } => Some((d, priority)),
            _ => None,
        }
    }
}

/// Measured power/performance feedback attached to a `Report`, consumed by
/// the per-session [`acs_core::AdaptivePredictor`]. The server compares the
/// measurement against the static model's prediction for `config` and feeds
/// the ratios through the session's Kalman filters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportFeedback {
    /// Kernel the measurement is for.
    pub kernel_id: String,
    /// Configuration the measurement was taken under.
    pub config: Configuration,
    /// Measured mean power over the reported window, W.
    pub measured_power_w: f64,
    /// Measured performance over the reported window (iterations/s).
    pub measured_perf: f64,
}

/// One configuration selection, as returned for `Select` and `Batch`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Selection {
    /// Kernel the selection is for.
    pub kernel_id: String,
    /// Cluster the kernel was classified into.
    pub cluster: usize,
    /// The selected configuration.
    pub config: Configuration,
    /// Predicted power at that configuration, W.
    pub predicted_power_w: f64,
    /// Predicted performance at that configuration (iterations/s).
    pub predicted_perf: f64,
    /// The session budget the selection was made under, W.
    pub budget_w: f64,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Handshake reply.
    Welcome {
        /// Server-assigned node id for this session.
        node_id: u64,
        /// The session's current power budget, W.
        budget_w: f64,
    },
    /// Reply to `Select`.
    Selected(Selection),
    /// Reply to `Batch`, selections in request order.
    BatchSelected {
        /// One selection per requested kernel id, in order.
        selections: Vec<Selection>,
    },
    /// Reply to `Run`.
    Ran {
        /// Kernel that ran.
        kernel_id: String,
        /// Iterations actually executed.
        iterations: u64,
        /// Mean measured power over those iterations, W.
        avg_power_w: f64,
        /// Total wall time over those iterations, s.
        total_time_s: f64,
        /// Configuration of the final iteration.
        config: Configuration,
        /// Degradation-ladder rung the kernel ended the request on.
        tier: String,
    },
    /// Reply to `Report`: the node's budget after the arbiter re-partitions.
    Budget {
        /// This node's new budget, W.
        budget_w: f64,
    },
    /// Reply to `Stats`. Boxed: the snapshot dwarfs every other variant,
    /// and serde is transparent to the box (same wire bytes).
    Stats(Box<StatsSnapshot>),
    /// Typed load shed: the request carried a `deadline_ms` the server
    /// knew it could not meet before starting service, so the work was
    /// dropped instead of served late. Clients should treat this as
    /// explicit backpressure, not an error.
    ShedDeadline {
        /// The deadline the request carried, ms.
        deadline_ms: u64,
        /// The priority class the request carried.
        priority: u8,
        /// The brownout level the server was at when it shed.
        brownout_level: u8,
    },
    /// Typed backpressure: the server (or a batch) is over its bound.
    Overloaded {
        /// Offered load (active sessions at admission, batch size for
        /// an oversized batch).
        load: u64,
        /// The configured bound that was exceeded.
        limit: u64,
    },
    /// Typed request failure (unknown kernel, malformed frame, ...).
    Error {
        /// Stable machine-readable code.
        code: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Reply to `Bye`.
    Bye,
    /// Reply to `Shutdown`.
    ShuttingDown,
}

/// Typed wire-protocol failures. Never a panic.
#[derive(Debug)]
pub enum ProtocolError {
    /// Underlying socket/stream failure.
    Io(std::io::Error),
    /// The stream ended inside a frame.
    Truncated {
        /// Bytes the frame promised.
        expected: usize,
        /// Bytes actually read before EOF.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The claimed payload length.
        len: usize,
        /// The configured maximum.
        max: usize,
    },
    /// The payload is not valid UTF-8.
    InvalidUtf8,
    /// The payload is valid UTF-8 but not a valid message.
    Malformed(String),
}

impl ProtocolError {
    /// Stable machine-readable code for `Response::Error`.
    pub(crate) fn code(&self) -> &'static str {
        match self {
            ProtocolError::Io(_) => "io",
            ProtocolError::Truncated { .. } => "truncated",
            ProtocolError::Oversized { .. } => "oversized",
            ProtocolError::InvalidUtf8 => "invalid-utf8",
            ProtocolError::Malformed(_) => "malformed",
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o failure: {e}"),
            ProtocolError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            ProtocolError::Oversized { len, max } => {
                write!(f, "oversized frame: length prefix {len} exceeds maximum {max}")
            }
            ProtocolError::InvalidUtf8 => write!(f, "frame payload is not valid UTF-8"),
            ProtocolError::Malformed(m) => write!(f, "malformed message: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Outcome of a non-blocking frame read.
#[derive(Debug)]
pub enum ReadOutcome<T> {
    /// A complete frame arrived.
    Frame(T),
    /// The peer closed the stream cleanly (EOF between frames).
    Eof,
    /// A read timeout fired before the first byte of a frame; nothing was
    /// consumed, so the caller may poll its shutdown flag and retry.
    Idle,
}

/// Bytes of the big-endian length prefix.
const HEADER_LEN: usize = 4;

/// Serialize `msg` onto the end of `out` as one length-prefixed frame: the
/// prefix is reserved, the body is written in place behind it, and the
/// length is patched in once known. On error `out` is left as it was.
pub(crate) fn encode_frame<T: Serialize>(out: &mut Vec<u8>, msg: &T) -> Result<(), ProtocolError> {
    let mark = out.len();
    out.extend_from_slice(&[0; HEADER_LEN]);
    let written = serde_json::to_writer(out, msg)
        .map_err(|e| ProtocolError::Malformed(e.to_string()))
        .and_then(|()| match out.len() - mark - HEADER_LEN {
            len if len > MAX_FRAME_LEN => Err(ProtocolError::Oversized { len, max: MAX_FRAME_LEN }),
            len => Ok(len as u32),
        });
    match written {
        Ok(len) => {
            out[mark..mark + HEADER_LEN].copy_from_slice(&len.to_be_bytes());
            Ok(())
        }
        Err(e) => {
            out.truncate(mark);
            Err(e)
        }
    }
}

/// What [`write_frame`] allocates up front: every message but `Stats` and
/// a long `Batch` fits, so it is built without regrowing.
const FRAME_CAPACITY: usize = 512;

/// Serialize `msg` and write it as one length-prefixed frame — prefix and
/// body in one `write_all`, so a `TCP_NODELAY` socket sends one segment.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> Result<(), ProtocolError> {
    let mut frame = Vec::with_capacity(FRAME_CAPACITY);
    encode_frame(&mut frame, msg)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// The payload length a prefix announces, validated against
/// [`MAX_FRAME_LEN`] before anything is allocated for it.
fn frame_len(header: [u8; HEADER_LEN]) -> Result<usize, ProtocolError> {
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversized { len, max: MAX_FRAME_LEN });
    }
    Ok(len)
}

/// Decode one frame payload.
fn decode_body<T: Deserialize>(body: &[u8]) -> Result<T, ProtocolError> {
    let text = std::str::from_utf8(body).map_err(|_| ProtocolError::InvalidUtf8)?;
    serde_json::from_str(text).map_err(|e| ProtocolError::Malformed(e.to_string()))
}

/// True for the error kinds a read timeout surfaces as.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Read exactly `buf.len()` bytes, treating timeouts as retryable only
/// once at least one byte has arrived (a frame, once started, is always
/// finished or declared truncated). Returns the byte count read when EOF
/// arrives early, `buf.len()` on success.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8], mut got: usize) -> Result<usize, ProtocolError> {
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Ok(got),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && got > 0 => {}
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    Ok(got)
}

/// Read one frame, distinguishing clean EOF and idle timeouts from errors.
///
/// On a stream with a read timeout, a timeout before the first byte of the
/// length prefix returns [`ReadOutcome::Idle`]; once a frame has started,
/// timeouts are retried until the frame completes or the stream ends
/// (→ [`ProtocolError::Truncated`]).
///
/// Reads exactly one frame's bytes and no more, so it suits a caller that
/// owns the stream between frames (clients, tests); a server connection
/// reads through a `FrameReader` instead.
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R) -> Result<ReadOutcome<T>, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0usize;
    // The first byte decides between Eof, Idle, and an in-flight frame.
    while got == 0 {
        match r.read(&mut header) {
            Ok(0) => return Ok(ReadOutcome::Eof),
            Ok(n) => got = n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Ok(ReadOutcome::Idle),
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    let got = read_full(r, &mut header, got)?;
    if got < header.len() {
        return Err(ProtocolError::Truncated { expected: header.len(), got });
    }
    let len = frame_len(header)?;
    let mut body = vec![0u8; len];
    let got = read_full(r, &mut body, 0)?;
    if got < len {
        return Err(ProtocolError::Truncated { expected: len, got });
    }
    decode_body(&body).map(ReadOutcome::Frame)
}

/// Bytes a [`FrameReader`] asks the stream for per read. A frame longer
/// than this grows the buffer for that frame only.
const READ_BUF_LEN: usize = 16 * 1024;

/// What [`FrameReader::fill`] found.
enum Fill {
    /// The bytes asked for are buffered.
    Ready,
    /// A read timeout fired with nothing buffered.
    Idle,
    /// The stream ended first.
    Eof,
}

/// A per-connection buffered frame reader with [`read_frame`]'s outcomes:
/// each read takes whatever the stream has (up to the buffer), and every
/// complete frame already buffered is decoded in place without another
/// read — a burst of pipelined frames costs one `read`, and no frame
/// allocates a body.
pub(crate) struct FrameReader {
    /// `buf[start..end]` holds bytes read but not yet consumed. The length
    /// is [`READ_BUF_LEN`] except while a longer frame is in flight.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    pub(crate) fn new() -> Self {
        Self { buf: vec![0u8; READ_BUF_LEN], start: 0, end: 0 }
    }

    /// Whether the next [`read_frame`](Self::read_frame) is answered from
    /// the buffer, without reading the stream.
    pub(crate) fn has_frame(&self) -> bool {
        match self.buf[self.start..self.end].split_first_chunk::<HEADER_LEN>() {
            Some((header, rest)) => rest.len() >= u32::from_be_bytes(*header) as usize,
            None => false,
        }
    }

    /// Read until `need` bytes are buffered (at most the frame in flight:
    /// `need` never reaches past it, so a grown buffer never over-reads).
    fn fill<R: Read>(&mut self, r: &mut R, need: usize) -> Result<Fill, ProtocolError> {
        if self.end - self.start >= need {
            return Ok(Fill::Ready);
        }
        // What is left is less than one frame: move it to the front so the
        // read below has the whole buffer to fill.
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        // Grow for a frame longer than the buffer; shrink back after it.
        let want = need.max(READ_BUF_LEN);
        if self.buf.len() != want {
            self.buf.resize(want, 0);
            self.buf.shrink_to(READ_BUF_LEN);
        }
        while self.end < need {
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) => return Ok(Fill::Eof),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Idle only between frames: a frame, once started, is
                // finished or declared truncated.
                Err(e) if is_timeout(&e) => {
                    if self.end == 0 {
                        return Ok(Fill::Idle);
                    }
                }
                Err(e) => return Err(ProtocolError::Io(e)),
            }
        }
        Ok(Fill::Ready)
    }

    /// The next frame, from the buffer if it is already there.
    pub(crate) fn read_frame<R: Read, T: Deserialize>(
        &mut self,
        r: &mut R,
    ) -> Result<ReadOutcome<T>, ProtocolError> {
        match self.fill(r, HEADER_LEN)? {
            Fill::Idle => return Ok(ReadOutcome::Idle),
            Fill::Eof if self.start == self.end => return Ok(ReadOutcome::Eof),
            Fill::Ready | Fill::Eof => {}
        }
        // `Ready` buffered a whole prefix; `Eof` stopped short of one.
        let Some(header) = self.buf[self.start..self.end].first_chunk::<HEADER_LEN>() else {
            let got = self.end - self.start;
            return Err(ProtocolError::Truncated { expected: HEADER_LEN, got });
        };
        let len = frame_len(*header)?;
        if !matches!(self.fill(r, HEADER_LEN + len)?, Fill::Ready) {
            let got = self.end - self.start - HEADER_LEN;
            return Err(ProtocolError::Truncated { expected: len, got });
        }
        let body = self.start + HEADER_LEN;
        self.start = body + len;
        decode_body(&self.buf[body..body + len]).map(ReadOutcome::Frame)
    }
}

/// Blocking convenience: read one frame, mapping EOF to `None`.
///
/// Intended for streams *without* a read timeout (clients, tests); an idle
/// timeout is reported as an I/O error rather than silently retried.
pub fn read_frame_blocking<R: Read, T: Deserialize>(r: &mut R) -> Result<Option<T>, ProtocolError> {
    match read_frame(r)? {
        ReadOutcome::Frame(t) => Ok(Some(t)),
        ReadOutcome::Eof => Ok(None),
        ReadOutcome::Idle => Err(ProtocolError::Io(std::io::Error::new(
            ErrorKind::TimedOut,
            "read timed out waiting for a frame",
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scripted::{Event, Scripted, Step};
    use std::io::Cursor;

    fn roundtrip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(msg: &T) {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg).unwrap();
        let back: T = read_frame_blocking(&mut Cursor::new(&buf)).unwrap().unwrap();
        assert_eq!(&back, msg);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip(&Request::Hello);
        roundtrip(&Request::Select {
            kernel_id: "LU/Small/lud".into(),
            deadline_ms: None,
            priority: 0,
        });
        roundtrip(&Request::Select {
            kernel_id: "LU/Small/lud".into(),
            deadline_ms: Some(25),
            priority: 200,
        });
        roundtrip(&Request::Batch {
            kernel_ids: vec!["a".into(), "b".into()],
            deadline_ms: None,
            priority: 0,
        });
        roundtrip(&Request::Run {
            kernel_id: "x".into(),
            iterations: 5,
            idem: None,
            deadline_ms: None,
            priority: 0,
        });
        roundtrip(&Request::Run {
            kernel_id: "x".into(),
            iterations: 5,
            idem: Some(42),
            deadline_ms: Some(10),
            priority: 1,
        });
        roundtrip(&Request::Report { residual_w: -1.25, feedback: None });
        roundtrip(&Request::Report {
            residual_w: 3.5,
            feedback: Some(ReportFeedback {
                kernel_id: "LU/Small/lud".into(),
                config: Configuration::all()[0],
                measured_power_w: 41.5,
                measured_perf: 12.25,
            }),
        });
        roundtrip(&Request::Stats);
        roundtrip(&Request::Bye);
        roundtrip(&Request::Shutdown);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip(&Response::Welcome { node_id: 3, budget_w: 40.0 });
        roundtrip(&Response::Overloaded { load: 9, limit: 8 });
        roundtrip(&Response::ShedDeadline { deadline_ms: 5, priority: 3, brownout_level: 2 });
        roundtrip(&Response::Error { code: "oversized".into(), detail: "big".into() });
        roundtrip(&Response::Bye);
        roundtrip(&Response::ShuttingDown);
    }

    #[test]
    fn pre_key_run_frames_parse_with_no_idem() {
        // Clients older than the idempotency key omit the field entirely;
        // the decoder must treat that as `idem: None`, not a malformed
        // frame, so old loadgen recordings stay replayable.
        let json = r#"{"Run":{"kernel_id":"x","iterations":2}}"#;
        let mut buf = (json.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(json.as_bytes());
        let req: Request = read_frame_blocking(&mut Cursor::new(&buf)).unwrap().unwrap();
        assert_eq!(
            req,
            Request::Run {
                kernel_id: "x".into(),
                iterations: 2,
                idem: None,
                deadline_ms: None,
                priority: 0,
            }
        );
    }

    #[test]
    fn pre_deadline_frames_parse_with_no_deadline_and_zero_priority() {
        // Clients older than the shedding layer omit both fields; the
        // decoder must default to "no deadline, lowest priority" so old
        // recordings replay with shedding permanently inert.
        for (json, kind) in [
            (r#"{"Select":{"kernel_id":"x"}}"#, "select"),
            (r#"{"Batch":{"kernel_ids":["x","y"]}}"#, "batch"),
            (r#"{"Run":{"kernel_id":"x","iterations":1,"idem":7}}"#, "run"),
        ] {
            let mut buf = (json.len() as u32).to_be_bytes().to_vec();
            buf.extend_from_slice(json.as_bytes());
            let req: Request = read_frame_blocking(&mut Cursor::new(&buf)).unwrap().unwrap();
            assert_eq!(req.kind(), kind);
            assert_eq!(req.deadline(), None, "pre-deadline {kind} frames are never shed");
        }
    }

    #[test]
    fn pre_adapt_report_frames_parse_with_no_feedback() {
        // Clients older than the adaptation layer omit the feedback field
        // entirely; the decoder must treat that as `feedback: None`, not a
        // malformed frame, so old loadgen recordings stay replayable.
        let json = r#"{"Report":{"residual_w":2.5}}"#;
        let mut buf = (json.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(json.as_bytes());
        let req: Request = read_frame_blocking(&mut Cursor::new(&buf)).unwrap().unwrap();
        assert_eq!(req, Request::Report { residual_w: 2.5, feedback: None });
    }

    #[test]
    fn eof_between_frames_is_clean() {
        let empty: Vec<u8> = Vec::new();
        match read_frame::<_, Request>(&mut Cursor::new(&empty)).unwrap() {
            ReadOutcome::Eof => {}
            other => panic!("expected Eof, got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_and_body_are_typed() {
        // 2 of 4 header bytes.
        let err = read_frame::<_, Request>(&mut Cursor::new(&[0u8, 0][..])).unwrap_err();
        assert!(matches!(err, ProtocolError::Truncated { expected: 4, got: 2 }));
        // Header promises 10 bytes, body delivers 3.
        let mut buf = 10u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        let err = read_frame::<_, Request>(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, ProtocolError::Truncated { expected: 10, got: 3 }));
    }

    #[test]
    fn oversized_prefix_rejected_before_allocation() {
        let buf = (u32::MAX).to_be_bytes();
        let err = read_frame::<_, Request>(&mut Cursor::new(&buf[..])).unwrap_err();
        match err {
            ProtocolError::Oversized { len, max } => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, MAX_FRAME_LEN);
            }
            other => panic!("expected Oversized, got {other}"),
        }
    }

    #[test]
    fn invalid_utf8_and_bad_json_are_typed() {
        let mut buf = 2u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[0xff, 0xfe]);
        let err = read_frame::<_, Request>(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, ProtocolError::InvalidUtf8));

        let mut buf = 4u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"{{{{");
        let err = read_frame::<_, Request>(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, ProtocolError::Malformed(_)));

        // Valid UTF-8 whose `\u` escape runs into a two-byte character:
        // the four "hex digits" end inside `é`.
        let json = "{\"Select\":{\"kernel_id\":\"\\u123é\"}}";
        let mut buf = (json.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(json.as_bytes());
        let err = read_frame::<_, Request>(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, ProtocolError::Malformed(_)));
    }

    #[test]
    fn encode_frame_appends_in_place_and_leaves_the_buffer_alone_on_error() {
        let mut out = b"earlier replies".to_vec();
        encode_frame(&mut out, &Request::Bye).unwrap();
        let mut alone = Vec::new();
        write_frame(&mut alone, &Request::Bye).unwrap();
        assert_eq!(out, [b"earlier replies".as_slice(), &alone].concat());
        assert_eq!(alone, [&5u32.to_be_bytes()[..], b"\"Bye\""].concat());

        let huge = Request::Select {
            kernel_id: "x".repeat(MAX_FRAME_LEN),
            deadline_ms: None,
            priority: 0,
        };
        let before = out.clone();
        let err = encode_frame(&mut out, &huge).unwrap_err();
        assert!(matches!(err, ProtocolError::Oversized { len, max }
            if len > MAX_FRAME_LEN && max == MAX_FRAME_LEN));
        assert_eq!(out, before);
    }

    /// Every outcome `next` yields until the stream ends, as text.
    fn outcomes(
        mut next: impl FnMut() -> Result<ReadOutcome<Request>, ProtocolError>,
    ) -> Vec<String> {
        let mut seen = Vec::new();
        loop {
            match next() {
                Ok(ReadOutcome::Frame(request)) => seen.push(format!("{request:?}")),
                Ok(other) => {
                    seen.push(format!("{other:?}"));
                    return seen;
                }
                Err(err) => {
                    seen.push(format!("{}: {err}", err.code()));
                    return seen;
                }
            }
        }
    }

    #[test]
    fn frame_reader_agrees_with_read_frame_at_every_cut_and_chunking() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Hello).unwrap();
        let select =
            Request::Select { kernel_id: "LU/Small/lud".into(), deadline_ms: Some(5), priority: 1 };
        write_frame(&mut wire, &select).unwrap();
        wire.extend_from_slice(&2u32.to_be_bytes());
        wire.extend_from_slice(b"{}");
        for cut in 0..=wire.len() {
            let mut cursor = Cursor::new(&wire[..cut]);
            let expected = outcomes(|| read_frame(&mut cursor));
            for chunk in [1, 3, wire.len()] {
                let steps = wire[..cut].chunks(chunk).map(|c| Step::Data(c.to_vec()));
                let mut stream = Scripted::new(steps);
                let mut reader = FrameReader::new();
                let got = outcomes(|| reader.read_frame(&mut stream));
                assert_eq!(got, expected, "cut {cut}, chunks of {chunk}");
            }
        }
    }

    #[test]
    fn frame_reader_decodes_a_burst_from_one_read() {
        let mut wire = Vec::new();
        for _ in 0..8 {
            write_frame(&mut wire, &Request::Stats).unwrap();
        }
        let mut stream = Scripted::new([Step::Data(wire)]);
        let mut reader = FrameReader::new();
        assert!(!reader.has_frame());
        for i in 0..8 {
            let frame = reader.read_frame::<_, Request>(&mut stream).unwrap();
            assert!(matches!(frame, ReadOutcome::Frame(Request::Stats)));
            assert_eq!(reader.has_frame(), i < 7, "after frame {i}");
        }
        assert_eq!(stream.events, [Event::Read], "eight frames, one read");
        assert!(matches!(reader.read_frame::<_, Request>(&mut stream), Ok(ReadOutcome::Eof)));
    }

    #[test]
    fn frame_reader_is_idle_between_frames_and_patient_inside_one() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Bye).unwrap();
        let tail = wire.split_off(2);
        let mut stream = Scripted::new([
            Step::Timeout,
            Step::Data(wire),
            Step::Timeout,
            Step::Timeout,
            Step::Data(tail),
            Step::Timeout,
        ]);
        let mut reader = FrameReader::new();
        assert!(matches!(reader.read_frame::<_, Request>(&mut stream), Ok(ReadOutcome::Idle)));
        let frame = reader.read_frame::<_, Request>(&mut stream).unwrap();
        assert!(matches!(frame, ReadOutcome::Frame(Request::Bye)));
        assert!(matches!(reader.read_frame::<_, Request>(&mut stream), Ok(ReadOutcome::Idle)));
    }

    #[test]
    fn frame_reader_rejects_an_oversized_prefix_before_growing() {
        let mut stream = Scripted::new([Step::Data(u32::MAX.to_be_bytes().to_vec())]);
        let mut reader = FrameReader::new();
        let err = reader.read_frame::<_, Request>(&mut stream).unwrap_err();
        assert!(matches!(err, ProtocolError::Oversized { len, max }
            if len == u32::MAX as usize && max == MAX_FRAME_LEN));
        assert_eq!(reader.buf.len(), READ_BUF_LEN);
    }

    #[test]
    fn frame_reader_grows_for_a_long_frame_only_while_it_is_in_flight() {
        let long = Request::Batch {
            kernel_ids: (0..2_000).map(|i| format!("bench/input/kernel-{i}")).collect(),
            deadline_ms: None,
            priority: 0,
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Hello).unwrap();
        write_frame(&mut wire, &long).unwrap();
        assert!(wire.len() > 2 * READ_BUF_LEN);
        write_frame(&mut wire, &Request::Bye).unwrap();
        let mut stream = Scripted::new([Step::Data(wire)]);
        let mut reader = FrameReader::new();
        for expected in [Request::Hello, long, Request::Bye] {
            match reader.read_frame::<_, Request>(&mut stream).unwrap() {
                ReadOutcome::Frame(request) => assert_eq!(request, expected),
                other => panic!("expected a frame, got {other:?}"),
            }
        }
        assert_eq!(reader.buf.len(), READ_BUF_LEN, "back to size once the long frame is gone");
    }

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(ProtocolError::InvalidUtf8.code(), "invalid-utf8");
        assert_eq!(ProtocolError::Oversized { len: 1, max: 0 }.code(), "oversized");
        assert_eq!(ProtocolError::Truncated { expected: 4, got: 0 }.code(), "truncated");
        assert_eq!(ProtocolError::Malformed("x".into()).code(), "malformed");
    }
}
