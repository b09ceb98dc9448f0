//! Spans recorded from outside the program, around each call into a layer.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! operation it belongs to. Spans live in a buffer allocated up front and
//! are written to `benchmark/out/trace.json` when the traced run ends. A
//! layer's *self time* is its span minus the part its children cover;
//! the cost of taking the two timestamps is calibrated at start-up and
//! subtracted, so a 100 ns layer is not reported as 165 ns.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// "No parent": the span is the root of its operation.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are ns since the tracer was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name (a module path plus the call, e.g. `serve.engine.select`).
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The operation (request, session, evaluation) the span belongs to.
    pub op: u64,
}

/// What timing itself costs, measured once per tracer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Calibration {
    /// Duration an empty span reports, ns (one `Instant::now()` pair).
    pub empty_span_ns: f64,
    /// What one enter/exit pair adds to the span enclosing it, ns.
    pub span_cost_ns: f64,
}

/// A single-threaded span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    dropped: u64,
    /// Timing overhead to subtract when computing self times.
    pub calibration: Calibration,
}

impl Tracer {
    /// A tracer with room for `capacity` spans; further spans are counted
    /// as dropped, never reallocated for.
    pub fn new(capacity: usize) -> Self {
        let mut tracer = Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
            dropped: 0,
            calibration: Calibration::default(),
        };
        tracer.calibrate();
        tracer
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Open a span under the current one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let id = self.spans.len() as u32;
        self.stack.push(id);
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, op });
        // The start is read last and the end first, so the span covers as
        // little of the tracer's own bookkeeping as possible.
        let now = self.now_ns();
        self.spans[id as usize].start_ns = now;
        id
    }

    /// Close the span `enter` returned.
    pub fn exit(&mut self, id: u32) {
        let now = self.now_ns();
        if id == ROOT {
            return;
        }
        self.spans[id as usize].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Measure what an empty span reports and what it costs its parent,
    /// then forget the spans used to find out.
    fn calibrate(&mut self) {
        const ROUNDS: usize = 2_000;
        let rounds = ROUNDS.min(self.spans.capacity().saturating_sub(1));
        if rounds == 0 {
            return;
        }
        let outer = self.enter("calibrate", 0);
        for _ in 0..rounds {
            let id = self.enter("calibrate.empty", 0);
            self.exit(id);
        }
        self.exit(outer);
        let mut empties: Vec<f64> =
            self.spans[1..].iter().map(|s| (s.end_ns - s.start_ns) as f64).collect();
        empties.sort_by(|a, b| a.total_cmp(b));
        let outer_ns = (self.spans[0].end_ns - self.spans[0].start_ns) as f64;
        self.calibration = Calibration {
            empty_span_ns: empties[empties.len() / 2],
            span_cost_ns: outer_ns / rounds as f64,
        };
        self.spans.clear();
        self.stack.clear();
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Index of the next span to be recorded (marks where a replay starts).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as JSON, one object per span.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"empty_span_ns\":{},\"span_cost_ns\":{},\"dropped\":{},\"spans\":[",
            self.calibration.empty_span_ns, self.calibration.span_cost_ns, self.dropped
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            write!(
                out,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// Self time of every span, ns: its duration minus what its direct
/// children cover, with the timing overhead taken out of both. `spans`
/// may be any sub-slice whose parents lie inside it; `base` is the index
/// of `spans[0]` in the tracer's buffer.
pub fn self_times(spans: &[Span], base: usize, calibration: Calibration) -> Vec<f64> {
    let duration =
        |s: &Span| (s.end_ns.saturating_sub(s.start_ns)) as f64 - calibration.empty_span_ns;
    let mut own: Vec<f64> = spans.iter().map(duration).collect();
    for span in spans {
        if span.parent == ROOT || (span.parent as usize) < base {
            continue;
        }
        // A child occupies its parent for its own (calibrated) duration
        // plus the cost of opening and closing it.
        own[span.parent as usize - base] -= duration(span) + calibration.span_cost_ns;
    }
    own
}

/// Median self time per span name, ns, plus how many spans had the name.
pub fn median_self_by_name(
    spans: &[Span],
    base: usize,
    calibration: Calibration,
) -> BTreeMap<&'static str, (f64, usize)> {
    let own = self_times(spans, base, calibration);
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, t) in spans.iter().zip(own) {
        by_name.entry(span.name).or_default().push(t);
    }
    by_name
        .into_iter()
        .map(|(name, mut times)| {
            times.sort_by(|a, b| a.total_cmp(b));
            (name, (times[times.len() / 2].max(0.0), times.len()))
        })
        .collect()
}

/// Mean, per root span, of the self times of everything beneath it: what
/// the layers account for in one operation, ns. The root's own self time
/// (the replay loop's glue) is left out.
pub fn layers_sum_per_op(spans: &[Span], base: usize, calibration: Calibration) -> f64 {
    let own = self_times(spans, base, calibration);
    let roots = spans.iter().filter(|s| s.parent == ROOT).count();
    if roots == 0 {
        return 0.0;
    }
    let below: f64 =
        spans.iter().zip(&own).filter(|(s, _)| s.parent != ROOT).map(|(_, t)| t.max(0.0)).sum();
    below / roots as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,1000] ─ a [100,400] ─ a1 [150,250]
        //                └ b [500,900]
        let spans = [
            span("root", 0, 1000, ROOT),
            span("a", 100, 400, 0),
            span("a1", 150, 250, 1),
            span("b", 500, 900, 0),
        ];
        let own = self_times(&spans, 0, Calibration::default());
        assert_eq!(own, vec![300.0, 200.0, 100.0, 400.0]);
        // Everything below the root: 200 + 100 + 400.
        assert_eq!(layers_sum_per_op(&spans, 0, Calibration::default()), 700.0);
    }

    #[test]
    fn calibration_comes_out_of_spans_and_their_parents() {
        let spans = [span("root", 0, 1000, ROOT), span("a", 100, 400, 0), span("b", 500, 900, 0)];
        let cal = Calibration { empty_span_ns: 20.0, span_cost_ns: 50.0 };
        let own = self_times(&spans, 0, cal);
        // a: 300 - 20; b: 400 - 20; root: 1000 - 20 - (280 + 50) - (380 + 50).
        assert_eq!(own, vec![220.0, 280.0, 380.0]);
    }

    #[test]
    fn sub_slices_resolve_parents_through_the_base() {
        let all = [
            span("earlier", 0, 10, ROOT),
            span("root", 100, 200, ROOT),
            span("child", 120, 150, 1),
        ];
        let own = self_times(&all[1..], 1, Calibration::default());
        assert_eq!(own, vec![70.0, 30.0]);
    }

    #[test]
    fn tracer_records_nesting_and_calibrates() {
        let mut tracer = Tracer::new(4096);
        assert!(tracer.calibration.empty_span_ns >= 0.0);
        assert!(tracer.calibration.span_cost_ns > 0.0);
        assert!(tracer.spans().is_empty(), "calibration spans are discarded");
        let outer = tracer.enter("outer", 7);
        tracer.span("inner", 7, || std::hint::black_box(1 + 1));
        tracer.exit(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", ROOT));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].op), ("inner", 0, 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn a_full_buffer_drops_instead_of_growing() {
        let mut tracer = Tracer::new(2);
        let a = tracer.enter("a", 0);
        let b = tracer.enter("b", 0);
        let c = tracer.enter("c", 0);
        assert_eq!(c, ROOT);
        tracer.exit(c);
        tracer.exit(b);
        tracer.exit(a);
        assert_eq!((tracer.spans().len(), tracer.dropped()), (2, 1));
    }
}
