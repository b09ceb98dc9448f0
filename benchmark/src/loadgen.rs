//! The load generators' shared machinery: the slice clock, the recorder,
//! and the pipelined closed-loop driver.
//!
//! A timed phase is a discarded warm-up followed by equal slices of wall
//! time. Every lane (one generator thread, one connection) files each
//! completed operation under the slice its reply arrived in; after the
//! phase the lanes' slices are merged, and the runner picks each metric's
//! value from them. Lanes share nothing while they run: no mutex, no
//! atomic, no log.

use crate::script::{Entry, Script};
use crate::stats::Histogram;
use crate::sut::Conn;
use crate::Res;
use std::time::{Duration, Instant};

/// The shape of one timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Discarded lead-in.
    pub warmup: Duration,
    /// Measured time, cut into `slices`.
    pub measure: Duration,
    /// Number of equal slices.
    pub slices: usize,
}

impl Phase {
    /// A phase measuring for `seconds` in slices of a tenth of a second
    /// (at least 8 of them), with a tenth of `seconds` (at least 100 ms)
    /// discarded first.
    pub fn of(seconds: f64) -> Self {
        Self {
            warmup: Duration::from_secs_f64((seconds / 10.0).max(0.1)),
            measure: Duration::from_secs_f64(seconds),
            slices: ((seconds / 0.1).round() as usize).max(8),
        }
    }

    /// A clock under which nothing is ever measured and nothing ever
    /// ends: for segments that run a fixed number of operations.
    pub fn unmeasured() -> Clock {
        Clock { t0: Instant::now() + Duration::from_secs(1 << 30), slice_ns: 1, slices: 0 }
    }

    /// Fix the phase's start to now.
    pub fn start(&self) -> Clock {
        let t0 = Instant::now() + self.warmup;
        Clock {
            t0,
            slice_ns: (self.measure.as_nanos() / self.slices as u128) as u64,
            slices: self.slices,
        }
    }
}

/// Where an instant falls in a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tick {
    /// Before the measured part.
    Warmup,
    /// In this slice.
    Slice(usize),
    /// After the last slice.
    Done,
}

/// A started phase; shared read-only by every lane.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    t0: Instant,
    slice_ns: u64,
    slices: usize,
}

impl Clock {
    /// Classify `now`.
    pub fn tick(&self, now: Instant) -> Tick {
        let Some(since) = now.checked_duration_since(self.t0) else {
            return Tick::Warmup;
        };
        let slice = (since.as_nanos() as u64 / self.slice_ns.max(1)) as usize;
        if slice < self.slices {
            Tick::Slice(slice)
        } else {
            Tick::Done
        }
    }
}

/// One slice of one lane.
#[derive(Debug, Clone, Copy)]
struct LaneSlice {
    ops: u64,
    /// The completion preceding the slice's first, and its last: the
    /// time its operations took to complete, not rounded to the slice.
    first: Instant,
    last: Instant,
    /// Median latency of its operations, ns.
    p50_ns: f64,
    /// Process CPU time when the lane entered and left the slice, s
    /// (sampling lanes only).
    cpu_s: Option<(f64, f64)>,
}

/// One lane's measurements: per slice a count, a time span and a median
/// latency; over the phase one latency histogram. Its size does not
/// depend on how many operations complete.
#[derive(Debug)]
pub struct LaneRecorder {
    slices: Vec<Option<LaneSlice>>,
    /// The slice operations are currently completing in.
    open: Option<usize>,
    /// Latencies of the open slice.
    current: Histogram,
    /// Latencies of every closed slice.
    all: Histogram,
    /// The lane's previous completion (or when it started).
    previous: Instant,
    /// Whether this lane reads the process's CPU time at slice
    /// boundaries (one lane per phase does).
    samples_cpu: bool,
    attempted: u64,
    failed: u64,
}

impl LaneRecorder {
    /// An empty recorder for `clock`'s phase.
    pub fn new(clock: &Clock, samples_cpu: bool) -> Self {
        Self {
            slices: vec![None; clock.slices],
            open: None,
            current: Histogram::default(),
            all: Histogram::default(),
            previous: Instant::now(),
            samples_cpu,
            attempted: 0,
            failed: 0,
        }
    }

    /// File one completed operation; returns where it fell.
    pub fn complete(&mut self, clock: &Clock, now: Instant, latency_ns: u64, ok: bool) -> Tick {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        let tick = clock.tick(now);
        let slot = match tick {
            Tick::Slice(k) => Some(k),
            Tick::Warmup | Tick::Done => None,
        };
        if slot != self.open {
            self.cross(slot);
        }
        if let Some(slice) = slot.and_then(|k| self.slices[k].as_mut()) {
            slice.ops += 1;
            slice.last = now;
            self.current.record(latency_ns);
        }
        self.previous = now;
        tick
    }

    /// Leave the open slice (settling its median latency) and enter `slot`.
    fn cross(&mut self, slot: Option<usize>) {
        let cpu_s = self.samples_cpu.then(crate::rusage::cpu_seconds);
        if let Some(slice) = self.open.and_then(|k| self.slices[k].as_mut()) {
            slice.p50_ns = self.current.quantile(0.5).unwrap_or(f64::NAN);
            slice.cpu_s = slice.cpu_s.zip(cpu_s).map(|((entered, _), left)| (entered, left));
            self.all.merge(&self.current);
            self.current.clear();
        }
        self.open = slot;
        if let Some(k) = slot {
            self.slices[k] = Some(LaneSlice {
                ops: 0,
                first: self.previous,
                last: self.previous,
                p50_ns: f64::NAN,
                cpu_s: cpu_s.map(|entered| (entered, entered)),
            });
        }
    }
}

/// One slice of a phase, all lanes together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Operations completed.
    pub ops: u64,
    /// Completion rate, 1/s: per lane, its operations over the time from
    /// the completion before the first of them to the last of them (so a
    /// lane completing tens of operations per slice is not rounded to a
    /// whole number of them); lanes' rates add.
    pub rate: f64,
    /// Median latency, us (lanes' medians weighted by their counts).
    pub p50_us: f64,
    /// Process CPU time per operation, us; NaN where the sampling lane
    /// completed nothing.
    pub cpu_us_per_op: f64,
}

/// What a phase measured, lanes merged.
#[derive(Debug, Clone)]
pub struct Recorder {
    /// The slices in which anything completed, in time order.
    pub slices: Vec<Slice>,
    /// Every measured latency.
    pub latency: Histogram,
    /// Operations attempted in the phase, warm-up and drain included.
    pub attempted: u64,
    /// Attempted operations that failed, were refused or came back wrong.
    pub failed: u64,
}

impl Recorder {
    /// Merge the lanes of one phase.
    pub fn merge(mut lanes: Vec<LaneRecorder>) -> Self {
        let mut latency = Histogram::default();
        for lane in &mut lanes {
            lane.cross(None);
            latency.merge(&lane.all);
        }
        let n = lanes.first().map_or(0, |lane| lane.slices.len());
        let slices = (0..n)
            .filter_map(|k| {
                let parts: Vec<LaneSlice> =
                    lanes.iter().filter_map(|lane| lane.slices[k]).filter(|s| s.ops > 0).collect();
                let ops: u64 = parts.iter().map(|s| s.ops).sum();
                if ops == 0 {
                    return None;
                }
                let rate = parts
                    .iter()
                    .filter(|s| s.last > s.first)
                    .map(|s| s.ops as f64 / s.last.duration_since(s.first).as_secs_f64())
                    .sum();
                let p50_ns =
                    parts.iter().map(|s| s.ops as f64 * s.p50_ns).sum::<f64>() / ops as f64;
                let cpu_us_per_op = parts
                    .iter()
                    .find_map(|s| s.cpu_s)
                    .map_or(f64::NAN, |(entered, left)| (left - entered) * 1e6 / ops as f64);
                Some(Slice { ops, rate, p50_us: p50_ns / 1e3, cpu_us_per_op })
            })
            .collect();
        Self {
            slices,
            latency,
            attempted: lanes.iter().map(|lane| lane.attempted).sum(),
            failed: lanes.iter().map(|lane| lane.failed).sum(),
        }
    }

    /// Operations that fell in a slice.
    pub fn measured_ops(&self) -> u64 {
        self.slices.iter().map(|s| s.ops).sum()
    }
}

/// One connection and its place in its request stream.
pub struct Lane {
    /// The connection.
    pub conn: Conn,
    /// Number of the next request to send; phases continue the stream.
    pub next: u64,
}

/// What a workload does with each reply beyond the accept/reject check
/// (count it, keep a sample to judge later). `()` does nothing.
pub trait Observer: Send {
    /// One reply: the entry's index, the entry, the reply body, and
    /// whether the reply fell in a measured slice.
    fn reply(&mut self, index: usize, entry: &Entry, body: &[u8], measured: bool);
}

impl Observer for () {
    fn reply(&mut self, _: usize, _: &Entry, _: &[u8], _: bool) {}
}

/// Drive one lane for one phase as a closed loop with `window` requests
/// outstanding: prime the window, then send the next request each time a
/// reply arrives, until the clock says done or `limit` requests have
/// been sent; then drain.
pub fn drive_pipelined(
    lane: &mut Lane,
    script: Script<'_>,
    window: usize,
    limit: u64,
    clock: &Clock,
    recorder: &mut LaneRecorder,
    observer: &mut impl Observer,
) -> Res<()> {
    // Ring of (send time, entry index) for the requests in flight.
    let mut in_flight = vec![(Instant::now(), 0usize); window];
    let (mut sent, mut received) = (0usize, 0usize);
    let mut sending = true;
    let io = |e: std::io::Error| format!("connection failed mid-phase: {e}");

    while sent < window.min(limit as usize) {
        let index = script.index(lane.next);
        in_flight[sent % window] = (Instant::now(), index);
        lane.conn.send(&script.entries[index].frame).map_err(io)?;
        lane.next += 1;
        sent += 1;
    }
    while received < sent {
        let body = lane.conn.recv().map_err(io)?;
        let now = Instant::now();
        let (sent_at, index) = in_flight[received % window];
        received += 1;
        let entry = &script.entries[index];
        let ok = entry.accepts(body);
        let latency_ns = now.duration_since(sent_at).as_nanos() as u64;
        let tick = recorder.complete(clock, now, latency_ns, ok);
        observer.reply(index, entry, body, matches!(tick, Tick::Slice(_)));
        sending &= tick != Tick::Done && (sent as u64) < limit;
        if sending {
            let index = script.index(lane.next);
            in_flight[sent % window] = (now, index);
            lane.conn.send(&script.entries[index].frame).map_err(io)?;
            lane.next += 1;
            sent += 1;
        }
    }
    Ok(())
}

/// How long lanes run: a timed phase, or a fixed number of requests each.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    /// Until the phase's clock says done.
    Timed(Phase),
    /// Exactly this many requests per lane, none of them measured.
    Counted(u64),
}

/// Run `lanes` concurrently, one thread per lane, and merge what they
/// recorded.
pub fn drive_lanes<O: Observer>(
    lanes: &mut [Lane],
    scripts: &[Script<'_>],
    observers: &mut [O],
    window: usize,
    length: Length,
) -> Res<Recorder> {
    assert!(
        lanes.len() == observers.len() && lanes.len() == scripts.len(),
        "one script and one observer per lane"
    );
    let (clock, limit) = match length {
        Length::Timed(phase) => (phase.start(), u64::MAX),
        Length::Counted(requests) => (Phase::unmeasured(), requests),
    };
    let results: Vec<Res<LaneRecorder>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .zip(scripts)
            .zip(observers.iter_mut())
            .enumerate()
            .map(|(n, ((lane, &script), observer))| {
                scope.spawn(move || {
                    let mut recorder = LaneRecorder::new(&clock, n == 0);
                    drive_pipelined(lane, script, window, limit, &clock, &mut recorder, observer)?;
                    Ok(recorder)
                })
            })
            .collect();
        handles.into_iter().map(join_lane).collect()
    });
    Ok(Recorder::merge(results.into_iter().collect::<Res<_>>()?))
}

/// Wait for a generator thread; a panic in one is a failed run.
pub fn join_lane<T>(handle: std::thread::ScopedJoinHandle<'_, Res<T>>) -> Res<T> {
    handle.join().unwrap_or_else(|_| Err("a generator thread panicked".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_sorts_instants_into_warmup_slices_and_done() {
        let phase = Phase {
            warmup: Duration::from_millis(100),
            measure: Duration::from_millis(800),
            slices: 8,
        };
        let clock = phase.start();
        let t0 = clock.t0;
        assert_eq!(clock.tick(t0 - Duration::from_millis(1)), Tick::Warmup);
        assert_eq!(clock.tick(t0), Tick::Slice(0));
        assert_eq!(clock.tick(t0 + Duration::from_millis(99)), Tick::Slice(0));
        assert_eq!(clock.tick(t0 + Duration::from_millis(100)), Tick::Slice(1));
        assert_eq!(clock.tick(t0 + Duration::from_millis(799)), Tick::Slice(7));
        assert_eq!(clock.tick(t0 + Duration::from_millis(800)), Tick::Done);
    }

    #[test]
    fn recorder_counts_everything_but_measures_slices_only() {
        let phase = Phase {
            warmup: Duration::from_millis(50),
            measure: Duration::from_millis(80),
            slices: 8,
        };
        let clock = phase.start();
        let mut a = LaneRecorder::new(&clock, false);
        a.complete(&clock, clock.t0 - Duration::from_millis(10), 1_000, true);
        a.complete(&clock, clock.t0 + Duration::from_millis(5), 2_000, true);
        a.complete(&clock, clock.t0 + Duration::from_millis(15), 3_000, false);
        a.complete(&clock, clock.t0 + Duration::from_millis(500), 4_000, true);
        let mut b = LaneRecorder::new(&clock, false);
        b.complete(&clock, clock.t0 + Duration::from_millis(6), 2_500, true);
        let all = Recorder::merge(vec![a, b]);
        assert_eq!((all.attempted, all.failed, all.measured_ops()), (5, 1, 3));
        assert_eq!(all.latency.count(), 3);
        // Only slices 0 and 1 saw completions.
        assert_eq!(all.slices.iter().map(|s| s.ops).collect::<Vec<_>>(), vec![2, 1]);
        // Lane a completed one operation in slice 0, 15 ms after its
        // previous completion, and one in slice 1, 10 ms after that;
        // lane b adds its own rate to slice 0.
        assert!(all.slices[0].rate > 1.0 / 0.015 + 1e-9, "lanes' rates add");
        assert!((all.slices[1].rate - 1.0 / 0.010).abs() < 1e-6, "{}", all.slices[1].rate);
        // Medians: slice 0 holds 2 us and 2.5 us operations, slice 1 a 3 us one.
        assert!((all.slices[0].p50_us - 2.25).abs() < 0.03, "{}", all.slices[0].p50_us);
        assert!((all.slices[1].p50_us - 3.0).abs() < 0.03, "{}", all.slices[1].p50_us);
        assert!(all.slices[0].cpu_us_per_op.is_nan(), "no lane sampled CPU time");
    }
}
