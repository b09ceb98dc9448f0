//! Scheduling timeline: an ordered record of what the runtime did and why.
//!
//! The paper's profiling library keeps a run history "designed to provide
//! a foundation for dynamic scheduling" (Section III-D); a scheduler that
//! cannot explain its decisions cannot be debugged. The timeline is that
//! history for [`CappedRuntime`](crate::runtime::CappedRuntime): kernel
//! executions, configuration choices, cap changes and the guard's health
//! events, stamped with virtual time, and a human-readable render.

use acs_sim::Configuration;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One timeline event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A kernel iteration completed.
    KernelRun {
        /// Kernel identifier.
        kernel_id: String,
        /// Iteration number.
        iteration: u64,
        /// Configuration used.
        config: Configuration,
        /// Wall time of the iteration, seconds.
        time_s: f64,
        /// Measured package power, W.
        power_w: f64,
    },
    /// The scheduler fixed or changed a kernel's configuration.
    ConfigSelected {
        /// Kernel identifier.
        kernel_id: String,
        /// The chosen configuration.
        config: Configuration,
        /// Why (free-form, e.g. "model", "model+fl", "cap change").
        reason: String,
    },
    /// The node power budget changed.
    CapChanged {
        /// New cap, W.
        cap_w: f64,
    },
    /// Measured power exceeded the cap on a configured iteration.
    CapViolation {
        /// Kernel identifier.
        kernel_id: String,
        /// Measured package power, W.
        power_w: f64,
        /// Cap in force, W.
        cap_w: f64,
        /// Consecutive violations so far (this one included).
        streak: u32,
    },
    /// The guard moved a kernel along its degradation ladder.
    TierChanged {
        /// Kernel identifier.
        kernel_id: String,
        /// Tier before the move (rendered label).
        from: String,
        /// Tier after the move (rendered label).
        to: String,
        /// Why (e.g. "cap violations", "stale sensor", "recovered").
        reason: String,
    },
    /// The power sensor misbehaved (dropout or frozen reading).
    SensorAnomaly {
        /// Kernel identifier.
        kernel_id: String,
        /// Anomaly kind ("dropout" or "frozen").
        kind: String,
    },
    /// A failed execution or clamped transition is being retried after a
    /// backoff wait. Advances the virtual clock by `wait_s`.
    RetryBackoff {
        /// Kernel identifier.
        kernel_id: String,
        /// Retry attempt number (1-based).
        attempt: u32,
        /// Backoff wait before the retry, seconds.
        wait_s: f64,
        /// What went wrong (free-form).
        fault: String,
    },
    /// A requested configuration transition was silently clamped by the
    /// hardware: the kernel ran at `actual`, not `requested`.
    TransitionClamped {
        /// Kernel identifier.
        kernel_id: String,
        /// Configuration the scheduler asked for.
        requested: Configuration,
        /// Configuration the hardware actually ran.
        actual: Configuration,
    },
}

/// A timestamped event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Entry {
    /// Virtual time at which the event was recorded, seconds.
    pub at_s: f64,
    /// The event.
    pub event: Event,
}

/// An append-only, thread-safe scheduling trace with a virtual clock that
/// advances by recorded kernel durations.
///
/// By default the trace keeps every entry.
/// [`set_keeping(false)`](Self::set_keeping) turns it off: events are
/// passed as closures that only a keeping timeline calls, so a record then
/// costs a clock step and a [`dropped`](Self::dropped) count and builds
/// nothing (the `acs-serve` sessions, whose timelines nothing reads).
#[derive(Debug, Default)]
pub struct Timeline {
    inner: Mutex<TimelineInner>,
}

#[derive(Debug, Default)]
struct TimelineInner {
    now_s: f64,
    entries: Vec<Entry>,
    /// Records are counted, not kept.
    skipping: bool,
    /// Records skipped while not keeping.
    dropped: u64,
}

impl Timeline {
    /// An empty timeline at t = 0 that keeps every entry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Keep the entries recorded from now on, or only count them. Entries
    /// already kept stay.
    pub fn set_keeping(&self, keep: bool) {
        self.inner.lock().skipping = !keep;
    }

    /// Records skipped while not keeping (always 0 for a timeline that
    /// never stopped keeping).
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Record the event `event` builds at the current virtual time, leaving
    /// the clock where it is. `event` runs only if the timeline keeps
    /// entries, and under the timeline's lock, so it must not record.
    pub(crate) fn record(&self, event: impl FnOnce() -> Event) {
        self.record_advancing(0.0, event);
    }

    /// [`record`](Self::record), then advance the clock by `advance_s`: a
    /// [`Event::KernelRun`]'s `time_s` or a [`Event::RetryBackoff`]'s
    /// `wait_s`, which the caller passes as the event's field too.
    pub(crate) fn record_advancing(&self, advance_s: f64, event: impl FnOnce() -> Event) {
        let mut inner = self.inner.lock();
        let at_s = inner.now_s;
        inner.now_s += advance_s;
        if inner.skipping {
            inner.dropped += 1;
            return;
        }
        inner.entries.push(Entry { at_s, event: event() });
    }

    /// Current virtual time, seconds.
    pub fn now_s(&self) -> f64 {
        self.inner.lock().now_s
    }

    /// Number of kept events.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when nothing is kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all kept entries, oldest first.
    pub fn entries(&self) -> Vec<Entry> {
        self.inner.lock().entries.clone()
    }

    /// Canonical JSON serialization of the whole trace. The vendored
    /// `serde_json` emits shortest-roundtrip floats and preserves field
    /// order, so two timelines produced by identical schedules serialize
    /// to byte-identical strings — the representation the determinism
    /// tests and the pinned `results/` timelines diff.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.entries()).expect("timeline entries always serialize")
    }

    /// Render the trace as aligned text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in self.entries() {
            let _ = write!(out, "[{:>10.3} ms] ", e.at_s * 1e3);
            match &e.event {
                Event::KernelRun { kernel_id, iteration, config, time_s, power_w } => {
                    let _ = writeln!(
                        out,
                        "run   {kernel_id} #{iteration} @ {config}  ({:.3} ms, {:.1} W)",
                        time_s * 1e3,
                        power_w
                    );
                }
                Event::ConfigSelected { kernel_id, config, reason } => {
                    let _ = writeln!(out, "pick  {kernel_id} → {config}  [{reason}]");
                }
                Event::CapChanged { cap_w } => {
                    let _ = writeln!(out, "cap   → {cap_w:.1} W");
                }
                Event::CapViolation { kernel_id, power_w, cap_w, streak } => {
                    let _ = writeln!(
                        out,
                        "over  {kernel_id}  {power_w:.1} W > {cap_w:.1} W  (streak {streak})"
                    );
                }
                Event::TierChanged { kernel_id, from, to, reason } => {
                    let _ = writeln!(out, "tier  {kernel_id} {from} → {to}  [{reason}]");
                }
                Event::SensorAnomaly { kernel_id, kind } => {
                    let _ = writeln!(out, "sense {kernel_id}: {kind}");
                }
                Event::RetryBackoff { kernel_id, attempt, wait_s, fault } => {
                    let _ = writeln!(
                        out,
                        "retry {kernel_id} #{attempt} after {:.3} ms  [{fault}]",
                        wait_s * 1e3
                    );
                }
                Event::TransitionClamped { kernel_id, requested, actual } => {
                    let _ = writeln!(out, "clamp {kernel_id} wanted {requested}, ran {actual}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_sim::CpuPState;

    fn cfg() -> Configuration {
        Configuration::cpu(4, CpuPState::MAX)
    }

    /// Record a `KernelRun` of `time_s`, advancing the clock by it.
    fn run(t: &Timeline, id: &str, iter: u64, time_s: f64) {
        t.record_advancing(time_s, || Event::KernelRun {
            kernel_id: id.into(),
            iteration: iter,
            config: cfg(),
            time_s,
            power_w: 30.0,
        });
    }

    fn cap_changed(cap_w: f64) -> impl FnOnce() -> Event {
        move || Event::CapChanged { cap_w }
    }

    fn selected(id: &str) -> impl FnOnce() -> Event + '_ {
        move || Event::ConfigSelected {
            kernel_id: id.into(),
            config: cfg(),
            reason: "model".into(),
        }
    }

    #[test]
    fn clock_advances_on_kernel_runs_only() {
        let t = Timeline::new();
        t.record(cap_changed(25.0));
        assert_eq!(t.now_s(), 0.0);
        run(&t, "k", 0, 0.010);
        assert!((t.now_s() - 0.010).abs() < 1e-15);
        t.record(selected("k"));
        assert!((t.now_s() - 0.010).abs() < 1e-15);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn entries_carry_record_time() {
        let t = Timeline::new();
        run(&t, "a", 0, 0.002);
        run(&t, "b", 0, 0.003);
        let entries = t.entries();
        assert_eq!(entries[0].at_s, 0.0);
        assert!((entries[1].at_s - 0.002).abs() < 1e-15);
    }

    #[test]
    fn render_is_readable() {
        let t = Timeline::new();
        t.record(cap_changed(25.0));
        run(&t, "LULESH/Small/K", 0, 0.004);
        let txt = t.render();
        assert!(txt.contains("cap   → 25.0 W"));
        assert!(txt.contains("run   LULESH/Small/K #0"));
        assert!(txt.starts_with("[     0.000 ms]"));
    }

    #[test]
    fn retry_backoff_advances_clock_and_health_events_render() {
        let t = Timeline::new();
        t.record_advancing(0.004, || Event::RetryBackoff {
            kernel_id: "k".into(),
            attempt: 1,
            wait_s: 0.004,
            fault: "kernel run failure".into(),
        });
        assert!((t.now_s() - 0.004).abs() < 1e-15);
        t.record(|| Event::CapViolation {
            kernel_id: "k".into(),
            power_w: 31.0,
            cap_w: 25.0,
            streak: 2,
        });
        t.record(|| Event::TierChanged {
            kernel_id: "k".into(),
            from: "model".into(),
            to: "model+fl(1)".into(),
            reason: "cap violations".into(),
        });
        t.record(|| Event::SensorAnomaly { kernel_id: "k".into(), kind: "dropout".into() });
        t.record(|| Event::TransitionClamped {
            kernel_id: "k".into(),
            requested: cfg(),
            actual: Configuration::cpu(4, CpuPState::MIN),
        });
        // Only the backoff advanced the clock.
        assert!((t.now_s() - 0.004).abs() < 1e-15);
        assert_eq!(t.len(), 5);
        let txt = t.render();
        assert!(txt.contains("retry k #1"));
        assert!(txt.contains("over  k  31.0 W > 25.0 W  (streak 2)"));
        assert!(txt.contains("tier  k model → model+fl(1)"));
        assert!(txt.contains("sense k: dropout"));
        assert!(txt.contains("clamp k wanted"));
    }

    #[test]
    fn skipping_builds_nothing_but_keeps_the_clock() {
        let t = Timeline::new();
        t.set_keeping(false);
        run(&t, "k", 0, 0.002);
        t.record(|| unreachable!("a timeline that is not keeping built an event"));
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 2);
        assert!((t.now_s() - 0.002).abs() < 1e-15);
        // Keeping again keeps what follows, and the count stays.
        t.set_keeping(true);
        run(&t, "k", 1, 0.001);
        assert_eq!((t.len(), t.dropped()), (1, 2));
        assert!((t.entries()[0].at_s - 0.002).abs() < 1e-15);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let t = std::sync::Arc::new(Timeline::new());
        std::thread::scope(|s| {
            for i in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for j in 0..100 {
                        run(&t, &format!("k{i}"), j, 0.0001);
                    }
                });
            }
        });
        assert_eq!(t.len(), 400);
        assert!((t.now_s() - 0.04).abs() < 1e-12);
    }
}
