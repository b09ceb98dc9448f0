//! The append-only recovery journal: crash-only serve state.
//!
//! The server's durable artifact (the trained model) is covered by
//! `core::persist`; everything else the selection quality depends on —
//! which sessions were admitted, how the arbiter split the budget, which
//! kernels the engine has profiled — lives in memory and dies with the
//! process. The journal records exactly that state transition stream so a
//! restarted server can *replay* it and resume where the dead one
//! stopped: same arbiter epoch, same next node id, same (re-warmed)
//! profile cache, and therefore byte-identical selections.
//!
//! ## Format
//!
//! One entry per line:
//!
//! ```text
//! <crc32-hex> <seq> <entry-json>\n
//! ```
//!
//! The CRC covers `<seq> <entry-json>`, and `seq` must equal the line's
//! index. On open, the journal validates every line in order and
//! **truncates at the first invalid one**: under the append-only
//! crash-only model the only legitimate damage is a torn tail from a
//! death mid-append, so everything from the first bad line on is crash
//! debris, not data. (A byte flipped by something *other* than a crash
//! also truncates from that point — the journal is an optimization, and
//! a shorter valid prefix is always safe to resume from.)
//!
//! ## Durability
//!
//! Appends go straight to the OS (`File` is unbuffered) and are flushed,
//! not fsynced, by default: the journal survives process death — including
//! SIGKILL, which is what the kill-and-restart e2e and the CLI's
//! `sigkill.rs` exercise — while a whole-machine power loss may drop the OS-buffered
//! tail, which the next open then cleanly truncates away. Per-entry fsync
//! would put a disk round trip on every request; crash-only semantics do
//! not need it. For deployments where the crash window must also cover
//! power loss, `Journal::open_with_sync` (the `--journal-sync` flag)
//! upgrades every append batch to `File::sync_data`, trading a disk round
//! trip per append for a zero-loss tail. Replay is byte-for-byte
//! equivalent in both modes — sync changes *when* bytes are durable,
//! never what is written.
//!
//! ## Replay verification
//!
//! Arbiter entries record the epoch *after* their operation. The live
//! server journals the entry [`Arbiter::apply`] returns, and [`replay`]
//! folds that same step over `JournalEntry::arbiter_op` on a fresh
//! arbiter, requiring every recomputed entry to equal the recorded one —
//! a mismatch means the journal and the arbiter implementation disagree
//! about history, and recovery refuses to guess
//! ([`JournalError::Divergence`], which the coordinator's replay reports
//! too). Sessions that were admitted but never left are *orphans* (their
//! TCP connections died with the old process); replay leaves them seated
//! and names them in the [`Recovery`] summary, and the restarted server
//! journals each one's `Leave` in ascending id order, so the next replay
//! folds their removal like any other step.

use crate::arbiter::{Arbiter, ArbiterOp, ArbiterPolicy};
use acs_core::crc32;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;

/// One recorded state transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalEntry {
    /// A session joined the arbiter.
    Admit {
        /// The node id the session was admitted as.
        node_id: u64,
        /// Arbiter epoch after the join.
        epoch: u64,
    },
    /// A session left the arbiter (clean close, not a crash).
    Leave {
        /// The node id that left.
        node_id: u64,
        /// Arbiter epoch after the leave.
        epoch: u64,
    },
    /// A session reported residual headroom and the arbiter re-split.
    Report {
        /// The reporting node.
        node_id: u64,
        /// The reported residual, W.
        residual_w: f64,
        /// Arbiter epoch after the report.
        epoch: u64,
    },
    /// The engine profiled a kernel for the first time (a cache miss that
    /// inserted). Replay re-warms these keys in order.
    CacheKey {
        /// The profiled kernel id.
        kernel_id: String,
    },
    /// The shard's lease budget changed (grant, renewal, or degraded-mode
    /// decay): the arbiter's *global cap* moved. Without this entry a
    /// leased shard's journal could not replay — cap changes bump the
    /// arbiter epoch between Admit/Report entries, and replay would
    /// declare a [`JournalError::Divergence`].
    Cap {
        /// The new shard-wide cap (the lease budget), W.
        cap_w: acs_sim::Cap,
        /// Arbiter epoch after the cap change.
        epoch: u64,
    },
    /// A session's [`AdaptivePredictor`](acs_core::AdaptivePredictor)
    /// consumed one measured/predicted ratio pair. The exact `f64` bits
    /// are journaled so replay feeds *identical* measurements through the
    /// Kalman filters and rebuilds bit-identical adaptation state.
    AdaptObs {
        /// The observing session.
        node_id: u64,
        /// Kernel the observation is for.
        kernel_id: String,
        /// `f64::to_bits` of the measured/predicted power ratio.
        power_bits: u64,
        /// `f64::to_bits` of the measured/predicted performance ratio.
        perf_bits: u64,
    },
    /// A session's drift detector confirmed a gross cluster mismatch and
    /// the kernel was flagged for re-classification. Replay cross-checks
    /// this against the mismatch the recomputed filters emit — a
    /// `Reclassify` with no matching recomputed event means the journal
    /// and the adaptation code disagree about history
    /// ([`JournalError::Divergence`]).
    Reclassify {
        /// The session that observed the mismatch.
        node_id: u64,
        /// The kernel flagged for re-classification.
        kernel_id: String,
    },
    /// A `Run` request finished on a degradation-ladder rung. Replay
    /// re-sums these into the STATS rung tallies so a restarted server's
    /// `degradation_tallies` reconcile with the history it replayed.
    Rung {
        /// The rung label (`model`, or a guard-ladder tier label).
        label: String,
    },
    /// The brownout controller changed level. Pure observability — the
    /// live level is derived from wall-clock latency and always restarts
    /// at 0 after a crash — but the transition history is durable, and
    /// replay re-counts it so a restarted server's STATS reconcile.
    Brownout {
        /// The level entered (0 = normal, rising levels disable more
        /// optional work).
        level: u8,
    },
}

impl JournalEntry {
    /// The arbiter transition an `Admit`, `Leave`, `Report` or `Cap`
    /// entry records — the inverse of [`Arbiter::apply`]. `None` for
    /// every other entry.
    pub(crate) fn arbiter_op(&self) -> Option<ArbiterOp> {
        Some(match *self {
            JournalEntry::Admit { node_id, .. } => ArbiterOp::Admit { node_id },
            JournalEntry::Leave { node_id, .. } => ArbiterOp::Leave { node_id },
            JournalEntry::Report { node_id, residual_w, .. } => {
                ArbiterOp::Report { node_id, residual_w }
            }
            JournalEntry::Cap { cap_w, .. } => ArbiterOp::Cap { cap_w },
            _ => return None,
        })
    }
}

/// One orphaned session's rebuilt adaptation state, keyed by node id.
/// A `Vec` of these (not a map) so the JSON stays string-key-free.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionAdapt {
    /// The session the state belongs to.
    pub node_id: u64,
    /// The predictor as rebuilt by replaying every journaled observation
    /// bit-for-bit.
    pub predictor: acs_core::AdaptivePredictor,
}

/// Typed journal failures.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(String),
    /// Serialization failure (should be unreachable for well-formed entries).
    Format(String),
    /// Replay recomputed different state than the journal recorded (an
    /// arbiter or lease entry that does not re-apply to itself, a rejected
    /// observation, a `Reclassify` the recomputed filters never emitted):
    /// the history cannot be trusted.
    Divergence {
        /// Index of the diverging entry.
        index: usize,
        /// What disagreed.
        detail: String,
    },
    /// A damaged line that is not the last: a line after it passes its
    /// CRC, so truncating would throw intact history away.
    Corrupt {
        /// The damaged line, counted from 1.
        line: u64,
        /// Its byte offset in the file.
        offset: u64,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io: {e}"),
            JournalError::Format(e) => write!(f, "journal format: {e}"),
            JournalError::Divergence { index, detail } => write!(
                f,
                "journal replay diverged at entry {index}: {detail} \
                 (delete the journal to start cold)"
            ),
            JournalError::Corrupt { line, offset } => write!(
                f,
                "journal line {line} (byte {offset}) is damaged and intact lines follow it; \
                 the file is left as it was (repair or delete the journal to start cold)"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e.to_string())
    }
}

struct Inner {
    file: std::fs::File,
    next_seq: u64,
    /// The line being appended, kept for its capacity.
    line: Vec<u8>,
}

/// Bytes a line's checksum field takes: eight hex digits and a space.
const CRC_FIELD_LEN: usize = 9;

/// An open, append-only recovery journal over entry type `E` — the serve
/// shard journals [`JournalEntry`], the fleet coordinator journals
/// [`CoordJournalEntry`](crate::lease::CoordJournalEntry); both get the
/// same CRC framing, torn-tail truncation, and durability knobs.
pub struct Journal<E = JournalEntry> {
    inner: Mutex<Inner>,
    truncated_tail_bytes: u64,
    recovered: u64,
    sync: bool,
    _entry: std::marker::PhantomData<fn() -> E>,
}

/// The body of a journal line whose CRC matches; `None` for bad UTF-8 or
/// a bad CRC.
fn crc_body(line: &[u8]) -> Option<&str> {
    let line = std::str::from_utf8(line).ok()?;
    let (crc_hex, body) = line.split_once(' ')?;
    (u32::from_str_radix(crc_hex, 16).ok()? == crc32(body.as_bytes())).then_some(body)
}

/// Parse one journal line; `None` means the line is damaged (bad UTF-8,
/// bad CRC, wrong sequence number, or unparseable entry).
fn parse_line<E: serde::Deserialize>(line: &[u8], expected_seq: u64) -> Option<E> {
    let (seq, json) = crc_body(line)?.split_once(' ')?;
    if seq.parse::<u64>().ok()? != expected_seq {
        return None;
    }
    serde_json::from_str(json).ok()
}

impl<E: serde::Serialize + serde::Deserialize> Journal<E> {
    /// Open (or create) the journal at `path` in the default flush-only
    /// durability mode (survives process death; a machine power loss may
    /// drop the OS-buffered tail, truncated away on the next open).
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, Vec<E>), JournalError> {
        Self::open_with_sync(path, false)
    }

    /// Open (or create) the journal at `path`, validating every recorded
    /// line. The valid prefix is returned for [`replay`]; a torn or
    /// damaged final line is physically truncated so future appends extend
    /// a clean log. A damaged line with a line after it that passes its CRC
    /// is not a crash's debris: open refuses with
    /// [`JournalError::Corrupt`] and leaves the file as it found it. With `sync`, every append batch is `sync_data`ed, so
    /// the tail also survives machine power loss at the cost of a disk
    /// round trip per append.
    pub(crate) fn open_with_sync(
        path: impl AsRef<Path>,
        sync: bool,
    ) -> Result<(Self, Vec<E>), JournalError> {
        let path = path.as_ref().to_path_buf();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let mut entries = Vec::new();
        let mut valid_end = 0usize;
        while valid_end < bytes.len() {
            let rest = &bytes[valid_end..];
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                break; // torn final line: no terminator
            };
            let Some(entry) = parse_line(&rest[..nl], entries.len() as u64) else {
                if rest[nl + 1..].split(|&b| b == b'\n').any(|line| crc_body(line).is_some()) {
                    let line = entries.len() as u64 + 1;
                    return Err(JournalError::Corrupt { line, offset: valid_end as u64 });
                }
                break; // torn final line
            };
            entries.push(entry);
            valid_end += nl + 1;
        }
        let truncated_tail_bytes = (bytes.len() - valid_end) as u64;
        let file = std::fs::OpenOptions::new().create(true).append(true).open(&path)?;
        if truncated_tail_bytes > 0 {
            file.set_len(valid_end as u64)?;
        }
        Ok((
            Self {
                inner: Mutex::new(Inner { file, next_seq: entries.len() as u64, line: Vec::new() }),
                truncated_tail_bytes,
                recovered: entries.len() as u64,
                sync,
                _entry: std::marker::PhantomData,
            },
            entries,
        ))
    }

    /// Bytes of crash debris discarded when this journal was opened.
    pub fn truncated_tail_bytes(&self) -> u64 {
        self.truncated_tail_bytes
    }

    /// Entries appended through this handle since open (the STATS
    /// `journal_appends` counter).
    pub(crate) fn appended_entries(&self) -> u64 {
        self.inner.lock().next_seq - self.recovered
    }

    /// Append one entry. The sequence number and checksum are assigned
    /// under the journal lock, so concurrent appenders serialize and the
    /// log stays gapless.
    pub fn append(&self, entry: &E) -> Result<(), JournalError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        // `crc seq json\n`, built in place: the checksum covers everything
        // after its own field, so that field is reserved and filled last.
        let line = &mut inner.line;
        line.clear();
        line.extend_from_slice(&[b' '; CRC_FIELD_LEN]);
        write!(line, "{} ", inner.next_seq)?;
        serde_json::to_writer(line, entry).map_err(|e| JournalError::Format(e.to_string()))?;
        let crc = crc32(&line[CRC_FIELD_LEN..]);
        write!(&mut line[..CRC_FIELD_LEN], "{crc:08x}")?;
        line.push(b'\n');
        inner.file.write_all(line)?;
        inner.file.flush()?;
        if self.sync {
            inner.file.sync_data()?;
        }
        inner.next_seq += 1;
        Ok(())
    }
}

/// What [`replay`] reconstructed, for logging and the recovery bench.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recovery {
    /// Journal entries replayed.
    pub replayed: u64,
    /// Kernel ids to re-warm the profile cache with, in first-miss order
    /// (deduplicated).
    pub warm_kernels: Vec<String>,
    /// Sessions admitted but never cleanly closed — their connections
    /// died with the old process. Replay leaves them seated; the restarted
    /// server journals their `Leave`s in this (ascending) order.
    pub orphaned_sessions: Vec<u64>,
    /// The node id the next accepted session should get, so restarted
    /// servers never reuse an id the journal already assigned.
    pub next_node: u64,
    /// Degradation-rung tallies re-summed from `Rung` entries, so a
    /// restarted server's STATS reconcile with replayed history.
    /// `#[serde(default)]` keeps pre-adapt recovery records parseable.
    #[serde(default)]
    pub rung_tallies: std::collections::BTreeMap<String, u64>,
    /// Adaptation state of sessions that never cleanly left, rebuilt
    /// bit-for-bit from `AdaptObs` entries and sorted by node id.
    /// (Cleanly-closed sessions drop their state exactly as the live
    /// server does on `Bye`.)
    #[serde(default)]
    pub adapt: Vec<SessionAdapt>,
    /// Brownout level transitions re-counted from `Brownout` entries.
    /// The live level itself restarts at 0 (it tracks wall-clock latency,
    /// which died with the old process); only the count is history.
    #[serde(default)]
    pub brownout_transitions: u64,
}

/// Fold a validated entry stream into a fresh arbiter through
/// [`Arbiter::apply`], the step the server took live: every arbiter entry
/// must recompute to itself, post-op epoch included. The arbiter comes
/// back as the journal left it, orphans still seated.
pub fn replay(
    entries: &[JournalEntry],
    global_cap_w: f64,
    policy: ArbiterPolicy,
) -> Result<(Arbiter, Recovery), JournalError> {
    let mut arbiter = Arbiter::new(global_cap_w, policy);
    let mut warm_kernels: Vec<String> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut next_node = 1u64;
    let mut adapt: std::collections::BTreeMap<u64, acs_core::AdaptivePredictor> =
        std::collections::BTreeMap::new();
    let mut rung_tallies: std::collections::BTreeMap<String, u64> =
        std::collections::BTreeMap::new();
    let mut brownout_transitions = 0u64;
    // (node, kernel) pairs whose last replayed observation emitted a
    // cluster mismatch; each journaled Reclassify must consume one. Other
    // sessions' entries may fall between an AdaptObs and its Reclassify.
    let mut pending_reclassify: std::collections::HashSet<(u64, String)> =
        std::collections::HashSet::new();
    for (index, entry) in entries.iter().enumerate() {
        let diverged = |detail| JournalError::Divergence { index, detail };
        match entry {
            JournalEntry::CacheKey { kernel_id } => {
                if seen.insert(kernel_id.clone()) {
                    warm_kernels.push(kernel_id.clone());
                }
            }
            JournalEntry::AdaptObs { node_id, kernel_id, power_bits, perf_bits } => {
                let predictor = adapt.entry(*node_id).or_default();
                let events = predictor
                    .observe_ratios(
                        kernel_id,
                        f64::from_bits(*power_bits),
                        f64::from_bits(*perf_bits),
                    )
                    .map_err(|e| {
                        diverged(format!("journaled observation rejected on replay: {e}"))
                    })?;
                if events.iter().any(|e| matches!(e, acs_core::DriftEvent::ClusterMismatch { .. }))
                {
                    pending_reclassify.insert((*node_id, kernel_id.clone()));
                }
            }
            JournalEntry::Reclassify { node_id, kernel_id } => {
                if !pending_reclassify.remove(&(*node_id, kernel_id.clone())) {
                    return Err(diverged(format!(
                        "journal records a reclassification of {kernel_id} on node {node_id} \
                         that the recomputed filters never emitted"
                    )));
                }
            }
            JournalEntry::Rung { label } => {
                *rung_tallies.entry(label.clone()).or_insert(0) += 1;
            }
            JournalEntry::Brownout { .. } => {
                brownout_transitions += 1;
            }
            // Admit, Leave, Report and Cap: the step the server took live.
            _ => {
                let op = entry.arbiter_op();
                let recomputed = op.and_then(|op| arbiter.apply(op));
                if recomputed.as_ref() != Some(entry) {
                    return Err(diverged(format!("recorded {entry:?}, recomputed {recomputed:?}")));
                }
                match op {
                    Some(ArbiterOp::Admit { node_id }) => next_node = next_node.max(node_id + 1),
                    Some(ArbiterOp::Leave { node_id }) => drop(adapt.remove(&node_id)),
                    _ => {}
                }
            }
        }
    }
    let orphaned_sessions = arbiter.node_ids();
    let adapt =
        adapt.into_iter().map(|(node_id, predictor)| SessionAdapt { node_id, predictor }).collect();
    Ok((
        arbiter,
        Recovery {
            replayed: entries.len() as u64,
            warm_kernels,
            orphaned_sessions,
            next_node,
            rung_tallies,
            adapt,
            brownout_transitions,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_sim::Cap;
    use std::path::PathBuf;

    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("acs-journal-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Step a real arbiter and journal the entry the step returns, the
    /// way the server does.
    fn step(journal: &Journal, arbiter: &mut Arbiter, op: ArbiterOp) {
        journal.append(&arbiter.apply(op).unwrap()).unwrap();
    }

    fn journal_some_history(journal: &Journal, arbiter: &mut Arbiter) {
        step(journal, arbiter, ArbiterOp::Admit { node_id: 1 });
        journal.append(&JournalEntry::CacheKey { kernel_id: "LU/Small/lud".into() }).unwrap();
        step(journal, arbiter, ArbiterOp::Admit { node_id: 2 });
        step(journal, arbiter, ArbiterOp::Report { node_id: 2, residual_w: 5.0 });
        journal.append(&JournalEntry::CacheKey { kernel_id: "SMC/Large/acc".into() }).unwrap();
        journal.append(&JournalEntry::CacheKey { kernel_id: "LU/Small/lud".into() }).unwrap();
        step(journal, arbiter, ArbiterOp::Leave { node_id: 1 });
    }

    #[test]
    fn appended_entries_reopen_identically() {
        let dir = scratch("roundtrip");
        let path = dir.join("serve.journal");
        let (journal, empty) = Journal::open(&path).unwrap();
        assert!(empty.is_empty());
        let mut arbiter = Arbiter::new(100.0, ArbiterPolicy::DemandProportional);
        journal_some_history(&journal, &mut arbiter);
        assert_eq!(journal.inner.lock().next_seq, 7);
        drop(journal);

        let (reopened, entries) = Journal::<JournalEntry>::open(&path).unwrap();
        assert_eq!(entries.len(), 7);
        assert_eq!(reopened.inner.lock().next_seq, 7);
        assert_eq!(reopened.truncated_tail_bytes(), 0);
        assert_eq!(entries[0], JournalEntry::Admit { node_id: 1, epoch: 1 });
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let dir = scratch("torn");
        let path = dir.join("serve.journal");
        let (journal, _) = Journal::open(&path).unwrap();
        let mut arbiter = Arbiter::new(100.0, ArbiterPolicy::EqualShare);
        journal_some_history(&journal, &mut arbiter);
        drop(journal);

        // A death mid-append leaves a partial line with no newline.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"deadbeef 7 {\"Admit\":{\"node").unwrap();
        drop(f);

        let (reopened, entries) = Journal::open(&path).unwrap();
        assert_eq!(entries.len(), 7, "the valid prefix survives");
        assert!(reopened.truncated_tail_bytes() > 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len, "debris chopped");

        // The log keeps extending cleanly after the truncation.
        reopened.append(&JournalEntry::CacheKey { kernel_id: "k".into() }).unwrap();
        drop(reopened);
        let (_, entries) = Journal::<JournalEntry>::open(&path).unwrap();
        assert_eq!(entries.len(), 8);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_damaged_final_line_is_a_torn_tail() {
        let dir = scratch("corrupt");
        let path = dir.join("serve.journal");
        let (journal, _) = Journal::open(&path).unwrap();
        let mut arbiter = Arbiter::new(100.0, ArbiterPolicy::EqualShare);
        journal_some_history(&journal, &mut arbiter);
        drop(journal);

        // Flip one payload byte in the last line: its CRC now fails, and
        // with nothing intact after it, it is cut as crash debris.
        let mut bytes = std::fs::read(&path).unwrap();
        let flip = bytes.len() - 3;
        bytes[flip] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let (reopened, entries) = Journal::<JournalEntry>::open(&path).unwrap();
        assert_eq!(entries.len(), 6, "valid prefix before the flipped byte");
        assert!(reopened.truncated_tail_bytes() > 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_damaged_line_with_intact_lines_after_it_is_refused_and_left_alone() {
        let dir = scratch("midlog");
        let path = dir.join("serve.journal");
        let (journal, _) = Journal::open(&path).unwrap();
        let mut arbiter = Arbiter::new(100.0, ArbiterPolicy::EqualShare);
        journal_some_history(&journal, &mut arbiter);
        drop(journal);

        // One flipped bit in line 2 of 7, inside its JSON: five intact
        // lines follow it, so this is damage, not a torn tail.
        let mut bytes = std::fs::read(&path).unwrap();
        let line2 = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes[line2 + 12] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        match Journal::<JournalEntry>::open(&path) {
            Err(JournalError::Corrupt { line: 2, offset }) => assert_eq!(offset, line2 as u64),
            Err(other) => panic!("expected Corrupt at line 2, got {other}"),
            Ok((_, entries)) => panic!("open accepted a damaged log: {entries:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "the file is left as it was");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn sequence_gaps_invalidate_the_tail() {
        let dir = scratch("seqgap");
        let path = dir.join("serve.journal");
        // Hand-craft two lines whose CRCs are right but whose second
        // sequence number skips: a spliced log must not replay past the gap.
        let e0 = serde_json::to_string(&JournalEntry::CacheKey { kernel_id: "a".into() }).unwrap();
        let e1 = serde_json::to_string(&JournalEntry::CacheKey { kernel_id: "b".into() }).unwrap();
        let body0 = format!("0 {e0}");
        let body2 = format!("2 {e1}"); // gap: seq 1 missing
        let text = format!(
            "{:08x} {body0}\n{:08x} {body2}\n",
            acs_core::crc32(body0.as_bytes()),
            acs_core::crc32(body2.as_bytes())
        );
        std::fs::write(&path, text).unwrap();
        let (_, entries) = Journal::<JournalEntry>::open(&path).unwrap();
        assert_eq!(entries.len(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn replay_rebuilds_the_arbiter_and_names_its_orphans() {
        let dir = scratch("replay");
        let path = dir.join("serve.journal");
        let (journal, _) = Journal::open(&path).unwrap();
        let mut live = Arbiter::new(100.0, ArbiterPolicy::DemandProportional);
        journal_some_history(&journal, &mut live);
        drop(journal);

        let (_, entries) = Journal::open(&path).unwrap();
        let (rebuilt, recovery) =
            replay(&entries, 100.0, ArbiterPolicy::DemandProportional).unwrap();
        assert_eq!(recovery.replayed, 7);
        // Node 2 never left: it is an orphan, still seated for the
        // restarted server to journal its leave.
        assert_eq!(recovery.orphaned_sessions, vec![2]);
        assert_eq!(rebuilt.node_ids(), vec![2]);
        assert_eq!(recovery.next_node, 3, "ids 1 and 2 are burned");
        // Cache keys dedup in first-miss order.
        assert_eq!(recovery.warm_kernels, vec!["LU/Small/lud", "SMC/Large/acc"]);
        assert_eq!(rebuilt.conservation_error_w(), 0.0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn sync_and_flush_modes_write_and_replay_equivalently() {
        // `--journal-sync` changes when bytes become durable, never what
        // is written: the same history must produce byte-identical files,
        // and replay must reconstruct the same arbiter either way.
        let dir = scratch("syncmode");
        let flush_path = dir.join("flush.journal");
        let sync_path = dir.join("sync.journal");
        let (flush, _) = Journal::open_with_sync(&flush_path, false).unwrap();
        let (sync, _) = Journal::open_with_sync(&sync_path, true).unwrap();
        assert!(!flush.sync);
        assert!(sync.sync);
        let mut a = Arbiter::new(100.0, ArbiterPolicy::DemandProportional);
        journal_some_history(&flush, &mut a);
        let mut b = Arbiter::new(100.0, ArbiterPolicy::DemandProportional);
        journal_some_history(&sync, &mut b);
        assert_eq!(flush.appended_entries(), sync.appended_entries());
        drop((flush, sync));

        let flush_bytes = std::fs::read(&flush_path).unwrap();
        let sync_bytes = std::fs::read(&sync_path).unwrap();
        assert_eq!(flush_bytes, sync_bytes, "sync mode must not change the format");

        let (_, fe): (Journal, Vec<JournalEntry>) = Journal::open(&flush_path).unwrap();
        let (_, se): (Journal, Vec<JournalEntry>) = Journal::open(&sync_path).unwrap();
        let (fa, fr) = replay(&fe, 100.0, ArbiterPolicy::DemandProportional).unwrap();
        let (sa, sr) = replay(&se, 100.0, ArbiterPolicy::DemandProportional).unwrap();
        assert_eq!(fr, sr);
        assert_eq!(fa.epoch(), sa.epoch());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn replay_applies_cap_entries_as_lease_budgets() {
        // A leased shard journals every cap move; replay must land on the
        // same shrunken cap and verify the epochs the moves produced.
        let mut live = Arbiter::new(100.0, ArbiterPolicy::EqualShare);
        let ops = [
            ArbiterOp::Admit { node_id: 1 },
            ArbiterOp::Cap { cap_w: Cap::new(64.0).unwrap() },
            ArbiterOp::Admit { node_id: 2 },
        ];
        let entries: Vec<_> = ops.into_iter().filter_map(|op| live.apply(op)).collect();
        let (rebuilt, recovery) = replay(&entries, 100.0, ArbiterPolicy::EqualShare).unwrap();
        assert_eq!(rebuilt.global_cap_w(), 64.0);
        assert_eq!(recovery.orphaned_sessions, vec![1, 2]);

        // A cap entry with an impossible epoch refuses to replay.
        let bogus = vec![JournalEntry::Cap { cap_w: Cap::new(50.0).unwrap(), epoch: 99 }];
        assert!(matches!(
            replay(&bogus, 100.0, ArbiterPolicy::EqualShare),
            Err(JournalError::Divergence { index: 0, .. })
        ));
    }

    #[test]
    fn a_no_op_cap_between_admissions_replays() {
        // A coordinator-bound shard journals a `Cap` at every bind, even
        // when its replayed cap is already the floor: the first bind moved
        // the cap to 5 W, node 1 joined, the shard restarted and
        // re-journaled the same cap before node 2 joined. A journal written
        // before restarts journaled their orphans' leaves has no `Leave`
        // for node 1, and still replays.
        let cap_w = Cap::new(5.0).unwrap();
        let entries = vec![
            JournalEntry::Cap { cap_w, epoch: 0 },
            JournalEntry::Admit { node_id: 1, epoch: 1 },
            JournalEntry::Cap { cap_w, epoch: 1 },
            JournalEntry::Admit { node_id: 2, epoch: 2 },
        ];
        let (rebuilt, recovery) = replay(&entries, 100.0, ArbiterPolicy::EqualShare).unwrap();
        let expected = Recovery {
            replayed: 4,
            warm_kernels: vec![],
            orphaned_sessions: vec![1, 2],
            next_node: 3,
            rung_tallies: Default::default(),
            adapt: vec![],
            brownout_transitions: 0,
        };
        assert_eq!(recovery, expected);
        assert_eq!((rebuilt.epoch(), rebuilt.global_cap_w()), (2, 5.0));
    }

    #[test]
    fn replay_rebuilds_adaptation_state_and_rung_tallies() {
        // Drive a live predictor, journal the exact ratio bits the way the
        // server does, and check replay lands on bit-identical state.
        let mut live = acs_core::AdaptivePredictor::default();
        let mut entries = vec![JournalEntry::Admit { node_id: 1, epoch: 1 }];
        let ratios = [(1.0, 1.0), (1.01, 0.99), (0.99, 1.0), (1.0, 1.01), (2.0, 0.5), (2.0, 0.5)];
        for (p, q) in ratios {
            let events = live.observe_ratios("LU/Small/lud", p, q).unwrap();
            entries.push(JournalEntry::AdaptObs {
                node_id: 1,
                kernel_id: "LU/Small/lud".into(),
                power_bits: f64::to_bits(p),
                perf_bits: f64::to_bits(q),
            });
            if events.iter().any(|e| matches!(e, acs_core::DriftEvent::ClusterMismatch { .. })) {
                entries.push(JournalEntry::Reclassify {
                    node_id: 1,
                    kernel_id: "LU/Small/lud".into(),
                });
            }
        }
        assert!(
            live.reclassifications() > 0,
            "the 2x power ratio after a 1.0 baseline must trip the mismatch detector"
        );
        entries.push(JournalEntry::Rung { label: "model".into() });
        entries.push(JournalEntry::Rung { label: "model".into() });
        entries.push(JournalEntry::Rung { label: "frequency".into() });

        let (_, recovery) = replay(&entries, 100.0, ArbiterPolicy::EqualShare).unwrap();
        assert_eq!(recovery.adapt.len(), 1, "the orphaned session keeps its state");
        assert_eq!(recovery.adapt[0].node_id, 1);
        assert_eq!(recovery.adapt[0].predictor, live, "replayed state must be bit-identical");
        assert_eq!(recovery.adapt[0].predictor.state_digest(), live.state_digest());
        assert_eq!(recovery.rung_tallies.get("model"), Some(&2));
        assert_eq!(recovery.rung_tallies.get("frequency"), Some(&1));
    }

    #[test]
    fn clean_leave_drops_the_sessions_adaptation_state() {
        let entries = vec![
            JournalEntry::Admit { node_id: 1, epoch: 1 },
            JournalEntry::AdaptObs {
                node_id: 1,
                kernel_id: "k".into(),
                power_bits: f64::to_bits(1.0),
                perf_bits: f64::to_bits(1.0),
            },
            JournalEntry::Leave { node_id: 1, epoch: 1 },
        ];
        let (_, recovery) = replay(&entries, 100.0, ArbiterPolicy::EqualShare).unwrap();
        assert!(recovery.adapt.is_empty(), "Bye discards adaptation state, so must replay");
    }

    #[test]
    fn replay_refuses_every_divergence_at_its_entry() {
        // An impossible epoch, a report from a node never admitted, an
        // observation the filters reject and a reclassification they never
        // emitted are all one typed refusal naming the entry.
        let admit = |epoch| JournalEntry::Admit { node_id: 1, epoch };
        let nan_obs = JournalEntry::AdaptObs {
            node_id: 1,
            kernel_id: "k".into(),
            power_bits: f64::NAN.to_bits(),
            perf_bits: 1f64.to_bits(),
        };
        let unearned = JournalEntry::Reclassify { node_id: 1, kernel_id: "k".into() };
        let unknown = JournalEntry::Report { node_id: 9, residual_w: 1.0, epoch: 1 };
        let cases = [
            (vec![admit(42)], 0, ["epoch: 42", "epoch: 1 }"]),
            (vec![unknown], 0, ["node_id: 9", "recomputed None"]),
            (vec![nan_obs], 0, ["rejected on replay", "non-finite"]),
            (vec![admit(1), unearned], 1, ["never emitted", "k on node 1"]),
        ];
        for (entries, at, needles) in cases {
            match replay(&entries, 100.0, ArbiterPolicy::EqualShare) {
                Err(JournalError::Divergence { index, detail }) => {
                    assert_eq!(index, at, "{detail}");
                    for needle in needles {
                        assert!(detail.contains(needle), "unhelpful detail: {detail}");
                    }
                }
                other => panic!("expected Divergence, got {other:?}"),
            }
        }
    }

    #[test]
    fn pre_adapt_recovery_records_parse_with_empty_adapt_fields() {
        // Recovery summaries serialized before the adaptation layer lack
        // the rung_tallies/adapt fields; they must deserialize as empty.
        let json = r#"{"replayed":3,"warm_kernels":["k"],"orphaned_sessions":[2],"next_node":3}"#;
        let recovery: Recovery = serde_json::from_str(json).unwrap();
        assert_eq!(recovery.replayed, 3);
        assert!(recovery.rung_tallies.is_empty());
        assert!(recovery.adapt.is_empty());
        assert_eq!(recovery.brownout_transitions, 0);
    }

    #[test]
    fn replay_counts_brownout_transitions_without_restoring_the_level() {
        // Brownout entries are durable history, but the live level is a
        // wall-clock-derived quantity: replay counts the transitions and
        // nothing else (a restarted server always starts at level 0).
        let entries = vec![
            JournalEntry::Brownout { level: 1 },
            JournalEntry::Brownout { level: 2 },
            JournalEntry::Brownout { level: 0 },
        ];
        let (arbiter, recovery) = replay(&entries, 100.0, ArbiterPolicy::EqualShare).unwrap();
        assert_eq!(recovery.brownout_transitions, 3);
        assert_eq!(recovery.replayed, 3);
        assert_eq!(arbiter.epoch(), 0, "brownout transitions never touch the arbiter");
    }

    #[test]
    fn replayed_budgets_match_the_live_arbiter_bit_for_bit() {
        // The property the kill-and-restart e2e depends on: replaying the
        // journal yields the same epoch and budgets the dead server had.
        let dir = scratch("bitequal");
        let path = dir.join("serve.journal");
        let (journal, _) = Journal::open(&path).unwrap();
        let mut live = Arbiter::new(77.0, ArbiterPolicy::DemandProportional);
        step(&journal, &mut live, ArbiterOp::Admit { node_id: 1 });
        step(&journal, &mut live, ArbiterOp::Admit { node_id: 2 });
        step(&journal, &mut live, ArbiterOp::Report { node_id: 1, residual_w: 12.5 });
        drop(journal);

        let (_, entries) = Journal::<JournalEntry>::open(&path).unwrap();
        let (rebuilt, _) = replay(&entries, 77.0, ArbiterPolicy::DemandProportional).unwrap();
        assert_eq!(rebuilt.epoch(), live.epoch());
        assert_eq!(rebuilt.node_ids(), live.node_ids());
        for id in live.node_ids() {
            assert_eq!(
                rebuilt.budget_of(id).unwrap().to_bits(),
                live.budget_of(id).unwrap().to_bits(),
                "node {id} budget diverged"
            );
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}
