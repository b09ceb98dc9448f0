//! What this repository decided not to have, checked on its own tree.
//!
//! [`GUARDS`] is the one list of names a simplification deleted: a file
//! under a row's paths that contains one of its patterns again fails the
//! build. [`RATCHETS`] count a pattern's sites under their paths against a
//! ceiling that may only be lowered. Paths are relative to the repository
//! root; directories are walked with `std::fs` and every file is read as
//! bytes, as `grep -r` reads it. This file names every pattern, so it is
//! skipped.

use std::path::{Path, PathBuf};
use Pattern::{Lit, ThenUpper, Word};

/// A pattern, matched against a file's bytes.
#[derive(Clone, Copy, Debug)]
enum Pattern {
    /// These bytes anywhere.
    Lit(&'static str),
    /// These bytes with no identifier character (`[A-Za-z0-9_]`) on either
    /// side.
    Word(&'static str),
    /// These bytes followed by an ASCII capital letter.
    ThenUpper(&'static str),
}

/// Names that must not come back under `paths`.
struct Guard {
    name: &'static str,
    paths: &'static [&'static str],
    forbidden: &'static [Pattern],
}

/// Sites of `patterns` under `paths`, counted per occurrence, may number at
/// most `ceiling`: lower it when they fall.
struct Ratchet {
    name: &'static str,
    paths: &'static [&'static str],
    patterns: &'static [Pattern],
    ceiling: usize,
}

const SOURCES: &[&str] = &["crates", "src", "tests", "examples"];

const GUARDS: &[Guard] = &[
    // Sweeps are sequential by construction (DESIGN.md §10): the workspace
    // neither resolves the shim nor names it or its knob.
    Guard {
        name: "No parallel runtime",
        paths: &["Cargo.lock"],
        forbidden: &[Lit("name = \"rayon\"")],
    },
    Guard {
        name: "No parallel runtime",
        paths: SOURCES,
        forbidden: &[Lit("rayon"), Lit("RAYON_NUM_THREADS")],
    },
    // `core::timeline` is what a run leaves behind (DESIGN.md §3): no second
    // profiling crate, profiler or sample history comes back.
    Guard {
        name: "One run record",
        paths: &["Cargo.lock"],
        forbidden: &[Lit("name = \"acs-profiling\"")],
    },
    Guard {
        name: "One run record",
        paths: &["crates", "src", "tests", "examples", "Cargo.toml"],
        forbidden: &[
            Lit("acs_profiling"),
            Lit("acs-profiling"),
            Word("Profiler"),
            Lit("ProfileSample"),
            Lit("History::new"),
        ],
    },
    // `acs reproduce` writes results/{name}.json for every row and
    // tests/reproduce.rs compares every one byte for byte: no row writes
    // wall-clock fields, so none is exempt from the pin.
    Guard {
        name: "Every registry row is a pinned artifact",
        paths: &["crates", "src", "tests"],
        forbidden: &[
            Lit("bench_recovery"),
            Lit("bench_fleet"),
            Lit("bench_overload"),
            Lit("BENCH_"),
            Lit("deterministic:"),
        ],
    },
    // The fleet's failure domain is stepped in-process on logical time by
    // crates/serve/src/fleet.rs, beside lease_conservation.rs: no
    // orchestrator command, retrying client or partitioning TCP relay comes
    // back beside them.
    Guard {
        name: "One fleet test suite",
        paths: &["crates", "src", "tests"],
        forbidden: &[
            Lit("partitionable_relay"),
            Lit("chaosfleet"),
            Lit("chaos-fleet"),
            Lit("ResilientClient"),
            Lit("FleetClient"),
            Lit("RetryPolicy"),
            Lit("acs_bench::drills"),
            Lit("mod drills"),
        ],
    },
    // The lease protocol lives in lease.rs alone: the coordinator journals
    // the entry `LeaseTable::apply` returns, and the shard's lease client
    // hands every reply to `ShardLease::on_reply`, so neither builds a
    // journal entry or reads a rejection code.
    Guard {
        name: "One lease step",
        paths: &["crates/serve/src/coordinator.rs", "crates/serve/src/server.rs"],
        forbidden: &[ThenUpper("CoordJournalEntry::")],
    },
    Guard {
        name: "One lease step",
        paths: &["crates/serve/src/server.rs"],
        forbidden: &[Lit("\"expired\""), Lit("\"fenced\""), Lit("\"unknown-lease\"")],
    },
    // A fleet shard always presents its own id (`--shard-id`), so the
    // coordinator names no shard: no reserved id range, no `Lease` without
    // an id, no id remembered from a `Granted` reply (which carries the
    // coordinator's floor, not a shard id) beside the configured one.
    Guard {
        name: "One shard identity",
        paths: SOURCES,
        forbidden: &[
            Lit("ASSIGNED_SHARD_ID"),
            Lit("configured_shard_id"),
            Lit("shard_id: None"),
            Lit("shard_id: Some("),
        ],
    },
    // The lease protocol counts milliseconds on both sides of the fleet: the
    // coordinator steps at `base + elapsed_ms`, the unit of the shard's own
    // TTL clock, so no tick length, tick-counted TTL or eviction horizon,
    // or horizon set after the table is built comes back.
    Guard {
        name: "One lease clock",
        paths: SOURCES,
        forbidden: &[
            Lit("tick_ms"),
            Lit("TICK_MS"),
            Lit("tick-ms"),
            Lit("ttl_ticks"),
            Lit("TTL_TICKS"),
            Lit("ttl-ticks"),
            Lit("evict_after_ticks"),
            Lit("EVICT_AFTER_TICKS"),
            Lit("evict-after-ticks"),
            Lit("set_evict_after"),
        ],
    },
    // Every arbiter transition is one step, `Arbiter::apply`: the server
    // journals the entry it returns and `journal::replay` re-applies
    // `JournalEntry::arbiter_op`, so server.rs builds no arbiter entry, and
    // both replays report one `Divergence`.
    Guard {
        name: "One shard step",
        paths: &["crates/serve/src/server.rs"],
        forbidden: &[
            Lit("JournalEntry::Admit"),
            Lit("JournalEntry::Leave"),
            Lit("JournalEntry::Report"),
            Lit("JournalEntry::Cap"),
        ],
    },
    Guard {
        name: "One shard step",
        paths: &["crates"],
        forbidden: &[
            Lit("EpochDivergence"),
            Lit("UnknownNode"),
            Lit("LeaseDivergence"),
            Lit("AdaptDivergence"),
        ],
    },
    // The online stage classifies by the CART walk alone, and
    // `predict_with_confidence` reads the Predictor's tables: no second tree
    // encoding, and no regression evaluated beside the tables.
    Guard {
        name: "One online stage",
        paths: SOURCES,
        forbidden: &[Lit("FlatTree"), Lit("uses_flat_tree"), Lit("tree.flatten")],
    },
    Guard {
        name: "One online stage",
        paths: &["crates/core/src/confidence.rs"],
        forbidden: &[Lit("config_features"), Lit("unstabilize")],
    },
    // `Session::step` is the shard's one request path: it picks up the
    // node's budget before it answers, so no entry point skips the pickup
    // and no test transport recreates the frame loop's ordering.
    Guard {
        name: "One session step",
        paths: &["crates/serve/src"],
        forbidden: &[Lit("handle_request"), Lit("JoinDuringRead")],
    },
    // Wire faults are scripted in-process: `serve::scripted::faulted` turns
    // a seeded fault plan into the reads the real frame loop serves, so no
    // fault-injecting TCP proxy, its plan, its counters or its command
    // comes back.
    Guard {
        name: "One fault harness",
        paths: SOURCES,
        forbidden: &[Lit("ChaosProxy"), Lit("ChaosPlan"), Lit("ChaosStats"), Lit("chaosproxy")],
    },
    // One seeded session is what drives a server: `acs_bench::served_stream`
    // is `acs loadgen`, tests/serve_determinism.rs and the `serve_stream`
    // pin, so no load generator with options, a report, open-loop pacing
    // or a latency instrument of its own comes back.
    Guard {
        name: "One served stream",
        paths: SOURCES,
        forbidden: &[
            Lit("LoadgenOptions"),
            Lit("LoadgenReport"),
            Lit("run_loadgen"),
            Lit("arrival_stream"),
            Lit("open_loop"),
            Lit("open-loop"),
            Lit("rate_rps"),
        ],
    },
    // A cap, floor or demand is parsed once where it enters, a CLI flag or
    // a lease message, into `acs_sim::Cap` or `acs_sim::Watts`: no flag
    // helper checks a cap again. Nor does a test-only digest map come back
    // into the server, or a batch bound nothing but a test sets.
    Guard {
        name: "One wattage rule",
        paths: &["crates"],
        forbidden: &[Lit("cap_arg"), Lit("adapt_digests"), Lit("max_batch")],
    },
    // The engine keeps each suite kernel's profile beside it, filled once:
    // no profile-cache bound or eviction comes back. A restart's `Recovery`
    // holds what the restart reads: not the orphans' predictors, nor a
    // count of brownout transitions that no STATS field carries.
    Guard {
        name: "One profile table",
        paths: &["crates"],
        forbidden: &[
            Lit("DEFAULT_PROFILE_CAPACITY"),
            Lit("SessionAdapt"),
            Lit("brownout_transitions"),
        ],
    },
];

const RATCHETS: &[Ratchet] = &[
    // Sleeps and wall-clock reads in the serve crate, test modules included.
    // The lease machines step on logical time (crates/serve/src/fleet.rs);
    // a new test that has to wait goes in crates/serve/tests or calls
    // `server::tests::wait_until`.
    Ratchet {
        name: "Timed waits in the serve crate do not grow",
        paths: &["crates/serve/src"],
        patterns: &[
            Lit("sleep("),
            Lit("Instant::now()"),
            Lit("recv_timeout("),
            Lit("wait_timeout("),
        ],
        ceiling: 9,
    },
    // A fleet or server e2e case waits through its file's `wait_until`.
    Ratchet {
        name: "Sleeps in the serve e2e suites do not grow",
        paths: &["crates/serve/tests", "tests/serve_determinism.rs"],
        patterns: &[Lit("sleep(")],
        ceiling: 4,
    },
    // Past the boundary a wattage is a `Cap` or a `Watts` and checks
    // nothing. What is left, test modules included: the demand split's
    // overflow rescale and the signed `Report` residual.
    Ratchet {
        name: "Finiteness checks in the serve and CLI crates do not grow",
        paths: &["crates/serve/src", "crates/cli/src"],
        patterns: &[Lit("is_finite(")],
        ceiling: 6,
    },
];

fn is_ident(byte: u8) -> bool {
    byte.is_ascii_alphanumeric() || byte == b'_'
}

/// Byte offsets of the non-overlapping matches of `pattern` in `text`.
fn hits(text: &[u8], pattern: Pattern) -> Vec<usize> {
    let (Lit(needle) | Word(needle) | ThenUpper(needle)) = pattern;
    let needle = needle.as_bytes();
    let mut found = Vec::new();
    let mut at = 0;
    while at + needle.len() <= text.len() {
        let end = at + needle.len();
        let hit = text[at..end] == *needle
            && match pattern {
                Lit(_) => true,
                Word(_) => {
                    let around = [at.checked_sub(1), Some(end)];
                    !around.into_iter().flatten().any(|i| text.get(i).is_some_and(|&b| is_ident(b)))
                }
                ThenUpper(_) => text.get(end).is_some_and(u8::is_ascii_uppercase),
            };
        if hit {
            found.push(at);
            at = end;
        } else {
            at += 1;
        }
    }
    found
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `path`, in name order, without following symlinks.
fn walk(path: &Path, files: &mut Vec<PathBuf>) {
    let kind = std::fs::symlink_metadata(path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        .file_type();
    if kind.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .map(|entry| entry.expect("a readable directory entry").path())
            .collect();
        entries.sort();
        entries.iter().for_each(|entry| walk(entry, files));
    } else if kind.is_file() && path != root().join(file!()) {
        files.push(path.to_path_buf());
    }
}

/// `path:line: text` for every match of `patterns` under `paths`.
fn sites(paths: &[&str], patterns: &[Pattern]) -> Vec<String> {
    let mut files = Vec::new();
    paths.iter().for_each(|path| walk(&root().join(path), &mut files));
    let mut sites = Vec::new();
    for file in files {
        let text = std::fs::read(&file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        let mut offsets: Vec<usize> =
            patterns.iter().flat_map(|&pattern| hits(&text, pattern)).collect();
        offsets.sort_unstable();
        for offset in offsets {
            let line_start = text[..offset].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            let line_end =
                text[offset..].iter().position(|&b| b == b'\n').map_or(text.len(), |i| offset + i);
            let line = 1 + text[..offset].iter().filter(|&&b| b == b'\n').count();
            let relative = file.strip_prefix(root()).unwrap_or(&file);
            let shown = String::from_utf8_lossy(&text[line_start..line_end]);
            sites.push(format!("{}:{line}: {}", relative.display(), shown.trim()));
        }
    }
    sites
}

#[test]
fn no_deleted_name_comes_back() {
    let mut failures = Vec::new();
    for guard in GUARDS {
        for site in sites(guard.paths, guard.forbidden) {
            failures.push(format!("{}: {site}", guard.name));
        }
    }
    assert!(failures.is_empty(), "a deleted name is back:\n{}", failures.join("\n"));
}

#[test]
fn counted_sites_only_get_fewer() {
    let mut failures = Vec::new();
    for ratchet in RATCHETS {
        let sites = sites(ratchet.paths, ratchet.patterns);
        if sites.len() > ratchet.ceiling {
            failures.push(format!(
                "{}: {} sites, ceiling {}\n{}",
                ratchet.name,
                sites.len(),
                ratchet.ceiling,
                sites.join("\n")
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

#[test]
fn patterns_match_as_grep_reads_them() {
    let count = |text: &str, pattern| hits(text.as_bytes(), pattern).len();
    // `grep -o` counts every occurrence, several on one line included.
    assert_eq!(count("sleep(1); sleep(2);\nsleep(", Lit("sleep(")), 3);
    // `\bProfiler\b`: whole words only, at either end of the text too.
    assert_eq!(count("Profiler; a Profiler.", Word("Profiler")), 2);
    for near_miss in ["Profilers", "MyProfiler", "Profiler_x", "profiler"] {
        assert_eq!(count(near_miss, Word("Profiler")), 0, "{near_miss}");
    }
    // `CoordJournalEntry::[A-Z]`: a variant, not a method.
    assert_eq!(count("CoordJournalEntry::Grant", ThenUpper("CoordJournalEntry::")), 1);
    assert_eq!(count("CoordJournalEntry::tick", ThenUpper("CoordJournalEntry::")), 0);
    assert_eq!(count("CoordJournalEntry::", ThenUpper("CoordJournalEntry::")), 0);
}
