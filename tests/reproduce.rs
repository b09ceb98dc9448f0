//! Artifacts cannot drift from code: every registry row reproduces its
//! committed `results/` file byte for byte. This is the one pin — paper
//! tables and figures, ablations, the transfer matrix, the drift grid and
//! the regression traces alike — and `acs reproduce` is its one writer.

use acs_bench::experiments::REGISTRY;
use std::path::{Path, PathBuf};

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Where `fresh` first departs from `committed`, as
/// `results/FILE:LINE:COLUMN:` and the bytes around it on both sides, or
/// `None` when they are the same bytes. (A timeline is one long line, so
/// the excerpt is a window, not the line.)
fn first_difference(file: &str, fresh: &str, committed: &str) -> Option<String> {
    let (new, old) = (fresh.as_bytes(), committed.as_bytes());
    let at = match new.iter().zip(old).position(|(a, b)| a != b) {
        Some(at) => at,
        None if new.len() == old.len() => return None,
        None => new.len().min(old.len()),
    };
    let line_start = old[..at].iter().rposition(|&b| b == b'\n').map_or(0, |nl| nl + 1);
    let line = old[..line_start].iter().filter(|&&b| b == b'\n').count() + 1;
    let from = line_start.max(at.saturating_sub(30));
    let around = |s: &[u8]| String::from_utf8_lossy(&s[from..(at + 30).min(s.len())]).into_owned();
    Some(format!(
        "results/{file}:{line}:{}: the code prints {:?}, the file has {:?}",
        at - line_start + 1,
        around(new),
        around(old)
    ))
}

#[test]
fn every_deterministic_artifact_is_what_the_code_prints() {
    let mut stale = Vec::new();
    for row in REGISTRY {
        let file = format!("{}.json", row.name);
        let committed = std::fs::read_to_string(results().join(&file))
            .unwrap_or_else(|e| panic!("results/{file}: {e}"));
        let fresh = (row.run)(&mut std::io::sink()).expect("a sink takes every write");
        stale.extend(first_difference(&file, &fresh, &committed));
    }
    assert!(
        stale.is_empty(),
        "committed artifacts are not what the code produces \
         (`acs reproduce --name all` rewrites them):\n{}",
        stale.join("\n")
    );
}

#[test]
fn a_one_byte_tamper_is_caught_and_located() {
    // A one-line trace and a pretty-printed report.
    for file in ["timeline_guarded_chaos.json", "transfer_matrix.json"] {
        let committed = std::fs::read_to_string(results().join(file)).expect("committed artifact");
        assert_eq!(first_difference(file, &committed, &committed), None);

        let half = committed.len() / 2;
        let at = half + committed[half..].find(|c: char| c.is_ascii_digit()).expect("a digit");
        let digit = if &committed[at..=at] == "7" { "8" } else { "7" };
        let tampered = format!("{}{digit}{}", &committed[..at], &committed[at + 1..]);
        let rows: Vec<&str> = committed[..at].split('\n').collect();
        let (line, column) = (rows.len(), rows[rows.len() - 1].len() + 1);

        let found = first_difference(file, &tampered, &committed).expect("a tamper is caught");
        assert!(found.starts_with(&format!("results/{file}:{line}:{column}: ")), "{found}");
        assert!(first_difference(file, &committed[..at], &committed).is_some(), "a cut is caught");
    }
}
