//! Docs cannot drift from artifacts.
//!
//! A number in DESIGN.md, EXPERIMENTS.md or README.md that claims to come
//! from a committed JSON file is followed, on the same line and with
//! nothing but `*` or `%` in between, by a marker naming where:
//!
//! ```text
//! **76**<!-- results/table3_methods.json#method=Model/pct_under -->
//! 186<!-- benchmark/baseline/run-seed2014-trace1.json#select_warm/core.fastpath.select_with_ns --> ns
//! ```
//!
//! The key is a `/`-separated path: a field name, an array index, or
//! `field=value` picking the array element whose `field` is the string
//! `value`. Under `benchmark/baseline/` the key is `workload/metric`,
//! short for `workloads/workload=W/metrics/M/value`. The file's value,
//! printed to as many decimals as the doc prints, must equal the doc's
//! digits (thousands may be separated by single spaces).
//!
//! Nor can the lists of "every experiment": `acs_bench::experiments::REGISTRY`
//! is the list, and a test here holds `results/` and DESIGN.md section 4
//! to it; the README's "Runnable examples" table is held to `examples/`.

use serde::Value;
use std::path::Path;

const DOCS: [&str; 3] = ["DESIGN.md", "EXPERIMENTS.md", "README.md"];
const BASELINE_DIR: &str = "benchmark/baseline/";

/// The number printed immediately before a marker, thousands separators
/// removed.
fn quoted_number(before: &str) -> Option<String> {
    let s = before.trim_end_matches(['*', '%']);
    let is_part = |c: char| c.is_ascii_digit() || c == '.';
    let mut start = s.len() - s.chars().rev().take_while(|&c| is_part(c)).count();
    // `6 821`: a group of three digits may be preceded by a separator and
    // one to three more digits.
    loop {
        let leading_digits = s[start..].chars().take_while(char::is_ascii_digit).count();
        let Some(head) = s[..start].strip_suffix(' ') else { break };
        let group = head.chars().rev().take_while(char::is_ascii_digit).count();
        let before_group = head[..head.len() - group].chars().next_back();
        if leading_digits != 3 || !(1..=3).contains(&group) || before_group.is_some_and(is_part) {
            break;
        }
        start = head.len() - group;
    }
    let digits: String = s[start..].chars().filter(|&c| is_part(c)).collect();
    (digits.starts_with(|c: char| c.is_ascii_digit()) && digits.matches('.').count() <= 1)
        .then_some(digits)
}

/// Walk `key` into `doc`.
fn lookup<'v>(doc: &'v Value, key: &str) -> Result<&'v Value, String> {
    key.split('/').try_fold(doc, |at, seg| {
        let found = match (at, seg.split_once('=')) {
            (Value::Array(items), Some((field, want))) => items
                .iter()
                .find(|item| matches!(item.get(field), Some(Value::Str(s)) if s == want)),
            (Value::Array(items), None) => seg.parse::<usize>().ok().and_then(|i| items.get(i)),
            _ => at.get(seg),
        };
        found.ok_or_else(|| format!("no `{seg}` in a {}", at.kind()))
    })
}

/// Every marker in `text`: its line number, the text before it on that
/// line, and its `file#key` body.
fn markers(text: &str) -> Vec<(usize, &str, &str)> {
    let mut found = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let mut from = 0;
        while let Some(open) = line[from..].find("<!-- ").map(|at| from + at) {
            let body_start = open + "<!-- ".len();
            let Some(close) = line[body_start..].find(" -->").map(|at| body_start + at) else {
                break;
            };
            from = close;
            let body = &line[body_start..close];
            if body.starts_with("results/") || body.starts_with(BASELINE_DIR) {
                found.push((i + 1, &line[..open], body));
            }
        }
    }
    found
}

/// Check the number printed at the end of `before` against the marker
/// `file#key` that follows it.
fn verify(root: &Path, before: &str, body: &str) -> Result<(), String> {
    let (file, key) = body.split_once('#').ok_or(format!("marker `{body}` has no #key"))?;
    let quoted = quoted_number(before).ok_or(format!("no number directly before `{body}`"))?;
    let text = std::fs::read_to_string(root.join(file)).map_err(|e| format!("{file}: {e}"))?;
    let doc = serde_json::parse_value(&text).map_err(|e| format!("{file}: {e}"))?;
    let key = match (file.starts_with(BASELINE_DIR), key.split_once('/')) {
        (true, Some((workload, metric))) => {
            format!("workloads/workload={workload}/metrics/{metric}/value")
        }
        _ => key.to_string(),
    };
    let value = match lookup(&doc, &key).map_err(|e| format!("{file}#{key}: {e}"))? {
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::F64(x) => *x,
        other => return Err(format!("{file}#{key} is a {}, not a number", other.kind())),
    };
    let decimals = quoted.split_once('.').map_or(0, |(_, frac)| frac.len());
    let printed = format!("{value:.decimals$}");
    if printed == quoted {
        Ok(())
    } else {
        Err(format!("doc says {quoted}, {file}#{key} is {value} (prints as {printed})"))
    }
}

#[test]
fn every_marked_number_matches_its_artifact() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut problems = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc is readable");
        let found = markers(&text);
        assert!(!found.is_empty(), "{doc} marks no number at all");
        for (line, before, body) in found {
            if let Err(why) = verify(root, before, body) {
                problems.push(format!("{doc}:{line}: {why}"));
            }
        }
    }
    assert!(problems.is_empty(), "docs drifted from artifacts:\n{}", problems.join("\n"));
}

#[test]
fn table_iii_is_marked_cell_by_cell() {
    // 4 methods × 5 metrics: a row pasted back in without markers would
    // otherwise pass the test above.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("doc is readable");
    let cells = markers(&text)
        .iter()
        .filter(|(_, _, body)| body.starts_with("results/table3_methods.json#"))
        .count();
    assert!(cells >= 20, "EXPERIMENTS.md marks {cells} Table III cells, expected 20");
}

/// The names in `dir`, sorted.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// No experiment runs here: this checks names only (`tests/reproduce.rs`
/// checks the bytes).
#[test]
fn the_registry_is_the_list_of_experiments() {
    use acs_bench::experiments::REGISTRY;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));

    let mut expected: Vec<String> =
        REGISTRY.iter().map(|row| format!("{}.json", row.name)).collect();
    expected.sort();
    assert_eq!(
        file_names(&root.join("results")),
        expected,
        "results/ and the registry list different artifacts"
    );

    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("doc is readable");
    for row in REGISTRY {
        let (index_row, regenerated_by) =
            (format!("| {} |", row.id), format!("`acs reproduce --name {}`", row.name));
        assert!(
            design.lines().any(|l| l.starts_with(&index_row) && l.contains(&regenerated_by)),
            "DESIGN.md section 4 has no `{index_row}` row regenerated by {regenerated_by}"
        );
    }
}

#[test]
fn the_readme_lists_the_examples_in_the_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).expect("doc is readable");
    let mut listed: Vec<String> = readme
        .lines()
        .skip_while(|l| !l.starts_with("Runnable examples"))
        .skip_while(|l| !l.starts_with("|---"))
        .skip(1)
        .map_while(|l| l.strip_prefix("| `"))
        .map(|row| format!("{}.rs", row.split('`').next().expect("split yields a first piece")))
        .collect();
    listed.sort();
    assert_eq!(
        listed,
        file_names(&root.join("examples")),
        "README's \"Runnable examples\" table and examples/ differ"
    );
}

#[test]
fn a_number_one_digit_off_is_caught() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let table3 =
        |before| verify(root, before, "results/table3_methods.json#method=Model/pct_under");
    assert_eq!(table3("| Model | 70 → **76**"), Ok(()));
    assert_eq!(table3("meets caps 76.2%"), Ok(()));
    assert!(table3("| Model | 70 → **77**").is_err());
    assert!(table3("meets caps 76.3%").is_err());
    assert!(table3("meets caps often").is_err(), "a marker needs a number before it");
    assert!(verify(root, "76", "results/table3_methods.json#method=Nobody/pct_under").is_err());
    assert!(verify(root, "76", "results/table3_methods.json").is_err());
    assert!(verify(root, "76", "results/no_such_file.json#x").is_err());

    let line =
        "hit **6 821**<!-- results/x.json#a/b --> ns, 87%<!-- results/y.json#c --> <!-- todo -->";
    let found = markers(line);
    assert_eq!(found.len(), 2, "a comment that names no artifact is not a marker");
    assert_eq!(quoted_number(found[0].1).as_deref(), Some("6821"));
    assert_eq!(quoted_number(found[1].1).as_deref(), Some("87"));
    // A year before the figure is not a thousands group.
    assert_eq!(quoted_number("in 2014 186").as_deref(), Some("186"));
    assert_eq!(quoted_number("0.277").as_deref(), Some("0.277"));
    assert_eq!(quoted_number("version 1.2.3"), None);
}
