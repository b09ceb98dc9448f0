//! Artifacts cannot drift from code: every registry row whose output is a
//! pure function of the code reproduces its committed `results/` file
//! byte for byte.

use acs_bench::experiments::REGISTRY;
use std::path::Path;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "regenerates all 21 paper artifacts: seconds in release, minutes in debug"
)]
fn every_deterministic_artifact_is_what_the_code_prints() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut stale = Vec::new();
    for row in REGISTRY.iter().filter(|e| e.deterministic) {
        let file = format!("{}.json", row.result_stem());
        let committed = std::fs::read_to_string(results.join(&file))
            .unwrap_or_else(|e| panic!("results/{file}: {e}"));
        let fresh = (row.run)(&mut std::io::sink()).expect("a sink takes every write");
        if fresh != committed {
            let same = fresh.lines().zip(committed.lines()).take_while(|(a, b)| a == b).count();
            stale.push(format!(
                "results/{file}:{}: the code prints {:?}, the file has {:?}",
                same + 1,
                fresh.lines().nth(same),
                committed.lines().nth(same)
            ));
        }
    }
    assert!(
        stale.is_empty(),
        "committed artifacts are not what the code produces \
         (`acs reproduce --name all` rewrites them):\n{}",
        stale.join("\n")
    );
}
