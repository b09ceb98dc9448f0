//! Experiment A1 — cluster-count ablation: sweep k = 2..10 and measure the
//! model's held-out quality under leave-one-benchmark-out cross-validation.
//! The paper reports that five clusters were empirically optimal: "using
//! fewer clusters resulted in over-generalized models, and using more
//! clusters resulted in over-specialized models" (Section III-B).
//!
//! Run with: `cargo run --release -p acs-bench --bin ablation_clusters`

use acs_core::eval::evaluate;
use acs_core::{Method, TrainingParams};
use rayon::prelude::*;

fn main() {
    let apps = acs_bench::characterized_suite();

    println!("Ablation A1 — cluster count sweep (LOBO-CV, Model and Model+FL)");
    println!();
    println!(
        "{:>2} | {:>14} | {:>15} | {:>14} | {:>15}",
        "k", "Model %under", "Model %perf", "M+FL %under", "M+FL %perf"
    );
    println!("{}", "-".repeat(72));

    // Every k re-trains and re-evaluates the full suite independently —
    // the sweep fans out across rayon threads, then prints in k order.
    let results: Vec<(usize, acs_core::MethodSummary, acs_core::MethodSummary)> = (2..11usize)
        .into_par_iter()
        .map(|k| {
            let params = TrainingParams { n_clusters: k, ..Default::default() };
            let eval = evaluate(&apps, params).expect("training succeeds");
            let table = eval.table3();
            let get = |m: Method| *table.iter().find(|s| s.method == m).expect("method present");
            (k, get(Method::Model), get(Method::ModelFL))
        })
        .collect();
    for (k, model, fl) in &results {
        println!(
            "{:>2} | {:>14.1} | {:>15.1} | {:>14.1} | {:>15.1}",
            k,
            model.pct_under,
            model.under_perf_pct.unwrap_or(0.0),
            fl.pct_under,
            fl.under_perf_pct.unwrap_or(0.0),
        );
    }

    println!();
    println!(
        "Expectation per the paper: quality rises from k = 2, is strong in the\n\
         middle of the range (paper picked k = 5), and gains little or degrades\n\
         beyond that as clusters over-specialize."
    );

    let path = acs_bench::write_result("ablation_clusters", &results);
    println!("\nwrote {}", path.display());
}
