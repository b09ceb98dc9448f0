//! The experiment registry: every table, figure, ablation and regression
//! trace this repository regenerates is one row of [`REGISTRY`], and
//! `acs reproduce --name NAME` is the only thing that selects one. Every
//! row's output is a pure function of the code, pinned byte for byte as
//! `results/{name}.json`. DESIGN.md section 4 indexes the rows by
//! experiment id.

mod ablations;

use crate::pretty;
use acs_core::{MethodSummary, TrainingParams};
use acs_sim::FamilyId;
use acs_verify::golden;
use std::io::{self, Write};

/// One regenerable artifact.
pub struct Experiment {
    /// The name `acs reproduce --name` takes.
    pub name: &'static str,
    /// The experiment id DESIGN.md section 4 and EXPERIMENTS.md use.
    pub id: &'static str,
    /// Print the human-readable report to the sink and return the pretty
    /// JSON that belongs in `results/{name}.json`.
    pub run: Run,
}

/// What an [`Experiment`] runs.
type Run = fn(&mut dyn Write) -> io::Result<String>;

/// Every experiment, in DESIGN.md section 4 order.
pub static REGISTRY: &[Experiment] = &[
    artifact("fig2_table1_frontier", "T1", fig2_table1_frontier),
    artifact("fig3_tree", "F3", fig3_tree),
    artifact("table3_methods", "T3", table3_methods),
    artifact("fig4_scatter", "F4", fig4_scatter),
    artifact("fig5_underlimit_perf", "F5", |out| {
        by_app_figure(
            out,
            "Figure 5 — % of oracle performance, under-limit cases, by benchmark",
            |s| s.under_perf_pct,
            "Paper shape check: Model+FL maintains high performance across all\n\
             benchmarks (paper worst case 74.9%); CPU+FL and GPU+FL collapse on\n\
             their worst-case benchmarks (paper: 13.3% and 62.4%).",
        )
    }),
    artifact("fig6_underlimit_pct", "F6", |out| {
        by_app_figure(
            out,
            "Figure 6 — % of cases under-limit, by benchmark",
            |s| Some(s.pct_under),
            "Paper shape check: Model+FL meets constraints most often for nearly\n\
             every benchmark; LU (both inputs) is the hardest because every\n\
             method that picks the GPU cannot reach the lowest caps.",
        )
    }),
    artifact("fig7_lu_frontier", "F7", fig7_lu_frontier),
    artifact("fig8_overlimit_power", "F8", |out| {
        by_app_figure(
            out,
            "Figure 8 — % of oracle power, over-limit cases, by benchmark (— = no over-limit cases)",
            |s| s.over_power_pct,
            "Paper shape check: in over-limit cases Model+FL uses the least power\n\
             of the methods on nearly every benchmark; GPU+FL the most.",
        )
    }),
    artifact("fig9_overlimit_perf", "F9", |out| {
        by_app_figure(
            out,
            "Figure 9 — % of oracle performance, over-limit cases, by benchmark (— = none)",
            |s| s.over_perf_pct,
            "Paper shape check: GPU+FL posts enormous over-limit performance on\n\
             the GPU-extreme benchmarks (paper clips 9297% on LU Large) because\n\
             it ignores the cap and runs near flat-out.",
        )
    }),
    artifact("ablation_clusters", "A1", ablations::ablation_clusters),
    artifact("ablation_transform", "A2", ablations::ablation_transform),
    artifact("ablation_boost", "A4", ablations::ablation_boost),
    artifact("ablation_confidence", "A5", ablations::ablation_confidence),
    artifact("ablation_noise", "A6", ablations::ablation_noise),
    artifact("table3_bootstrap", "T3b", table3_bootstrap),
    artifact("baseline_governor", "B1", ablations::baseline_governor),
    artifact("ablation_microbench", "A7", ablations::ablation_microbench),
    artifact("ablation_asymmetric", "A8", ablations::ablation_asymmetric),
    artifact("ablation_ranking", "A9", ablations::ablation_ranking),
    artifact("ablation_faults", "A10", ablations::ablation_faults),
    artifact("ablation_regret", "A11", ablations::ablation_regret),
    artifact("transfer_matrix", "A16", transfer_matrix),
    artifact("drift_grid", "A18", drift_grid),
    // The regression traces: each covers a layer a behaviour change could
    // hide in, and its bytes are the evidence.
    artifact("timeline_unguarded", "G1", |out| {
        trace(out, "unguarded scheduler timeline", golden::unguarded_timeline)
    }),
    artifact("timeline_guarded_chaos", "G2", |out| {
        trace(out, "guarded chaos timeline", golden::guarded_chaos_timeline)
    }),
    artifact("regret_summary", "G3", |out| {
        trace(out, "quick-grid regret summary", golden::regret_summary)
    }),
    artifact("timeline_bigcore", "G4", |out| {
        trace(out, "BigCore scheduler timeline", || golden::family_timeline(FamilyId::BigCore))
    }),
    artifact("timeline_lowpower", "G5", |out| {
        trace(out, "LowPower scheduler timeline", || golden::family_timeline(FamilyId::LowPower))
    }),
    artifact("timeline_accel", "G6", |out| {
        trace(out, "AccelHybrid scheduler timeline", || {
            golden::family_timeline(FamilyId::AccelHybrid)
        })
    }),
    artifact("serve_stream", "G7", serve_stream),
];

const fn artifact(name: &'static str, id: &'static str, run: Run) -> Experiment {
    Experiment { name, id, run }
}

/// A regression trace's row: name what it pins and return its bytes.
fn trace(out: &mut dyn Write, what: &str, produce: impl FnOnce() -> String) -> io::Result<String> {
    let json = produce();
    writeln!(out, "{what}: {} bytes", json.len())?;
    Ok(json)
}

/// Requests in the `serve_stream` pin: enough that every request kind,
/// cold and warm selections and a few adaptation observations show, few
/// enough that the file stays the size of a timeline.
const STREAM_REQUESTS: u64 = 120;

/// Regression trace G7 — the served bytes. A fresh journaled server (the
/// default configuration, the model `acs serve` trains when given none)
/// answers one session of [`served_stream`](crate::served_stream) at seed
/// 7 and is stopped, which journals the session's `Leave`. The pin is
/// every reply and every journal line, so the wire codec, the session
/// step, the arbiter and the journal format are all byte-checked.
fn serve_stream(out: &mut dyn Write) -> io::Result<String> {
    use acs_serve::{ServeConfig, Server};

    #[derive(serde::Serialize)]
    struct Pin {
        replies: Vec<String>,
        journal: Vec<String>,
    }

    let path =
        std::env::temp_dir().join(format!("acs-serve-stream-{}.journal", std::process::id()));
    // A journal a killed run left behind would be replayed: start empty.
    let _ = std::fs::remove_file(&path);
    let model =
        acs_core::train_on_suite(&crate::default_machine(), usize::MAX).expect("training succeeds");
    let config = ServeConfig { journal: Some(path.clone()), ..ServeConfig::default() };
    let server = Server::spawn(config, model).map_err(io::Error::other)?;
    let replies = crate::served_stream(&server.addr, STREAM_REQUESTS, 7);
    server.stop();
    let journal = std::fs::read_to_string(&path)?;
    std::fs::remove_file(&path)?;
    let pin = Pin {
        replies: replies.map_err(io::Error::other)?,
        journal: journal.lines().map(str::to_string).collect(),
    };
    writeln!(
        out,
        "served stream: {} replies, {} journal lines",
        pin.replies.len(),
        pin.journal.len()
    )?;
    Ok(pretty(&pin))
}

/// Experiment A16 — the cross-architecture transfer matrix over the quick
/// transfer grid: a model trained on every machine family serves every
/// family. `acs verify --transfer true` gates it (and the full grid).
fn transfer_matrix(out: &mut dyn Write) -> io::Result<String> {
    use acs_verify::{run_transfer, GridParams, ScenarioGrid};

    let grid = ScenarioGrid::generate(GridParams::transfer_quick());
    let matrix = run_transfer(&grid, TrainingParams::default()).expect("training succeeds");
    write!(out, "{}", matrix.render())?;
    Ok(pretty(&matrix))
}

/// Experiment A18 — static vs adaptive regret under every seeded drift
/// process over the quick drift grid. `acs verify --drift true` gates it
/// (and the full grid).
fn drift_grid(out: &mut dyn Write) -> io::Result<String> {
    let report =
        acs_verify::run_drift(&acs_verify::DriftGridParams::quick()).expect("training succeeds");
    write!(out, "{}", report.render())?;
    Ok(pretty(&report))
}

/// Figures 5, 6, 8 and 9: one per-application table each, differing in
/// the title, the plotted field and the paper's shape check.
fn by_app_figure(
    out: &mut dyn Write,
    title: &str,
    metric: fn(&MethodSummary) -> Option<f64>,
    shape_check: &str,
) -> io::Result<String> {
    let txt = crate::render_by_app(&crate::full_evaluation(), title, metric);
    writeln!(out, "{txt}")?;
    writeln!(out, "{shape_check}")?;
    Ok(pretty(&txt))
}

/// Experiment T3 — Table III: comparison of power-limiting methods
/// (Model, Model+FL, GPU+FL, CPU+FL) against a perfect-knowledge oracle,
/// under leave-one-benchmark-out cross-validation over all 65
/// benchmark/input kernel combinations.
fn table3_methods(out: &mut dyn Write) -> io::Result<String> {
    let eval = crate::full_evaluation();
    let table = eval.table3();

    writeln!(out, "Table III — methods vs. oracle (65 kernel/input combinations, LOBO-CV)")?;
    writeln!(out)?;
    write!(out, "{}", crate::render_table3(&table))?;
    writeln!(out)?;
    writeln!(out, "Paper reference (Table III):")?;
    writeln!(out, "  Model     | 70 | 91 | 94 | 112 | 139")?;
    writeln!(out, "  Model+FL  | 88 | 91 | 91 | 106 | 154")?;
    writeln!(out, "  GPU+FL    | 60 | 94 | 95 | 137 | 1723")?;
    writeln!(out, "  CPU+FL    | 76 | 69 | 94 | 111 | 216")?;
    writeln!(out)?;
    writeln!(out, "Per-fold clustering silhouettes:")?;
    for (label, s) in &eval.fold_silhouettes {
        writeln!(out, "  hold out {label:<8} silhouette {s:.3}")?;
    }

    Ok(pretty(&table))
}

/// Experiment T3b — bootstrap confidence intervals for the Table III
/// headline metrics, resampling kernels with replacement (1000
/// replicates, 95% percentile intervals).
fn table3_bootstrap(out: &mut dyn Write) -> io::Result<String> {
    use acs_core::bootstrap::{bootstrap_table3, render_intervals};

    let eval = crate::full_evaluation();
    let intervals = bootstrap_table3(&eval.cases, 1000, 0.95, crate::EXPERIMENT_SEED);

    writeln!(out, "Table III with kernel-bootstrap 95% confidence intervals")?;
    writeln!(out)?;
    write!(out, "{}", render_intervals(&intervals))?;
    writeln!(out)?;
    writeln!(
        out,
        "Reading: non-overlapping intervals confirm the orderings the paper\n\
         reports (Model+FL > others on cap compliance; CPU+FL worst on\n\
         under-limit performance) are not resampling artifacts."
    )?;

    Ok(pretty(&intervals))
}

/// Experiment T1 — Figure 2 and Table I: the power–performance Pareto
/// frontier of the `CalcFBHourglassForce` kernel from LULESH, plus the
/// Table II sample configurations.
fn fig2_table1_frontier(out: &mut dyn Write) -> io::Result<String> {
    use acs_core::{sample_config, KernelProfile};
    use acs_sim::Device;

    let machine = crate::default_machine();
    let apps = acs_kernels::app_instances();
    let lulesh_small =
        apps.iter().find(|a| a.label() == "LULESH Small").expect("LULESH Small in suite");
    let kernel = lulesh_small
        .kernels
        .iter()
        .find(|k| k.name == "CalcFBHourglassForce")
        .expect("CalcFBHourglassForce kernel");

    let profile = KernelProfile::collect(&machine, kernel);
    let frontier = profile.frontier().normalized();

    writeln!(out, "Table I / Figure 2 — Pareto frontier of {}", kernel.id())?;
    writeln!(out)?;
    writeln!(out, "Device | GPU f.    | Threads | CPU f.  | Power   | Perf.*")?;
    writeln!(out, "-------+-----------+---------+---------+---------+-------")?;
    for p in frontier.points() {
        writeln!(
            out,
            "{:<6} | {:>6.3} GHz | {:>7} | {:>3.1} GHz | {:>5.1} w | {:>5.2}",
            p.config.device,
            p.config.gpu_pstate.freq_ghz(),
            p.config.threads,
            p.config.cpu_pstate.freq_ghz(),
            p.power_w,
            p.perf,
        )?;
    }
    writeln!(out, "*Normalized performance")?;
    writeln!(out)?;
    writeln!(
        out,
        "Paper shape check: CPU configurations occupy the low-power region, GPU \
         configurations the high-performance region."
    )?;
    let first_gpu = frontier.points().iter().position(|p| p.config.device == Device::Gpu);
    match first_gpu {
        Some(i) => {
            let all_cpu_before =
                frontier.points()[..i].iter().all(|p| p.config.device == Device::Cpu);
            writeln!(
                out,
                "  crossover at frontier position {i}/{}; CPU-only below: {all_cpu_before}",
                frontier.len()
            )?;
        }
        None => writeln!(out, "  no GPU configuration on this frontier")?,
    }

    writeln!(out)?;
    writeln!(out, "Table II — sample configurations:")?;
    for device in [Device::Cpu, Device::Gpu] {
        let c = sample_config(device);
        writeln!(
            out,
            "  {:<3}: CPU {:.1} GHz, {} thread(s), GPU {:.0} MHz",
            device,
            c.cpu_pstate.freq_ghz(),
            c.threads,
            c.gpu_pstate.freq_ghz() * 1000.0
        )?;
    }

    // Full scatter (Figure 2's non-frontier points) as machine-readable output.
    let all_points = profile.measured_points();
    Ok(pretty(&(frontier.points(), all_points)))
}

/// Experiment F3 — Figure 3: an example classification tree, trained on
/// the full suite's sample-configuration features.
fn fig3_tree(out: &mut dyn Write) -> io::Result<String> {
    use acs_core::{train, KernelProfile};

    let apps = crate::characterized_suite();
    let profiles: Vec<KernelProfile> =
        apps.iter().flat_map(|a| a.profiles.iter().cloned()).collect();

    let model = train(&profiles, TrainingParams::default()).expect("training succeeds");

    writeln!(out, "Figure 3 — classification tree over sample-configuration features")?;
    writeln!(out, "(trained on all {} kernel/input combinations, k = 5 clusters)", profiles.len())?;
    writeln!(out)?;
    write!(out, "{}", model.render_tree())?;
    writeln!(out)?;
    writeln!(out, "cluster sizes: {:?}", model.clustering.sizes())?;
    writeln!(out, "clustering silhouette: {:.3}", model.silhouette)?;
    writeln!(
        out,
        "tree training accuracy: {:.1}%",
        model.tree_training_accuracy(&profiles) * 100.0
    )?;

    // The paper notes each cluster contains kernels from at least three of
    // the benchmark/input combinations; report the analogous spread.
    for c in 0..model.clustering.k() {
        let mut benchmarks: Vec<String> = model
            .clustering
            .members(c)
            .into_iter()
            .map(|i| {
                let id = &model.kernel_ids[i];
                id.split('/').take(2).collect::<Vec<_>>().join("/")
            })
            .collect();
        benchmarks.sort();
        benchmarks.dedup();
        writeln!(
            out,
            "cluster {c}: kernels from {} benchmark/input combinations",
            benchmarks.len()
        )?;
    }

    Ok(pretty(&(model.render_tree(), model.clustering.sizes(), model.silhouette)))
}

/// Experiment F4 — Figure 4: each method plotted by the two headline
/// metrics together — percent of power constraints met, and percent of
/// optimal (oracle) performance achieved while meeting them. The best
/// method sits closest to the oracle's (100, 100) corner.
fn fig4_scatter(out: &mut dyn Write) -> io::Result<String> {
    let eval = crate::full_evaluation();
    let table = eval.table3();

    writeln!(out, "Figure 4 — % constraints met vs. % optimal performance (under-limit)")?;
    writeln!(out)?;
    writeln!(
        out,
        "{:<10} | {:>12} | {:>18} | distance to oracle corner",
        "Method", "% under", "% oracle perf"
    )?;
    writeln!(out, "{}", "-".repeat(75))?;
    let mut rows = Vec::new();
    for s in &table {
        let perf = s.under_perf_pct.unwrap_or(0.0);
        let dist = ((100.0 - s.pct_under).powi(2) + (100.0 - perf).powi(2)).sqrt();
        writeln!(
            out,
            "{:<10} | {:>12.0} | {:>18.0} | {:>6.1}",
            s.method.name(),
            s.pct_under,
            perf,
            dist
        )?;
        rows.push((s.method.name(), s.pct_under, perf, dist));
    }
    writeln!(out, "{:<10} | {:>12} | {:>18} | {:>6.1}", "Oracle", 100, 100, 0.0)?;
    writeln!(out)?;

    // ASCII scatter, x = % under (50..100), y = % oracle perf (40..100).
    writeln!(out, "  %perf")?;
    for y in (40..=100).rev().step_by(10) {
        let mut line = format!("  {y:>4} |");
        for x in (50..=100).step_by(2) {
            let hit = rows
                .iter()
                .find(|(_, px, py, _)| (px - x as f64).abs() < 1.0 && (py - y as f64).abs() < 5.0);
            line.push_str(match hit {
                Some((name, ..)) => &name[..1], // M/M/G/C initial
                None => " ",
            });
        }
        writeln!(out, "{line}")?;
    }
    writeln!(out, "       +{}", "-".repeat(26))?;
    writeln!(out, "        50        75       100  % under")?;
    writeln!(out, "  (M = Model/Model+FL, G = GPU+FL, C = CPU+FL)")?;

    Ok(pretty(&table))
}

/// Experiment F7 — Figure 7: the power–performance frontier of LU Small,
/// the suite's hardest case. Its defining feature is a sharp performance
/// cliff at the CPU→GPU switch: the paper reports attainable normalized
/// performance jumping from 10.4% to 89.0% between 17.2 W and 17.6 W.
fn fig7_lu_frontier(out: &mut dyn Write) -> io::Result<String> {
    use acs_core::KernelProfile;
    use acs_sim::Device;

    let machine = crate::default_machine();
    let apps = acs_kernels::app_instances();
    let lu_small = apps.iter().find(|a| a.label() == "LU Small").expect("LU Small");
    let kernel = &lu_small.kernels[0];

    let profile = KernelProfile::collect(&machine, kernel);
    let frontier = profile.frontier().normalized();

    writeln!(out, "Figure 7 — power–performance frontier of {}", kernel.id())?;
    writeln!(out)?;
    writeln!(out, "Power   | Norm. perf | Configuration")?;
    writeln!(out, "--------+------------+----------------------------------")?;
    for p in frontier.points() {
        let bar = "#".repeat((p.perf * 40.0).round() as usize);
        writeln!(
            out,
            "{:>5.1} W | {:>9.3}  | {:<40} {bar}",
            p.power_w,
            p.perf,
            p.config.to_string()
        )?;
    }

    // Quantify the cliff: the largest perf jump between adjacent frontier
    // points, and whether it coincides with the device switch.
    let pts = frontier.points();
    let mut best_jump = (0.0f64, 0usize);
    for (i, w) in pts.windows(2).enumerate() {
        let jump = w[1].perf - w[0].perf;
        if jump > best_jump.0 {
            best_jump = (jump, i + 1);
        }
    }
    let (jump, at) = best_jump;
    writeln!(out)?;
    writeln!(
        out,
        "largest cliff: {:.1}% → {:.1}% of max performance between {:.1} W and {:.1} W",
        pts[at - 1].perf * 100.0,
        pts[at].perf * 100.0,
        pts[at - 1].power_w,
        pts[at].power_w
    )?;
    let device_switch =
        pts[at - 1].config.device == Device::Cpu && pts[at].config.device == Device::Gpu;
    writeln!(out, "cliff coincides with CPU→GPU switch: {device_switch}")?;
    writeln!(out, "jump magnitude: {:.1} percentage points (paper: 78.6)", jump * 100.0)?;

    Ok(pretty(&frontier.points()))
}
