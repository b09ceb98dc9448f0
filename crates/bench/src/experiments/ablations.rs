//! The ablation and baseline experiments (A1–A11, B1): registry rows
//! whose bodies are long enough to want a file of their own.

use super::pretty;
use std::io::{self, Write};

/// Experiment A1 — cluster-count ablation: sweep k = 2..10 and measure the
/// model's held-out quality under leave-one-benchmark-out cross-validation.
/// The paper reports that five clusters were empirically optimal: "using
/// fewer clusters resulted in over-generalized models, and using more
/// clusters resulted in over-specialized models" (Section III-B).
pub(super) fn ablation_clusters(out: &mut dyn Write) -> io::Result<String> {
    use acs_core::eval::PreparedSuite;
    use acs_core::{Method, TrainingParams};

    let apps = crate::characterized_suite();
    // No k changes the frontiers or their dissimilarity: one preparation
    // serves the whole sweep.
    let suite = PreparedSuite::new(&apps).expect("the characterized suite is well-formed");

    writeln!(out, "Ablation A1 — cluster count sweep (LOBO-CV, Model and Model+FL)")?;
    writeln!(out)?;
    writeln!(
        out,
        "{:>2} | {:>14} | {:>15} | {:>14} | {:>15}",
        "k", "Model %under", "Model %perf", "M+FL %under", "M+FL %perf"
    )?;
    writeln!(out, "{}", "-".repeat(72))?;

    // Every k re-trains and re-evaluates the full suite.
    let results: Vec<(usize, acs_core::MethodSummary, acs_core::MethodSummary)> = (2..11usize)
        .map(|k| {
            let params = TrainingParams { n_clusters: k, ..Default::default() };
            let eval = suite.evaluate(params).expect("training succeeds");
            let table = eval.table3();
            let get = |m: Method| *table.iter().find(|s| s.method == m).expect("method present");
            (k, get(Method::Model), get(Method::ModelFL))
        })
        .collect();
    for (k, model, fl) in &results {
        writeln!(
            out,
            "{:>2} | {:>14.1} | {:>15.1} | {:>14.1} | {:>15.1}",
            k,
            model.pct_under,
            model.under_perf_pct.unwrap_or(0.0),
            fl.pct_under,
            fl.under_perf_pct.unwrap_or(0.0),
        )?;
    }

    writeln!(out)?;
    writeln!(
        out,
        "Expectation per the paper: quality rises from k = 2, is strong in the\n\
         middle of the range (paper picked k = 5), and gains little or degrades\n\
         beyond that as clusters over-specialize."
    )?;

    Ok(pretty(&results))
}

/// Experiment A2 — variance-stabilizing-transform ablation. Section VI
/// proposes applying a variance-stabilizing transformation to model inputs
/// and outputs "to give less weight to both very small and very large
/// fitted model values". This binary trains the model with and without a
/// square-root response transform and compares held-out quality.
pub(super) fn ablation_transform(out: &mut dyn Write) -> io::Result<String> {
    use acs_core::eval::PreparedSuite;
    use acs_core::{Method, TrainingParams};

    let apps = crate::characterized_suite();
    let suite = PreparedSuite::new(&apps).expect("the characterized suite is well-formed");

    writeln!(out, "Ablation A2 — variance-stabilizing transform (sqrt on responses)")?;
    writeln!(out)?;

    let mut rows = Vec::new();
    for stabilize in [false, true] {
        let params = TrainingParams { stabilize_variance: stabilize, ..Default::default() };
        let eval = suite.evaluate(params).expect("training succeeds");
        let table = eval.table3();
        writeln!(out, "stabilize_variance = {stabilize}:")?;
        write!(out, "{}", crate::render_table3(&table))?;
        writeln!(out)?;
        rows.push((stabilize, table));
    }

    let get = |rows: &[(bool, Vec<acs_core::MethodSummary>)], s: bool, m: Method| {
        rows.iter()
            .find(|(st, _)| *st == s)
            .and_then(|(_, t)| t.iter().find(|x| x.method == m).copied())
            .expect("row present")
    };
    let off = get(&rows, false, Method::ModelFL);
    let on = get(&rows, true, Method::ModelFL);
    writeln!(
        out,
        "Model+FL %under: {:.1} → {:.1}; under %perf: {:.1} → {:.1} (off → on)",
        off.pct_under,
        on.pct_under,
        off.under_perf_pct.unwrap_or(0.0),
        on.under_perf_pct.unwrap_or(0.0),
    )?;

    Ok(pretty(&rows))
}

/// Experiment A4 — opportunistic overclocking (Section VI future work):
/// how much performance does thermally-governed boost add on top of the
/// top software P-state, per thread count, and what does it cost in power?
pub(super) fn ablation_boost(out: &mut dyn Write) -> io::Result<String> {
    use acs_sim::boost::{boosted_cpu_run, ThermalModel, BOOST_STATES};
    use acs_sim::{Configuration, CpuPState, PowerCalibration};

    let cal = PowerCalibration::default();
    let thermal = ThermalModel::default();
    let boost = BOOST_STATES[1];

    writeln!(
        out,
        "Ablation A4 — opportunistic overclocking ({:.1} GHz boost, {:.0} W thermal budget)",
        boost.freq_ghz,
        thermal.power_budget_w()
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "{:<34} | {:>7} | {:>9} | {:>9} | {:>9} | {:>9}",
        "kernel", "threads", "residency", "f_eff", "speedup", "Δpower"
    )?;
    writeln!(out, "{}", "-".repeat(92))?;

    let mut rows = Vec::new();
    for kernel in acs_kernels::all_kernel_instances()
        .iter()
        .filter(|k| k.input == "Small" || k.input == "Default")
        .take(12)
    {
        for threads in [1u8, 2, 4] {
            let cfg = Configuration::cpu(threads, CpuPState::MAX);
            let base = acs_sim::cpu::cpu_time(kernel, &cfg);
            let base_power = cal.cpu_run_power(kernel, &cfg, &base);
            let boosted = boosted_cpu_run(kernel, &cfg, &cal, &thermal, boost);
            let speedup = base.total_s / boosted.timing.total_s;
            writeln!(
                out,
                "{:<34} | {:>7} | {:>8.0}% | {:>5.2} GHz | {:>8.3}x | {:>+7.1} W",
                format!("{}/{}", kernel.benchmark, kernel.name),
                threads,
                boosted.residency * 100.0,
                boosted.effective_freq_ghz,
                speedup,
                boosted.power.total_w() - base_power.total_w(),
            )?;
            rows.push((
                kernel.id(),
                threads,
                boosted.residency,
                boosted.effective_freq_ghz,
                speedup,
            ));
        }
    }

    writeln!(out)?;
    writeln!(
        out,
        "Shape check: light thread counts boost fully; four FP-heavy threads \
         saturate the thermal budget and boost partially or not at all — the \
         behavior the paper says makes boost hard to include in the offline \
         configuration space."
    )?;

    Ok(pretty(&rows))
}

/// Experiment A5 — confidence-aware selection (Section VI future work):
/// discount predictions by `z` residual standard deviations before
/// selecting. Sweeps `z` and reports the cap-compliance / performance
/// trade-off under leave-one-benchmark-out cross-validation.
pub(super) fn ablation_confidence(out: &mut dyn Write) -> io::Result<String> {
    use acs_core::confidence::predict_with_confidence;
    use acs_core::eval::PreparedSuite;
    use acs_core::TrainingParams;

    let apps = crate::characterized_suite();
    let suite = PreparedSuite::new(&apps).expect("the characterized suite is well-formed");
    // No z changes a fold's model: each is fitted once for the whole sweep.
    let folds: Vec<_> = suite
        .folds()
        .iter()
        .map(|(fold, training)| {
            let model = suite.kernels().fit(training, TrainingParams::default());
            (fold, model.expect("training succeeds"))
        })
        .collect();

    writeln!(out, "Ablation A5 — risk-averse selection (z · residual sigma), LOBO-CV")?;
    writeln!(out)?;
    writeln!(
        out,
        "{:>4} | {:>9} | {:>16} | {:>15}",
        "z", "% under", "% oracle perf", "(under-limit)"
    )?;
    writeln!(out, "{}", "-".repeat(54))?;

    let mut results = Vec::new();
    for z in [0.0, 0.5, 1.0, 1.5, 2.0, 3.0] {
        let mut under_w = 0.0;
        let mut total_w = 0.0;
        let mut perf_w = 0.0;

        for (fold, model) in &folds {
            for &ai in &fold.test {
                for profile in &apps[ai].profiles {
                    let bounded = predict_with_confidence(model, &profile.sample_pair());
                    let frontier = profile.oracle_frontier();
                    let caps: Vec<f64> = frontier.points().iter().map(|p| p.power_w).collect();
                    let w = profile.kernel.weight / caps.len() as f64;
                    for &cap in &caps {
                        let cfg = bounded.select_risk_averse(cap, z);
                        let run = profile.run_at(&cfg);
                        let oracle = frontier.best_under(cap).unwrap();
                        total_w += w;
                        if run.true_power_w() <= cap * (1.0 + 1e-9) {
                            under_w += w;
                            perf_w += w * (1.0 / run.time_s) / oracle.perf;
                        }
                    }
                }
            }
        }

        let pct_under = under_w / total_w * 100.0;
        let perf = if under_w > 0.0 { perf_w / under_w * 100.0 } else { 0.0 };
        writeln!(out, "{z:>4.1} | {pct_under:>9.1} | {perf:>16.1} |")?;
        results.push((z, pct_under, perf));
    }

    writeln!(out)?;
    writeln!(
        out,
        "Expectation (Section VI): growing z buys cap compliance at a small\n\
         performance cost — the model declines configurations whose predicted\n\
         power sits within the error band of the cap."
    )?;

    Ok(pretty(&results))
}

/// Experiment A6 — measurement-quality ablation. The paper's power data
/// comes from a 1 kHz on-chip estimator (Section IV-C) and notes that
/// "this method of power measurement is not necessary on architectures
/// equipped with hardware- or firmware-based energy accumulators". This
/// binary quantifies how sensor quality affects the end-to-end result:
/// an ideal accumulator, the paper's 1 kHz estimator, and a degraded
/// 100 Hz / 5%-noise sensor.
pub(super) fn ablation_noise(out: &mut dyn Write) -> io::Result<String> {
    use acs_core::eval::{characterize_apps, evaluate};
    use acs_core::TrainingParams;
    use acs_sim::{Machine, PowerSensor};

    let sensors: Vec<(&str, PowerSensor)> = vec![
        ("ideal accumulator", PowerSensor::ideal()),
        ("1 kHz estimator (paper)", PowerSensor::default()),
        (
            "degraded 100 Hz, 5% noise",
            PowerSensor { sample_hz: 100.0, quantum_w: 0.25, noise_sigma: 0.05 },
        ),
    ];

    writeln!(out, "Ablation A6 — power-sensor quality vs. end-to-end results (LOBO-CV)")?;
    writeln!(out)?;

    // Each sensor variant re-characterizes and re-evaluates the full suite.
    let results: Vec<(String, Vec<acs_core::MethodSummary>)> = sensors
        .into_iter()
        .map(|(label, sensor)| {
            let machine = Machine { sensor, ..Machine::new(crate::EXPERIMENT_SEED) };
            let apps = characterize_apps(&machine, &acs_kernels::app_instances());
            let eval = evaluate(&apps, TrainingParams::default()).expect("training succeeds");
            (label.to_string(), eval.table3())
        })
        .collect();
    for (label, table) in &results {
        writeln!(out, "sensor: {label}")?;
        write!(out, "{}", crate::render_table3(table))?;
        writeln!(out)?;
    }

    writeln!(
        out,
        "Shape check: the pipeline tolerates the paper's 1 kHz estimator with\n\
         little loss versus an ideal accumulator; a badly degraded sensor\n\
         chiefly hurts the frequency-limited methods, whose walk-down loop\n\
         trusts each measurement."
    )?;

    Ok(pretty(&results))
}

/// Experiment A7 — microbenchmark training (Section III-B: "the training
/// set could be composed of microbenchmarks or a standard benchmark
/// suite"). Train the full pipeline on a *generated* microbenchmark set
/// and validate on the entire real suite — the deployment mode in which a
/// vendor characterizes a machine once, with no knowledge of user
/// applications. Compared against leave-one-benchmark-out training on
/// real applications.
pub(super) fn ablation_microbench(out: &mut dyn Write) -> io::Result<String> {
    use acs_core::eval::{evaluate_kernel, summarize, CaseResult};
    use acs_core::{collect_suite, train, Method, TrainingParams};
    use acs_kernels::GeneratorConfig;

    let machine = crate::default_machine();

    // Train purely on generated microbenchmarks.
    let micro = acs_kernels::generate(&GeneratorConfig::default(), crate::EXPERIMENT_SEED);
    let micro_profiles = collect_suite(&machine, &micro);
    let model = train(&micro_profiles, TrainingParams::default()).expect("training succeeds");

    // Validate on every kernel of the real suite (all of it is unseen).
    let apps = crate::characterized_suite();
    let mut cases: Vec<CaseResult> = Vec::new();
    for app in &apps {
        for profile in &app.profiles {
            cases.extend(evaluate_kernel(profile, &model, &app.app.label()));
        }
    }

    writeln!(out, "Ablation A7 — trained on {} generated microbenchmarks,", micro.len())?;
    writeln!(out, "validated on all 65 real kernel/input combinations")?;
    writeln!(out)?;
    writeln!(out, "{:<9} | {:>7} | {:>11}", "Method", "%Under", "Under %Perf")?;
    writeln!(out, "{}", "-".repeat(34))?;
    let mut rows = Vec::new();
    for &m in &[Method::Model, Method::ModelFL] {
        let s = summarize(&cases, m);
        writeln!(
            out,
            "{:<9} | {:>7.1} | {:>11.1}",
            m.name(),
            s.pct_under,
            s.under_perf_pct.unwrap_or(0.0)
        )?;
        rows.push(s);
    }

    writeln!(out)?;
    writeln!(out, "Reference (LOBO-CV on real applications):")?;
    let lobo = crate::full_evaluation();
    for &m in &[Method::Model, Method::ModelFL] {
        let s = lobo.table3().into_iter().find(|s| s.method == m).unwrap();
        writeln!(
            out,
            "{:<9} | {:>7.1} | {:>11.1}",
            m.name(),
            s.pct_under,
            s.under_perf_pct.unwrap_or(0.0)
        )?;
    }

    writeln!(out)?;
    writeln!(
        out,
        "Shape check: microbenchmark training should land within a few points\n\
         of application training — the model generalizes from behavior space\n\
         coverage, not from application identity."
    )?;

    Ok(pretty(&rows))
}

/// Experiment A8 — asymmetric per-module P-states. Section IV-A notes
/// Trinity can assign P-states per compute unit, but the shared voltage
/// plane means "the voltage across all compute units is set by the CU with
/// maximum frequency". The paper's configuration space is symmetric-only;
/// this experiment quantifies how little is lost: for every kernel, how
/// many asymmetric configurations land on the combined (symmetric ∪
/// asymmetric) Pareto frontier, and how much frontier performance they add
/// at their power levels.
pub(super) fn ablation_asymmetric(out: &mut dyn Write) -> io::Result<String> {
    use acs_core::{Frontier, PowerPerfPoint};
    use acs_sim::asymmetric::{asymmetric_cpu_power, asymmetric_cpu_time, AsymmetricCpuConfig};
    use acs_sim::{Configuration, PowerCalibration};

    let cal = PowerCalibration::default();
    let mut kernels_with_gain = 0usize;
    let mut total_kernels = 0usize;
    let mut max_gain_pct = 0.0f64;
    let mut asym_frontier_share = 0.0f64;
    let mut hull_beats = 0usize;

    for kernel in acs_kernels::all_kernel_instances() {
        total_kernels += 1;

        // Symmetric CPU points (noiseless analytic, matching the
        // asymmetric model's fidelity).
        let mut sym_points = Vec::new();
        for cfg in Configuration::all().iter().filter(|c| c.device == acs_sim::Device::Cpu) {
            let t = acs_sim::cpu::cpu_time(&kernel, cfg);
            let p = cal.cpu_run_power(&kernel, cfg, &t);
            sym_points.push(PowerPerfPoint {
                config: *cfg,
                power_w: p.total_w(),
                perf: 1.0 / t.total_s,
            });
        }
        let sym_frontier = Frontier::from_points(sym_points.clone());

        // Linear interpolation of the symmetric frontier (its upper
        // hull): what a scheduler could achieve by duty-cycling between
        // two adjacent symmetric configurations.
        let hull_perf = |power_w: f64| -> f64 {
            let pts = sym_frontier.points();
            match pts.iter().position(|q| q.power_w > power_w) {
                Some(0) => 0.0,
                Some(i) => {
                    let (a, b) = (&pts[i - 1], &pts[i]);
                    a.perf + (b.perf - a.perf) * (power_w - a.power_w) / (b.power_w - a.power_w)
                }
                None => pts.last().map(|q| q.perf).unwrap_or(0.0),
            }
        };

        // Asymmetric candidates (strictly asymmetric only).
        let mut gained = false;
        let mut asym_on_frontier = 0usize;
        let mut asym_total = 0usize;
        for acfg in AsymmetricCpuConfig::enumerate().into_iter().filter(|c| !c.is_symmetric()) {
            asym_total += 1;
            let t = asymmetric_cpu_time(&kernel, &acfg);
            let p = asymmetric_cpu_power(&kernel, &acfg, &t, &cal);
            let (power_w, perf) = (p.total_w(), 1.0 / t.total_s);

            // Step gain: beats the best symmetric config at its power.
            let best_sym = sym_frontier.best_under(power_w).map(|q| q.perf).unwrap_or(0.0);
            if perf > best_sym * 1.001 {
                gained = true;
                asym_on_frontier += 1;
                let gain = (perf / best_sym - 1.0) * 100.0;
                max_gain_pct = max_gain_pct.max(gain);
            }
            // Hull gain: beats even the interpolated frontier.
            let hull = hull_perf(power_w);
            if hull > 0.0 && perf > hull * 1.001 {
                hull_beats += 1;
            }
        }
        if gained {
            kernels_with_gain += 1;
        }
        asym_frontier_share += asym_on_frontier as f64 / asym_total as f64;
    }

    let share = asym_frontier_share / total_kernels as f64 * 100.0;
    writeln!(out, "Ablation A8 — asymmetric per-module P-states on a shared voltage plane")?;
    writeln!(out)?;
    writeln!(out, "  kernels where any asymmetric config beats the symmetric frontier: {kernels_with_gain}/{total_kernels}")?;
    writeln!(
        out,
        "  mean share of asymmetric configs that beat it:                    {share:.1}%"
    )?;
    writeln!(
        out,
        "  largest performance gain at equal power (vs. frontier steps):     {max_gain_pct:.2}%"
    )?;
    writeln!(
        out,
        "  asymmetric points beating the interpolated (hull) frontier:       {hull_beats}"
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "Reading: asymmetric P-states mostly add *granularity* — they fill in\n\
         the gaps between the discrete symmetric frontier steps (up to ~9% at\n\
         equal power) because the slow module still pays the fast module's\n\
         V². Only ~2% of asymmetric points marginally beat even the\n\
         interpolated hull (serial phases riding the fast module while the\n\
         parallel phase runs cheap). The paper's symmetric-only configuration\n\
         space gives up little — and nothing a frequency limiter can't\n\
         recover by duty-cycling."
    )?;

    Ok(pretty(&(kernels_with_gain, total_kernels, share, max_gain_pct, hull_beats)))
}

/// Experiment A9 — configuration-ranking quality. Section III-B: "Our goal
/// in using linear performance and power prediction models is to rank
/// configurations in performance and power in a computationally efficient
/// manner. We find that linear models satisfy this goal." This experiment
/// measures that claim directly: the Spearman rank correlation between
/// predicted and true orderings of all 42 configurations, per held-out
/// kernel, under leave-one-benchmark-out cross-validation.
pub(super) fn ablation_ranking(out: &mut dyn Write) -> io::Result<String> {
    use acs_core::eval::PreparedSuite;
    use acs_core::{Predictor, TrainingParams};
    use acs_mlstat::{quantile, spearman};

    let apps = crate::characterized_suite();
    let suite = PreparedSuite::new(&apps).expect("the characterized suite is well-formed");

    let mut perf_rhos = Vec::new();
    let mut power_rhos = Vec::new();

    for (fold, training) in suite.folds() {
        let model =
            suite.kernels().fit(training, TrainingParams::default()).expect("training succeeds");
        let predictor = Predictor::new(&model);

        for &ai in &fold.test {
            for profile in &apps[ai].profiles {
                let predicted = predictor.predict(&profile.sample_pair());
                let truth = profile.true_points();
                let (mut pp, mut tp, mut pw, mut tw) = (vec![], vec![], vec![], vec![]);
                for (pred, act) in predicted.points.iter().zip(&truth) {
                    pp.push(pred.perf);
                    tp.push(act.perf);
                    pw.push(pred.power_w);
                    tw.push(act.power_w);
                }
                if let Some(r) = spearman(&pp, &tp) {
                    perf_rhos.push(r);
                }
                if let Some(r) = spearman(&pw, &tw) {
                    power_rhos.push(r);
                }
            }
        }
    }

    let stats = |v: &[f64]| {
        (quantile(v, 0.05).unwrap(), quantile(v, 0.5).unwrap(), quantile(v, 0.95).unwrap())
    };
    let (p5, p50, p95) = stats(&perf_rhos);
    let (w5, w50, w95) = stats(&power_rhos);

    writeln!(out, "Ablation A9 — held-out configuration-ranking quality (Spearman ρ, 65 kernels)")?;
    writeln!(out)?;
    writeln!(out, "                    |   p5  | median |  p95")?;
    writeln!(out, "  performance rank  | {p5:>5.3} | {p50:>6.3} | {p95:>5.3}")?;
    writeln!(out, "  power rank        | {w5:>5.3} | {w50:>6.3} | {w95:>5.3}")?;
    writeln!(out)?;
    writeln!(out, "  distribution of performance ρ:")?;
    write!(out, "{}", acs_mlstat::histogram(&perf_rhos, 8, 40))?;
    writeln!(out)?;
    writeln!(
        out,
        "Shape check: the paper's claim that linear models suffice for RANKING\n\
         holds when median ρ is high (≥0.9) even though absolute prediction\n\
         errors (MAPE) are much larger."
    )?;

    Ok(pretty(&((p5, p50, p95), (w5, w50, w95))))
}

/// Experiment A10 — fault-rate ablation for the self-healing runtime.
///
/// The paper evaluates its scheduler on cooperating hardware. This
/// ablation injects the fault classes of `acs_sim::faults` at increasing
/// severity — sensor dropouts, frozen readings, silently rejected P-state
/// transitions, transient run failures — and sweeps the fraction of
/// iterations whose *true* power met the cap, for the guarded
/// (degradation-ladder) runtime against the unguarded scheduler. The
/// guarded curve should bend gracefully rather than fall off a cliff, and
/// the unguarded scheduler stops completing apps at all once run
/// failures appear.
pub(super) fn ablation_faults(out: &mut dyn Write) -> io::Result<String> {
    use acs_core::{train, CappedRuntime, GuardPolicy, KernelProfile, TrainingParams};
    use acs_sim::{FaultPlan, FaultyMachine};
    use serde::Serialize;

    /// One sweep point.
    #[derive(Debug, Serialize)]
    struct SweepRow {
        severity: f64,
        dropout_p: f64,
        pstate_fail_p: f64,
        run_fail_p: f64,
        freeze_p: f64,
        guarded_caps_met: f64,
        guarded_failed_runs: u64,
        guarded_time_s: f64,
        unguarded_caps_met: Option<f64>,
        unguarded_completed: bool,
        degradations: u64,
        retries: u64,
        injected_faults: u64,
    }

    fn plan(severity: f64, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            // The ISSUE's acceptance envelope: dropouts up to 50%, transition
            // failures up to 30%; the rest scale alongside.
            sensor_dropout_p: 0.5 * severity,
            sensor_freeze_p: 0.1 * severity,
            pstate_fail_p: 0.3 * severity,
            run_fail_p: 0.15 * severity,
            counter_corrupt_p: 0.1 * severity,
            ..FaultPlan::default()
        }
    }

    let machine = crate::default_machine();
    let training: Vec<KernelProfile> = acs_kernels::training_kernels()
        .into_iter()
        .chain(acs_kernels::lu::kernels(acs_kernels::InputSize::Default))
        .map(|k| KernelProfile::collect(&machine, &k))
        .collect();
    let model = train(&training, TrainingParams::default()).expect("training succeeds");
    let app = acs_kernels::app_instances()
        .into_iter()
        .find(|a| a.label() == "LULESH Small")
        .expect("suite has LULESH Small");

    let cap_w = 25.0;
    let iters = 20;
    writeln!(out, "Ablation A10 — fault severity vs. % of iterations meeting a {cap_w} W cap")?;
    writeln!(out, "(app: {}, {iters} iterations/kernel, true-power compliance)", app.label())?;
    writeln!(out)?;
    writeln!(
        out,
        "{:>8} | {:>8} | {:>11} | {:>9} | {:>10} | {:>7} | {:>7}",
        "severity", "guarded", "unguarded", "failed", "degraded", "retries", "faults"
    )?;
    writeln!(
        out,
        "---------+----------+-------------+-----------+------------+---------+--------"
    )?;

    let mut rows = Vec::new();
    for step in 0..=10u32 {
        let severity = f64::from(step) / 10.0;
        let fault_seed = 0xA10 + u64::from(step);

        let guarded_exec = FaultyMachine::new(machine.clone(), plan(severity, fault_seed));
        let mut guarded =
            CappedRuntime::guarded(guarded_exec, model.clone(), cap_w, GuardPolicy::default());
        let report = guarded.run_app(&app, iters).expect("the guarded runtime never aborts");
        let degradations: u64 = app
            .kernels
            .iter()
            .filter_map(|k| guarded.health(&k.id()))
            .map(|h| u64::from(h.degradations))
            .sum();
        let retries: u64 = app
            .kernels
            .iter()
            .filter_map(|k| guarded.health(&k.id()))
            .map(|h| u64::from(h.retries))
            .sum();
        let injected = guarded.executor().stats().total();

        let unguarded_exec = FaultyMachine::new(machine.clone(), plan(severity, fault_seed));
        let mut unguarded = CappedRuntime::with_executor(unguarded_exec, model.clone(), cap_w);
        let unguarded_report = unguarded.run_app(&app, iters).ok();

        writeln!(
            out,
            "{:>7.0}% | {:>7.0}% | {:>11} | {:>9} | {:>10} | {:>7} | {:>7}",
            severity * 100.0,
            report.cap_compliance * 100.0,
            unguarded_report
                .as_ref()
                .map_or("aborted".to_string(), |r| format!("{:.0}%", r.cap_compliance * 100.0)),
            report.failed_runs,
            degradations,
            retries,
            injected,
        )?;

        rows.push(SweepRow {
            severity,
            dropout_p: plan(severity, 0).sensor_dropout_p,
            pstate_fail_p: plan(severity, 0).pstate_fail_p,
            run_fail_p: plan(severity, 0).run_fail_p,
            freeze_p: plan(severity, 0).sensor_freeze_p,
            guarded_caps_met: report.cap_compliance,
            guarded_failed_runs: report.failed_runs,
            guarded_time_s: report.total_time_s,
            unguarded_caps_met: unguarded_report.as_ref().map(|r| r.cap_compliance),
            unguarded_completed: unguarded_report.is_some(),
            degradations,
            retries,
            injected_faults: injected,
        });
    }

    // Graceful-degradation shape check: compliance at half severity must
    // hold most of the fault-free level (no cliff), and the guarded
    // runtime must complete the app at every severity.
    let base = rows[0].guarded_caps_met.max(1e-9);
    let mid = rows[5].guarded_caps_met;
    writeln!(out)?;
    writeln!(
        out,
        "Shape check: guarded compliance {:.0}% at zero faults → {:.0}% at 50% severity \
         ({} retained); every severity completed.",
        base * 100.0,
        mid * 100.0,
        if mid / base > 0.5 { "gracefully" } else { "NOT gracefully" }
    )?;

    Ok(pretty(&rows))
}

/// Experiment A11 — differential regret vs. the exhaustive oracle.
///
/// Replays the full `crates/verify` scenario grid (3 machine seeds × every
/// training/evaluation kernel × probe caps spanning each oracle frontier)
/// through the four compared methods and reports per-method regret against
/// the exhaustive-sweep oracle: under-limit rate, mean/max performance
/// regret, feasible-cap violation rate, and overshoot. This is the
/// Figure 4–6 story told against ground truth rather than the Table III
/// leave-one-benchmark-out evaluation, plus the per-benchmark under-limit
/// breakdown of Figure 6.
pub(super) fn ablation_regret(out: &mut dyn Write) -> io::Result<String> {
    use acs_core::{Method, TrainingParams};
    use acs_verify::{run_differential, GridParams, ScenarioGrid, Thresholds};
    use serde::Serialize;

    /// One per-benchmark row of the Figure 6 view.
    #[derive(Debug, Serialize)]
    struct BenchmarkRow {
        benchmark: String,
        model_under_pct: Option<f64>,
        model_fl_under_pct: Option<f64>,
        cpu_fl_under_pct: Option<f64>,
        gpu_fl_under_pct: Option<f64>,
    }

    /// The serialized experiment result.
    #[derive(Debug, Serialize)]
    struct RegretResult {
        machine_seed: u64,
        total_scenarios: usize,
        per_method: Vec<acs_verify::MethodRegret>,
        per_benchmark: Vec<BenchmarkRow>,
        threshold_failures: Vec<String>,
    }

    let grid = ScenarioGrid::generate(GridParams::default());
    writeln!(
        out,
        "Ablation A11 — per-method regret vs. exhaustive oracle ({} scenarios, {} machines)",
        grid.len(),
        grid.machines.len()
    )?;
    writeln!(out)?;

    let report = run_differential(&grid, TrainingParams::default()).expect("training succeeds");
    writeln!(out, "{}", report.render())?;

    // The per-benchmark under-limit breakdown (Figure 6 against the oracle
    // grid; EXPERIMENTS.md compares these to the paper's percentages).
    let prefixes = ["LULESH/", "CoMD/", "SMC/", "LU/"];
    writeln!(
        out,
        "{:<10} | {:>7} | {:>9} | {:>7} | {:>7}   (% under limit)",
        "Benchmark", "Model", "Model+FL", "CPU+FL", "GPU+FL"
    )?;
    writeln!(out, "-----------+---------+-----------+---------+--------")?;
    let mut per_benchmark = Vec::new();
    for prefix in prefixes {
        let cell = |m: Method| report.under_pct_for(m, prefix);
        let fmt = |v: Option<f64>| v.map_or("—".to_string(), |p| format!("{p:.1}"));
        writeln!(
            out,
            "{:<10} | {:>7} | {:>9} | {:>7} | {:>7}",
            prefix.trim_end_matches('/'),
            fmt(cell(Method::Model)),
            fmt(cell(Method::ModelFL)),
            fmt(cell(Method::CpuFL)),
            fmt(cell(Method::GpuFL)),
        )?;
        per_benchmark.push(BenchmarkRow {
            benchmark: prefix.trim_end_matches('/').to_string(),
            model_under_pct: cell(Method::Model),
            model_fl_under_pct: cell(Method::ModelFL),
            cpu_fl_under_pct: cell(Method::CpuFL),
            gpu_fl_under_pct: cell(Method::GpuFL),
        });
    }

    let failures = report.check(&Thresholds::default());
    writeln!(out)?;
    if failures.is_empty() {
        writeln!(out, "All paper-derived regret gates pass.")?;
    } else {
        writeln!(out, "Regret gates FAILED:")?;
        for f in &failures {
            writeln!(out, "  {f}")?;
        }
    }

    let result = RegretResult {
        machine_seed: crate::EXPERIMENT_SEED,
        total_scenarios: report.total_scenarios,
        per_method: report.per_method.clone(),
        per_benchmark,
        threshold_failures: failures,
    };
    Ok(pretty(&result))
}

/// Experiment B1 — the power-oblivious OS baseline: the classic
/// `ondemand` governor with all cores enabled, which is what a node runs
/// with *no* power-aware selection at all. Evaluated against the oracle on
/// the same constraint grid as Table III — the gap is the motivation for
/// the entire paper.
pub(super) fn baseline_governor(out: &mut dyn Write) -> io::Result<String> {
    use acs_sim::{Configuration, CpuPState, OndemandGovernor};

    let apps = crate::characterized_suite();
    let governor = OndemandGovernor::default();

    let mut total_w = 0.0;
    let mut under_w = 0.0;
    let mut perf_w = 0.0;

    for app in &apps {
        for profile in &app.profiles {
            // The OS sees a busy HPC kernel: utilization pegged high on
            // all four threads → ondemand settles at the top P-state.
            let busy = 0.95;
            let (pstate, _) = governor.settle(CpuPState(2), busy);
            let config = Configuration::cpu(4, pstate);
            let run = profile.run_at(&config);

            let frontier = profile.oracle_frontier();
            let caps: Vec<f64> = frontier.points().iter().map(|p| p.power_w).collect();
            let w = profile.kernel.weight / caps.len() as f64;
            for &cap in &caps {
                let oracle = frontier.best_under(cap).expect("cap from frontier");
                total_w += w;
                if run.true_power_w() <= cap * (1.0 + 1e-9) {
                    under_w += w;
                    perf_w += w * (1.0 / run.time_s) / oracle.perf;
                }
            }
        }
    }

    let pct_under = under_w / total_w * 100.0;
    let perf = if under_w > 0.0 { perf_w / under_w * 100.0 } else { 0.0 };

    writeln!(out, "Baseline B1 — power-oblivious OS (`ondemand`, 4 threads, GPU parked)")?;
    writeln!(out)?;
    writeln!(out, "  % constraints met:          {pct_under:.1}")?;
    writeln!(out, "  % oracle perf (under):      {perf:.1}")?;
    writeln!(out)?;
    writeln!(out, "For comparison (Table III, this reproduction):")?;
    for s in crate::full_evaluation().table3() {
        writeln!(
            out,
            "  {:<9} {:>5.1}% under, {:>5.1}% oracle perf",
            s.method.name(),
            s.pct_under,
            s.under_perf_pct.unwrap_or(0.0)
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "The ondemand governor pegs the top P-state under HPC load, so it\n\
         meets only the most generous constraints — power-aware configuration\n\
         selection is not optional under a cap."
    )?;

    Ok(pretty(&(pct_under, perf)))
}
