//! The paper's evaluation protocol (Sections V-B through V-D).
//!
//! For every kernel, the tested power constraints are exactly the power
//! levels of the configurations on that kernel's *oracle* Pareto frontier.
//! Each method then selects a configuration per constraint; a case is
//! *under-limit* when the selected configuration's true power meets the
//! constraint and *over-limit* otherwise. Metrics compare each method's
//! power and performance to the oracle's at the same constraint, averaged
//! across kernels weighted by the fraction of benchmark time each kernel
//! accounts for (Section V-D), under leave-one-benchmark-out
//! cross-validation (Section V-C).

use crate::frontier::{Frontier, PowerPerfPoint};
use crate::methods::{select, Method};
use crate::offline::{Prepared, TrainError, TrainedModel, TrainingParams};
use crate::online::Predictor;
use crate::profile::{collect_suite, KernelProfile};
use acs_kernels::AppInstance;
use acs_mlstat::{leave_one_group_out, Fold};
use acs_sim::{Configuration, Machine};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Tolerance for "meets the power constraint": measured equality up to
/// floating-point noise counts as meeting it (the oracle's own pick sits
/// exactly at the cap).
const CAP_EPSILON: f64 = 1e-9;

/// One (kernel, power constraint, method) outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// Which method produced this case.
    pub method: Method,
    /// Kernel identifier, shared by every case of the kernel.
    pub kernel_id: Arc<str>,
    /// Application instance label (e.g. `LULESH Small`), shared by every
    /// case of the app.
    pub app_label: Arc<str>,
    /// Case weight: kernel's share of app time, split evenly over the
    /// kernel's constraints so every kernel contributes its weight once.
    pub weight: f64,
    /// The power constraint, W.
    pub cap_w: f64,
    /// The configuration the method selected.
    pub config: Configuration,
    /// True power of the selected configuration, W.
    pub power_w: f64,
    /// Performance (inverse time) of the selected configuration.
    pub perf: f64,
    /// True power of the oracle's selection at the same constraint, W.
    oracle_power_w: f64,
    /// Performance of the oracle's selection.
    oracle_perf: f64,
}

impl CaseResult {
    /// Whether the method met the power constraint.
    pub fn under_limit(&self) -> bool {
        self.power_w <= self.cap_w * (1.0 + CAP_EPSILON)
    }

    /// Method performance as a fraction of oracle performance.
    pub fn perf_ratio(&self) -> f64 {
        self.perf / self.oracle_perf
    }

    /// Method power as a fraction of oracle power.
    fn power_ratio(&self) -> f64 {
        self.power_w / self.oracle_power_w
    }
}

/// Aggregate metrics for one method over a set of cases — one row of
/// Table III (all values in percent).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MethodSummary {
    /// The method.
    pub method: Method,
    /// Percent of cases meeting the power constraint.
    pub pct_under: f64,
    /// Percent of oracle performance achieved in under-limit cases.
    pub under_perf_pct: Option<f64>,
    /// Percent of oracle power used in under-limit cases.
    pub under_power_pct: Option<f64>,
    /// Percent of oracle power used in over-limit cases.
    pub over_power_pct: Option<f64>,
    /// Percent of oracle performance achieved in over-limit cases.
    pub over_perf_pct: Option<f64>,
}

/// A complete evaluation: every case for every compared method.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// All cases.
    pub cases: Vec<CaseResult>,
    /// Silhouette widths of the per-fold clusterings (diagnostic).
    pub fold_silhouettes: Vec<(String, f64)>,
}

/// Weighted sums over the cases on one side of the power constraint.
#[derive(Default)]
struct Side {
    weight: f64,
    perf: f64,
    power: f64,
}

impl Side {
    fn add(&mut self, case: &CaseResult) {
        self.weight += case.weight;
        self.perf += case.perf_ratio() * case.weight;
        self.power += case.power_ratio() * case.weight;
    }

    /// A weighted sum as a weighted mean, in percent.
    fn pct(&self, sum: f64) -> Option<f64> {
        if self.weight <= 0.0 {
            return None;
        }
        Some(sum / self.weight * 100.0)
    }
}

/// Summarize one method over a set of cases.
pub fn summarize<'a>(
    cases: impl IntoIterator<Item = &'a CaseResult>,
    method: Method,
) -> MethodSummary {
    let (mut under, mut over) = (Side::default(), Side::default());
    let mut total_w = 0.0;
    for case in cases.into_iter().filter(|c| c.method == method) {
        total_w += case.weight;
        if case.under_limit() { &mut under } else { &mut over }.add(case);
    }

    MethodSummary {
        method,
        pct_under: if total_w > 0.0 { under.weight / total_w * 100.0 } else { 0.0 },
        under_perf_pct: under.pct(under.perf),
        under_power_pct: under.pct(under.power),
        over_power_pct: over.pct(over.power),
        over_perf_pct: over.pct(over.perf),
    }
}

impl Evaluation {
    /// Table III: one summary per compared method over all cases.
    pub fn table3(&self) -> Vec<MethodSummary> {
        Method::COMPARED.iter().map(|&m| summarize(&self.cases, m)).collect()
    }

    /// Application-instance labels present, in first-appearance order.
    pub fn app_labels(&self) -> Vec<Arc<str>> {
        let mut labels = Vec::new();
        for c in &self.cases {
            if !labels.contains(&c.app_label) {
                labels.push(Arc::clone(&c.app_label));
            }
        }
        labels
    }

    /// Per-application summaries for one method (Figures 5, 6, 8, 9).
    pub fn by_app(&self, method: Method) -> Vec<(Arc<str>, MethodSummary)> {
        self.app_labels()
            .into_iter()
            .map(|label| {
                let summary = summarize(self.cases.iter().filter(|c| c.app_label == label), method);
                (label, summary)
            })
            .collect()
    }
}

/// Characterized application instance: the app plus its kernels' profiles.
#[derive(Debug, Clone)]
pub struct AppProfiles {
    /// The application instance.
    pub app: AppInstance,
    /// One profile per kernel, aligned with `app.kernels`.
    pub profiles: Vec<KernelProfile>,
}

/// Characterize every kernel of every application instance.
pub fn characterize_apps(machine: &Machine, apps: &[AppInstance]) -> Vec<AppProfiles> {
    apps.iter()
        .map(|app| AppProfiles { app: app.clone(), profiles: collect_suite(machine, &app.kernels) })
        .collect()
}

/// What one method picked for one kernel at one power constraint, beside
/// the oracle's pick at the same constraint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pick {
    /// Which method.
    pub method: Method,
    /// The power constraint, W.
    pub cap_w: f64,
    /// The method's selection, with its *true* power and performance.
    pub picked: PowerPerfPoint,
    /// The oracle's selection at the same constraint.
    pub oracle: PowerPerfPoint,
    /// Whether any configuration meets the constraint (false only when
    /// the oracle itself fell back to minimum power).
    pub feasible: bool,
}

/// The evaluation protocol of Sections V-B–D for one kernel, stated once:
/// at every constraint, let each of `methods` select and pair the
/// selection with the oracle's. `caps` defaults to the paper's constraint
/// set — the power levels of the kernel's oracle frontier. Table III
/// ([`evaluate`]) and `acs-verify`'s differential and transfer runners are
/// all this loop; they differ in the caps they ask about and the
/// statistics they keep. Picks come out cap-major, `methods` order within
/// a cap.
pub fn replay(
    profile: &KernelProfile,
    caps: Option<&[f64]>,
    methods: &[Method],
    predictor: &Predictor,
) -> Vec<Pick> {
    let oracle = profile.oracle_frontier();
    let mut picks = Vec::with_capacity(caps.map_or(oracle.len(), <[f64]>::len) * methods.len());
    let emit = |pick: Pick| picks.push(pick);
    match caps {
        Some(caps) => replay_each(profile, &oracle, caps.iter().copied(), methods, predictor, emit),
        None => replay_each(profile, &oracle, frontier_powers(&oracle), methods, predictor, emit),
    }
    picks
}

/// The power level of every point of a frontier, in order.
fn frontier_powers(frontier: &Frontier) -> impl Iterator<Item = f64> + '_ {
    frontier.points().iter().map(|p| p.power_w)
}

/// [`replay`] against the kernel's oracle frontier, handing each pick to
/// `emit`. What does not depend on the cap is built once, before the first
/// one: the oracle frontier (by the caller) and the predicted frontier the
/// model methods select from.
fn replay_each(
    profile: &KernelProfile,
    oracle: &Frontier,
    caps: impl IntoIterator<Item = f64>,
    methods: &[Method],
    predictor: &Predictor,
    mut emit: impl FnMut(Pick),
) {
    let predicted = predictor.predict(&profile.sample_pair()).frontier;
    for cap_w in caps {
        let (&oracle, feasible) = oracle.select(cap_w);
        for &method in methods {
            let config = select(method, profile, &predicted, cap_w);
            let run = profile.run_at(&config);
            let picked =
                PowerPerfPoint { config, power_w: run.true_power_w(), perf: 1.0 / run.time_s };
            emit(Pick { method, cap_w, picked, oracle, feasible });
        }
    }
}

/// Evaluate all methods on characterized applications under
/// leave-one-benchmark-out cross-validation.
pub fn evaluate(apps: &[AppProfiles], params: TrainingParams) -> Result<Evaluation, TrainError> {
    PreparedSuite::new(apps)?.evaluate(params)
}

/// A characterized suite with everything cross-validation needs that no
/// fold and no hyperparameter changes, computed once: the folds, the
/// suite-wide frontier dissimilarity ([`Prepared`]) and each kernel's
/// oracle frontier and labels. A sweep over [`TrainingParams`] builds one
/// and calls [`evaluate`](Self::evaluate) per setting.
pub struct PreparedSuite<'a> {
    /// Every kernel of the suite, app by app.
    kernels: Prepared<'a>,
    /// Each fold with the `kernels` indices of its training kernels.
    folds: Vec<(Fold, Vec<usize>)>,
    /// `starts[ai]..starts[ai + 1]` are app `ai`'s kernels.
    starts: Vec<usize>,
    /// What replaying each kernel needs besides a model, aligned with
    /// `kernels`.
    held_out: Vec<HeldOut<'a>>,
}

impl<'a> PreparedSuite<'a> {
    /// Prepare `apps` for any number of evaluations, once
    /// `Prepared::new` has checked every profile.
    pub fn new(apps: &'a [AppProfiles]) -> Result<Self, TrainError> {
        let kernels = Prepared::new(apps.iter().flat_map(|a| &a.profiles))?;
        // Fold by *benchmark* (LULESH, CoMD, SMC, LU): holding out a
        // benchmark holds out all of its input sizes, per Section V-C.
        let benchmarks: Vec<&str> = apps.iter().map(|a| a.app.benchmark.as_str()).collect();
        let mut starts = vec![0];
        for app in apps {
            starts.push(starts[starts.len() - 1] + app.profiles.len());
        }
        let folds = leave_one_group_out(&benchmarks)
            .into_iter()
            .map(|fold| {
                let training =
                    fold.train.iter().flat_map(|&ai| starts[ai]..starts[ai + 1]).collect();
                (fold, training)
            })
            .collect();
        let mut held_out = Vec::with_capacity(starts[apps.len()]);
        for app in apps {
            let label: Arc<str> = app.app.label().into();
            held_out.extend(app.profiles.iter().map(|p| HeldOut::new(p, Arc::clone(&label))));
        }
        Ok(Self { kernels, folds, starts, held_out })
    }

    /// The suite-wide training preparation every fold fits from.
    pub fn kernels(&self) -> &Prepared<'a> {
        &self.kernels
    }

    /// The leave-one-benchmark-out folds, each with the [`kernels`]
    /// indices of its training kernels.
    ///
    /// [`kernels`]: Self::kernels
    pub fn folds(&self) -> &[(Fold, Vec<usize>)] {
        &self.folds
    }

    /// Evaluate all methods: per fold, fit on the training benchmarks'
    /// kernels and replay every kernel of the held-out benchmark.
    pub fn evaluate(&self, params: TrainingParams) -> Result<Evaluation, TrainError> {
        // Every kernel is held out by exactly one fold.
        let n_cases: usize = self.held_out.iter().map(|k| k.oracle.len()).sum();
        let mut cases = Vec::with_capacity(n_cases * Method::COMPARED.len());
        let mut fold_silhouettes = Vec::with_capacity(self.folds.len());

        for (fold, training) in &self.folds {
            let model = self.kernels.fit(training, params)?;
            fold_silhouettes.push((fold.label.clone(), model.silhouette));
            let predictor = Predictor::new(&model);

            // Evaluate every kernel of the held-out benchmark's app instances.
            for &ai in &fold.test {
                for kernel in &self.held_out[self.starts[ai]..self.starts[ai + 1]] {
                    kernel.replay(&predictor, &mut cases);
                }
            }
        }

        Ok(Evaluation { cases, fold_silhouettes })
    }
}

/// Evaluate all compared methods on one kernel at every oracle-frontier
/// power constraint.
pub fn evaluate_kernel(
    profile: &KernelProfile,
    model: &TrainedModel,
    app_label: &str,
) -> Vec<CaseResult> {
    let kernel = HeldOut::new(profile, app_label.into());
    let mut cases = Vec::with_capacity(kernel.oracle.len() * Method::COMPARED.len());
    kernel.replay(&Predictor::new(model), &mut cases);
    cases
}

/// One kernel as Table III replays it: its oracle frontier, whose power
/// levels are the constraints, and the labels its cases share.
struct HeldOut<'a> {
    profile: &'a KernelProfile,
    oracle: Frontier,
    kernel_id: Arc<str>,
    app_label: Arc<str>,
}

impl<'a> HeldOut<'a> {
    fn new(profile: &'a KernelProfile, app_label: Arc<str>) -> Self {
        let oracle = profile.oracle_frontier();
        Self { profile, oracle, kernel_id: profile.kernel.id().into(), app_label }
    }

    /// [`replay`] at the paper's constraints, appending Table III cases.
    fn replay(&self, predictor: &Predictor, cases: &mut Vec<CaseResult>) {
        // Each kernel contributes its weight once, split over its caps.
        let weight = self.profile.kernel.weight / self.oracle.len() as f64;
        let caps = frontier_powers(&self.oracle);
        replay_each(self.profile, &self.oracle, caps, &Method::COMPARED, predictor, |pick| {
            cases.push(CaseResult {
                method: pick.method,
                kernel_id: Arc::clone(&self.kernel_id),
                app_label: Arc::clone(&self.app_label),
                weight,
                cap_w: pick.cap_w,
                config: pick.picked.config,
                power_w: pick.picked.power_w,
                perf: pick.picked.perf,
                oracle_power_w: pick.oracle.power_w,
                oracle_perf: pick.oracle.perf,
            })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_kernels::InputSize;

    /// A reduced two-benchmark suite so the test evaluation stays fast.
    fn mini_apps(machine: &Machine) -> Vec<AppProfiles> {
        let apps = vec![
            AppInstance {
                benchmark: "CoMD".into(),
                input: "Default".into(),
                kernels: acs_kernels::comd::kernels(InputSize::Default)
                    .into_iter()
                    .map(|mut k| {
                        k.weight = 1.0 / 7.0;
                        k
                    })
                    .collect(),
            },
            AppInstance {
                benchmark: "SMC".into(),
                input: "Small".into(),
                kernels: acs_kernels::smc::kernels(InputSize::Small)
                    .into_iter()
                    .map(|mut k| {
                        k.weight = 1.0 / 8.0;
                        k
                    })
                    .collect(),
            },
        ];
        characterize_apps(machine, &apps)
    }

    fn mini_eval() -> Evaluation {
        let machine = Machine::new(42);
        let apps = mini_apps(&machine);
        evaluate(&apps, TrainingParams { n_clusters: 3, ..Default::default() }).unwrap()
    }

    #[test]
    fn evaluation_produces_cases_for_all_methods() {
        let e = mini_eval();
        for &m in &Method::COMPARED {
            assert!(e.cases.iter().any(|c| c.method == m), "{m} has no cases");
        }
        assert_eq!(e.fold_silhouettes.len(), 2, "two benchmarks → two folds");
    }

    #[test]
    fn a_malformed_profile_fails_the_evaluation_before_any_frontier() {
        // A NaN true power has no place in the oracle frontier's sort.
        let mut apps = mini_apps(&Machine::new(42));
        apps[1].profiles[2].runs[5].true_power.gpu_nb_plane_w = f64::NAN;
        let kernel = apps[1].profiles[2].kernel.id();
        match evaluate(&apps, TrainingParams { n_clusters: 3, ..Default::default() }) {
            Err(TrainError::BadProfile { kernel: named, run: 5, .. }) => assert_eq!(named, kernel),
            other => panic!("expected a bad-profile error, got {other:?}"),
        }
    }

    #[test]
    fn oracle_reference_is_never_beaten_under_limit() {
        // In an under-limit case a method cannot out-perform the oracle:
        // the oracle is optimal among cap-respecting configurations.
        let e = mini_eval();
        for c in &e.cases {
            if c.under_limit() {
                assert!(
                    c.perf_ratio() <= 1.0 + 1e-9,
                    "{} beat the oracle under-limit on {} (ratio {})",
                    c.method,
                    c.kernel_id,
                    c.perf_ratio()
                );
            }
        }
    }

    #[test]
    fn over_limit_cases_use_more_power_than_cap() {
        let e = mini_eval();
        for c in &e.cases {
            if !c.under_limit() {
                assert!(c.power_w > c.cap_w);
            }
        }
    }

    #[test]
    fn weights_sum_to_app_count_per_method() {
        // Each kernel contributes its weight once; app weights sum to 1.
        let e = mini_eval();
        for &m in &Method::COMPARED {
            let w: f64 = e.cases.iter().filter(|c| c.method == m).map(|c| c.weight).sum();
            assert!((w - 2.0).abs() < 1e-9, "{m}: weight sum {w} (2 apps)");
        }
    }

    #[test]
    fn summaries_are_within_bounds() {
        let e = mini_eval();
        for s in e.table3() {
            assert!((0.0..=100.0).contains(&s.pct_under), "{:?}", s);
            if let Some(p) = s.under_perf_pct {
                assert!(p <= 100.0 + 1e-6, "{:?}", s);
                assert!(p > 0.0);
            }
            if let Some(p) = s.over_power_pct {
                assert!(p > 100.0 * 0.5, "{:?}", s); // over-limit power near/above oracle
            }
        }
    }

    #[test]
    fn model_fl_meets_caps_at_least_as_often_as_model() {
        let e = mini_eval();
        let t = e.table3();
        let get = |m: Method| t.iter().find(|s| s.method == m).unwrap().pct_under;
        assert!(
            get(Method::ModelFL) >= get(Method::Model) - 1e-9,
            "FL can only help cap compliance: Model {} vs Model+FL {}",
            get(Method::Model),
            get(Method::ModelFL)
        );
    }

    #[test]
    fn by_app_covers_all_labels() {
        let e = mini_eval();
        let labels = e.app_labels();
        assert_eq!(labels.len(), 2);
        let per_app = e.by_app(Method::ModelFL);
        assert_eq!(per_app.len(), 2);
        for (label, s) in per_app {
            assert!(labels.contains(&label));
            assert!((0.0..=100.0).contains(&s.pct_under));
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        let a = mini_eval();
        let b = mini_eval();
        assert_eq!(a, b);
    }

    #[test]
    fn summarize_empty_set_is_benign() {
        let s = summarize(&[], Method::Model);
        assert_eq!(s.pct_under, 0.0);
        assert!(s.under_perf_pct.is_none());
        assert!(s.over_power_pct.is_none());
    }
}
