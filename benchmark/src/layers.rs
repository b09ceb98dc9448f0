//! The layer table: every per-layer metric, measured from outside.
//!
//! One procedure, the same in every traced run and a pure function of
//! `--seed`: replay each workload's request stream through the layers
//! (see [`crate::replay`]), unroll `evaluate` into the calls it makes,
//! and probe what no stream reaches (a cache miss, a contended metrics
//! registry, a STATS snapshot over a full reservoir, journal recovery, a
//! window-1 round trip). Every call is a span; a layer's number is the
//! median self time of its spans.

use crate::loadgen::{drive_pipelined, Lane, LaneRecorder, Phase, Recorder};
use crate::replay::{replay_scripts, Replay};
use crate::rng::Stream;
use crate::script::{frame_of, select_entries, Pick, Script};
use crate::stats::Histogram;
use crate::sut::{
    characterize, reference_engine, train_suite, warm_cache, Conn, LiveServer, Trained,
    MACHINE_SEED,
};
use crate::trace::{layers_sum_per_op, median_self_by_name, Tracer};
use crate::workload::{recreate, Env};
use crate::workloads::{mixed_journal, select_warm, session_churn};
use crate::Res;
use acs_core::dissimilarity::dissimilarity_matrix;
use acs_core::eval::evaluate_kernel;
use acs_core::features::config_features;
use acs_core::{
    train, ClusterModels, FastModel, KernelProfile, SelectScratch, TrainedModel, TrainingParams,
};
use acs_mlstat::{leave_one_group_out, pam, silhouette, ClassificationTree, LinearModel};
use acs_serve::{
    replay as replay_journal, ArbiterPolicy, Journal, JournalEntry, LeaseReport, Metrics, Request,
    ServeConfig, StatsSnapshot,
};
use acs_sim::{Configuration, Device, FamilyId, Machine};
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

/// Requests replayed per serve stream, sessions for the churn replay.
const SELECT_REQUESTS: u64 = 4_000;
const MIXED_REQUESTS: u64 = 6_000;
const CHURN_SESSIONS: u64 = 400;

/// What the layer table measured.
pub struct LayerTable {
    /// Per-layer metrics by name, in the unit the name ends in.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per workload: the sum of the layers' self times per operation, ns.
    pub layers_sum_ns: BTreeMap<&'static str, f64>,
    /// The probe server's final STATS (what a workload without a server
    /// of its own reports the server's beliefs from).
    pub probe_stats: StatsSnapshot,
}

/// Measure everything. `dir` is scratch space for the journal and model.
pub fn measure(env: &Env, t: &mut Tracer, dir: &std::path::Path) -> Res<LayerTable> {
    recreate(dir)?;
    let mut metrics = BTreeMap::new();
    let mut layers_sum_ns = BTreeMap::new();
    let trained = probe_offline_stage(t, dir)?;

    // --- Replays: one per workload, each in its own span range. ---
    let mark = t.mark();
    replay_select(env, t, &trained)?;
    layers_sum_ns.insert("select_warm", layers_sum_per_op(&t.spans()[mark..], mark, t.calibration));

    let mark = t.mark();
    let journal_path = dir.join("replay-journal.log");
    let mixed = replay_mixed(env, t, &trained, &journal_path)?;
    layers_sum_ns
        .insert("mixed_journal", layers_sum_per_op(&t.spans()[mark..], mark, t.calibration));
    metrics
        .insert("serve.protocol.request_bytes", mixed.request_bytes as f64 / mixed.requests as f64);
    metrics.insert(
        "serve.protocol.response_bytes",
        mixed.response_bytes as f64 / mixed.requests as f64,
    );
    let journal_bytes =
        std::fs::metadata(&journal_path).map_err(|e| format!("journal size: {e}"))?.len();
    metrics.insert("serve.journal.bytes_per_req", journal_bytes as f64 / mixed.requests as f64);
    probe_journal_replay(t, &journal_path)?;

    let mark = t.mark();
    replay_churn(env, t, &trained)?;
    layers_sum_ns
        .insert("session_churn", layers_sum_per_op(&t.spans()[mark..], mark, t.calibration));

    let mark = t.mark();
    unroll_evaluate(t, &trained)?;
    layers_sum_ns
        .insert("offline_loocv", layers_sum_per_op(&t.spans()[mark..], mark, t.calibration));

    // --- Probes for what no stream reaches. ---
    probe_engine_miss(t, &trained);
    probe_snapshot(t);
    probe_fast_path(t, &trained);
    probe_sim(t, &trained);
    metrics.insert("serve.metrics.record_request_contended_ns", probe_contended(env, t));
    let probe_stats = probe_server(&trained, &mut metrics)?;

    // --- Spans to metrics. ---
    let medians = median_self_by_name(t.spans(), 0, t.calibration);
    let median = |span: &str| medians.get(span).map_or(f64::NAN, |&(ns, _)| ns);
    for (metric, span, scale) in SPAN_METRICS {
        metrics.insert(metric, median(span) / scale);
    }
    metrics.insert(
        "serve.arbiter.join_leave_ns",
        median("serve.arbiter.join") + median("serve.arbiter.leave"),
    );
    Ok(LayerTable { metrics, layers_sum_ns, probe_stats })
}

/// (metric, span it is the median self time of, ns per metric unit).
const SPAN_METRICS: [(&str, &str, f64); 28] = [
    ("serve.protocol.decode_request_ns", "serve.protocol.decode", 1.0),
    ("serve.protocol.encode_response_ns", "serve.protocol.encode", 1.0),
    ("serve.engine.select_hit_ns", "serve.engine.select", 1.0),
    ("serve.engine.select_miss_ns", "serve.engine.select_miss", 1.0),
    ("serve.engine.batch32_ns", "serve.engine.batch", 1.0),
    ("serve.metrics.record_request_ns", "serve.metrics.record_request", 1.0),
    ("serve.metrics.snapshot_ns", "serve.metrics.snapshot", 1.0),
    ("core.adapt.correction_ns", "core.adapt.correction", 1.0),
    ("core.adapt.observe_ns", "core.adapt.observe", 1.0),
    ("serve.arbiter.report_ns", "serve.arbiter.report", 1.0),
    ("serve.journal.append_ns", "serve.journal.append", 1.0),
    ("serve.journal.replay_ms", "serve.journal.replay", 1e6),
    ("core.runtime.run_kernel_ns", "core.runtime.run_kernel", 1.0),
    ("core.runtime.set_cap_ns", "core.runtime.set_cap", 1.0),
    ("core.runtime.new_session_us", "core.runtime.new_session", 1e3),
    ("sim.characterize_suite_ms", "sim.characterize_suite", 1e6),
    ("sim.run_ns", "sim.run", 1.0),
    ("core.frontier.build_us", "core.frontier.build", 1e3),
    ("core.dissimilarity.matrix_ms", "core.dissimilarity.matrix", 1e6),
    ("mlstat.cluster.pam_ms", "mlstat.cluster.pam", 1e6),
    ("mlstat.regression.fit_us", "mlstat.regression.fit", 1e3),
    ("mlstat.tree.fit_us", "mlstat.tree.fit", 1e3),
    ("core.offline.train_ms", "core.offline.train", 1e6),
    ("core.eval.evaluate_kernel_us", "core.eval.evaluate_kernel", 1e3),
    ("core.fastpath.predict_us", "core.fastpath.predict", 1e3),
    ("core.fastpath.select_with_ns", "core.fastpath.select_with", 1.0),
    ("core.online.profile_select_ns", "core.online.profile_select", 1.0),
    ("core.persist.save_load_ms", "core.persist.save_load", 1e6),
];

/// Characterization, training and persistence, each a few times over.
fn probe_offline_stage(t: &mut Tracer, dir: &std::path::Path) -> Res<Trained> {
    for _ in 0..3 {
        t.span("sim.characterize_suite", 0, || characterize(FamilyId::Trinity, MACHINE_SEED));
    }
    let trained = train_suite()?;
    let path = dir.join("model.json");
    for _ in 0..5 {
        t.span("core.offline.train", 0, || train(&trained.profiles, TrainingParams::default()))
            .map_err(|e| format!("train: {e}"))?;
        t.span("core.persist.save_load", 0, || {
            trained.model.save(&path).and_then(|()| TrainedModel::load(&path))
        })
        .map_err(|e| format!("model round trip: {e}"))?;
    }
    Ok(trained)
}

fn warm(replay: &Replay, trained: &Trained) -> Res<()> {
    for id in &trained.kernel_ids {
        replay.engine().profile(id).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn replay_select(env: &Env, t: &mut Tracer, trained: &Trained) -> Res<()> {
    let mut replay =
        Replay::new(&trained.model, select_warm::GLOBAL_CAP_W, ArbiterPolicy::EqualShare, None);
    warm(&replay, trained)?;
    let entries = select_entries(&trained.kernel_ids, None);
    let scripts: Vec<Script<'_>> = (0..env.lanes as u64)
        .map(|lane| Script { entries: &entries, pick: Pick::Uniform(Stream::new(env.seed, lane)) })
        .collect();
    replay_scripts(&mut replay, t, &scripts, SELECT_REQUESTS)
}

fn replay_mixed(
    env: &Env,
    t: &mut Tracer,
    trained: &Trained,
    journal_path: &std::path::Path,
) -> Res<Replay> {
    let (journal, _) = Journal::<JournalEntry>::open(journal_path)
        .map_err(|e| format!("open replay journal: {e}"))?;
    let mut replay = Replay::new(
        &trained.model,
        mixed_journal::GLOBAL_CAP_W,
        mixed_journal::POLICY,
        Some(journal),
    );
    warm(&replay, trained)?;
    let pools = mixed_journal::pools(env, trained);
    let scripts: Vec<Script<'_>> =
        pools.iter().map(|entries| Script { entries, pick: Pick::Cyclic }).collect();
    replay_scripts(&mut replay, t, &scripts, MIXED_REQUESTS)?;
    Ok(replay)
}

/// Journal recovery over what the mixed replay wrote: reopen (validate
/// every line) and fold the entries into a fresh arbiter.
fn probe_journal_replay(t: &mut Tracer, journal_path: &std::path::Path) -> Res<()> {
    for _ in 0..3 {
        t.span("serve.journal.replay", 0, || {
            let (_, entries) = Journal::<JournalEntry>::open(journal_path)
                .map_err(|e| format!("reopen replay journal: {e}"))?;
            replay_journal(&entries, mixed_journal::GLOBAL_CAP_W, mixed_journal::POLICY)
                .map(|_| ())
                .map_err(|e| format!("the replay's journal does not replay: {e}"))
        })?;
    }
    Ok(())
}

/// Sessions as `session_churn` makes them, one after another.
fn replay_churn(env: &Env, t: &mut Tracer, trained: &Trained) -> Res<()> {
    let mut replay =
        Replay::new(&trained.model, session_churn::GLOBAL_CAP_W, ArbiterPolicy::EqualShare, None);
    warm(&replay, trained)?;
    let selects = select_entries(&trained.kernel_ids, None);
    let (hello, bye) = (frame_of(&Request::Hello), frame_of(&Request::Bye));
    let stream = Stream::new(env.seed, 0);
    let mut out = Vec::with_capacity(4 << 10);
    for session in 0..CHURN_SESSIONS {
        let root = t.enter("session", session);
        let node = replay.open_session(t, session);
        replay.turn(t, node, &hello, session, &mut out)?;
        for j in 0..session_churn::SELECTS {
            let kernel =
                (stream.at(session * session_churn::SELECTS + j) % selects.len() as u64) as usize;
            replay.turn(t, node, &selects[kernel].frame, session, &mut out)?;
            if !selects[kernel].accepts(&out[4..]) {
                return Err(format!("churn replay session {session} got a wrong reply"));
            }
        }
        replay.turn(t, node, &bye, session, &mut out)?;
        replay.close_session(t, session, node);
        t.exit(root);
    }
    Ok(())
}

/// `core::offline::fit_cluster`, from public parts: the four regressions
/// of one cluster, each fit in a span.
fn fit_cluster(t: &mut Tracer, op: u64, members: &[&KernelProfile]) -> Res<ClusterModels> {
    let (mut rows_cpu, mut perf_cpu, mut power_cpu) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rows_gpu, mut perf_gpu, mut power_gpu) = (Vec::new(), Vec::new(), Vec::new());
    for profile in members {
        let samples = profile.sample_pair();
        for run in &profile.runs {
            let x = config_features(&run.config).to_vec();
            let ratio = (1.0 / run.time_s) / samples.perf_on(run.config.device);
            let (rows, perf, power) = match run.config.device {
                Device::Cpu => (&mut rows_cpu, &mut perf_cpu, &mut power_cpu),
                Device::Gpu => (&mut rows_gpu, &mut perf_gpu, &mut power_gpu),
            };
            rows.push(x);
            perf.push(ratio);
            power.push(run.power_w());
        }
    }
    let mut fit = |rows: &[Vec<f64>], y: &[f64], intercept: bool| {
        t.span("mlstat.regression.fit", op, || LinearModel::fit(rows, y, intercept))
            .map_err(|e| format!("cluster regression: {e}"))
    };
    Ok(ClusterModels {
        perf_cpu: fit(&rows_cpu, &perf_cpu, false)?,
        perf_gpu: fit(&rows_gpu, &perf_gpu, false)?,
        power_cpu: fit(&rows_cpu, &power_cpu, true)?,
        power_gpu: fit(&rows_gpu, &power_gpu, true)?,
    })
}

/// `core::offline::train` with default parameters, call by call.
fn unrolled_train(t: &mut Tracer, op: u64, profiles: &[KernelProfile]) -> Res<TrainedModel> {
    let params = TrainingParams::default();
    let frontiers: Vec<_> =
        profiles.iter().map(|p| t.span("core.frontier.build", op, || p.frontier())).collect();
    let matrix = t.span("core.dissimilarity.matrix", op, || dissimilarity_matrix(&frontiers));
    let clustering = t.span("mlstat.cluster.pam", op, || pam(&matrix, params.n_clusters));
    let sil = t.span("mlstat.cluster.silhouette", op, || silhouette(&matrix, &clustering));
    let mut clusters = Vec::with_capacity(params.n_clusters);
    for c in 0..params.n_clusters {
        let members: Vec<&KernelProfile> =
            clustering.members(c).into_iter().map(|i| &profiles[i]).collect();
        clusters.push(fit_cluster(t, op, &members)?);
    }
    let rows: Vec<Vec<f64>> =
        profiles.iter().map(|p| p.sample_pair().tree_features().to_vec()).collect();
    let tree = t
        .span("mlstat.tree.fit", op, || {
            ClassificationTree::fit(&rows, &clustering.assignment, params.n_clusters, params.tree)
        })
        .map_err(|e| format!("classification tree: {e}"))?;
    Ok(TrainedModel {
        params,
        kernel_ids: profiles.iter().map(|p| p.kernel.id()).collect(),
        clustering,
        silhouette: sil,
        clusters,
        tree,
    })
}

/// `core::eval::evaluate` on the reference suite, unrolled into the calls
/// it makes, sequentially. Each fold's model must equal what `train`
/// builds, or the unrolling has drifted from the program.
fn unroll_evaluate(t: &mut Tracer, trained: &Trained) -> Res<()> {
    let apps = &trained.apps;
    let benchmarks: Vec<&str> = apps.iter().map(|a| a.app.benchmark.as_str()).collect();
    let root = t.enter("evaluate", 0);
    for (op, fold) in leave_one_group_out(&benchmarks).iter().enumerate() {
        let training: Vec<KernelProfile> =
            fold.train.iter().flat_map(|&ai| apps[ai].profiles.iter().cloned()).collect();
        let model = unrolled_train(t, op as u64, &training)?;
        let reference = train(&training, TrainingParams::default())
            .map_err(|e| format!("train fold {}: {e}", fold.label))?;
        if model != reference {
            return Err(format!(
                "the unrolled training of fold {} drifted from train()",
                fold.label
            ));
        }
        for &ai in &fold.test {
            let label = apps[ai].app.label();
            for profile in &apps[ai].profiles {
                t.span("core.eval.evaluate_kernel", op as u64, || {
                    evaluate_kernel(profile, &model, &label)
                });
            }
        }
    }
    t.exit(root);
    Ok(())
}

/// Every `Select` a miss: a one-entry cache and round-robin kernel ids,
/// so each call pays two sample runs, classification, prediction and the
/// frontier.
fn probe_engine_miss(t: &mut Tracer, trained: &Trained) {
    let engine = reference_engine(&trained.model).with_profile_capacity(1);
    for round in 0..8u64 {
        for id in &trained.kernel_ids {
            let _ = t.span("serve.engine.select_miss", round, || engine.select(id, 25.0));
        }
    }
}

/// A STATS snapshot over a full latency reservoir (65 536 samples cloned
/// and sorted under the lock).
fn probe_snapshot(t: &mut Tracer) {
    let metrics = Metrics::new();
    for i in 0..(1u64 << 16) {
        metrics.record_request("select", 500 + (i * 7919) % 10_000);
    }
    for round in 0..20 {
        t.span("serve.metrics.snapshot", round, || {
            metrics.snapshot((0, 0), 1, 0, &LeaseReport::default())
        });
    }
}

/// The paper's online stage on its own: predict a profile from a sample
/// pair, select from a sample pair without building one, and select from
/// a profile already built.
fn probe_fast_path(t: &mut Tracer, trained: &Trained) {
    let fast = FastModel::new(&trained.model);
    let mut scratch = SelectScratch::new();
    for round in 0..8u64 {
        for (i, profile) in trained.profiles.iter().enumerate() {
            let samples = profile.sample_pair();
            let cap_w = 12.0 + ((round * 65 + i as u64) % 40) as f64;
            let predicted = t
                .span("core.fastpath.predict", round, || fast.predict_with(&samples, &mut scratch));
            t.span("core.fastpath.select_with", round, || {
                fast.select_with(&samples, cap_w, &mut scratch)
            });
            t.span("core.online.profile_select", round, || predicted.select(cap_w));
        }
    }
}

/// One simulated kernel iteration.
fn probe_sim(t: &mut Tracer, trained: &Trained) {
    let machine = Machine::from_family(FamilyId::Trinity, MACHINE_SEED);
    let configs = Configuration::all();
    for (i, profile) in trained.profiles.iter().enumerate() {
        for (j, config) in configs.iter().enumerate().filter(|(j, _)| (i + j) % 4 == 0) {
            t.span("sim.run", i as u64, || machine.run_iter(&profile.kernel, config, j as u64));
        }
    }
}

/// `Metrics::record_request` with every core calling it at once: the
/// median per call, with the same timing overhead taken out that the
/// spans' self times have, so subtracting the uncontended number leaves
/// the lock wait.
fn probe_contended(env: &Env, t: &Tracer) -> f64 {
    const CALLS: usize = 50_000;
    let metrics = Metrics::new();
    let barrier = Barrier::new(env.lanes);
    let mut all = Histogram::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..env.lanes)
            .map(|_| {
                scope.spawn(|| {
                    let mut h = Histogram::default();
                    barrier.wait();
                    for i in 0..CALLS {
                        let started = Instant::now();
                        metrics.record_request("select", 500 + i as u64);
                        h.record(started.elapsed().as_nanos() as u64);
                    }
                    h
                })
            })
            .collect();
        for handle in handles {
            all.merge(&handle.join().expect("the contention probe does not panic"));
        }
    });
    (all.quantile(0.5).unwrap_or(f64::NAN) - t.calibration.empty_span_ns).max(0.0)
}

/// What needs a live server and a socket: connect → `Welcome`, and the
/// window-1 round trip (scheduler-dominated; diagnostic only). Returns
/// the server's STATS after both.
fn probe_server(
    trained: &Trained,
    metrics: &mut BTreeMap<&'static str, f64>,
) -> Res<StatsSnapshot> {
    const SESSIONS: usize = 100;
    let server = LiveServer::start(ServeConfig::default(), trained.model.clone())?;
    let selects = select_entries(&trained.kernel_ids, None);

    let mut connects = Histogram::default();
    for _ in 0..SESSIONS {
        let started = Instant::now();
        let mut conn = Conn::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
        conn.hello()?;
        connects.record(started.elapsed().as_nanos() as u64);
        conn.bye()?;
    }
    metrics.insert("serve.server.connect_p50_us", connects.quantile(0.5).unwrap_or(f64::NAN) / 1e3);

    let mut conn = Conn::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    conn.hello()?;
    warm_cache(&mut conn, &selects)?;
    let mut lane = Lane { conn, next: 0 };
    let script = Script { entries: &selects, pick: Pick::Uniform(Stream::new(1, 0)) };
    let clock = Phase::of(0.8).start();
    let mut recorder = LaneRecorder::new(&clock, false);
    drive_pipelined(&mut lane, script, 1, u64::MAX, &clock, &mut recorder, &mut ())?;
    let rtt = Recorder::merge(vec![recorder]).latency;
    metrics.insert("serve.server.rtt_w1_p50_us", rtt.quantile(0.5).unwrap_or(f64::NAN) / 1e3);
    metrics.insert("serve.server.rtt_w1_p99_us", rtt.quantile(0.99).unwrap_or(f64::NAN) / 1e3);
    let stats = lane.conn.stats()?;
    lane.conn.bye()?;
    server.stop()?;
    Ok(stats)
}
