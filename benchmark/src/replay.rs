//! The layer replay: the request path, layer by layer, from outside.
//!
//! The same frames the socket generators send are pushed, in-process and
//! on one thread, through the layers' public functions in the order
//! `serve::server`'s `run_session` and `handle_request` call them, each
//! call inside a span. Nothing in the program is instrumented; what this
//! file cannot see (socket reads and writes, thread wake-ups, waiting for
//! the arbiter and adaptation locks) is exactly what the layer table
//! reports as unattributed.

use crate::script::Script;
use crate::sut::{reference_engine, MACHINE_SEED};
use crate::trace::Tracer;
use crate::Res;
use acs_core::{AdaptivePredictor, CappedRuntime, DriftEvent, GuardPolicy, TrainedModel};
use acs_serve::{
    read_frame, write_frame, Arbiter, ArbiterPolicy, Engine, Journal, JournalEntry, Metrics,
    ReadOutcome, ReportFeedback, Request, Response, Selection,
};
use acs_sim::{Configuration, FamilyId, Machine};
use std::sync::Arc;
use std::time::Instant;

/// One replayed session: what `run_session` keeps per connection.
struct Node {
    id: u64,
    runtime: CappedRuntime<Machine>,
    predictor: AdaptivePredictor,
}

/// The server's shared state, rebuilt from public constructors.
pub struct Replay {
    model: Arc<TrainedModel>,
    engine: Engine,
    arbiter: Arbiter,
    journal: Option<Journal>,
    metrics: Metrics,
    nodes: Vec<Node>,
    next_node: u64,
    /// Request and response bytes seen, for the frame-size metrics.
    pub request_bytes: u64,
    /// See `request_bytes`.
    pub response_bytes: u64,
    /// Requests replayed.
    pub requests: u64,
}

impl Replay {
    /// A server's worth of state with no sessions yet.
    pub fn new(
        model: &TrainedModel,
        global_cap_w: f64,
        policy: ArbiterPolicy,
        journal: Option<Journal>,
    ) -> Self {
        Self {
            engine: reference_engine(model),
            model: Arc::new(model.clone()),
            arbiter: Arbiter::new(global_cap_w, policy),
            journal,
            metrics: Metrics::new(),
            nodes: Vec::new(),
            next_node: 1,
            request_bytes: 0,
            response_bytes: 0,
            requests: 0,
        }
    }

    /// The engine, for warming its cache before a replay.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    fn journal(&self, t: &mut Tracer, op: u64, entry: JournalEntry) {
        if let Some(journal) = &self.journal {
            // Best effort, as in the server: a failed append degrades
            // durability, not the reply.
            let _ = t.span("serve.journal.append", op, || journal.append(&entry));
        }
    }

    /// What `run_session` does before its loop: join the arbiter, create
    /// the adaptation state and the session's capped runtime. Returns the
    /// node's index.
    pub fn open_session(&mut self, t: &mut Tracer, op: u64) -> usize {
        let id = self.next_node;
        self.next_node += 1;
        let budget_w = t.span("serve.arbiter.join", op, || self.arbiter.join(id));
        self.journal(t, op, JournalEntry::Admit { node_id: id, epoch: self.arbiter.epoch() });
        let predictor = AdaptivePredictor::default();
        let runtime = t.span("core.runtime.new_session", op, || {
            CappedRuntime::guarded(
                Machine::from_family(FamilyId::Trinity, MACHINE_SEED),
                (*self.model).clone(),
                budget_w,
                GuardPolicy::default(),
            )
        });
        self.nodes.push(Node { id, runtime, predictor });
        self.nodes.len() - 1
    }

    /// What `run_session` does after its loop. The node must be the last
    /// one opened (sessions of the churn replay nest trivially).
    pub fn close_session(&mut self, t: &mut Tracer, op: u64, node: usize) {
        assert_eq!(node, self.nodes.len() - 1, "sessions close in reverse order of opening");
        let id = self.nodes[node].id;
        t.span("serve.arbiter.leave", op, || self.arbiter.leave(id));
        self.journal(t, op, JournalEntry::Leave { node_id: id, epoch: self.arbiter.epoch() });
        self.nodes.pop();
    }

    /// One turn of the session loop: pick up a budget reshuffle, decode
    /// the frame, serve it, record it, encode the reply into `out`
    /// (length prefix included).
    pub fn turn(
        &mut self,
        t: &mut Tracer,
        node: usize,
        frame: &[u8],
        op: u64,
        out: &mut Vec<u8>,
    ) -> Res<()> {
        let root = t.enter("request", op);
        if let Some(budget_w) = self.arbiter.budget_of(self.nodes[node].id) {
            self.apply_budget(t, op, node, budget_w);
        }
        let mut wire = frame;
        let request =
            match t.span("serve.protocol.decode", op, || read_frame::<_, Request>(&mut wire)) {
                Ok(ReadOutcome::Frame(request)) => request,
                Ok(_) => return Err("a scripted frame was empty".into()),
                Err(e) => return Err(format!("a scripted frame does not decode: {e}")),
            };
        let started = Instant::now();
        let kind = Request::kind(&request);
        let response = self.handle(t, op, node, request);
        let latency_ns = started.elapsed().as_nanos() as u64;
        t.span("serve.metrics.record_request", op, || {
            self.metrics.record_request(kind, latency_ns)
        });
        out.clear();
        t.span("serve.protocol.encode", op, || write_frame(out, &response))
            .map_err(|e| format!("a reply does not encode: {e}"))?;
        t.exit(root);
        self.requests += 1;
        self.request_bytes += frame.len() as u64;
        self.response_bytes += out.len() as u64;
        Ok(())
    }

    fn apply_budget(&mut self, t: &mut Tracer, op: u64, node: usize, budget_w: f64) {
        let runtime = &mut self.nodes[node].runtime;
        if (runtime.cap_w() - budget_w).abs() > 1e-9
            && t.span("core.runtime.set_cap", op, || runtime.try_set_cap(budget_w)).is_ok()
        {
            self.metrics.record_reselection();
        }
    }

    /// `select_for`: through the session's predictor, which without a
    /// confirmed drift correction is exactly `Engine::select`.
    fn select_for(
        &self,
        t: &mut Tracer,
        op: u64,
        node: usize,
        kernel_id: &str,
    ) -> Result<Selection, Response> {
        let node = &self.nodes[node];
        let cap_w = node.runtime.cap_w();
        let correction =
            t.span("core.adapt.correction", op, || node.predictor.correction(kernel_id));
        let Some(correction) = correction else {
            return t
                .span("serve.engine.select", op, || self.engine.select(kernel_id, cap_w))
                .map_err(engine_error);
        };
        let profile = t
            .span("serve.engine.profile", op, || self.engine.profile(kernel_id))
            .map_err(engine_error)?;
        let selection = t.span("core.adapt.selection", op, || {
            node.predictor.selection(kernel_id, &profile, cap_w)
        });
        if selection.corrected {
            self.metrics.record_adapt_reselection();
        }
        let point = profile.point_for(&selection.config);
        Ok(Selection {
            kernel_id: kernel_id.to_string(),
            cluster: profile.cluster,
            config: selection.config,
            predicted_power_w: point.power_w * correction.power_ratio,
            predicted_perf: point.perf * correction.perf_ratio,
            budget_w: cap_w,
        })
    }

    /// `handle_request`, for the request kinds the workloads send.
    fn handle(&mut self, t: &mut Tracer, op: u64, node: usize, request: Request) -> Response {
        match request {
            Request::Hello => Response::Welcome {
                node_id: self.nodes[node].id,
                budget_w: self.nodes[node].runtime.cap_w(),
            },
            Request::Select { kernel_id, .. } => match self.select_for(t, op, node, &kernel_id) {
                Ok(selection) => Response::Selected(selection),
                Err(response) => response,
            },
            Request::Batch { kernel_ids, .. } => {
                let predictor = &self.nodes[node].predictor;
                let any_corrected = t.span("core.adapt.correction", op, || {
                    kernel_ids.iter().any(|k| predictor.correction(k).is_some())
                });
                let cap_w = self.nodes[node].runtime.cap_w();
                let mut selections = Vec::with_capacity(kernel_ids.len());
                if any_corrected {
                    for kernel_id in &kernel_ids {
                        match self.select_for(t, op, node, kernel_id) {
                            Ok(s) => selections.push(s),
                            Err(response) => return response,
                        }
                    }
                } else {
                    let results = t.span("serve.engine.batch", op, || {
                        self.engine.select_batch(&kernel_ids, cap_w)
                    });
                    for result in results {
                        match result {
                            Ok(s) => selections.push(s),
                            Err(e) => return engine_error(e),
                        }
                    }
                }
                Response::BatchSelected { selections }
            }
            Request::Run { kernel_id, iterations, idem, .. } => {
                self.run(t, op, node, kernel_id, iterations, idem)
            }
            Request::Report { residual_w, feedback } => {
                if let Some(feedback) = feedback {
                    if let Err(response) = self.observe_feedback(t, op, node, &feedback) {
                        return response;
                    }
                }
                let id = self.nodes[node].id;
                let budget =
                    t.span("serve.arbiter.report", op, || self.arbiter.report(id, residual_w));
                self.journal(
                    t,
                    op,
                    JournalEntry::Report { node_id: id, residual_w, epoch: self.arbiter.epoch() },
                );
                let budget_w = budget.unwrap_or_else(|| self.nodes[node].runtime.cap_w());
                self.apply_budget(t, op, node, budget_w);
                Response::Budget { budget_w: self.nodes[node].runtime.cap_w() }
            }
            Request::Bye => Response::Bye,
            Request::Stats | Request::Shutdown => Response::Error {
                code: "unscripted".into(),
                detail: "the replay serves only what the workloads send".into(),
            },
        }
    }

    fn run(
        &mut self,
        t: &mut Tracer,
        op: u64,
        node: usize,
        kernel_id: String,
        iterations: u64,
        idem: Option<u64>,
    ) -> Response {
        if let Some(key) = idem {
            if let Some(memo) = t.span("serve.engine.idem", op, || self.engine.idem_lookup(key)) {
                self.metrics.record_idem_replay();
                return memo;
            }
        }
        let Some(kernel) = self.engine.kernel(&kernel_id).cloned() else {
            return engine_error(acs_serve::EngineError::UnknownKernel(kernel_id));
        };
        let iterations = iterations.max(1);
        let runtime = &mut self.nodes[node].runtime;
        let (mut total_time_s, mut power_sum, mut last_config) = (0.0, 0.0, None);
        for _ in 0..iterations {
            match t.span("core.runtime.run_kernel", op, || runtime.run_kernel(&kernel)) {
                Ok(run) => {
                    total_time_s += run.time_s;
                    power_sum += run.power_w();
                    last_config = Some(run.config);
                }
                Err(e) => return Response::Error { code: "runtime".into(), detail: e.to_string() },
            }
        }
        let tier =
            runtime.health(&kernel_id).map(|h| h.tier.label()).unwrap_or_else(|| "model".into());
        self.metrics.record_rung(&tier);
        self.journal(t, op, JournalEntry::Rung { label: tier.clone() });
        let response = Response::Ran {
            kernel_id,
            iterations,
            avg_power_w: power_sum / iterations as f64,
            total_time_s,
            config: last_config.expect("at least one iteration ran"),
            tier,
        };
        if let Some(key) = idem {
            t.span("serve.engine.idem", op, || self.engine.idem_store(key, &response));
        }
        response
    }

    fn observe_feedback(
        &mut self,
        t: &mut Tracer,
        op: u64,
        node: usize,
        feedback: &ReportFeedback,
    ) -> Result<(), Response> {
        let bad = |detail: String| Response::Error { code: "bad-feedback".into(), detail };
        if Configuration::all().get(feedback.config.index()) != Some(&feedback.config) {
            return Err(bad(format!("configuration {:?} is not in the space", feedback.config)));
        }
        let profile = t
            .span("serve.engine.profile", op, || self.engine.profile(&feedback.kernel_id))
            .map_err(engine_error)?;
        let point = profile.point_for(&feedback.config);
        let predictor = &mut self.nodes[node].predictor;
        let outcome = t
            .span("core.adapt.observe", op, || {
                predictor.observe(
                    &feedback.kernel_id,
                    feedback.measured_power_w,
                    feedback.measured_perf,
                    point.power_w,
                    point.perf,
                )
            })
            .map_err(|e| bad(e.to_string()))?;
        let mismatches: Vec<&String> = outcome
            .events
            .iter()
            .filter_map(|e| match e {
                DriftEvent::ClusterMismatch { kernel_id, .. } => Some(kernel_id),
                _ => None,
            })
            .collect();
        self.metrics.record_adapt_observation(outcome.events.len() as u64, mismatches.len() as u64);
        let node_id = self.nodes[node].id;
        self.journal(
            t,
            op,
            JournalEntry::AdaptObs {
                node_id,
                kernel_id: feedback.kernel_id.clone(),
                power_bits: outcome.power_ratio.to_bits(),
                perf_bits: outcome.perf_ratio.to_bits(),
            },
        );
        for kernel_id in mismatches {
            self.journal(t, op, JournalEntry::Reclassify { node_id, kernel_id: kernel_id.clone() });
        }
        Ok(())
    }
}

fn engine_error(e: acs_serve::EngineError) -> Response {
    Response::Error { code: "unknown-kernel".into(), detail: e.to_string() }
}

/// Replay `requests` requests round-robin over `scripts` (one session per
/// script), checking every reply the way the socket generators do.
pub fn replay_scripts(
    replay: &mut Replay,
    t: &mut Tracer,
    scripts: &[Script<'_>],
    requests: u64,
) -> Res<()> {
    let nodes: Vec<usize> = scripts.iter().map(|_| replay.open_session(t, 0)).collect();
    let mut out = Vec::with_capacity(16 << 10);
    for op in 0..requests {
        let lane = (op % scripts.len() as u64) as usize;
        let index = scripts[lane].index(op / scripts.len() as u64);
        let entry = &scripts[lane].entries[index];
        replay.turn(t, nodes[lane], &entry.frame, op, &mut out)?;
        if !entry.accepts(&out[4..]) {
            return Err(format!(
                "replayed request {op} got an unexpected reply: {}",
                String::from_utf8_lossy(&out[4..out.len().min(204)])
            ));
        }
    }
    for (lane, node) in nodes.into_iter().enumerate().rev() {
        replay.close_session(t, lane as u64, node);
    }
    Ok(())
}
