//! The metric names, units and directions this benchmark reports.
//! `BENCHMARK.json` lists the same ones (a test holds the two together);
//! `benchmark/README.md` says what each means and what should move it.

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Its name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees; gated by the bounds in `BENCHMARK.json`.
pub const END_TO_END: [MetricDef; 7] = [
    def("setup_s", "s", "lower"),
    def("ops_per_s", "1/s", "higher"),
    def("lat_p50_us", "us", "lower"),
    def("cpu_us_per_op", "us", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
    def("caps_met_pct", "%", "higher"),
    def("oracle_perf_pct", "%", "higher"),
];

/// Single layers, measured only in the traced run; not gated.
pub const PER_LAYER: [MetricDef; 46] = [
    def("serve.protocol.decode_request_ns", "ns", "lower"),
    def("serve.protocol.encode_response_ns", "ns", "lower"),
    def("serve.protocol.request_bytes", "bytes", "lower"),
    def("serve.protocol.response_bytes", "bytes", "lower"),
    def("serve.engine.select_hit_ns", "ns", "lower"),
    def("serve.engine.select_miss_ns", "ns", "lower"),
    def("serve.engine.batch32_ns", "ns", "lower"),
    def("serve.engine.hit_ratio", "ratio", "higher"),
    def("serve.metrics.record_request_ns", "ns", "lower"),
    def("serve.metrics.record_request_contended_ns", "ns", "lower"),
    def("serve.metrics.snapshot_ns", "ns", "lower"),
    def("core.adapt.correction_ns", "ns", "lower"),
    def("core.adapt.observe_ns", "ns", "lower"),
    def("serve.arbiter.report_ns", "ns", "lower"),
    def("serve.arbiter.join_leave_ns", "ns", "lower"),
    def("serve.journal.append_ns", "ns", "lower"),
    def("serve.journal.bytes_per_req", "bytes", "lower"),
    def("serve.journal.replay_ms", "ms", "lower"),
    def("core.runtime.run_kernel_ns", "ns", "lower"),
    def("core.runtime.set_cap_ns", "ns", "lower"),
    def("core.runtime.new_session_us", "us", "lower"),
    def("serve.server.connect_p50_us", "us", "lower"),
    def("serve.server.rtt_w1_p50_us", "us", "lower"),
    def("serve.server.rtt_w1_p99_us", "us", "lower"),
    def("serve.server.lat_p99_us", "us", "lower"),
    def("serve.server.allocs_per_op", "count", "lower"),
    def("serve.server.alloc_bytes_per_op", "bytes", "lower"),
    def("serve.server.ctx_switches_per_op", "count", "lower"),
    def("serve.server.stats_p50_us", "us", "lower"),
    def("serve.server.stats_p99_us", "us", "lower"),
    def("serve.server.layers_sum_ns", "ns", "lower"),
    def("serve.server.unattributed_ns", "ns", "lower"),
    def("sim.characterize_suite_ms", "ms", "lower"),
    def("sim.run_ns", "ns", "lower"),
    def("core.frontier.build_us", "us", "lower"),
    def("core.dissimilarity.matrix_ms", "ms", "lower"),
    def("mlstat.cluster.pam_ms", "ms", "lower"),
    def("mlstat.regression.fit_us", "us", "lower"),
    def("mlstat.tree.fit_us", "us", "lower"),
    def("core.offline.train_ms", "ms", "lower"),
    def("core.eval.evaluate_kernel_us", "us", "lower"),
    def("core.fastpath.predict_us", "us", "lower"),
    def("core.fastpath.select_with_ns", "ns", "lower"),
    def("core.online.profile_select_ns", "ns", "lower"),
    def("core.persist.save_load_ms", "ms", "lower"),
    def("trace.overhead_pct", "%", "lower"),
];

/// The definition of the metric called `name`, in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}
