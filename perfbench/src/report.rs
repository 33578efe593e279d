//! Metric names, units, and the result of one run.

use std::collections::BTreeMap;

use gc_trace::Json;

/// End-to-end metrics, `(name, unit)`, measured with tracing off. Every
/// workload reports every one of them (see `README.md` for what each means
/// on each workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, from the traced run. A layer that is
/// not on a workload's path reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("model.succ_us", "us"),
    ("model.succ_per_state", "count"),
    ("model.canon_us", "us"),
    ("model.ample_reduced_share", "ratio"),
    ("model.encode_us", "us"),
    ("model.decode_us", "us"),
    ("model.state_bytes", "B"),
    ("props.eval_us", "us"),
    ("mc.states", "count"),
    ("mc.transitions", "count"),
    ("mc.depth", "count"),
    ("mc.states_per_s", "1/s"),
    ("mc.dup_share", "ratio"),
    ("mc.self_share", "ratio"),
    ("mc.spill_mb", "MB"),
    ("mc.reduction_hits.por", "count"),
    ("mc.reduction_hits.symmetry", "count"),
    ("mc.reduction_hits.sb_canon", "count"),
    ("core.alloc_ns_p50", "ns"),
    ("core.alloc_ns_p99", "ns"),
    ("core.store_ns_p50", "ns"),
    ("core.safepoint_ns_p99", "ns"),
    ("core.handshake_ms_p50", "ms"),
    ("core.mark_ms_p50", "ms"),
    ("core.sweep_ms_p50", "ms"),
    ("core.handshakes_per_cycle", "count"),
    ("core.barrier_checks_per_alloc", "count"),
    ("core.mark_cas_lost_share", "ratio"),
    ("core.emergency_cycles", "count"),
    ("core.backoff_ms", "ms"),
    ("serve.alloc_stall_p99_ms", "ms"),
    ("serve.shed_share", "ratio"),
    ("serve.rejected_share", "ratio"),
    ("serve.end_occupancy_permille", "permille"),
    ("serve.cycles", "count"),
    ("serve.offered_rps", "1/s"),
    ("serve.gen_lag_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted: checks, allocations or offered requests.
    pub attempted: u64,
    /// Operations that broke a correctness gate: a wrong verdict or exact
    /// count, a failed allocation, an errored or unaccounted request.
    pub failed: u64,
    /// Correctness failures, one line each (empty when the run is correct).
    pub errors: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Exact work counters and supporting figures for the record line.
    pub record: Vec<(&'static str, Json)>,
}

impl RunResult {
    /// Sets metric `name`.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds `key` to the record line.
    pub fn note(&mut self, key: &'static str, value: impl Into<Json>) {
        self.record.push((key, value.into()));
    }

    /// Records a correctness failure of `count` operations.
    pub fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        self.errors.push(why);
    }

    /// Whether every correctness gate held.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The `metrics` object of the result line for `table`. Per-layer
    /// metrics a workload does not touch are reported as 0; a missing or
    /// non-finite end-to-end value is a bug in this benchmark.
    pub fn metrics_json(&self, table: &[(&str, &str)], fill_missing: bool) -> Json {
        let mut out = Json::obj();
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if fill_missing => 0.0,
                None => panic!("workload did not measure `{name}`"),
            };
            assert!(value.is_finite(), "`{name}` is not finite: {value}");
            out = out.set(name, Json::obj().set("value", value).set("unit", unit));
        }
        out
    }
}

/// The workload's per-pass overhead of the traced run: how much longer a
/// unit of work takes traced than untraced (negative when noise wins).
pub fn overhead_share(untraced_rate: f64, traced_rate: f64) -> f64 {
    if traced_rate <= 0.0 {
        0.0
    } else {
        untraced_rate / traced_rate - 1.0
    }
}
