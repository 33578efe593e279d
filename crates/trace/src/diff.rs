//! Trace diffing: extract the *shape* of a recorded run and compare two
//! shapes — the regression check behind `gc-trace diff`.
//!
//! A [`TraceShape`] distils a `trace.jsonl` (flat event records, the
//! [`crate::chrome::event_json`] shape) into counts and duration
//! summaries: cycles, cycle/mark/sweep durations, handshake latency per
//! type, barrier hits, allocations, mark CASes, serve requests and
//! checker level progress. The integration tests hold these counts
//! *exactly* equal to the recording run's own counters, which is the
//! trace gate; [`diff_shapes`] compares two runs of the same workload:
//!
//! * **count families** regress in either direction beyond `count_rel` —
//!   a run with half or double the cycles has changed shape even if it
//!   got faster;
//! * **presence**: a family with at least [`MIN_COUNT`] baseline samples
//!   that vanishes entirely is always a regression;
//! * **latency families** (quantiles of durations) regress one-sided —
//!   only when the current run is *slower* than `1 +` [`LATENCY_REL`]
//!   times the baseline (a 20% slowdown trips it), and only past
//!   [`LATENCY_FLOOR_NS`] so histogram-bucket noise on nanosecond-scale
//!   values cannot trip it. `check_latency = false` (`--shape-only`)
//!   reports them without gating.
//!
//! All ingestion errors are structured [`DiffError`]s with a line number:
//! truncated or corrupt files report, never panic.

use std::collections::{BTreeMap, HashMap};

use crate::json::Json;
use crate::metrics::Histogram;

/// One-sided relative slowdown tolerated on latency quantiles (+15%).
pub const LATENCY_REL: f64 = 0.15;

/// Absolute latency delta (ns) below which a quantile move is bucket
/// noise, never a regression.
pub const LATENCY_FLOOR_NS: f64 = 1_000.0;

/// Families with fewer baseline samples than this are not compared.
pub const MIN_COUNT: u64 = 8;

/// A structured ingestion failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffError {
    /// 1-based line of the offending JSONL record, when line-addressable.
    pub line: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(n) => write!(f, "line {n}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for DiffError {}

fn err(line: Option<usize>, message: impl Into<String>) -> DiffError {
    DiffError {
        line,
        message: message.into(),
    }
}

/// The five-number summary of a duration/latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Samples recorded.
    pub count: u64,
    /// Mean sample.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

impl Summary {
    fn of(h: &Histogram) -> Summary {
        Summary {
            count: h.count(),
            mean: h.mean(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            max: h.max(),
        }
    }

    fn to_json(self) -> Json {
        Json::obj()
            .set("count", self.count)
            .set("mean", Json::Num(self.mean))
            .set("p50", self.p50)
            .set("p95", self.p95)
            .set("p99", self.p99)
            .set("max", self.max)
    }
}

/// The extracted shape of one recorded run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceShape {
    /// Event records ingested.
    pub events: u64,
    /// Records skipped (footers, unknown kinds).
    pub skipped: u64,
    /// Collection cycles (begin/end paired; aborted cycles included).
    pub cycles: u64,
    /// Cycle wall-clock durations (ns).
    pub cycle_ns: Summary,
    /// Mark-phase durations (ns).
    pub mark_ns: Summary,
    /// Sweep-phase durations (ns).
    pub sweep_ns: Summary,
    /// Objects freed, summed over cycle ends.
    pub freed_total: u64,
    /// Objects traced, summed over cycle ends.
    pub traced_total: u64,
    /// Handshake latency (ns) per handshake type, plus `"all"`.
    pub handshake_ns: BTreeMap<String, Summary>,
    /// Insertion-barrier hits.
    pub barrier_insertion: u64,
    /// Deletion-barrier hits.
    pub barrier_deletion: u64,
    /// Successful allocations.
    pub allocs: u64,
    /// Mark CAS races won.
    pub mark_cas_won: u64,
    /// Mark CAS races lost.
    pub mark_cas_lost: u64,
    /// Chaos faults fired.
    pub chaos_fired: u64,
    /// Serve requests, every outcome.
    pub serve_requests: u64,
    /// Serve-request latency (µs).
    pub serve_latency_us: Summary,
    /// Checker BFS levels completed.
    pub checker_levels: u64,
    /// Final checker state count (max `states_total` seen).
    pub checker_states: u64,
}

fn get_u64(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_f64).map_or(0, |v| v as u64)
}

fn get_bool(j: &Json, key: &str) -> bool {
    matches!(j.get(key), Some(Json::Bool(true)))
}

fn get_str<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).unwrap_or("?")
}

impl TraceShape {
    /// Ingests flat JSONL records (the `trace.jsonl` /
    /// [`crate::chrome::event_json`] shape). Tolerates the background
    /// sink's `trace_footer` line; any non-JSON line, or a Chrome
    /// trace-event document, is a structured error carrying its 1-based
    /// line number.
    pub fn from_jsonl(text: &str) -> Result<TraceShape, DiffError> {
        let mut shape = TraceShape::default();
        let [cycle_h, mark_h, sweep_h, hs_all, serve_h]: [Histogram; 5] = Default::default();
        let mut hs_by_type: BTreeMap<String, Histogram> = BTreeMap::new();
        // Open spans: handshakes by (track, generation) → (start, type),
        // cycles by (track, cycle id) → start, phases by track.
        let mut hs_open: HashMap<(u64, u64), (u64, String)> = HashMap::new();
        let mut cycle_open: HashMap<(u64, u64), u64> = HashMap::new();
        let mut phase_open: HashMap<u64, (String, u64)> = HashMap::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let record = Json::parse(line)
                .map_err(|e| err(Some(idx + 1), format!("corrupt JSONL record: {e}")))?;
            if record.get("traceEvents").is_some() {
                return Err(err(
                    Some(idx + 1),
                    "a Chrome trace-event document, not JSONL (diff reads trace.jsonl)",
                ));
            }
            let Some(event) = record.get("event").and_then(Json::as_str) else {
                shape.skipped += 1;
                continue;
            };
            let track = get_u64(&record, "track");
            let ts = get_u64(&record, "ts_ns");
            shape.events += 1;
            match event {
                "cycle_begin" => {
                    cycle_open.insert((track, get_u64(&record, "cycle")), ts);
                }
                "cycle_end" => {
                    shape.freed_total += get_u64(&record, "freed");
                    shape.traced_total += get_u64(&record, "traced");
                    if let Some(t0) = cycle_open.remove(&(track, get_u64(&record, "cycle"))) {
                        shape.cycles += 1;
                        cycle_h.record(ts.saturating_sub(t0));
                    }
                }
                "phase_enter" => {
                    if let Some((prev, t0)) = phase_open.remove(&track) {
                        match prev.as_str() {
                            "mark" => mark_h.record(ts.saturating_sub(t0)),
                            "sweep" => sweep_h.record(ts.saturating_sub(t0)),
                            _ => {}
                        }
                    }
                    let phase = get_str(&record, "phase");
                    if phase != "idle" {
                        phase_open.insert(track, (phase.to_owned(), ts));
                    }
                }
                "handshake_begin" => {
                    let ty = get_str(&record, "type").to_owned();
                    hs_open.insert((track, get_u64(&record, "generation")), (ts, ty));
                }
                "handshake_end" => {
                    let key = (track, get_u64(&record, "generation"));
                    if let Some((t0, ty)) = hs_open.remove(&key) {
                        let d = ts.saturating_sub(t0);
                        hs_all.record(d);
                        hs_by_type.entry(ty).or_default().record(d);
                    }
                }
                "barrier_hit" if get_bool(&record, "deletion") => shape.barrier_deletion += 1,
                "barrier_hit" => shape.barrier_insertion += 1,
                "alloc_color" => shape.allocs += 1,
                "mark_cas" if get_bool(&record, "won") => shape.mark_cas_won += 1,
                "mark_cas" => shape.mark_cas_lost += 1,
                "chaos_fired" => shape.chaos_fired += 1,
                "serve_request" => {
                    shape.serve_requests += 1;
                    serve_h.record(get_u64(&record, "latency_us"));
                }
                "level_end" => {
                    shape.checker_levels += 1;
                    let total = get_u64(&record, "states_total");
                    shape.checker_states = shape.checker_states.max(total);
                }
                _ => {
                    shape.events -= 1;
                    shape.skipped += 1;
                }
            }
        }
        if shape.events == 0 {
            return Err(err(None, "no recognizable trace events in input"));
        }
        shape.cycle_ns = Summary::of(&cycle_h);
        shape.mark_ns = Summary::of(&mark_h);
        shape.sweep_ns = Summary::of(&sweep_h);
        shape.serve_latency_us = Summary::of(&serve_h);
        if hs_all.count() > 0 {
            shape
                .handshake_ns
                .insert("all".to_owned(), Summary::of(&hs_all));
        }
        for (ty, h) in hs_by_type {
            shape.handshake_ns.insert(ty, Summary::of(&h));
        }
        Ok(shape)
    }

    /// The shape as JSON (the `base`/`current` sections of the verdict
    /// document).
    pub fn to_json(&self) -> Json {
        let mut hs = Json::obj();
        for (ty, s) in &self.handshake_ns {
            hs = hs.set(ty, s.to_json());
        }
        Json::obj()
            .set("events", self.events)
            .set("skipped", self.skipped)
            .set("cycles", self.cycles)
            .set("cycle_ns", self.cycle_ns.to_json())
            .set("mark_ns", self.mark_ns.to_json())
            .set("sweep_ns", self.sweep_ns.to_json())
            .set("freed_total", self.freed_total)
            .set("traced_total", self.traced_total)
            .set("handshake_ns", hs)
            .set("barrier_insertion", self.barrier_insertion)
            .set("barrier_deletion", self.barrier_deletion)
            .set("allocs", self.allocs)
            .set("mark_cas_won", self.mark_cas_won)
            .set("mark_cas_lost", self.mark_cas_lost)
            .set("chaos_fired", self.chaos_fired)
            .set("serve_requests", self.serve_requests)
            .set("serve_latency_us", self.serve_latency_us.to_json())
            .set("checker_levels", self.checker_levels)
            .set("checker_states", self.checker_states)
    }
}

/// Comparison thresholds: the count window and whether latency gates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Two-sided relative drift tolerated on event counts.
    pub count_rel: f64,
    /// When false (`--shape-only`), latency families are reported but
    /// never gate — counts and presence still do.
    pub check_latency: bool,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            count_rel: 0.5,
            check_latency: true,
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Metric path, e.g. `handshake_ns.all.p99`.
    pub metric: String,
    /// Comparison class: `latency-rel`, `count-rel` or `presence`.
    pub kind: &'static str,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub current: f64,
    /// The measured relative delta.
    pub delta: f64,
    /// The threshold the delta was held against.
    pub threshold: f64,
    /// Whether this finding gates the verdict.
    pub regressed: bool,
}

impl Finding {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("metric", self.metric.as_str())
            .set("kind", self.kind)
            .set("base", Json::Num(self.base))
            .set("current", Json::Num(self.current))
            .set("delta", Json::Num(self.delta))
            .set("threshold", Json::Num(self.threshold))
            .set("regressed", self.regressed)
    }
}

/// The outcome of one diff: every compared metric plus the verdict.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Every comparison made, regressed or not.
    pub findings: Vec<Finding>,
}

impl DiffReport {
    /// True when no finding regressed.
    pub fn clean(&self) -> bool {
        !self.findings.iter().any(|f| f.regressed)
    }

    /// The regressed findings.
    pub fn regressions(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.regressed).collect()
    }

    /// The machine-readable verdict document
    /// (`{"schema":"gc-trace-diff/v1", "verdict": ..., ...}`).
    pub fn to_json(&self, base: &TraceShape, current: &TraceShape, thr: &Thresholds) -> Json {
        Json::obj()
            .set("schema", "gc-trace-diff/v1")
            .set("verdict", if self.clean() { "clean" } else { "regressed" })
            .set("regressions", self.regressions().len())
            .set("comparisons", self.findings.len())
            .set(
                "thresholds",
                Json::obj()
                    .set("latency_rel", Json::Num(LATENCY_REL))
                    .set("latency_floor_ns", Json::Num(LATENCY_FLOOR_NS))
                    .set("count_rel", Json::Num(thr.count_rel))
                    .set("min_count", MIN_COUNT)
                    .set("check_latency", thr.check_latency),
            )
            .set(
                "findings",
                Json::Arr(self.findings.iter().map(Finding::to_json).collect()),
            )
            .set("base", base.to_json())
            .set("current", current.to_json())
    }

    /// A human table: one row per comparison, regressions flagged.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<34} {:>12} {:>12} {:>9} {:>9}  verdict",
            "metric", "base", "current", "delta", "limit"
        );
        let _ = writeln!(out, "{}", "-".repeat(92));
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{:<34} {:>12.1} {:>12.1} {:>8.1}% {:>8.1}%  {}",
                f.metric,
                f.base,
                f.current,
                f.delta * 100.0,
                f.threshold * 100.0,
                if f.regressed { "REGRESSED" } else { "ok" }
            );
        }
        let _ = writeln!(
            out,
            "verdict: {} ({} regression(s) in {} comparison(s))",
            if self.clean() { "clean" } else { "REGRESSED" },
            self.regressions().len(),
            self.findings.len()
        );
        out
    }

    /// Count comparison: two-sided relative drift, plus the presence
    /// check (well-populated in base, gone in current → a regression).
    fn count(&mut self, thr: &Thresholds, metric: &str, b: u64, c: u64) {
        if b < MIN_COUNT {
            return;
        }
        let (kind, delta, threshold) = if c == 0 {
            ("presence", 1.0, 0.0)
        } else {
            let delta = (c as f64 - b as f64).abs() / b as f64;
            ("count-rel", delta, thr.count_rel)
        };
        self.findings.push(Finding {
            metric: metric.to_owned(),
            kind,
            base: b as f64,
            current: c as f64,
            delta,
            threshold,
            regressed: delta > threshold,
        });
    }

    /// Latency comparison: one-sided (slower only), with an absolute
    /// noise floor in the summaries' unit.
    fn latency(&mut self, thr: &Thresholds, floor: f64, metric: &str, b: &Summary, c: &Summary) {
        if b.count < MIN_COUNT || c.count < MIN_COUNT {
            return;
        }
        for (q, b, c) in [
            ("p50", b.p50, c.p50),
            ("p95", b.p95, c.p95),
            ("p99", b.p99, c.p99),
        ] {
            let (b, c) = (b as f64, c as f64);
            let delta = if b > 0.0 { (c - b) / b } else { 0.0 };
            let slow = c - b > floor && delta > LATENCY_REL;
            self.findings.push(Finding {
                metric: format!("{metric}.{q}"),
                kind: "latency-rel",
                base: b,
                current: c,
                delta,
                threshold: LATENCY_REL,
                regressed: thr.check_latency && slow,
            });
        }
    }
}

/// Compares two shapes under `thr`. See the module docs for the
/// comparison classes.
pub fn diff_shapes(base: &TraceShape, current: &TraceShape, thr: &Thresholds) -> DiffReport {
    let mut r = DiffReport::default();
    let barrier_hits = |s: &TraceShape| s.barrier_insertion + s.barrier_deletion;
    r.count(thr, "cycles", base.cycles, current.cycles);
    r.count(
        thr,
        "barrier_hits",
        barrier_hits(base),
        barrier_hits(current),
    );
    r.count(thr, "allocs", base.allocs, current.allocs);
    r.count(
        thr,
        "serve_requests",
        base.serve_requests,
        current.serve_requests,
    );
    r.count(
        thr,
        "checker_levels",
        base.checker_levels,
        current.checker_levels,
    );
    r.count(
        thr,
        "checker_states",
        base.checker_states,
        current.checker_states,
    );
    r.count(thr, "chaos_fired", base.chaos_fired, current.chaos_fired);
    for (ty, b) in &base.handshake_ns {
        let c = current.handshake_ns.get(ty).map_or(0, |s| s.count);
        r.count(thr, &format!("handshake_ns.{ty}.count"), b.count, c);
    }

    let floor = LATENCY_FLOOR_NS;
    r.latency(thr, floor, "cycle_ns", &base.cycle_ns, &current.cycle_ns);
    r.latency(thr, floor, "mark_ns", &base.mark_ns, &current.mark_ns);
    r.latency(thr, floor, "sweep_ns", &base.sweep_ns, &current.sweep_ns);
    for (ty, b) in &base.handshake_ns {
        if let Some(c) = current.handshake_ns.get(ty) {
            r.latency(thr, floor, &format!("handshake_ns.{ty}"), b, c);
        }
    }
    // Serve latencies are recorded in µs; scale the noise floor.
    r.latency(
        thr,
        floor / 1_000.0,
        "serve_latency_us",
        &base.serve_latency_us,
        &current.serve_latency_us,
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic JSONL trace: `n` cycles each with one get-roots
    /// handshake of `hs_ns` latency, plus barrier/alloc instants.
    fn synth(n: u64, hs_ns: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut ts = 1_000u64;
        for cycle in 0..n {
            let _ = writeln!(
                out,
                r#"{{"ts_ns":{ts},"track":1,"track_name":"driver","event":"cycle_begin","cycle":{cycle}}}"#
            );
            let _ = writeln!(
                out,
                r#"{{"ts_ns":{},"track":1,"track_name":"driver","event":"handshake_begin","generation":{cycle},"type":"get-roots"}}"#,
                ts + 10
            );
            let _ = writeln!(
                out,
                r#"{{"ts_ns":{},"track":1,"track_name":"driver","event":"handshake_end","generation":{cycle},"type":"get-roots","outcome":0}}"#,
                ts + 10 + hs_ns
            );
            let _ = writeln!(
                out,
                r#"{{"ts_ns":{},"track":2,"track_name":"m0","event":"barrier_hit","deletion":{}}}"#,
                ts + 20,
                cycle % 3 == 0
            );
            let _ = writeln!(
                out,
                r#"{{"ts_ns":{},"track":2,"track_name":"m0","event":"alloc_color","slot":7,"color":{}}}"#,
                ts + 30,
                cycle % 2 == 0
            );
            let _ = writeln!(
                out,
                r#"{{"ts_ns":{},"track":1,"track_name":"driver","event":"cycle_end","cycle":{cycle},"freed":3,"traced":9}}"#,
                ts + 50_000 + hs_ns
            );
            ts += 100_000;
        }
        out
    }

    #[test]
    fn identical_traces_diff_clean() {
        let text = synth(40, 80_000);
        let a = TraceShape::from_jsonl(&text).unwrap();
        let b = TraceShape::from_jsonl(&text).unwrap();
        assert_eq!(a.cycles, 40);
        assert_eq!(a.handshake_ns["get-roots"].count, 40);
        assert_eq!((a.barrier_deletion, a.barrier_insertion), (14, 26));
        assert_eq!((a.allocs, a.freed_total, a.traced_total), (40, 120, 360));
        let report = diff_shapes(&a, &b, &Thresholds::default());
        assert!(report.clean(), "{}", report.render_table());
        assert!(!report.findings.is_empty());
    }

    #[test]
    fn twenty_percent_handshake_slowdown_regresses() {
        let base = TraceShape::from_jsonl(&synth(40, 100_000)).unwrap();
        let slow = TraceShape::from_jsonl(&synth(40, 120_000)).unwrap();
        let report = diff_shapes(&base, &slow, &Thresholds::default());
        assert!(!report.clean());
        assert!(
            report
                .regressions()
                .iter()
                .any(|f| f.metric.starts_with("handshake_ns.") && f.kind == "latency-rel"),
            "{}",
            report.render_table()
        );
        // Shape-only mode reports but does not gate on it.
        let lenient = Thresholds {
            check_latency: false,
            ..Thresholds::default()
        };
        assert!(diff_shapes(&base, &slow, &lenient).clean());
    }

    #[test]
    fn improvements_do_not_regress() {
        let base = TraceShape::from_jsonl(&synth(40, 100_000)).unwrap();
        let fast = TraceShape::from_jsonl(&synth(40, 50_000)).unwrap();
        assert!(diff_shapes(&base, &fast, &Thresholds::default()).clean());
    }

    #[test]
    fn vanished_family_is_a_presence_regression() {
        let base = TraceShape::from_jsonl(&synth(40, 100_000)).unwrap();
        let mut gutted = base.clone();
        gutted.barrier_insertion = 0;
        gutted.barrier_deletion = 0;
        let lenient = Thresholds {
            check_latency: false,
            count_rel: 99.0,
        };
        let report = diff_shapes(&base, &gutted, &lenient);
        assert!(report
            .regressions()
            .iter()
            .any(|f| f.metric == "barrier_hits" && f.kind == "presence"));
    }

    #[test]
    fn corrupt_jsonl_is_a_structured_error() {
        let mut text = synth(4, 1_000);
        text.push_str("{\"ts_ns\":12, truncated-mid-rec");
        let e = TraceShape::from_jsonl(&text).unwrap_err();
        assert_eq!(e.line, Some(25));
        assert!(e.message.contains("corrupt"), "{e}");
        let e2 = TraceShape::from_jsonl("not json at all\n").unwrap_err();
        assert_eq!(e2.line, Some(1));
        assert!(TraceShape::from_jsonl("").is_err());
        let e3 = TraceShape::from_jsonl("{\"traceEvents\":[]}\n").unwrap_err();
        assert!(e3.message.contains("Chrome"), "{e3}");
    }

    #[test]
    fn footer_and_unknown_records_are_skipped() {
        let mut text = synth(10, 1_000);
        text.push_str("{\"trace_footer\":true,\"events\":60,\"dropped\":0,\"drains\":1}\n");
        text.push_str("{\"ts_ns\":5,\"track\":1,\"event\":\"pool_refill\",\"got\":4}\n");
        let shape = TraceShape::from_jsonl(&text).unwrap();
        assert_eq!(shape.cycles, 10);
        assert_eq!(shape.skipped, 2);
    }

    #[test]
    fn verdict_document_shape() {
        let a = TraceShape::from_jsonl(&synth(20, 10_000)).unwrap();
        let report = diff_shapes(&a, &a, &Thresholds::default());
        let doc = report.to_json(&a, &a, &Thresholds::default());
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("gc-trace-diff/v1")
        );
        assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("clean"));
        assert!(doc.get("findings").and_then(Json::as_arr).is_some());
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    }
}
