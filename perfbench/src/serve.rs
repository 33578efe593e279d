//! The `serve` workload: the `gc-serve` robust arm in the
//! `ServeConfig::quick` shape on the segmented layout, two workers, no
//! chaos storm. An open loop: one producer offers 8-request bursts every
//! 500 µs over 320 Zipf-0.3 sessions. A run is a sequence of `run_serve`
//! chunks, each with its own seed drawn from the workload seed.

use std::time::{Duration, Instant};

use gc_serve::{run_serve, ServeConfig, ServeReport};
use gc_trace::Registry;
use otf_gc::{Collector, HeapLayout};

use crate::report::{overhead_share, RunResult};
use crate::stats::{histogram_quantile, median, ratio, SetupTimes};

/// Requests offered per `run_serve` chunk (about 0.7 s). Chunk latency
/// quantiles swing with the collector's pacing, so a run takes many short
/// chunks and reports the median chunk.
const CHUNK_REQUESTS: u64 = 10_000;

/// The configuration of chunk `chunk` of a run seeded with `seed`.
fn config(seed: u64, chunk: u64) -> ServeConfig {
    let mut cfg = ServeConfig::quick(HeapLayout::segmented_default(256));
    cfg.workers = crate::host::nproc().min(2);
    cfg.requests = CHUNK_REQUESTS;
    cfg.seed = splitmix(seed ^ splitmix(chunk));
    cfg
}

/// One SplitMix64 step: decorrelates chunk seeds from the run seed.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The arrival rate the producer is scheduled to offer, requests/s.
fn scheduled_rps(cfg: &ServeConfig) -> f64 {
    cfg.burst as f64 / cfg.arrival_pause.as_secs_f64()
}

/// One `run_serve` chunk: its report and the served-request latency
/// quantiles, interpolated from the registry's histogram (ms).
struct Chunk {
    report: ServeReport,
    p50_ms: f64,
    p99_ms: f64,
}

/// The chunks of one pass.
struct Pass {
    chunks: Vec<Chunk>,
}

impl Pass {
    fn sum(&self, f: impl Fn(&ServeReport) -> u64) -> u64 {
        self.chunks.iter().map(|c| f(&c.report)).sum()
    }

    fn wall_s(&self) -> f64 {
        self.sum(|r| r.wall_ns) as f64 / 1e9
    }

    fn goodput_rps(&self) -> f64 {
        ratio(self.sum(|r| r.ok) as f64, self.wall_s())
    }

    fn share(&self, f: impl Fn(&ServeReport) -> u64) -> f64 {
        ratio(self.sum(f) as f64, self.sum(|r| r.requests) as f64)
    }

    /// The median over chunks of a per-chunk figure.
    fn chunk_median(&self, f: impl Fn(&Chunk) -> f64) -> f64 {
        median(&self.chunks.iter().map(f).collect::<Vec<_>>())
    }
}

/// The set-up `run_serve` performs before its first request: the
/// configuration, its derived collector configuration, a registry and the
/// collector. `run_serve` builds its own collector, so callers drop the
/// one built here unused.
fn set_up(seed: u64, chunk: u64) -> (ServeConfig, Registry, Collector) {
    let cfg = config(seed, chunk);
    let collector = Collector::new(cfg.gc_config());
    (cfg, Registry::new(), collector)
}

/// Runs chunks until `budget` has elapsed (at least one), numbering them
/// from `first_chunk`, each after a set-up slice, and gates every report.
fn pass(
    seed: u64,
    first_chunk: u64,
    budget: Duration,
    result: &mut RunResult,
    setup: &mut SetupTimes,
) -> Pass {
    let start = Instant::now();
    let mut chunks = Vec::new();
    for chunk in first_chunk.. {
        let (cfg, registry, collector) = setup.slice(|| set_up(seed, chunk));
        drop(collector);
        let report = run_serve(&cfg, &registry);
        gate(result, &cfg, &report);
        let latency = registry.histogram("serve_latency_ns");
        chunks.push(Chunk {
            report,
            p50_ms: histogram_quantile(&latency, 0.50) / 1e6,
            p99_ms: histogram_quantile(&latency, 0.99) / 1e6,
        });
        if start.elapsed() >= budget {
            break;
        }
    }
    setup.slice(|| set_up(seed, 0));
    Pass { chunks }
}

/// Gates one chunk: the recovery oracle holds, every offered request is
/// accounted for, and none errored.
fn gate(result: &mut RunResult, cfg: &ServeConfig, r: &ServeReport) {
    result.attempted += r.requests;
    let accounted = r.ok + r.shed + r.rejected + r.timeouts + r.errors;
    if r.requests != cfg.requests || accounted != r.requests {
        result.fail(
            r.requests.abs_diff(accounted).max(1),
            format!(
                "accounting: {} offered of {}, {accounted} accounted",
                r.requests, cfg.requests
            ),
        );
    }
    if r.errors > 0 {
        result.fail(r.errors, format!("{} requests errored", r.errors));
    }
    if !r.is_healthy() {
        result.fail(1, format!("unhealthy: {}", r.violations.join("; ")));
    }
}

fn note_counters(result: &mut RunResult, p: &Pass) {
    result.note("chunks", p.chunks.len());
    result.note("requests", p.sum(|r| r.requests));
    result.note("ok", p.sum(|r| r.ok));
    result.note("shed", p.sum(|r| r.shed));
    result.note("rejected", p.sum(|r| r.rejected));
    result.note("timeouts", p.sum(|r| r.timeouts));
    result.note("cycles", p.sum(|r| r.cycles));
    result.note("sessions_created", p.sum(|r| r.sessions_created));
    result.note("wall_s", p.wall_s());
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    let mut setup = SetupTimes::default();
    let budget = Duration::from_secs_f64(seconds);
    let p = pass(seed, 0, budget, &mut result, &mut setup);
    result.metric("setup_s", setup.median_s());
    result.metric("work_per_s", p.goodput_rps());
    result.metric("lat_p50_ms", p.chunk_median(|c| c.p50_ms));
    result.metric("lat_p99_ms", p.chunk_median(|c| c.p99_ms));
    result.metric("ok_share", p.share(|r| r.ok));
    result.metric("peak_rss_mb", crate::host::peak_rss_mb());
    note_counters(&mut result, &p);
    result.note("setup_builds", setup.builds());
    result
}

/// The traced run: half the budget untraced, half reading the per-layer
/// figures from each chunk's `ServeReport`. `run_serve` exposes no
/// collector or mutator, so `core.*` figures are not measured here.
pub fn run_traced(seed: u64, seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    let half = Duration::from_secs_f64(seconds / 2.0);
    let mut setup = SetupTimes::default();
    let untraced = pass(seed, 0, half, &mut result, &mut setup);
    let first = untraced.chunks.len() as u64;
    let p = pass(seed, first, half, &mut result, &mut setup);
    let offered_rps = ratio(p.sum(|r| r.requests) as f64, p.wall_s());
    let scheduled = scheduled_rps(&config(seed, 0));
    result.metric(
        "serve.alloc_stall_p99_ms",
        p.chunk_median(|c| c.report.alloc_stall_p99_ns as f64 / 1e6),
    );
    result.metric("serve.shed_share", p.share(|r| r.shed));
    result.metric("serve.rejected_share", p.share(|r| r.rejected));
    result.metric(
        "serve.end_occupancy_permille",
        p.chunk_median(|c| f64::from(c.report.final_occupancy_permille)),
    );
    result.metric("serve.cycles", p.chunk_median(|c| c.report.cycles as f64));
    result.metric("serve.offered_rps", offered_rps);
    result.metric("serve.gen_lag_share", 1.0 - ratio(offered_rps, scheduled));
    result.metric(
        "trace.overhead_share",
        overhead_share(untraced.goodput_rps(), p.goodput_rps()),
    );
    note_counters(&mut result, &p);
    result.note("scheduled_rps", scheduled);
    result.note("untraced_goodput_rps", untraced.goodput_rps());
    result.note("traced_goodput_rps", p.goodput_rps());
    result
}
