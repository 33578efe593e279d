//! Parallel-checker comparison: the fig3 configuration (1 mutator, 2 heap
//! slots, full invariant suite, hash-compact) explored by the
//! level-synchronous BFS at 1, 2 and 4 worker threads.
//!
//! The run asserts the tentpole guarantee — identical state counts,
//! transition counts, depths and verdicts at every thread count — and
//! reports the wall-clock ratio against the sequential run. The speedup is
//! only meaningful on a multi-core host (the harness prints the machine's
//! available parallelism so the record is interpretable).
//!
//! Usage: `parallel_speedup [max_states] [thread-list]`, e.g.
//! `parallel_speedup 5000000 1,2,4`.

use gc_bench::{bounded_config, check_config_opts, print_table, report_json, CheckReport, Suite};
use gc_model::ModelConfig;
use gc_trace::{write_bench_record, Json};
use mc::Strategy;

/// Upper bound, in nanoseconds, on one runtime-disabled `gc_trace::emit`
/// call. The real cost is one relaxed atomic load (sub-nanosecond on any
/// modern core); the bound is two orders of magnitude looser so it only
/// trips on a genuine fast-path regression, never on a noisy CI host.
const DISABLED_EMIT_BUDGET_NS: f64 = 100.0;

/// Measures the per-site cost of `gc_trace::emit` with tracing
/// runtime-disabled — the state every instrumented hot path runs in unless
/// someone calls `gc_trace::enable()`.
fn disabled_emit_ns_per_site() -> f64 {
    gc_trace::disable();
    const N: u64 = 4_000_000;
    // Warm-up (first touch of the thread-local track registration).
    for i in 0..1_000u64 {
        gc_trace::emit(gc_trace::EventKind::Instant {
            id: 0,
            value: std::hint::black_box(i),
        });
    }
    let t0 = std::time::Instant::now();
    for i in 0..N {
        gc_trace::emit(gc_trace::EventKind::Instant {
            id: 0,
            value: std::hint::black_box(i),
        });
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

fn main() {
    let max: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000_000);
    let threads: Vec<usize> = std::env::args()
        .nth(2)
        .map(|s| {
            s.split(',')
                .map(|t| t.parse().expect("thread counts are integers"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4]);

    let cfg = ModelConfig::small(1, 2);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("parallel frontier exploration, fig3 configuration (1 mutator, 2 slots, full suite)");
    println!("host parallelism: {cores} core(s)\n");

    let reports: Vec<CheckReport> = threads
        .iter()
        .map(|&t| {
            check_config_opts(
                format!("1 mutator, 2 slots, {t} thread(s)"),
                &cfg,
                Suite::Full.properties(&cfg),
                bounded_config(max),
                Strategy::Bfs { threads: t },
            )
        })
        .collect();

    print_table(&reports);

    let base = &reports[0];
    println!();
    let mut rows: Vec<Json> = Vec::new();
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(
            r.states, base.states,
            "state counts must be thread-invariant"
        );
        assert_eq!(
            r.transitions, base.transitions,
            "transition counts must be thread-invariant"
        );
        assert_eq!(r.depth, base.depth, "depth must be thread-invariant");
        assert_eq!(r.outcome, base.outcome, "verdicts must be thread-invariant");
        let speedup = base.elapsed.as_secs_f64() / r.elapsed.as_secs_f64();
        println!("{:<44} speedup vs sequential: {speedup:>5.2}x", r.label);
        rows.push(
            report_json(r)
                .set("threads", Json::from(threads[i]))
                .set("speedup", Json::from(speedup)),
        );
    }
    println!("\nall thread counts agree on states, transitions, depth and verdict.");

    // The checker's instrumentation must be free when tracing is off: the
    // runtime-disabled `emit` fast path is a single relaxed load.
    let per_site = disabled_emit_ns_per_site();
    println!("\nruntime-disabled trace emit: {per_site:.2} ns/site (budget {DISABLED_EMIT_BUDGET_NS} ns)");
    assert!(
        per_site < DISABLED_EMIT_BUDGET_NS,
        "runtime-disabled trace emit costs {per_site:.2} ns/site, \
         budget is {DISABLED_EMIT_BUDGET_NS} ns"
    );

    let record = gc_trace::bench_record(
        "parallel_speedup",
        &[
            ("max_states", Json::from(max)),
            (
                "threads",
                Json::Arr(threads.iter().map(|&t| Json::from(t)).collect()),
            ),
            ("host_parallelism", Json::from(cores)),
        ],
        &[
            ("runs", Json::Arr(rows)),
            ("disabled_emit_ns_per_site", Json::from(per_site)),
        ],
        None,
    );
    match write_bench_record("parallel_speedup", &record) {
        Ok(path) => println!("bench record -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write bench record: {e}"),
    }
}
