//! **State-space reduction** — measures what each reduction technique in
//! `mc` + `gc-model` buys on the flagship configurations, and checks the
//! techniques change *state counts only*: every run of every instance must
//! produce the same verdict as the unreduced baseline.
//!
//! Three techniques (see `DESIGN.md` §2.13 for soundness):
//!
//! * `por` — ample-set partial-order reduction over certified invisible
//!   process-local steps;
//! * `symmetry` — canonicalization under mutator permutation (only honoured
//!   on symmetric configurations);
//! * `sb_canon` — adjacent-duplicate store-buffer coalescing.
//!
//! The final section is the memory-budget acceptance gate: a two-mutator
//! instance with a real (4-slot) heap under allocation + root-discard
//! churn must run to exhaustion (VERIFIED, not bounded) with all
//! reductions on and the disk-spill frontier engaged, so the BFS
//! wave-front never has to be memory-resident.
//!
//! Every run shares one metrics [`Registry`] wired into the checker
//! ([`CheckerConfig::metrics`]): BFS progress gauges (`mc_states_total`,
//! `mc_states_per_sec`, `mc_bfs_level`, `mc_frontier_len`), disk-spill
//! counters (`mc_spill_bytes_written_total`, `mc_spill_bytes_read_total`,
//! `mc_spill_frontier_bytes`) and per-technique
//! `mc_reduction_hits_total{technique=...}` counters. The snapshot lands
//! in `BENCH_reduction.json`'s `metrics` section; `--metrics-addr ADDR`
//! additionally serves it live over HTTP (`/metrics`, `/metrics.json`,
//! `/healthz` keyed to `mc_states_total` progress).
//!
//! Usage: `reduction [max_states] [--ci] [--metrics-addr ADDR]` (default
//! 5 million; `--ci` trims the sweep to pull-request size).

use std::sync::Arc;
use std::time::Duration;

use gc_bench::{check_config_opts, print_table, report_json, Suite};
use gc_model::{InitialHeap, ModelConfig};
use gc_trace::{Json, Liveness, MetricsServer, Registry};
use mc::{CheckerConfig, Reduction, Strategy};

/// The reduction combinations measured per instance, in report order.
const COMBOS: [(&str, Reduction); 5] = [
    (
        "none",
        Reduction {
            por: false,
            symmetry: false,
            sb_canon: false,
        },
    ),
    (
        "por",
        Reduction {
            por: true,
            symmetry: false,
            sb_canon: false,
        },
    ),
    (
        "symmetry",
        Reduction {
            por: false,
            symmetry: true,
            sb_canon: false,
        },
    ),
    (
        "sb_canon",
        Reduction {
            por: false,
            symmetry: false,
            sb_canon: true,
        },
    ),
    (
        "por+symmetry+sb_canon",
        Reduction {
            por: true,
            symmetry: true,
            sb_canon: true,
        },
    ),
];

fn config(max_states: usize, reduction: Reduction, registry: &Arc<Registry>) -> CheckerConfig {
    CheckerConfig {
        max_states,
        hash_compact: true,
        ..CheckerConfig::default()
    }
    .reduction(reduction)
    .metrics(Arc::clone(registry))
}

/// Checks `cfg` under every reduction combination, asserts verdict
/// equality, and prints the table. Returns `(combo label, reduction,
/// report)` per combination, in [`COMBOS`] order.
fn sweep(
    name: &str,
    cfg: &ModelConfig,
    max_states: usize,
    registry: &Arc<Registry>,
) -> Vec<(&'static str, Reduction, gc_bench::CheckReport)> {
    let mut reports = Vec::new();
    for (label, reduction) in COMBOS {
        let report = check_config_opts(
            format!("{name} [{label}]"),
            cfg,
            Suite::Full.properties(cfg),
            config(max_states, reduction, registry),
            Strategy::default(),
        );
        reports.push((label, reduction, report));
    }
    print_table(
        &reports
            .iter()
            .map(|(_, _, r)| r.clone())
            .collect::<Vec<_>>(),
    );

    let baseline = &reports[0].2;
    for (_, _, report) in &reports[1..] {
        assert_eq!(
            report.outcome, baseline.outcome,
            "reductions must not change the verdict ({name}: {} vs {})",
            report.outcome, baseline.outcome
        );
        assert_eq!(
            report.trace, baseline.trace,
            "reductions must not change the counterexample trace ({name})"
        );
    }
    let all = &reports.last().expect("combos nonempty").2;
    if baseline.verified() && all.verified() {
        println!(
            "  → {:.1}x state reduction (all on: {} vs none: {})\n",
            baseline.states as f64 / all.states.max(1) as f64,
            all.states,
            baseline.states
        );
    } else {
        println!();
    }

    reports
}

/// A sweep row as a flat JSON object.
fn row_json(label: &str, reduction: Reduction, report: &gc_bench::CheckReport) -> Json {
    report_json(report)
        .set("combo", label)
        .set("por", reduction.por)
        .set("symmetry", reduction.symmetry)
        .set("sb_canon", reduction.sb_canon)
}

fn main() {
    let mut max: usize = 5_000_000;
    let mut ci = false;
    let mut metrics_addr: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ci" => {
                ci = true;
                i += 1;
            }
            "--metrics-addr" => {
                metrics_addr = Some(
                    args.get(i + 1)
                        .expect("--metrics-addr needs a value")
                        .clone(),
                );
                i += 2;
            }
            other => {
                max = other.parse().unwrap_or_else(|_| {
                    panic!("unknown argument: {other} (see the module docs for usage)")
                });
                i += 1;
            }
        }
    }

    // One registry for every run: the checker's telemetry accumulates
    // across the sweep, the scrape endpoint (if any) serves it live, and
    // the final snapshot lands in the BENCH record.
    let registry = Arc::new(Registry::new());
    let server = metrics_addr.map(|addr| {
        let live = Liveness::watch(
            Arc::clone(&registry),
            "mc_states_total",
            Duration::from_secs(10),
        );
        let s = MetricsServer::spawn(&addr, Arc::clone(&registry), Some(live))
            .unwrap_or_else(|e| panic!("cannot bind {addr}: {e}"));
        println!("metrics: http://{}/metrics", s.local_addr());
        s
    });

    let mut rows = Vec::new();

    // The flagship symmetric instance: two mutators contending on one
    // shared object, with deep (6-entry) store buffers — the closest
    // bounded approximation of the paper's unbounded x86-TSO FIFOs that
    // still terminates unreduced, and the instance the ≥10x acceptance
    // gate is measured on. The ratio grows with buffer depth because
    // `sb_canon` collapses redundant buffered-duplicate interleavings:
    // the fully-reduced state count is *identical* from `buffer_cap` 2
    // through 6 while the unreduced count grows ~5x.
    // `--ci` trims the sweep for a pull-request-sized runner: shallower
    // flagship buffers (the fully-reduced count is the same either way)
    // and no 1-mutator sweep. The committed EXPERIMENTS.md numbers come
    // from the full run.
    let mut flagship = ModelConfig::small(2, 2);
    flagship.initial = InitialHeap::shared_object(2, 1);
    flagship.ops.alloc = false;
    flagship.buffer_cap = if ci { 3 } else { 6 };
    println!(
        "flagship: 2 mutators, shared object, no alloc, buffer_cap={}",
        flagship.buffer_cap
    );
    let flagship_runs = sweep("2mut shared", &flagship, max, &registry);
    let ratio = flagship_runs[0].2.states as f64
        / flagship_runs
            .last()
            .expect("combos nonempty")
            .2
            .states
            .max(1) as f64;
    rows.extend(
        flagship_runs
            .iter()
            .map(|(label, reduction, report)| row_json(label, *reduction, report)),
    );

    // The smallest faithful instance (1 mutator: por + sb_canon only;
    // symmetry needs ≥ 2 mutators and is a requested-but-inert flag here).
    if !ci {
        println!("smallest faithful instance: 1 mutator, 2 slots, all ops");
        rows.extend(
            sweep("1mut all-ops", &ModelConfig::small(1, 2), max, &registry)
                .iter()
                .map(|(label, reduction, report)| row_json(label, *reduction, report)),
        );
    }

    // The memory-budget gate: a two-mutator instance with a real heap —
    // 4 slots, a shared object, and allocation + root-discard churn
    // against the concurrent marker. With every reduction on and the
    // disk-spill frontier engaged (20k-entry levels stream to disk
    // through the state codec) the search runs to exhaustion with the
    // wave-front never resident in memory, which is the acceptance gate:
    // the run must VERIFY, not merely stay unviolated within a bound.
    // (Enabling shared-object *stores* as well pushes past 4M states
    // even fully reduced — that frontier is the open scale boundary;
    // see EXPERIMENTS.md.)
    println!("2 mutators, 4 slots, alloc+discard churn — all reductions + disk spill");
    let heap_cfg = {
        let mut c = ModelConfig::small(2, 4);
        c.initial = InitialHeap::shared_object(2, 1);
        c.ops.load = false;
        c.ops.store = false;
        c
    };
    let mut spill_config = config(max, Reduction::all(), &registry);
    spill_config.spill_threshold = Some(20_000);
    let heap_report = check_config_opts(
        "2mut 4-slot heap [all+spill]",
        &heap_cfg,
        Suite::Full.properties(&heap_cfg),
        spill_config,
        Strategy::default(),
    );
    print_table(std::slice::from_ref(&heap_report));
    assert!(
        heap_report.verified(),
        "heap-gate instance must complete and verify, got {}",
        heap_report.outcome
    );
    rows.push(
        report_json(&heap_report)
            .set("combo", "por+symmetry+sb_canon")
            .set("por", true)
            .set("symmetry", true)
            .set("sb_canon", true)
            .set("spill_threshold", 20_000u64),
    );

    // The unreduced comparison row for the same instance (skipped in CI:
    // the artifact diff wants the gate, not the control).
    if !ci {
        let mut none_spill = config(max, Reduction::default(), &registry);
        none_spill.spill_threshold = Some(20_000);
        let heap_none = check_config_opts(
            "2mut 4-slot heap [none+spill]",
            &heap_cfg,
            Suite::Full.properties(&heap_cfg),
            none_spill,
            Strategy::default(),
        );
        print_table(std::slice::from_ref(&heap_none));
        assert_eq!(
            heap_none.outcome, heap_report.outcome,
            "reductions must not change the heap-gate verdict"
        );
        rows.push(
            report_json(&heap_none)
                .set("combo", "none")
                .set("por", false)
                .set("symmetry", false)
                .set("sb_canon", false)
                .set("spill_threshold", 20_000u64),
        );
    }

    println!("\nflagship reduction (all on vs none): {ratio:.1}x");

    let record = gc_trace::bench_record(
        "reduction",
        &[("max_states", Json::from(max as u64))],
        &[
            ("runs", Json::from(rows)),
            ("flagship_reduction_x", Json::from(ratio)),
        ],
        Some(&registry),
    );
    match gc_trace::write_bench_record("reduction", &record) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_reduction.json: {e}"),
    }
    if let Some(server) = server {
        server.shutdown();
    }
}
