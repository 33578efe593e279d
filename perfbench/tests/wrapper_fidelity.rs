//! The traced run measures the same program: checking through
//! `TimedModel` and timed properties gives the same verdict, statistics
//! and formatted counterexample as checking bare `GcModel`, at 1 and 2 BFS
//! threads, with the traced run's telemetry registry and a frontier spill
//! small enough to exercise the state codec.

use std::sync::Arc;

use gc_model::invariants::combined_property;
use gc_model::{GcModel, InitialHeap, ModelConfig};
use gc_trace::Registry;
use mc::{Checker, CheckerConfig, Outcome, Reduction, Strategy, TransitionSystem};
use perfbench::timed::{timed_properties, Hook, TimedModel};

fn config() -> CheckerConfig {
    CheckerConfig {
        hash_compact: true,
        spill_threshold: Some(8),
        ..CheckerConfig::default()
    }
    .reduction(Reduction::all())
}

/// Verdict, statistics and the counterexample rendered by `GcModel`.
fn summary<TS: TransitionSystem<Action = gc_model::ModelEvent>>(
    model: &GcModel,
    outcome: &Outcome<TS>,
) -> String {
    outcome.report_with(|trace| model.format_trace(&trace.actions))
}

/// Checks `cfg` bare and wrapped at `threads` BFS threads, asserts the
/// reports match, and returns the bare report.
fn same_report(cfg: &ModelConfig, threads: usize) -> String {
    let model = GcModel::new(cfg.clone());
    let strategy = Strategy::Bfs { threads };
    let bare = Checker::with_config(config())
        .strategy(strategy)
        .property(combined_property(cfg))
        .run(&model);

    let registry = Arc::new(Registry::new());
    let props = Arc::new(Hook::default());
    let mut checker = Checker::with_config(config().metrics(registry)).strategy(strategy);
    for p in timed_properties(vec![combined_property(cfg)], &props) {
        checker = checker.property(p);
    }
    let timed = TimedModel::new(&model, Reduction::all());
    let wrapped = checker.run(&timed);

    let expected = summary(&model, &bare);
    assert_eq!(summary(&model, &wrapped), expected, "threads {threads}");
    assert_eq!(wrapped.stats(), bare.stats());
    assert!(timed.expand.calls() > 0 && timed.canon.calls() > 0);
    assert!(timed.encode.calls() > 0 && timed.decode.calls() > 0);
    assert!(props.calls() > 0);
    expected
}

#[test]
fn faithful_instance_verifies_identically() {
    let mut cfg = ModelConfig::small(1, 2);
    cfg.ops.alloc = false;
    cfg.ops.load = false;
    for threads in [1, 2] {
        let report = same_report(&cfg, threads);
        assert!(report.starts_with("verdict: VERIFIED"), "{report}");
    }
}

#[test]
fn no_deletion_barrier_is_violated_identically() {
    // The `ablate_barriers` A2 instance: Figure 1's chain heap without the
    // deletion barrier.
    let mut cfg = ModelConfig::small(1, 3);
    cfg.deletion_barrier = false;
    cfg.initial = InitialHeap::chain(1, 2, 1);
    cfg.ops.alloc = false;
    for threads in [1, 2] {
        let report = same_report(&cfg, threads);
        assert!(report.starts_with("verdict: VIOLATED"), "{report}");
        assert!(report.contains("depth: 38"), "{report}");
    }
}
