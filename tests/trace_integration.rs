//! Integration tests for the observability stack (`gc-trace`, DESIGN.md
//! §2.10, §2.14): the instrumented collector and checker feeding the
//! tracer, the Chrome trace-event exporter round-trip, the runtime-disable
//! fast path, and the metrics registry fed from real collector counters.
//!
//! This file is also the trace gate. Each traced run's JSONL goes through
//! `TraceShape::from_jsonl`, the parser `gc-trace diff` uses, and every
//! count it extracts must equal the run's own counters exactly: a parser
//! that stops recognising an event family, or an emission site that goes
//! missing, fails here.

use std::sync::{Mutex, MutexGuard, PoisonError};

use relaxing_safely::gc::{Collector, GcConfig, HeapLayout};
use relaxing_safely::mc::{Checker, CheckerConfig, Strategy};
use relaxing_safely::model::invariants::combined_property;
use relaxing_safely::model::{GcModel, ModelConfig};
use relaxing_safely::trace::chrome::{chrome_trace, jsonl, validate_chrome_trace};
use relaxing_safely::trace::{EventKind, Json, Registry, TraceShape, Tracer, TrackDump};
use relaxing_safely::tso::MemoryModel;

/// The tracer is process-global; tests that enable/drain it must not
/// interleave.
static TRACER: Mutex<()> = Mutex::new(());

/// Takes [`TRACER`], ignoring poison so one failing test does not fail
/// the others.
fn tracer_lock() -> MutexGuard<'static, ()> {
    TRACER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the churn loop did, counted by the loop itself.
#[derive(Debug, Default)]
struct Tally {
    /// Successful `alloc` calls.
    allocs: u64,
    /// Stores of a non-null reference (insertion-barrier hits).
    insertions: u64,
    /// Stores over a non-null field (deletion-barrier hits).
    deletions: u64,
}

/// Runs a small collector workload (one mutator churning a list) for at
/// least `cycles` completed cycles.
fn run_collector_with(cycles: u64, layout: HeapLayout) -> (Collector, Tally) {
    let collector = Collector::new(
        GcConfig::builder()
            .capacity(256)
            .max_fields(2)
            .layout(layout)
            .build(),
    );
    let mut m = collector.register_mutator();
    let anchor = m.alloc(2).expect("fresh heap has room");
    let mut tally = Tally {
        allocs: 1,
        ..Tally::default()
    };
    let mut anchor_set = false;
    collector.start();
    let target = collector.stats().cycles() + cycles;
    let mut op = 0usize;
    while collector.stats().cycles() < target {
        m.safepoint();
        if let Ok(node) = m.alloc(2) {
            tally.allocs += 1;
            let old = m.load(anchor, 0);
            // `node` is fresh, so only a non-null `old` hits a barrier.
            m.store(node, 0, old);
            m.store(anchor, 0, Some(node));
            tally.insertions += 1 + u64::from(old.is_some());
            tally.deletions += u64::from(old.is_some());
            anchor_set = true;
            if let Some(o) = old {
                m.discard(o);
            }
            m.discard(node);
        }
        if op.is_multiple_of(32) {
            m.store(anchor, 0, None);
            tally.deletions += u64::from(anchor_set);
            anchor_set = false;
        }
        op += 1;
    }
    // With the only mutator gone no handshake can be stopped, so `stop`
    // lets the cycle in flight complete: no aborted cycle is traced.
    drop(m);
    collector.stop();
    (collector, tally)
}

fn run_collector(cycles: u64) -> (Collector, Tally) {
    run_collector_with(cycles, HeapLayout::Slab)
}

/// Ingests a drained run through the JSONL path `gc-trace diff` reads,
/// after checking that no ring dropped an event (with drops, every exact
/// count below would only be a lower bound).
fn shape_of(dumps: &[TrackDump]) -> TraceShape {
    for d in dumps {
        assert_eq!(d.dropped, 0, "track `{}` dropped events", d.name);
    }
    TraceShape::from_jsonl(&jsonl(dumps)).expect("the run's JSONL ingests")
}

/// Holds every count extracted from the trace to the run's own counters.
fn assert_trace_matches_run(shape: &TraceShape, collector: &Collector, tally: &Tally) {
    let stats = collector.stats();
    let history = stats.history();
    let cycles = stats.cycles();
    assert_eq!(history.len() as u64, cycles, "one history record per cycle");
    let handshakes = |ty: &str| shape.handshake_ns.get(ty).map_or(0, |s| s.count);
    let work_rounds: u64 = history.iter().map(|c| c.work_rounds as u64).sum();
    let traced: u64 = history.iter().map(|c| c.traced as u64).sum();
    let exact = [
        ("cycles", shape.cycles, cycles),
        ("cycle spans", shape.cycle_ns.count, cycles),
        ("mark phases", shape.mark_ns.count, cycles),
        ("sweep phases", shape.sweep_ns.count, cycles),
        // Fig. 2: four noop rounds and one get-roots round per cycle,
        // then get-work rounds until no grey work remains.
        ("noop handshakes", handshakes("noop"), 4 * cycles),
        ("get-roots handshakes", handshakes("get-roots"), cycles),
        ("get-work handshakes", handshakes("get-work"), work_rounds),
        ("handshakes", handshakes("all"), stats.handshakes()),
        ("freed", shape.freed_total, stats.freed()),
        ("traced", shape.traced_total, traced),
        ("allocs", shape.allocs, tally.allocs),
        ("allocs counted by GcStats", stats.allocated(), tally.allocs),
        ("insertions", shape.barrier_insertion, tally.insertions),
        ("deletions", shape.barrier_deletion, tally.deletions),
        ("CASes won", shape.mark_cas_won, stats.barrier_cas_won()),
        ("CASes lost", shape.mark_cas_lost, stats.barrier_cas_lost()),
    ];
    for (what, from_trace, from_run) in exact {
        assert_eq!(from_trace, from_run, "{what}: trace vs run");
    }
}

#[test]
fn disabled_tracer_records_nothing() {
    let _guard = tracer_lock();
    relaxing_safely::trace::disable();
    let _ = Tracer::global().drain(); // flush anything left behind
    for i in 0..1_000u64 {
        relaxing_safely::trace::emit(EventKind::Instant { id: 9, value: i });
    }
    let events: usize = Tracer::global()
        .drain()
        .iter()
        .map(|d| d.events.len())
        .sum();
    assert_eq!(events, 0, "runtime-disabled emit must record nothing");
}

#[test]
fn collector_events_export_as_nested_chrome_spans() {
    let _guard = tracer_lock();
    let _ = Tracer::global().drain();
    relaxing_safely::trace::enable();
    let (collector, tally) = run_collector(3);
    relaxing_safely::trace::disable();
    let dumps = Tracer::global().drain();
    assert_trace_matches_run(&shape_of(&dumps), &collector, &tally);

    // The raw stream carries the typed runtime vocabulary.
    let kinds: Vec<&'static str> = dumps
        .iter()
        .flat_map(|d| d.events.iter().map(|e| e.kind.name()))
        .collect();
    for expected in [
        "cycle_begin",
        "cycle_end",
        "phase_enter",
        "handshake_begin",
        "handshake_end",
        "barrier_hit",
        "alloc_color",
    ] {
        assert!(
            kinds.contains(&expected),
            "instrumented run must emit {expected}; got kinds {:?}",
            {
                let mut uniq = kinds.clone();
                uniq.sort_unstable();
                uniq.dedup();
                uniq
            }
        );
    }

    // The Chrome export validates and nests phases under cycle spans.
    let doc = chrome_trace(&dumps);
    let summary = validate_chrome_trace(&doc).expect("generated trace must validate");
    assert!(summary.spans > 0, "cycles must export as spans");
    assert!(summary.tracks >= 2, "collector + mutator tracks");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(
        names.iter().any(|n| n.starts_with("cycle ")),
        "span names: {names:?}"
    );
    for phase in ["mark", "sweep"] {
        assert!(
            names.contains(&phase),
            "phase `{phase}` must open a nested span; got {names:?}"
        );
    }
    let cycle_pos = names.iter().position(|n| n.starts_with("cycle ")).unwrap();
    let mark_pos = names.iter().position(|n| *n == "mark").unwrap();
    assert!(
        cycle_pos < mark_pos,
        "the first cycle span must open before the first mark span"
    );

    // And the run itself was a real collection workload.
    assert!(collector.stats().cycles() >= 3);
    assert!(collector.stats().freed() > 0);
}

#[test]
fn segmented_layout_emits_the_allocation_event_vocabulary() {
    let _guard = tracer_lock();
    let _ = Tracer::global().drain();
    relaxing_safely::trace::enable();
    let (collector, tally) = run_collector_with(
        3,
        HeapLayout::Segmented {
            segment_slots: 32,
            tlab_slots: 8,
        },
    );
    relaxing_safely::trace::disable();
    let dumps = Tracer::global().drain();
    assert_trace_matches_run(&shape_of(&dumps), &collector, &tally);
    let kinds: Vec<&'static str> = dumps
        .iter()
        .flat_map(|d| d.events.iter().map(|e| e.kind.name()))
        .collect();
    for expected in ["tlab_refill", "segment_claimed", "lazy_sweep_segment"] {
        assert!(
            kinds.contains(&expected),
            "segmented run must emit {expected}; got kinds {:?}",
            {
                let mut uniq = kinds.clone();
                uniq.sort_unstable();
                uniq.dedup();
                uniq
            }
        );
    }
    // The stats agree with the trace: refills and lazy sweeps happened.
    assert!(collector.stats().tlab_refills() > 0);
    assert!(collector.stats().lazy_sweep_segments() > 0);
    // And the Chrome export still validates with the new instants.
    let doc = chrome_trace(&dumps);
    validate_chrome_trace(&doc).expect("segmented trace must validate");
}

#[test]
fn metrics_registry_reflects_collector_counters() {
    // Serialized too: this test's collector has instrumented sites that
    // would emit into the global tracer if a concurrent test had tracing
    // enabled, breaking the other tests' drain expectations.
    let _guard = tracer_lock();
    let (collector, _) = run_collector(2);
    let s = collector.stats();

    let registry = Registry::new();
    registry.counter("gc_cycles").add(s.cycles());
    registry.counter("gc_allocated").add(s.allocated());
    registry.counter("gc_freed").add(s.freed());
    registry
        .gauge("gc_live_objects")
        .set(collector.live_objects() as i64);
    let h = registry.histogram("gc_cycle_duration_ns");
    for c in s.history() {
        h.record(c.duration_ns);
    }

    let text = registry.render_text();
    assert!(text.contains("# TYPE gc_cycles counter"));
    assert!(text.contains("# TYPE gc_live_objects gauge"));
    assert!(text.contains("gc_cycle_duration_ns{quantile=\"0.50\"}"));

    let snap = registry.snapshot();
    let cycles = snap
        .get("counters")
        .and_then(|c| c.get("gc_cycles"))
        .and_then(Json::as_f64)
        .expect("snapshot carries gc_cycles");
    assert_eq!(cycles as u64, s.cycles());

    // The GcStats JSON view round-trips through the gc-trace parser — the
    // contract the bench records rely on.
    let parsed = Json::parse(&s.to_json()).expect("GcStats::to_json is valid JSON");
    assert_eq!(
        parsed
            .get("cycles")
            .and_then(Json::as_f64)
            .map(|v| v as u64),
        Some(s.cycles())
    );
    let last = s.history().last().copied().unwrap();
    let parsed = Json::parse(&last.to_json()).expect("CycleStats::to_json is valid JSON");
    assert!(parsed.get("chaos_ns").is_some());
    assert!(last.timing_consistent(), "completed cycle timings compose");
}

#[test]
fn checker_level_events_match_the_outcome() {
    let _guard = tracer_lock();
    let _ = Tracer::global().drain();
    // The store+discard instance under SC: small enough to explore
    // exhaustively in a debug build.
    let mut cfg = ModelConfig::small(1, 2);
    cfg.ops.alloc = false;
    cfg.ops.load = false;
    cfg.memory_model = MemoryModel::Sc;
    relaxing_safely::trace::enable();
    let outcome = Checker::with_config(CheckerConfig {
        max_states: 2_000_000,
        hash_compact: true,
        ..CheckerConfig::default()
    })
    .strategy(Strategy::Bfs { threads: 2 })
    .property(combined_property(&cfg))
    .run(&GcModel::new(cfg));
    relaxing_safely::trace::disable();
    let shape = shape_of(&Tracer::global().drain());
    assert!(outcome.is_verified(), "got {}", outcome.verdict());
    let stats = outcome.stats();
    // BFS closes one level per depth 0..=depth; the last closes on the
    // final state count.
    assert_eq!(shape.checker_states, stats.states as u64, "states");
    assert_eq!(shape.checker_levels, stats.depth as u64 + 1, "levels");
}
