//! The `gc-churn` workload: one mutator runs the `stress` churn loop
//! against the background collector on the slab layout, with runtime
//! validation (the use-after-free oracle) on. A closed loop with one
//! client: mutator plus collector are two threads.

use std::time::{Duration, Instant};

use otf_gc::{Collector, CycleStats, Gc, GcConfig, Mutator};

use crate::report::{overhead_share, RunResult};
use crate::stats::{quantile, ratio, SetupTimes};

/// Heap slots.
const CAPACITY: usize = 4096;
/// Churn operations per timed batch (a multiple of 64, so the cut and
/// walk cadence is the same in every batch).
const BATCH_OPS: usize = 1 << 15;
/// The traced pass times one operation in this many.
const SAMPLE_EVERY: usize = 8;

/// The collector configuration: slab layout, two fields, validation on,
/// back-to-back cycles.
fn gc_config() -> GcConfig {
    GcConfig::builder()
        .capacity(CAPACITY)
        .max_fields(2)
        .validate(true)
        .build()
}

/// Sampled call latencies of the traced pass, in nanoseconds.
#[derive(Debug, Default)]
struct Samples {
    alloc: Vec<u64>,
    store: Vec<u64>,
    safepoint: Vec<u64>,
}

/// Times `f` into `into` when sampling.
fn sampled<R>(into: Option<&mut Vec<u64>>, f: impl FnOnce() -> R) -> R {
    match into {
        Some(v) => {
            let t = Instant::now();
            let r = f();
            v.push(t.elapsed().as_nanos() as u64);
            r
        }
        None => f(),
    }
}

/// Allocations that succeeded and failed in one batch.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Allocs {
    ok: u64,
    failed: u64,
}

/// One batch of the churn loop: allocate a node, link it at the head of
/// the anchor's list with two barrier stores, cut the list every 64
/// operations and walk it every 16.
fn batch(m: &mut Mutator, anchor: Gc, mut samples: Option<&mut Samples>) -> Allocs {
    let mut allocs = Allocs::default();
    for op in 0..BATCH_OPS {
        let mut s = samples.as_deref_mut().filter(|_| op % SAMPLE_EVERY == 0);
        sampled(s.as_mut().map(|s| &mut s.safepoint), || m.safepoint());
        match sampled(s.as_mut().map(|s| &mut s.alloc), || m.alloc(2)) {
            Ok(node) => {
                allocs.ok += 1;
                let old = m.load(anchor, 0);
                sampled(s.as_mut().map(|s| &mut s.store), || {
                    m.store(node, 0, old);
                });
                m.store(anchor, 0, Some(node));
                if let Some(o) = old {
                    m.discard(o);
                }
                m.discard(node);
            }
            Err(_) => {
                allocs.failed += 1;
                std::thread::yield_now();
            }
        }
        if op % 64 == 0 {
            m.store(anchor, 0, None);
        }
        if op % 16 == 0 {
            let mut cur = m.load(anchor, 0);
            let mut n = 0;
            while let Some(c) = cur {
                let next = m.load(c, 0);
                m.discard(c);
                cur = next;
                n += 1;
                if n > 256 {
                    break;
                }
            }
        }
    }
    allocs
}

/// The collector, its mutator and the mutator's anchor object.
struct Rig {
    collector: Collector,
    mutator: Mutator,
    anchor: Gc,
}

fn build_rig() -> Rig {
    let collector = Collector::new(gc_config());
    let mut mutator = collector.register_mutator();
    let anchor = mutator.alloc(2).expect("a fresh heap has room");
    Rig {
        collector,
        mutator,
        anchor,
    }
}

/// The timed batches of one pass.
#[derive(Debug)]
struct Pass {
    allocs: Allocs,
    batches: u64,
    mutator_s: f64,
    /// Cycles completed after the warm-up batch.
    cycles: Vec<CycleStats>,
    /// `GcStats` counters over the timed batches.
    handshakes: u64,
    barrier_checks: u64,
    cas_won: u64,
    cas_lost: u64,
    emergency_cycles: u64,
    backoff_ns: u64,
    samples: Samples,
}

impl Pass {
    fn allocs_per_s(&self) -> f64 {
        ratio(self.allocs.ok as f64, self.mutator_s)
    }

    fn cycle_ms(&self, q: f64, phase: impl Fn(&CycleStats) -> u64) -> f64 {
        quantile(&self.cycles.iter().map(phase).collect::<Vec<_>>(), q) as f64 / 1e6
    }
}

/// One pass on a collector built in a set-up slice (with a second slice
/// after it): start the collector, run one warm-up batch, then timed
/// batches until `budget` has elapsed (at least one).
fn pass(budget: Duration, traced: bool, setup: &mut SetupTimes) -> Pass {
    let Rig {
        collector,
        mut mutator,
        anchor,
    } = setup.slice(build_rig);
    collector.start();
    let warm_up = batch(&mut mutator, anchor, None);
    let st = collector.stats();
    let skip = st.history().len();
    let before = (
        st.handshakes(),
        st.barrier_checks(),
        st.barrier_cas_won(),
        st.barrier_cas_lost(),
        st.emergency_cycles(),
        st.backoff_ns(),
    );
    let mut samples = Samples::default();
    let mut allocs = Allocs {
        ok: 0,
        failed: warm_up.failed,
    };
    let mut batches = 0;
    let mut mutator_s = 0.0;
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let got = batch(&mut mutator, anchor, traced.then_some(&mut samples));
        mutator_s += t.elapsed().as_secs_f64();
        allocs.ok += got.ok;
        allocs.failed += got.failed;
        batches += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    // The collector waits on every registered mutator: deregister first.
    drop(mutator);
    collector.stop();
    let st = collector.stats();
    setup.slice(build_rig);
    Pass {
        allocs,
        batches,
        mutator_s,
        cycles: st.history().split_off(skip),
        handshakes: st.handshakes() - before.0,
        barrier_checks: st.barrier_checks() - before.1,
        cas_won: st.barrier_cas_won() - before.2,
        cas_lost: st.barrier_cas_lost() - before.3,
        emergency_cycles: st.emergency_cycles() - before.4,
        backoff_ns: st.backoff_ns() - before.5,
        samples,
    }
}

/// Gates a pass: every allocation succeeded.
fn gate(result: &mut RunResult, p: &Pass) {
    result.attempted += p.allocs.ok + p.allocs.failed;
    if p.allocs.failed > 0 {
        result.fail(
            p.allocs.failed,
            format!("{} allocations failed", p.allocs.failed),
        );
    }
}

fn note_counters(result: &mut RunResult, p: &Pass) {
    result.note("batches", p.batches);
    result.note("batch_ops", BATCH_OPS);
    result.note("allocs", p.allocs.ok);
    result.note("cycles", p.cycles.len());
    result.note("handshakes", p.handshakes);
    result.note("barrier_checks", p.barrier_checks);
    result.note("barrier_cas_won", p.cas_won);
    result.note("barrier_cas_lost", p.cas_lost);
    result.note("mutator_s", p.mutator_s);
}

/// The untraced run.
pub fn run(seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    let mut setup = SetupTimes::default();
    let p = pass(Duration::from_secs_f64(seconds), false, &mut setup);
    gate(&mut result, &p);
    let setup_s = setup.median_s();
    let durations = |c: &CycleStats| c.duration_ns;
    result.metric("setup_s", setup_s);
    result.metric("work_per_s", p.allocs_per_s());
    result.metric("lat_p50_ms", p.cycle_ms(0.50, durations));
    result.metric("lat_p99_ms", p.cycle_ms(0.99, durations));
    result.metric(
        "ok_share",
        ratio(p.allocs.ok as f64, result.attempted as f64),
    );
    result.metric("peak_rss_mb", crate::host::peak_rss_mb());
    note_counters(&mut result, &p);
    result.note("setup_builds", setup.builds());
    result
}

/// The traced run: half the budget untraced (the overhead baseline), half
/// with sampled timing of `safepoint`, `alloc` and `store`.
pub fn run_traced(seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    let half = Duration::from_secs_f64(seconds / 2.0);
    let mut setup = SetupTimes::default();
    let untraced = pass(half, false, &mut setup);
    gate(&mut result, &untraced);
    let p = pass(half, true, &mut setup);
    gate(&mut result, &p);
    let per_batch = |p: &Pass| (p.allocs.ok + p.allocs.failed) / p.batches;
    if per_batch(&p) != per_batch(&untraced) {
        result.fail(
            1,
            format!(
                "traced pass attempted {} allocations per batch, untraced {}",
                per_batch(&p),
                per_batch(&untraced)
            ),
        );
    }
    let s = &p.samples;
    let cycles = p.cycles.len() as f64;
    result.metric("core.alloc_ns_p50", quantile(&s.alloc, 0.50) as f64);
    result.metric("core.alloc_ns_p99", quantile(&s.alloc, 0.99) as f64);
    result.metric("core.store_ns_p50", quantile(&s.store, 0.50) as f64);
    result.metric("core.safepoint_ns_p99", quantile(&s.safepoint, 0.99) as f64);
    result.metric(
        "core.handshake_ms_p50",
        p.cycle_ms(0.50, |c| c.handshake_ns),
    );
    result.metric("core.mark_ms_p50", p.cycle_ms(0.50, |c| c.mark_ns));
    result.metric("core.sweep_ms_p50", p.cycle_ms(0.50, |c| c.sweep_ns));
    result.metric(
        "core.handshakes_per_cycle",
        ratio(p.handshakes as f64, cycles),
    );
    result.metric(
        "core.barrier_checks_per_alloc",
        ratio(p.barrier_checks as f64, p.allocs.ok as f64),
    );
    result.metric(
        "core.mark_cas_lost_share",
        ratio(p.cas_lost as f64, (p.cas_won + p.cas_lost) as f64),
    );
    result.metric("core.emergency_cycles", p.emergency_cycles as f64);
    result.metric("core.backoff_ms", p.backoff_ns as f64 / 1e6);
    result.metric(
        "trace.overhead_share",
        overhead_share(untraced.allocs_per_s(), p.allocs_per_s()),
    );
    note_counters(&mut result, &p);
    result.note("untraced_allocs_per_s", untraced.allocs_per_s());
    result.note("traced_allocs_per_s", p.allocs_per_s());
    result.note("samples", s.alloc.len());
    result
}
