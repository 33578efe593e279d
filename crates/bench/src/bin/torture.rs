//! **Torture — the chaos-engine acceptance harness.**
//!
//! For each seed, runs K mutator threads churning a shared structure under
//! a randomized deterministic [`FaultPlan`] (handshake delay storms,
//! spurious mark-CAS losses, injected silence, mid-barrier mutator panics,
//! slow staged transfers) while the driver thread runs collection cycles
//! back to back with the handshake watchdog armed.
//!
//! The run asserts, per seed:
//!
//! * **termination** — every cycle reaches an outcome (`Completed` or
//!   `TimedOut`), never a hang, even with mutators silent for several
//!   handshake generations or leaked without deregistering;
//! * **safety** — the use-after-free oracle (validation mode) never fires:
//!   every churner panic must be a chaos-injected one;
//! * **heap validity** — live objects never exceed capacity mid-run, and
//!   after quiescence the free list is exhaustive and duplicate-free, the
//!   phase is idle, and all garbage is reclaimed within two completed
//!   cycles.
//!
//! Usage: `torture [--seeds 1,2,3] [--ops N] [--mutators K] [--capacity N]
//! [--layout slab|segmented|both] [--metrics-addr ADDR]`. Every seed runs
//! once per selected heap layout — the chaos plans include storms on the
//! segmented-only TLAB refill and lazy-sweep sites. `--metrics-addr`
//! serves the run's registry live over HTTP (`/metrics`, `/metrics.json`,
//! `/healthz` keyed to `torture_collect_calls_total` progress). Exits
//! nonzero if any verdict is not OK.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gc_trace::{write_bench_record, Json, Liveness, MetricsServer, Registry};
use otf_gc::{Collector, FaultPlan, Gc, GcConfig, HeapLayout, Mutator};

/// One mutator's churn loop: grow a shared list off `anchor`, cut it loose
/// periodically, and walk the visible prefix (every access validated by the
/// use-after-free oracle).
fn churn(mut m: Mutator, anchor: Gc, ops: usize) {
    for op in 0..ops {
        m.safepoint();
        match m.alloc(2) {
            Ok(node) => {
                let old = m.load(anchor, 0);
                m.store(node, 0, old);
                m.store(anchor, 0, Some(node));
                if let Some(o) = old {
                    m.discard(o);
                }
                m.discard(node);
            }
            // HeapFull/Exhausted is backpressure, not failure: the driver's
            // next cycle (or our own emergency cycle) frees the cuttings.
            Err(_) => std::thread::yield_now(),
        }
        if op.is_multiple_of(64) {
            m.store(anchor, 0, None); // cut: mass garbage
        }
        if op.is_multiple_of(16) {
            let mut cur = m.load(anchor, 0);
            let mut n = 0;
            while let Some(c) = cur {
                let next = m.load(c, 0);
                m.discard(c);
                cur = next;
                n += 1;
                if n > 128 {
                    break;
                }
            }
        }
    }
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

struct SeedReport {
    seed: u64,
    layout: &'static str,
    completed: u64,
    timed_out: u64,
    evictions: u64,
    chaos_panics: u64,
    fired: u64,
    verdict: Result<(), String>,
}

fn run_seed(
    seed: u64,
    layout: HeapLayout,
    mutators: usize,
    ops: usize,
    capacity: usize,
    registry: &Registry,
) -> SeedReport {
    let plan = FaultPlan::from_seed(seed);
    let cfg = GcConfig::builder()
        .capacity(capacity)
        .max_fields(2)
        .layout(layout)
        .handshake_timeout(Duration::from_millis(40))
        .emergency_retries(2)
        .alloc_pool(if seed.is_multiple_of(2) { 0 } else { 8 })
        .chaos(plan)
        .build();
    let collector = Collector::new(cfg);

    // Root the shared anchor from a bootstrap mutator until every churner
    // has adopted it, then leave before the first cycle can block on us.
    let mut m0 = collector.register_mutator();
    let anchor = m0.alloc(2).expect("fresh heap has room");
    let mut churners = Vec::new();
    for _ in 0..mutators {
        let mut m = collector.register_mutator();
        m.adopt(anchor);
        churners.push(m);
    }
    drop(m0);
    if seed.is_multiple_of(3) {
        // Leak a registered mutator: never beats, never acks, never
        // deregisters — the watchdog must evict it or no cycle ever ends.
        std::mem::forget(collector.register_mutator());
    }

    let chaos_panics = AtomicUsize::new(0);
    let oracle_trips = AtomicUsize::new(0);
    let first_oracle: Mutex<Option<String>> = Mutex::new(None);
    let finished = AtomicUsize::new(0);
    let mut verdict: Result<(), String> = Ok(());

    std::thread::scope(|s| {
        for m in churners {
            let chaos_panics = &chaos_panics;
            let oracle_trips = &oracle_trips;
            let first_oracle = &first_oracle;
            let finished = &finished;
            s.spawn(move || {
                let r = std::panic::catch_unwind(AssertUnwindSafe(|| churn(m, anchor, ops)));
                if let Err(e) = r {
                    let msg = panic_message(e.as_ref());
                    if msg.starts_with("chaos:") {
                        chaos_panics.fetch_add(1, Ordering::Relaxed);
                    } else {
                        // Anything else is the use-after-free oracle (or a
                        // genuine bug): a safety violation either way.
                        oracle_trips.fetch_add(1, Ordering::Relaxed);
                        first_oracle.lock().unwrap().get_or_insert(msg);
                    }
                }
                finished.fetch_add(1, Ordering::Release);
            });
        }
        // The driver: cycles back to back until every churner is done.
        // The watchdog guarantees each collect() call terminates. Each
        // lap bumps the progress counter the /healthz liveness probe
        // watches and republishes the cumulative cycle gauge.
        let collect_calls = registry.counter("torture_collect_calls_total");
        let cycles_gauge = registry.gauge("gc_cycles_completed");
        while finished.load(Ordering::Acquire) < mutators {
            let _ = collector.collect();
            collect_calls.inc();
            cycles_gauge.set(collector.stats().cycles() as i64);
            let live = collector.live_objects();
            if live > capacity && verdict.is_ok() {
                verdict = Err(format!("{live} live objects exceed capacity {capacity}"));
            }
        }
    });

    // Quiesced: everything is garbage now; two completed cycles must
    // reclaim it all (the §4 floating-garbage bound), and the heap must
    // pass the exhaustive integrity check.
    let mut final_completed = 0;
    for _ in 0..10 {
        if collector.collect().is_completed() {
            final_completed += 1;
            if final_completed == 2 {
                break;
            }
        }
    }
    if verdict.is_ok() && final_completed < 2 {
        verdict = Err("quiesced heap failed to complete two cycles".into());
    }
    if verdict.is_ok() && oracle_trips.load(Ordering::Relaxed) > 0 {
        verdict = Err(format!(
            "use-after-free oracle fired {} time(s), first: {}",
            oracle_trips.load(Ordering::Relaxed),
            first_oracle
                .lock()
                .unwrap()
                .take()
                .unwrap_or_else(|| "<?>".into())
        ));
    }
    if verdict.is_ok() {
        let live = collector.live_objects();
        if live != 0 {
            verdict = Err(format!("{live} objects leaked past two completed cycles"));
        }
    }
    if verdict.is_ok() {
        verdict = collector.debug_verify_integrity();
    }

    let st = collector.stats();
    SeedReport {
        seed,
        layout: layout.name(),
        completed: st.cycles(),
        timed_out: st.cycle_timeouts(),
        evictions: st.evictions(),
        chaos_panics: chaos_panics.load(Ordering::Relaxed) as u64,
        fired: st.chaos_fired_total(),
        verdict,
    }
}

/// The segmented geometry the torture runs use: small segments relative
/// to capacity so refills and lazy sweeps happen constantly.
fn segmented(capacity: usize) -> HeapLayout {
    let segment_slots = if capacity.is_multiple_of(64) { 64 } else { 1 };
    HeapLayout::Segmented {
        segment_slots,
        tlab_slots: segment_slots.min(16),
    }
}

fn parse_args() -> (
    Vec<u64>,
    usize,
    usize,
    usize,
    Vec<&'static str>,
    Option<String>,
) {
    let mut seeds: Vec<u64> = (1..=10).collect();
    let mut ops = 20_000usize;
    let mut mutators = 4usize;
    let mut capacity = 1_024usize;
    let mut layouts = vec!["slab", "segmented"];
    let mut metrics_addr = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--seeds" => {
                seeds = need(i)
                    .split(',')
                    .map(|s| s.trim().parse().expect("seed must be a u64"))
                    .collect();
                i += 2;
            }
            "--ops" => {
                ops = need(i).parse().expect("ops must be a usize");
                i += 2;
            }
            "--mutators" => {
                mutators = need(i).parse().expect("mutators must be a usize");
                i += 2;
            }
            "--capacity" => {
                capacity = need(i).parse().expect("capacity must be a usize");
                i += 2;
            }
            "--layout" => {
                layouts = match need(i).as_str() {
                    "slab" => vec!["slab"],
                    "segmented" => vec!["segmented"],
                    "both" => vec!["slab", "segmented"],
                    other => panic!("--layout must be slab|segmented|both, got {other}"),
                };
                i += 2;
            }
            "--metrics-addr" => {
                metrics_addr = Some(need(i).clone());
                i += 2;
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    (seeds, ops, mutators, capacity, layouts, metrics_addr)
}

fn main() {
    // Injected panics are expected by the dozen: keep stderr quiet and
    // report through the captured payloads instead.
    std::panic::set_hook(Box::new(|_| {}));
    let (seeds, ops, mutators, capacity, layouts, metrics_addr) = parse_args();
    println!(
        "== torture: {} seeds x {mutators} mutators x {ops} ops, capacity {capacity}, layouts {layouts:?} ==",
        seeds.len()
    );
    // One registry across all seeds: collect-call and cycle counts
    // accumulate, the optional scrape endpoint serves them live, and the
    // snapshot lands in the BENCH record.
    let registry = Arc::new(Registry::new());
    let server = metrics_addr.map(|addr| {
        let live = Liveness::watch(
            Arc::clone(&registry),
            "torture_collect_calls_total",
            Duration::from_secs(10),
        );
        let s = MetricsServer::spawn(&addr, Arc::clone(&registry), Some(live))
            .unwrap_or_else(|e| panic!("cannot bind {addr}: {e}"));
        println!("metrics: http://{}/metrics", s.local_addr());
        s
    });
    println!(
        "{:>6} | {:>9} | {:>9} | {:>8} | {:>7} | {:>6} | {:>6} | verdict",
        "seed", "layout", "completed", "timedout", "evicted", "panics", "faults"
    );
    let mut failures = 0;
    let mut rows: Vec<Json> = Vec::new();
    for &layout_name in &layouts {
        let layout = match layout_name {
            "slab" => HeapLayout::Slab,
            _ => segmented(capacity),
        };
        for &seed in &seeds {
            let r = run_seed(seed, layout, mutators, ops, capacity, &registry);
            let verdict = match &r.verdict {
                Ok(()) => "OK".to_string(),
                Err(e) => {
                    failures += 1;
                    format!("FAIL: {e}")
                }
            };
            println!(
                "{:>6} | {:>9} | {:>9} | {:>8} | {:>7} | {:>6} | {:>6} | {verdict}",
                r.seed, r.layout, r.completed, r.timed_out, r.evictions, r.chaos_panics, r.fired
            );
            rows.push(
                Json::obj()
                    .set("seed", r.seed)
                    .set("layout", r.layout)
                    .set("completed", r.completed)
                    .set("timed_out", r.timed_out)
                    .set("evictions", r.evictions)
                    .set("chaos_panics", r.chaos_panics)
                    .set("faults_fired", r.fired)
                    .set("verdict", verdict.as_str()),
            );
        }
    }
    let record = gc_trace::bench_record(
        "torture",
        &[
            ("seeds", Json::from(seeds.len())),
            ("mutators", Json::from(mutators)),
            ("ops", Json::from(ops)),
            ("capacity", Json::from(capacity)),
            (
                "layouts",
                Json::Arr(layouts.iter().map(|&l| Json::from(l)).collect()),
            ),
        ],
        &[
            ("failures", Json::from(failures as u64)),
            ("per_seed", Json::Arr(rows)),
        ],
        Some(&registry),
    );
    match write_bench_record("torture", &record) {
        Ok(path) => println!("bench record -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write bench record: {e}"),
    }
    if let Some(server) = server {
        server.shutdown();
    }
    if failures > 0 {
        eprintln!("torture: {failures} seed(s) FAILED");
        std::process::exit(1);
    }
    println!("torture: all seeds OK");
}
