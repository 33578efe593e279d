//! The checker workloads, `mc-flagship` and `mc-heap`: exhaustive
//! fully-reduced BFS over `GcModel` with the full §3.2 invariant suite,
//! gated on the exact verdict, state, transition and depth counts.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gc_model::invariants::combined_property;
use gc_model::{GcModel, InitialHeap, ModelConfig, ModelState};
use gc_trace::{labeled, Json, Registry};
use mc::{Checker, CheckerConfig, Outcome, Property, Reduction, Stats, Strategy, TransitionSystem};

use crate::report::{overhead_share, RunResult};
use crate::stats::{median, ratio, SetupTimes};
use crate::timed::{timed_properties, Hook, TimedModel};

/// One checker instance and the exact result it must reproduce.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The model configuration.
    model: ModelConfig,
    /// Frontier levels above this many states spill to disk.
    spill_threshold: Option<usize>,
    /// The exact statistics of the expected `VERIFIED` outcome.
    expected: Stats,
}

/// Two mutators sharing one object, no allocation, six-deep store
/// buffers: TSO interpretation and canonicalization dominate.
pub fn flagship() -> Instance {
    let mut model = ModelConfig::small(2, 2);
    model.initial = InitialHeap::shared_object(2, 1);
    model.ops.alloc = false;
    model.buffer_cap = 6;
    Instance {
        model,
        spill_threshold: None,
        expected: Stats {
            states: 207_363,
            transitions: 630_906,
            depth: 254,
        },
    }
}

/// The 4-slot memory-gate instance: two mutators, a shared object,
/// allocation and discard only. Five times the flagship's states with
/// shallow buffers, so the seen-set, deduplication and the spill codec
/// dominate. Fully reduced, no BFS level exceeds the 20,000 states the
/// `reduction` bin spills at; at 10,000 the widest levels spill (180,115
/// states, 38.6 MB per check).
pub fn heap_gate() -> Instance {
    let mut model = ModelConfig::small(2, 4);
    model.initial = InitialHeap::shared_object(2, 1);
    model.ops.load = false;
    model.ops.store = false;
    Instance {
        model,
        spill_threshold: Some(10_000),
        expected: Stats {
            states: 1_064_602,
            transitions: 2_560_244,
            depth: 265,
        },
    }
}

/// BFS worker threads: two, or fewer on a smaller host.
fn bfs_threads() -> usize {
    crate::host::nproc().min(2)
}

/// The checker configuration every pass uses: hash-compact dedup and all
/// three reductions.
fn checker_config(instance: &Instance) -> CheckerConfig {
    CheckerConfig {
        hash_compact: true,
        spill_threshold: instance.spill_threshold,
        ..CheckerConfig::default()
    }
    .reduction(Reduction::all())
}

/// `Ok` when `outcome` is the expected verdict with the exact counts.
fn verify<TS: TransitionSystem>(outcome: &Outcome<TS>, expected: Stats) -> Result<(), String> {
    let stats = outcome.stats();
    if outcome.is_verified() && stats == expected {
        Ok(())
    } else {
        Err(format!(
            "expected VERIFIED {expected:?}, got {} {stats:?}",
            outcome.verdict()
        ))
    }
}

/// Wall times and gate results of repeated checks.
#[derive(Default)]
struct Pass {
    walls: Vec<Duration>,
    stats: Option<Stats>,
}

impl Pass {
    /// Runs one check, gating its outcome against `expected` into
    /// `result`.
    fn check<TS: TransitionSystem>(
        &mut self,
        result: &mut RunResult,
        expected: Stats,
        check: impl FnOnce() -> Outcome<TS>,
    ) {
        let t = Instant::now();
        let outcome = check();
        self.walls.push(t.elapsed());
        result.attempted += 1;
        if let Err(why) = verify(&outcome, expected) {
            result.fail(1, why);
        }
        self.stats = Some(outcome.stats());
    }

    /// Whether another check should start: most of it must fit in what is
    /// left of `budget`, so a run overshoots its budget by at most half a
    /// check.
    fn another_fits(&self, start: Instant, budget: Duration) -> bool {
        let last = self.walls.last().copied().unwrap_or_default();
        start.elapsed() + last / 2 < budget
    }

    fn median_s(&self) -> f64 {
        median(
            &self
                .walls
                .iter()
                .map(Duration::as_secs_f64)
                .collect::<Vec<_>>(),
        )
    }
}

/// Runs `check` until `budget` is spent (at least once), gating each
/// outcome against `expected` into `result`.
fn repeat<TS: TransitionSystem>(
    budget: Duration,
    expected: Stats,
    result: &mut RunResult,
    mut check: impl FnMut() -> Outcome<TS>,
) -> Pass {
    let start = Instant::now();
    let mut pass = Pass::default();
    loop {
        pass.check(result, expected, &mut check);
        if !pass.another_fits(start, budget) {
            return pass;
        }
    }
}

fn build_checker(
    config: CheckerConfig,
    properties: Vec<Property<ModelState>>,
) -> Checker<ModelState> {
    let strategy = Strategy::Bfs {
        threads: bfs_threads(),
    };
    properties.into_iter().fold(
        Checker::with_config(config).strategy(strategy),
        Checker::property,
    )
}

/// The full §3.2 invariant suite, as one bundled property.
fn suite(instance: &Instance) -> Vec<Property<ModelState>> {
    vec![combined_property(&instance.model)]
}

/// The untraced run: checks until `seconds` is spent, each on a model
/// and checker freshly built in a set-up slice.
pub fn run(instance: &Instance, seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    let mut setup = SetupTimes::default();
    let build = || {
        let model = GcModel::new(instance.model.clone());
        (
            model,
            build_checker(checker_config(instance), suite(instance)),
        )
    };
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut pass = Pass::default();
    loop {
        let (model, checker) = setup.slice(build);
        pass.check(&mut result, instance.expected, || checker.run(&model));
        if !pass.another_fits(start, budget) {
            break;
        }
    }
    setup.slice(build);
    let setup_s = setup.median_s();
    let check_s = pass.median_s();
    let states = pass.stats.map_or(0, |s| s.states);
    result.metric("setup_s", setup_s);
    result.metric("work_per_s", ratio(states as f64, check_s));
    // A run holds fewer than ten checks, so no tail percentile has ten
    // samples beyond it: both latency figures are the median check.
    result.metric("lat_p50_ms", check_s * 1e3);
    result.metric("lat_p99_ms", check_s * 1e3);
    result.metric(
        "ok_share",
        1.0 - ratio(result.failed as f64, result.attempted as f64),
    );
    result.metric("peak_rss_mb", crate::host::peak_rss_mb());
    note_stats(&mut result, pass.stats);
    result.note("checks", pass.walls.len());
    result.note("setup_builds", setup.builds());
    result.note("check_s", check_s);
    let walls = pass.walls.iter().map(|w| Json::from(w.as_secs_f64()));
    result.note("check_walls_s", walls.collect::<Vec<_>>());
    result.note("bfs_threads", bfs_threads());
    result
}

fn note_stats(result: &mut RunResult, stats: Option<Stats>) {
    let s = stats.unwrap_or_default();
    result.note("states", s.states);
    result.note("transitions", s.transitions);
    result.note("depth", s.depth);
}

/// The traced run: half the budget untraced (for the overhead baseline),
/// half through [`TimedModel`] and timed properties with the checker's
/// metrics registry attached.
pub fn run_traced(instance: &Instance, seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    let half = Duration::from_secs_f64(seconds / 2.0);
    let model = GcModel::new(instance.model.clone());

    let checker = build_checker(checker_config(instance), suite(instance));
    let untraced = repeat(half, instance.expected, &mut result, || checker.run(&model));

    let registry = Arc::new(Registry::new());
    let config = checker_config(instance).metrics(Arc::clone(&registry));
    let props = Arc::new(Hook::default());
    let timed = TimedModel::new(&model, config.reduction);
    let traced_checker = build_checker(config, timed_properties(suite(instance), &props));
    let traced = repeat(half, instance.expected, &mut result, || {
        traced_checker.run(&timed)
    });
    if untraced.stats != traced.stats {
        result.fail(
            1,
            format!(
                "traced stats {:?} differ from untraced {:?}",
                traced.stats, untraced.stats
            ),
        );
    }

    let checks = traced.walls.len() as f64;
    let traced_wall_s: f64 = traced.walls.iter().map(Duration::as_secs_f64).sum();
    let stats = traced.stats.unwrap_or_default();
    let counter = |name: &str| registry.value_of(name).unwrap_or(0) as f64;
    let hits = |technique: &str| {
        counter(&labeled(
            "mc_reduction_hits_total",
            &[("technique", technique)],
        )) / checks
    };
    let busy_s = (timed.busy_ns() + props.busy_ns()) as f64 / 1e9;
    result.metric("model.succ_us", timed.expand.mean_us());
    result.metric(
        "model.succ_per_state",
        ratio(timed.successors() as f64 / checks, stats.states as f64),
    );
    result.metric("model.canon_us", timed.canon.mean_us());
    result.metric("model.ample_reduced_share", timed.ample_reduced_share());
    result.metric("model.encode_us", timed.encode.mean_us());
    result.metric("model.decode_us", timed.decode.mean_us());
    result.metric("model.state_bytes", timed.mean_state_bytes());
    result.metric("props.eval_us", props.mean_us());
    result.metric("mc.states", stats.states as f64);
    result.metric("mc.transitions", stats.transitions as f64);
    result.metric("mc.depth", stats.depth as f64);
    result.metric(
        "mc.states_per_s",
        ratio(stats.states as f64, traced.median_s()),
    );
    result.metric(
        "mc.dup_share",
        1.0 - ratio(stats.states as f64, stats.transitions as f64),
    );
    result.metric(
        "mc.self_share",
        1.0 - ratio(busy_s, bfs_threads() as f64 * traced_wall_s),
    );
    result.metric(
        "mc.spill_mb",
        counter("mc_spill_bytes_written_total") / 1e6 / checks,
    );
    result.metric("mc.reduction_hits.por", hits("por_ample"));
    result.metric("mc.reduction_hits.symmetry", hits("symmetry_merge"));
    result.metric("mc.reduction_hits.sb_canon", hits("sb_canon_coalesce"));
    result.metric(
        "trace.overhead_share",
        overhead_share(1.0 / untraced.median_s(), 1.0 / traced.median_s()),
    );
    note_stats(&mut result, traced.stats);
    result.note("untraced_checks", untraced.walls.len());
    result.note("untraced_check_s", untraced.median_s());
    result.note("traced_checks", traced.walls.len());
    result.note("traced_check_s", traced.median_s());
    result.note("expand_calls", timed.expand.calls());
    result.note("canon_calls", timed.canon.calls());
    result.note("attribution_calls", timed.attribution.calls());
    result.note("encode_calls", timed.encode.calls());
    result.note("decode_calls", timed.decode.calls());
    result.note("property_evals", props.calls());
    result.note("por_fallbacks", hits("por_fallback"));
    result.note("bfs_threads", bfs_threads());
    result
}
