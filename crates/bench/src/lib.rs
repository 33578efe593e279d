//! Shared infrastructure for the experiment drivers in `src/bin/` — each
//! binary regenerates the evidence for one figure (or observation) of
//! *Relaxing Safely* (PLDI 2015). See the workspace `EXPERIMENTS.md` for
//! the figure → binary map and recorded results.

pub mod harness;

use std::time::{Duration, Instant};

use gc_model::invariants::{combined_property, safety_property};
use gc_model::{GcModel, ModelConfig};
use mc::{Checker, CheckerConfig, Property, Strategy};

/// Which invariants a run checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// The full §3.2 suite (including the phase-ghost-indexed invariants,
    /// which presuppose the faithful handshake structure).
    Full,
    /// Only the headline safety property `valid_refs_inv` — used for
    /// ablations that intentionally change the handshake structure.
    SafetyOnly,
}

impl Suite {
    /// The property set this suite checks for `cfg`.
    pub fn properties(self, cfg: &ModelConfig) -> Vec<Property<gc_model::ModelState>> {
        match self {
            Suite::Full => vec![combined_property(cfg)],
            Suite::SafetyOnly => vec![safety_property(cfg)],
        }
    }
}

/// The distilled result of one model-checking run.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Human-readable configuration label.
    pub label: String,
    /// `VERIFIED`, `VIOLATED <inv>`, or `BOUNDED (...)`.
    pub outcome: String,
    /// Distinct states visited.
    pub states: usize,
    /// Transitions traversed.
    pub transitions: usize,
    /// Deepest BFS level reached.
    pub depth: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// The violated invariant, if any.
    pub violated: Option<&'static str>,
    /// The formatted counterexample trace, if any.
    pub trace: Option<String>,
}

impl CheckReport {
    /// Whether the run verified exhaustively.
    pub fn verified(&self) -> bool {
        self.outcome == "VERIFIED"
    }
}

/// The default exploration bounds for experiment runs: hash-compact dedup
/// under a state cap.
pub fn bounded_config(max_states: usize) -> CheckerConfig {
    CheckerConfig {
        max_states,
        hash_compact: true,
        ..CheckerConfig::default()
    }
}

/// Model-checks `cfg` with the chosen suite, up to `max_states`
/// (hash-compacted, sequential BFS), and distils the outcome.
pub fn check_config(
    label: impl Into<String>,
    cfg: &ModelConfig,
    max_states: usize,
    suite: Suite,
) -> CheckReport {
    check_config_with(label, cfg, max_states, suite.properties(cfg))
}

/// Like [`check_config`] but with caller-supplied properties.
pub fn check_config_with(
    label: impl Into<String>,
    cfg: &ModelConfig,
    max_states: usize,
    properties: Vec<Property<gc_model::ModelState>>,
) -> CheckReport {
    check_config_opts(
        label,
        cfg,
        properties,
        bounded_config(max_states),
        Strategy::default(),
    )
}

/// The fully general driver: model-checks `cfg` with caller-supplied
/// properties, checker configuration and strategy.
pub fn check_config_opts(
    label: impl Into<String>,
    cfg: &ModelConfig,
    properties: Vec<Property<gc_model::ModelState>>,
    checker_config: CheckerConfig,
    strategy: Strategy,
) -> CheckReport {
    let model = GcModel::new(cfg.clone());
    let mut checker = Checker::with_config(checker_config).strategy(strategy);
    for p in properties {
        checker = checker.property(p);
    }
    let t0 = Instant::now();
    let outcome = checker.run(&model);
    let elapsed = t0.elapsed();
    let stats = outcome.stats();
    CheckReport {
        label: label.into(),
        outcome: outcome.verdict(),
        states: stats.states,
        transitions: stats.transitions,
        depth: stats.depth,
        elapsed,
        violated: outcome.violated_property(),
        trace: outcome
            .trace()
            .map(|trace| model.format_trace(&trace.actions)),
    }
}

/// Prints a row-per-report table.
pub fn print_table(reports: &[CheckReport]) {
    println!(
        "{:<44} {:>12} {:>13} {:>6} {:>9}  outcome",
        "configuration", "states", "transitions", "depth", "time"
    );
    println!("{}", "-".repeat(118));
    for r in reports {
        println!(
            "{:<44} {:>12} {:>13} {:>6} {:>8.1}s  {}",
            r.label,
            r.states,
            r.transitions,
            r.depth,
            r.elapsed.as_secs_f64(),
            r.outcome
        );
    }
}

/// Prints a counterexample trace, if present, under a header.
pub fn print_trace(report: &CheckReport) {
    if let Some(trace) = &report.trace {
        println!("\ncounterexample for `{}`:", report.label);
        println!("{trace}");
    }
}

/// A [`CheckReport`] as a flat JSON object for `BENCH_*.json` records.
pub fn report_json(report: &CheckReport) -> gc_trace::Json {
    gc_trace::Json::obj()
        .set("label", report.label.as_str())
        .set("outcome", report.outcome.as_str())
        .set("states", report.states)
        .set("transitions", report.transitions)
        .set("depth", report.depth)
        .set("elapsed_s", report.elapsed.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_config_distils_outcomes() {
        let mut cfg = ModelConfig::small(1, 2);
        cfg.ops.alloc = false;
        cfg.ops.load = false;
        cfg.ops.store = false;
        let report = check_config("tiny", &cfg, 500_000, Suite::Full);
        assert!(report.states > 0);
        assert!(report.violated.is_none(), "outcome: {}", report.outcome);
    }
}
