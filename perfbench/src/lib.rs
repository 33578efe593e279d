//! The repository benchmark: four workloads over the model checker and the
//! runtime collector, reported as end-to-end metrics (tracing off) or as
//! per-layer metrics (a separate traced run).
//!
//! Every timing here is taken from outside the program, around calls into
//! each layer's public functions: [`timed::TimedModel`] wraps `GcModel` as
//! an `mc::TransitionSystem`, [`timed::timed_properties`] wraps the
//! `Property` predicates, [`churn`] times `Mutator` calls, and [`serve`]
//! times `run_serve` and reads the `ServeReport` and `Registry` it fills.
//! See `README.md` next to this crate for the workloads and metrics.

#![forbid(unsafe_code)]

pub mod checker;
pub mod churn;
pub mod host;
pub mod report;
pub mod serve;
mod stats;
pub mod timed;
