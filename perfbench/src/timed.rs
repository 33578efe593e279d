//! The traced run's view of the model layer: a `TransitionSystem` that
//! forwards every hook to `GcModel` and times the calls, and `Property`
//! wrappers that time each predicate.
//!
//! Nothing here changes what the checker sees: every hook returns exactly
//! what `GcModel` returns (the wrapper-fidelity test holds verdicts, stats
//! and counterexamples to that).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use gc_model::{GcModel, ModelEvent, ModelState};
use mc::{Property, Reduction, TransitionSystem};

/// Call count and busy time of one hook, summed over all BFS workers.
/// The counters are statistics and publish no other data.
#[derive(Debug, Default)]
pub struct Hook {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl Hook {
    /// Runs `f`, adding one call and its wall time.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        r
    }

    /// Calls timed so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Busy time so far, in nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Relaxed)
    }

    /// Mean microseconds per call (0 before any call).
    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.busy_ns() as f64 / 1e3, self.calls() as f64)
    }
}

/// `GcModel` with every `TransitionSystem` hook timed.
#[derive(Debug)]
pub struct TimedModel<'m> {
    model: &'m GcModel,
    /// The reduction the search canonicalizes with. `canonicalize` calls
    /// under any other reduction are the checker's per-technique telemetry
    /// attribution, timed apart so they do not inflate `canon`.
    search: Reduction,
    /// Successor generation: `successors`, `successors_into` and
    /// `ample_successors_into`.
    pub expand: Hook,
    /// `canonicalize` under the search's reduction.
    pub canon: Hook,
    /// `canonicalize` under single techniques (checker telemetry).
    pub attribution: Hook,
    /// `encode_state` (frontier spill).
    pub encode: Hook,
    /// `decode_state` (frontier spill read-back).
    pub decode: Hook,
    successors: AtomicU64,
    ample_reduced: AtomicU64,
    ample_calls: AtomicU64,
    encoded_bytes: AtomicU64,
}

impl<'m> TimedModel<'m> {
    /// Wraps `model` for a search that canonicalizes under `search`.
    pub fn new(model: &'m GcModel, search: Reduction) -> Self {
        TimedModel {
            model,
            search,
            expand: Hook::default(),
            canon: Hook::default(),
            attribution: Hook::default(),
            encode: Hook::default(),
            decode: Hook::default(),
            successors: AtomicU64::new(0),
            ample_reduced: AtomicU64::new(0),
            ample_calls: AtomicU64::new(0),
            encoded_bytes: AtomicU64::new(0),
        }
    }

    /// Successors returned by all expansion calls.
    pub fn successors(&self) -> u64 {
        self.successors.load(Relaxed)
    }

    /// Share of `ample_successors_into` calls that applied a reduction.
    pub fn ample_reduced_share(&self) -> f64 {
        crate::stats::ratio(
            self.ample_reduced.load(Relaxed) as f64,
            self.ample_calls.load(Relaxed) as f64,
        )
    }

    /// Mean encoded state size in bytes.
    pub fn mean_state_bytes(&self) -> f64 {
        crate::stats::ratio(
            self.encoded_bytes.load(Relaxed) as f64,
            self.encode.calls() as f64,
        )
    }

    /// Busy time of every model hook, in nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        [
            &self.expand,
            &self.canon,
            &self.attribution,
            &self.encode,
            &self.decode,
        ]
        .iter()
        .map(|h| h.busy_ns())
        .sum()
    }

    fn count_successors(&self, before: usize, out: &[(ModelEvent, ModelState)]) {
        self.successors
            .fetch_add((out.len() - before) as u64, Relaxed);
    }
}

impl TransitionSystem for TimedModel<'_> {
    type State = ModelState;
    type Action = ModelEvent;

    fn initial_states(&self) -> Vec<ModelState> {
        self.model.initial_states()
    }

    fn successors(&self, state: &ModelState) -> Vec<(ModelEvent, ModelState)> {
        let out = self.expand.time(|| self.model.successors(state));
        self.count_successors(0, &out);
        out
    }

    fn successors_into(&self, state: &ModelState, out: &mut Vec<(ModelEvent, ModelState)>) {
        let before = out.len();
        self.expand.time(|| self.model.successors_into(state, out));
        self.count_successors(before, out);
    }

    fn ample_successors_into(
        &self,
        state: &ModelState,
        reduction: &Reduction,
        out: &mut Vec<(ModelEvent, ModelState)>,
    ) -> bool {
        let before = out.len();
        let reduced = self
            .expand
            .time(|| self.model.ample_successors_into(state, reduction, out));
        self.count_successors(before, out);
        self.ample_calls.fetch_add(1, Relaxed);
        if reduced {
            self.ample_reduced.fetch_add(1, Relaxed);
        }
        reduced
    }

    fn canonicalize(&self, state: &ModelState, reduction: &Reduction) -> ModelState {
        let hook = if *reduction == self.search {
            &self.canon
        } else {
            &self.attribution
        };
        hook.time(|| self.model.canonicalize(state, reduction))
    }

    fn encode_state(&self, state: &ModelState, bytes: &mut Vec<u8>) -> bool {
        let before = bytes.len();
        let ok = self.encode.time(|| self.model.encode_state(state, bytes));
        self.encoded_bytes
            .fetch_add((bytes.len() - before) as u64, Relaxed);
        ok
    }

    fn decode_state(&self, bytes: &[u8]) -> Option<ModelState> {
        self.decode.time(|| self.model.decode_state(bytes))
    }
}

/// Wraps each property so every evaluation is timed into `hook`. Names
/// and violation labels are passed through unchanged.
pub fn timed_properties(
    properties: Vec<Property<ModelState>>,
    hook: &Arc<Hook>,
) -> Vec<Property<ModelState>> {
    properties
        .into_iter()
        .map(|p| {
            let hook = Arc::clone(hook);
            let name = p.name();
            Property::labeled(name, move |s: &ModelState| hook.time(|| p.violation(s)))
        })
        .collect()
}
