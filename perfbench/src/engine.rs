//! An availability-engine decorator that counts and times calls.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use aved::avail::{AvailError, EvalHealth, EvalSession, TierAvailability, TierModel};
use aved::AvailabilityEngine;

/// What a [`TracingEngine`] has seen so far. Shared between the engine,
/// which the `Aved` facade owns, and the benchmark, which reads it.
#[derive(Debug, Default)]
pub struct EngineStats {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    models: Mutex<HashSet<u64>>,
}

/// A reading of [`EngineStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineReading {
    /// Calls into the inner engine.
    pub calls: u64,
    /// Wall time spent inside the inner engine, summed over threads.
    pub busy_ns: u64,
}

impl EngineStats {
    /// Calls and busy time so far.
    #[must_use]
    pub fn reading(&self) -> EngineReading {
        EngineReading {
            calls: self.calls.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    /// The number of distinct models (by `TierModel::structural_hash`)
    /// seen since the last call, and forgets them.
    pub fn take_distinct_models(&self) -> usize {
        let mut models = self
            .models
            .lock()
            .expect("model set poisoned by a panicking engine call");
        let n = models.len();
        models.clear();
        n
    }
}

/// Wraps an availability engine and records, for every call, its busy
/// time and the model's structural hash. All three trait methods forward
/// to the same method of the inner engine, so sessions, warm starts and
/// health reports behave exactly as without the decorator.
pub struct TracingEngine {
    inner: Box<dyn AvailabilityEngine>,
    stats: Arc<EngineStats>,
}

impl TracingEngine {
    /// Wraps `inner`, reporting into `stats`.
    #[must_use]
    pub fn new(inner: Box<dyn AvailabilityEngine>, stats: Arc<EngineStats>) -> TracingEngine {
        TracingEngine { inner, stats }
    }

    fn record<T>(&self, model: &TierModel, call: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = call();
        let busy = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats.busy_ns.fetch_add(busy, Ordering::Relaxed);
        let hash = model.structural_hash();
        self.stats
            .models
            .lock()
            .expect("model set poisoned by a panicking engine call")
            .insert(hash);
        out
    }
}

impl AvailabilityEngine for TracingEngine {
    fn evaluate(&self, model: &TierModel) -> Result<TierAvailability, AvailError> {
        self.record(model, || self.inner.evaluate(model))
    }

    fn evaluate_with_health(
        &self,
        model: &TierModel,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        self.record(model, || self.inner.evaluate_with_health(model))
    }

    fn evaluate_with_session(
        &self,
        model: &TierModel,
        session: &mut EvalSession,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        self.record(model, || self.inner.evaluate_with_session(model, session))
    }
}
