//! Design-space search (paper §4): the minimum-cost design meeting a
//! service's requirements, given infrastructure and service models, a
//! performance catalog and an availability engine.
//!
//! * [`EvalContext`] bundles the models and the pluggable engine;
//! * [`enumerate_tier_candidates`] produces every resolved tier design for
//!   a resource count: active/spare splits, spare modes and mechanism
//!   settings;
//! * [`evaluate_enterprise_design`] / [`evaluate_job_design`] attach cost,
//!   availability and (for finite jobs) expected completion time;
//! * [`search_tier`] / [`search_job_tier`] find one tier's minimum-cost
//!   design by the §4.1 algorithm — grow the resource count from the
//!   performance minimum, prune by cost once a feasible design is known,
//!   stop when every remaining design necessarily costs more;
//! * [`tier_pareto_frontier`] / [`job_frontier`] compute the cost/quality
//!   tradeoff curves behind Figs. 6–8;
//! * [`search_service`] composes per-tier frontiers into a multi-tier
//!   design.
//!
//! The four tier entry points are thin wrappers over one sweep kernel —
//! an enumerator of resource-count levels, an evaluator (downtime or job
//! time) and a selection policy (min-cost feasible, or Pareto) — so every
//! sweep is alike:
//!
//! * *staged* — the availability model is solved once per availability
//!   class (resource, counts, spare mode and the mechanism settings that
//!   change MTBF, MTTR or cost); the performance-only settings on top of it
//!   (checkpoint interval × storage location) cost one Eq. (1) evaluation
//!   each;
//! * *resilient* — a failing candidate is skipped and recorded, not fatal
//!   ([`SearchOptions::strict`] restores fail-fast), and every run reports
//!   a [`SearchHealth`];
//! * *parallel and warm-started* — batches keep enumeration (parameter
//!   locality) order, shard contiguously across [`SearchOptions::with_jobs`]
//!   workers, each reusing an [`aved_avail::EvalSession`], and fold back in
//!   candidate order: the selection is bit-identical at any worker count,
//!   warm or cold (see [`parallel`](parallel_map));
//! * *governed and resumable* — a [`SolveBudget`](aved_avail::SolveBudget)
//!   bounds each candidate, a deadline or a
//!   [`CancelToken`](aved_avail::CancelToken) stops the sweep with its
//!   best-so-far result, and a [`SweepJournal`] lets
//!   [`SearchOptions::with_resume`] replay an interrupted sweep to the same
//!   selection, bit for bit.

mod candidate;
mod context;
mod error;
mod evaluate;
mod frontier;
mod health;
mod journal;
mod multi_tier;
mod parallel;
mod sensitivity;
mod sweep;
#[cfg(test)]
mod test_fixtures;
mod tier_search;

pub use candidate::{enumerate_settings, enumerate_tier_candidates, SearchOptions};
pub use context::EvalContext;
pub use error::SearchError;
pub use evaluate::{
    evaluate_enterprise_design, evaluate_enterprise_design_in, evaluate_job_design,
    evaluate_job_design_in, EvaluatedDesign,
};
pub use frontier::{job_frontier, tier_pareto_frontier, tier_pareto_frontier_with_health};
pub use health::{SearchHealth, SkippedCandidate};
pub use journal::{enterprise_key, job_key, JournalReplay, ReplayEntry, SweepJournal};
pub use multi_tier::{search_service, search_service_with_health, ServiceDesign};
pub use parallel::{effective_jobs, parallel_map, parallel_map_with};
pub use sensitivity::{mtbf_sensitivity, scale_mtbfs, SensitivityRow};
pub use tier_search::{search_job_tier, search_tier, SearchOutcome};
