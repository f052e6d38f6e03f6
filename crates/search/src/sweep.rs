//! The one sweep kernel behind every §4.1 search and frontier entry point.
//!
//! The paper's design search and the tradeoff curves of Figs. 6–8 are one
//! loop — walk each resource option level by level of resource count,
//! evaluate the candidates, keep a selection — into which a [`Sweep`] plugs
//! an enumerator ([`Levels`]), an [`Evaluator`] and a selection [`Policy`].
//!
//! Batches keep enumeration order (parameter locality: neighbors differ in
//! one knob) and fan out in contiguous shards, one warm-started
//! [`EvalSession`] per worker. Workers only stop, prune ([`BestCost`]),
//! replay or evaluate; every decision, journal record and failure
//! isolation happens in the fold **in candidate order**, so the selection
//! is identical at any worker count, warm or cold (see
//! [`crate::parallel`](crate::parallel_map)).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use aved_avail::EvalSession;
use aved_model::{tier_design_cost, ResourceOption, Tier, TierDesign};
use aved_units::{Duration, Money};

use crate::evaluate::{evaluate_enterprise_design_in, evaluate_job_design_in};
use crate::frontier::pareto_by;
use crate::health::isolate_candidate;
use crate::journal::{enterprise_key, job_key};
use crate::parallel::{effective_jobs, parallel_map_with, BestCost};
use crate::{
    enumerate_tier_candidates, EvalContext, EvaluatedDesign, SearchError, SearchHealth,
    SearchOptions,
};

type EvalResult = Result<Option<EvaluatedDesign>, SearchError>;

/// Levels without quality gain after which an infeasible option is dropped.
const DEGRADE_PATIENCE: usize = 2;

/// The enumerator: the `(n_total, min_active)` levels each option visits.
pub(crate) enum Levels<'a> {
    /// From the load's failure-free minimum up to `max_extra_active + max_spares` more.
    Load(f64),
    /// From the deadline's failure-free minimum up to the nActive ceiling plus
    /// spares: re-execution can need far more nodes than the minimum.
    Deadline(Duration),
    /// The caller's totals grid, any active count allowed.
    Grid(&'a [u32]),
}

impl Levels<'_> {
    fn of(
        &self,
        ctx: &EvalContext<'_>,
        option: &ResourceOption,
        o: &SearchOptions,
    ) -> Result<Vec<(u32, u32)>, SearchError> {
        let demand = match self {
            Levels::Grid(totals) => {
                return Ok(totals.iter().filter(|&&n| n > 0).map(|&n| (n, 1)).collect())
            }
            Levels::Load(load) => *load,
            // A job finishes within T only at a failure-free throughput of
            // at least job_size / T.
            Levels::Deadline(t) => ctx.job_size()? / t.hours(),
        };
        let perf = ctx.catalog().resolve_perf(option.performance())?;
        let n_active = option.n_active();
        let Some(start) = perf
            .min_active_for(demand)
            .and_then(|m| n_active.next_at_or_above(m.max(1)))
        else {
            return Ok(Vec::new()); // the option can never meet the demand
        };
        let max_total = match self {
            Levels::Load(_) => start + o.max_extra_active + o.max_spares,
            _ => n_active
                .max_value()
                .unwrap_or(start)
                .saturating_add(o.max_spares),
        };
        Ok((start..=max_total).map(|n| (n, start)).collect())
    }
}

/// The evaluator: what a candidate is evaluated for.
#[derive(Clone, Copy)]
pub(crate) enum Evaluator {
    /// Annual downtime of an enterprise tier serving the given load.
    Downtime(f64),
    /// Expected completion time of the service's finite job.
    JobTime,
}

impl Evaluator {
    fn key(self, tier: &str, td: &TierDesign) -> String {
        match self {
            Evaluator::Downtime(load) => enterprise_key(tier, load, td),
            Evaluator::JobTime => job_key(tier, td),
        }
    }

    fn evaluate(self, ctx: &EvalContext<'_>, c: &Candidate<'_>, s: &mut EvalSession) -> EvalResult {
        match self {
            Evaluator::Downtime(load) => {
                evaluate_enterprise_design_in(ctx, c.option, &c.design, load, s)
            }
            Evaluator::JobTime => evaluate_job_design_in(ctx, c.option, &c.design, s),
        }
    }

    /// The quality metric, smaller is better. Job evaluations always carry
    /// a completion time; one without would rank last.
    fn quality(self, e: &EvaluatedDesign) -> Duration {
        match self {
            Evaluator::Downtime(_) => e.annual_downtime(),
            Evaluator::JobTime => e
                .expected_job_time()
                .unwrap_or(Duration::from_secs(f64::INFINITY)),
        }
    }

    /// A level whose best quality is not below the previous level's times
    /// this factor is degrading. Near a performance asymptote job time
    /// improves by vanishing steps, so sub-0.1% steps count too.
    fn tolerance(self) -> f64 {
        match self {
            Evaluator::Downtime(_) => 1.0,
            Evaluator::JobTime => 0.999,
        }
    }
}

/// The selection policy.
#[derive(Clone, Copy)]
pub(crate) enum Policy {
    /// The cheapest design meeting the requirement; a batch per level.
    MinCostFeasible(Duration),
    /// Every design that is the cheapest way to its quality; one batch.
    Pareto,
}

/// One sweep: a tier, the search bounds, and the three plugged-in parts.
pub(crate) struct Sweep<'s, 'a> {
    pub(crate) ctx: &'s EvalContext<'a>,
    pub(crate) tier: &'s str,
    pub(crate) options: &'s SearchOptions,
    pub(crate) levels: Levels<'s>,
    pub(crate) evaluator: Evaluator,
    pub(crate) policy: Policy,
}

/// One candidate, costed up front when the policy prunes by cost.
struct Candidate<'a> {
    option: &'a ResourceOption,
    design: TierDesign,
    cost: Option<Money>,
}

/// One candidate's fate in the worker: pruned (strictly dearer than a
/// known-feasible design), skipped (the sweep is aborting or stopping), or
/// done — evaluated live or replayed bit-for-bit from the resume journal.
enum Outcome {
    Pruned,
    Skipped,
    Done { result: EvalResult, replayed: bool },
}

/// What the workers share for the whole sweep.
struct Shared {
    deadline: Option<Instant>,
    best_cost: BestCost,
    abort: AtomicBool,
}

/// A running sweep: shared state, one session per worker, the report.
struct Run {
    shared: Shared,
    sessions: Vec<EvalSession>,
    health: SearchHealth,
}

impl<'a> Sweep<'_, 'a> {
    /// Runs the sweep: its selection — at most one design under min-cost,
    /// the cost-sorted frontier under Pareto — and its health.
    pub(crate) fn run(self) -> Result<(Vec<EvaluatedDesign>, SearchHealth), SearchError> {
        let started = Instant::now();
        let tier = self.ctx.tier(self.tier)?;
        let deadline = self.options.search_deadline.map(|d| started + d);
        let budget = self.options.eval_budget(deadline);
        let jobs = effective_jobs(self.options.jobs);
        let mut run = Run {
            shared: Shared {
                deadline,
                best_cost: BestCost::new(),
                abort: AtomicBool::new(false),
            },
            // Reused across every batch: chain shapes recur across levels.
            sessions: (0..jobs.max(1))
                .map(|_| EvalSession::new().with_budget(budget.clone()))
                .collect(),
            health: SearchHealth {
                jobs,
                ..SearchHealth::default()
            },
        };
        let selected = match self.policy {
            Policy::MinCostFeasible(requirement) => self.min_cost(tier, requirement, &mut run)?,
            Policy::Pareto => self.pareto(tier, &mut run)?,
        };
        for session in &run.sessions {
            run.health.absorb_session(session.stats());
        }
        run.health.wall_time = started.elapsed();
        Ok((selected, run.health))
    }

    /// §4.1: grow each option's count level by level until even the
    /// cheapest candidate of a level costs more than the incumbent, or —
    /// while nothing is feasible — quality stops improving.
    fn min_cost(
        &self,
        tier: &'a Tier,
        requirement: Duration,
        run: &mut Run,
    ) -> Result<Vec<EvaluatedDesign>, SearchError> {
        let quality = |e: &EvaluatedDesign| self.evaluator.quality(e);
        let mut best: Option<EvaluatedDesign> = None;
        'options: for option in tier.options() {
            let (mut prev, mut degrading) = (None, 0);
            for level in self.levels.of(self.ctx, option, self.options)? {
                let batch = self.candidates(&mut run.health, tier, option, level)?;
                // Cost grows with the count: once a level's cheapest
                // candidate is dearer than the incumbent, so is the rest.
                let cheapest = batch.iter().filter_map(|c| c.cost).min_by(Money::total_cmp);
                if cheapest.is_some_and(|c| best.as_ref().is_some_and(|b| c > b.cost())) {
                    break;
                }
                let mut here: Option<Duration> = None;
                self.batch(run, &batch, |e| {
                    let q = quality(&e);
                    if here.is_none_or(|h| q < h) {
                        here = Some(q);
                    }
                    let wins = best
                        .as_ref()
                        .is_none_or(|b| (e.cost(), q) < (b.cost(), quality(b)));
                    if q <= requirement && wins {
                        best = Some(e);
                    }
                })?;
                if run.health.interrupted {
                    break 'options; // a partial batch must not feed the rule below
                }
                // While nothing is feasible nothing is pruned, so `here` is
                // the level's true best.
                if best.is_none() {
                    match (prev, here) {
                        (Some(p), Some(h)) if h >= p * self.evaluator.tolerance() => degrading += 1,
                        (_, Some(_)) => degrading = 0,
                        _ => {}
                    }
                    if degrading >= DEGRADE_PATIENCE {
                        break;
                    }
                }
                prev = here.or(prev);
            }
        }
        Ok(best.into_iter().collect())
    }

    /// Every candidate might be a frontier point: one batch, no pruning.
    fn pareto(&self, tier: &'a Tier, run: &mut Run) -> Result<Vec<EvaluatedDesign>, SearchError> {
        let mut batch = Vec::new();
        for option in tier.options() {
            for level in self.levels.of(self.ctx, option, self.options)? {
                batch.extend(self.candidates(&mut run.health, tier, option, level)?);
            }
        }
        let mut all = Vec::new();
        self.batch(run, &batch, |e| all.push(e))?;
        let merging = Instant::now();
        let frontier = pareto_by(all, |e| self.evaluator.quality(e));
        run.health.merge_time += merging.elapsed();
        Ok(frontier)
    }

    /// One level's candidates of `option`, in enumeration order: a sort by
    /// cost would break the locality the warm-start sessions feed on.
    fn candidates(
        &self,
        health: &mut SearchHealth,
        tier: &Tier,
        option: &'a ResourceOption,
        (n_total, min_active): (u32, u32),
    ) -> Result<Vec<Candidate<'a>>, SearchError> {
        let enumerating = Instant::now();
        let infra = self.ctx.infrastructure();
        let costed = matches!(self.policy, Policy::MinCostFeasible(_));
        let designs = enumerate_tier_candidates(
            infra,
            tier.name(),
            option,
            n_total,
            min_active,
            self.options,
        );
        let batch = designs
            .into_iter()
            .map(|design| {
                let cost = costed.then(|| tier_design_cost(infra, &design).map(|c| c.total()));
                Ok(Candidate {
                    option,
                    cost: cost.transpose()?,
                    design,
                })
            })
            .collect();
        health.enumeration_time += enumerating.elapsed();
        batch
    }

    /// Evaluates a batch on the workers, then folds the outcomes in candidate
    /// order — counting, journaling, isolating — handing every design to
    /// `select`. Sets `interrupted` when the sweep must stop here.
    fn batch(
        &self,
        run: &mut Run,
        batch: &[Candidate<'_>],
        mut select: impl FnMut(EvaluatedDesign),
    ) -> Result<(), SearchError> {
        let solving = Instant::now();
        let shared = &run.shared;
        let outcomes = parallel_map_with(run.health.jobs, &mut run.sessions, batch, |s, _, c| {
            self.step(shared, s, c)
        });
        run.health.solve_time += solving.elapsed();

        let merging = Instant::now();
        let health = &mut run.health;
        for (c, outcome) in batch.iter().zip(outcomes) {
            let (result, replayed) = match outcome {
                Outcome::Pruned => {
                    health.candidates_pruned += 1;
                    continue;
                }
                // A cancellation is no candidate outcome: never journaled (it
                // is re-evaluated on resume), it becomes the stop below.
                Outcome::Done { result: Err(e), .. } if e.is_cancellation() => continue,
                Outcome::Done { result, replayed } => (result, replayed),
                Outcome::Skipped => continue,
            };
            health.journal_replayed += u64::from(replayed);
            health.budget_exhausted +=
                u64::from(matches!(&result, Err(e) if e.is_budget_exhaustion()));
            if let Some(journal) = &self.options.journal {
                journal.record(&self.evaluator.key(self.tier, &c.design), &result);
            }
            if let Some(e) = isolate_candidate(result, self.options.strict, health, &c.design)? {
                health.candidates_evaluated += 1;
                select(e);
            }
        }
        health.interrupted |= self.options.stop_requested(shared.deadline);
        health.merge_time += merging.elapsed();
        Ok(())
    }

    /// The worker side of one candidate: stop, prune, replay or evaluate.
    fn step(&self, shared: &Shared, session: &mut EvalSession, c: &Candidate<'_>) -> Outcome {
        let o = self.options;
        if shared.abort.load(Ordering::Relaxed) || o.stop_requested(shared.deadline) {
            return Outcome::Skipped;
        }
        // Only strictly dearer: an equal-cost candidate competes on quality.
        if o.prune && c.cost.is_some_and(|cost| shared.best_cost.beats(cost)) {
            return Outcome::Pruned;
        }
        let entry = o
            .resume
            .as_ref()
            .and_then(|replay| replay.lookup(&self.evaluator.key(self.tier, &c.design)));
        let replayed = entry.is_some();
        let result = match entry {
            Some(entry) => entry.clone().into_result(&c.design),
            None if o.warm_start => self.evaluator.evaluate(self.ctx, c, session),
            None => {
                let cold = &mut EvalSession::new().with_budget(o.eval_budget(shared.deadline));
                self.evaluator.evaluate(self.ctx, c, cold)
            }
        };
        // Feasible costs feed pruning (replayed ones too, so a resume
        // prunes as the live run did); fatal or strict-mode failures abort
        // the sweep; a cancellation only stops it, after this batch.
        match (&result, self.policy) {
            (Ok(Some(e)), Policy::MinCostFeasible(req)) if self.evaluator.quality(e) <= req => {
                shared.best_cost.offer(e.cost());
            }
            (Err(e), _) if !e.is_cancellation() && (o.strict || !e.is_candidate_scoped()) => {
                shared.abort.store(true, Ordering::Relaxed);
            }
            _ => {}
        }
        Outcome::Done { result, replayed }
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    use aved_avail::{
        AvailError, AvailabilityEngine, CancelToken, DecompositionEngine, TierAvailability,
        TierModel,
    };
    use aved_model::ParamValue;

    use super::*;
    use crate::test_fixtures::{app_tier_fixture, job_fixture, Fixture};
    use crate::{
        job_frontier, search_job_tier, search_tier, tier_pareto_frontier, JournalReplay,
        SweepJournal,
    };

    const LOAD: f64 = 800.0;
    const TOTALS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

    fn enterprise_opts() -> SearchOptions {
        SearchOptions {
            max_extra_active: 2,
            max_spares: 1,
            ..SearchOptions::default()
        }
    }

    fn job_opts() -> SearchOptions {
        SearchOptions {
            max_extra_active: 0,
            max_spares: 1,
            ..SearchOptions::default()
        }
        .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
        .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()))
    }

    /// Delegates to the decomposition engine, tripping `token` after
    /// `quota` evaluations: a SIGINT at a deterministic point mid-sweep.
    struct CancelAfter {
        inner: DecompositionEngine,
        remaining: AtomicUsize,
        token: CancelToken,
    }

    impl CancelAfter {
        fn new(quota: usize, token: CancelToken) -> CancelAfter {
            CancelAfter {
                inner: DecompositionEngine::default(),
                remaining: AtomicUsize::new(quota),
                token,
            }
        }
    }

    impl AvailabilityEngine for CancelAfter {
        fn evaluate(&self, model: &TierModel) -> Result<TierAvailability, AvailError> {
            if self.remaining.fetch_sub(1, Ordering::Relaxed) == 1 {
                self.token.cancel();
            }
            self.inner.evaluate(model)
        }
    }

    /// The frontier sweep `tier_pareto_frontier` (enterprise) or
    /// `job_frontier` (job) runs, with its health report.
    fn frontier_sweep(
        fx: &Fixture,
        engine: &dyn AvailabilityEngine,
        enterprise: bool,
        options: &SearchOptions,
    ) -> (Vec<EvaluatedDesign>, SearchHealth) {
        let ctx = fx.context(engine);
        let (tier, levels, evaluator) = if enterprise {
            ("application", Levels::Load(LOAD), Evaluator::Downtime(LOAD))
        } else {
            ("computation", Levels::Grid(&TOTALS), Evaluator::JobTime)
        };
        Sweep {
            ctx: &ctx,
            tier,
            options,
            levels,
            evaluator,
            policy: Policy::Pareto,
        }
        .run()
        .unwrap()
    }

    fn temp_journal(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("aved-sweep-{tag}-{}.jsonl", std::process::id()));
        path
    }

    /// Bit-level equality of every point and every metric it carries.
    fn assert_same_frontier(a: &[EvaluatedDesign], b: &[EvaluatedDesign], label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: frontier length");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.design(), y.design(), "{label}: design");
            assert_eq!(
                x.cost().dollars().to_bits(),
                y.cost().dollars().to_bits(),
                "{label}: cost"
            );
            assert_eq!(
                x.availability().unavailability().to_bits(),
                y.availability().unavailability().to_bits(),
                "{label}: unavailability"
            );
            assert_eq!(
                x.expected_job_time().map(|t| t.seconds().to_bits()),
                y.expected_job_time().map(|t| t.seconds().to_bits()),
                "{label}: job time"
            );
        }
    }

    /// Kills a journaled frontier sweep after `quota` evaluations, then
    /// resumes it at one worker and at eight: each resumed frontier must
    /// equal `reference` to the bit, replaying rather than re-solving.
    fn killed_frontier_resumes(
        fx: &Fixture,
        enterprise: bool,
        options: &SearchOptions,
        quota: usize,
        reference: &[EvaluatedDesign],
    ) {
        let label = if enterprise { "tier" } else { "job" };
        let path = temp_journal(label);
        {
            let token = CancelToken::new();
            let engine = CancelAfter::new(quota, token.clone());
            let journal = Arc::new(SweepJournal::create(&path).unwrap());
            let killed_opts = options
                .clone()
                .with_cancel(token)
                .with_journal(journal.clone());
            let (partial, health) = frontier_sweep(fx, &engine, enterprise, &killed_opts);
            assert!(
                health.interrupted,
                "{label}: the kill must be felt: {health}"
            );
            assert!(
                health.candidates_evaluated <= u64::try_from(quota).unwrap(),
                "{label}: the sweep stopped near the kill: {health}"
            );
            assert!(partial.len() <= reference.len());
            journal.flush().unwrap();
        }

        let replay = Arc::new(JournalReplay::load(&path).unwrap());
        assert!(!replay.is_empty(), "{label}: the killed sweep journaled");
        let engine = DecompositionEngine::default();
        for jobs in [1, 8] {
            let opts = options.clone().with_jobs(jobs).with_resume(replay.clone());
            let (resumed, health) = frontier_sweep(fx, &engine, enterprise, &opts);
            let at = format!("{label} resume jobs={jobs}");
            assert_same_frontier(reference, &resumed, &at);
            assert!(health.journal_replayed > 0, "{at}: {health}");
            assert!(!health.interrupted, "{at}: runs to the end");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn killed_tier_frontier_resumes_bit_identical() {
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let o = enterprise_opts();
        let reference =
            tier_pareto_frontier(&fx.context(&engine), "application", LOAD, &o).unwrap();
        killed_frontier_resumes(&fx, true, &o, 20, &reference);
    }

    #[test]
    fn killed_job_frontier_resumes_bit_identical() {
        let fx = job_fixture();
        let engine = DecompositionEngine::default();
        let o = job_opts();
        let reference = job_frontier(&fx.context(&engine), "computation", &TOTALS, &o).unwrap();
        killed_frontier_resumes(&fx, false, &o, 10, &reference);
    }

    #[test]
    fn every_sweep_counts_its_evaluations() {
        let engine = DecompositionEngine::default();
        let fx = app_tier_fixture();
        let ctx = fx.context(&engine);
        let o = enterprise_opts();
        let search = search_tier(&ctx, "application", LOAD, Duration::from_mins(500.0), &o)
            .unwrap()
            .health()
            .candidates_evaluated;
        let (frontier, health) = frontier_sweep(&fx, &engine, true, &o);
        assert!(search > 0);
        assert!(
            health.candidates_evaluated > search,
            "the frontier evaluates everything the pruned search skips"
        );
        assert!(health.candidates_evaluated >= u64::try_from(frontier.len()).unwrap());

        let jfx = job_fixture();
        let jctx = jfx.context(&engine);
        let jo = job_opts();
        let job = search_job_tier(&jctx, "computation", Duration::from_hours(200.0), &jo).unwrap();
        assert!(job.health().candidates_evaluated > 0, "{}", job.health());
        let (_, health) = frontier_sweep(&jfx, &engine, false, &jo);
        assert!(health.candidates_evaluated > 0, "{health}");
    }
}
