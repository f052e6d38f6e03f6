//! The one sweep kernel behind every §4.1 search and frontier entry point.
//!
//! The paper's design search and the tradeoff curves of Figs. 6–8 are one
//! loop — walk each resource option level by level of resource count,
//! evaluate the candidates, keep a selection — into which a [`Sweep`] plugs
//! an enumerator ([`Levels`]), an [`Evaluator`] and a selection [`Policy`].
//!
//! Evaluation is staged. A level's candidates are its availability classes
//! — active/spare split, spare mode and every mechanism parameter feeding
//! an MTBF, MTTR or cost effect — each crossed with the option's
//! performance-only grid (the checkpoint interval × storage location of the
//! paper's Fig. 5 job). Costing, model derivation and the engine solve run
//! once per class, the first time one of its candidates needs them; a grid
//! point then costs one evaluation of Eq. (1) in plain `f64`. Designs are
//! materialized only for the selection and, when journaling or resuming,
//! for the keys. Candidates are still visited, pruned, counted and folded
//! one by one in enumeration order.
//!
//! Batches keep enumeration order (parameter locality: neighbors differ in
//! one knob) and fan out in contiguous shards, one warm-started
//! [`EvalSession`] per worker. Workers only stop, prune ([`BestCost`]),
//! replay or evaluate; every decision, journal record and failure
//! isolation happens in the fold **in candidate order**, so the selection
//! is identical at any worker count, warm or cold (see
//! [`crate::parallel`](crate::parallel_map)).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use aved_avail::EvalSession;
use aved_model::{tier_design_cost, ModelError, ResourceOption, Tier, TierDesign};
use aved_units::{Duration, Money};

use crate::candidate::{split_settings, splits, with_settings, SplitSettings};
use crate::evaluate::{ClassEval, JobInputs};
use crate::frontier::pareto_by;
use crate::health::isolate_candidate;
use crate::journal::{enterprise_key, job_key};
use crate::parallel::{effective_jobs, parallel_map_with, BestCost};
use crate::{EvalContext, EvaluatedDesign, SearchError, SearchHealth, SearchOptions};

type EvalResult = Result<Option<EvaluatedDesign>, SearchError>;
type ClassResult = Result<Option<ClassEval>, SearchError>;

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

    /// Costs (unless already costed), derives and solves one class.
    fn solve(
        self,
        ctx: &EvalContext<'_>,
        option: &ResourceOption,
        class: &Class,
        session: &mut EvalSession,
    ) -> ClassResult {
        let (td, cost) = (&class.design, class.cost);
        match self {
            Evaluator::Downtime(load) => {
                ClassEval::enterprise(ctx, option, td, load, cost, session)
            }
            Evaluator::JobTime => ClassEval::job(ctx, option, td, cost, session),
        }
    }

    /// The evaluated design of class member `td`, graded `quality`.
    fn design(self, class: &ClassEval, td: TierDesign, quality: Duration) -> EvaluatedDesign {
        class.design(td, matches!(self, Evaluator::JobTime).then_some(quality))
    }

    /// The quality metric of an evaluated design, smaller is better. Job
    /// evaluations always carry a completion time; one without would rank
    /// last.
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

/// One option's settings, staged: availability classes × the
/// performance-only grid.
struct Staged<'a> {
    option: &'a ResourceOption,
    settings: SplitSettings,
    /// Job time only: the performance-only inputs of each settings
    /// combination, resolved the first time the combination is graded —
    /// combinations only pruned candidates carry never need them.
    inputs: Vec<OnceLock<Result<JobInputs, SearchError>>>,
}

/// One availability class: a design without its performance-only
/// settings, costed up front when the policy prunes by cost.
struct Class {
    design: TierDesign,
    cost: Option<Money>,
}

/// The candidates of one (option, level): `splits × combinations` of them
/// from `start` on, one block of classes per split from `first_class` on.
struct Segment<'s, 'a> {
    staged: &'s Staged<'a>,
    start: usize,
    first_class: usize,
}

/// Candidates evaluated together, in enumeration order.
#[derive(Default)]
struct Batch<'s, 'a> {
    segments: Vec<Segment<'s, 'a>>,
    classes: Vec<Class>,
    len: usize,
}

impl<'s, 'a> Batch<'s, 'a> {
    /// Candidate `i`'s segment, class and settings combination.
    fn locate(&self, i: usize) -> (&Segment<'s, 'a>, usize, usize) {
        let segment = &self.segments[self.segments.partition_point(|s| s.start <= i) - 1];
        let settings = &segment.staged.settings;
        let (block, k) = (
            (i - segment.start) / settings.combos.len(),
            (i - segment.start) % settings.combos.len(),
        );
        let class = segment.first_class + block * settings.classes.len() + settings.combos[k].0;
        (segment, class, k)
    }

    /// Candidate `i`'s design: its class's design with its grid settings.
    fn design(&self, i: usize) -> TierDesign {
        let (segment, class, k) = self.locate(i);
        let settings = &segment.staged.settings;
        let grid = &settings.grid[settings.combos[k].1];
        with_settings(self.classes[class].design.clone(), grid)
    }
}

/// One candidate's fate in the worker: pruned (strictly dearer than a
/// known-feasible design), skipped (the sweep is aborting or stopping),
/// graded live against its class's solve (`None`: the class holds no
/// design), or replayed bit-for-bit from the resume journal.
enum Outcome {
    Pruned,
    Skipped,
    Live(Result<Option<Duration>, SearchError>),
    Replayed(Box<EvalResult>),
}

/// An evaluated candidate as the selection sees it.
#[derive(Clone, Copy)]
struct Pick {
    index: usize,
    cost: Money,
    quality: Duration,
}

/// What the workers share for the whole sweep.
struct Shared {
    deadline: Option<Instant>,
    best_cost: BestCost,
    abort: AtomicBool,
}

/// One worker: its warm-start session, and within the current batch the
/// classes it has solved, so each is solved once however many of its
/// candidates the worker meets.
struct Worker {
    session: EvalSession,
    solved: Vec<Option<ClassResult>>,
    /// The class of the previous candidate, and whether the sweep was
    /// stopping when that class began.
    at: Option<usize>,
    stopping: bool,
    /// Successful class solves, and the candidates they served.
    solves: u64,
    served: u64,
}

impl Worker {
    fn begin(&mut self, classes: usize) {
        self.solved = vec![None; classes];
        self.at = None;
        self.stopping = false;
    }
}

/// A running sweep: shared state, the workers, the report.
struct Run {
    shared: Shared,
    workers: Vec<Worker>,
    health: SearchHealth,
}

/// An evaluated batch: each candidate's outcome and every solved class.
struct Evaluated<'b, 's, 'a> {
    batch: &'b Batch<'s, 'a>,
    outcomes: Vec<Outcome>,
    solved: Vec<Option<ClassResult>>,
}

impl Evaluated<'_, '_, '_> {
    /// The solved class of candidate `i`, when it has one.
    fn class(&self, i: usize) -> Option<&ClassEval> {
        match &self.solved[self.batch.locate(i).1] {
            Some(Ok(Some(class))) => Some(class),
            _ => None,
        }
    }

    /// Candidate `i`'s evaluation: as replayed, or its class's solve at its
    /// grid point. Pruned and skipped candidates have none.
    fn result(&self, evaluator: Evaluator, i: usize) -> EvalResult {
        match &self.outcomes[i] {
            Outcome::Replayed(result) => (**result).clone(),
            Outcome::Live(Ok(Some(q))) => Ok(self
                .class(i)
                .map(|c| evaluator.design(c, self.batch.design(i), *q))),
            Outcome::Live(result) => result.clone().map(|_| None),
            Outcome::Pruned | Outcome::Skipped => Ok(None),
        }
    }
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
            workers: (0..jobs.max(1))
                .map(|_| Worker {
                    session: EvalSession::new().with_budget(budget.clone()),
                    solved: Vec::new(),
                    at: None,
                    stopping: false,
                    solves: 0,
                    served: 0,
                })
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
        for worker in &run.workers {
            run.health.absorb_session(worker.session.stats());
            run.health.cache_misses += worker.solves;
            run.health.cache_hits += worker.served - worker.solves;
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
        let mut best: Option<(EvaluatedDesign, Duration)> = None;
        'options: for option in tier.options() {
            let levels = self.levels.of(self.ctx, option, self.options)?;
            if levels.is_empty() {
                continue;
            }
            let staged = self.stage(&mut run.health, option);
            let (mut prev, mut degrading) = (None, 0);
            for level in levels {
                let mut batch = Batch::default();
                self.push_level(&mut run.health, &mut batch, tier, &staged, level)?;
                // Cost grows with the count: once a level's cheapest
                // candidate is dearer than the incumbent, so is the rest.
                let cheapest = batch
                    .classes
                    .iter()
                    .filter_map(|c| c.cost)
                    .min_by(Money::total_cmp);
                if cheapest.is_some_and(|c| best.as_ref().is_some_and(|(b, _)| c > b.cost())) {
                    break;
                }
                let mut here: Option<Duration> = None;
                let mut pick: Option<Pick> = None;
                let evaluated = self.batch(run, &batch, |p| {
                    if here.is_none_or(|h| p.quality < h) {
                        here = Some(p.quality);
                    }
                    let incumbent = pick
                        .map(|b| (b.cost, b.quality))
                        .or_else(|| best.as_ref().map(|(b, q)| (b.cost(), *q)));
                    if p.quality <= requirement && incumbent.is_none_or(|b| (p.cost, p.quality) < b)
                    {
                        pick = Some(p);
                    }
                })?;
                if let Some(p) = pick {
                    if let Some(e) = evaluated.result(self.evaluator, p.index)? {
                        best = Some((e, p.quality));
                    }
                }
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
        Ok(best.into_iter().map(|(e, _)| e).collect())
    }

    /// Every candidate might be a frontier point: one batch, no pruning.
    fn pareto(&self, tier: &'a Tier, run: &mut Run) -> Result<Vec<EvaluatedDesign>, SearchError> {
        let mut staged = Vec::new();
        for option in tier.options() {
            let levels = self.levels.of(self.ctx, option, self.options)?;
            if !levels.is_empty() {
                staged.push((self.stage(&mut run.health, option), levels));
            }
        }
        let mut batch = Batch::default();
        for (option, levels) in &staged {
            for &level in levels {
                self.push_level(&mut run.health, &mut batch, tier, option, level)?;
            }
        }
        let mut picks = Vec::new();
        let evaluated = self.batch(run, &batch, |p| picks.push(p))?;
        let merging = Instant::now();
        let mut frontier = Vec::new();
        for p in pareto_by(picks, |p| p.cost, |p| p.quality) {
            frontier.extend(evaluated.result(self.evaluator, p.index)?);
        }
        run.health.merge_time += merging.elapsed();
        Ok(frontier)
    }

    /// Splits `option`'s settings into availability classes and grid.
    fn stage(&self, health: &mut SearchHealth, option: &'a ResourceOption) -> Staged<'a> {
        let enumerating = Instant::now();
        let settings = split_settings(self.ctx.infrastructure(), option, &self.options.pins);
        let inputs = settings.combos.iter().map(|_| OnceLock::new()).collect();
        health.enumeration_time += enumerating.elapsed();
        Staged {
            option,
            settings,
            inputs,
        }
    }

    /// The Eq. (1) inputs of settings combination `k` of `staged`.
    fn job_inputs<'s>(
        &self,
        staged: &'s Staged<'a>,
        k: usize,
    ) -> &'s Result<JobInputs, SearchError> {
        staged.inputs[k].get_or_init(|| {
            let option = staged.option;
            let resource = self
                .ctx
                .infrastructure()
                .resource(option.resource().as_str())
                .ok_or_else(|| ModelError::UnknownResource {
                    tier: self.tier.to_owned(),
                    resource: option.resource().to_string(),
                })?;
            JobInputs::of(self.ctx, option, resource, &staged.settings.combo(k))
        })
    }

    /// Appends one level of a staged option to `batch`: its classes in
    /// enumeration order, costed when the policy prunes by cost.
    fn push_level<'s>(
        &self,
        health: &mut SearchHealth,
        batch: &mut Batch<'s, 'a>,
        tier: &Tier,
        staged: &'s Staged<'a>,
        (n_total, min_active): (u32, u32),
    ) -> Result<(), SearchError> {
        let enumerating = Instant::now();
        let (infra, option) = (self.ctx.infrastructure(), staged.option);
        let costed = matches!(self.policy, Policy::MinCostFeasible(_));
        let splits = splits(option, n_total, min_active, self.options);
        let combos = staged.settings.combos.len();
        if splits.is_empty() || combos == 0 {
            return Ok(());
        }
        let first_class = batch.classes.len();
        for (n_active, n_spare, spare_mode) in splits.iter().cloned() {
            for settings in &staged.settings.classes {
                let td = TierDesign::new(
                    tier.name().clone(),
                    option.resource().clone(),
                    n_active,
                    n_spare,
                )
                .with_spare_mode(spare_mode.clone());
                let design = with_settings(td, settings);
                let cost = costed.then(|| tier_design_cost(infra, &design).map(|c| c.total()));
                batch.classes.push(Class {
                    cost: cost.transpose()?,
                    design,
                });
            }
        }
        batch.segments.push(Segment {
            staged,
            start: batch.len,
            first_class,
        });
        batch.len += splits.len() * combos;
        health.enumeration_time += enumerating.elapsed();
        Ok(())
    }

    /// Evaluates a batch on the workers, then folds the outcomes in candidate
    /// order — counting, journaling, isolating — handing every evaluated
    /// candidate to `select`. Sets `interrupted` when the sweep must stop
    /// here.
    fn batch<'b, 's>(
        &self,
        run: &mut Run,
        batch: &'b Batch<'s, 'a>,
        mut select: impl FnMut(Pick),
    ) -> Result<Evaluated<'b, 's, 'a>, SearchError> {
        let solving = Instant::now();
        for worker in &mut run.workers {
            worker.begin(batch.classes.len());
        }
        let shared = &run.shared;
        let candidates = vec![(); batch.len];
        let outcomes = parallel_map_with(
            run.health.jobs,
            &mut run.workers,
            &candidates,
            |w, i, ()| self.step(shared, w, batch, i),
        );
        run.health.solve_time += solving.elapsed();

        let merging = Instant::now();
        // Workers sharing a class solved it alike; keep the first solve.
        let mut solved = std::mem::take(&mut run.workers[0].solved);
        for worker in &mut run.workers[1..] {
            for (slot, other) in solved.iter_mut().zip(worker.solved.drain(..)) {
                if slot.is_none() {
                    *slot = other;
                }
            }
        }
        let evaluated = Evaluated {
            batch,
            outcomes,
            solved,
        };
        let health = &mut run.health;
        for (i, outcome) in evaluated.outcomes.iter().enumerate() {
            let (result, replayed) = match outcome {
                Outcome::Pruned => {
                    health.candidates_pruned += 1;
                    continue;
                }
                Outcome::Skipped => continue,
                // A cancellation is no candidate outcome: never journaled (it
                // is re-evaluated on resume), it becomes the stop below.
                Outcome::Live(Err(e)) if e.is_cancellation() => continue,
                Outcome::Live(result) => {
                    let graded = result.clone().map(|q| {
                        q.and_then(|q| evaluated.class(i).map(|c| (c.cost(), q, c.health())))
                    });
                    (graded, false)
                }
                Outcome::Replayed(result) => {
                    let graded = match &**result {
                        Ok(e) => Ok(e
                            .as_ref()
                            .map(|e| (e.cost(), self.evaluator.quality(e), e.eval_health()))),
                        Err(e) => Err(e.clone()),
                    };
                    (graded, true)
                }
            };
            health.journal_replayed += u64::from(replayed);
            health.budget_exhausted +=
                u64::from(matches!(&result, Err(e) if e.is_budget_exhaustion()));
            if let Some(journal) = &self.options.journal {
                let key = self.evaluator.key(self.tier, &batch.design(i));
                journal.record(&key, &evaluated.result(self.evaluator, i));
            }
            let class = &batch.classes[batch.locate(i).1].design;
            if let Some((cost, quality, eval)) =
                isolate_candidate(result, self.options.strict, health, class)?
            {
                health.absorb_eval(eval);
                health.candidates_evaluated += 1;
                select(Pick {
                    index: i,
                    cost,
                    quality,
                });
            }
        }
        health.interrupted |= self.options.stop_requested(run.shared.deadline);
        health.merge_time += merging.elapsed();
        Ok(evaluated)
    }

    /// The worker side of one candidate: stop, prune, replay or grade.
    /// Stop requests are honored at class boundaries, at most a grid's
    /// worth of `f64` steps apart.
    fn step(&self, shared: &Shared, w: &mut Worker, batch: &Batch<'_, 'a>, i: usize) -> Outcome {
        let o = self.options;
        let (segment, class, k) = batch.locate(i);
        if w.at != Some(class) {
            w.at = Some(class);
            w.stopping = shared.abort.load(Ordering::Relaxed) || o.stop_requested(shared.deadline);
        }
        if w.stopping {
            return Outcome::Skipped;
        }
        // Only strictly dearer: an equal-cost candidate competes on quality.
        let cost = batch.classes[class].cost;
        if o.prune && cost.is_some_and(|cost| shared.best_cost.beats(cost)) {
            return Outcome::Pruned;
        }
        let replayed = o.resume.as_ref().and_then(|replay| {
            let td = batch.design(i);
            let entry = replay.lookup(&self.evaluator.key(self.tier, &td))?;
            Some(entry.clone().into_result(&td))
        });
        let outcome = match replayed {
            Some(result) => Outcome::Replayed(Box::new(result)),
            None => Outcome::Live(self.grade(shared, w, batch, segment.staged, class, k)),
        };
        // Feasible costs feed pruning (replayed ones too, so a resume
        // prunes as the live run did); fatal or strict-mode failures abort
        // the sweep; a cancellation only stops it, after this batch.
        let (graded, failure) = match &outcome {
            Outcome::Live(Ok(q)) => (q.zip(cost), None),
            Outcome::Live(Err(e)) => (None, Some(e)),
            Outcome::Replayed(result) => match &**result {
                Ok(e) => (
                    e.as_ref().map(|e| (self.evaluator.quality(e), e.cost())),
                    None,
                ),
                Err(e) => (None, Some(e)),
            },
            Outcome::Pruned | Outcome::Skipped => (None, None),
        };
        match (graded, self.policy) {
            (Some((q, cost)), Policy::MinCostFeasible(req)) if q <= req => {
                shared.best_cost.offer(cost)
            }
            _ => {}
        }
        if failure.is_some_and(|e| !e.is_cancellation() && (o.strict || !e.is_candidate_scoped())) {
            shared.abort.store(true, Ordering::Relaxed);
        }
        outcome
    }

    /// Grades settings combination `k` of `class` against the class's
    /// solve, solving the class first if this worker has not yet: the
    /// class's downtime, or Eq. (1) at the combination's checkpoint
    /// settings. Smaller is better.
    fn grade(
        &self,
        shared: &Shared,
        w: &mut Worker,
        batch: &Batch<'_, 'a>,
        staged: &Staged<'a>,
        class: usize,
        k: usize,
    ) -> Result<Option<Duration>, SearchError> {
        let o = self.options;
        let solved = w.solved[class].get_or_insert_with(|| {
            let c = &batch.classes[class];
            let solved = if o.warm_start {
                self.evaluator
                    .solve(self.ctx, staged.option, c, &mut w.session)
            } else {
                let cold = &mut EvalSession::new().with_budget(o.eval_budget(shared.deadline));
                self.evaluator.solve(self.ctx, staged.option, c, cold)
            };
            w.solves += u64::from(matches!(solved, Ok(Some(_))));
            solved
        });
        let class = match solved {
            Ok(Some(class)) => class,
            Ok(None) => return Ok(None),
            Err(e) => return Err(e.clone()),
        };
        w.served += 1;
        match self.evaluator {
            Evaluator::Downtime(_) => Ok(Some(class.annual_downtime())),
            Evaluator::JobTime => {
                let inputs = self.job_inputs(staged, k).as_ref().map_err(Clone::clone)?;
                class.job_time(inputs).map(Some)
            }
        }
    }
}

#[cfg(test)]
mod staged_oracle;

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
            // One engine call per class solve: the kill lands after
            // `quota` of them.
            assert!(
                health.cache_misses <= u64::try_from(quota).unwrap(),
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
