//! Attaching cost, availability and completion time to a candidate design.

use aved_avail::{
    derive_tier_model, loss_window, EvalHealth, EvalSession, TierAvailability, TierModel,
};
use aved_jobtime::JobParams;
use aved_model::{
    tier_design_cost, ModelError, ParamName, ParamValue, ResourceOption, ResourceType, Settings,
    TierDesign,
};
use aved_perf::{CheckpointOverhead, StorageLocation};
use aved_units::{Duration, Money};

use crate::{EvalContext, SearchError};

/// A candidate tier design together with its evaluation results.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatedDesign {
    design: TierDesign,
    cost: Money,
    availability: TierAvailability,
    min_for_perf: u32,
    expected_job_time: Option<Duration>,
    health: EvalHealth,
}

impl EvaluatedDesign {
    /// The resolved design.
    #[must_use]
    pub fn design(&self) -> &TierDesign {
        &self.design
    }

    /// Annual cost of the design.
    #[must_use]
    pub fn cost(&self) -> Money {
        self.cost
    }

    /// The tier's availability evaluation.
    #[must_use]
    pub fn availability(&self) -> &TierAvailability {
        &self.availability
    }

    /// Expected annual downtime (convenience).
    #[must_use]
    pub fn annual_downtime(&self) -> Duration {
        self.availability.annual_downtime()
    }

    /// The minimum active resources required by the performance model
    /// (the `m` fed to the availability model under dynamic sizing).
    #[must_use]
    pub fn min_for_perf(&self) -> u32 {
        self.min_for_perf
    }

    /// Extra active resources beyond the performance minimum (the paper's
    /// `n_extra`, one of the family coordinates in Fig. 6).
    #[must_use]
    pub fn n_extra(&self) -> u32 {
        self.design.n_active().saturating_sub(self.min_for_perf)
    }

    /// The expected job completion time, for finite-job evaluations.
    #[must_use]
    pub fn expected_job_time(&self) -> Option<Duration> {
        self.expected_job_time
    }

    /// How degraded this candidate's availability evaluation was (solver
    /// fallbacks taken, worst accepted residual).
    #[must_use]
    pub fn eval_health(&self) -> EvalHealth {
        self.health
    }

    /// Reassembles an evaluated design from previously-recorded parts —
    /// the journal-replay path, where every metric was validated when it
    /// was first evaluated and is restored bit-for-bit.
    pub(crate) fn from_parts(
        design: TierDesign,
        cost: Money,
        availability: TierAvailability,
        min_for_perf: u32,
        expected_job_time: Option<Duration>,
        health: EvalHealth,
    ) -> EvaluatedDesign {
        EvaluatedDesign {
            design,
            cost,
            availability,
            min_for_perf,
            expected_job_time,
            health,
        }
    }

    /// Assembles an evaluated design directly from parts, bypassing every
    /// engine and finiteness guard. Test-only: lets guard tests feed
    /// deliberately-broken metrics to downstream code.
    #[cfg(test)]
    pub(crate) fn for_tests(
        design: TierDesign,
        cost: Money,
        availability: TierAvailability,
        expected_job_time: Option<Duration>,
    ) -> EvaluatedDesign {
        EvaluatedDesign {
            design,
            cost,
            availability,
            min_for_perf: 1,
            expected_job_time,
            health: EvalHealth::default(),
        }
    }
}

/// Rejects NaN/∞ evaluation metrics before they can reach a frontier or
/// best-so-far comparison, where they would silently corrupt the ordering.
fn ensure_finite(metric: &str, value: f64) -> Result<(), SearchError> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(SearchError::NonFiniteEvaluation {
            detail: format!("{metric} = {value}"),
        })
    }
}

/// Evaluates a candidate design of an enterprise-service tier under a
/// throughput requirement (`load`): computes the cost, derives the
/// availability model (with `m` from the performance function) and runs
/// the context's availability engine.
///
/// Returns `Ok(None)` when the design cannot meet the load at all (too few
/// active resources).
///
/// # Errors
///
/// Returns [`SearchError`] for unresolvable references or engine failures.
pub fn evaluate_enterprise_design(
    ctx: &EvalContext<'_>,
    option: &ResourceOption,
    td: &TierDesign,
    load: f64,
) -> Result<Option<EvaluatedDesign>, SearchError> {
    evaluate_enterprise_design_in(ctx, option, td, load, &mut EvalSession::new())
}

/// [`evaluate_enterprise_design`] with a caller-owned [`EvalSession`]: the
/// session carries solver scratch, cached chain structure and warm-start
/// state across calls, so sweeps over neighboring designs (the search
/// workers' locality-ordered shards) avoid re-exploring and re-solving from
/// scratch. The result is identical to the session-free path.
///
/// # Errors
///
/// Returns [`SearchError`] for unresolvable references or engine failures.
pub fn evaluate_enterprise_design_in(
    ctx: &EvalContext<'_>,
    option: &ResourceOption,
    td: &TierDesign,
    load: f64,
    session: &mut EvalSession,
) -> Result<Option<EvaluatedDesign>, SearchError> {
    let class = ClassEval::enterprise(ctx, option, td, load, None, session)?;
    Ok(class.map(|c| c.design(td.clone(), None)))
}

/// Evaluates a candidate design of a finite-job tier: cost, availability,
/// and the expected job completion time per §4.2 (loss-window
/// re-execution, checkpoint overhead, downtime scaling).
///
/// Returns `Ok(None)` when the option's performance function yields zero
/// throughput at the design's node count.
///
/// # Errors
///
/// Returns [`SearchError::RequirementMismatch`] when the service declares
/// no job size, or other [`SearchError`] variants for reference/engine
/// failures.
pub fn evaluate_job_design(
    ctx: &EvalContext<'_>,
    option: &ResourceOption,
    td: &TierDesign,
) -> Result<Option<EvaluatedDesign>, SearchError> {
    evaluate_job_design_in(ctx, option, td, &mut EvalSession::new())
}

/// [`evaluate_job_design`] with a caller-owned [`EvalSession`] — the
/// finite-job analogue of [`evaluate_enterprise_design_in`], and the
/// one-candidate case of the search's staged evaluation: the design's
/// availability class is solved, then Eq. (1) runs at the design's own
/// checkpoint settings.
///
/// # Errors
///
/// Returns [`SearchError::RequirementMismatch`] when the service declares
/// no job size, or other [`SearchError`] variants for reference/engine
/// failures.
pub fn evaluate_job_design_in(
    ctx: &EvalContext<'_>,
    option: &ResourceOption,
    td: &TierDesign,
    session: &mut EvalSession,
) -> Result<Option<EvaluatedDesign>, SearchError> {
    let Some(class) = ClassEval::job(ctx, option, td, None, session)? else {
        return Ok(None);
    };
    let resource = ctx
        .infrastructure()
        .resource(td.resource().as_str())
        .ok_or_else(|| ModelError::UnknownResource {
            tier: td.tier().to_string(),
            resource: td.resource().to_string(),
        })?;
    let expected = class.job_time(&JobInputs::of(ctx, option, resource, td)?)?;
    Ok(Some(class.design(td.clone(), Some(expected))))
}

/// What every candidate of one availability class shares: the cost, the
/// solved availability model and — for a finite job — the inputs of
/// Eq. (1) that depend on it. Candidates of a class differ only in
/// performance-only settings (checkpoint interval, storage location),
/// which change neither.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassEval {
    cost: Money,
    availability: TierAvailability,
    health: EvalHealth,
    min_for_perf: u32,
    job: Option<JobClass>,
}

/// The class-wide inputs of Eq. (1).
#[derive(Debug, Clone, Copy)]
struct JobClass {
    n_active: u32,
    /// Failure-free computation time at the class's throughput, in hours.
    base_hours: f64,
    uptime: f64,
    /// The tier's mean time between failures, when finite and nonzero.
    mtbf: Option<Duration>,
}

impl ClassEval {
    /// Solves the class of enterprise-tier design `td` serving `load`;
    /// `Ok(None)` when it has too few actives for the load. `cost` skips
    /// re-costing when the caller already priced the class.
    pub(crate) fn enterprise(
        ctx: &EvalContext<'_>,
        option: &ResourceOption,
        td: &TierDesign,
        load: f64,
        cost: Option<Money>,
        session: &mut EvalSession,
    ) -> Result<Option<ClassEval>, SearchError> {
        let perf = ctx.catalog().resolve_perf(option.performance())?;
        let Some(min_for_perf) = perf.min_active_for(load) else {
            return Ok(None);
        };
        if td.n_active() < min_for_perf {
            return Ok(None);
        }
        let (class, _) = ClassEval::solve(ctx, option, td, min_for_perf, cost, session)?;
        Ok(Some(class))
    }

    /// Solves the class of finite-job design `td`; `Ok(None)` when the
    /// option yields no throughput at its node count.
    pub(crate) fn job(
        ctx: &EvalContext<'_>,
        option: &ResourceOption,
        td: &TierDesign,
        cost: Option<Money>,
        session: &mut EvalSession,
    ) -> Result<Option<ClassEval>, SearchError> {
        let job_size = ctx.job_size()?;
        let perf = ctx.catalog().resolve_perf(option.performance())?;
        let throughput = perf.throughput(td.n_active());
        if throughput <= 0.0 {
            return Ok(None);
        }
        let (mut class, model) = ClassEval::solve(ctx, option, td, td.n_active(), cost, session)?;
        let mtbf = model.tier_failure_rate().mean_time();
        class.job = Some(JobClass {
            n_active: td.n_active(),
            base_hours: job_size / throughput,
            uptime: class.availability.availability().max(f64::MIN_POSITIVE),
            mtbf: (mtbf.seconds().is_finite() && !mtbf.is_zero()).then_some(mtbf),
        });
        Ok(Some(class))
    }

    /// Costs, derives and solves the availability model, rejecting
    /// non-finite metrics.
    fn solve(
        ctx: &EvalContext<'_>,
        option: &ResourceOption,
        td: &TierDesign,
        min_for_perf: u32,
        cost: Option<Money>,
        session: &mut EvalSession,
    ) -> Result<(ClassEval, TierModel), SearchError> {
        let cost = match cost {
            Some(cost) => cost,
            None => tier_design_cost(ctx.infrastructure(), td)?.total(),
        };
        ensure_finite("cost", cost.dollars())?;
        let model = derive_tier_model(
            ctx.infrastructure(),
            td,
            option.sizing(),
            option.failure_scope(),
            min_for_perf,
        )?;
        let (availability, health) = ctx.engine().evaluate_with_session(&model, session)?;
        ensure_finite("unavailability", availability.unavailability())?;
        let class = ClassEval {
            cost,
            availability,
            health,
            min_for_perf,
            job: None,
        };
        Ok((class, model))
    }

    pub(crate) fn cost(&self) -> Money {
        self.cost
    }

    pub(crate) fn health(&self) -> EvalHealth {
        self.health
    }

    pub(crate) fn annual_downtime(&self) -> Duration {
        self.availability.annual_downtime()
    }

    /// Eq. (1) at one grid point: the expected completion time under the
    /// point's checkpoint settings.
    pub(crate) fn job_time(&self, inputs: &JobInputs) -> Result<Duration, SearchError> {
        let Some(job) = self.job else {
            return Err(SearchError::RequirementMismatch {
                detail: "service declares no jobsize".into(),
            });
        };
        // Failure-free computation time, inflated by checkpoint overhead
        // when the option uses a checkpoint mechanism with an mperformance
        // function.
        let mut multiplier = 1.0;
        for (mperf, storage, interval) in &inputs.checkpoints {
            multiplier *= mperf.multiplier(*storage, *interval, job.n_active);
        }
        let work_time = Duration::from_hours(job.base_hours * multiplier);
        let mut params = JobParams::new(work_time).with_uptime_fraction(job.uptime);
        if let Some(mtbf) = job.mtbf {
            params = params.with_system_mtbf(mtbf);
        }
        if let Some(lw) = inputs.loss_window {
            params = params.with_loss_window(lw);
        }
        let expected = params.expected_completion();
        ensure_finite("expected job time", expected.seconds())?;
        Ok(expected)
    }

    /// The evaluated design of class member `td`.
    pub(crate) fn design(
        &self,
        td: TierDesign,
        expected_job_time: Option<Duration>,
    ) -> EvaluatedDesign {
        EvaluatedDesign {
            design: td,
            cost: self.cost,
            availability: self.availability,
            min_for_perf: self.min_for_perf,
            expected_job_time,
            health: self.health,
        }
    }
}

/// The performance-only inputs of Eq. (1) that one settings combination
/// fixes: each checkpoint mechanism's overhead function, storage location
/// and interval, and the loss window.
#[derive(Debug, Clone)]
pub(crate) struct JobInputs {
    checkpoints: Vec<(CheckpointOverhead, StorageLocation, Duration)>,
    loss_window: Option<Duration>,
}

impl JobInputs {
    /// Reads the inputs of a design of `option` on `resource` from
    /// `settings`.
    pub(crate) fn of(
        ctx: &EvalContext<'_>,
        option: &ResourceOption,
        resource: &ResourceType,
        settings: &impl Settings,
    ) -> Result<JobInputs, SearchError> {
        let (storage_location, checkpoint_interval) = (
            ParamName::new("storage_location"),
            ParamName::new("checkpoint_interval"),
        );
        let mut checkpoints = Vec::new();
        for mu in option.mechanisms() {
            let Some(mperf_name) = mu.mperformance() else {
                continue;
            };
            let mperf = ctx.catalog().resolve_mperf(mperf_name)?;
            let storage = match settings.get(mu.mechanism(), &storage_location) {
                Some(ParamValue::Level(l)) => l
                    .parse()
                    .map_err(|e: String| SearchError::RequirementMismatch { detail: e })?,
                _ => StorageLocation::Central,
            };
            let interval = match settings.get(mu.mechanism(), &checkpoint_interval) {
                Some(ParamValue::Duration(d)) => d,
                _ => {
                    return Err(SearchError::RequirementMismatch {
                        detail: format!(
                            "design does not set {}.checkpoint_interval",
                            mu.mechanism()
                        ),
                    })
                }
            };
            checkpoints.push((mperf, storage, interval));
        }
        Ok(JobInputs {
            checkpoints,
            loss_window: loss_window(ctx.infrastructure(), resource, settings)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{app_tier_fixture, job_fixture};
    use aved_avail::CtmcEngine;
    use aved_model::{ParamValue, SpareMode};

    #[test]
    fn enterprise_evaluation_produces_cost_and_downtime() {
        let fx = app_tier_fixture();
        let engine = CtmcEngine::default();
        let ctx = fx.context(&engine);
        let option = ctx.tier("application").unwrap().option_for("rC").unwrap();
        let td = TierDesign::new("application", "rC", 3, 0).with_setting(
            "maintenanceA",
            "level",
            ParamValue::Level("bronze".into()),
        );
        let e = evaluate_enterprise_design(&ctx, option, &td, 400.0)
            .unwrap()
            .unwrap();
        // 3 machines + apps + 3 bronze contracts.
        assert_eq!(e.cost().dollars(), 3.0 * (2640.0 + 1700.0) + 3.0 * 380.0);
        assert_eq!(e.min_for_perf(), 2);
        assert_eq!(e.n_extra(), 1);
        assert!(e.annual_downtime().minutes() > 0.0);
        assert!(e.expected_job_time().is_none());
    }

    #[test]
    fn insufficient_actives_is_not_a_candidate() {
        let fx = app_tier_fixture();
        let engine = CtmcEngine::default();
        let ctx = fx.context(&engine);
        let option = ctx.tier("application").unwrap().option_for("rC").unwrap();
        let td = TierDesign::new("application", "rC", 2, 0).with_setting(
            "maintenanceA",
            "level",
            ParamValue::Level("bronze".into()),
        );
        // load 1000 needs 5 rC machines.
        assert!(evaluate_enterprise_design(&ctx, option, &td, 1000.0)
            .unwrap()
            .is_none());
    }

    #[test]
    fn better_contract_reduces_downtime_and_raises_cost() {
        let fx = app_tier_fixture();
        let engine = CtmcEngine::default();
        let ctx = fx.context(&engine);
        let option = ctx.tier("application").unwrap().option_for("rC").unwrap();
        let mk = |level: &str| {
            let td = TierDesign::new("application", "rC", 2, 0).with_setting(
                "maintenanceA",
                "level",
                ParamValue::Level(level.into()),
            );
            evaluate_enterprise_design(&ctx, option, &td, 400.0)
                .unwrap()
                .unwrap()
        };
        let bronze = mk("bronze");
        let platinum = mk("platinum");
        assert!(platinum.cost() > bronze.cost());
        assert!(platinum.annual_downtime() < bronze.annual_downtime());
    }

    #[test]
    fn job_evaluation_produces_completion_time() {
        let fx = job_fixture();
        let engine = CtmcEngine::default();
        let ctx = fx.context(&engine);
        let option = ctx.tier("computation").unwrap().option_for("rH").unwrap();
        let td = TierDesign::new("computation", "rH", 50, 1)
            .with_spare_mode(SpareMode::AllInactive)
            .with_setting("maintenanceA", "level", ParamValue::Level("bronze".into()))
            .with_setting(
                "checkpoint",
                "storage_location",
                ParamValue::Level("peer".into()),
            )
            .with_setting(
                "checkpoint",
                "checkpoint_interval",
                ParamValue::Duration(aved_units::Duration::from_hours(1.0)),
            );
        let e = evaluate_job_design(&ctx, option, &td).unwrap().unwrap();
        let t = e.expected_job_time().unwrap();
        // Failure-free time: 10000 / (10*50/1.2) = 24 h; overheads push it up.
        assert!(t.hours() > 24.0, "got {}", t.hours());
        assert!(t.hours() < 40.0, "got {}", t.hours());
    }

    #[test]
    fn shorter_checkpoint_interval_trades_overhead_for_loss() {
        let fx = job_fixture();
        let engine = CtmcEngine::default();
        let ctx = fx.context(&engine);
        let option = ctx.tier("computation").unwrap().option_for("rH").unwrap();
        let eval = |mins: f64| {
            let td = TierDesign::new("computation", "rH", 50, 0)
                .with_setting("maintenanceA", "level", ParamValue::Level("bronze".into()))
                .with_setting(
                    "checkpoint",
                    "storage_location",
                    ParamValue::Level("peer".into()),
                )
                .with_setting(
                    "checkpoint",
                    "checkpoint_interval",
                    ParamValue::Duration(aved_units::Duration::from_mins(mins)),
                );
            evaluate_job_design(&ctx, option, &td)
                .unwrap()
                .unwrap()
                .expected_job_time()
                .unwrap()
        };
        // Very short intervals drown in checkpoint overhead; very long ones
        // in re-execution. An intermediate interval beats both.
        let short = eval(1.0);
        let mid = eval(120.0);
        let long = eval(1440.0);
        assert!(mid < short, "mid {} short {}", mid.hours(), short.hours());
        assert!(mid < long, "mid {} long {}", mid.hours(), long.hours());
    }

    #[test]
    fn nan_engine_results_are_rejected_before_any_comparison() {
        let fx = app_tier_fixture();
        let inner = CtmcEngine::default();
        let engine = aved_avail::FaultInjectingEngine::new(&inner)
            .with_fault_at(0, aved_avail::InjectedFault::NanResult);
        let ctx = fx.context(&engine);
        let option = ctx.tier("application").unwrap().option_for("rC").unwrap();
        let td = TierDesign::new("application", "rC", 3, 0).with_setting(
            "maintenanceA",
            "level",
            ParamValue::Level("bronze".into()),
        );
        assert!(matches!(
            evaluate_enterprise_design(&ctx, option, &td, 400.0),
            Err(SearchError::NonFiniteEvaluation { .. })
        ));
    }

    #[test]
    fn job_requires_jobsize() {
        let fx = app_tier_fixture();
        let engine = CtmcEngine::default();
        let ctx = fx.context(&engine);
        let option = ctx.tier("application").unwrap().option_for("rC").unwrap();
        let td = TierDesign::new("application", "rC", 2, 0).with_setting(
            "maintenanceA",
            "level",
            ParamValue::Level("bronze".into()),
        );
        assert!(matches!(
            evaluate_job_design(&ctx, option, &td),
            Err(SearchError::RequirementMismatch { .. })
        ));
    }
}
