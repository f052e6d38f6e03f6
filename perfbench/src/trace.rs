//! The traced run: per-layer metrics, measured from outside the program.
//!
//! The untraced closed loop's queries are asked again through a facade
//! whose engine is wrapped in a [`TracingEngine`] (and once more, next to
//! it, without, for the tracing overhead), with process CPU time
//! sampled around each query and the search counters read from the
//! returned `SearchHealth`. After each query a replay times the layers
//! below the search on a sample of the candidates that query enumerated:
//! `tier_design_cost`, `derive_tier_model` and `evaluate_*_design_in`.
//! Everything stays in memory until the run ends.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aved::avail::{derive_tier_model, EvalSession};
use aved::model::tier_design_cost;
use aved::search::{
    enumerate_tier_candidates, evaluate_enterprise_design_in, evaluate_job_design_in, EvalContext,
    SearchHealth,
};
use aved::{Catalog, SearchOptions, ServiceRequirement};

use crate::engine::{EngineStats, TracingEngine};
use crate::measure::process_cpu_time;
use crate::reference::Answer;
use crate::workload::{load_models, set_up, Models, SetupTiming};
use crate::{ask, disagreement, Config, Metric, QueryRun};

/// Candidates per winning tier that the replay times.
const REPLAY_SAMPLE: usize = 16;

/// Sums over the traced queries.
#[derive(Debug, Default)]
struct Totals {
    queries: f64,
    traced_wall: Duration,
    untraced_wall: Duration,
    cpu: Duration,
    jobs_wall: f64,
    jobs: usize,
    engine_calls: u64,
    engine_busy_ns: u64,
    distinct_models: usize,
    health: SearchHealth,
    worst_residual: f64,
}

/// Sums over the replayed candidate sample.
#[derive(Debug, Default)]
struct Replay {
    calls: u32,
    cost: Duration,
    derive: Duration,
    evaluate: Duration,
    engine_ns: u64,
}

/// Replays `runs` traced and returns the per-layer metrics. A traced
/// answer or health report that differs from the untraced one marks the
/// query failed.
///
/// # Errors
///
/// Returns a message when a spec does not load, a `/proc` reading fails,
/// or a replayed evaluation errors.
pub fn traced_replay(
    config: &Config,
    runs: &[QueryRun],
    setups: &[SetupTiming],
    failures: &mut [Option<String>],
) -> Result<Vec<Metric>, String> {
    let stats = Arc::new(EngineStats::default());
    let (aved, service, _) = set_up(&config.root, config.workload, Some(Arc::clone(&stats)))?;
    let (plain, _, _) = set_up(&config.root, config.workload, None)?;

    let models = load_models(&config.root, config.workload)?;
    let catalog = aved::scenario::catalog();
    let replay_stats = Arc::new(EngineStats::default());
    let replay_engine = TracingEngine::new(config.workload.engine(), Arc::clone(&replay_stats));
    let mut replayer = Replayer {
        ctx: EvalContext::new(
            &models.infrastructure,
            &models.service,
            &catalog,
            &replay_engine,
        ),
        models: &models,
        catalog: &catalog,
        options: config.workload.options(),
        engine: &replay_stats,
        sums: Replay::default(),
    };

    let mut totals = Totals::default();
    for (i, (untraced, failure)) in runs.iter().zip(failures.iter_mut()).enumerate() {
        // The overhead compares this traced call with an untraced call of
        // the same query made next to it, in alternating order, so that
        // neither side profits from running second.
        let requirement = &untraced.requirement;
        let again = if i % 2 == 0 {
            Some(ask(&plain, &service, requirement))
        } else {
            None
        };
        let engine_before = stats.reading();
        let cpu_before = process_cpu_time()?;
        let traced = ask(&aved, &service, requirement);
        let cpu = process_cpu_time()? - cpu_before;
        let engine = stats.reading();
        let again = match again {
            Some(again) => again,
            None => ask(&plain, &service, requirement),
        };

        totals.queries += 1.0;
        totals.traced_wall += traced.wall;
        totals.untraced_wall += again.wall;
        totals.cpu += cpu;
        totals.engine_calls += engine.calls - engine_before.calls;
        totals.engine_busy_ns += engine.busy_ns - engine_before.busy_ns;
        totals.distinct_models += stats.take_distinct_models();

        // A failed untraced call has already marked the query failed.
        let differs = disagreement(&traced, untraced);
        if let (None, Some(d)) = (&*failure, differs) {
            *failure = Some(format!("traced run differs from untraced: {d}"));
        }
        let Ok(t) = &traced.outcome else {
            continue;
        };
        totals.jobs = totals.jobs.max(t.health.jobs);
        totals.jobs_wall += t.health.jobs as f64 * traced.wall.as_secs_f64();
        totals.worst_residual = totals
            .worst_residual
            .max(t.health.worst_residual.unwrap_or(0.0));
        totals.health.merge(t.health.clone());
        if let Some(answer) = &t.answer {
            replayer.sample(requirement, answer)?;
        }
    }
    Ok(metrics(&totals, &replayer.sums, setups))
}

/// Times the layers below the search over the raw engine, outside the
/// traced queries.
struct Replayer<'a> {
    ctx: EvalContext<'a>,
    models: &'a Models,
    catalog: &'a Catalog,
    options: SearchOptions,
    engine: &'a EngineStats,
    sums: Replay,
}

impl Replayer<'_> {
    /// Times up to [`REPLAY_SAMPLE`] candidates per winning tier, drawn
    /// evenly from every candidate the search enumerated at the winner's
    /// resource option and size.
    fn sample(&mut self, requirement: &ServiceRequirement, answer: &Answer) -> Result<(), String> {
        let infrastructure = &self.models.infrastructure;
        let mut session = EvalSession::new();
        for winner in &answer.tiers {
            let tier = self
                .models
                .service
                .tier(winner.tier().as_str())
                .ok_or("winner names an unknown tier")?;
            let option = tier
                .option_for(winner.resource().as_str())
                .ok_or("winner names an unknown resource")?;
            let perf = self
                .catalog
                .resolve_perf(option.performance())
                .map_err(|e| e.to_string())?;
            // The search's own lower bound on active resources.
            let (needed_throughput, load) = match requirement {
                ServiceRequirement::Enterprise { min_throughput, .. } => {
                    (*min_throughput, Some(*min_throughput))
                }
                ServiceRequirement::Job { max_execution_time } => (
                    self.models.service.job_size().unwrap_or(0.0) / max_execution_time.hours(),
                    None,
                ),
            };
            let min_for_perf = perf
                .min_active_for(needed_throughput)
                .ok_or("winner's option cannot meet the load")?;
            let start = option
                .n_active()
                .next_at_or_above(min_for_perf.max(1))
                .ok_or("winner's option cannot meet the load")?;
            let candidates = enumerate_tier_candidates(
                infrastructure,
                tier.name(),
                option,
                winner.n_active() + winner.n_spare(),
                start,
                &self.options,
            );
            let step = candidates.len().div_ceil(REPLAY_SAMPLE).max(1);
            for td in candidates.iter().step_by(step) {
                let timer = Instant::now();
                black_box(tier_design_cost(infrastructure, td).map_err(|e| e.to_string())?);
                self.sums.cost += timer.elapsed();

                // Enterprise tiers are modelled at the performance minimum,
                // job tiers at their active count, as the evaluators do.
                let m = if load.is_some() {
                    min_for_perf
                } else {
                    td.n_active()
                };
                let timer = Instant::now();
                black_box(
                    derive_tier_model(
                        infrastructure,
                        td,
                        option.sizing(),
                        option.failure_scope(),
                        m,
                    )
                    .map_err(|e| e.to_string())?,
                );
                self.sums.derive += timer.elapsed();

                let busy_before = self.engine.reading().busy_ns;
                let timer = Instant::now();
                black_box(
                    match load {
                        Some(load) => {
                            evaluate_enterprise_design_in(&self.ctx, option, td, load, &mut session)
                        }
                        None => evaluate_job_design_in(&self.ctx, option, td, &mut session),
                    }
                    .map_err(|e| e.to_string())?,
                );
                self.sums.evaluate += timer.elapsed();
                self.sums.engine_ns += self.engine.reading().busy_ns - busy_before;
                self.sums.calls += 1;
            }
        }
        Ok(())
    }
}

fn metrics(totals: &Totals, replay: &Replay, setups: &[SetupTiming]) -> Vec<Metric> {
    let h = &totals.health;
    let q = totals.queries.max(1.0);
    let wall_s = totals.traced_wall.as_secs_f64();
    let per_query = |v: f64| v / q;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let candidates = (h.cache_hits + h.cache_misses + h.candidates_pruned) as f64;
    let calls = f64::from(replay.calls.max(1));
    let us_per_call = |d: Duration| d.as_secs_f64() * 1e6 / calls;
    let eval_self = replay
        .evaluate
        .saturating_sub(replay.cost + replay.derive + Duration::from_nanos(replay.engine_ns));
    let engine_s = totals.engine_busy_ns as f64 * 1e-9;
    let setup_us = |pick: fn(&SetupTiming) -> Duration| -> Vec<f64> {
        setups.iter().map(|t| pick(t).as_secs_f64() * 1e6).collect()
    };
    let m = |name, unit, value| Metric::single(name, unit, value);
    vec![
        Metric::median_of("spec.parse_us", "us", &setup_us(|t| t.parse)),
        Metric::median_of("model.validate_us", "us", &setup_us(|t| t.validate)),
        m("search.candidates", "count", per_query(candidates)),
        m(
            "search.enumerate_ms",
            "ms",
            per_query(ms(h.enumeration_time)),
        ),
        m(
            "search.enumerate_share",
            "1",
            ratio(h.enumeration_time.as_secs_f64(), wall_s),
        ),
        m(
            "search.pruned",
            "count",
            per_query(h.candidates_pruned as f64),
        ),
        m(
            "search.prune_ratio",
            "1",
            ratio(h.candidates_pruned as f64, candidates),
        ),
        m("search.cache_hits", "count", per_query(h.cache_hits as f64)),
        m(
            "search.cache_misses",
            "count",
            per_query(h.cache_misses as f64),
        ),
        m(
            "search.cache_hit_ratio",
            "1",
            ratio(h.cache_hits as f64, (h.cache_hits + h.cache_misses) as f64),
        ),
        m("search.solve_ms", "ms", per_query(ms(h.solve_time))),
        m(
            "search.solve_share",
            "1",
            ratio(h.solve_time.as_secs_f64(), wall_s),
        ),
        m("search.eval_self_us", "us", us_per_call(eval_self)),
        m("search.merge_ms", "ms", per_query(ms(h.merge_time))),
        m(
            "search.merge_share",
            "1",
            ratio(h.merge_time.as_secs_f64(), wall_s),
        ),
        m("search.jobs", "count", totals.jobs as f64),
        m(
            "search.parallel_util",
            "1",
            ratio(totals.cpu.as_secs_f64(), totals.jobs_wall),
        ),
        m("model.cost_us", "us", us_per_call(replay.cost)),
        m("avail.derive_us", "us", us_per_call(replay.derive)),
        m(
            "avail.engine_calls",
            "count",
            per_query(totals.engine_calls as f64),
        ),
        m("avail.engine_ms", "ms", per_query(engine_s * 1e3)),
        m(
            "avail.engine_us_per_call",
            "us",
            ratio(engine_s * 1e6, totals.engine_calls as f64),
        ),
        m("avail.engine_share", "1", ratio(engine_s, wall_s)),
        m(
            "avail.distinct_models",
            "count",
            per_query(totals.distinct_models as f64),
        ),
        m(
            "markov.warm_solves",
            "count",
            per_query(h.warm_solves as f64),
        ),
        m("markov.warm_hits", "count", per_query(h.warm_hits as f64)),
        m(
            "markov.rebuilds_avoided",
            "count",
            per_query(h.chain_rebuilds_avoided as f64),
        ),
        m(
            "markov.solver_iterations",
            "count",
            per_query(h.solver_iterations as f64),
        ),
        m(
            "markov.iterations_saved",
            "count",
            per_query(h.iterations_saved as f64),
        ),
        m(
            "markov.fallbacks",
            "count",
            per_query(h.fallbacks_taken as f64),
        ),
        m("markov.worst_residual", "1", totals.worst_residual),
        m(
            "trace.overhead",
            "1",
            ratio(wall_s, totals.untraced_wall.as_secs_f64()),
        ),
    ]
}
