//! Multi-tier composition and refinement (paper §4.1, first paragraph).

use std::time::Instant;

use aved_avail::combine_series;
use aved_model::Design;
use aved_units::{Duration, Money};

use crate::parallel::{effective_jobs, parallel_map, BestCost};
use crate::{
    tier_pareto_frontier_with_health, EvalContext, EvaluatedDesign, SearchError, SearchHealth,
    SearchOptions,
};

/// A complete multi-tier design with its evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceDesign {
    tiers: Vec<EvaluatedDesign>,
    cost: Money,
    annual_downtime: Duration,
}

impl ServiceDesign {
    /// The per-tier evaluated designs.
    #[must_use]
    pub fn tiers(&self) -> &[EvaluatedDesign] {
        &self.tiers
    }

    /// Total annual cost.
    #[must_use]
    pub fn cost(&self) -> Money {
        self.cost
    }

    /// Expected service-level annual downtime (tiers in series).
    #[must_use]
    pub fn annual_downtime(&self) -> Duration {
        self.annual_downtime
    }

    /// Converts to a plain [`Design`].
    #[must_use]
    pub fn to_design(&self) -> Design {
        Design::new(self.tiers.iter().map(|t| t.design().clone()).collect())
    }
}

fn compose(tiers: &[EvaluatedDesign]) -> (Money, Duration) {
    let cost = tiers.iter().map(EvaluatedDesign::cost).sum();
    let availabilities: Vec<_> = tiers.iter().map(|t| *t.availability()).collect();
    let service = combine_series(&availabilities);
    (cost, service.annual_downtime())
}

/// Largest frontier cross product we enumerate exactly before switching to
/// the greedy refinement.
const EXACT_COMPOSITION_LIMIT: usize = 250_000;

/// Exhaustive minimum-cost composition over the frontier cross product.
///
/// The flat index range is split into one contiguous chunk per worker;
/// each chunk scans ascending with a local best and a shared [`BestCost`]
/// cell pruning strictly-more-expensive compositions, and the chunk optima
/// merge by `(cost, flat index)` — the same "cheapest, earliest" winner the
/// serial ascending scan selects, at any worker count.
fn compose_exact(
    frontiers: &[Vec<EvaluatedDesign>],
    max_downtime: Duration,
    jobs: usize,
) -> Option<ServiceDesign> {
    let sizes: Vec<usize> = frontiers.iter().map(Vec::len).collect();
    let total: usize = sizes.iter().product();
    let best_cost = BestCost::new();
    let chunk = total.div_ceil(jobs.max(1)).max(1);
    let ranges: Vec<std::ops::Range<usize>> = (0..total)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(total))
        .collect();
    let per_chunk = parallel_map(jobs, &ranges, |_, range| {
        let mut local: Option<(Money, usize)> = None;
        for flat in range.clone() {
            let mut rem = flat;
            let mut cost = Money::ZERO;
            let mut availability = 1.0;
            for (f, &size) in frontiers.iter().zip(&sizes) {
                let i = rem % size;
                rem /= size;
                cost += f[i].cost();
                availability *= f[i].availability().availability();
            }
            // Only strictly cheaper compositions displace a known feasible
            // one; equal-cost ones stay recorded locally so the merge can
            // fall back to the smallest flat index, exactly like the
            // serial ascending scan.
            if local.is_some_and(|(c, _)| cost >= c) || best_cost.beats(cost) {
                continue;
            }
            let downtime = Duration::from_mins((1.0 - availability) * aved_units::MINUTES_PER_YEAR);
            if downtime <= max_downtime {
                best_cost.offer(cost);
                local = Some((cost, flat));
            }
        }
        local
    });
    let best = per_chunk
        .into_iter()
        .flatten()
        .min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    best.map(|(_, flat)| {
        let mut rem = flat;
        let tiers: Vec<EvaluatedDesign> = frontiers
            .iter()
            .zip(&sizes)
            .map(|(f, &size)| {
                let i = rem % size;
                rem /= size;
                f[i].clone()
            })
            .collect();
        let (cost, annual_downtime) = compose(&tiers);
        ServiceDesign {
            tiers,
            cost,
            annual_downtime,
        }
    })
}

/// Finds the minimum-cost multi-tier design meeting a service-level
/// throughput and downtime requirement.
///
/// Following §4.1: each tier is first optimized in isolation (its own
/// cost/downtime frontier, computed as if the other tiers never fail). If
/// the combination of the individually-cheapest designs already meets the
/// service downtime requirement, it is optimal. Otherwise the design is
/// refined by repeatedly upgrading, among all tiers, the one whose next
/// frontier step buys downtime at the lowest marginal cost — "making the
/// requirements for that tier incrementally more aggressive" — until the
/// service requirement holds or every frontier is exhausted.
///
/// Candidate evaluation failures are isolated to the failing candidate
/// (unless [`SearchOptions::strict`]); use
/// [`search_service_with_health`] to see how degraded the run was.
///
/// # Errors
///
/// Returns [`SearchError`] for evaluation failures; an unsatisfiable
/// requirement yields `Ok(None)`.
pub fn search_service(
    ctx: &EvalContext<'_>,
    load: f64,
    max_downtime: Duration,
    options: &SearchOptions,
) -> Result<Option<ServiceDesign>, SearchError> {
    search_service_with_health(ctx, load, max_downtime, options).map(|(d, _)| d)
}

/// Like [`search_service`], additionally reporting the aggregated
/// [`SearchHealth`] of every per-tier frontier sweep: candidates skipped
/// after evaluation failures, solver fallbacks taken, the worst accepted
/// residual, and the total wall time.
///
/// # Errors
///
/// Returns [`SearchError`] for evaluation failures; an unsatisfiable
/// requirement yields `Ok((None, health))`.
pub fn search_service_with_health(
    ctx: &EvalContext<'_>,
    load: f64,
    max_downtime: Duration,
    options: &SearchOptions,
) -> Result<(Option<ServiceDesign>, SearchHealth), SearchError> {
    let started = Instant::now();
    let jobs = effective_jobs(options.jobs);
    let mut health = SearchHealth {
        jobs,
        ..SearchHealth::default()
    };
    let tier_names: Vec<String> = ctx
        .service()
        .tiers()
        .iter()
        .map(|t| t.name().as_str().to_owned())
        .collect();

    // Per-tier frontiers, cheapest first.
    let mut frontiers: Vec<Vec<EvaluatedDesign>> = Vec::with_capacity(tier_names.len());
    for name in &tier_names {
        let (f, tier_health) = tier_pareto_frontier_with_health(ctx, name, load, options)?;
        health.merge(tier_health);
        if f.is_empty() {
            health.wall_time = started.elapsed();
            return Ok((None, health)); // a tier cannot support the load at all
        }
        frontiers.push(f);
    }

    // Exact composition when the cross product is small (the common case:
    // frontiers have tens of steps); greedy marginal-cost refinement as
    // the scalable fallback.
    let product: usize = frontiers.iter().map(Vec::len).product();
    if product <= EXACT_COMPOSITION_LIMIT {
        let composing = Instant::now();
        let found = compose_exact(&frontiers, max_downtime, jobs);
        health.merge_time += composing.elapsed();
        health.wall_time = started.elapsed();
        return Ok((found, health));
    }

    // Start from the individually-cheapest choices.
    let mut index: Vec<usize> = vec![0; frontiers.len()];
    loop {
        let current: Vec<EvaluatedDesign> = index
            .iter()
            .zip(frontiers.iter())
            .map(|(&i, f)| f[i].clone())
            .collect();
        let (cost, downtime) = compose(&current);
        if downtime <= max_downtime {
            health.wall_time = started.elapsed();
            return Ok((
                Some(ServiceDesign {
                    tiers: current,
                    cost,
                    annual_downtime: downtime,
                }),
                health,
            ));
        }
        // Upgrade the tier with the best marginal downtime reduction per
        // dollar.
        let mut best_step: Option<(usize, f64)> = None;
        for (t, f) in frontiers.iter().enumerate() {
            let i = index[t];
            if i + 1 >= f.len() {
                continue;
            }
            let delta_cost = (f[i + 1].cost() - f[i].cost()).dollars();
            let delta_downtime =
                f[i].annual_downtime().minutes() - f[i + 1].annual_downtime().minutes();
            if delta_downtime <= 0.0 {
                continue;
            }
            let ratio = delta_cost / delta_downtime;
            if best_step.is_none_or(|(_, r)| ratio < r) {
                best_step = Some((t, ratio));
            }
        }
        match best_step {
            Some((t, _)) => index[t] += 1,
            None => {
                health.wall_time = started.elapsed();
                return Ok((None, health)); // frontiers exhausted
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::app_tier_fixture;
    use aved_avail::DecompositionEngine;

    fn small_opts() -> SearchOptions {
        SearchOptions {
            max_extra_active: 2,
            max_spares: 1,
            ..SearchOptions::default()
        }
    }

    #[test]
    fn three_tier_service_meets_requirement() {
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let design = search_service(&ctx, 400.0, Duration::from_mins(5000.0), &small_opts())
            .unwrap()
            .expect("feasible");
        assert_eq!(design.tiers().len(), 3);
        assert!(design.annual_downtime() <= Duration::from_mins(5000.0));
        let d = design.to_design();
        assert!(d.tier("web").is_some());
        assert!(d.tier("application").is_some());
        assert!(d.tier("database").is_some());
    }

    #[test]
    fn tighter_service_budget_costs_more() {
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let loose = search_service(&ctx, 400.0, Duration::from_mins(8000.0), &small_opts())
            .unwrap()
            .unwrap();
        let tight = search_service(&ctx, 400.0, Duration::from_mins(800.0), &small_opts())
            .unwrap()
            .unwrap();
        assert!(tight.cost() >= loose.cost());
        assert!(tight.annual_downtime() <= Duration::from_mins(800.0));
    }

    #[test]
    fn impossible_budget_returns_none() {
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let out = search_service(&ctx, 400.0, Duration::from_secs(0.0001), &small_opts()).unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn injected_failure_does_not_change_the_service_winner() {
        // Baseline run, instrumented only to count engine calls.
        let fx = app_tier_fixture();
        let inner = DecompositionEngine::default();
        let counting = aved_avail::FaultInjectingEngine::new(&inner);
        let ctx = fx.context(&counting);
        let budget = Duration::from_mins(5000.0);
        let (baseline, base_health) =
            search_service_with_health(&ctx, 400.0, budget, &small_opts()).unwrap();
        let baseline = baseline.expect("feasible");
        assert!(!base_health.is_degraded());
        let n_calls = counting.calls();
        assert!(n_calls > 1);

        // Kill the last evaluated candidate: under a loose budget the
        // winner is a cheap composition, never the maximal-redundancy tail
        // candidate evaluated last.
        let faulty = aved_avail::FaultInjectingEngine::new(&inner)
            .with_fault_at(n_calls - 1, aved_avail::InjectedFault::NonConvergence);
        let ctx = fx.context(&faulty);
        let (found, health) =
            search_service_with_health(&ctx, 400.0, budget, &small_opts()).unwrap();
        let found = found.expect("search completes despite the failure");
        assert_eq!(found.cost(), baseline.cost());
        assert_eq!(found.to_design(), baseline.to_design());
        assert_eq!(health.candidates_skipped(), 1);
        assert_eq!(faulty.injected(), 1);
    }

    #[test]
    fn parallel_service_search_matches_serial() {
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let budget = Duration::from_mins(800.0);
        let serial = search_service(&ctx, 400.0, budget, &small_opts())
            .unwrap()
            .unwrap();
        for jobs in [2, 8] {
            let parallel = search_service(&ctx, 400.0, budget, &small_opts().with_jobs(jobs))
                .unwrap()
                .unwrap();
            assert_eq!(parallel.cost(), serial.cost(), "jobs={jobs}");
            assert_eq!(parallel.to_design(), serial.to_design(), "jobs={jobs}");
            assert_eq!(parallel.annual_downtime(), serial.annual_downtime());
        }
    }

    #[test]
    fn strict_service_search_fails_fast() {
        let fx = app_tier_fixture();
        let inner = DecompositionEngine::default();
        let faulty = aved_avail::FaultInjectingEngine::new(&inner)
            .with_fault_at(0, aved_avail::InjectedFault::NonConvergence);
        let ctx = fx.context(&faulty);
        let strict = small_opts().with_strict();
        let err = search_service(&ctx, 400.0, Duration::from_mins(5000.0), &strict).unwrap_err();
        assert!(matches!(err, crate::SearchError::Avail(_)), "{err}");
    }

    #[test]
    fn service_downtime_dominates_each_tier() {
        // Service downtime (series) is at least every single tier's.
        let fx = app_tier_fixture();
        let engine = DecompositionEngine::default();
        let ctx = fx.context(&engine);
        let design = search_service(&ctx, 800.0, Duration::from_mins(6000.0), &small_opts())
            .unwrap()
            .unwrap();
        for tier in design.tiers() {
            assert!(design.annual_downtime() >= tier.annual_downtime() * 0.999);
        }
    }
}
