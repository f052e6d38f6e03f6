//! The reference every benchmark answer is checked against.
//!
//! Each query is answered a second time, outside the timed region, by the
//! search layer directly over the raw engine: no model cache, no
//! dominance pruning, no warm starts, one worker. On the first few queries
//! of a run the winner's cost is also checked against a brute-force
//! minimum that shares no selection logic with the search.

use aved::avail::AvailabilityEngine;
use aved::model::{tier_design_cost, TierDesign};
use aved::search::{
    enumerate_tier_candidates, evaluate_job_design, search_job_tier, search_service_with_health,
    tier_pareto_frontier, EvalContext,
};
use aved::{Catalog, DesignReport, SearchOptions, ServiceRequirement};

use crate::workload::{load_models, Models, Workload};

/// Relative tolerance on the winner's downtime or job time.
const METRIC_RTOL: f64 = 1e-9;

/// The part of a design answer the reference check compares.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The winner's tier designs.
    pub tiers: Vec<TierDesign>,
    /// The winner's annual cost, in dollars.
    pub cost: f64,
    /// Annual downtime in minutes (enterprise) or expected job time in
    /// hours (job).
    pub metric: f64,
}

impl Answer {
    /// The comparable part of a facade report.
    #[must_use]
    pub fn from_report(report: &DesignReport) -> Answer {
        let metric = match report.expected_job_time() {
            Some(t) => t.hours(),
            None => report.annual_downtime().map_or(f64::NAN, |d| d.minutes()),
        };
        Answer {
            tiers: report.design().tiers().to_vec(),
            cost: report.cost().dollars(),
            metric,
        }
    }
}

/// Why an answer differs from the reference, or `None` when it matches:
/// the same feasibility, bit-identical tier designs and cost, and a
/// metric within [`METRIC_RTOL`] (a NaN metric never matches).
#[must_use]
pub fn mismatch(got: Option<&Answer>, want: Option<&Answer>) -> Option<String> {
    match (got, want) {
        (None, None) => None,
        (Some(_), None) => Some("answered a design where the reference found none".into()),
        (None, Some(_)) => Some("found no design where the reference found one".into()),
        (Some(g), Some(w)) => {
            let metric_close = (g.metric - w.metric).abs() <= METRIC_RTOL * w.metric.abs();
            if g.tiers != w.tiers {
                Some(format!("designs differ: {:?} vs {:?}", g.tiers, w.tiers))
            } else if g.cost.to_bits() != w.cost.to_bits() {
                Some(format!("costs differ: {} vs {}", g.cost, w.cost))
            } else if !metric_close {
                Some(format!("metrics differ: {} vs {}", g.metric, w.metric))
            } else {
                None
            }
        }
    }
}

/// The reference searcher for one workload.
pub struct Reference {
    models: Models,
    catalog: Catalog,
    engine: Box<dyn AvailabilityEngine>,
    options: SearchOptions,
}

impl Reference {
    /// Loads the workload's models and a fresh raw engine.
    ///
    /// # Errors
    ///
    /// Returns a message when a spec cannot be read or parsed.
    pub fn new(root: &std::path::Path, workload: Workload) -> Result<Reference, String> {
        Ok(Reference {
            models: load_models(root, workload)?,
            catalog: aved::scenario::catalog(),
            engine: workload.engine(),
            options: workload
                .options()
                .without_pruning()
                .without_warm_start()
                .with_jobs(1),
        })
    }

    fn context(&self) -> EvalContext<'_> {
        EvalContext::new(
            &self.models.infrastructure,
            &self.models.service,
            &self.catalog,
            self.engine.as_ref(),
        )
    }

    /// The reference answer to `requirement`.
    ///
    /// # Errors
    ///
    /// Returns the search error, or a message when the reference search
    /// itself was degraded.
    pub fn answer(&self, requirement: &ServiceRequirement) -> Result<Option<Answer>, String> {
        let ctx = self.context();
        let (answer, health) = match requirement {
            ServiceRequirement::Enterprise {
                min_throughput,
                max_annual_downtime,
            } => {
                let (found, health) = search_service_with_health(
                    &ctx,
                    *min_throughput,
                    *max_annual_downtime,
                    &self.options,
                )
                .map_err(|e| e.to_string())?;
                let answer = found.map(|sd| Answer {
                    tiers: sd.tiers().iter().map(|t| t.design().clone()).collect(),
                    cost: sd.cost().dollars(),
                    metric: sd.annual_downtime().minutes(),
                });
                (answer, health)
            }
            ServiceRequirement::Job { max_execution_time } => {
                let tier = self.job_tier()?;
                let outcome = search_job_tier(&ctx, tier, *max_execution_time, &self.options)
                    .map_err(|e| e.to_string())?;
                let answer = outcome.best().map(|best| Answer {
                    tiers: vec![best.design().clone()],
                    cost: best.cost().dollars(),
                    metric: best.expected_job_time().map_or(f64::NAN, |t| t.hours()),
                });
                (answer, outcome.health().clone())
            }
        };
        if health.is_degraded() || health.budget_exhausted > 0 {
            return Err(format!("reference search degraded: {health}"));
        }
        Ok(answer)
    }

    fn job_tier(&self) -> Result<&str, String> {
        match self.models.service.tiers() {
            [tier] => Ok(tier.name().as_str()),
            _ => Err("job requirements apply to single-tier services".into()),
        }
    }

    /// The minimum feasible cost, in dollars, found without the search's
    /// selection logic.
    ///
    /// Enterprise: every combination of one design per tier frontier, as
    /// the multi-tier brute-force test composes them. Job: every
    /// `enumerate_tier_candidates` output of every resource option, from
    /// the failure-free minimum node count upwards, until the cheapest
    /// candidate of a count costs more than the best feasible design found
    /// (every extra node adds cost, which the sweep checks as it goes).
    ///
    /// # Errors
    ///
    /// Returns a message on evaluation errors, or when the cheapest cost
    /// per node count is found to decrease.
    pub fn brute_force_cost(
        &self,
        requirement: &ServiceRequirement,
    ) -> Result<Option<f64>, String> {
        match requirement {
            ServiceRequirement::Enterprise {
                min_throughput,
                max_annual_downtime,
            } => self.brute_force_enterprise(*min_throughput, max_annual_downtime.minutes()),
            ServiceRequirement::Job { max_execution_time } => {
                self.brute_force_job(max_execution_time.hours())
            }
        }
    }

    fn brute_force_enterprise(&self, load: f64, max_minutes: f64) -> Result<Option<f64>, String> {
        let ctx = self.context();
        let mut frontiers = Vec::new();
        for tier in self.models.service.tiers() {
            let f = tier_pareto_frontier(&ctx, tier.name().as_str(), load, &self.options)
                .map_err(|e| e.to_string())?;
            if f.is_empty() {
                return Ok(None);
            }
            frontiers.push(f);
        }
        let sizes: Vec<usize> = frontiers.iter().map(Vec::len).collect();
        let mut best: Option<f64> = None;
        for flat in 0..sizes.iter().product::<usize>() {
            let (mut rem, mut cost, mut availability) = (flat, 0.0, 1.0);
            for (f, &size) in frontiers.iter().zip(&sizes) {
                let choice = &f[rem % size];
                rem /= size;
                cost += choice.cost().dollars();
                availability *= choice.availability().availability();
            }
            let minutes = (1.0 - availability) * aved::units::MINUTES_PER_YEAR;
            if minutes <= max_minutes && best.is_none_or(|b| cost < b) {
                best = Some(cost);
            }
        }
        Ok(best)
    }

    fn brute_force_job(&self, max_hours: f64) -> Result<Option<f64>, String> {
        let ctx = self.context();
        let service = &self.models.service;
        let infrastructure = &self.models.infrastructure;
        let job_size = service.job_size().ok_or("service declares no jobsize")?;
        let tier = service.tier(self.job_tier()?).ok_or("job tier missing")?;
        let mut best: Option<f64> = None;
        for option in tier.options() {
            let perf = self
                .catalog
                .resolve_perf(option.performance())
                .map_err(|e| e.to_string())?;
            let Some(min_nodes) = perf.min_active_for(job_size / max_hours) else {
                continue;
            };
            let Some(start) = option.n_active().next_at_or_above(min_nodes.max(1)) else {
                continue;
            };
            let max_total =
                option.n_active().max_value().unwrap_or(start) + self.options.max_spares;
            let mut previous_cheapest = 0.0;
            for n_total in start..=max_total {
                let candidates = enumerate_tier_candidates(
                    infrastructure,
                    tier.name(),
                    option,
                    n_total,
                    start,
                    &self.options,
                );
                let mut cheapest = f64::INFINITY;
                for td in &candidates {
                    let cost = tier_design_cost(infrastructure, td)
                        .map_err(|e| e.to_string())?
                        .total()
                        .dollars();
                    cheapest = cheapest.min(cost);
                    if best.is_some_and(|b| cost > b) {
                        continue;
                    }
                    let evaluated =
                        evaluate_job_design(&ctx, option, td).map_err(|e| e.to_string())?;
                    let meets = evaluated
                        .and_then(|e| e.expected_job_time())
                        .is_some_and(|t| t.hours() <= max_hours);
                    if meets && best.is_none_or(|b| cost < b) {
                        best = Some(cost);
                    }
                }
                if cheapest < previous_cheapest {
                    return Err(format!(
                        "{}: cheapest design at {n_total} nodes costs less than at {} nodes",
                        option.resource(),
                        n_total - 1
                    ));
                }
                previous_cheapest = cheapest;
                if best.is_some_and(|b| cheapest > b) {
                    break;
                }
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(cost: f64, metric: f64) -> Answer {
        Answer {
            tiers: Vec::new(),
            cost,
            metric,
        }
    }

    #[test]
    fn mismatch_compares_feasibility_cost_bits_and_metric() {
        let a = answer(100.0, 50.0);
        assert_eq!(mismatch(Some(&a), Some(&a)), None);
        assert_eq!(mismatch(None, None), None);
        assert!(mismatch(Some(&a), None).is_some());
        assert!(mismatch(None, Some(&a)).is_some());
        assert!(mismatch(Some(&answer(100.000_001, 50.0)), Some(&a)).is_some());
        assert_eq!(mismatch(Some(&answer(100.0, 50.0 + 1e-12)), Some(&a)), None);
        assert!(mismatch(Some(&answer(100.0, 50.001)), Some(&a)).is_some());
        assert!(mismatch(Some(&answer(100.0, f64::NAN)), Some(&a)).is_some());
    }
}
