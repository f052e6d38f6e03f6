//! The three workloads: which scenario, engine and search bounds each
//! runs, the seeded query generator, and the timed set-up.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use aved::units::Duration;
use aved::{
    AvailabilityEngine, Aved, CtmcEngine, DecompositionEngine, Infrastructure, SearchOptions,
    Service, ServiceRequirement,
};

use crate::engine::{EngineStats, TracingEngine};

/// One benchmark workload. Each stresses a different layer; see
/// `BENCHMARK.json` and `LAYERS.md` for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 4 service, exact CTMC engine, CLI default bounds, jobs 1:
    /// the engine and Markov solves hold almost all of the time.
    EcommerceCtmc,
    /// Fig. 5 job service, decomposition engine, max-spares 3 and
    /// max-extra 6, jobs 1: enumeration, per-candidate work and the model
    /// cache hold almost all of the time.
    ScientificSweep,
    /// Exactly `aved design --paper-ecommerce`: decomposition engine,
    /// default bounds, one worker per CPU.
    EcommerceDefault,
}

/// Enterprise loads span the range where the performance minimum `m` and
/// the viable resource options change; above 10,000 units the database
/// tier cannot carry the load at all.
const LOAD_RANGE: (f64, f64) = (100.0, 9000.0);
/// Downtime limits reach from infeasible (a few minutes a year) to loose.
const DOWNTIME_MINS_RANGE: (f64, f64) = (5.0, 3000.0);
/// Job deadlines from tight (≈100 nodes, a second-long sweep) to loose
/// (eight nodes, ≈10 ms). Looser deadlines all cost the same few
/// milliseconds; sampling them would pile half the queries onto one
/// plateau, where the median query time jumps with the noise of the
/// machine.
const DEADLINE_HOURS_RANGE: (f64, f64) = (20.0, 157.0);

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::EcommerceCtmc,
        Workload::ScientificSweep,
        Workload::EcommerceDefault,
    ];

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::EcommerceCtmc => "ecommerce-ctmc",
            Workload::ScientificSweep => "scientific-sweep",
            Workload::EcommerceDefault => "ecommerce-default",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many distinct queries a run asks. The run asks them in rounds,
    /// the same queries in the same order each round, until its time is
    /// up. A round takes at most about a fifth of a 25-second run today,
    /// so every query is timed at least five times; `ecommerce-default`
    /// asks enough queries for ten of them to lie beyond its 90th
    /// percentile.
    #[must_use]
    pub fn distinct_queries(self) -> usize {
        match self {
            Workload::EcommerceCtmc => 8,
            // An odd count puts the median on one query, not between two.
            Workload::ScientificSweep => 11,
            Workload::EcommerceDefault => 100,
        }
    }

    /// The service model file, relative to the repository root.
    #[must_use]
    pub fn service_file(self) -> &'static str {
        match self {
            Workload::ScientificSweep => "data/scientific.aved",
            _ => "data/ecommerce.aved",
        }
    }

    /// The search bounds and worker count the workload runs with.
    #[must_use]
    pub fn options(self) -> SearchOptions {
        match self {
            Workload::EcommerceCtmc => SearchOptions::default().with_jobs(1),
            Workload::ScientificSweep => SearchOptions {
                max_spares: 3,
                max_extra_active: 6,
                ..SearchOptions::default()
            }
            .with_jobs(1),
            // `jobs = 0` resolves to `available_parallelism`, as the CLI does.
            Workload::EcommerceDefault => SearchOptions::default().with_jobs(0),
        }
    }

    /// A fresh instance of the workload's availability engine. Both
    /// engines are stateless, so every instance answers identically.
    #[must_use]
    pub fn engine(self) -> Box<dyn AvailabilityEngine> {
        match self {
            Workload::EcommerceCtmc => Box::new(CtmcEngine::default()),
            _ => Box::new(DecompositionEngine::default()),
        }
    }

    /// The workload's query stream for `seed`; see [`Queries`].
    #[must_use]
    pub fn queries(self, seed: u64) -> Queries {
        let mut state = seed;
        Queries {
            workload: self,
            shift: [splitmix64(&mut state), splitmix64(&mut state)]
                .map(|bits| unit_interval(bits) / SHIFT_STRATA),
            // Index 0 would open every run with the extreme corner of both
            // ranges (the tightest deadline); index 1 opens it mid-range.
            index: 1,
        }
    }
}

/// The seed shifts every query by less than this fraction of each range.
const SHIFT_STRATA: f64 = 1024.0;

/// An endless, seeded stream of design requirements.
///
/// Points come from a two-dimensional Halton sequence (bases 2 and 3)
/// under a seeded shift, mapped log-uniformly onto the workload's ranges.
/// Every prefix of the stream covers the ranges evenly, so a run's
/// queries hold a fixed mix of cheap and expensive ones. The shift moves
/// each point by less than 1/1024 of the range: every seed asks different
/// questions, in the same strata and order. A larger shift would change
/// the work of a run by more than the machine's own noise: the work of a
/// job query steps up and down with its deadline (7,800 candidates at
/// 56.5 h, 12,300 at 56.8 h, 10,800 at 58 h), and a shift of 1/64 of
/// the range, 3% of a deadline, moved the median query across such a
/// step on some seeds and not on others.
#[derive(Debug, Clone)]
pub struct Queries {
    workload: Workload,
    shift: [f64; 2],
    index: u64,
}

impl Iterator for Queries {
    type Item = ServiceRequirement;

    fn next(&mut self) -> Option<ServiceRequirement> {
        let u = [
            (radical_inverse(2, self.index) + self.shift[0]).fract(),
            (radical_inverse(3, self.index) + self.shift[1]).fract(),
        ];
        self.index += 1;
        Some(match self.workload {
            Workload::ScientificSweep => {
                ServiceRequirement::job(Duration::from_hours(log_lerp(DEADLINE_HOURS_RANGE, u[0])))
            }
            _ => ServiceRequirement::enterprise(
                log_lerp(LOAD_RANGE, u[0]),
                Duration::from_mins(log_lerp(DOWNTIME_MINS_RANGE, u[1])),
            ),
        })
    }
}

fn log_lerp((lo, hi): (f64, f64), u: f64) -> f64 {
    (lo.ln() + u * (hi.ln() - lo.ln())).exp()
}

/// The van der Corput radical inverse of `i` in `base`.
fn radical_inverse(base: u64, mut i: u64) -> f64 {
    let inv = 1.0 / base as f64;
    let (mut value, mut scale) = (0.0, inv);
    while i > 0 {
        value += (i % base) as f64 * scale;
        i /= base;
        scale *= inv;
    }
    value
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_interval(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// The parsed models a workload runs on.
#[derive(Debug, Clone)]
pub struct Models {
    /// The infrastructure (Fig. 3).
    pub infrastructure: Infrastructure,
    /// The workload's service (Fig. 4 or Fig. 5).
    pub service: Service,
}

/// How long each step of one set-up took.
#[derive(Debug, Clone, Copy)]
pub struct SetupTiming {
    /// Reading and parsing both specification files.
    pub parse: StdDuration,
    /// Validating the infrastructure.
    pub validate: StdDuration,
    /// The whole set-up, up to a ready [`Aved`].
    pub total: StdDuration,
}

/// Reads and parses the infrastructure and the workload's service.
///
/// # Errors
///
/// Returns a message naming the file that could not be read or parsed.
pub fn load_models(root: &Path, workload: Workload) -> Result<Models, String> {
    let read =
        |file: &str| std::fs::read_to_string(root.join(file)).map_err(|e| format!("{file}: {e}"));
    let infrastructure = aved::spec::parse_infrastructure(&read("data/infrastructure.aved")?)
        .map_err(|e| format!("data/infrastructure.aved: {e}"))?;
    let service = aved::spec::parse_service(&read(workload.service_file())?)
        .map_err(|e| format!("{}: {e}", workload.service_file()))?;
    Ok(Models {
        infrastructure,
        service,
    })
}

/// Builds a ready [`Aved`] the way `aved design` does: parse the specs,
/// validate the infrastructure, build the catalog, engine and facade.
/// With `trace`, the workload's engine is wrapped in a [`TracingEngine`]
/// reporting into it.
///
/// # Errors
///
/// Returns a message when a spec cannot be read, parsed or validated.
pub fn set_up(
    root: &Path,
    workload: Workload,
    trace: Option<Arc<EngineStats>>,
) -> Result<(Aved, Service, SetupTiming), String> {
    let started = Instant::now();
    let models = load_models(root, workload)?;
    let parse = started.elapsed();
    let validating = Instant::now();
    models
        .infrastructure
        .validate()
        .map_err(|e| format!("data/infrastructure.aved: {e}"))?;
    let validate = validating.elapsed();
    let aved = Aved::new(models.infrastructure)
        .with_catalog(aved::scenario::catalog())
        .with_search_options(workload.options());
    let aved = match (trace, workload) {
        (Some(stats), _) => aved.with_engine(TracingEngine::new(workload.engine(), stats)),
        (None, Workload::EcommerceCtmc) => aved.with_engine(CtmcEngine::default()),
        (None, _) => aved.with_engine(DecompositionEngine::default()),
    };
    let timing = SetupTiming {
        parse,
        validate,
        total: started.elapsed(),
    };
    Ok((aved, models.service, timing))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_repeat_per_seed_and_differ_across_seeds() {
        let take = |seed| -> Vec<String> {
            Workload::EcommerceCtmc
                .queries(seed)
                .take(8)
                .map(|q| format!("{q:?}"))
                .collect()
        };
        assert_eq!(take(1), take(1));
        assert_ne!(take(1), take(2));
    }

    #[test]
    fn queries_stay_in_range() {
        for q in Workload::ScientificSweep.queries(3).take(200) {
            let ServiceRequirement::Job { max_execution_time } = q else {
                panic!("job workload produced {q:?}");
            };
            let h = max_execution_time.hours();
            assert!((DEADLINE_HOURS_RANGE.0..=DEADLINE_HOURS_RANGE.1).contains(&h));
        }
        for q in Workload::EcommerceDefault.queries(3).take(200) {
            let ServiceRequirement::Enterprise {
                min_throughput,
                max_annual_downtime,
            } = q
            else {
                panic!("enterprise workload produced {q:?}");
            };
            assert!((LOAD_RANGE.0..=LOAD_RANGE.1).contains(&min_throughput));
            let m = max_annual_downtime.minutes();
            assert!((DOWNTIME_MINS_RANGE.0..=DOWNTIME_MINS_RANGE.1).contains(&m));
        }
    }

    #[test]
    fn first_queries_are_stratified() {
        // The first 16 queries put one load in each sixteenth of the (log)
        // range, whatever the seed.
        let mut bins = [0_u32; 16];
        for q in Workload::EcommerceCtmc.queries(9).take(16) {
            let ServiceRequirement::Enterprise { min_throughput, .. } = q else {
                unreachable!()
            };
            let u =
                (min_throughput.ln() - LOAD_RANGE.0.ln()) / (LOAD_RANGE.1.ln() - LOAD_RANGE.0.ln());
            bins[((u * 16.0) as usize).min(15)] += 1;
        }
        assert_eq!(bins, [1; 16]);
    }
}
