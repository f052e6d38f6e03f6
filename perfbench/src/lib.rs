//! Design-query benchmark for Aved.
//!
//! Each workload runs as a closed loop: one caller asks the public
//! [`aved::Aved::design_with_health`] facade — the call `aved design`
//! makes — for the minimum-cost design of one seeded requirement after
//! another, for a fixed wall-clock time. The run asks a fixed set of
//! queries in rounds and times each query by the median of its rounds.
//! Every answer is then checked, outside the timed region, against an
//! independent reference. A traced run replays the same queries through
//! an engine decorator and per-layer timers to say where the time went.
//! `LAYERS.md` next to this package lists the metrics and what each
//! should move.

pub mod engine;
pub mod measure;
mod reference;
mod trace;
pub mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use aved::search::SearchHealth;
use aved::ServiceRequirement;

use crate::measure::{machine_steal_time, peak_rss_mb, process_cpu_time, quantile};
use crate::reference::{mismatch, Answer, Reference};
use crate::workload::{set_up, SetupTiming, Workload};

/// Set-ups per batch. A run sets up one batch before its loop, one after
/// every round but the last, and one after the loop, and reports the
/// median of them all.
const SETUP_BATCH: usize = 10;
/// Queries per run whose winning cost is also checked by brute force.
const BRUTE_FORCE_QUERIES: usize = 2;
/// Threads answering reference queries side by side; each reference
/// search itself runs on one worker.
const REFERENCE_THREADS: usize = 2;
/// The smallest run whose 90th percentile has ten samples beyond it.
pub const P90_MIN_SAMPLES: usize = 100;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The repository root holding `data/`.
    pub root: PathBuf,
    /// The workload.
    pub workload: Workload,
    /// Seed of the query stream.
    pub seed: u64,
    /// How long the closed loop runs.
    pub duration: Duration,
    /// Replay the queries traced and report per-layer metrics instead of
    /// end-to-end ones.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value: a median when the metric has several samples.
    pub value: f64,
    /// Samples behind `value`.
    pub samples: usize,
    /// First and third quartiles of the samples, when `value` is their
    /// median.
    pub quartiles: Option<(f64, f64)>,
}

impl Metric {
    fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: 1,
            quartiles: None,
        }
    }

    fn median_of(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name,
            unit,
            value: quantile(samples, 0.5),
            samples: samples.len(),
            quartiles: Some((quantile(samples, 0.25), quantile(samples, 0.75))),
        }
    }
}

/// The facade's answer to one query.
#[derive(Debug, Clone)]
struct Outcome {
    /// The winner, or `None` when no design meets the requirement.
    answer: Option<Answer>,
    /// The search's health report.
    health: SearchHealth,
}

/// One call of the closed loop.
#[derive(Debug, Clone)]
struct QueryRun {
    /// The requirement asked.
    requirement: ServiceRequirement,
    /// Wall time of the facade call.
    wall: Duration,
    /// The answer, or the facade's error.
    outcome: Result<Outcome, String>,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Distinct queries.
    pub queries: usize,
    /// Facade calls made: every query, once per round it was asked in.
    pub attempted: usize,
    /// Calls belonging to failed queries.
    pub failed: usize,
    /// Queries that failed, with the first reason each failed.
    pub failures: Vec<(usize, String)>,
    /// Queries with a feasible answer.
    pub feasible: usize,
    /// Queries whose winning cost was also checked by brute force.
    pub brute_forced: usize,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Wall time of each phase of the run, timed or not.
    pub phases: Vec<(&'static str, Duration)>,
    /// CPU time the hypervisor took from this machine during the loop: a
    /// run with much of it was measured on a disturbed machine.
    pub loop_steal: Duration,
}

/// Asks `aved` one query, timing the call.
fn ask(aved: &aved::Aved, service: &aved::Service, requirement: &ServiceRequirement) -> QueryRun {
    let started = Instant::now();
    let result = aved.design_with_health(service, requirement);
    let wall = started.elapsed();
    QueryRun {
        requirement: requirement.clone(),
        wall,
        outcome: result
            .map(|(report, health)| Outcome {
                answer: report.as_ref().map(Answer::from_report),
                health,
            })
            .map_err(|e| e.to_string()),
    }
}

/// Why a facade answer cannot count as a success on its own: an error,
/// or a degraded search (skips, fallbacks, exhausted budgets,
/// interruption).
fn facade_failure(run: &QueryRun) -> Option<String> {
    match &run.outcome {
        Err(e) => Some(format!("facade error: {e}")),
        Ok(o) if o.health.is_degraded() || o.health.budget_exhausted > 0 => {
            Some(format!("degraded search: {}", o.health))
        }
        Ok(_) => None,
    }
}

/// What differs between two answers to the same query, if anything.
fn disagreement(a: &QueryRun, b: &QueryRun) -> Option<String> {
    match (&a.outcome, &b.outcome) {
        (Ok(a), Ok(b)) => mismatch(a.answer.as_ref(), b.answer.as_ref())
            .or_else(|| (a.health != b.health).then(|| "health reports differ".to_owned())),
        (Err(e), _) | (_, Err(e)) => Some(format!("facade error: {e}")),
    }
}

/// Sets up `times` times, appending every timing to `timings` and
/// returning the last facade.
fn repeated_set_up(
    config: &Config,
    times: usize,
    timings: &mut Vec<SetupTiming>,
) -> Result<(aved::Aved, aved::Service), String> {
    let mut ready = None;
    for _ in 0..times {
        let (aved, service, timing) = set_up(&config.root, config.workload, None)?;
        timings.push(timing);
        ready = Some((aved, service));
    }
    ready.ok_or_else(|| "no set-up ran".to_owned())
}

/// Runs one benchmark run.
///
/// # Errors
///
/// Returns a message when the benchmark itself cannot proceed: a spec
/// that does not load, `/proc` readings that fail, or a brute-force sweep
/// that breaks its own assumption. Failed queries are not errors; they are
/// counted in the report.
pub fn run(config: &Config) -> Result<RunReport, String> {
    // Set-ups run in batches: before the loop, between its rounds and
    // after it, so that their median rests on the machine's state over
    // the whole run rather than at one moment.
    let phase = Instant::now();
    let mut setups = Vec::new();
    let (aved, service) = repeated_set_up(config, SETUP_BATCH, &mut setups)?;
    let mut phases = vec![("setup", phase.elapsed())];

    let queries: Vec<ServiceRequirement> = config
        .workload
        .queries(config.seed)
        .take(config.workload.distinct_queries())
        .collect();
    let steal_before = machine_steal_time()?;
    let started = Instant::now();
    // The first round's calls, kept for the checks; later rounds must
    // answer exactly as the first did.
    let mut runs: Vec<QueryRun> = Vec::with_capacity(queries.len());
    let mut walls_ms = vec![Vec::new(); queries.len()];
    let mut repeats_differ = vec![None; queries.len()];
    // CPU time of the query rounds only, not of the set-ups between them.
    let mut cpu = Duration::ZERO;
    let mut done = false;
    while !done {
        let cpu_before = process_cpu_time()?;
        for (i, requirement) in queries.iter().enumerate() {
            let call = ask(&aved, &service, requirement);
            walls_ms[i].push(call.wall.as_secs_f64() * 1e3);
            match runs.get(i) {
                Some(first) => {
                    if repeats_differ[i].is_none() {
                        repeats_differ[i] = disagreement(first, &call)
                            .map(|d| format!("a later round answered differently: {d}"));
                    }
                }
                None => runs.push(call),
            }
            done = runs.len() == queries.len() && started.elapsed() >= config.duration;
            if done {
                break;
            }
        }
        cpu += process_cpu_time()? - cpu_before;
        if !done {
            repeated_set_up(config, SETUP_BATCH, &mut setups)?;
        }
    }
    let loop_wall = started.elapsed();
    let loop_steal = machine_steal_time()?.saturating_sub(steal_before);
    let peak_rss = peak_rss_mb()?;
    drop(aved);
    phases.push(("loop", loop_wall));
    repeated_set_up(config, SETUP_BATCH, &mut setups)?;

    let mut failures: Vec<Option<String>> = runs
        .iter()
        .zip(repeats_differ)
        .map(|(run, differs)| facade_failure(run).or(differs))
        .collect();
    let phase = Instant::now();
    let metrics = if config.trace {
        let metrics = trace::traced_replay(config, &runs, &setups, &mut failures)?;
        phases.push(("trace", phase.elapsed()));
        metrics
    } else {
        end_to_end(&walls_ms, cpu, peak_rss, &setups)
    };

    let phase = Instant::now();
    let problems = check_against_reference(config, &runs)?;
    phases.push(("check", phase.elapsed()));
    for (failure, problem) in failures.iter_mut().zip(problems) {
        if let (None, Some(p)) = (&*failure, problem) {
            *failure = Some(format!("reference check: {p}"));
        }
    }

    let feasible = runs
        .iter()
        .filter(|r| matches!(&r.outcome, Ok(o) if o.answer.is_some()))
        .count();
    let asked = |i: usize| walls_ms[i].len();
    Ok(RunReport {
        queries: runs.len(),
        attempted: (0..runs.len()).map(asked).sum(),
        failed: failures
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_some())
            .map(|(i, _)| asked(i))
            .sum(),
        failures: failures
            .into_iter()
            .enumerate()
            .filter_map(|(i, f)| f.map(|f| (i, f)))
            .collect(),
        feasible,
        brute_forced: runs.len().min(BRUTE_FORCE_QUERIES),
        metrics,
        phases,
        loop_steal,
    })
}

/// Checks every query's answer against the reference, and the first
/// [`BRUTE_FORCE_QUERIES`] against a brute-force minimum, returning what
/// is wrong with each answer. Queries are spread over
/// [`REFERENCE_THREADS`] threads.
fn check_against_reference(
    config: &Config,
    runs: &[QueryRun],
) -> Result<Vec<Option<String>>, String> {
    let reference = Reference::new(&config.root, config.workload)?;
    let check = |i: usize| -> Result<Option<String>, String> {
        let run = &runs[i];
        let got = run.outcome.as_ref().ok().and_then(|o| o.answer.as_ref());
        let want = match reference.answer(&run.requirement) {
            Err(e) => return Ok(Some(format!("reference error: {e}"))),
            Ok(want) => want,
        };
        if let Some(problem) = mismatch(got, want.as_ref()) {
            return Ok(Some(problem));
        }
        if i >= BRUTE_FORCE_QUERIES {
            return Ok(None);
        }
        Ok(
            match (
                got.map(|a| a.cost),
                reference.brute_force_cost(&run.requirement)?,
            ) {
                (None, None) => None,
                (Some(g), Some(b)) if (g - b).abs() <= 1e-9 * b.abs() => None,
                (g, b) => Some(format!("brute-force minimum {b:?} vs answer {g:?}")),
            },
        )
    };
    let mut problems = vec![None; runs.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..REFERENCE_THREADS)
            .map(|t| {
                s.spawn(move || {
                    (t..runs.len())
                        .step_by(REFERENCE_THREADS)
                        .map(|i| check(i).map(|p| (i, p)))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, problem) in handle.join().expect("a reference thread panicked")? {
                problems[i] = problem;
            }
        }
        Ok::<(), String>(())
    })?;
    Ok(problems)
}

/// The end-to-end metrics. Each query's wall time is the median of its
/// rounds; the percentiles and the throughput are taken over those
/// medians, so that one call slowed by the machine moves no metric.
fn end_to_end(
    walls_ms: &[Vec<f64>],
    cpu: Duration,
    peak_rss: f64,
    setups: &[SetupTiming],
) -> Vec<Metric> {
    let ms: Vec<f64> = walls_ms.iter().map(|w| quantile(w, 0.5)).collect();
    let calls: usize = walls_ms.iter().map(Vec::len).sum();
    let setup_s: Vec<f64> = setups.iter().map(|t| t.total.as_secs_f64()).collect();
    let p90 = Metric {
        value: quantile(&ms, 0.9),
        quartiles: None,
        ..Metric::median_of("design_ms_p90", "ms", &ms)
    };
    vec![
        Metric {
            samples: ms.len(),
            ..Metric::single(
                "designs_per_s",
                "1/s",
                ms.len() as f64 * 1e3 / ms.iter().sum::<f64>(),
            )
        },
        Metric::median_of("design_ms_p50", "ms", &ms),
        p90,
        Metric {
            samples: calls,
            ..Metric::single(
                "cpu_ms_per_design",
                "ms",
                cpu.as_secs_f64() * 1e3 / calls as f64,
            )
        },
        Metric::median_of("setup_s", "s", &setup_s),
        Metric::single("peak_rss_mb", "MB", peak_rss),
    ]
}
