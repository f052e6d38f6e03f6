//! `perfbench` — runs benchmark workloads and prints their metrics.
//!
//! ```text
//! perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (the specs are read from `data/`). Each
//! workload's report ends with one JSON line holding the keys `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it repeat every
//! metric by name with its unit, sample count and quartiles, next to the
//! run's context. `all` runs every workload in turn. Failure reasons go to
//! standard error.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use aved_perfbench::workload::Workload;
use aved_perfbench::{measure, run, Config, RunReport, P90_MIN_SAMPLES};

const USAGE: &str =
    "usage: perfbench --workload ecommerce-ctmc|scientific-sweep|ecommerce-default|all \
                     --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Vec<Config>, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workloads = match value("--workload")? {
        "all" => Workload::ALL.to_vec(),
        name => {
            vec![Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?]
        }
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "bad --seconds value".to_owned())?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let seed: u64 = value("--seed")?
        .parse()
        .map_err(|_| "bad --seed value".to_owned())?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace value {other:?}")),
    };
    Ok(workloads
        .into_iter()
        .map(|workload| Config {
            root: ".".into(),
            workload,
            seed,
            duration: Duration::from_secs_f64(seconds),
            trace,
        })
        .collect())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let configs = match parse(&args) {
        Ok(configs) => configs,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for config in &configs {
        match run(config).and_then(|report| render(config, &report)) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", config.workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The human-readable report followed by the JSON result line.
fn render(config: &Config, report: &RunReport) -> Result<String, String> {
    for (query, reason) in &report.failures {
        eprintln!("perfbench: query {query} failed: {reason}");
    }
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let online = std::fs::read_to_string("/proc/cpuinfo")
        .map(|info| info.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let (queries, attempted, failed) = (report.queries, report.attempted, report.failed);
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "workload {} seed {} trace {} commit {} available_parallelism {parallelism} cpus_online {online}",
        config.workload.name(),
        config.seed,
        u8::from(config.trace),
        measure::git_commit(&config.root),
    );
    let _ = writeln!(
        w,
        "queries {queries} calls {attempted} feasible {} feasible_share {:.3} failed {failed} \
         failed_frac {} reference_checked {queries} brute_forced {}",
        report.feasible,
        report.feasible as f64 / queries as f64,
        failed as f64 / attempted as f64,
        report.brute_forced,
    );
    let _ = write!(w, "phase_s");
    for (name, took) in &report.phases {
        let _ = write!(w, " {name} {:.3}", took.as_secs_f64());
    }
    let _ = writeln!(w, " loop_steal_s {:.2}", report.loop_steal.as_secs_f64());
    let mut json = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("{} is not finite: {}", m.name, m.value));
        }
        let _ = write!(
            w,
            "{:<26} {:>14.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
        if let Some((q1, q3)) = m.quartiles {
            let _ = write!(w, " p25={q1:.6} p50={:.6} p75={q3:.6}", m.value);
        }
        if m.name == "design_ms_p90" && m.samples < P90_MIN_SAMPLES {
            let _ = write!(
                w,
                " (under {P90_MIN_SAMPLES} samples: fewer than ten beyond it)"
            );
        }
        let _ = writeln!(w);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    let _ = writeln!(
        w,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        failed == 0
    );
    Ok(out)
}
