//! Regenerates the data behind the paper's Fig. 7: the optimal design of
//! the scientific application as a function of the job execution-time
//! requirement (1–1000 hours), with the maintenance contract fixed to
//! bronze as in the paper.
//!
//! The rows report the selected resource type (machineA-based `rH` vs
//! machineB-based `rI`), the node and spare counts, the checkpoint
//! interval and storage location, the design cost and the achieved
//! expected execution time.
//!
//! Usage: `cargo run --release -p aved-bench --bin fig7 [-- --csv results]`

use aved::avail::DecompositionEngine;
use aved::model::ParamValue;
use aved::scenario;
use aved::search::{search_job_tier, EvalContext, SearchOptions};
use aved::units::Duration;
use aved_bench::{csv_dir_from_args, geometric_grid, Csv, Family};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let csv_dir = csv_dir_from_args();
    let infrastructure = scenario::infrastructure()?;
    let service = scenario::scientific()?;
    let catalog = scenario::catalog();
    let engine = DecompositionEngine::default();
    let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);
    let options = SearchOptions {
        max_spares: 3,
        ..SearchOptions::default()
    }
    .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
    .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()));

    println!("== Fig. 7: optimal scientific-application design vs execution-time requirement ==\n");
    println!(
        "{:>9} | {:>8} | {:>6} | {:>6} | {:>10} | {:>8} | {:>11} | {:>12}",
        "req (h)",
        "resource",
        "nodes",
        "spares",
        "interval",
        "storage",
        "cost ($/y)",
        "achieved (h)"
    );
    let mut csv = Csv::with_header(&[
        "requirement_hours",
        "resource",
        "n_active",
        "n_spare",
        "checkpoint_interval_minutes",
        "storage_location",
        "cost_dollars",
        "expected_hours",
    ]);
    for req in geometric_grid(1.0, 1000.0, 22) {
        let outcome = search_job_tier(&ctx, "computation", Duration::from_hours(req), &options)?;
        match outcome.best() {
            Some(best) => {
                let td = best.design();
                let (interval, storage) = Family::checkpoint_of(best);
                let achieved = best.expected_job_time().expect("job time").hours();
                println!(
                    "{req:>9.1} | {:>8} | {:>6} | {:>6} | {:>10} | {:>8} | {:>11.0} | {achieved:>12.2}",
                    td.resource().as_str(),
                    td.n_active(),
                    td.n_spare(),
                    interval,
                    storage,
                    best.cost().dollars(),
                );
                let interval_mins = match td.setting("checkpoint", "checkpoint_interval") {
                    Some(ParamValue::Duration(d)) => format!("{:.3}", d.minutes()),
                    _ => String::new(),
                };
                csv.row([
                    format!("{req:.3}"),
                    td.resource().as_str().to_owned(),
                    format!("{}", td.n_active()),
                    format!("{}", td.n_spare()),
                    interval_mins,
                    storage,
                    format!("{:.2}", best.cost().dollars()),
                    format!("{achieved:.3}"),
                ]);
            }
            None => println!("{req:>9.1} | infeasible"),
        }
    }
    csv.write_if(csv_dir.as_deref(), "fig7.csv")?;
    if let Some(dir) = csv_dir {
        println!("\nCSV written to {dir}/fig7.csv");
    }
    Ok(())
}
