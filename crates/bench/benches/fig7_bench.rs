//! Benchmark: one Fig.-7 data point — the optimal scientific-application
//! design at one execution-time requirement, including the checkpoint
//! parameter sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use aved::avail::DecompositionEngine;
use aved::model::ParamValue;
use aved::scenario;
use aved::search::{search_job_tier, EvalContext, SearchOptions};
use aved::units::Duration;

fn bench_fig7(c: &mut Criterion) {
    let infrastructure = scenario::infrastructure().unwrap();
    let service = scenario::scientific().unwrap();
    let catalog = scenario::catalog();
    let options = SearchOptions {
        max_spares: 3,
        ..SearchOptions::default()
    }
    .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
    .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()));

    let mut group = c.benchmark_group("fig7");
    group.sample_size(10);

    for req_hours in [50.0, 200.0] {
        group.bench_function(format!("point_req{req_hours}h"), |b| {
            b.iter(|| {
                let engine = DecompositionEngine::default();
                let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);
                let out = search_job_tier(
                    &ctx,
                    "computation",
                    Duration::from_hours(black_box(req_hours)),
                    &options,
                )
                .unwrap();
                black_box(out.best().map(|e| e.cost()));
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
