//! Benchmark: warm-started steady-state solves vs cold solves over a
//! Fig.-7-style candidate sweep.
//!
//! The workload is the exact stream of *distinct* availability models the
//! scientific-service computation-tier frontier sweep produces (duplicates
//! removed, as the model cache would), solved by the exact CTMC engine on
//! its iterative path (`with_dense_cutover(0)`, so every solve is
//! warm-startable Gauss-Seidel/power iteration rather than the direct
//! GTH solve). The cold pass gives every model a fresh `EvalSession`;
//! the warm pass reuses one session across the locality-ordered stream,
//! so each solve can repatch the previous chain in place and start from
//! the neighboring steady state.
//!
//! Besides the criterion timings, one set of measurements goes to
//! `BENCH_solver.json` at the repository root: median wall time per
//! candidate cold vs warm, total solver iterations cold vs warm, and the
//! warm-hint hit rate.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use aved::avail::{
    derive_tier_model, AvailabilityEngine, CtmcEngine, EvalSession, SessionStats, TierModel,
};

use aved::scenario;
use aved::search::{enumerate_tier_candidates, EvalContext, SearchOptions};

const TOTALS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

fn options() -> SearchOptions {
    SearchOptions {
        max_extra_active: 2,
        max_spares: 2,
        ..SearchOptions::default()
    }
}

/// The distinct tier models of the Fig.-7-style sweep, in enumeration
/// (parameter-locality) order — the same stream a search worker's session
/// sees after the model cache absorbs exact duplicates (checkpoint
/// parameters change the completion-time math, not the chain).
fn sweep_models() -> Vec<TierModel> {
    let infrastructure = scenario::infrastructure().unwrap();
    let service = scenario::scientific().unwrap();
    let catalog = scenario::catalog();
    let probe = CtmcEngine::default();
    let ctx = EvalContext::new(&infrastructure, &service, &catalog, &probe);
    let tier = ctx.tier("computation").unwrap();
    let opts = options();
    let mut models: Vec<TierModel> = Vec::new();
    for option in tier.options() {
        for &n_total in &TOTALS {
            for td in enumerate_tier_candidates(
                ctx.infrastructure(),
                tier.name(),
                option,
                n_total,
                1,
                &opts,
            ) {
                let model = derive_tier_model(
                    ctx.infrastructure(),
                    &td,
                    option.sizing(),
                    option.failure_scope(),
                    td.n_active(),
                )
                .unwrap();
                if !models.contains(&model) {
                    models.push(model);
                }
            }
        }
    }
    models
}

struct PassResult {
    per_candidate_us: Vec<f64>,
    total_wall_s: f64,
    stats: SessionStats,
}

/// Solves every model once. `warm`: one persistent session across the
/// stream; cold: a fresh session per model (no structure or state reuse).
fn run_pass(engine: &CtmcEngine, models: &[TierModel], warm: bool) -> PassResult {
    let mut session = EvalSession::new();
    let mut stats = SessionStats::default();
    let mut per_candidate_us = Vec::with_capacity(models.len());
    let started = Instant::now();
    for model in models {
        if !warm {
            session = EvalSession::new();
        }
        let t = Instant::now();
        black_box(engine.evaluate_with_session(model, &mut session).unwrap());
        per_candidate_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !warm {
            stats.absorb(session.stats());
        }
    }
    if warm {
        stats.absorb(session.stats());
    }
    PassResult {
        per_candidate_us,
        total_wall_s: started.elapsed().as_secs_f64(),
        stats,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn write_bench_json() {
    let engine = CtmcEngine::default()
        .with_max_concurrent(8)
        .with_dense_cutover(0);
    let models = sweep_models();
    // Median of 3 passes each, pooling per-candidate samples.
    let mut cold_times = Vec::new();
    let mut warm_times = Vec::new();
    let mut cold_walls = Vec::new();
    let mut warm_walls = Vec::new();
    let mut cold_stats = SessionStats::default();
    let mut warm_stats = SessionStats::default();
    for i in 0..3 {
        let cold = run_pass(&engine, &models, false);
        let warm = run_pass(&engine, &models, true);
        cold_times.extend(cold.per_candidate_us.iter().copied());
        warm_times.extend(warm.per_candidate_us.iter().copied());
        cold_walls.push(cold.total_wall_s);
        warm_walls.push(warm.total_wall_s);
        if i == 0 {
            cold_stats = cold.stats;
            warm_stats = warm.stats;
        }
    }
    let cold_med = median(cold_times);
    let warm_med = median(warm_times);
    let cold_wall = median(cold_walls);
    let warm_wall = median(warm_walls);
    let hit_rate = warm_stats.warm_hits as f64 / warm_stats.solves.max(1) as f64;
    let iter_reduction = 1.0 - warm_stats.iterations as f64 / cold_stats.iterations.max(1) as f64;

    let json = format!(
        "{{\n  \"bench\": \"solver_warm\",\n  \"workload\": \"fig7-style computation-tier sweep, totals {TOTALS:?}, exact CTMC engine, iterative path\",\n  \"distinct_models\": {},\n  \"samples_per_point\": 3,\n  \"cold\": {{ \"median_wall_per_candidate_us\": {cold_med:.2}, \"median_total_wall_ms\": {:.2}, \"solver_iterations\": {} }},\n  \"warm\": {{ \"median_wall_per_candidate_us\": {warm_med:.2}, \"median_total_wall_ms\": {:.2}, \"solver_iterations\": {}, \"warm_hits\": {}, \"warm_hit_rate\": {hit_rate:.3}, \"rebuilds_avoided\": {}, \"iterations_saved\": {} }},\n  \"speedup_per_candidate\": {:.3},\n  \"iteration_reduction\": {iter_reduction:.3}\n}}\n",
        models.len(),
        cold_wall * 1e3,
        cold_stats.iterations,
        warm_wall * 1e3,
        warm_stats.iterations,
        warm_stats.warm_hits,
        warm_stats.rebuilds_avoided,
        warm_stats.iterations_saved,
        cold_med / warm_med,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
    std::fs::write(path, &json).expect("write BENCH_solver.json");
    println!(
        "solver_warm: {} models, cold {cold_med:.1} us/candidate ({} iters), \
         warm {warm_med:.1} us/candidate ({} iters), {:.2}x per candidate, \
         {:.0}% fewer iterations, warm-hit rate {:.0}%",
        models.len(),
        cold_stats.iterations,
        warm_stats.iterations,
        cold_med / warm_med,
        iter_reduction * 100.0,
        hit_rate * 100.0
    );
    println!("solver_warm: wrote {path}");
}

fn bench_solver_warm(c: &mut Criterion) {
    write_bench_json();

    let engine = CtmcEngine::default()
        .with_max_concurrent(8)
        .with_dense_cutover(0);
    let models = sweep_models();
    let mut group = c.benchmark_group("solver_warm");
    group.sample_size(10);
    group.bench_function("sweep_cold", |b| {
        b.iter(|| black_box(run_pass(&engine, &models, false).total_wall_s));
    });
    group.bench_function("sweep_warm", |b| {
        b.iter(|| black_box(run_pass(&engine, &models, true).total_wall_s));
    });
    group.finish();
}

criterion_group!(benches, bench_solver_warm);
criterion_main!(benches);
