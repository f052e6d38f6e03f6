//! Benchmark of the CTMC substrate itself: the direct GTH solve vs
//! Gauss–Seidel and uniformized power iteration on birth–death chains of
//! growing size (with the closed form as the floor), and on an
//! e-commerce-shaped tier chain.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use aved::markov::{
    birth_death, explore, CtmcBuilder, DenseSolver, GaussSeidelSolver, PowerSolver,
    SteadyStateSolver,
};

/// A machine-repairman chain with `n + 1` states.
fn repair_chain(n: usize) -> aved::markov::Ctmc {
    let lambda = 1e-3;
    let mu = 0.5;
    let mut b = CtmcBuilder::new(n + 1);
    for k in 0..n {
        b.rate(k, k + 1, (n - k) as f64 * lambda);
        b.rate(k + 1, k, (k + 1) as f64 * mu);
    }
    b.build().unwrap()
}

/// A tier chain shaped like the e-commerce application tier's: 8 servers,
/// 4 failure classes (hardware, hardware transient, OS, application),
/// truncated at 5 concurrent failures, with a failover transient entered
/// when one of the two hardware classes fails while fewer than two servers
/// are down. The state is the failed count per class plus the class whose
/// failover is in progress.
/// Breadth-first exploration orders the states by failure depth, as the
/// CTMC engine's chains are.
fn tier_chain() -> aved::markov::Ctmc {
    const MTBF_H: [f64; 4] = [650.0 * 24.0, 75.0 * 24.0, 60.0 * 24.0, 14.0 * 24.0];
    const MTTR_H: [f64; 4] = [38.0, 0.25, 0.5, 0.1];
    const FAILOVER_H: f64 = 5.0 / 60.0;
    const SERVERS: u32 = 8;
    const CAP: u32 = 5;
    let explored = explore(([0_u8; 4], None::<usize>), 10_000, |&(failed, failover)| {
        let total: u32 = failed.iter().map(|&k| u32::from(k)).sum();
        let mut out = Vec::new();
        if failover.is_none() && total < CAP {
            for class in 0..4 {
                let mut next = failed;
                next[class] += 1;
                let starts_failover = class < 2 && total < 2;
                let rate = f64::from(SERVERS - total) / MTBF_H[class];
                out.push((rate, (next, starts_failover.then_some(class))));
            }
        }
        for class in 0..4 {
            if failed[class] > 0 {
                let mut next = failed;
                next[class] -= 1;
                out.push((f64::from(failed[class]) / MTTR_H[class], (next, failover)));
            }
        }
        if failover.is_some() {
            out.push((1.0 / FAILOVER_H, (failed, None)));
        }
        out
    })
    .unwrap();
    explored.ctmc().clone()
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("markov_solvers");
    group.sample_size(10);

    for n in [16_usize, 64, 256] {
        let ctmc = repair_chain(n);
        group.bench_function(format!("dense_n{}", n + 1), |b| {
            let solver = DenseSolver::new();
            b.iter(|| black_box(solver.steady_state(black_box(&ctmc)).unwrap()[0]));
        });
        group.bench_function(format!("power_n{}", n + 1), |b| {
            let solver = PowerSolver::new(1e-12, 10_000_000);
            b.iter(|| black_box(solver.steady_state(black_box(&ctmc)).unwrap()[0]));
        });
        group.bench_function(format!("gauss_seidel_n{}", n + 1), |b| {
            let solver = GaussSeidelSolver::default();
            b.iter(|| black_box(solver.steady_state(black_box(&ctmc)).unwrap()[0]));
        });
        group.bench_function(format!("birth_death_n{}", n + 1), |b| {
            let lambda = 1e-3;
            let mu = 0.5;
            let births: Vec<f64> = (0..n).map(|k| (n - k) as f64 * lambda).collect();
            let deaths: Vec<f64> = (0..n).map(|k| (k + 1) as f64 * mu).collect();
            b.iter(|| black_box(birth_death::steady_state(&births, &deaths).unwrap()[0]));
        });
    }

    let tier = tier_chain();
    let n = tier.n_states();
    group.bench_function(format!("tier_dense_n{n}"), |b| {
        let solver = DenseSolver::new();
        b.iter(|| black_box(solver.steady_state(black_box(&tier)).unwrap()[0]));
    });
    group.bench_function(format!("tier_gauss_seidel_n{n}"), |b| {
        let solver = GaussSeidelSolver::default();
        b.iter(|| black_box(solver.steady_state(black_box(&tier)).unwrap()[0]));
    });
    group.bench_function(format!("tier_power_n{n}"), |b| {
        let solver = PowerSolver::new(1e-12, 10_000_000);
        b.iter(|| black_box(solver.steady_state(black_box(&tier)).unwrap()[0]));
    });

    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
