//! Iterative steady-state solution by uniformized power iteration.

use crate::scratch::{SolveScratch, WarmHint};
use crate::{BudgetResource, Ctmc, MarkovError, SolveBudget, SteadyStateSolver};

/// Iterative steady-state solver for large sparse chains.
///
/// Uniformizes the CTMC into a DTMC `P = I + Q/Λ` (with `Λ` slightly above
/// the maximum exit rate so every state keeps a self-loop, which removes
/// periodicity) and runs power iteration `π ← π·P` until the change between
/// sweeps drops below the tolerance.
///
/// Slower to converge for stiff chains than [`DenseSolver`](crate::DenseSolver)
/// is to reduce, but memory-light and O(nnz) per sweep, so it scales to
/// chains far beyond the direct solve's quadratic storage. The availability engines use it when
/// the truncated state space grows past the dense cutover.
///
/// # Examples
///
/// ```
/// use aved_markov::{CtmcBuilder, PowerSolver, SteadyStateSolver};
///
/// let mut b = CtmcBuilder::new(2);
/// b.rate(0, 1, 0.01).rate(1, 0, 1.0);
/// let pi = PowerSolver::new(1e-12, 1_000_000).steady_state(&b.build()?)?;
/// assert!((pi[0] - 1.0 / 1.01).abs() < 1e-8);
/// # Ok::<(), aved_markov::MarkovError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSolver {
    tolerance: f64,
    max_sweeps: usize,
    time_budget: Option<std::time::Duration>,
}

impl PowerSolver {
    /// Creates a solver with the given per-sweep convergence tolerance
    /// (max-norm of the change in `π`) and sweep limit, validating both.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidSolverConfig`] if `tolerance` is not a
    /// positive finite number or `max_sweeps` is zero.
    pub fn try_new(tolerance: f64, max_sweeps: usize) -> Result<PowerSolver, MarkovError> {
        if !(tolerance > 0.0 && tolerance.is_finite()) {
            return Err(MarkovError::InvalidSolverConfig {
                detail: format!("tolerance must be positive and finite, got {tolerance}"),
            });
        }
        if max_sweeps == 0 {
            return Err(MarkovError::InvalidSolverConfig {
                detail: "max_sweeps must be positive".into(),
            });
        }
        Ok(PowerSolver {
            tolerance,
            max_sweeps,
            time_budget: None,
        })
    }

    /// Creates a solver with the given per-sweep convergence tolerance
    /// (max-norm of the change in `π`) and sweep limit.
    ///
    /// Convenience for hard-coded parameters; use [`Self::try_new`] to
    /// validate user-supplied values without panicking.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive and finite or `max_sweeps` is
    /// zero.
    #[must_use]
    pub fn new(tolerance: f64, max_sweeps: usize) -> PowerSolver {
        PowerSolver::try_new(tolerance, max_sweeps).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Caps the wall-clock time one solve may take; the budget is checked
    /// every few sweeps, so overshoot is bounded by a handful of sweeps.
    #[must_use]
    pub fn with_time_budget(mut self, budget: std::time::Duration) -> PowerSolver {
        self.time_budget = Some(budget);
        self
    }

    /// The convergence tolerance.
    #[must_use]
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// The sweep limit.
    #[must_use]
    pub fn max_sweeps(&self) -> usize {
        self.max_sweeps
    }

    /// Like [`SteadyStateSolver::steady_state`] but starts iteration from
    /// `pi0` instead of the uniform distribution — a warm start.
    ///
    /// The per-sweep convergence criterion and downstream residual checks
    /// are independent of the starting point, so a good hint saves sweeps
    /// while a bad one merely costs them. `pi0` is renormalized to unit
    /// mass before use.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidSolverConfig`] when the hint is
    /// unusable (wrong length, non-finite or negative entries, zero mass),
    /// plus every error `steady_state` can return.
    pub fn steady_state_from(&self, ctmc: &Ctmc, pi0: &[f64]) -> Result<Vec<f64>, MarkovError> {
        let hint = WarmHint::new(ctmc.n_states(), pi0).ok_or_else(|| {
            MarkovError::InvalidSolverConfig {
                detail: format!(
                    "warm-start hint unusable: need {} finite non-negative entries with positive mass",
                    ctmc.n_states()
                ),
            }
        })?;
        let mut scratch = SolveScratch::new();
        self.power_into(ctmc, Some(hint), &mut scratch)?;
        Ok(std::mem::take(&mut scratch.pi))
    }

    /// The iteration loop, writing the solution into `scratch.pi` and
    /// reusing the scratch's iterate buffers. Returns the number of sweeps
    /// used. `warm`, when given, is a validated hint for this chain; it is
    /// copied into the iterate, normalized, before the first step.
    pub(crate) fn power_into(
        &self,
        ctmc: &Ctmc,
        warm: Option<WarmHint<'_>>,
        scratch: &mut SolveScratch,
    ) -> Result<usize, MarkovError> {
        self.power_into_budgeted(ctmc, warm, scratch, &SolveBudget::unlimited())
    }

    /// [`power_into`](Self::power_into) under a cooperative
    /// [`SolveBudget`]: deadline and cancellation are polled at the same
    /// every-64-sweeps checkpoint as the solver's own time budget, and the
    /// budget's sweep cap (when tighter than `max_sweeps`) turns exhaustion
    /// into a [`MarkovError::BudgetExhausted`] naming the resource.
    pub(crate) fn power_into_budgeted(
        &self,
        ctmc: &Ctmc,
        warm: Option<WarmHint<'_>>,
        scratch: &mut SolveScratch,
        budget: &SolveBudget,
    ) -> Result<usize, MarkovError> {
        ctmc.check_irreducible()
            .map_err(|state| MarkovError::Reducible { state })?;
        let n = ctmc.n_states();
        if n == 1 {
            scratch.pi.clear();
            scratch.pi.push(1.0);
            return Ok(0);
        }

        // Uniformization constant: 1.05 * max exit rate keeps self-loop
        // probability >= ~5% in the busiest state (aperiodicity + damping).
        let lambda = ctmc.max_exit_rate() * 1.05;
        if lambda <= 0.0 {
            // No transitions at all in a >1-state chain: reducible, but the
            // check above would have caught it. Defensive.
            return Err(MarkovError::Reducible { state: 0 });
        }

        let start = self.time_budget.map(|_| std::time::Instant::now());
        let SolveScratch { pi, next, .. } = scratch;
        pi.clear();
        match warm {
            Some(hint) => hint.load_into(pi),
            None => pi.resize(n, 1.0 / n as f64),
        }
        next.clear();
        next.resize(n, 0.0);
        let mut last_delta = f64::INFINITY;
        let governed = !budget.is_unlimited();
        let sweep_cap = budget.max_sweeps();
        for sweep in 0..self.max_sweeps {
            if let (Some(allowance), Some(start)) = (self.time_budget, start) {
                if sweep % 64 == 0 && start.elapsed() > allowance {
                    return Err(MarkovError::TimedOut {
                        iterations: sweep,
                        budget_secs: allowance.as_secs_f64(),
                    });
                }
            }
            if governed {
                if sweep % 64 == 0 {
                    budget.checkpoint("power", sweep as u64)?;
                }
                if let Some(cap) = sweep_cap {
                    if sweep as u64 >= cap {
                        return Err(MarkovError::BudgetExhausted {
                            phase: "power",
                            resource: BudgetResource::Sweeps,
                            progress: sweep as u64,
                            limit: cap,
                        });
                    }
                }
            }
            // next = pi * P = pi + (pi * Q) / lambda
            next.copy_from_slice(pi);
            for t in ctmc.transitions() {
                let flow = pi[t.from] * t.rate / lambda;
                next[t.from] -= flow;
                next[t.to] += flow;
            }
            // Renormalize to fight drift.
            let sum: f64 = next.iter().sum();
            let mut delta = 0.0_f64;
            for (p, q) in pi.iter_mut().zip(next.iter()) {
                let v = q / sum;
                delta = delta.max((v - *p).abs());
                *p = v;
            }
            last_delta = delta;
            if delta < self.tolerance {
                return Ok(sweep + 1);
            }
            // Convergence accelerates: check every sweep but bail early if
            // numerically stuck.
            if !delta.is_finite() {
                return Err(MarkovError::NoConvergence {
                    iterations: sweep + 1,
                    residual: delta,
                });
            }
        }
        Err(MarkovError::NoConvergence {
            iterations: self.max_sweeps,
            residual: last_delta,
        })
    }
}

impl Default for PowerSolver {
    /// Tolerance `1e-13`, at most `5_000_000` sweeps.
    fn default() -> PowerSolver {
        PowerSolver::new(1e-13, 5_000_000)
    }
}

impl SteadyStateSolver for PowerSolver {
    fn steady_state(&self, ctmc: &Ctmc) -> Result<Vec<f64>, MarkovError> {
        let mut scratch = SolveScratch::new();
        self.power_into(ctmc, None, &mut scratch)?;
        Ok(std::mem::take(&mut scratch.pi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CtmcBuilder, DenseSolver};
    use proptest::prelude::*;

    #[test]
    fn agrees_with_dense_on_small_chain() {
        let mut b = CtmcBuilder::new(4);
        b.rate(0, 1, 3.0)
            .rate(1, 2, 1.5)
            .rate(2, 3, 0.5)
            .rate(3, 0, 2.0)
            .rate(2, 0, 1.0)
            .rate(1, 0, 0.25);
        let ctmc = b.build().unwrap();
        let dense = DenseSolver::new().steady_state(&ctmc).unwrap();
        let power = PowerSolver::default().steady_state(&ctmc).unwrap();
        for (d, p) in dense.iter().zip(power.iter()) {
            assert!((d - p).abs() < 1e-9, "dense={d} power={p}");
        }
    }

    #[test]
    fn respects_sweep_limit() {
        // Stiff chain + absurdly tight tolerance + tiny budget -> no
        // convergence.
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1e-9).rate(1, 0, 1e3);
        let solver = PowerSolver::new(1e-16, 3);
        assert!(matches!(
            solver.steady_state(&b.build().unwrap()),
            Err(MarkovError::NoConvergence { iterations: 3, .. })
        ));
    }

    #[test]
    fn rejects_reducible() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0);
        assert!(matches!(
            PowerSolver::default().steady_state(&b.build_unchecked()),
            Err(MarkovError::Reducible { .. })
        ));
    }

    #[test]
    fn single_state() {
        let ctmc = CtmcBuilder::new(1).build().unwrap();
        assert_eq!(
            PowerSolver::default().steady_state(&ctmc).unwrap(),
            vec![1.0]
        );
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn zero_tolerance_panics() {
        let _ = PowerSolver::new(0.0, 10);
    }

    #[test]
    fn try_new_rejects_bad_parameters_without_panicking() {
        for (tol, sweeps) in [(0.0, 10), (-2.0, 10), (f64::INFINITY, 10), (1e-12, 0)] {
            assert!(matches!(
                PowerSolver::try_new(tol, sweeps),
                Err(MarkovError::InvalidSolverConfig { .. })
            ));
        }
        assert_eq!(
            PowerSolver::try_new(1e-13, 5_000_000).unwrap(),
            PowerSolver::default()
        );
    }

    #[test]
    fn zero_time_budget_times_out() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1e-9).rate(1, 0, 1e3);
        let solver = PowerSolver::new(1e-16, 1_000_000).with_time_budget(std::time::Duration::ZERO);
        assert!(matches!(
            solver.steady_state(&b.build().unwrap()),
            Err(MarkovError::TimedOut { .. })
        ));
    }

    #[test]
    fn budget_deadline_and_sweep_cap_stop_the_iteration() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1e-9).rate(1, 0, 1e3);
        let ctmc = b.build().unwrap();
        let solver = PowerSolver::new(1e-16, 1_000_000);
        let mut scratch = SolveScratch::new();
        let expired = SolveBudget::unlimited()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        assert!(matches!(
            solver.power_into_budgeted(&ctmc, None, &mut scratch, &expired),
            Err(MarkovError::BudgetExhausted {
                phase: "power",
                resource: BudgetResource::WallClock,
                ..
            })
        ));
        let capped = SolveBudget::unlimited().with_max_sweeps(5);
        assert!(matches!(
            solver.power_into_budgeted(&ctmc, None, &mut scratch, &capped),
            Err(MarkovError::BudgetExhausted {
                phase: "power",
                resource: BudgetResource::Sweeps,
                limit: 5,
                ..
            })
        ));
    }

    #[test]
    fn warm_start_reaches_the_same_fixed_point_in_fewer_sweeps() {
        let mut b = CtmcBuilder::new(4);
        b.rate(0, 1, 3.0)
            .rate(1, 2, 1.5)
            .rate(2, 3, 0.5)
            .rate(3, 0, 2.0)
            .rate(2, 0, 1.0)
            .rate(1, 0, 0.25);
        let ctmc = b.build().unwrap();
        let solver = PowerSolver::default();
        let cold = solver.steady_state(&ctmc).unwrap();
        let warm = solver.steady_state_from(&ctmc, &cold).unwrap();
        for (c, w) in cold.iter().zip(warm.iter()) {
            assert!((c - w).abs() < 1e-10, "cold={c} warm={w}");
        }
        let mut scratch = crate::SolveScratch::new();
        let cold_sweeps = solver.power_into(&ctmc, None, &mut scratch).unwrap();
        let warm_sweeps = solver
            .power_into(&ctmc, WarmHint::new(cold.len(), &cold), &mut scratch)
            .unwrap();
        assert!(
            warm_sweeps < cold_sweeps,
            "warm {warm_sweeps} vs cold {cold_sweeps}"
        );
    }

    #[test]
    fn steady_state_from_rejects_unusable_hints() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0).rate(1, 0, 2.0);
        let ctmc = b.build().unwrap();
        for bad in [vec![1.0], vec![f64::NAN, 1.0], vec![-0.5, 1.5]] {
            assert!(matches!(
                PowerSolver::default().steady_state_from(&ctmc, &bad),
                Err(MarkovError::InvalidSolverConfig { .. })
            ));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn matches_dense_on_random_rings(
            n in 2_usize..10,
            rates in proptest::collection::vec(0.05_f64..20.0, 2 * 10),
        ) {
            let mut b = CtmcBuilder::new(n);
            for i in 0..n {
                b.rate(i, (i + 1) % n, rates[i]);
                b.rate((i + 1) % n, i, rates[n + i]);
            }
            let ctmc = b.build().unwrap();
            let dense = DenseSolver::new().steady_state(&ctmc).unwrap();
            let power = PowerSolver::new(1e-14, 2_000_000).steady_state(&ctmc).unwrap();
            for (d, p) in dense.iter().zip(power.iter()) {
                prop_assert!((d - p).abs() < 1e-7);
            }
        }
    }
}
