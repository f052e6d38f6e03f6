//! Iterative steady-state solution by Gauss–Seidel sweeps.

use crate::scratch::{SolveScratch, WarmHint};
use crate::{BudgetResource, Ctmc, MarkovError, SolveBudget, SteadyStateSolver};

/// Gauss–Seidel steady-state solver.
///
/// Rearranges the balance equations `πQ = 0` into the fixed point
/// `π_j = (Σ_{i≠j} π_i q_ij) / |q_jj|` and sweeps states in order, using
/// freshly-updated values within a sweep. For the stiff chains produced by
/// availability models (rates spanning many orders of magnitude),
/// Gauss–Seidel typically converges in far fewer sweeps than power
/// iteration, whose step size is limited by the fastest transition.
///
/// The implementation stores the incoming-transition structure once
/// (transposed CSR), so each sweep is O(nnz).
///
/// # Examples
///
/// ```
/// use aved_markov::{CtmcBuilder, GaussSeidelSolver, SteadyStateSolver};
///
/// let mut b = CtmcBuilder::new(2);
/// b.rate(0, 1, 1e-6).rate(1, 0, 10.0); // very stiff
/// let pi = GaussSeidelSolver::default().steady_state(&b.build()?)?;
/// assert!((pi[1] - 1e-7 / (1.0 + 1e-7)).abs() < 1e-18);
/// # Ok::<(), aved_markov::MarkovError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussSeidelSolver {
    tolerance: f64,
    max_sweeps: usize,
    relaxation: f64,
    time_budget: Option<std::time::Duration>,
    residual_exit: Option<f64>,
    assume_irreducible: bool,
}

impl GaussSeidelSolver {
    /// Creates a solver with the given relative per-sweep tolerance and
    /// sweep limit, validating both.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidSolverConfig`] if `tolerance` is not a
    /// positive finite number or `max_sweeps` is zero.
    pub fn try_new(tolerance: f64, max_sweeps: usize) -> Result<GaussSeidelSolver, MarkovError> {
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
        Ok(GaussSeidelSolver {
            tolerance,
            max_sweeps,
            relaxation: 0.9,
            time_budget: None,
            residual_exit: None,
            assume_irreducible: false,
        })
    }

    /// Creates a solver with the given relative per-sweep tolerance and
    /// sweep limit.
    ///
    /// Convenience for hard-coded parameters; use [`Self::try_new`] to
    /// validate user-supplied values without panicking.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive and finite or `max_sweeps` is
    /// zero.
    #[must_use]
    pub fn new(tolerance: f64, max_sweeps: usize) -> GaussSeidelSolver {
        GaussSeidelSolver::try_new(tolerance, max_sweeps).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Sets the relaxation factor `ω ∈ (0, 1]` applied to each update
    /// (`π_j ← (1−ω)·π_j + ω·v`), validating it.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidSolverConfig`] if `relaxation` is
    /// outside `(0, 1]`.
    pub fn try_with_relaxation(
        mut self,
        relaxation: f64,
    ) -> Result<GaussSeidelSolver, MarkovError> {
        if !(relaxation > 0.0 && relaxation <= 1.0) {
            return Err(MarkovError::InvalidSolverConfig {
                detail: format!("relaxation must be in (0, 1], got {relaxation}"),
            });
        }
        self.relaxation = relaxation;
        Ok(self)
    }

    /// Sets the relaxation factor `ω ∈ (0, 1]` applied to each update
    /// (`π_j ← (1−ω)·π_j + ω·v`).
    ///
    /// Pure Gauss–Seidel (`ω = 1`) can enter period-2 limit cycles on some
    /// chain structures (the update operator can carry an eigenvalue at
    /// −1); any `ω < 1` maps that mode inside the unit circle. The default
    /// 0.9 damps oscillations at a ~10 % cost in per-mode convergence
    /// rate.
    ///
    /// # Panics
    ///
    /// Panics if `relaxation` is outside `(0, 1]`.
    #[must_use]
    pub fn with_relaxation(self, relaxation: f64) -> GaussSeidelSolver {
        self.try_with_relaxation(relaxation)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Caps the wall-clock time one solve may take; the budget is checked
    /// every few sweeps, so overshoot is bounded by a handful of sweeps.
    ///
    /// Used by fallback policies to keep a stuck attempt from starving the
    /// rest of the chain.
    #[must_use]
    pub fn with_time_budget(mut self, budget: std::time::Duration) -> GaussSeidelSolver {
        self.time_budget = Some(budget);
        self
    }

    /// Lets the sweep loop stop as soon as the measured balance residual
    /// `‖πQ‖∞` drops to `threshold`, even though the per-sweep delta has
    /// not reached the solver's own tolerance yet.
    ///
    /// The per-sweep relative-change criterion is a *proxy* for solution
    /// quality; callers that judge solutions by their balance residual (the
    /// [`FallbackSolver`](crate::FallbackSolver) acceptance gate) would
    /// otherwise pay for sweeps long past the point where the solution is
    /// already acceptable. The residual is checked every few sweeps (it
    /// costs about as much as a sweep), so overshoot is bounded; callers
    /// that need the exit to *guarantee* acceptance should leave a margin
    /// below their acceptance tolerance to absorb summation-order
    /// differences between this check and their own.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not a positive finite number.
    #[must_use]
    pub fn with_residual_exit(mut self, threshold: f64) -> GaussSeidelSolver {
        assert!(
            threshold > 0.0 && threshold.is_finite(),
            "residual-exit threshold must be positive and finite, got {threshold}"
        );
        self.residual_exit = Some(threshold);
        self
    }

    /// Skips the up-front strong-connectivity check.
    ///
    /// Irreducibility is purely structural (rates are always positive), so
    /// a caller re-solving a chain whose structure already passed a solve —
    /// e.g. a rate-only in-place rebuild of a cached chain — pays two full
    /// graph traversals per solve for a property that cannot have changed.
    /// The in-sweep guard against zero exit rates stays active, and callers
    /// must only set this when the same structure was previously solved
    /// successfully.
    #[must_use]
    pub fn assuming_irreducible(mut self) -> GaussSeidelSolver {
        self.assume_irreducible = true;
        self
    }

    /// Like [`SteadyStateSolver::steady_state`] but starts the sweeps from
    /// `pi0` instead of the uniform distribution — a warm start.
    ///
    /// Acceptance is unaffected: the convergence criterion is relative
    /// per-sweep change, and the downstream
    /// [`FallbackSolver`](crate::FallbackSolver) re-verifies any solution
    /// against the balance residual `‖πQ‖∞`, so a good hint saves sweeps
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
        self.sweep_into(ctmc, Some(hint), &mut scratch)?;
        Ok(std::mem::take(&mut scratch.pi))
    }

    /// The sweep loop, writing the solution into `scratch.pi` and reusing
    /// the scratch's transposed-adjacency buffers. Returns the number of
    /// sweeps used. `warm`, when given, is a validated hint for this chain;
    /// it is copied into the iterate, normalized, before the first sweep.
    pub(crate) fn sweep_into(
        &self,
        ctmc: &Ctmc,
        warm: Option<WarmHint<'_>>,
        scratch: &mut SolveScratch,
    ) -> Result<usize, MarkovError> {
        self.sweep_into_budgeted(ctmc, warm, scratch, &SolveBudget::unlimited())
    }

    /// [`sweep_into`](Self::sweep_into) under a cooperative
    /// [`SolveBudget`]: the deadline and cancellation token are polled at
    /// the same every-64-sweeps checkpoint as the solver's own time budget,
    /// and the budget's sweep cap (when tighter than `max_sweeps`) turns
    /// exhaustion into a [`MarkovError::BudgetExhausted`] naming the
    /// resource.
    pub(crate) fn sweep_into_budgeted(
        &self,
        ctmc: &Ctmc,
        warm: Option<WarmHint<'_>>,
        scratch: &mut SolveScratch,
        budget: &SolveBudget,
    ) -> Result<usize, MarkovError> {
        if !self.assume_irreducible {
            ctmc.check_irreducible()
                .map_err(|state| MarkovError::Reducible { state })?;
        }
        let n = ctmc.n_states();
        if n == 1 {
            scratch.pi.clear();
            scratch.pi.push(1.0);
            return Ok(0);
        }

        // Incoming transitions per state, in flat transposed-CSR form:
        // in_edges[in_starts[j]..in_starts[j+1]] = [(i, q_ij)]. Entries per
        // state arrive in the same (source-ascending) order the old
        // Vec<Vec<_>> build produced, so sweep arithmetic is bit-identical.
        let SolveScratch {
            pi,
            in_starts,
            in_edges,
            in_cursor,
            ..
        } = scratch;
        in_starts.clear();
        in_starts.resize(n + 1, 0);
        for t in ctmc.transitions() {
            in_starts[t.to + 1] += 1;
        }
        for j in 0..n {
            in_starts[j + 1] += in_starts[j];
        }
        in_cursor.clear();
        in_cursor.extend_from_slice(&in_starts[..n]);
        in_edges.clear();
        in_edges.resize(in_starts[n], (0, 0.0));
        for t in ctmc.transitions() {
            in_edges[in_cursor[t.to]] = (t.from, t.rate);
            in_cursor[t.to] += 1;
        }

        let start = self.time_budget.map(|_| std::time::Instant::now());
        pi.clear();
        match warm {
            Some(hint) => hint.load_into(pi),
            None => pi.resize(n, 1.0 / n as f64),
        }
        let governed = !budget.is_unlimited();
        let sweep_cap = budget.max_sweeps();
        for sweep in 0..self.max_sweeps {
            if let (Some(allowance), Some(start)) = (self.time_budget, start) {
                // Check every 64 sweeps: cheap, bounded overshoot.
                if sweep % 64 == 0 && start.elapsed() > allowance {
                    return Err(MarkovError::TimedOut {
                        iterations: sweep,
                        budget_secs: allowance.as_secs_f64(),
                    });
                }
            }
            if governed {
                if sweep % 64 == 0 {
                    budget.checkpoint("gauss-seidel", sweep as u64)?;
                }
                if let Some(cap) = sweep_cap {
                    if sweep as u64 >= cap {
                        return Err(MarkovError::BudgetExhausted {
                            phase: "gauss-seidel",
                            resource: BudgetResource::Sweeps,
                            progress: sweep as u64,
                            limit: cap,
                        });
                    }
                }
            }
            let mut delta = 0.0_f64;
            for j in 0..n {
                let exit = ctmc.exit_rate(j);
                if exit <= 0.0 {
                    // Irreducibility guarantees every state (in a >1-state
                    // chain) has an exit; defensive.
                    return Err(MarkovError::Reducible { state: j });
                }
                let inflow: f64 = in_edges[in_starts[j]..in_starts[j + 1]]
                    .iter()
                    .map(|&(i, q)| pi[i] * q)
                    .sum();
                let old = pi[j];
                let v = (1.0 - self.relaxation) * old + self.relaxation * (inflow / exit);
                pi[j] = v;
                // States with negligible stationary mass are exempt from
                // the relative criterion: a slowly decaying tiny state
                // would otherwise hold a constant relative delta for
                // millions of sweeps while every state that matters has
                // long converged.
                if v.abs().max(old.abs()) > 1e-250 {
                    let scale = v.abs().max(old.abs());
                    delta = delta.max((v - old).abs() / scale);
                }
            }
            // Normalize each sweep (the fixed point is scale-free).
            let sum: f64 = pi.iter().sum();
            if sum.is_nan() || sum <= 0.0 || !sum.is_finite() {
                return Err(MarkovError::Singular);
            }
            for p in pi.iter_mut() {
                *p /= sum;
            }
            if delta < self.tolerance {
                return Ok(sweep + 1);
            }
            // Residual early exit: every 4th sweep, measure the actual
            // balance residual and stop once it clears the caller's
            // threshold — the per-sweep delta criterion is only a proxy and
            // typically keeps sweeping long after the solution is already
            // acceptable. The check reuses the transposed adjacency, so it
            // costs about as much as one sweep.
            if let Some(gate) = self.residual_exit {
                if (sweep + 1) % 4 == 0 {
                    let mut worst = 0.0_f64;
                    for j in 0..n {
                        let inflow: f64 = in_edges[in_starts[j]..in_starts[j + 1]]
                            .iter()
                            .map(|&(i, q)| pi[i] * q)
                            .sum();
                        worst = worst.max((inflow - pi[j] * ctmc.exit_rate(j)).abs());
                    }
                    if worst <= gate {
                        return Ok(sweep + 1);
                    }
                }
            }
            if sweep == self.max_sweeps - 1 {
                return Err(MarkovError::NoConvergence {
                    iterations: self.max_sweeps,
                    residual: delta,
                });
            }
        }
        unreachable!("loop always returns")
    }
}

impl Default for GaussSeidelSolver {
    /// Relative tolerance `1e-13`, at most `100_000` sweeps.
    fn default() -> GaussSeidelSolver {
        GaussSeidelSolver::new(1e-13, 100_000)
    }
}

impl SteadyStateSolver for GaussSeidelSolver {
    fn steady_state(&self, ctmc: &Ctmc) -> Result<Vec<f64>, MarkovError> {
        let mut scratch = SolveScratch::new();
        self.sweep_into(ctmc, None, &mut scratch)?;
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
        let gs = GaussSeidelSolver::default().steady_state(&ctmc).unwrap();
        for (d, g) in dense.iter().zip(gs.iter()) {
            assert!((d - g).abs() < 1e-10, "dense={d} gs={g}");
        }
    }

    #[test]
    fn handles_stiff_chains_quickly() {
        // Rates spanning 9 orders of magnitude; power iteration would need
        // ~1e9 sweeps, Gauss-Seidel a handful.
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, 1e-6)
            .rate(1, 2, 1e-3)
            .rate(1, 0, 100.0)
            .rate(2, 0, 1e3);
        let ctmc = b.build().unwrap();
        let solver = GaussSeidelSolver::new(1e-14, 1000);
        let gs = solver.steady_state(&ctmc).unwrap();
        let dense = DenseSolver::new().steady_state(&ctmc).unwrap();
        for (d, g) in dense.iter().zip(gs.iter()) {
            let scale = d.abs().max(1e-300);
            assert!((d - g).abs() / scale < 1e-8, "dense={d} gs={g}");
        }
    }

    #[test]
    fn single_state_chain() {
        let ctmc = CtmcBuilder::new(1).build().unwrap();
        assert_eq!(
            GaussSeidelSolver::default().steady_state(&ctmc).unwrap(),
            vec![1.0]
        );
    }

    #[test]
    fn rejects_reducible() {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0);
        assert!(matches!(
            GaussSeidelSolver::default().steady_state(&b.build_unchecked()),
            Err(MarkovError::Reducible { .. })
        ));
    }

    #[test]
    fn respects_sweep_limit() {
        // A 6-state asymmetric ring takes more than two sweeps to settle.
        let mut b = CtmcBuilder::new(6);
        for i in 0..6 {
            b.rate(i, (i + 1) % 6, 1.0 + i as f64);
            b.rate((i + 1) % 6, i, 2.5 / (1.0 + i as f64));
        }
        let solver = GaussSeidelSolver::new(1e-300, 2);
        assert!(matches!(
            solver.steady_state(&b.build().unwrap()),
            Err(MarkovError::NoConvergence { iterations: 2, .. })
        ));
    }

    #[test]
    fn damping_breaks_period_two_limit_cycles() {
        // Regression: this tandem-queue chain sends undamped Gauss-Seidel
        // into a period-2 oscillation (delta pinned at 1/17).
        let c = 3usize;
        let (arrive, s1, s2) = (0.5, 1.0, 0.9);
        let idx = |i: usize, j: usize| i * (c + 1) + j;
        let mut b = CtmcBuilder::new((c + 1) * (c + 1));
        for i in 0..=c {
            for j in 0..=c {
                if i < c {
                    b.rate(idx(i, j), idx(i + 1, j), arrive);
                }
                if i > 0 && j < c {
                    b.rate(idx(i, j), idx(i - 1, j + 1), s1);
                }
                if j > 0 {
                    b.rate(idx(i, j), idx(i, j - 1), s2);
                }
            }
        }
        let ctmc = b.build().unwrap();
        let gs = GaussSeidelSolver::default().steady_state(&ctmc).unwrap();
        let dense = DenseSolver::new().steady_state(&ctmc).unwrap();
        for (d, g) in dense.iter().zip(gs.iter()) {
            assert!((d - g).abs() < 1e-9, "dense={d} gs={g}");
        }
    }

    #[test]
    #[should_panic(expected = "relaxation")]
    fn bad_relaxation_panics() {
        let _ = GaussSeidelSolver::default().with_relaxation(1.5);
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn zero_tolerance_panics() {
        let _ = GaussSeidelSolver::new(0.0, 1);
    }

    #[test]
    fn try_new_rejects_bad_parameters_without_panicking() {
        for (tol, sweeps) in [(0.0, 10), (-1.0, 10), (f64::NAN, 10), (1e-12, 0)] {
            assert!(matches!(
                GaussSeidelSolver::try_new(tol, sweeps),
                Err(MarkovError::InvalidSolverConfig { .. })
            ));
        }
        let solver = GaussSeidelSolver::try_new(1e-12, 10).unwrap();
        assert!(matches!(
            solver.try_with_relaxation(1.5),
            Err(MarkovError::InvalidSolverConfig { .. })
        ));
        assert!(solver.try_with_relaxation(1.0).is_ok());
    }

    #[test]
    fn zero_time_budget_times_out() {
        let mut b = CtmcBuilder::new(6);
        for i in 0..6 {
            b.rate(i, (i + 1) % 6, 1.0 + i as f64);
            b.rate((i + 1) % 6, i, 2.5 / (1.0 + i as f64));
        }
        let solver =
            GaussSeidelSolver::new(1e-300, 100_000).with_time_budget(std::time::Duration::ZERO);
        assert!(matches!(
            solver.steady_state(&b.build().unwrap()),
            Err(MarkovError::TimedOut { .. })
        ));
    }

    #[test]
    fn budget_sweep_cap_and_cancellation_stop_the_sweeps() {
        let mut b = CtmcBuilder::new(6);
        for i in 0..6 {
            b.rate(i, (i + 1) % 6, 1.0 + i as f64);
            b.rate((i + 1) % 6, i, 2.5 / (1.0 + i as f64));
        }
        let ctmc = b.build().unwrap();
        let solver = GaussSeidelSolver::new(1e-300, 100_000);
        let mut scratch = SolveScratch::new();
        let capped = SolveBudget::unlimited().with_max_sweeps(3);
        assert!(matches!(
            solver.sweep_into_budgeted(&ctmc, None, &mut scratch, &capped),
            Err(MarkovError::BudgetExhausted {
                phase: "gauss-seidel",
                resource: BudgetResource::Sweeps,
                limit: 3,
                ..
            })
        ));
        let token = crate::CancelToken::new();
        token.cancel();
        let cancelled = SolveBudget::unlimited().with_cancel(token);
        assert!(matches!(
            solver.sweep_into_budgeted(&ctmc, None, &mut scratch, &cancelled),
            Err(MarkovError::Cancelled {
                phase: "gauss-seidel"
            })
        ));
        // An unlimited budget is bit-identical to the plain path.
        let plain = GaussSeidelSolver::default().steady_state(&ctmc).unwrap();
        GaussSeidelSolver::default()
            .sweep_into_budgeted(&ctmc, None, &mut scratch, &SolveBudget::unlimited())
            .unwrap();
        assert_eq!(plain, scratch.pi);
    }

    #[test]
    fn warm_start_reaches_the_same_fixed_point_in_fewer_sweeps() {
        let mut b = CtmcBuilder::new(6);
        for i in 0..6 {
            b.rate(i, (i + 1) % 6, 1.0 + i as f64);
            b.rate((i + 1) % 6, i, 2.5 / (1.0 + i as f64));
        }
        let ctmc = b.build().unwrap();
        let solver = GaussSeidelSolver::default();
        let cold = solver.steady_state(&ctmc).unwrap();
        let warm = solver.steady_state_from(&ctmc, &cold).unwrap();
        for (c, w) in cold.iter().zip(warm.iter()) {
            assert!((c - w).abs() < 1e-12, "cold={c} warm={w}");
        }
        // A converged hint needs strictly fewer sweeps than the cold run.
        let mut scratch = crate::SolveScratch::new();
        let cold_sweeps = solver.sweep_into(&ctmc, None, &mut scratch).unwrap();
        let warm_sweeps = solver
            .sweep_into(&ctmc, WarmHint::new(cold.len(), &cold), &mut scratch)
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
        let solver = GaussSeidelSolver::default();
        for bad in [vec![1.0], vec![f64::NAN, 1.0], vec![0.0, 0.0]] {
            assert!(matches!(
                solver.steady_state_from(&ctmc, &bad),
                Err(MarkovError::InvalidSolverConfig { .. })
            ));
        }
        // Non-normalized hints are renormalized, not rejected.
        assert!(solver.steady_state_from(&ctmc, &[5.0, 5.0]).is_ok());
    }

    #[test]
    fn residual_exit_stops_early_and_stays_under_its_gate() {
        let mut b = CtmcBuilder::new(8);
        for i in 0..8_usize {
            b.rate(i, (i + 1) % 8, 0.3 + i as f64);
            b.rate((i + 1) % 8, i, 2.0 + i as f64 / 3.0);
        }
        let ctmc = b.build().unwrap();
        let mut scratch = SolveScratch::new();
        let full = GaussSeidelSolver::default()
            .sweep_into(&ctmc, None, &mut scratch)
            .unwrap();
        let gated = GaussSeidelSolver::default().with_residual_exit(1e-6);
        let sweeps = gated.sweep_into(&ctmc, None, &mut scratch).unwrap();
        assert!(
            sweeps < full,
            "residual exit must beat the per-sweep-delta criterion ({sweeps} vs {full})"
        );
        let residual = crate::FallbackSolver::residual_inf_norm(&ctmc, &scratch.pi);
        assert!(residual <= 1e-6, "exit left residual {residual}");
    }

    #[test]
    fn assuming_irreducible_does_not_change_the_solution() {
        let mut b = CtmcBuilder::new(5);
        for i in 0..5_usize {
            b.rate(i, (i + 1) % 5, 1.0 + i as f64);
            b.rate((i + 1) % 5, i, 0.5);
        }
        let ctmc = b.build().unwrap();
        let plain = GaussSeidelSolver::default().steady_state(&ctmc).unwrap();
        let mut scratch = SolveScratch::new();
        GaussSeidelSolver::default()
            .assuming_irreducible()
            .sweep_into(&ctmc, None, &mut scratch)
            .unwrap();
        assert_eq!(plain, scratch.pi, "the skip is a pure fast path");
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
            let gs = GaussSeidelSolver::default().steady_state(&ctmc).unwrap();
            for (d, g) in dense.iter().zip(gs.iter()) {
                prop_assert!((d - g).abs() < 1e-9);
            }
        }
    }
}
