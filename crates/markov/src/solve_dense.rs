//! Exact steady-state solution by GTH state reduction.

use crate::scratch::SolveScratch;
use crate::{Ctmc, MarkovError, SteadyStateSolver};

/// Direct steady-state solver: Grassmann–Taksar–Heyman (GTH) state
/// reduction over the chain's envelope.
///
/// The states are censored out one at a time, `k = n−1, …, 1` (indices in
/// the elimination order described under *Cost*). Removing state `k` folds
/// every path through it into the rates among the states that remain: with
/// `s_k = Σ_{j<k} q_kj` (the rate at which `k` leaves for a remaining
/// state), each `q_ij` with `i, j < k` gains `q_ik·q_kj / s_k`.
/// Back-substitution from `π₀ = 1` then gives
/// `π_k = Σ_{i<k} π_i·q_ik / s_k`, and a final normalization makes the
/// mass one.
///
/// **Accuracy.** The reduction never subtracts: `s_k` is a sum of rates
/// rather than the generator's diagonal, and every update adds a product of
/// non-negatives. Each `π_k` is therefore accurate *relative to its own
/// size*, to a small multiple of machine precision, however stiff the
/// chain: a deep failure state with probability `1e-16` keeps all its
/// digits, where Gaussian elimination on `Q` would bury it under the
/// absolute rounding error of the large entries. `π ≥ 0` by construction,
/// so no pivoting and no clamping are needed.
///
/// **Cost.** The states are first numbered for elimination breadth first
/// along the transitions from the last state (Cuthill–McKee numbering from
/// a peripheral state: for an explored chain, the last state is the one
/// farthest from the initial one), which keeps every state's neighbours at
/// nearby positions. The rates then sit in a row-major `n × n` matrix, but
/// only the chain's envelope is swept: for every position, the first lower
/// position it has a rate to (its row's first nonzero column) and the
/// first lower position with a rate into it (its column's first nonzero
/// row), both widened as fill appears. Removing a state costs one
/// contiguous saxpy over its row's envelope for each state with a rate into
/// it. Tier availability chains, whose transitions link neighbouring
/// failure levels, keep the envelope narrow: a 144-state e-commerce-shaped
/// chain costs a few tens of thousands of multiply-adds, against about
/// `n³/3 ≈ 10⁶` for dense elimination.
///
/// A strong-connectivity check runs first, unless the structure is already
/// known to be irreducible, and rejects a reducible chain with
/// [`MarkovError::Reducible`] before any work is done. On a structure taken
/// on trust the reduction still catches one: the search for the elimination
/// order misses a state, or some `s_k` is zero (state `k` has no way back
/// to the states below it). On an irreducible chain a zero or non-finite
/// `s_k` can only be rounding, fill underflowing or overflowing under
/// extreme rates, and the solve fails with [`MarkovError::Singular`], which
/// a [`FallbackSolver`](crate::FallbackSolver) answers by trying its
/// iterative stages.
///
/// # Examples
///
/// ```
/// use aved_markov::{CtmcBuilder, DenseSolver, SteadyStateSolver};
///
/// // Birth-death chain 0 <-> 1 <-> 2.
/// let mut b = CtmcBuilder::new(3);
/// b.rate(0, 1, 1.0).rate(1, 2, 1.0).rate(1, 0, 2.0).rate(2, 1, 2.0);
/// let pi = DenseSolver::default().steady_state(&b.build()?)?;
/// assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// # Ok::<(), aved_markov::MarkovError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DenseSolver {
    assume_irreducible: bool,
}

impl DenseSolver {
    /// Creates a direct solver.
    #[must_use]
    pub fn new() -> DenseSolver {
        DenseSolver::default()
    }

    /// Skips the up-front strong-connectivity traversal. Only sound when
    /// the identical transition structure previously produced an accepted
    /// solution (see
    /// [`FallbackSolver::with_irreducibility_assumed`](crate::FallbackSolver::with_irreducibility_assumed));
    /// the `s_k > 0` guard of the reduction stays active.
    #[must_use]
    pub(crate) fn assuming_irreducible(mut self, assume: bool) -> DenseSolver {
        self.assume_irreducible = assume;
        self
    }

    /// The reduction, writing the solution into `scratch.pi` and reusing
    /// the scratch's rate matrix and envelope bounds.
    pub(crate) fn solve_into(
        &self,
        ctmc: &Ctmc,
        scratch: &mut SolveScratch,
    ) -> Result<(), MarkovError> {
        let n = ctmc.n_states();
        if n == 0 {
            return Err(MarkovError::EmptyChain);
        }
        if !self.assume_irreducible {
            ctmc.check_irreducible()
                .map_err(|state| MarkovError::Reducible { state })?;
        }
        let SolveScratch {
            pi,
            next: reduced_pi,
            dense: a,
            row_span,
            col_lo,
            order,
            position,
            ..
        } = scratch;

        // Elimination order: breadth first along the transitions from the
        // last state (for an explored chain, the one farthest from state
        // 0), the Cuthill–McKee idea of numbering outward from a
        // peripheral state so every state's neighbours sit close to it.
        // The reduction removes the highest positions first.
        order.clear();
        order.push(n - 1);
        position.clear();
        position.resize(n, usize::MAX);
        position[n - 1] = 0;
        let mut head = 0;
        while let Some(&state) = order.get(head) {
            head += 1;
            for &(to, _) in ctmc.outgoing(state) {
                if position[to] == usize::MAX {
                    position[to] = order.len();
                    order.push(to);
                }
            }
        }
        if let Some(state) = position.iter().position(|&p| p == usize::MAX) {
            return Err(MarkovError::Reducible { state });
        }

        // a[i·n + j] = q_ij off the diagonal, in elimination positions; the
        // diagonal is never read. The matrix is all zero between solves
        // (each solve clears what it wrote), so no n² clear is needed: row
        // i has been written only in row_span[i].
        if a.len() < n * n {
            a.resize(n * n, 0.0);
        }
        row_span.clear();
        row_span.extend((0..n).map(|i| (i, i)));
        col_lo.clear();
        col_lo.extend(0..n);
        for t in ctmc.transitions() {
            let (from, to) = (position[t.from], position[t.to]);
            a[from * n + to] += t.rate;
            let span = &mut row_span[from];
            *span = (span.0.min(to), span.1.max(to + 1));
            if from < to {
                col_lo[to] = col_lo[to].min(from);
            }
        }
        let solved = reduce(n, a, row_span, col_lo, reduced_pi);
        for (i, &(lo, hi)) in row_span.iter().enumerate() {
            a[i * n + lo..i * n + hi].fill(0.0);
        }
        if let Err(e) = solved {
            // The reduction broke down: some s_k (or the mass) vanished or
            // overflowed. When the traversal above
            // passed, the structure is irreducible and that was rounding
            // (fill underflowing to zero under extreme rates), which the
            // iterative stages may still get past; a structure taken on
            // trust is traversed now to tell the two apart.
            if self.assume_irreducible {
                ctmc.check_irreducible()
                    .map_err(|state| MarkovError::Reducible { state })?;
            }
            return Err(e);
        }
        pi.clear();
        pi.resize(n, 0.0);
        for (&state, &p) in order.iter().zip(reduced_pi.iter()) {
            pi[state] = p;
        }
        Ok(())
    }
}

/// Partial-solution mass above which the back-substitution rescales.
const RESCALE_ABOVE: f64 = 1e100;

/// The reduction and back-substitution over a prepared rate matrix (see
/// [`DenseSolver::solve_into`]), writing π, in elimination positions, into
/// `pi`. `row_span[i].0` is row i's first nonzero column below the
/// diagonal, `col_lo[j]` column j's first nonzero row above it; both widen
/// as fill appears, and `row_span[i].1` tracks the end of what row i has
/// had written.
fn reduce(
    n: usize,
    a: &mut [f64],
    row_span: &mut [(usize, usize)],
    col_lo: &mut [usize],
    pi: &mut Vec<f64>,
) -> Result<(), MarkovError> {
    // pi[k] holds s_k until the back-substitution.
    pi.clear();
    pi.resize(n, 0.0);
    for k in (1..n).rev() {
        let (above, from_k) = a.split_at_mut(k * n);
        let lo = row_span[k].0;
        let out_k = &from_k[lo..k]; // q_kj, j in lo..k
        let s: f64 = out_k.iter().sum();
        if !(s > 0.0 && s.is_finite()) {
            return Err(MarkovError::Singular);
        }
        pi[k] = s;
        let inv_s = 1.0 / s;
        let first_in = col_lo[k];
        for i in first_in..k {
            let q_ik = above[i * n + k];
            if q_ik == 0.0 {
                continue;
            }
            // q_ij += (q_ik / s)·q_kj for every j < k; j = i lands on the
            // unused diagonal.
            let f = q_ik * inv_s;
            let row_i = &mut above[i * n + lo..i * n + k];
            for (q_ij, &q_kj) in row_i.iter_mut().zip(out_k) {
                *q_ij += f * q_kj;
            }
            let span = &mut row_span[i];
            *span = (span.0.min(lo), span.1.max(k));
        }
        // Fill reaches column j from the rows that fed state k.
        for (j, &q_kj) in (lo..k).zip(out_k) {
            if q_kj != 0.0 {
                col_lo[j] = col_lo[j].min(first_in);
            }
        }
    }

    // Back-substitution from π₀ = 1, then normalization. The first
    // position may be a very unlikely state (π of a deep failure state can
    // be 1e-300 of the rest), so the partial solution is rescaled to unit
    // mass whenever it grows large, long before it could overflow.
    pi[0] = 1.0;
    let mut sum = 1.0;
    for k in 1..n {
        let inflow: f64 = (col_lo[k]..k).map(|i| pi[i] * a[i * n + k]).sum();
        pi[k] = inflow / pi[k];
        sum += pi[k];
        if sum > RESCALE_ABOVE {
            let inv_sum = 1.0 / sum;
            for p in &mut pi[..=k] {
                *p *= inv_sum;
            }
            sum *= inv_sum;
        }
    }
    if !(sum.is_finite() && sum > 0.0) {
        return Err(MarkovError::Singular);
    }
    for p in pi.iter_mut() {
        *p /= sum;
    }
    Ok(())
}

impl SteadyStateSolver for DenseSolver {
    fn steady_state(&self, ctmc: &Ctmc) -> Result<Vec<f64>, MarkovError> {
        let mut scratch = SolveScratch::new();
        self.solve_into(ctmc, &mut scratch)?;
        Ok(std::mem::take(&mut scratch.pi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtmcBuilder;
    use proptest::prelude::*;

    fn solve(builder: &CtmcBuilder) -> Vec<f64> {
        DenseSolver::new()
            .steady_state(&builder.build().unwrap())
            .unwrap()
    }

    #[test]
    fn two_state_repair_model() {
        // MTBF 100, MTTR 1 => availability 100/101.
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0 / 100.0).rate(1, 0, 1.0);
        let pi = solve(&b);
        assert!((pi[0] - 100.0 / 101.0).abs() < 1e-12);
        assert!((pi[1] - 1.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn detailed_balance_chain() {
        // 3-state ring with symmetric rates has uniform stationary dist.
        let mut b = CtmcBuilder::new(3);
        for (i, j) in [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)] {
            b.rate(i, j, 2.0);
        }
        let pi = solve(&b);
        for p in pi {
            assert!((p - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn asymmetric_ring() {
        // One-directional ring: uniform stationary distribution as well
        // (doubly stochastic generator).
        let mut b = CtmcBuilder::new(4);
        b.rate(0, 1, 5.0)
            .rate(1, 2, 5.0)
            .rate(2, 3, 5.0)
            .rate(3, 0, 5.0);
        let pi = solve(&b);
        for p in pi {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn ring_with_unequal_rates() {
        // pi_i proportional to 1/rate_i for a unidirectional ring.
        let rates = [1.0, 2.0, 4.0];
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, rates[0])
            .rate(1, 2, rates[1])
            .rate(2, 0, rates[2]);
        let pi = solve(&b);
        let weight: f64 = rates.iter().map(|r| 1.0 / r).sum();
        for (i, p) in pi.iter().enumerate() {
            assert!((p - (1.0 / rates[i]) / weight).abs() < 1e-12);
        }
    }

    #[test]
    fn widely_separated_rates_stay_accurate() {
        // MTBF years vs repair minutes: rate ratio ~ 1e7.
        let lambda = 1.0 / (650.0 * 24.0); // per hour
        let mu = 60.0; // one minute repairs
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, lambda).rate(1, 0, mu);
        let pi = solve(&b);
        let expect = lambda / (lambda + mu);
        assert!((pi[1] - expect).abs() / expect < 1e-10);
    }

    #[test]
    fn stiff_tier_chain_keeps_every_probability_to_full_relative_accuracy() {
        // 6 servers, MTBF 650 d, MTTR 38 h, per-resource repair: pi_6 is
        // about 2e-16, below the absolute rounding error of pi_0 ~ 1.
        let (lambda, mu) = (1.0 / (650.0 * 24.0), 1.0 / 38.0);
        let births: Vec<f64> = (0..6).map(|k| f64::from(6 - k) * lambda).collect();
        let deaths: Vec<f64> = (0..6).map(|k| f64::from(k + 1) * mu).collect();
        let mut b = CtmcBuilder::new(7);
        for k in 0..6 {
            b.rate(k, k + 1, births[k]).rate(k + 1, k, deaths[k]);
        }
        let pi = solve(&b);
        let exact = crate::birth_death::steady_state(&births, &deaths).unwrap();
        assert!(exact[6] < 1e-15, "the chain should be stiff: {}", exact[6]);
        for (k, (&p, &e)) in pi.iter().zip(&exact).enumerate() {
            let rel = (p - e).abs() / e;
            assert!(
                rel < 1e-12,
                "pi_{k} = {p:e}, exact {e:e}, relative error {rel:e}"
            );
        }
    }

    #[test]
    fn an_improbable_first_state_does_not_overflow() {
        // A 257-state repairman chain: the all-failed state, where the
        // elimination order starts, is about 1e-691 as likely as the
        // all-up one.
        let n = 256;
        let births: Vec<f64> = (0..n).map(|k| (n - k) as f64 * 1e-3).collect();
        let deaths: Vec<f64> = (0..n).map(|k| (k + 1) as f64 * 0.5).collect();
        let mut b = CtmcBuilder::new(n + 1);
        for k in 0..n {
            b.rate(k, k + 1, births[k]).rate(k + 1, k, deaths[k]);
        }
        let pi = solve(&b);
        let exact = crate::birth_death::steady_state(&births, &deaths).unwrap();
        for (k, (&p, &e)) in pi.iter().zip(&exact).enumerate() {
            if e > 1e-290 {
                assert!((p - e).abs() <= 1e-12 * e, "pi_{k} = {p:e}, exact {e:e}");
            }
        }
    }

    #[test]
    fn skipping_the_connectivity_check_changes_no_bit() {
        let mut b = CtmcBuilder::new(5);
        for (i, j, r) in [
            (0, 1, 0.3),
            (1, 2, 0.7),
            (2, 4, 1.1),
            (4, 3, 2.0),
            (3, 0, 0.9),
            (1, 0, 4.0),
            (3, 1, 0.2),
        ] {
            b.rate(i, j, r);
        }
        let ctmc = b.build().unwrap();
        let mut checked = SolveScratch::new();
        let mut assumed = SolveScratch::new();
        DenseSolver::new().solve_into(&ctmc, &mut checked).unwrap();
        DenseSolver::new()
            .assuming_irreducible(true)
            .solve_into(&ctmc, &mut assumed)
            .unwrap();
        let bits = |pi: &[f64]| pi.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&checked.pi), bits(&assumed.pi));
    }

    #[test]
    fn reducible_chains_are_caught_even_unchecked() {
        let unchecked = |edges: &[(usize, usize)]| {
            let mut b = CtmcBuilder::new(3);
            for &(i, j) in edges {
                b.rate(i, j, 1.0);
            }
            DenseSolver::new()
                .assuming_irreducible(true)
                .solve_into(&b.build_unchecked(), &mut SolveScratch::new())
        };
        // State 2 is absorbing: the search for an elimination order from
        // it reaches nothing.
        assert_eq!(
            unchecked(&[(0, 1), (1, 0), (1, 2)]),
            Err(MarkovError::Reducible { state: 0 })
        );
        // State 2 is transient: the search reaches every state, but 0 and 1
        // never return to 2, so the reduction meets s = 0 at state 0 and
        // the traversal it then runs names state 2, unreached from state 0.
        assert_eq!(
            unchecked(&[(2, 0), (2, 1), (0, 1), (1, 0)]),
            Err(MarkovError::Reducible { state: 2 })
        );
    }

    #[test]
    fn rounding_breakdown_on_an_irreducible_chain_is_singular() {
        // Ring 2 -> 0 -> 1 -> 2, eliminated in positions (2, 0, 1): removing
        // state 1 feeds 0 -> 2 the rate 1e-200 · 1e200 / 1e200, whose
        // factor 1e-200 / 1e200 underflows to zero, so s = 0 at state 0.
        let mut b = CtmcBuilder::new(3);
        b.rate(2, 0, 1.0).rate(0, 1, 1e-200).rate(1, 2, 1e200);
        let ring = b.build().unwrap();
        for assume in [false, true] {
            assert_eq!(
                DenseSolver::new()
                    .assuming_irreducible(assume)
                    .solve_into(&ring, &mut SolveScratch::new()),
                Err(MarkovError::Singular)
            );
        }
    }

    #[test]
    fn reused_scratch_gives_the_fresh_answer() {
        // Each solve must clear the fill it wrote, including one that
        // fails part-way, or the next solve would read it.
        let ring = |n: usize, scale: f64| {
            let mut b = CtmcBuilder::new(n);
            for i in 0..n {
                b.rate(i, (i + 1) % n, scale * (1.0 + i as f64));
                b.rate((i + 3) % n, i, 0.5 + scale);
            }
            b.build().unwrap()
        };
        // State 4 is transient and {0, 1, 2, 3} closed, so the reduction
        // fills rows before it finds that state 0 has no way back to 4.
        let mut b = CtmcBuilder::new(5);
        for (i, j) in [
            (4, 0),
            (4, 1),
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (2, 0),
            (1, 0),
        ] {
            b.rate(i, j, 1.0 + (i + j) as f64);
        }
        let trapped = b.build_unchecked();
        let mut scratch = SolveScratch::new();
        DenseSolver::new()
            .solve_into(&ring(40, 2.0), &mut scratch)
            .unwrap();
        assert_eq!(
            DenseSolver::new()
                .assuming_irreducible(true)
                .solve_into(&trapped, &mut scratch),
            Err(MarkovError::Reducible { state: 4 })
        );
        assert!(scratch.dense.iter().all(|&q| q == 0.0), "fill left behind");
        let small = ring(17, 0.3);
        DenseSolver::new().solve_into(&small, &mut scratch).unwrap();
        let fresh = DenseSolver::new().steady_state(&small).unwrap();
        assert_eq!(scratch.pi, fresh);
    }

    #[test]
    fn reducible_chain_is_rejected() {
        let mut b = CtmcBuilder::new(3);
        b.rate(0, 1, 1.0).rate(1, 0, 1.0).rate(2, 0, 1.0);
        let ctmc = b.build_unchecked();
        assert!(matches!(
            DenseSolver::new().steady_state(&ctmc),
            Err(MarkovError::Reducible { .. })
        ));
    }

    #[test]
    fn single_state() {
        let b = CtmcBuilder::new(1);
        let pi = solve(&b);
        assert_eq!(pi, vec![1.0]);
    }

    proptest! {
        /// For random irreducible 2-state chains the closed form is known.
        #[test]
        fn two_state_closed_form(lambda in 1e-8_f64..1e3, mu in 1e-8_f64..1e3) {
            let mut b = CtmcBuilder::new(2);
            b.rate(0, 1, lambda).rate(1, 0, mu);
            let pi = solve(&b);
            let expect0 = mu / (lambda + mu);
            prop_assert!((pi[0] - expect0).abs() < 1e-9 * expect0.max(1e-12));
        }

        /// Random strongly-connected chains: the result satisfies piQ = 0.
        #[test]
        fn residual_is_small(
            n in 2_usize..12,
            seed_rates in proptest::collection::vec(0.01_f64..100.0, 2 * 12),
        ) {
            let mut b = CtmcBuilder::new(n);
            // Ring to guarantee irreducibility...
            for (i, &rate) in seed_rates.iter().enumerate().take(n) {
                b.rate(i, (i + 1) % n, rate);
            }
            // ...plus some chords.
            for i in 0..n {
                let j = (i * 7 + 3) % n;
                if j != i {
                    b.rate(i, j, seed_rates[n + i]);
                }
            }
            let ctmc = b.build().unwrap();
            let pi = DenseSolver::new().steady_state(&ctmc).unwrap();
            // residual_j = sum_i pi_i Q[i][j]
            let mut residual = vec![0.0_f64; n];
            for t in ctmc.transitions() {
                residual[t.to] += pi[t.from] * t.rate;
                residual[t.from] -= pi[t.from] * t.rate;
            }
            for r in residual {
                prop_assert!(r.abs() < 1e-8);
            }
            prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        }
    }
}
