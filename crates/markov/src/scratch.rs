//! Reusable solver workspace.
//!
//! A design search solves thousands of chains of nearly identical size
//! back to back; allocating the iteration vectors, the transposed in-edge
//! structure, and the direct solve's rate matrix fresh for every solve is
//! pure churn. [`SolveScratch`] owns those buffers so consecutive solves
//! recycle them — pass one to
//! [`FallbackSolver::solve_warm`](crate::FallbackSolver::solve_warm) (or the
//! individual solvers' scratch entry points) and the only per-solve
//! allocation left is the returned `π` vector itself.

/// Reusable buffers for steady-state solves.
///
/// All buffers are resized on demand, so one scratch serves chains of any
/// (varying) size; capacity only grows. A fresh scratch is equivalent to no
/// scratch — reuse changes performance, never results.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    /// Current iterate / final solution of the last solve.
    pub(crate) pi: Vec<f64>,
    /// Second iterate for Jacobi-style updates (power iteration); the
    /// direct solve's π in elimination order.
    pub(crate) next: Vec<f64>,
    /// Transposed adjacency: `in_starts[j]..in_starts[j+1]` indexes
    /// `in_edges`, listing the incoming `(source, rate)` pairs of state `j`.
    pub(crate) in_starts: Vec<usize>,
    /// Flat in-edge storage (see `in_starts`).
    pub(crate) in_edges: Vec<(usize, f64)>,
    /// Per-state write cursor used while building the transpose.
    pub(crate) in_cursor: Vec<usize>,
    /// Row-major `n × n` rate matrix of the direct solve; all zero between
    /// solves.
    pub(crate) dense: Vec<f64>,
    /// Per `dense` row: the first nonzero column below the diagonal, and
    /// one past the last column written.
    pub(crate) row_span: Vec<(usize, usize)>,
    /// First nonzero row above the diagonal of each `dense` column.
    pub(crate) col_lo: Vec<usize>,
    /// Direct solve: the state at each elimination position.
    pub(crate) order: Vec<usize>,
    /// Direct solve: the elimination position of each state.
    pub(crate) position: Vec<usize>,
}

impl SolveScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> SolveScratch {
        SolveScratch::default()
    }

    /// Total `f64` capacity currently held across all buffers (a coarse
    /// footprint indicator for tests and diagnostics).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.pi.capacity()
            + self.next.capacity()
            + self.dense.capacity()
            + 2 * self.row_span.capacity()
            + self.col_lo.capacity()
            + self.order.capacity()
            + self.position.capacity()
            + 2 * self.in_edges.capacity()
            + self.in_starts.capacity()
            + self.in_cursor.capacity()
    }
}

/// A validated warm-start hint: the caller's slice and its mass, checked
/// in place so that a solve which never consumes the hint (the direct
/// stage) never copies it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WarmHint<'a> {
    values: &'a [f64],
    mass: f64,
}

impl<'a> WarmHint<'a> {
    /// Validates a hint for an `n`-state chain.
    ///
    /// Returns `None` (caller falls back to a cold start) when the hint is
    /// the wrong length, contains a non-finite entry, has a meaningfully
    /// negative entry, or carries no mass. Tiny negative entries (down to
    /// `-1e-9`, the solvers' own rounding allowance) count as zero.
    pub(crate) fn new(n: usize, values: &'a [f64]) -> Option<WarmHint<'a>> {
        if values.len() != n {
            return None;
        }
        let mut mass = 0.0_f64;
        for &h in values {
            if !h.is_finite() || h < -1e-9 {
                return None;
            }
            mass += h.max(0.0);
        }
        if !mass.is_finite() || mass <= 0.0 {
            return None;
        }
        Some(WarmHint { values, mass })
    }

    /// Writes the hint into `pi`, rounding noise clamped to zero and the
    /// mass renormalized to one.
    pub(crate) fn load_into(&self, pi: &mut Vec<f64>) {
        pi.clear();
        pi.extend(self.values.iter().map(|&h| h.max(0.0) / self.mass));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded(n: usize, hint: &[f64]) -> Option<Vec<f64>> {
        let mut pi = vec![7.0; 5];
        WarmHint::new(n, hint)?.load_into(&mut pi);
        Some(pi)
    }

    #[test]
    fn sanitize_rejects_wrong_size() {
        assert!(WarmHint::new(3, &[0.5, 0.5]).is_none());
        assert!(WarmHint::new(2, &[0.2, 0.3, 0.5]).is_none());
    }

    #[test]
    fn sanitize_rejects_non_finite_and_negative() {
        assert!(WarmHint::new(2, &[f64::NAN, 1.0]).is_none());
        assert!(WarmHint::new(2, &[f64::INFINITY, 1.0]).is_none());
        assert!(WarmHint::new(2, &[-0.5, 1.5]).is_none());
        assert!(WarmHint::new(2, &[0.0, 0.0]).is_none(), "no mass");
    }

    #[test]
    fn sanitize_renormalizes_and_clamps_rounding_noise() {
        assert_eq!(loaded(2, &[3.0, 1.0]).unwrap(), vec![0.75, 0.25]);
        assert_eq!(loaded(2, &[-1e-12, 2.0]).unwrap(), vec![0.0, 1.0]);
    }

    #[test]
    fn scratch_capacity_starts_empty() {
        assert_eq!(SolveScratch::new().capacity(), 0);
    }
}
