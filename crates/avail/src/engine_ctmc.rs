//! The reference engine: a truncated multi-class CTMC with failover
//! transients.

use aved_markov::{explore_budgeted, Explored, FallbackSolver, SolveBudget, SolveScratch};
use aved_units::Rate;

use crate::session::{CachedChain, ChainKey};
use crate::{
    AvailError, AvailabilityEngine, EvalHealth, EvalSession, SessionStats, TierAvailability,
    TierModel,
};

/// Most failure classes one tier chain can track: the width of the
/// failover mask in [`ChainKey`].
pub(crate) const MAX_CLASSES: usize = 64;

/// State of the tier CTMC: failed-resource count per failure class (classes
/// past the model's own are always zero), plus an optional in-progress
/// failover (the class that triggered it). Inline and `Copy`, so exploring
/// and repatching a chain allocates nothing per state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct St {
    failed: [u8; MAX_CLASSES],
    failover: Option<u8>,
}

/// Derived per-state quantities shared by the transition rules and the
/// reward function.
#[derive(Debug, Clone, Copy)]
struct View {
    /// Resources currently delivering service.
    working: u32,
    /// Failure-exposed idle spares.
    free_spares: u32,
    /// Whether a failover-class failure would be backfilled by a spare.
    backfill_available: bool,
}

fn view(model: &TierModel, st: &St) -> View {
    let n_total = model.n_total();
    let mut failed_total: u32 = 0;
    let mut failed_failover: u32 = 0;
    for (class, &k) in model.classes().iter().zip(&st.failed) {
        failed_total += u32::from(k);
        if class.uses_failover() {
            failed_failover += u32::from(k);
        }
    }
    let failed_restart = failed_total - failed_failover;
    let available = n_total.saturating_sub(failed_total);
    // Spares backfill failover-class failures (restart-class failures are
    // repaired in place), so the number of filled active roles is bounded by
    // the resources not held by failover-class repairs.
    let remaining = n_total - failed_failover;
    let roles = model.n().min(remaining);
    let working = roles.saturating_sub(failed_restart);
    let free_spares = available.saturating_sub(working);
    // One more failover-class failure is backfilled iff the role count
    // survives it.
    let backfill_available = remaining > 0 && model.n().min(remaining - 1) == roles;
    View {
        working,
        free_spares,
        backfill_available,
    }
}

/// The transition rules of the tier chain: successors of `st` with their
/// rates, in a deterministic rule order. Shared between the initial
/// exploration and the rate-only in-place rebuild ([`Explored::repatch`])
/// so both see the exact same rule sequence.
///
/// Every emitted rate is positive (failure rates, MTTRs and failover times
/// are validated positive, and the resource-count factors gate the rule),
/// so the chain's sparsity structure is a function of the model's *shape*
/// only — the invariant [`ChainKey`] relies on.
fn successors<'a>(model: &'a TierModel, cap: u32, st: &St) -> Successors<'a> {
    let st = *st;
    let classes = model.classes();
    let v = view(model, &st);
    let failed_total: u32 = st.failed[..classes.len()]
        .iter()
        .map(|&k| u32::from(k))
        .sum();
    Successors {
        model,
        st,
        working: v.working,
        // An active failure of a failover class starts a transient when no
        // transient is running, a spare can backfill, and the failure
        // drops the working count below m.
        may_fail_over: st.failover.is_none() && v.backfill_available && v.working <= model.m(),
        exposed_spares: if model.spares_exposed() {
            v.free_spares
        } else {
            0
        },
        // Failures happen only below the truncation cap.
        failing: if failed_total < cap { classes.len() } else { 0 },
        next: Rule::ActiveFailure(0),
    }
}

/// The rule [`Successors`] emits next, with the class it applies to.
#[derive(Debug, Clone, Copy)]
enum Rule {
    ActiveFailure(usize),
    SpareFailure(usize),
    Repair(usize),
    FailoverCompletion,
    Done,
}

/// Iterator over the successors of one tier-chain state (see
/// [`successors`]): per class, the active and then the hot-spare failure;
/// then per class, the repair; then the failover completion. Each state is
/// copied, never allocated.
struct Successors<'a> {
    model: &'a TierModel,
    st: St,
    working: u32,
    may_fail_over: bool,
    exposed_spares: u32,
    /// Classes that may fail: all of them, or none at the cap.
    failing: usize,
    next: Rule,
}

impl Iterator for Successors<'_> {
    type Item = (f64, St);

    fn next(&mut self) -> Option<(f64, St)> {
        let classes = self.model.classes();
        loop {
            match self.next {
                Rule::ActiveFailure(i) if i < self.failing => {
                    self.next = Rule::SpareFailure(i);
                    let class = &classes[i];
                    let rate = f64::from(self.working) * class.rate().per_hour_value();
                    if rate > 0.0 {
                        let mut next = self.st;
                        next.failed[i] += 1;
                        if self.may_fail_over && class.uses_failover() {
                            next.failover = Some(i as u8);
                        }
                        return Some((rate, next));
                    }
                }
                Rule::ActiveFailure(_) => self.next = Rule::Repair(0),
                // No transient: losing an idle spare never interrupts
                // service by itself.
                Rule::SpareFailure(i) => {
                    self.next = Rule::ActiveFailure(i + 1);
                    let rate = f64::from(self.exposed_spares) * classes[i].rate().per_hour_value();
                    if rate > 0.0 {
                        let mut next = self.st;
                        next.failed[i] += 1;
                        return Some((rate, next));
                    }
                }
                // Each failed resource repairs independently.
                Rule::Repair(i) if i < classes.len() => {
                    self.next = Rule::Repair(i + 1);
                    let failed = self.st.failed[i];
                    if failed > 0 {
                        let mu = 1.0 / classes[i].mttr().hours();
                        let mut next = self.st;
                        next.failed[i] -= 1;
                        return Some((f64::from(failed) * mu, next));
                    }
                }
                Rule::Repair(_) => self.next = Rule::FailoverCompletion,
                Rule::FailoverCompletion => {
                    self.next = Rule::Done;
                    if let Some(fo) = self.st.failover {
                        let mut next = self.st;
                        next.failover = None;
                        let class = &classes[usize::from(fo)];
                        return Some((1.0 / class.failover_time().hours(), next));
                    }
                }
                Rule::Done => return None,
            }
        }
    }
}

/// Rejects a model with more failure classes than a chain state tracks.
fn check_width(model: &TierModel) -> Result<(), AvailError> {
    let n_classes = model.classes().len();
    if n_classes > MAX_CLASSES {
        return Err(AvailError::InvalidModel {
            detail: format!(
                "the CTMC engine tracks at most {MAX_CLASSES} failure classes per tier, \
                 got {n_classes}"
            ),
        });
    }
    Ok(())
}

fn is_down(model: &TierModel, st: &St) -> bool {
    st.failover.is_some() || view(model, st).working < model.m()
}

/// Steady-state availability engine built on an exact (truncated) CTMC.
///
/// The chain's state is the vector of failed-resource counts per failure
/// class plus an optional failover-in-progress marker. Failures strike
/// working resources (and hot spares, when the model exposes them); repairs
/// proceed per failed resource; a failover transient is entered when a
/// failover-class failure would drop the active count below `m` and a
/// spare can restore it. The state space is truncated at
/// [`max_concurrent`](Self::with_max_concurrent) simultaneous failures
/// (default 5), which bounds the chain to a few hundred states regardless
/// of cluster size — the probability of deeper overlap is negligible when
/// MTBF ≫ MTTR, and the `ablation_truncation` bench quantifies this.
///
/// # Examples
///
/// ```
/// use aved_avail::{AvailabilityEngine, CtmcEngine, FailureClass, TierModel};
/// use aved_units::Duration;
///
/// // One machine, MTBF 1000 h, MTTR 10 h: unavailability 10/1010.
/// let model = TierModel::new(1, 1, 0).with_class(FailureClass::new(
///     "hw",
///     Duration::from_hours(1000.0).rate(),
///     Duration::from_hours(10.0),
///     Duration::ZERO,
///     false,
/// ));
/// let result = CtmcEngine::default().evaluate(&model)?;
/// assert!((result.unavailability() - 10.0 / 1010.0).abs() < 1e-12);
/// # Ok::<(), aved_avail::AvailError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtmcEngine {
    max_concurrent: u32,
    dense_cutover: usize,
}

impl CtmcEngine {
    /// Creates an engine with the default truncation depth (5 concurrent
    /// failures) and solver cutover.
    #[must_use]
    pub fn new() -> CtmcEngine {
        CtmcEngine {
            max_concurrent: 5,
            dense_cutover: 3000,
        }
    }

    /// Sets the maximum number of simultaneous failed resources modeled.
    ///
    /// # Panics
    ///
    /// Panics if `max_concurrent` is zero.
    #[must_use]
    pub fn with_max_concurrent(mut self, max_concurrent: u32) -> CtmcEngine {
        assert!(max_concurrent > 0, "truncation depth must be positive");
        self.max_concurrent = max_concurrent;
        self
    }

    /// The truncation depth.
    #[must_use]
    pub fn max_concurrent(&self) -> u32 {
        self.max_concurrent
    }

    /// Sets the state count below which the solver prefers the direct solve
    /// (the GTH state reduction of [`DenseSolver`]: exact to full relative
    /// precision in every state, hint-free) over the iterative chain.
    /// Defaults to 3000, which covers every chain the tier models produce;
    /// on their level-by-level structure the reduction stays inside a
    /// narrow envelope, so it costs far less than a dense `n³` elimination.
    /// Lowering it (e.g. to 0) forces the iterative, warm-startable path and
    /// is how the `solver_warm` bench exposes warm-start iteration savings.
    ///
    /// [`DenseSolver`]: aved_markov::DenseSolver
    #[must_use]
    pub fn with_dense_cutover(mut self, dense_cutover: usize) -> CtmcEngine {
        self.dense_cutover = dense_cutover;
        self
    }

    /// The dense-preferred state-count cutover.
    #[must_use]
    pub fn dense_cutover(&self) -> usize {
        self.dense_cutover
    }

    /// Which explored states count as service-down (exposed for the
    /// mission-time analyses).
    pub(crate) fn down_mask(&self, model: &TierModel, explored: &Explored<St>) -> Vec<bool> {
        explored
            .states()
            .iter()
            .map(|st| is_down(model, st))
            .collect()
    }

    /// Builds and explores the tier chain (exposed for tests and the
    /// decomposition engine).
    pub(crate) fn explore_chain(&self, model: &TierModel) -> Result<Explored<St>, AvailError> {
        self.explore_chain_budgeted(model, &SolveBudget::unlimited())
    }

    /// [`Self::explore_chain`] under a cooperative [`SolveBudget`]: the
    /// breadth-first frontier polls the budget's state, byte, deadline and
    /// cancellation limits while it grows.
    pub(crate) fn explore_chain_budgeted(
        &self,
        model: &TierModel,
        budget: &SolveBudget,
    ) -> Result<Explored<St>, AvailError> {
        check_width(model)?;
        let cap = self.max_concurrent.min(model.n_total());
        let initial = St {
            failed: [0; MAX_CLASSES],
            failover: None,
        };
        let explored = explore_budgeted(
            initial,
            2_000_000,
            |st: &St| successors(model, cap, st),
            budget,
        )?;
        Ok(explored)
    }

    /// Solves a prepared chain (explored + down mask, possibly carrying a
    /// previous π of the same shape) and folds the solve into the result
    /// and the session counters. The single code path behind both the cold
    /// and the warm-started evaluations.
    fn evaluate_chain(
        &self,
        cached: &mut CachedChain,
        session_scratch: &mut SolveScratch,
        stats: &mut SessionStats,
        budget: &SolveBudget,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        let ctmc = cached.explored.ctmc();
        // Resilient solve: the direct GTH reduction first below the cutover
        // (exact and fastest there), Gauss-Seidel -> power -> direct above
        // it; every accepted solution passes an independent
        // `‖πQ‖∞ <= 1e-9` residual check.
        let hint = if cached.pi.len() == ctmc.n_states() {
            Some(cached.pi.as_slice())
        } else {
            None
        };
        // A hint exists exactly when this structure already produced an
        // accepted solve (repatching only changes rates), so the solve can
        // skip re-verifying strong connectivity: the traversal runs once
        // per chain shape, not once per candidate.
        let solver = FallbackSolver::default()
            .with_dense_preferred_below(self.dense_cutover + 1)
            .with_irreducibility_assumed(hint.is_some());
        let (pi, diagnostics) = solver.solve_warm_budgeted(ctmc, hint, session_scratch, budget);
        let pi = pi?;

        stats.solves += 1;
        if diagnostics.warm_hint_used {
            stats.warm_hits += 1;
        }
        let iterations = diagnostics.total_iterations();
        stats.iterations += iterations;
        if diagnostics.warm_start_consumed() {
            stats.warm_consumed += 1;
            if let Some(cold) = cached.cold_iterations {
                stats.iterations_saved += cold.saturating_sub(iterations);
            }
        } else if !diagnostics.warm_hint_used && cached.cold_iterations.is_none() {
            cached.cold_iterations = Some(iterations);
        }

        let health = EvalHealth {
            fallbacks: u32::try_from(diagnostics.fallbacks_taken()).unwrap_or(u32::MAX),
            worst_residual: diagnostics.accepted_residual(),
        };

        let down = &cached.down;
        let unavailability: f64 = pi
            .iter()
            .zip(down.iter())
            .filter(|(_, &d)| d)
            .map(|(&p, _)| p)
            .sum();

        // Down-event rate: probability flow from up states into down states.
        let mut event_rate = 0.0;
        for t in ctmc.transitions() {
            if !down[t.from] && down[t.to] {
                event_rate += pi[t.from] * t.rate;
            }
        }
        if !unavailability.is_finite() || !event_rate.is_finite() {
            // The residual check upstream should make this unreachable;
            // surface an error rather than panicking in the constructor.
            return Err(AvailError::InvalidModel {
                detail: format!(
                    "solver produced non-finite results (unavailability {unavailability}, \
                     event rate {event_rate})"
                ),
            });
        }
        cached.pi = pi;
        Ok((
            TierAvailability::new(unavailability.clamp(0.0, 1.0), Rate::per_hour(event_rate)),
            health,
        ))
    }
}

impl Default for CtmcEngine {
    fn default() -> CtmcEngine {
        CtmcEngine::new()
    }
}

impl AvailabilityEngine for CtmcEngine {
    fn evaluate(&self, model: &TierModel) -> Result<TierAvailability, AvailError> {
        self.evaluate_with_health(model).map(|(r, _)| r)
    }

    fn evaluate_with_health(
        &self,
        model: &TierModel,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        // One-shot evaluation is the session path with a throwaway session:
        // the first solve of a fresh session is cold by construction, so
        // the result is bit-identical to the historical direct path.
        let mut session = EvalSession::new();
        self.evaluate_with_session(model, &mut session)
    }

    fn evaluate_with_session(
        &self,
        model: &TierModel,
        session: &mut EvalSession,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        model.check()?;
        let cap = self.max_concurrent.min(model.n_total());
        let EvalSession {
            scratch,
            chains,
            stats,
            budget,
        } = session;
        // Per-candidate view of the session budget: a candidate timeout
        // restarts its clock here, while the global deadline, caps and
        // cancellation token carry over unchanged.
        let budget = budget.for_candidate();

        check_width(model)?;
        let key = ChainKey::for_model(model, cap);

        // Same shape seen before: patch the cached chain's rates in place
        // instead of re-exploring. `repatch` verifies the structure exactly
        // and leaves the chain untouched on any mismatch, so a (practically
        // impossible) key collision falls back to a full re-explore below.
        let repatched = match chains.get_mut(&key) {
            Some(cached) => cached.explored.repatch(|st| successors(model, cap, st)),
            None => false,
        };
        if repatched {
            stats.rebuilds_avoided += 1;
        } else {
            let explored = self.explore_chain_budgeted(model, &budget)?;
            let down = self.down_mask(model, &explored);
            chains.insert(
                key.clone(),
                CachedChain {
                    explored,
                    down,
                    pi: Vec::new(),
                    cold_iterations: None,
                },
            );
        }
        let cached = chains.get_mut(&key).expect("entry inserted above");
        self.evaluate_chain(cached, scratch, stats, &budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FailureClass;
    use aved_markov::birth_death;
    use aved_units::Duration;

    fn simple_class(mtbf_h: f64, mttr_h: f64) -> FailureClass {
        FailureClass::new(
            "c",
            Duration::from_hours(mtbf_h).rate(),
            Duration::from_hours(mttr_h),
            Duration::ZERO,
            false,
        )
    }

    #[test]
    fn single_machine_matches_closed_form() {
        let model = TierModel::new(1, 1, 0).with_class(simple_class(1000.0, 10.0));
        let r = CtmcEngine::default().evaluate(&model).unwrap();
        assert!((r.unavailability() - 10.0 / 1010.0).abs() < 1e-12);
        // Down events happen at rate lambda * P(up).
        let expect_rate = (1.0 / 1000.0) * (1000.0 / 1010.0);
        assert!((r.down_event_rate().per_hour_value() - expect_rate).abs() < 1e-12);
    }

    #[test]
    fn k_of_n_matches_birth_death() {
        // 4 actives, 2 required, no spares, one class; cap high enough to be
        // exact (4 concurrent failures possible).
        let (mtbf, mttr) = (500.0, 5.0);
        let model = TierModel::new(4, 2, 0).with_class(simple_class(mtbf, mttr));
        let r = CtmcEngine::default()
            .with_max_concurrent(4)
            .evaluate(&model)
            .unwrap();

        // Reference: birth-death over failed count; only working resources
        // fail (working = 4 - k), per-resource repair.
        let lambda = 1.0 / mtbf;
        let mu = 1.0 / mttr;
        let births: Vec<f64> = (0..4).map(|k| f64::from(4 - k) * lambda).collect();
        let deaths: Vec<f64> = (0..4).map(|k| f64::from(k + 1) * mu).collect();
        let pi = birth_death::steady_state(&births, &deaths).unwrap();
        let expect: f64 = pi[3] + pi[4]; // down when fewer than 2 working
        assert!(
            (r.unavailability() - expect).abs() < 1e-12,
            "got {}, expect {expect}",
            r.unavailability()
        );
    }

    #[test]
    fn extra_active_reduces_downtime() {
        let base = TierModel::new(2, 2, 0).with_class(simple_class(1000.0, 10.0));
        let extra = TierModel::new(3, 2, 0).with_class(simple_class(1000.0, 10.0));
        let e = CtmcEngine::default();
        let d0 = e.evaluate(&base).unwrap().unavailability();
        let d1 = e.evaluate(&extra).unwrap().unavailability();
        assert!(
            d1 < d0 / 10.0,
            "redundancy should cut downtime sharply: {d0} vs {d1}"
        );
    }

    #[test]
    fn failover_transient_matches_hand_built_chain() {
        // n=1, m=1, s=1, one failover class. States (by construction):
        // (0, -), (1, FO), (1, -), (2, -) ... with cap 2.
        let (mtbf_h, mttr_h, fo_h) = (1000.0, 38.0, 0.1);
        let model = TierModel::new(1, 1, 1).with_class(FailureClass::new(
            "hw/hard",
            Duration::from_hours(mtbf_h).rate(),
            Duration::from_hours(mttr_h),
            Duration::from_hours(fo_h),
            true,
        ));
        let r = CtmcEngine::default().evaluate(&model).unwrap();

        // First-order accounting of the two downtime sources:
        // 1. every failure triggers a failover transient of mean `fo`
        //    (the single active dropping below m=1): rate lambda, so a
        //    time fraction of ~ lambda * fo;
        // 2. while one resource is in repair (time fraction ~ lambda*mttr),
        //    a second failure has no spare left and the service stays down
        //    until the *first* of the two independent repairs completes —
        //    mean mttr/2.
        let lambda = 1.0 / mtbf_h;
        let transient = lambda * fo_h;
        let double = (lambda * mttr_h) * (lambda * mttr_h / 2.0);
        let approx = transient + double;
        let rel = (r.unavailability() - approx).abs() / approx;
        assert!(
            rel < 0.05,
            "unavailability {} vs first-order estimate {approx} (rel {rel})",
            r.unavailability()
        );
    }

    #[test]
    fn spare_cuts_downtime_versus_no_spare() {
        let mk = |s: u32, uses_fo: bool| {
            TierModel::new(2, 2, s).with_class(FailureClass::new(
                "hw/hard",
                Duration::from_days(650.0).rate(),
                Duration::from_hours(38.0),
                Duration::from_mins(5.0),
                uses_fo,
            ))
        };
        let e = CtmcEngine::default();
        let without = e.evaluate(&mk(0, false)).unwrap().annual_downtime();
        let with = e.evaluate(&mk(1, true)).unwrap().annual_downtime();
        // Without a spare each failure costs ~38h; with one it costs ~5min.
        assert!(
            with.minutes() < without.minutes() / 50.0,
            "spare: {} vs none: {}",
            with.minutes(),
            without.minutes()
        );
    }

    #[test]
    fn truncation_converges() {
        // Paper-like tier (m = n, spares): downtime is dominated by
        // single-failure transients, so shallow truncation already captures
        // it and deepening the cap must not move the estimate.
        let model = TierModel::new(4, 4, 1)
            .with_class(FailureClass::new(
                "hw/hard",
                Duration::from_days(650.0).rate(),
                Duration::from_hours(38.0),
                Duration::from_mins(5.0),
                true,
            ))
            .with_class(simple_class(60.0 * 24.0, 0.07));
        let eval = |cap: u32| {
            CtmcEngine::default()
                .with_max_concurrent(cap)
                .evaluate(&model)
                .unwrap()
                .unavailability()
        };
        let shallow = eval(3);
        let deep = eval(5);
        let rel = (shallow - deep).abs() / deep;
        assert!(rel < 1e-3, "truncation error too large: {rel}");
    }

    #[test]
    fn truncation_plateau_once_down_states_are_covered() {
        // Redundant tier where downtime needs 4 concurrent failures: caps
        // below 4 see (almost) none of it, caps >= 4 agree with each other.
        let model = TierModel::new(6, 4, 1)
            .with_class(FailureClass::new(
                "hw/hard",
                Duration::from_days(650.0).rate(),
                Duration::from_hours(38.0),
                Duration::from_mins(5.0),
                true,
            ))
            .with_class(simple_class(60.0 * 24.0, 0.07));
        let eval = |cap: u32| {
            CtmcEngine::default()
                .with_max_concurrent(cap)
                .evaluate(&model)
                .unwrap()
                .unavailability()
        };
        let at4 = eval(4);
        let at7 = eval(7);
        assert!(
            eval(3) < at4 / 100.0,
            "cap 3 should miss the 4-failure states"
        );
        assert!((at4 - at7).abs() / at7 < 2e-3, "cap 4 vs 7: {at4} vs {at7}");
    }

    #[test]
    fn hot_spares_increase_failure_exposure_but_keep_service_up() {
        let cold = TierModel::new(2, 2, 1).with_class(FailureClass::new(
            "hw",
            Duration::from_days(100.0).rate(),
            Duration::from_hours(10.0),
            Duration::from_mins(5.0),
            true,
        ));
        let hot = cold.clone().with_exposed_spares(true);
        let e = CtmcEngine::default();
        let d_cold = e.evaluate(&cold).unwrap().unavailability();
        let d_hot = e.evaluate(&hot).unwrap().unavailability();
        // A hot spare can be dead exactly when needed, so exposure raises
        // unavailability somewhat; but it must stay the same order.
        assert!(d_hot >= d_cold);
        assert!(d_hot < d_cold * 3.0, "hot {d_hot} vs cold {d_cold}");
    }

    #[test]
    fn rejects_invalid_model() {
        let bad = TierModel::new(1, 1, 0); // no classes
        assert!(CtmcEngine::default().evaluate(&bad).is_err());
    }

    #[test]
    fn class_count_is_bounded_by_the_state_width() {
        let with_classes = |count: usize| {
            (0..count).fold(TierModel::new(1, 1, 0), |model, i| {
                model.with_class(simple_class(1000.0 + i as f64, 10.0))
            })
        };
        let engine = CtmcEngine::default().with_max_concurrent(1);
        let widest = engine.evaluate(&with_classes(MAX_CLASSES)).unwrap();
        assert!(widest.unavailability() > 0.0);
        let err = engine.evaluate(&with_classes(MAX_CLASSES + 1)).unwrap_err();
        assert!(
            matches!(&err, AvailError::InvalidModel { detail } if detail.contains("at most 64")),
            "{err}"
        );
        let mut session = EvalSession::new();
        assert!(engine
            .evaluate_with_session(&with_classes(MAX_CLASSES + 1), &mut session)
            .is_err());
    }

    #[test]
    fn state_space_is_independent_of_cluster_size() {
        let mk = |n: u32| {
            TierModel::new(n, n, 2).with_class(FailureClass::new(
                "hw",
                Duration::from_days(650.0).rate(),
                Duration::from_hours(38.0),
                Duration::from_mins(5.0),
                true,
            ))
        };
        let e = CtmcEngine::default();
        let small = e.explore_chain(&mk(4)).unwrap().n_states();
        let large = e.explore_chain(&mk(400)).unwrap().n_states();
        assert_eq!(small, large);
        assert!(large < 50, "truncated chain should stay tiny, got {large}");
    }

    /// A Fig.-7-style rate sweep: same structure, different MTBF/MTTR per
    /// step, which is exactly the neighborhood the repatch + warm-start
    /// machinery targets.
    fn rate_sweep(step: u32) -> TierModel {
        let mtbf_days = 400.0 + 50.0 * f64::from(step);
        let mttr_hours = 48.0 - 4.0 * f64::from(step);
        TierModel::new(3, 3, 1)
            .with_class(FailureClass::new(
                "hw/hard",
                Duration::from_days(mtbf_days).rate(),
                Duration::from_hours(mttr_hours),
                Duration::from_mins(5.0),
                true,
            ))
            .with_class(simple_class(60.0 * 24.0, 0.07 + 0.01 * f64::from(step)))
    }

    #[test]
    fn session_evaluation_is_bit_identical_to_one_shot() {
        // With the default dense-first solver, warm state must not perturb
        // anything: the session path has to reproduce the one-shot result
        // bit for bit at every step of the sweep, regardless of what the
        // session accumulated from earlier (different-rate) models.
        let engine = CtmcEngine::default();
        let mut session = EvalSession::new();
        for step in 0..6 {
            let model = rate_sweep(step);
            let (one_shot, health_cold) = engine.evaluate_with_health(&model).unwrap();
            let (warm, health_warm) = engine.evaluate_with_session(&model, &mut session).unwrap();
            assert_eq!(
                warm.unavailability().to_bits(),
                one_shot.unavailability().to_bits(),
                "step {step}"
            );
            assert_eq!(
                warm.down_event_rate().per_hour_value().to_bits(),
                one_shot.down_event_rate().per_hour_value().to_bits(),
                "step {step}"
            );
            assert_eq!(health_warm.fallbacks, health_cold.fallbacks);
        }
        // All six models share one structural shape: one exploration, five
        // in-place rebuilds, every later solve warm-hinted.
        assert_eq!(session.cached_chains(), 1);
        assert_eq!(session.stats().solves, 6);
        assert_eq!(session.stats().rebuilds_avoided, 5);
        assert_eq!(session.stats().warm_hits, 5);
    }

    #[test]
    fn session_agrees_with_one_shot_on_the_iterative_path() {
        // Force the warm-startable iterative solvers (dense cutover 0) and
        // check the warm results stay within the residual-gate tolerance of
        // the cold ones while actually consuming the warm starts.
        let engine = CtmcEngine::default().with_dense_cutover(0);
        let mut session = EvalSession::new();
        for step in 0..6 {
            let model = rate_sweep(step);
            let cold = engine.evaluate_with_health(&model).unwrap().0;
            let warm = engine
                .evaluate_with_session(&model, &mut session)
                .unwrap()
                .0;
            assert!(
                (warm.unavailability() - cold.unavailability()).abs() < 1e-9,
                "step {step}: warm {} vs cold {}",
                warm.unavailability(),
                cold.unavailability()
            );
        }
        assert_eq!(session.stats().warm_consumed, 5);
        assert!(
            session.stats().iterations_saved > 0,
            "warm starts should shave sweeps off the cold baseline: {:?}",
            session.stats()
        );
    }

    #[test]
    fn session_survives_structural_changes() {
        // Interleave two different shapes: each keeps its own cached chain
        // and warm state, and results still match the one-shot path.
        let engine = CtmcEngine::default();
        let mut session = EvalSession::new();
        for step in 0..4 {
            let narrow = rate_sweep(step);
            let wide =
                TierModel::new(4, 2, 0).with_class(simple_class(500.0 + f64::from(step), 5.0));
            for model in [&narrow, &wide] {
                let one_shot = engine.evaluate_with_health(model).unwrap().0;
                let warm = engine.evaluate_with_session(model, &mut session).unwrap().0;
                assert_eq!(
                    warm.unavailability().to_bits(),
                    one_shot.unavailability().to_bits()
                );
            }
        }
        assert_eq!(session.cached_chains(), 2);
        assert_eq!(session.stats().rebuilds_avoided, 6);
    }

    #[test]
    fn session_budget_governs_exploration_and_solving() {
        use aved_markov::{CancelToken, MarkovError};
        let model = rate_sweep(0);
        let engine = CtmcEngine::default();

        // A tiny state cap trips during exploration, surfaced as a
        // budget-exhaustion error (not the legacy truncation error).
        let mut starved = EvalSession::new()
            .with_budget(aved_markov::SolveBudget::unlimited().with_max_states(3));
        let err = engine
            .evaluate_with_session(&model, &mut starved)
            .unwrap_err();
        assert!(
            matches!(
                err,
                crate::AvailError::Markov(MarkovError::BudgetExhausted { .. })
            ),
            "{err:?}"
        );

        // A cancelled token aborts before any work happens.
        let token = CancelToken::new();
        token.cancel();
        let mut cancelled = EvalSession::new()
            .with_budget(aved_markov::SolveBudget::unlimited().with_cancel(token));
        let err = engine
            .evaluate_with_session(&model, &mut cancelled)
            .unwrap_err();
        assert!(
            matches!(
                err,
                crate::AvailError::Markov(MarkovError::Cancelled { .. })
            ),
            "{err:?}"
        );

        // The default (unlimited) session budget reproduces the one-shot
        // result bit for bit.
        let mut unlimited = EvalSession::new();
        let governed = engine
            .evaluate_with_session(&model, &mut unlimited)
            .unwrap()
            .0;
        let one_shot = engine.evaluate_with_health(&model).unwrap().0;
        assert_eq!(
            governed.unavailability().to_bits(),
            one_shot.unavailability().to_bits()
        );
    }

    #[test]
    fn dense_cutover_builder_round_trips() {
        let e = CtmcEngine::default().with_dense_cutover(17);
        assert_eq!(e.dense_cutover(), 17);
        assert_eq!(CtmcEngine::default().dense_cutover(), 3000);
    }
}
