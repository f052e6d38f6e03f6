//! Oracle for staged evaluation: the staged job search and job frontier
//! against the per-candidate sweep they replaced — every candidate built by
//! `enumerate_tier_candidates` and evaluated on its own by
//! `evaluate_job_design`, pruned and terminated by the same §4.1 rules.
//! Winners, frontiers, counters, skip lists and journals must agree to the
//! bit, on the Fig. 5 service and on infrastructure variants that move
//! parameters across the availability/performance split.

use std::sync::Arc;

use aved_avail::{
    AvailabilityEngine, DecompositionEngine, FaultInjectingEngine, InjectedFault, TierModel,
};
use aved_model::{tier_design_cost, ParamValue};

use super::*;
use crate::candidate::split_settings;
use crate::evaluate::evaluate_job_design;
use crate::test_fixtures::{job_fixture, Fixture};
use crate::{
    enumerate_tier_candidates, job_frontier, search_job_tier, SkippedCandidate, SweepJournal,
};

const DEADLINES_HOURS: [f64; 3] = [60.0, 100.0, 200.0];
const TOTALS: [u32; 5] = [1, 2, 4, 8, 16];

/// Fig. 3 with the checkpoint mechanism reached before maintenance: rH's
/// loss window moves to machineA and its maintenance-driven repair to mpi,
/// so the contract level varies fastest and classes interleave.
const CHECKPOINT_FIRST: [(&str, &str); 2] = [
    (
        "component=machineA cost([inactive,active])=[2400 2640]\n  failure=hard mtbf=650d mttr=<maintenanceA>",
        "component=machineA cost([inactive,active])=[2400 2640] loss_window=<checkpoint>\n  failure=hard mtbf=650d mttr=38h",
    ),
    (
        "component=mpi cost=0 loss_window=<checkpoint>\n  failure=soft mtbf=60d mttr=0",
        "component=mpi cost=0\n  failure=soft mtbf=60d mttr=<maintenanceA>",
    ),
];

/// Fig. 3 with a per-node price on peer storage: the storage location
/// joins the availability class.
const PRICED_STORAGE: [(&str, &str); 1] = [(
    "  cost=0\n  loss_window=checkpoint_interval",
    "  cost(storage_location)=[0 500]\n  loss_window=checkpoint_interval",
)];

/// Fig. 3 with machineA's repair time set by a duration parameter
/// (`EffectValue::Param`) instead of the contract level.
const MTTR_PARAM: [(&str, &str); 1] = [(
    "  cost(level)=[380 580 760 1500]\n  mttr(level)=[38h 15h 8h 6h]",
    "  param=response range=[4h-32h;*2]\n  cost(level)=[380 580 760 1500]\n  mttr=response",
)];

/// The Fig. 5 service on Fig. 3 with `edits` applied to the spec text.
fn variant(edits: &[(&str, &str)]) -> Fixture {
    let mut spec = include_str!("../../../../data/infrastructure.aved").to_owned();
    for (from, to) in edits {
        assert!(spec.contains(from), "edit target missing: {from}");
        spec = spec.replacen(from, to, 1);
    }
    Fixture {
        infrastructure: aved_spec::parse_infrastructure(&spec).expect("variant parses"),
        ..job_fixture()
    }
}

/// The four fixtures, each with its search bounds: maintenance stays
/// unpinned where the variant is about the contract level.
fn fixtures() -> Vec<(&'static str, Fixture, SearchOptions)> {
    let bounds = SearchOptions {
        max_spares: 1,
        ..SearchOptions::default()
    }
    .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()));
    let bronze =
        bounds
            .clone()
            .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()));
    vec![
        ("fig5", job_fixture(), bounds.clone()),
        ("checkpoint-first", variant(&CHECKPOINT_FIRST), bounds),
        ("priced-storage", variant(&PRICED_STORAGE), bronze.clone()),
        ("mttr-param", variant(&MTTR_PARAM), bronze),
    ]
}

/// What the per-candidate min-cost sweep did.
#[derive(Default)]
struct Reference {
    best: Option<EvaluatedDesign>,
    keys: Vec<String>,
    evaluated: u64,
    pruned: u64,
    skipped: Vec<SkippedCandidate>,
}

/// The per-candidate min-cost job sweep, serially.
fn per_candidate_search(ctx: &EvalContext<'_>, deadline: Duration, o: &SearchOptions) -> Reference {
    let tier = ctx.tier("computation").unwrap();
    let quality = |e: &EvaluatedDesign| e.expected_job_time().unwrap();
    let mut r = Reference::default();
    let mut health = SearchHealth::default();
    let mut best_cost: Option<Money> = None;
    for option in tier.options() {
        let (mut prev, mut degrading) = (None, 0);
        for (n_total, min_active) in Levels::Deadline(deadline).of(ctx, option, o).unwrap() {
            let designs = enumerate_tier_candidates(
                ctx.infrastructure(),
                tier.name(),
                option,
                n_total,
                min_active,
                o,
            );
            let costs: Vec<Money> = designs
                .iter()
                .map(|td| tier_design_cost(ctx.infrastructure(), td).unwrap().total())
                .collect();
            let cheapest = costs.iter().copied().min_by(Money::total_cmp);
            if cheapest.is_some_and(|c| r.best.as_ref().is_some_and(|b| c > b.cost())) {
                break;
            }
            let mut here: Option<Duration> = None;
            for (td, cost) in designs.iter().zip(costs) {
                if o.prune && best_cost.is_some_and(|b| b < cost) {
                    r.pruned += 1;
                    continue;
                }
                r.keys.push(job_key("computation", td));
                let result = evaluate_job_design(ctx, option, td);
                let Some(e) = isolate_candidate(result, false, &mut health, td).unwrap() else {
                    continue;
                };
                r.evaluated += 1;
                let q = quality(&e);
                here = Some(here.map_or(q, |h: Duration| h.min(q)));
                if q <= deadline {
                    best_cost = Some(best_cost.map_or(e.cost(), |b| b.min(e.cost())));
                    if r.best
                        .as_ref()
                        .is_none_or(|b| (e.cost(), q) < (b.cost(), quality(b)))
                    {
                        r.best = Some(e);
                    }
                }
            }
            if r.best.is_none() {
                match (prev, here) {
                    (Some(p), Some(h)) if h >= p * 0.999 => degrading += 1,
                    (_, Some(_)) => degrading = 0,
                    _ => {}
                }
                if degrading >= DEGRADE_PATIENCE {
                    break;
                }
            }
            prev = here.or(prev);
        }
    }
    r.skipped = health.skipped;
    r
}

/// The per-candidate job frontier over the `TOTALS` grid.
fn per_candidate_frontier(ctx: &EvalContext<'_>, o: &SearchOptions) -> Vec<EvaluatedDesign> {
    let tier = ctx.tier("computation").unwrap();
    let mut all = Vec::new();
    for option in tier.options() {
        for (n_total, min_active) in Levels::Grid(&TOTALS).of(ctx, option, o).unwrap() {
            for td in enumerate_tier_candidates(
                ctx.infrastructure(),
                tier.name(),
                option,
                n_total,
                min_active,
                o,
            ) {
                all.extend(evaluate_job_design(ctx, option, &td).unwrap());
            }
        }
    }
    pareto_by(all, EvaluatedDesign::cost, |e| {
        e.expected_job_time().unwrap()
    })
}

/// Bit equality of design, cost, unavailability and job time.
fn assert_same(a: &EvaluatedDesign, b: &EvaluatedDesign, label: &str) {
    assert_eq!(a.design(), b.design(), "{label}: design");
    assert_eq!(
        a.cost().dollars().to_bits(),
        b.cost().dollars().to_bits(),
        "{label}: cost"
    );
    assert_eq!(
        a.availability().unavailability().to_bits(),
        b.availability().unavailability().to_bits(),
        "{label}: unavailability"
    );
    assert_eq!(
        a.expected_job_time().map(|t| t.seconds().to_bits()),
        b.expected_job_time().map(|t| t.seconds().to_bits()),
        "{label}: job time"
    );
}

/// The keys a journal file records, in file order.
fn journal_keys(path: &std::path::Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .skip(1)
        .map(|line| {
            let rest = line.strip_prefix("{\"key\":\"").expect("a record line");
            let end = rest.find("\",\"outcome\"").expect("a key field");
            rest[..end].replace("\\\"", "\"").replace("\\\\", "\\")
        })
        .collect()
}

/// Runs the staged search on `engine` (journaled) and the per-candidate
/// sweep on the same engine, and checks they agree on everything.
fn check_search(
    fx: &Fixture,
    engine: &dyn AvailabilityEngine,
    deadline: Duration,
    o: &SearchOptions,
    label: &str,
) -> Reference {
    let ctx = fx.context(engine);
    let reference = per_candidate_search(&ctx, deadline, o);
    let path = std::env::temp_dir().join(format!(
        "aved-staged-oracle-{}-{}.jsonl",
        label.replace(' ', "-"),
        std::process::id()
    ));
    let journal = Arc::new(SweepJournal::create(&path).unwrap());
    let staged = search_job_tier(
        &ctx,
        "computation",
        deadline,
        &o.clone().with_journal(journal.clone()),
    )
    .unwrap();
    journal.flush().unwrap();
    let keys = journal_keys(&path);
    std::fs::remove_file(&path).ok();

    match (reference.best.as_ref(), staged.best()) {
        (Some(a), Some(b)) => assert_same(a, b, label),
        (a, b) => assert_eq!(a.is_some(), b.is_some(), "{label}: feasibility"),
    }
    let health = staged.health();
    assert_eq!(
        health.candidates_evaluated, reference.evaluated,
        "{label}: evaluated"
    );
    assert_eq!(
        health.candidates_pruned, reference.pruned,
        "{label}: pruned"
    );
    assert_eq!(health.skipped, reference.skipped, "{label}: skip list");
    assert_eq!(keys, reference.keys, "{label}: journal keys");
    assert_eq!(
        health.cache_hits + health.cache_misses,
        reference.evaluated,
        "{label}: every evaluated candidate was served by its class's solve"
    );
    reference
}

#[test]
fn staged_search_matches_the_per_candidate_sweep() {
    let engine = DecompositionEngine::default();
    for (name, fx, o) in fixtures() {
        for hours in DEADLINES_HOURS {
            let label = format!("{name} {hours}h");
            let r = check_search(&fx, &engine, Duration::from_hours(hours), &o, &label);
            assert!(
                r.best.is_some(),
                "{label}: the oracle needs a feasible winner"
            );
        }
    }
}

#[test]
fn staged_frontier_matches_the_per_candidate_frontier() {
    let engine = DecompositionEngine::default();
    for (name, fx, o) in fixtures() {
        let ctx = fx.context(&engine);
        let reference = per_candidate_frontier(&ctx, &o);
        let staged = job_frontier(&ctx, "computation", &TOTALS, &o).unwrap();
        assert!(reference.len() >= 3, "{name}: a frontier worth comparing");
        assert_eq!(staged.len(), reference.len(), "{name}: frontier length");
        for (i, (a, b)) in reference.iter().zip(&staged).enumerate() {
            assert_same(a, b, &format!("{name} frontier point {i}"));
        }
    }
}

#[test]
fn variants_move_parameters_across_the_split() {
    let split = |fx: &Fixture| {
        let option = fx.service.tiers()[0].option_for("rH").unwrap();
        split_settings(&fx.infrastructure, option, &[])
    };
    let fig5 = split(&job_fixture());
    assert_eq!((fig5.classes.len(), fig5.grid.len()), (4, 2 * 150));
    assert_eq!(
        fig5.combos[1],
        (0, 1),
        "fig5: the contract level varies slowest"
    );
    let first = split(&variant(&CHECKPOINT_FIRST));
    assert_eq!(
        first.combos[..2],
        [(0, 0), (1, 0)],
        "checkpoint-first: classes interleave"
    );
    let priced = split(&variant(&PRICED_STORAGE));
    assert_eq!((priced.classes.len(), priced.grid.len()), (4 * 2, 150));
    let mttr = split(&variant(&MTTR_PARAM));
    assert_eq!((mttr.classes.len(), mttr.grid.len()), (4 * 4, 2 * 150));
}

/// Fails the model of exactly one availability class at a 100-hour
/// deadline: rH (machineA), 11 active nodes and one spare, which the
/// search meets next to the 12-node winner.
fn one_class(m: &TierModel) -> bool {
    m.n() == 11 && m.s() == 1 && m.classes()[0].label().starts_with("machineA")
}

#[test]
fn a_failing_class_skips_exactly_its_candidates() {
    let inner = DecompositionEngine::default();
    let faulty =
        FaultInjectingEngine::new(&inner).with_fault_when(one_class, InjectedFault::NonConvergence);
    let (_, fx, o) = fixtures().swap_remove(0);
    let o = o.with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()));
    let r = check_search(
        &fx,
        &faulty,
        Duration::from_hours(100.0),
        &o,
        "faulty fig5 100h",
    );
    // The whole class and nothing else: its 300 grid points.
    assert_eq!(r.skipped.len(), 2 * 150, "the fault bites one whole class");
    assert!(r.skipped.iter().all(|s| (s.n_active, s.n_spare) == (11, 1)));
}
