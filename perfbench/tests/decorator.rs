//! The tracing decorator must not change what the facade answers: on a
//! few queries of every workload, a facade over the decorated engine and
//! one over the bare engine return equal answers and equal `SearchHealth`
//! (under its `PartialEq`, which compares the decision-relevant fields).
//!
//! Ask for an optimized build (`cargo test --release`): a debug build
//! takes minutes on the CTMC workload.

use std::path::PathBuf;
use std::sync::Arc;

use aved_perfbench::engine::EngineStats;
use aved_perfbench::workload::{set_up, Workload};

const QUERIES: usize = 3;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

#[test]
fn decorated_and_bare_engines_answer_alike() {
    for workload in Workload::ALL {
        let stats = Arc::new(EngineStats::default());
        let (traced, service, _) = set_up(&root(), workload, Some(Arc::clone(&stats))).unwrap();
        let (bare, _, _) = set_up(&root(), workload, None).unwrap();
        for requirement in workload.queries(7).take(QUERIES) {
            let (t_report, t_health) = traced.design_with_health(&service, &requirement).unwrap();
            let (b_report, b_health) = bare.design_with_health(&service, &requirement).unwrap();
            assert_eq!(t_report, b_report, "{}: {requirement:?}", workload.name());
            assert_eq!(t_health, b_health, "{}: {requirement:?}", workload.name());
        }
        let reading = stats.reading();
        assert!(
            reading.calls > 0,
            "{}: the decorator saw no calls",
            workload.name()
        );
        assert!(stats.take_distinct_models() > 0);
    }
}
