//! PR-5 acceptance: control-plane incidents end to end.
//!
//! A hijack scenario registered through `Engine::register_family` must
//! produce MOAS-conflict detections in a *session-served* forensics
//! query, with the execution bit-identical across 1/2/8 concurrent
//! sessions on one engine (the routing sweep itself is pinned
//! thread-count-invariant by `crates/bgp-sim/tests/dense_equivalence.rs`).

use std::sync::Arc;

use arachnet::{DeterministicExpertModel, Engine, FamilyScenario, SessionRun};
use toolkit::catalog;
use toolkit::data::{ControlPlaneReportData, CountryTableData};

const FORENSICS_QUERY: &str =
    "Multiple origin ASes were observed announcing the same prefixes starting two days \
     ago. Determine whether a prefix hijack or a route leak caused this, and identify \
     the offending AS.";

fn hijack_engine() -> (Engine, Vec<FamilyScenario>) {
    let engine = Engine::new(
        Arc::new(DeterministicExpertModel::new()),
        catalog::standard_registry(),
    );
    let fleet = engine.register_family(
        arachnet::Family::TargetedPrefixHijack,
        &arachnet::FamilyParams::default(),
    );
    (engine, fleet)
}

/// Opens a session on `key` and serves the forensics query through it.
fn serve_on(engine: &Engine, key: &str) -> SessionRun {
    let session = engine.session(key).expect("fleet registered");
    session.run(FORENSICS_QUERY, &session.context()).expect("forensics query serves")
}

fn serve() -> (String, SessionRun) {
    let (engine, fleet) = hijack_engine();
    let key = fleet[0].key.clone();
    let run = serve_on(&engine, &key);
    (key, run)
}

#[test]
fn family_registered_hijack_serves_a_forensics_query_with_moas_detections() {
    let (key, run) = serve();
    assert!(key.starts_with("targeted-prefix-hijack/"), "family key: {key}");
    assert!(run.report.all_ok(), "qa: {:?}", run.report.qa);

    // The generated workflow runs the control-plane detectors.
    let functions: Vec<&str> =
        run.solution.workflow.steps.iter().map(|s| s.function.0.as_str()).collect();
    assert!(functions.contains(&"bgp.detect_moas"), "workflow: {functions:?}");
    assert!(functions.contains(&"bgp.valley_violations"), "workflow: {functions:?}");
    assert!(functions.contains(&"util.attribute_control_plane"), "workflow: {functions:?}");

    // The MOAS detector found the hijack and the attribution names an
    // offender with a real capture cone.
    let moas = run
        .report
        .results
        .iter()
        .find(|(id, _)| id.0.contains("detect_moas"))
        .and_then(|(_, r)| r.value())
        .expect("moas step executed");
    let conflicts: Vec<bgp_sim::MoasConflict> = moas.parse().expect("conflicts parse");
    assert!(!conflicts.is_empty(), "the hijack must surface as MOAS conflicts");

    let report = run
        .report
        .results
        .iter()
        .find(|(id, _)| id.0.contains("attribute_control_plane"))
        .and_then(|(_, r)| r.value())
        .expect("attribution step executed");
    let attribution: ControlPlaneReportData = report.parse().expect("report parses");
    assert_eq!(attribution.kind, "prefix-hijack");
    assert!(attribution.offender.is_some(), "an offender is identified");
    assert!(attribution.confidence > 0.5);

    // The declared output is the misdirection impact table.
    let table: CountryTableData = run
        .report
        .outputs
        .values()
        .next()
        .expect("one declared output")
        .parse()
        .expect("impact table parses");
    assert!(!table.rows.is_empty(), "the capture cone touches some countries");
}

/// 1, 2 and 8 worker threads each open a session on one fresh engine
/// and serve the query at once; every run matches a lone serve.
#[test]
fn forensics_serving_is_bit_identical_across_worker_counts() {
    let (key, base) = serve();
    for workers in [1usize, 2, 8] {
        let (engine, _) = hijack_engine();
        #[expect(clippy::disallowed_methods, reason = "the 1/2/8 concurrent-caller pin")]
        let runs: Vec<SessionRun> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..workers).map(|_| scope.spawn(|| serve_on(&engine, &key))).collect();
            handles.into_iter().map(|h| h.join().expect("worker thread")).collect()
        });
        for run in runs {
            assert_eq!(
                run.solution.source_code, base.solution.source_code,
                "{workers} workers: generated solution diverged"
            );
            assert_eq!(run.report, base.report, "{workers} workers: execution diverged");
        }
    }
}
