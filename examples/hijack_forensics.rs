//! Control-plane forensics end to end: a prefix hijack registered as a
//! scenario-family fleet, served through engine sessions.
//!
//! Three acts:
//!
//! 1. register the `targeted-prefix-hijack` family (worlds deduplicated
//!    through the engine's content-addressed cache) and serve the
//!    forensics query against its first scenario — the generated
//!    workflow composes `bgp.updates → bgp.detect_moas /
//!    bgp.valley_violations → util.attribute_control_plane →
//!    xaminer.control_plane_impact`;
//! 2. the same query against the curated CS5 hijack scenario, with the
//!    ground-truth actors printed next to the attribution;
//! 3. the leak family, showing the same workflow attributing a
//!    route leak from valley violations instead of MOAS conflicts.
//!
//! ```text
//! cargo run --release --example hijack_forensics
//! ```

use std::sync::Arc;

use arachnet::{DeterministicExpertModel, Engine, Family, FamilyParams};
use toolkit::data::{ControlPlaneReportData, CountryTableData};
use toolkit::{catalog, scenarios};

fn serve(engine: &Engine, key: &str) -> (ControlPlaneReportData, CountryTableData) {
    let session = engine.session(key).expect("scenario registered");
    let run = session.run(scenarios::CS5_QUERY, &session.context()).expect("query serves");
    assert!(run.report.all_ok(), "qa: {:?}", run.report.qa);
    let attribution = run
        .report
        .results
        .iter()
        .find(|(id, _)| id.0.contains("attribute_control_plane"))
        .and_then(|(_, r)| r.value())
        .and_then(|v| v.parse().ok())
        .expect("attribution step ran");
    let table = run
        .report
        .outputs
        .values()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("impact table output");
    (attribution, table)
}

fn print_report(label: &str, report: &ControlPlaneReportData, table: &CountryTableData) {
    println!("\n--- {label} ---");
    println!("kind:       {}", report.kind);
    println!("offender:   {:?}", report.offender.map(|a| format!("AS{a}")));
    println!(
        "evidence:   {} MOAS conflict(s), {} valley violation(s)",
        report.moas_conflicts, report.valley_violations
    );
    println!("confidence: {:.2}", report.confidence);
    println!("narrative:  {}", report.narrative);
    println!("misdirection impact (top countries):");
    for row in table.rows.iter().take(5) {
        println!(
            "  {}  ases_affected={:<3} score={:.3}",
            row.country, row.ases_affected, row.impact_score
        );
    }
}

fn main() {
    let engine = Engine::new(
        Arc::new(DeterministicExpertModel::new()),
        catalog::standard_registry(),
    );

    // Act 1: the hijack family fleet.
    let params = FamilyParams::default();
    let hijacks = engine.register_family(Family::TargetedPrefixHijack, &params);
    println!(
        "registered {} hijack scenario(s); engine requested {} distinct world(s)",
        hijacks.len(),
        engine.world_cache().generations()
    );
    let (report, table) = serve(&engine, &hijacks[0].key);
    assert_eq!(report.kind, "prefix-hijack");
    print_report(&format!("family scenario {}", hijacks[0].key), &report, &table);

    // Act 2: the curated CS5 scenario with ground truth.
    engine.register_scenario("cs5", scenarios::cs5_hijack_scenario());
    let (report, table) = serve(&engine, "cs5");
    let world = scenarios::standard_world();
    let (hijacker, victim_prefix) = scenarios::cs5_actors(&world);
    print_report("cs5 (curated)", &report, &table);
    println!(
        "ground truth: AS{} hijacking {} (identified {})",
        hijacker.0,
        victim_prefix,
        if report.offender == Some(hijacker.0) { "CORRECTLY" } else { "INCORRECTLY" }
    );
    assert_eq!(report.offender, Some(hijacker.0));

    // Act 3: the accidental transit leak family.
    let leaks = engine.register_family(Family::AccidentalTransitLeak, &params);
    let (report, table) = serve(&engine, &leaks[0].key);
    assert_eq!(report.kind, "route-leak");
    print_report(&format!("family scenario {}", leaks[0].key), &report, &table);

    println!(
        "\nengine worlds requested: {} (built and held by this engine)",
        engine.world_cache().generations()
    );
}
