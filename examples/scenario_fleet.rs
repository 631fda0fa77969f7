//! Scenario fleet: register every scenario family through the engine,
//! share worlds via the content-addressed cache, and serve one query
//! against every scenario in the fleet.
//!
//! ```text
//! cargo run --release --example scenario_fleet
//! ```

use std::sync::Arc;

use arachnet::{DeterministicExpertModel, Engine, Family, FamilyParams};
use toolkit::catalog;

fn main() {
    let engine = Engine::new(
        Arc::new(DeterministicExpertModel::new()),
        catalog::standard_registry(),
    );

    // Expand and register every family in one call per family. Two
    // variants per family keeps the demo quick; the fleet still spans
    // every family and several distinct world configs.
    let params = FamilyParams { variants: 2, ..FamilyParams::default() };
    let fleet = engine.register_families(&Family::ALL, &params);

    println!("scenario families ({}):", Family::ALL.len());
    for family in Family::ALL {
        println!("  {:<28} {}", family.id(), family.description());
    }
    println!(
        "\nfleet: {} scenarios over {} distinct worlds ({} generated — \
         cache deduplicated {} scenario-world bindings)",
        fleet.len(),
        engine.world_cache().generations(),
        engine.world_cache().generations(),
        fleet.len() - engine.world_cache().generations(),
    );

    // Serve the same measurement question against every scenario. The
    // answers differ because the worlds and timelines differ — that is
    // the point of the forge.
    let query = "Identify the impact at a country level due to SeaMeWe-5 cable failure";
    println!("\nquery: {query}\n");
    for entry in &fleet {
        let session = engine.session(&entry.key).expect("fleet key registered");
        let scenario = session.scenario();
        let run = session.run(query, &session.context()).expect("query serves");
        assert!(run.report.all_ok(), "qa findings: {:?}", run.report.qa);

        let top = run.report.outputs.iter().next().and_then(|(_, value)| {
            let table: toolkit::data::CountryTableData = value.parse().ok()?;
            table.rows.first().map(|r| format!("{} {:.3}", r.country, r.impact_score))
        });
        println!(
            "  {:<44} events={:<2} steps={} top=[{}]",
            entry.key,
            scenario.events.len(),
            run.solution.workflow.steps.len(),
            top.unwrap_or_else(|| "-".to_string()),
        );
    }
}
