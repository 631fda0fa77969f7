//! Resilience campaign: compose interacting incidents, sweep them as a
//! Monte Carlo ensemble, and serve the whole fleet of scenario-queries
//! through the engine, reduced to a scorecard with provenance.
//!
//! ```text
//! cargo run --release --example resilience_campaign
//! ```

use std::sync::Arc;

use arachnet::{DeterministicExpertModel, Engine, FaultKind, FaultPlan};
use campaign::{
    CampaignRunner, CampaignSpec, ComposedFamily, EnsembleSpec, Family, FamilyParams,
};
use toolkit::catalog;

const FORENSICS_QUERY: &str =
    "Multiple origin ASes were observed announcing the same prefixes starting two days \
     ago. Determine whether a prefix hijack or a route leak caused this, and identify \
     the offending AS.";

fn main() {
    // A campaign over one base family and both composed families, each
    // swept across three Monte Carlo draws (reseeded worlds + timelines).
    let params = FamilyParams { variants: 2, ..FamilyParams::default() };
    let spec = CampaignSpec::new(
        vec![
            EnsembleSpec::new(Family::TargetedPrefixHijack, params.clone()).with_draws(3),
            EnsembleSpec::new(ComposedFamily::HijackDuringCascade, params.clone()).with_draws(3),
            EnsembleSpec::new(ComposedFamily::CensorshipWithLeak, params).with_draws(3),
        ],
        vec![FORENSICS_QUERY.to_string()],
    );

    println!("composed families:");
    for family in ComposedFamily::ALL {
        let members: Vec<&str> = family.members().iter().map(|f| f.id()).collect();
        println!("  {:<24} = {:<40} ({})", family.id(), members.join(" + "), family.description());
    }

    let engine = Engine::new(
        Arc::new(DeterministicExpertModel::new()),
        catalog::standard_registry(),
    );
    let report = CampaignRunner::new(&engine).run(&spec);

    println!(
        "\ncampaign: {} scenario-queries over {} distinct worlds \
         ({} fresh registrations, {} mismatches)",
        report.scorecard.queries,
        engine.world_cache().generations(),
        report.registration.fresh,
        report.registration.mismatched,
    );
    let card = &report.scorecard;
    println!(
        "scorecard: ok={} degraded={} failed={} | detector hit rate {:.0}% | \
         impact p50={:.3} p90={:.3} max={:.3}",
        card.ok,
        card.degraded,
        card.failed,
        card.detector_hit_rate * 100.0,
        card.impact.p50,
        card.impact.p90,
        card.impact.max,
    );

    println!("\nper-query provenance (first 6 of {}):", report.outcomes.len());
    for outcome in report.outcomes.iter().take(6) {
        let p = &outcome.provenance;
        println!(
            "  {:<36} scenario={:016x} world={:016x} draw={} epoch={} prov={:016x}",
            p.scenario_key,
            p.scenario_hash,
            p.world_hash,
            p.draw,
            p.registry_epoch,
            p.content_hash(),
        );
    }

    // The same campaign with an injected persistent detector outage: runs
    // degrade instead of failing, the scorecard says by how much, and
    // every provenance record carries the fault plan's seed.
    let plan = FaultPlan::new(7).with_fault("bgp.valley_violations", FaultKind::Persistent);
    let faulted_engine = Engine::new(
        Arc::new(DeterministicExpertModel::new()),
        catalog::standard_registry(),
    )
    .with_fault_plan(plan);
    let faulted = CampaignRunner::new(&faulted_engine).run(&spec);
    println!(
        "\nwith bgp.valley_violations persistently failed: ok={} degraded={} failed={} \
         (degraded rate {:.0}%, fault seed {:?})",
        faulted.scorecard.ok,
        faulted.scorecard.degraded,
        faulted.scorecard.failed,
        faulted.scorecard.degraded_rate * 100.0,
        faulted.outcomes[0].provenance.fault_seed,
    );
    assert_eq!(faulted.scorecard.failed, 0, "outages degrade, they don't fail the campaign");
}
