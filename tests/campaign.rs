//! PR-8 acceptance: campaigns end to end.
//!
//! A campaign over a base family plus both composed families — Monte
//! Carlo swept — must serve every scenario-query through the engine's
//! session pool, reduce to a `ResilienceScorecard`, and stamp each
//! result with a `ProvenanceRecord`; and the whole report must be
//! bit-identical at 1, 2 and 8 campaign workers.

use std::sync::Arc;

use arachnet::{DeterministicExpertModel, Engine, FaultKind, FaultPlan};
use campaign::{
    CampaignReport, CampaignRunner, CampaignSpec, ComposedFamily, EnsembleSpec, Family,
    FamilyParams,
};

const FORENSICS_QUERY: &str =
    "Multiple origin ASes were observed announcing the same prefixes starting two days \
     ago. Determine whether a prefix hijack or a route leak caused this, and identify \
     the offending AS.";

fn spec() -> CampaignSpec {
    let params = FamilyParams { variants: 2, ..FamilyParams::default() };
    CampaignSpec::new(
        vec![
            EnsembleSpec::new(Family::TargetedPrefixHijack, params.clone()).with_draws(2),
            EnsembleSpec::new(ComposedFamily::HijackDuringCascade, params.clone()),
            EnsembleSpec::new(ComposedFamily::CensorshipWithLeak, params),
        ],
        vec![FORENSICS_QUERY.to_string()],
    )
}

/// Serves the spec at `workers` campaign workers, or at the runner's
/// default worker count when `None`.
fn run_campaign(workers: Option<usize>, plan: Option<FaultPlan>) -> CampaignReport {
    let mut engine = Engine::new(
        Arc::new(DeterministicExpertModel::new()),
        toolkit::standard_registry(),
    );
    if let Some(plan) = plan {
        engine = engine.with_fault_plan(plan);
    }
    let runner = CampaignRunner::new(&engine);
    match workers {
        Some(workers) => runner.with_workers(workers),
        None => runner,
    }
    .run(&spec())
}

#[test]
fn campaign_serves_composed_ensembles_with_provenance() {
    let report = run_campaign(None, None);

    // 2 hijack draws × 2 variants + 2 composed fleets × 2 variants.
    assert_eq!(report.scorecard.queries, 8);
    assert_eq!(report.scorecard.failed, 0, "outcomes: {:#?}", report.outcomes);
    assert_eq!(report.registration.fresh, 8);
    assert_eq!(report.registration.mismatched, 0);

    // The hijack-carrying majority of the fleet trips the detectors.
    assert!(report.scorecard.detector_hits >= 6, "scorecard: {:?}", report.scorecard);
    assert!(report.scorecard.impact.max > 0.0, "impact distribution is populated");

    let hashes = report.provenance_hashes();
    let unique: std::collections::BTreeSet<u64> = hashes.iter().copied().collect();
    assert_eq!(unique.len(), hashes.len(), "every scenario-query has its own identity");
    for outcome in &report.outcomes {
        let p = &outcome.provenance;
        assert!(p.scenario_key.starts_with(&format!("{}/d{}/", p.family, p.draw)));
        assert_eq!(p.fault_seed, None);
        assert_eq!(p.query_hash, report.outcomes[0].provenance.query_hash, "one query");
    }

    // Monte Carlo draws swept the world: draw 1 runs on a different
    // world than draw 0 of the same family.
    let world_of = |draw: u64| {
        report
            .outcomes
            .iter()
            .find(|o| o.provenance.family == "targeted-prefix-hijack" && o.provenance.draw == draw)
            .map(|o| o.provenance.world_hash)
    };
    assert_ne!(world_of(0), world_of(1), "reseeded draws decorrelate worlds");
}

#[test]
fn campaign_reports_are_worker_count_invariant() {
    let base = run_campaign(Some(1), None);
    for workers in [2usize, 8] {
        let other = run_campaign(Some(workers), None);
        assert_eq!(base.outcomes, other.outcomes, "{workers} workers: outcomes diverged");
        assert_eq!(base.scorecard, other.scorecard, "{workers} workers: scorecard diverged");
        assert_eq!(base.provenance_hashes(), other.provenance_hashes());
    }
}

#[test]
fn faulted_campaigns_degrade_deterministically() {
    let plan = || FaultPlan::new(7).with_fault("bgp.valley_violations", FaultKind::Persistent);
    let base = run_campaign(Some(1), Some(plan()));

    // The outage degrades forensics runs instead of failing the campaign,
    // and the scorecard surfaces the blast radius.
    assert_eq!(base.scorecard.failed, 0, "scorecard: {:?}", base.scorecard);
    assert!(base.scorecard.degraded > 0, "scorecard: {:?}", base.scorecard);
    assert!(base.scorecard.degraded_rate > 0.0);
    for outcome in &base.outcomes {
        assert_eq!(outcome.provenance.fault_seed, Some(7));
    }

    // Degraded serving replays bit-identically across worker counts too.
    for workers in [2usize, 8] {
        let other = run_campaign(Some(workers), Some(plan()));
        assert_eq!(base.outcomes, other.outcomes, "{workers} workers (faulted)");
        assert_eq!(base.scorecard, other.scorecard);
    }
}
