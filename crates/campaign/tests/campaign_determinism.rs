//! Campaign determinism: the scorecard and the provenance records a
//! campaign produces are **byte-identical** at 1, 2 and 8 workers, and
//! across same-seed reruns — with and without a fault plan installed.
//!
//! Every run gets a fresh engine, which owns its world cache, so each
//! run builds the spec's worlds cold on its own workers.
//!
//! Outcome payloads are compared structurally (`CampaignReport` is
//! `PartialEq` all the way down) *and* through their serialized JSON
//! bytes, so a formatting-level divergence (float canonicalization, map
//! ordering) cannot hide behind a passing structural comparison.

use std::sync::Arc;

use campaign::{
    CampaignFamily, CampaignReport, CampaignRunner, CampaignSpec, ComposedFamily, EnsembleSpec,
    Family, FamilyParams,
};
use arachnet::{DeterministicExpertModel, Engine, FaultKind, FaultPlan};
use proptest::prelude::*;

const QUERIES: [&str; 2] = [
    "Multiple origin ASes were observed announcing the same prefixes starting two days \
     ago. Determine whether a prefix hijack or a route leak caused this, and identify \
     the offending AS.",
    "Which countries lose the most reachability under the current incident timeline?",
];

/// Every family a campaign can sweep, base and composed.
fn family_pool() -> Vec<CampaignFamily> {
    let mut pool: Vec<CampaignFamily> =
        Family::ALL.iter().copied().map(CampaignFamily::Base).collect();
    pool.extend(ComposedFamily::ALL.iter().copied().map(CampaignFamily::Composed));
    pool
}

/// An arbitrary small campaign spec: 1–2 ensembles over arbitrary
/// families, seeds and sweep widths, posing 1–2 queries.
fn arbitrary_spec() -> impl Strategy<Value = CampaignSpec> {
    (
        proptest::collection::vec((any::<u8>(), any::<u32>(), 1usize..=2), 1..=2),
        1usize..=2,
    )
        .prop_map(|(ensembles, nqueries)| {
            let pool = family_pool();
            let ensembles = ensembles
                .into_iter()
                .map(|(pick, seed, draws)| {
                    let family = pool[pick as usize % pool.len()];
                    let params =
                        FamilyParams { seed: seed as u64, variants: 1, ..FamilyParams::default() };
                    EnsembleSpec::new(family, params).with_draws(draws)
                })
                .collect();
            let queries = QUERIES[..nqueries].iter().map(|q| q.to_string()).collect();
            CampaignSpec::new(ensembles, queries)
        })
}

/// Runs `spec` on a fresh engine with `workers` campaign workers,
/// optionally with a fault plan installed.
fn run(spec: &CampaignSpec, workers: usize, plan: Option<FaultPlan>) -> CampaignReport {
    let mut engine =
        Engine::new(Arc::new(DeterministicExpertModel::new()), toolkit::standard_registry());
    if let Some(plan) = plan {
        engine = engine.with_fault_plan(plan);
    }
    CampaignRunner::new(&engine).with_workers(workers).run(spec)
}

/// The serialized identity of a report: scorecard JSON plus every
/// provenance record's JSON, in task order.
#[expect(clippy::expect_used, reason = "reports serialize through the infallible JSON projection")]
fn report_bytes(report: &CampaignReport) -> String {
    let mut out = serde_json::to_string(&report.scorecard).expect("scorecard serializes");
    for outcome in &report.outcomes {
        out.push('\n');
        out.push_str(&serde_json::to_string(&outcome.provenance).expect("record serializes"));
    }
    out
}

fn assert_identical(a: &CampaignReport, b: &CampaignReport, what: &str) {
    assert_eq!(a.outcomes, b.outcomes, "{what}: outcomes diverged");
    assert_eq!(a.scorecard, b.scorecard, "{what}: scorecard diverged");
    assert_eq!(a.registration, b.registration, "{what}: registration diverged");
    assert_eq!(report_bytes(a), report_bytes(b), "{what}: serialized bytes diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Scorecards and provenance are worker-count invariant and rerun
    /// stable on arbitrary specs, from a cold 8-worker run.
    #[test]
    fn campaigns_are_worker_invariant_and_rerun_stable(spec in arbitrary_spec()) {
        let base = run(&spec, 8, None);
        prop_assert!(base.scorecard.queries > 0, "spec expands to at least one task");
        for workers in [2usize, 1] {
            let other = run(&spec, workers, None);
            assert_identical(&base, &other, &format!("{workers} workers"));
        }
        let rerun = run(&spec, 8, None);
        assert_identical(&base, &rerun, "same-seed rerun");
    }

    /// The same invariance holds with a fault plan injecting persistent
    /// detector outages — degraded runs replay exactly, and every
    /// provenance record carries the plan's seed.
    #[test]
    fn faulted_campaigns_replay_bit_identically(spec in arbitrary_spec(), seed in any::<u64>()) {
        let plan = || {
            FaultPlan::new(seed).with_fault("bgp.valley_violations", FaultKind::Persistent)
        };
        let base = run(&spec, 8, Some(plan()));
        for workers in [2usize, 1] {
            let other = run(&spec, workers, Some(plan()));
            assert_identical(&base, &other, &format!("faulted, {workers} workers"));
        }
        let rerun = run(&spec, 8, Some(plan()));
        assert_identical(&base, &rerun, "faulted same-seed rerun");
        for outcome in &base.outcomes {
            prop_assert_eq!(outcome.provenance.fault_seed, Some(seed));
        }
    }
}
