//! Ensemble generation — the confidence mechanism the paper proposes in
//! §5 (Trust & Verification): compare multiple independent workflow
//! generations and derive a consensus score from their agreement.
//!
//! Variants differ through the planner's deterministic score jitter, so
//! the ensemble explores genuinely different (but always valid)
//! architectures. Members are designed one after another on the caller's
//! thread.

use std::collections::BTreeMap;

use llm::protocol::QueryContext;

use crate::engine::Session;
use crate::orchestrator::{ExpertHooks, GeneratedSolution, PipelineError};

/// Per-function agreement across the ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionAgreement {
    pub function: String,
    /// Fraction of ensemble members using it.
    pub agreement: f64,
}

/// The ensemble result.
#[derive(Debug)]
pub struct EnsembleReport {
    pub solutions: Vec<GeneratedSolution>,
    /// Mean pairwise Jaccard similarity of function sets, `[0, 1]`.
    pub consensus: f64,
    /// Functions sorted by descending agreement.
    pub agreements: Vec<FunctionAgreement>,
    /// Index of the member closest to the consensus (medoid).
    pub representative: usize,
}

impl EnsembleReport {
    /// The representative solution.
    pub fn best(&self) -> &GeneratedSolution {
        &self.solutions[self.representative]
    }

    /// Functions every member agrees on.
    pub fn unanimous_functions(&self) -> Vec<&str> {
        self.agreements
            .iter()
            .filter(|a| a.agreement >= 1.0)
            .map(|a| a.function.as_str())
            .collect()
    }
}

/// Runs `n` generations through one session — so every member plans
/// against the same pinned epoch — and scores their consensus. Only
/// WorkflowScout takes the variant, so the query is decomposed once and
/// each member explores and implements from that decomposition.
pub fn generate_ensemble(
    session: &Session,
    query: &str,
    context: &QueryContext,
    n: usize,
) -> Result<EnsembleReport, PipelineError> {
    if n == 0 {
        return Err(PipelineError::Invalid(
            "ensemble needs at least one member".to_string(),
        ));
    }

    let hooks = ExpertHooks::default();
    let decomposition = session.decompose(query, context, &hooks)?;
    let solutions = (0..n as u64)
        .map(|variant| session.design(query, decomposition.clone(), variant, &hooks))
        .collect::<Result<Vec<_>, _>>()?;

    // Function sets per member.
    let sets: Vec<Vec<String>> = solutions
        .iter()
        .map(|s| {
            let mut fns: Vec<String> =
                s.workflow.steps.iter().map(|st| st.function.0.clone()).collect();
            fns.sort();
            fns.dedup();
            fns
        })
        .collect();

    // Mean pairwise Jaccard.
    let mut pair_sum = 0.0;
    let mut pairs = 0usize;
    for i in 0..sets.len() {
        for j in (i + 1)..sets.len() {
            pair_sum += jaccard(&sets[i], &sets[j]);
            pairs += 1;
        }
    }
    let consensus = if pairs == 0 { 1.0 } else { pair_sum / pairs as f64 };

    // Per-function agreement.
    let mut counts: BTreeMap<&String, usize> = BTreeMap::new();
    for set in &sets {
        for f in set {
            *counts.entry(f).or_default() += 1;
        }
    }
    let mut agreements: Vec<FunctionAgreement> = counts
        .into_iter()
        .map(|(f, c)| FunctionAgreement {
            function: f.clone(),
            agreement: c as f64 / sets.len() as f64,
        })
        .collect();
    agreements.sort_by(|a, b| {
        b.agreement.total_cmp(&a.agreement).then(a.function.cmp(&b.function))
    });

    // Medoid: the member with the highest mean similarity to the others.
    let representative = (0..sets.len())
        .max_by(|&i, &j| {
            let si: f64 = (0..sets.len()).filter(|&k| k != i).map(|k| jaccard(&sets[i], &sets[k])).sum();
            let sj: f64 = (0..sets.len()).filter(|&k| k != j).map(|k| jaccard(&sets[j], &sets[k])).sum();
            si.total_cmp(&sj).then(j.cmp(&i)) // ties: lower index
        })
        .unwrap_or(0);

    Ok(EnsembleReport { solutions, consensus, agreements, representative })
}

/// Jaccard similarity of two sorted, deduplicated sets.
pub fn jaccard(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.iter().filter(|x| b.contains(x)).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::engine::Engine;
    use llm::DeterministicExpertModel;
    use registry::{CapabilityEntry, DataFormat, Param, Registry};

    fn mini_registry() -> Registry {
        let mut r = Registry::new();
        r.register(CapabilityEntry::new(
            "util.compile_disasters",
            "util",
            "compiles disaster specs into failure events",
            vec![
                Param::required("disasters", DataFormat::DisasterSpecs),
                Param::required("failure_probability", DataFormat::Scalar),
            ],
            DataFormat::FailureEventSpec,
        ))
        .unwrap();
        r.register(CapabilityEntry::new(
            "xaminer.event_impact",
            "xaminer",
            "processes failure events into a country impact table",
            vec![Param::required("event", DataFormat::FailureEventSpec)],
            DataFormat::CountryImpactTable,
        ))
        .unwrap();
        r
    }

    fn context() -> QueryContext {
        QueryContext { cable_names: vec![], now: 864_000, horizon_days: 10 }
    }

    fn session() -> Session {
        let engine =
            Engine::new(Arc::new(DeterministicExpertModel::new()), mini_registry());
        engine.register_scenario("cs2", toolkit::scenarios::cs2_scenario());
        engine.session("cs2").unwrap()
    }

    #[test]
    fn ensemble_of_identical_plans_has_full_consensus() {
        let report = generate_ensemble(
            &session(),
            "Identify the impact of severe earthquakes globally assuming a 10% infra \
             failure probability",
            &context(),
            4,
        )
        .unwrap();
        assert_eq!(report.solutions.len(), 4);
        // Only one valid architecture exists in the mini registry, so the
        // ensemble must agree perfectly.
        assert!((report.consensus - 1.0).abs() < 1e-9);
        assert_eq!(
            report.unanimous_functions(),
            vec!["util.compile_disasters", "xaminer.event_impact"]
        );
        assert!(report.representative < 4);
    }

    #[test]
    fn members_match_their_standalone_variants() {
        let engine = Engine::new(
            Arc::new(DeterministicExpertModel::new()),
            toolkit::catalog::standard_registry(),
        );
        engine.register_scenario("cs2", toolkit::scenarios::cs2_scenario());
        let session = engine.session("cs2").unwrap();
        let query = "Identify the impact of severe earthquakes and hurricanes globally \
                     assuming a 10% infra failure probability";
        let report = generate_ensemble(&session, query, &context(), 5).unwrap();
        let hooks = ExpertHooks::default();
        for (i, member) in report.solutions.iter().enumerate() {
            let decomposition = session.decompose(query, &context(), &hooks).unwrap();
            let alone = session.design(query, decomposition, i as u64, &hooks).unwrap();
            assert_eq!(member.decomposition, alone.decomposition, "member {i}");
            assert_eq!(member.source_code, alone.source_code, "member {i}");
        }
    }

    #[test]
    fn jaccard_properties() {
        let a = vec!["x".to_string(), "y".to_string()];
        let b = vec!["y".to_string(), "z".to_string()];
        assert!((jaccard(&a, &a) - 1.0).abs() < 1e-12);
        assert!((jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jaccard(&a, &[]), 0.0);
        assert_eq!(jaccard(&[], &[]), 1.0);
    }

    #[test]
    fn empty_ensemble_is_an_invalid_request() {
        let err = generate_ensemble(
            &session(),
            "Identify the impact of severe earthquakes globally assuming a 10% infra \
             failure probability",
            &context(),
            0,
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::Invalid(_)), "got {err}");
    }

    #[test]
    fn single_member_ensemble() {
        let report = generate_ensemble(
            &session(),
            "Identify the impact of severe hurricanes globally assuming a 10% infra \
             failure probability",
            &context(),
            1,
        )
        .unwrap();
        assert_eq!(report.solutions.len(), 1);
        assert_eq!(report.consensus, 1.0);
    }
}
