//! The four case studies of §4, end to end.
//!
//! Each case study pairs:
//!
//! * the paper's verbatim natural-language query,
//! * the scenario it is asked in (see `toolkit::scenarios`),
//! * the registry configuration (CS1 withholds Xaminer's high-level
//!   abstractions, exactly as the paper's controlled setup does),
//! * the expert baseline workflow and its arguments.
//!
//! [`run_case_study`] runs ArachNet's pipeline on the query, executes both
//! the generated and the expert workflow against the same scenario, and
//! returns everything needed for comparison.

use std::collections::BTreeMap;
use std::sync::Arc;

use arachnet::{DeterministicExpertModel, Engine, GeneratedSolution};
use baselines::expert::{expert_args, expert_cs1, expert_cs2, expert_cs3, expert_cs4};
use registry::Registry;
use toolkit::{catalog, scenarios};
use workflow::{execute, ExecutionReport, Value, Workflow};

/// The four case studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseStudy {
    /// Level 1 — expert solution replication: cable impact.
    Cs1CableImpact,
    /// Level 1 — expert solution replication: multi-disaster restraint.
    Cs2DisasterImpact,
    /// Level 2 — multi-framework orchestration: cascading failures.
    Cs3CascadingFailure,
    /// Level 3 — forensic root-cause investigation.
    Cs4ForensicRca,
}

impl CaseStudy {
    /// All four, in paper order.
    pub const ALL: [CaseStudy; 4] = [
        CaseStudy::Cs1CableImpact,
        CaseStudy::Cs2DisasterImpact,
        CaseStudy::Cs3CascadingFailure,
        CaseStudy::Cs4ForensicRca,
    ];

    /// The paper's verbatim query.
    pub fn query(&self) -> &'static str {
        match self {
            CaseStudy::Cs1CableImpact => {
                "Identify the impact at a country level due to SeaMeWe-5 cable failure"
            }
            CaseStudy::Cs2DisasterImpact => {
                "Identify the impact of severe earthquakes and hurricanes globally assuming a \
                 10% infra failure probability"
            }
            CaseStudy::Cs3CascadingFailure => {
                "Analyze the cascading effects of submarine cable failures between Europe and \
                 Asia"
            }
            CaseStudy::Cs4ForensicRca => {
                "A sudden increase in latency was observed from European probes to Asian \
                 destinations starting three days ago. Determine if a submarine cable failure \
                 caused this, and if so, identify the specific cable."
            }
        }
    }

    /// Paper-reported generated-solution size, printed beside the measured
    /// one in the `report` binary's E1–E4 tables.
    pub fn paper_loc(&self) -> usize {
        match self {
            CaseStudy::Cs1CableImpact => 250,
            CaseStudy::Cs2DisasterImpact => 300,
            CaseStudy::Cs3CascadingFailure => 525,
            CaseStudy::Cs4ForensicRca => 750,
        }
    }

    /// Case-study index (1–4).
    pub fn index(&self) -> usize {
        match self {
            CaseStudy::Cs1CableImpact => 1,
            CaseStudy::Cs2DisasterImpact => 2,
            CaseStudy::Cs3CascadingFailure => 3,
            CaseStudy::Cs4ForensicRca => 4,
        }
    }

    /// The scenario the query is asked in.
    pub fn scenario(&self) -> world::Scenario {
        match self {
            CaseStudy::Cs1CableImpact => scenarios::cs1_scenario(),
            CaseStudy::Cs2DisasterImpact => scenarios::cs2_scenario(),
            CaseStudy::Cs3CascadingFailure => scenarios::cs3_scenario(),
            CaseStudy::Cs4ForensicRca => scenarios::cs4_scenario(),
        }
    }

    /// The registry configuration: CS1 withholds Xaminer's high-level
    /// abstraction to test independent derivation (the paper's setup);
    /// the others get the full catalog.
    pub fn registry(&self) -> Registry {
        match self {
            CaseStudy::Cs1CableImpact => catalog::restricted_registry(&["xaminer.event_impact"]),
            _ => catalog::standard_registry(),
        }
    }

    /// The expert baseline workflow.
    pub fn expert_workflow(&self) -> Workflow {
        match self {
            CaseStudy::Cs1CableImpact => expert_cs1(),
            CaseStudy::Cs2DisasterImpact => expert_cs2(),
            CaseStudy::Cs3CascadingFailure => expert_cs3(),
            CaseStudy::Cs4ForensicRca => expert_cs4(),
        }
    }
}

/// Everything a case-study run produces.
pub struct CaseStudyRun {
    pub case: CaseStudy,
    /// ArachNet's generated solution.
    pub solution: GeneratedSolution,
    /// Execution of the generated workflow.
    pub report: ExecutionReport,
    /// The expert baseline and its execution.
    pub expert_workflow: Workflow,
    pub expert_report: ExecutionReport,
    /// The registry used for generation.
    pub registry: Registry,
}

impl CaseStudyRun {
    /// The generated workflow's single declared output, parsed as `T`.
    pub fn output_as<T: serde::de::DeserializeOwned + Clone + 'static>(&self) -> Option<T> {
        self.report.outputs.values().next()?.parse().ok()
    }

    /// The expert workflow's single declared output, parsed as `T`.
    pub fn expert_output_as<T: serde::de::DeserializeOwned + Clone + 'static>(&self) -> Option<T> {
        self.expert_report.outputs.values().next()?.parse().ok()
    }
}

/// Builds a serving engine for one case study: the case's registry as
/// epoch 0 and its scenario registered under `cs<index>`.
pub fn case_study_engine(case: CaseStudy) -> Engine {
    let engine = Engine::new(Arc::new(DeterministicExpertModel::new()), case.registry());
    engine.register_scenario(&format!("cs{}", case.index()), case.scenario());
    engine
}

/// Runs a full case study: generate, execute, run the expert baseline —
/// through an engine session, so the generated and the expert workflow
/// share one artifact store.
pub fn run_case_study(case: CaseStudy) -> CaseStudyRun {
    let engine = case_study_engine(case);
    let session = engine
        .session(&format!("cs{}", case.index()))
        .expect("scenario registered at engine build time");
    let scenario = session.scenario();

    let run = session
        .run(case.query(), &session.context())
        .unwrap_or_else(|e| panic!("case study {} generation failed: {e}", case.index()));

    // The expert runs with the full catalog (experts are never restricted)
    // but against the same session-shared artifacts.
    let full_registry = catalog::standard_registry();
    let expert_workflow = case.expert_workflow();
    let expert_args: BTreeMap<String, Value> =
        expert_args(case.index(), scenario.now.seconds_since_epoch());
    let expert_report =
        execute(&expert_workflow, &full_registry, &session.runtime(), &expert_args);

    CaseStudyRun {
        case,
        solution: run.solution,
        report: run.report,
        expert_workflow,
        expert_report,
        registry: case.registry(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_and_paper_locs_are_stable() {
        assert!(CaseStudy::Cs1CableImpact.query().contains("SeaMeWe-5"));
        assert_eq!(CaseStudy::Cs4ForensicRca.paper_loc(), 750);
        assert_eq!(CaseStudy::ALL.len(), 4);
    }

    #[test]
    fn cs1_registry_is_restricted() {
        let r = CaseStudy::Cs1CableImpact.registry();
        assert!(!r.contains(&registry::FunctionId::from("xaminer.event_impact")));
        let r2 = CaseStudy::Cs2DisasterImpact.registry();
        assert!(r2.contains(&registry::FunctionId::from("xaminer.event_impact")));
    }
}
