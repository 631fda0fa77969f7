//! Campaign metrics: reducing one executed run to the numbers a
//! fleet-scale study aggregates.
//!
//! A campaign runner executes thousands of scenario-queries; what it
//! keeps per query is not the full [`ExecutionReport`] but a small,
//! deterministic reduction of it: how much impact the workflow
//! measured, what the control-plane detectors surfaced, and whether any
//! detector fired at all. Extraction is a pure function of the
//! (workflow, report) pair — step values are matched by the *function
//! id* the step invoked, not by step-name heuristics, so renamed plans
//! keep extracting identically.

use bgp_sim::{MoasConflict, ValleyViolation};
use registry::DataFormat;
use workflow::{ExecutionReport, Workflow};

use crate::catalog;
use crate::data::{ControlPlaneReportData, CountryTableData};

/// The per-query reduction a campaign aggregates over.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryMetrics {
    /// Summed `impact_score` over every country-impact table the run
    /// produced as an output (0.0 when the plan measured no impact).
    pub impact_score: f64,
    /// MOAS conflicts surfaced by `bgp.detect_moas` steps.
    pub moas_conflicts: usize,
    /// Export-policy violations surfaced by `bgp.valley_violations` steps.
    pub valley_violations: usize,
    /// Whether a control-plane forensics output attributed an incident
    /// (`kind != "none"`).
    pub incident_attributed: bool,
}

impl QueryMetrics {
    /// Whether any detector surfaced evidence.
    pub fn detector_hit(&self) -> bool {
        self.moas_conflicts > 0 || self.valley_violations > 0 || self.incident_attributed
    }

    /// Extracts the metrics from an executed workflow. Detector steps are
    /// matched by function id: a step counts by the declared output of
    /// its catalog row, so curator composites (which have no row) never
    /// count. Outputs are matched by their declared format. Failed or
    /// poisoned steps simply contribute nothing — a degraded run yields
    /// the metrics its surviving steps still support.
    pub fn extract(workflow: &Workflow, report: &ExecutionReport) -> QueryMetrics {
        let mut metrics = QueryMetrics::default();
        for step in &workflow.steps {
            let Some(value) = report.results.get(&step.id).and_then(|r| r.value()) else {
                continue;
            };
            match catalog::tool(&step.function.0).map(|t| t.output) {
                Some(DataFormat::MoasConflicts) => {
                    if let Ok(conflicts) = value.view::<Vec<MoasConflict>>() {
                        metrics.moas_conflicts += conflicts.len();
                    }
                }
                Some(DataFormat::ValleyViolations) => {
                    if let Ok(violations) = value.view::<Vec<ValleyViolation>>() {
                        metrics.valley_violations += violations.len();
                    }
                }
                _ => {}
            }
        }
        for value in report.outputs.values() {
            match value.format {
                DataFormat::CountryImpactTable => {
                    if let Ok(table) = value.view::<CountryTableData>() {
                        metrics.impact_score +=
                            table.rows.iter().map(|r| r.impact_score).sum::<f64>();
                    }
                }
                DataFormat::ControlPlaneReport => {
                    if let Ok(cp) = value.view::<ControlPlaneReportData>() {
                        if cp.kind != "none" {
                            metrics.incident_attributed = true;
                        }
                    }
                }
                _ => {}
            }
        }
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{catalog, scenarios};
    use registry::DataFormat;
    use workflow::{Binding, Step, StepId};

    /// The canonical forensics chain over the CS5 hijack scenario, built
    /// by hand so the test pins extraction, not planning.
    fn forensics_workflow(scenario: &world::Scenario) -> Workflow {
        let window = serde_json::json!({
            "start": scenario.horizon.start.0,
            "end": scenario.now.0,
        });
        let mut wf = Workflow::new("metrics-forensics", "attribute the incident");
        wf.steps = vec![
            Step::new("updates", "bgp.updates")
                .bind("window", Binding::constant(DataFormat::TimeWindow, window)),
            Step::new("moas", "bgp.detect_moas").bind_step("updates", "updates"),
            Step::new("valleys", "bgp.valley_violations").bind_step("updates", "updates"),
            Step::new("attrib", "util.attribute_control_plane")
                .bind_step("moas", "moas")
                .bind_step("valleys", "valleys"),
            Step::new("impact", "xaminer.control_plane_impact").bind_step("report", "attrib"),
        ];
        wf.outputs = vec![StepId::from("attrib"), StepId::from("impact")];
        wf
    }

    #[test]
    fn forensics_run_extracts_detector_metrics() {
        let scenario = scenarios::cs5_hijack_scenario();
        let workflow = forensics_workflow(&scenario);
        let registry = catalog::standard_registry();
        let runtime = crate::StandardRuntime::new(scenario);
        let report = workflow::execute(&workflow, &registry, &runtime, &Default::default());
        assert!(report.all_ok(), "forensics chain executes: {:?}", report.results);
        let metrics = QueryMetrics::extract(&workflow, &report);
        assert!(metrics.moas_conflicts > 0, "hijack surfaces MOAS conflicts");
        assert!(metrics.incident_attributed, "forensics attributes the incident");
        assert!(metrics.impact_score > 0.0, "attributed incident has impact");
        assert!(metrics.detector_hit());
    }

    #[test]
    fn empty_report_extracts_default_metrics() {
        let workflow = Workflow::new("w", "q");
        let report = workflow::execute(
            &workflow,
            &catalog::standard_registry(),
            &crate::StandardRuntime::new(scenarios::cs1_scenario()),
            &Default::default(),
        );
        let metrics = QueryMetrics::extract(&workflow, &report);
        assert_eq!(metrics, QueryMetrics::default());
        assert!(!metrics.detector_hit());
    }
}
