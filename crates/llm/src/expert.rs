//! The deterministic expert model: the reproduction's stand-in for Claude
//! Sonnet 4.
//!
//! Each handler encodes the "generalized reasoning a human expert would
//! naturally apply" that the paper describes embedding into its prompts:
//!
//! * [`DecomposeRequest`] (QueryMind) — read the query, classify the
//!   intent, extract entities, resolve typed arguments, and lay out
//!   sub-problems with dependencies, constraints, success criteria and
//!   risks;
//! * [`ExploreRequest`] (WorkflowScout) — run the adaptive solution-space
//!   search in [`crate::planner`];
//! * [`ImplementRequest`] (SolutionWeaver) — finalize the plan into a
//!   workflow program: format-translation hardening plus woven-in QA
//!   steps;
//! * [`CurateRequest`] (RegistryCurator) — mine successful workflows for
//!   recurring, type-chainable function pairs and propose validated
//!   composites.
//!
//! [`DeterministicExpertModel::complete`](LanguageModel::complete)
//! dispatches on the prompt's [`Task::TAG`]; every task then takes the
//! same path: decode the request, resolve the registry it names, run the
//! handler, encode the response.
//!
//! Handlers communicate only via JSON text, like a real model. The
//! registry arrives as the prompt's attached [`RegistryDocument`], named
//! by hash in the payload; the model parses each document once and keeps
//! the parse in a [`OnceMap`] keyed by that hash.

use std::collections::BTreeMap;
use std::sync::Arc;

use net_model::OnceMap;
use registry::{DataFormat, FunctionId, Registry};

use crate::lexicon;
use crate::planner;
use crate::protocol::*;
use crate::{Completion, LanguageModel, LlmError, Prompt, RegistryDocument};

/// The deterministic expert model.
#[derive(Default)]
pub struct DeterministicExpertModel {
    /// Parsed registry documents by content hash. Failed parses are not
    /// kept (see [`OnceMap::try_get_or_init`]).
    registries: OnceMap<u64, Result<Arc<Registry>, String>>,
}

impl DeterministicExpertModel {
    pub fn new() -> Self {
        DeterministicExpertModel::default()
    }

    /// Number of registry documents parsed and kept so far.
    pub fn parsed_registries(&self) -> usize {
        self.registries.len()
    }

    /// The registry `hash` names, parsed from the prompt's attached
    /// document. Fails closed: a missing document, one with another hash,
    /// or one that does not parse is an error.
    fn registry(&self, prompt: &Prompt, hash: u64) -> Result<Arc<Registry>, String> {
        let document: &RegistryDocument = prompt
            .document
            .as_ref()
            .ok_or_else(|| format!("no registry document attached for {hash:016x}"))?;
        if document.hash() != hash {
            return Err(format!(
                "payload names registry {hash:016x} but the attached document is {:016x}",
                document.hash()
            ));
        }
        let (parsed, _) = self.registries.try_get_or_init(&hash, || {
            serde_json::from_str::<Registry>(document.json())
                .map(Arc::new)
                .map_err(|e| format!("registry document {hash:016x} does not parse: {e}"))
        });
        parsed
    }

    /// Decodes the prompt's `T` request, resolves the registry it names,
    /// runs `handler` and encodes the response as the completion text.
    /// Each step's error is the task's [`LlmError::BadPayload`].
    fn answer<T: Task>(
        &self,
        prompt: &Prompt,
        handler: impl FnOnce(&T, &Registry) -> Result<T::Response, String>,
    ) -> Result<String, LlmError> {
        let bad = |message: String| LlmError::BadPayload { task: prompt.task.clone(), message };
        let request = T::deserialize_json(&prompt.payload).map_err(|e| bad(e.to_string()))?;
        let registry = self.registry(prompt, request.registry()).map_err(bad)?;
        let response = handler(&request, &registry).map_err(bad)?;
        Ok(serde::Serialize::serialize_json(&response).to_json_string_pretty())
    }
}

impl LanguageModel for DeterministicExpertModel {
    fn complete(&self, prompt: &Prompt) -> Result<Completion, LlmError> {
        let text = match prompt.task.as_str() {
            DecomposeRequest::TAG => {
                self.answer::<DecomposeRequest>(prompt, |req, reg| Ok(decompose(req, reg)))
            }
            ExploreRequest::TAG => self.answer::<ExploreRequest>(prompt, |req, reg| {
                planner::plan_architecture(&req.decomposition, reg, req.variant)
                    .map_err(|e| e.to_string())
            }),
            ImplementRequest::TAG => {
                self.answer::<ImplementRequest>(prompt, |req, reg| Ok(implement(req, reg)))
            }
            CurateRequest::TAG => {
                self.answer::<CurateRequest>(prompt, |req, reg| Ok(curate(req, reg)))
            }
            other => Err(LlmError::UnknownTask(other.to_string())),
        }?;
        Ok(Completion { text })
    }

    fn name(&self) -> &str {
        "deterministic-expert-v1"
    }
}

// ---------------------------------------------------------------------------
// QueryMind reasoning
// ---------------------------------------------------------------------------

/// The decomposition handler, over the registry `req.registry` names.
pub fn decompose(req: &DecomposeRequest, registry: &Registry) -> Decomposition {
    let entities = lexicon::extract_entities(&req.query, &req.context.cable_names);
    let intent = lexicon::classify_intent(&req.query, &entities);

    let mut args: BTreeMap<String, ResolvedArg> = BTreeMap::new();
    let mut sub_problems = Vec::new();
    let mut constraints = Vec::new();
    let mut success = Vec::new();
    let mut risks = Vec::new();
    let complexity;

    let now = req.context.now;
    let horizon_days = req.context.horizon_days.max(1);
    let full_window = serde_json::json!({
        "start": now - horizon_days * 86_400,
        "end": now,
    });

    match intent {
        Intent::CableImpact => {
            complexity = Complexity::Moderate;
            match entities.cables.first() {
                Some(cable) => {
                    args.insert(
                        "cable_name".into(),
                        ResolvedArg { format: DataFormat::Text, value: serde_json::json!(cable) },
                    );
                }
                None => risks.push(
                    "query names no known cable system; results depend on disambiguation".into(),
                ),
            }
            sub_problems.extend([
                SubProblem::new(
                    "dependencies",
                    "identify which IP links, ASes and countries depend on the cable \
                     (cross-layer mapping)",
                    DataFormat::DependencyTable,
                    &[],
                ),
                SubProblem::new(
                    "failure_impact",
                    "process the cable failure into failed links and affected entities",
                    DataFormat::FailureImpact,
                    &["dependencies"],
                ),
                SubProblem::new(
                    "country_aggregation",
                    "geolocate affected assets and aggregate impact per country",
                    DataFormat::CountryImpactTable,
                    &["failure_impact"],
                ),
            ]);
            constraints.extend([
                "impact fidelity is bounded by cross-layer mapping confidence".to_string(),
                "the named cable must exist in the cartography catalog".to_string(),
            ]);
            success.extend([
                "a per-country impact table with normalized scores is produced".to_string(),
                "every link dependent on the cable is accounted for".to_string(),
            ]);
        }
        Intent::DisasterImpact => {
            complexity = Complexity::Moderate;
            args.insert(
                "failure_probability".into(),
                ResolvedArg {
                    format: DataFormat::Scalar,
                    value: serde_json::json!(entities.probability.unwrap_or(0.1)),
                },
            );
            // One argument and one process-then-assess pair per disaster
            // kind: the expert approach the paper describes — "handle
            // earthquakes and hurricanes separately and combine results".
            let mut impact_ids: Vec<String> = Vec::new();
            for d in &entities.disasters {
                let arg_name = format!("{}_specs", d.kind);
                args.insert(
                    arg_name.clone(),
                    ResolvedArg {
                        format: DataFormat::DisasterSpecs,
                        value: serde_json::json!([{"kind": d.kind, "qualifier": d.qualifier}]),
                    },
                );
                let compile_id = format!("compile_{}", d.kind);
                let impact_id = format!("impact_{}", d.kind);
                sub_problems.push(
                    SubProblem::new(
                        &compile_id,
                        &format!(
                            "compile the {} set into concrete failure events at the stated \
                             probability",
                            d.kind
                        ),
                        DataFormat::FailureEventSpec,
                        &[],
                    )
                    .preferring(&[arg_name.as_str()])
                    .fresh(),
                );
                sub_problems.push(
                    SubProblem::new(
                        &impact_id,
                        &format!("process the {} events into country impact metrics", d.kind),
                        DataFormat::CountryImpactTable,
                        &[compile_id.as_str()],
                    )
                    .fresh(),
                );
                impact_ids.push(impact_id);
            }
            if impact_ids.len() >= 2 {
                let deps: Vec<&str> = impact_ids.iter().map(|s| s.as_str()).collect();
                sub_problems.push(
                    SubProblem::new(
                        "combined_impact",
                        "combine the per-disaster impacts into global metrics",
                        DataFormat::CountryImpactTable,
                        &deps,
                    )
                    .fresh(),
                );
            }
            constraints.extend([
                "failure draws must be deterministic for reproducibility".to_string(),
                "event processing handles each disaster type separately before combining"
                    .to_string(),
            ]);
            success.push(
                "combined country-level impact metrics across all disaster types".to_string(),
            );
            if entities.probability.is_none() {
                risks.push("no failure probability stated; defaulting to 10%".into());
            }
        }
        Intent::CascadeAnalysis => {
            complexity = Complexity::Complex;
            push_region_args(&mut args, &entities);
            args.insert(
                "window".into(),
                ResolvedArg { format: DataFormat::TimeWindow, value: full_window.clone() },
            );
            sub_problems.extend([
                SubProblem::new(
                    "infrastructure_map",
                    "map the submarine infrastructure between the two regions",
                    DataFormat::DependencyTable,
                    &[],
                ),
                SubProblem::new(
                    "initial_impact",
                    "model the corridor cable failures and their direct impact",
                    DataFormat::FailureImpact,
                    &["infrastructure_map"],
                ),
                SubProblem::new(
                    "cascade_model",
                    "propagate load redistribution to find cascading failures",
                    DataFormat::CascadeTimeline,
                    &["initial_impact"],
                ),
                SubProblem::new(
                    "bgp_evolution",
                    "track routing-layer reaction in BGP update bursts",
                    DataFormat::BgpBursts,
                    &[],
                ),
                SubProblem::new(
                    "latency_evolution",
                    "track data-plane reaction in probe latency anomalies",
                    DataFormat::AnomalyReport,
                    &[],
                ),
                SubProblem::new(
                    "synthesis",
                    "fuse cable, routing and latency evidence into a unified cascade timeline",
                    DataFormat::UnifiedTimeline,
                    &["cascade_model", "bgp_evolution", "latency_evolution"],
                ),
            ]);
            constraints.extend([
                "requires integration across infrastructure, routing and data-plane \
                 measurements"
                    .to_string(),
                "cascade modelling needs capacity and load assumptions stated explicitly"
                    .to_string(),
            ]);
            success.push(
                "a unified timeline spanning cable, IP and AS layers explains the cascade"
                    .to_string(),
            );
            risks.push("cross-framework timestamps must be aligned to one clock".into());
        }
        Intent::ForensicRootCause => {
            complexity = Complexity::Complex;
            push_region_args(&mut args, &entities);
            let lookback = entities.lookback_days.unwrap_or(3);
            // Analysis window: enough history before the anomaly onset to
            // establish a statistical baseline.
            let analysis_days = (lookback * 4).max(10).min(horizon_days);
            args.insert(
                "window".into(),
                ResolvedArg {
                    format: DataFormat::TimeWindow,
                    value: serde_json::json!({
                        "start": now - analysis_days * 86_400,
                        "end": now,
                    }),
                },
            );
            sub_problems.extend([
                SubProblem::new(
                    "anomaly_detection",
                    "establish a latency baseline and detect the anomaly onset with \
                     statistical significance",
                    DataFormat::AnomalyReport,
                    &[],
                ),
                SubProblem::new(
                    "suspect_ranking",
                    "rank candidate cables by likelihood of involvement given the affected \
                     paths",
                    DataFormat::SuspectRanking,
                    &["anomaly_detection"],
                ),
                SubProblem::new(
                    "bgp_validation",
                    "independently verify timing against BGP routing churn",
                    DataFormat::CorrelationReport,
                    &["anomaly_detection"],
                ),
                SubProblem::new(
                    "verdict",
                    "synthesize all evidence into a causal verdict with confidence",
                    DataFormat::ForensicVerdict,
                    &["suspect_ranking", "bgp_validation"],
                ),
            ]);
            constraints.extend([
                "baseline must predate the anomaly onset".to_string(),
                "causation requires at least two independent evidence streams".to_string(),
            ]);
            success.extend([
                "anomaly onset detected with significance assessment".to_string(),
                "a specific cable identified or cable involvement ruled out".to_string(),
            ]);
            risks.push(
                "congestion can mimic failure-induced latency shifts; BGP validation guards \
                 against this"
                    .into(),
            );
        }
        Intent::ControlPlaneForensics => {
            complexity = Complexity::Complex;
            args.insert(
                "window".into(),
                ResolvedArg { format: DataFormat::TimeWindow, value: full_window.clone() },
            );
            sub_problems.extend([
                SubProblem::new(
                    "moas_detection",
                    "detect MOAS conflicts: prefixes announced by more than one origin AS",
                    DataFormat::MoasConflicts,
                    &[],
                ),
                SubProblem::new(
                    "leak_detection",
                    "detect announced AS paths violating the valley-free export rule",
                    DataFormat::ValleyViolations,
                    &[],
                ),
                SubProblem::new(
                    "attribution",
                    "attribute the incident (hijack vs leak) and identify the offending AS",
                    DataFormat::ControlPlaneReport,
                    &["moas_detection", "leak_detection"],
                ),
                SubProblem::new(
                    "incident_impact",
                    "quantify which ASes and countries the incident misdirects",
                    DataFormat::CountryImpactTable,
                    &["attribution"],
                ),
            ]);
            constraints.extend([
                "MOAS detection needs the baseline RIB, not the update stream alone \
                 (partial hijacks leave unaffected peers silent)"
                    .to_string(),
                "valley checks run against the scenario's reference topology".to_string(),
            ]);
            success.extend([
                "the offending AS identified with confidence, or control-plane causes ruled \
                 out"
                    .to_string(),
                "the misdirected ASes and countries quantified".to_string(),
            ]);
            risks.push(
                "path prepending mimics exploration transients; detectors must collapse it"
                    .into(),
            );
        }
        Intent::RiskAssessment => {
            complexity = Complexity::Simple;
            sub_problems.push(SubProblem::new(
                "risk_profiles",
                "profile country dependency concentration over cable systems",
                DataFormat::RiskProfiles,
                &[],
            ));
            success.push("per-country concentration and critical-cable ranking".into());
        }
        Intent::Generic => {
            complexity = Complexity::Simple;
            // Ground the target in whatever the registry best matches.
            let target = registry
                .search(&req.query, 1)
                .first()
                .map(|h| h.entry.output)
                .unwrap_or(DataFormat::Table);
            sub_problems.push(SubProblem::new(
                "answer",
                &format!("answer the query with the best-matching capability ({target})"),
                target,
                &[],
            ));
            risks.push("query did not match a known analysis pattern".into());
        }
    }

    Decomposition {
        intent,
        entities,
        provided_args: args,
        sub_problems,
        constraints,
        success_criteria: success,
        risks,
        complexity,
    }
}

fn push_region_args(args: &mut BTreeMap<String, ResolvedArg>, entities: &Entities) {
    let mut regions = entities.regions.clone();
    if regions.is_empty() {
        regions = vec!["Europe".to_string(), "Asia".to_string()];
    }
    if regions.len() == 1 {
        regions.push("Asia".to_string());
    }
    args.insert(
        "src_region".into(),
        ResolvedArg { format: DataFormat::RegionScope, value: serde_json::json!(regions[0]) },
    );
    args.insert(
        "dst_region".into(),
        ResolvedArg { format: DataFormat::RegionScope, value: serde_json::json!(regions[1]) },
    );
}

// ---------------------------------------------------------------------------
// SolutionWeaver reasoning
// ---------------------------------------------------------------------------

/// The implementation handler: hardens the architecture into a final
/// workflow program, over the registry `req.registry` names.
pub fn implement(req: &ImplementRequest, registry: &Registry) -> ImplementationPlan {
    let mut steps = req.architecture.steps.clone();

    // Format-translation hardening: if a binding's source format only
    // *widens* into the parameter (e.g. RttSeries consumed as Table), the
    // translation is implicit; if it is incompatible, look for a one-hop
    // converter in the registry and splice it in.
    let mut extra: Vec<(usize, PlannedStep)> = Vec::new();
    for (idx, step) in steps.iter().enumerate() {
        let Some(entry) = registry.get(&FunctionId::from(step.function.as_str())) else {
            continue;
        };
        for (param_name, binding) in &step.bindings {
            let Some(param) = entry.param(param_name) else { continue };
            let source_format = binding_format(binding, req, registry, &steps);
            if let Some(sf) = source_format {
                if !sf.compatible_with(param.format) {
                    // Find a converter sf -> param.format.
                    if let Some(conv) = registry.iter().find(|e| {
                        e.output.compatible_with(param.format)
                            && e.required_inputs().count() == 1
                            && e.required_inputs()
                                .next()
                                .map(|p| sf.compatible_with(p.format))
                                == Some(true)
                    }) {
                        // The search above admits only one-input converters.
                        let Some(conv_input) = conv.required_inputs().next() else { continue };
                        let conv_id = format!("s{}_convert_{}", idx + 1, param_name);
                        let conv_param = conv_input.name.clone();
                        extra.push((
                            idx,
                            PlannedStep {
                                id: conv_id,
                                function: conv.id.0.clone(),
                                bindings: BTreeMap::from([(conv_param, binding.clone())]),
                                serves: step.serves.clone(),
                                rationale: format!(
                                    "format translation: {sf} -> {}",
                                    param.format
                                ),
                            },
                        ));
                    }
                }
            }
        }
    }
    // Splice converters before their consumers and rebind.
    for (idx, conv) in extra.into_iter().rev() {
        let conv_id = conv.id.clone();
        // Rebind the specific param: the converter's id encodes it.
        if let Some(param_name) = conv_id.split("_convert_").nth(1) {
            if let Some(b) = steps[idx].bindings.get_mut(param_name) {
                *b = PlannedBinding::FromStep(conv_id.clone());
            }
        }
        steps.insert(idx, conv);
    }

    // Woven-in QA: a verification probe on every declared output, when the
    // registry offers one.
    let mut qa_measures = vec![
        "per-step output format validation".to_string(),
        "empty-result sanity checks".to_string(),
        "uncertainty propagation across merges".to_string(),
    ];
    if let Some(qa_fn) = registry
        .iter()
        .find(|e| e.framework == "qa" && e.required_inputs().count() == 1)
    {
        let targets: Vec<String> = req.architecture.outputs.clone();
        for (i, out) in targets.iter().enumerate() {
            // The search above admits only one-input QA functions.
            let Some(input) = qa_fn.required_inputs().next() else { break };
            let param = input.name.clone();
            steps.push(PlannedStep {
                id: format!("qa{}_{}", i + 1, out),
                function: qa_fn.id.0.clone(),
                bindings: BTreeMap::from([(param, PlannedBinding::FromStep(out.clone()))]),
                serves: "quality_assurance".into(),
                rationale: "verify the final result before it reaches the user".into(),
            });
        }
        qa_measures.push(format!("output verification via {}", qa_fn.id));
    }
    if !req.feedback.is_empty() {
        qa_measures.push(format!("repaired after {} validation finding(s)", req.feedback.len()));
    }

    let slug = match req.decomposition.intent {
        Intent::CableImpact => "cable-impact",
        Intent::DisasterImpact => "disaster-impact",
        Intent::CascadeAnalysis => "cascade-analysis",
        Intent::ForensicRootCause => "forensic-rca",
        Intent::ControlPlaneForensics => "control-plane-forensics",
        Intent::RiskAssessment => "risk-assessment",
        Intent::Generic => "generic",
    };

    ImplementationPlan {
        workflow_id: format!("wf-{slug}"),
        steps,
        outputs: req.architecture.outputs.clone(),
        qa_measures,
    }
}

fn binding_format(
    binding: &PlannedBinding,
    req: &ImplementRequest,
    registry: &Registry,
    steps: &[PlannedStep],
) -> Option<DataFormat> {
    match binding {
        PlannedBinding::Const { format, .. } => Some(*format),
        PlannedBinding::FromArg(name) => {
            req.decomposition.provided_args.get(name).map(|a| a.format)
        }
        PlannedBinding::FromStep(sid) => steps
            .iter()
            .find(|s| &s.id == sid)
            .and_then(|s| registry.get(&FunctionId::from(s.function.as_str())))
            .map(|e| e.output),
    }
}

// ---------------------------------------------------------------------------
// RegistryCurator reasoning
// ---------------------------------------------------------------------------

/// The curation handler: validation-first pattern mining over the
/// registry `req.registry` names.
pub fn curate(req: &CurateRequest, registry: &Registry) -> CurationProposal {
    // Count adjacent function pairs across *successful* workflows.
    let mut pair_counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for wf in req.corpus.iter().filter(|w| w.success) {
        for pair in wf.functions.windows(2) {
            *pair_counts.entry((pair[0].clone(), pair[1].clone())).or_default() += 1;
        }
    }

    let mut composites = Vec::new();
    let mut rejected = Vec::new();

    for ((f, g), count) in pair_counts {
        let pattern = format!("{f} -> {g}");
        // Skip QA plumbing — not a reusable analysis pattern.
        if f.starts_with("qa.") || g.starts_with("qa.") {
            rejected.push((pattern, "quality-assurance plumbing is not generalizable".into()));
            continue;
        }
        if count < req.min_uses {
            rejected.push((pattern, format!("only {count} observed uses (needs {})", req.min_uses)));
            continue;
        }
        let (Some(ef), Some(eg)) = (
            registry.get(&FunctionId::from(f.as_str())),
            registry.get(&FunctionId::from(g.as_str())),
        ) else {
            rejected.push((pattern, "references unregistered functions".into()));
            continue;
        };
        // Type-chainable: f's output must feed g's first required input.
        let chainable = eg
            .required_inputs()
            .next()
            .map(|p| ef.output.compatible_with(p.format))
            .unwrap_or(false);
        if !chainable {
            rejected.push((pattern, "formats do not chain".into()));
            continue;
        }
        // g must not need other non-defaultable inputs (keep composites
        // self-contained: any extra required inputs pass through by name).
        let id = format!("composite.{}__{}", short(&f), short(&g));
        if registry.contains(&FunctionId::from(id.as_str())) {
            rejected.push((pattern, "equivalent composite already registered".into()));
            continue;
        }
        composites.push(CompositeProposal {
            id,
            sequence: vec![f.clone(), g.clone()],
            capability: format!("{} then {}", ef.capability, eg.capability),
            observed_uses: count,
        });
    }

    CurationProposal { composites, rejected }
}

fn short(function: &str) -> String {
    function.replace('.', "_")
}

#[cfg(test)]
mod tests {
    use super::*;
    use registry::{CapabilityEntry, Param};

    fn context() -> QueryContext {
        QueryContext {
            cable_names: vec!["SeaMeWe-5".into(), "AAE-1".into(), "FALCON".into()],
            now: 10 * 86_400,
            horizon_days: 10,
        }
    }

    fn mini_registry() -> Registry {
        let mut r = Registry::new();
        r.register(CapabilityEntry::new(
            "xaminer.event_impact",
            "xaminer",
            "processes failure events into a country impact table",
            vec![Param::required("event", DataFormat::FailureEventSpec)],
            DataFormat::CountryImpactTable,
        ))
        .unwrap();
        r.register(CapabilityEntry::new(
            "util.compile_disasters",
            "util",
            "compiles disaster specs and probability into failure events",
            vec![
                Param::required("disasters", DataFormat::DisasterSpecs),
                Param::required("failure_probability", DataFormat::Scalar),
            ],
            DataFormat::FailureEventSpec,
        ))
        .unwrap();
        r
    }

    fn mini_document() -> RegistryDocument {
        RegistryDocument::new(&mini_registry())
    }

    #[test]
    fn cs1_decomposition_shape() {
        let req = DecomposeRequest {
            query: "Identify the impact at a country level due to SeaMeWe-5 cable failure"
                .into(),
            context: context(),
            registry: mini_document().hash(),
        };
        let d = decompose(&req, &mini_registry());
        assert_eq!(d.intent, Intent::CableImpact);
        assert_eq!(d.sub_problems.len(), 3);
        assert!(d.provided_args.contains_key("cable_name"));
        assert!(!d.constraints.is_empty());
        assert!(!d.success_criteria.is_empty());
        // Dependencies form a chain.
        assert_eq!(d.sub_problems[1].depends_on, vec!["dependencies".to_string()]);
    }

    #[test]
    fn cs2_decomposition_resolves_probability() {
        let req = DecomposeRequest {
            query: "Identify the impact of severe earthquakes and hurricanes globally \
                    assuming a 10% infra failure probability"
                .into(),
            context: context(),
            registry: mini_document().hash(),
        };
        let d = decompose(&req, &mini_registry());
        assert_eq!(d.intent, Intent::DisasterImpact);
        let p = &d.provided_args["failure_probability"];
        assert_eq!(p.value, serde_json::json!(0.1));
        // One spec argument per disaster kind, plus per-kind sub-problems
        // and a combining one (the paper: "handle earthquakes and
        // hurricanes separately ... combine results").
        assert!(d.provided_args.contains_key("earthquake_specs"));
        assert!(d.provided_args.contains_key("hurricane_specs"));
        assert_eq!(d.sub_problems.len(), 5);
        assert!(d.sub_problems.iter().any(|sp| sp.id == "combined_impact"));
    }

    #[test]
    fn cs4_decomposition_builds_baseline_window() {
        let req = DecomposeRequest {
            query: "A sudden increase in latency was observed from European probes to Asian \
                    destinations starting three days ago. Determine if a submarine cable \
                    failure caused this, and if so, identify the specific cable."
                .into(),
            context: context(),
            registry: mini_document().hash(),
        };
        let d = decompose(&req, &mini_registry());
        assert_eq!(d.intent, Intent::ForensicRootCause);
        let w = &d.provided_args["window"].value;
        let start = w["start"].as_i64().unwrap();
        let end = w["end"].as_i64().unwrap();
        assert_eq!(end, 10 * 86_400);
        // At least 4x the lookback for a baseline, clamped to horizon.
        assert!(end - start >= 10 * 86_400 - 1, "window {w:?}");
        assert_eq!(d.sub_problems.len(), 4);
    }

    #[test]
    fn model_end_to_end_over_prompts() {
        let model = DeterministicExpertModel::new();
        let document = mini_document();
        let req = DecomposeRequest {
            query: "Identify the impact of severe earthquakes and hurricanes globally \
                    assuming a 10% infra failure probability"
                .into(),
            context: context(),
            registry: document.hash(),
        };
        let c = model
            .complete(
                &Prompt::new(
                    "you are QueryMind",
                    "querymind.decompose",
                    serde_json::to_value(&req).unwrap(),
                )
                .with_document(document.clone()),
            )
            .unwrap();
        let d: Decomposition = serde_json::from_str(&c.text).unwrap();

        let c2 = model
            .complete(
                &Prompt::new(
                    "you are WorkflowScout",
                    "workflowscout.explore",
                    serde_json::to_value(&ExploreRequest {
                        decomposition: d.clone(),
                        registry: document.hash(),
                        variant: 0,
                    })
                    .unwrap(),
                )
                .with_document(document.clone()),
            )
            .unwrap();
        let plan: ArchitecturePlan = serde_json::from_str(&c2.text).unwrap();
        let fns: Vec<&str> = plan.steps.iter().map(|s| s.function.as_str()).collect();
        // Per-kind processing: compile+process for earthquakes, then for
        // hurricanes (the mini registry has no combine function, so the
        // combined sub-problem falls back to the last impact).
        assert_eq!(
            fns,
            vec![
                "util.compile_disasters",
                "xaminer.event_impact",
                "util.compile_disasters",
                "xaminer.event_impact"
            ]
        );

        let c3 = model
            .complete(
                &Prompt::new(
                    "you are SolutionWeaver",
                    "solutionweaver.implement",
                    serde_json::to_value(&ImplementRequest {
                        decomposition: d,
                        architecture: plan,
                        registry: document.hash(),
                        feedback: vec![],
                    })
                    .unwrap(),
                )
                .with_document(document),
            )
            .unwrap();
        let impl_plan: ImplementationPlan = serde_json::from_str(&c3.text).unwrap();
        assert_eq!(impl_plan.workflow_id, "wf-disaster-impact");
        assert!(impl_plan.qa_measures.len() >= 3);
        // Three exchanges over one document: parsed once.
        assert_eq!(model.parsed_registries(), 1);
    }

    fn decompose_prompt(registry: u64) -> Prompt {
        let req = DecomposeRequest {
            query: "impact of earthquakes at 10%".into(),
            context: context(),
            registry,
        };
        Prompt::new("s", "querymind.decompose", serde_json::to_value(&req).unwrap())
    }

    #[test]
    fn bad_registry_documents_fail_closed() {
        let model = DeterministicExpertModel::new();
        let document = mini_document();
        let garbled = RegistryDocument::from_json(&document.json()[..document.json().len() / 2]);
        let cases = [
            ("missing", decompose_prompt(document.hash())),
            (
                "another registry's",
                decompose_prompt(document.hash() ^ 1).with_document(document.clone()),
            ),
            ("unparseable", decompose_prompt(garbled.hash()).with_document(garbled)),
        ];
        for (case, prompt) in cases {
            match model.complete(&prompt) {
                Err(LlmError::BadPayload { task, .. }) => {
                    assert_eq!(task, "querymind.decompose", "{case}")
                }
                other => panic!("{case} document: expected BadPayload, got {other:?}"),
            }
        }
        assert_eq!(model.parsed_registries(), 0, "a failed parse is not kept");
        assert!(model.complete(&decompose_prompt(document.hash()).with_document(document)).is_ok());
        assert_eq!(model.parsed_registries(), 1);
    }

    #[test]
    fn equal_registries_share_one_document_hash() {
        let (a, b) = (mini_document(), mini_document());
        assert_eq!(a, b);
        assert_eq!(a.hash(), net_model::hash::stable_str_hash(a.json()));
        let mut grown = mini_registry();
        grown
            .register(CapabilityEntry::new(
                "qa.verify",
                "qa",
                "verifies outputs",
                vec![Param::required("value", DataFormat::Any)],
                DataFormat::QaReport,
            ))
            .unwrap();
        assert_ne!(RegistryDocument::new(&grown).hash(), a.hash());
    }

    #[test]
    fn unknown_task_is_rejected() {
        let model = DeterministicExpertModel::new();
        let err = model
            .complete(&Prompt::new("s", "nonsense.task", serde_json::json!({})))
            .unwrap_err();
        assert!(matches!(err, LlmError::UnknownTask(_)));
    }

    #[test]
    fn curation_validation_first() {
        let reg = {
            let mut r = mini_registry();
            r.register(CapabilityEntry::new(
                "qa.verify",
                "qa",
                "verifies outputs",
                vec![Param::required("value", DataFormat::Any)],
                DataFormat::QaReport,
            ))
            .unwrap();
            r
        };
        let wf = |id: &str, fns: &[&str], ok: bool| WorkflowSummary {
            id: id.into(),
            functions: fns.iter().map(|s| s.to_string()).collect(),
            success: ok,
        };
        let req = CurateRequest {
            corpus: vec![
                wf("w1", &["util.compile_disasters", "xaminer.event_impact", "qa.verify"], true),
                wf("w2", &["util.compile_disasters", "xaminer.event_impact"], true),
                wf("w3", &["util.compile_disasters", "xaminer.event_impact"], false),
            ],
            registry: RegistryDocument::new(&reg).hash(),
            min_uses: 2,
        };
        let proposal = curate(&req, &reg);
        assert_eq!(proposal.composites.len(), 1);
        let c = &proposal.composites[0];
        assert_eq!(c.observed_uses, 2, "failed workflow must not count");
        assert_eq!(c.sequence, vec!["util.compile_disasters", "xaminer.event_impact"]);
        // QA plumbing rejected with a reason.
        assert!(proposal
            .rejected
            .iter()
            .any(|(p, why)| p.contains("qa.verify") && why.contains("quality-assurance")));
    }
}
