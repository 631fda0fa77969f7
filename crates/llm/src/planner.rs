//! Solution-space exploration: from a decomposition to a concrete
//! architecture over registry functions.
//!
//! The planner backward-chains from each sub-problem's target format: a
//! format is *satisfiable* if a query argument provides it, an earlier
//! planned step produces it, or some registry function whose required
//! inputs are all satisfiable outputs it. Candidate chains are scored by
//!
//! * execution cost (the entry's [`CostClass`](registry::CostClass) weight),
//! * unreliability penalty (`(1 − reliability) × 4`),
//! * **framework-spread penalty** — each framework beyond those already in
//!   the plan costs extra. This is what produces the "skilled restraint"
//!   of case study 2: when one framework's function covers the problem,
//!   multi-framework alternatives score worse and are rejected;
//! * a small deterministic jitter keyed by `variant`, giving ensemble
//!   generation (E6) its architectural diversity without nondeterminism.
//!
//! Exploration effort adapts to problem complexity: simple problems take
//! the first valid chain; moderate/complex problems enumerate and compare
//! alternatives — the paper's "adaptive exploration strategy".

use std::collections::{BTreeMap, BTreeSet};

use net_model::hash::{stable_hash, stable_str_hash};
use registry::{CapabilityEntry, DataFormat, Registry};

use crate::protocol::{
    ArchitecturePlan, Complexity, Decomposition, PlannedBinding, PlannedStep,
};

/// How a format is currently satisfied.
#[derive(Debug, Clone, PartialEq)]
enum Source {
    Arg(String),
    Step(String),
}

/// One candidate chain: functions in execution order.
#[derive(Debug, Clone)]
struct Chain {
    functions: Vec<String>,
    score: f64,
}

/// Planner failure, surfaced to the agent as structured text.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanError {
    pub sub_problem: String,
    pub target: DataFormat,
    pub message: String,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sub-problem {} (target {}): {}",
            self.sub_problem, self.target, self.message
        )
    }
}

/// Plans an architecture for the decomposition.
pub fn plan_architecture(
    decomposition: &Decomposition,
    registry: &Registry,
    variant: u64,
) -> Result<ArchitecturePlan, PlanError> {
    let beam = match decomposition.complexity {
        Complexity::Simple => 1,
        Complexity::Moderate => 4,
        Complexity::Complex => 6,
    };

    // Format availability, updated as steps are planned.
    let mut available: Vec<(DataFormat, Source)> = decomposition
        .provided_args
        .iter()
        .map(|(name, arg)| (arg.format, Source::Arg(name.clone())))
        .collect();

    let mut steps: Vec<PlannedStep> = Vec::new();
    let mut frameworks_in_plan: BTreeSet<String> = BTreeSet::new();
    let mut alternatives_total = 0usize;
    let mut sub_problem_answer: BTreeMap<String, String> = BTreeMap::new();
    let mut rationale_parts: Vec<String> = Vec::new();

    for sp in &decomposition.sub_problems {
        // Reuse: if an earlier step already produces the target, bind to it
        // — unless the sub-problem demands a fresh computation.
        if !sp.fresh {
            if let Some((_, Source::Step(sid))) = available
                .iter()
                .find(|(f, s)| f.compatible_with(sp.target) && matches!(s, Source::Step(_)))
            {
                sub_problem_answer.insert(sp.id.clone(), sid.clone());
                rationale_parts.push(format!("{}: reused existing result", sp.id));
                continue;
            }
        }

        let candidates =
            enumerate_chains(sp.target, &available, registry, &frameworks_in_plan, beam, variant);
        alternatives_total += candidates.len();
        let best = candidates.into_iter().min_by(|a, b| {
            a.score
                .total_cmp(&b.score)
                .then_with(|| a.functions.cmp(&b.functions))
        });
        let chain = best.ok_or_else(|| PlanError {
            sub_problem: sp.id.clone(),
            target: sp.target,
            message: "no registry function chain can produce this format".to_string(),
        })?;

        rationale_parts.push(format!(
            "{}: chain [{}] selected from beam",
            sp.id,
            chain.functions.join(" -> ")
        ));

        // Instantiate the chain.
        for function in &chain.functions {
            // `enumerate_chains` only returns registered functions.
            let Some(entry) = registry.get(&registry::FunctionId::from(function.as_str())) else {
                return Err(PlanError {
                    sub_problem: sp.id.clone(),
                    target: sp.target,
                    message: format!("chain names unregistered function {function}"),
                });
            };

            // Resolve bindings: sub-problem's preferred args first, then the
            // most recently produced compatible value. Params sharing a
            // format bind to *distinct* sources.
            let mut bindings: BTreeMap<String, PlannedBinding> = BTreeMap::new();
            let mut used: Vec<Source> = Vec::new();
            for param in entry.required_inputs() {
                let preferred = sp.prefer_args.iter().find_map(|name| {
                    available.iter().find(|(f, s)| {
                        f.compatible_with(param.format)
                            && matches!(s, Source::Arg(a) if a == name)
                            && !used.contains(s)
                    })
                });
                // Semantic name match: an argument named like the parameter
                // wins over positional recency (keeps src/dst pairs
                // straight).
                let named = || {
                    available.iter().find(|(f, s)| {
                        f.compatible_with(param.format)
                            && matches!(s, Source::Arg(a) if a == &param.name)
                            && !used.contains(s)
                    })
                };
                let source = preferred.or_else(named).or_else(|| {
                    available
                        .iter()
                        .rev() // prefer the most recently produced value
                        .find(|(f, s)| f.compatible_with(param.format) && !used.contains(s))
                });
                match source {
                    Some((_, src @ Source::Arg(name))) => {
                        bindings
                            .insert(param.name.clone(), PlannedBinding::FromArg(name.clone()));
                        used.push(src.clone());
                    }
                    Some((_, src @ Source::Step(sid))) => {
                        bindings
                            .insert(param.name.clone(), PlannedBinding::FromStep(sid.clone()));
                        used.push(src.clone());
                    }
                    None => {
                        return Err(PlanError {
                            sub_problem: sp.id.clone(),
                            target: sp.target,
                            message: format!(
                                "planned chain left parameter {} of {} unsatisfied",
                                param.name, function
                            ),
                        });
                    }
                }
            }

            // Dedup: reuse an existing step only when it is the *same call*
            // (same function, same bindings).
            if let Some(existing) =
                steps.iter().find(|s| &s.function == function && s.bindings == bindings)
            {
                let sid = existing.id.clone();
                sub_problem_answer.insert(sp.id.clone(), sid);
                continue;
            }

            let step_id = format!("s{}_{}", steps.len() + 1, short_name(function));
            available.push((entry.output, Source::Step(step_id.clone())));
            frameworks_in_plan.insert(entry.framework.clone());
            steps.push(PlannedStep {
                id: step_id.clone(),
                function: function.clone(),
                bindings,
                serves: sp.id.clone(),
                rationale: entry.capability.clone(),
            });
            sub_problem_answer.insert(sp.id.clone(), step_id);
        }
    }

    // Outputs: answers of leaf sub-problems (nothing depends on them).
    let depended: BTreeSet<&String> =
        decomposition.sub_problems.iter().flat_map(|sp| sp.depends_on.iter()).collect();
    let mut outputs: Vec<String> = decomposition
        .sub_problems
        .iter()
        .filter(|sp| !depended.contains(&sp.id))
        .filter_map(|sp| sub_problem_answer.get(&sp.id).cloned())
        .collect();
    outputs.dedup();
    if outputs.is_empty() {
        if let Some(last) = steps.last() {
            outputs.push(last.id.clone());
        }
    }

    Ok(ArchitecturePlan {
        steps,
        outputs,
        alternatives_considered: alternatives_total,
        frameworks: frameworks_in_plan.into_iter().collect(),
        rationale: rationale_parts.join("; "),
    })
}

fn short_name(function: &str) -> String {
    function.split('.').next_back().unwrap_or(function).to_string()
}

/// Enumerates up to `beam` valid chains producing `target`.
fn enumerate_chains(
    target: DataFormat,
    available: &[(DataFormat, Source)],
    registry: &Registry,
    frameworks_in_plan: &BTreeSet<String>,
    beam: usize,
    variant: u64,
) -> Vec<Chain> {
    let mut candidates: Vec<Chain> = Vec::new();
    for entry in registry.producing(target) {
        if let Some(chain) =
            chain_via(entry, available, registry, frameworks_in_plan, variant, 5, &mut BTreeSet::new())
        {
            candidates.push(chain);
        }
        if candidates.len() >= beam.max(1) * 3 {
            break; // cap the enumeration work
        }
    }
    candidates.sort_by(|a, b| {
        a.score.total_cmp(&b.score).then_with(|| a.functions.cmp(&b.functions))
    });
    candidates.truncate(beam.max(1));
    candidates
}

/// Builds a chain rooted at `entry`, recursively satisfying its required
/// inputs. Returns `None` when an input cannot be satisfied within the
/// depth budget.
fn chain_via(
    entry: &CapabilityEntry,
    available: &[(DataFormat, Source)],
    registry: &Registry,
    frameworks_in_plan: &BTreeSet<String>,
    variant: u64,
    depth: usize,
    in_progress: &mut BTreeSet<String>,
) -> Option<Chain> {
    if depth == 0 || in_progress.contains(&entry.id.0) {
        return None;
    }
    in_progress.insert(entry.id.0.clone());

    let mut functions: Vec<String> = Vec::new();
    let mut score = step_cost(entry, frameworks_in_plan, &functions, variant);

    // Group required inputs by format: params sharing a format need that
    // many *distinct* sources (the instantiation phase binds them
    // distinctly, so feasibility must count, not just test).
    let mut needs: BTreeMap<DataFormat, usize> = BTreeMap::new();
    for param in entry.required_inputs() {
        *needs.entry(param.format).or_default() += 1;
    }

    for (format, k) in needs {
        let available_count =
            available.iter().filter(|(f, _)| f.compatible_with(format)).count();
        let chain_count = functions
            .iter()
            .filter(|f| {
                registry
                    .get(&registry::FunctionId::from(f.as_str()))
                    .map(|e| e.output.compatible_with(format))
                    == Some(true)
            })
            .count();
        let missing = k.saturating_sub(available_count + chain_count);
        if missing == 0 {
            continue;
        }
        if missing > 1 {
            // Planning several independent instances of one format inside a
            // single chain is out of scope; the decomposition expresses that
            // as separate fresh sub-problems instead.
            in_progress.remove(&entry.id.0);
            return None;
        }
        // Recurse: pick the cheapest provider for the one missing input.
        let mut best: Option<Chain> = None;
        for provider in registry.producing(format) {
            if let Some(c) = chain_via(
                provider,
                available,
                registry,
                frameworks_in_plan,
                variant,
                depth - 1,
                in_progress,
            ) {
                if best.as_ref().is_none_or(|b| c.score < b.score) {
                    best = Some(c);
                }
            }
        }
        match best {
            Some(sub) => {
                for f in sub.functions {
                    if !functions.contains(&f) {
                        functions.push(f);
                    }
                }
                score += sub.score;
            }
            None => {
                in_progress.remove(&entry.id.0);
                return None;
            }
        }
    }

    functions.push(entry.id.0.clone());
    in_progress.remove(&entry.id.0);
    Some(Chain { functions, score })
}

/// The planner's cost model for one step.
fn step_cost(
    entry: &CapabilityEntry,
    frameworks_in_plan: &BTreeSet<String>,
    chain_so_far: &[String],
    variant: u64,
) -> f64 {
    let _ = chain_so_far;
    let mut cost = entry.cost.weight() + (1.0 - entry.reliability) * 4.0;
    if !frameworks_in_plan.contains(&entry.framework) {
        cost += 2.0; // framework-spread penalty (restraint)
    }
    if variant > 0 {
        // Deterministic jitter for ensemble diversity: up to ±0.4.
        let h = stable_hash(&[variant, stable_str_hash(&entry.id.0)]);
        cost += ((h % 800) as f64 / 1000.0) - 0.4;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Entities, Intent, ResolvedArg, SubProblem};
    use registry::{CapabilityEntry, CostClass, Param};

    /// A miniature two-framework registry.
    fn registry() -> Registry {
        let mut r = Registry::new();
        r.register(CapabilityEntry::new(
            "nautilus.map_links",
            "nautilus",
            "maps links to cables",
            vec![],
            DataFormat::MappingTable,
        ))
        .unwrap();
        r.register(CapabilityEntry::new(
            "nautilus.dependency_table",
            "nautilus",
            "builds cable dependency view",
            vec![Param::required("mapping", DataFormat::MappingTable)],
            DataFormat::DependencyTable,
        ))
        .unwrap();
        r.register(CapabilityEntry::new(
            "util.cable_failure_event",
            "util",
            "builds a failure event for a named cable",
            vec![Param::required("cable_name", DataFormat::Text)],
            DataFormat::FailureEventSpec,
        ))
        .unwrap();
        r.register(CapabilityEntry::new(
            "xaminer.process_event",
            "xaminer",
            "processes failure event into impact",
            vec![
                Param::required("event", DataFormat::FailureEventSpec),
                Param::required("deps", DataFormat::DependencyTable),
            ],
            DataFormat::FailureImpact,
        ))
        .unwrap();
        r.register(CapabilityEntry::new(
            "xaminer.impact_report",
            "xaminer",
            "aggregates impact metrics",
            vec![Param::required("impact", DataFormat::FailureImpact)],
            DataFormat::ImpactReport,
        ))
        .unwrap();
        r.register(CapabilityEntry::new(
            "xaminer.country_aggregate",
            "xaminer",
            "extracts country-level table",
            vec![Param::required("report", DataFormat::ImpactReport)],
            DataFormat::CountryImpactTable,
        ))
        .unwrap();
        // A deliberately expensive cross-framework alternative that a
        // restrained planner must avoid.
        r.register(
            CapabilityEntry::new(
                "bgp.country_reachability",
                "bgp",
                "estimates country impact from BGP reachability",
                vec![Param::required("updates", DataFormat::BgpUpdates)],
                DataFormat::CountryImpactTable,
            )
            .with_cost(CostClass::Expensive),
        )
        .unwrap();
        r.register(
            CapabilityEntry::new(
                "bgp.updates",
                "bgp",
                "fetches BGP updates",
                vec![],
                DataFormat::BgpUpdates,
            )
            .with_cost(CostClass::Expensive),
        )
        .unwrap();
        r
    }

    fn decomposition() -> Decomposition {
        Decomposition {
            intent: Intent::CableImpact,
            entities: Entities::default(),
            provided_args: BTreeMap::from([(
                "cable_name".to_string(),
                ResolvedArg { format: DataFormat::Text, value: serde_json::json!("SeaMeWe-5") },
            )]),
            sub_problems: vec![
                SubProblem {
                    id: "deps".into(),
                    description: "identify cable dependencies".into(),
                    target: DataFormat::DependencyTable,
                    depends_on: vec![],
                    prefer_args: vec![],
                    fresh: false,
                },
                SubProblem {
                    id: "impact".into(),
                    description: "process the failure event".into(),
                    target: DataFormat::FailureImpact,
                    depends_on: vec!["deps".into()],
                    prefer_args: vec![],
                    fresh: false,
                },
                SubProblem {
                    id: "aggregate".into(),
                    description: "aggregate to country level".into(),
                    target: DataFormat::CountryImpactTable,
                    depends_on: vec!["impact".into()],
                    prefer_args: vec![],
                    fresh: false,
                },
            ],
            constraints: vec![],
            success_criteria: vec![],
            risks: vec![],
            complexity: Complexity::Moderate,
        }
    }

    #[test]
    fn plans_the_expected_cable_impact_chain() {
        let plan = plan_architecture(&decomposition(), &registry(), 0).unwrap();
        let fns: Vec<&str> = plan.steps.iter().map(|s| s.function.as_str()).collect();
        assert!(fns.contains(&"nautilus.map_links"));
        assert!(fns.contains(&"nautilus.dependency_table"));
        assert!(fns.contains(&"util.cable_failure_event"));
        assert!(fns.contains(&"xaminer.process_event"));
        assert!(fns.contains(&"xaminer.country_aggregate"));
        // The expensive BGP detour must not be chosen.
        assert!(!fns.contains(&"bgp.country_reachability"));
        assert_eq!(plan.outputs.len(), 1);
        assert!(plan.alternatives_considered >= 3, "moderate complexity explores");
    }

    #[test]
    fn bindings_are_fully_resolved() {
        let plan = plan_architecture(&decomposition(), &registry(), 0).unwrap();
        for step in &plan.steps {
            let entry = registry()
                .get(&registry::FunctionId::from(step.function.as_str()))
                .cloned()
                .unwrap();
            for p in entry.required_inputs() {
                assert!(
                    step.bindings.contains_key(&p.name),
                    "step {} missing binding {}",
                    step.id,
                    p.name
                );
            }
        }
        // cable_name arg feeds the event builder.
        let ev = plan
            .steps
            .iter()
            .find(|s| s.function == "util.cable_failure_event")
            .unwrap();
        assert_eq!(
            ev.bindings.get("cable_name"),
            Some(&PlannedBinding::FromArg("cable_name".to_string()))
        );
    }

    #[test]
    fn unsatisfiable_target_errors() {
        let mut d = decomposition();
        d.sub_problems.push(SubProblem::new(
            "impossible",
            "needs a format nothing makes",
            DataFormat::ForensicVerdict,
            &[],
        ));
        let err = plan_architecture(&d, &registry(), 0).unwrap_err();
        assert_eq!(err.target, DataFormat::ForensicVerdict);
    }

    #[test]
    fn variants_can_change_the_plan_deterministically() {
        let p0a = plan_architecture(&decomposition(), &registry(), 0).unwrap();
        let p0b = plan_architecture(&decomposition(), &registry(), 0).unwrap();
        assert_eq!(p0a, p0b, "same variant, same plan");
        // Different variants may or may not change the plan, but must stay
        // deterministic.
        let p7a = plan_architecture(&decomposition(), &registry(), 7).unwrap();
        let p7b = plan_architecture(&decomposition(), &registry(), 7).unwrap();
        assert_eq!(p7a, p7b);
    }

    #[test]
    fn simple_complexity_uses_first_valid_path() {
        let mut d = decomposition();
        d.complexity = Complexity::Simple;
        let plan = plan_architecture(&d, &registry(), 0).unwrap();
        assert!(!plan.steps.is_empty());
    }

    #[test]
    fn framework_penalty_enforces_restraint() {
        // With only the aggregate sub-problem and BGP the only *extra*
        // framework, the xaminer chain must win despite being longer.
        let d = decomposition();
        let plan = plan_architecture(&d, &registry(), 0).unwrap();
        assert!(
            !plan.frameworks.contains(&"bgp".to_string()),
            "restraint: BGP should not appear, got {:?}",
            plan.frameworks
        );
    }
}
