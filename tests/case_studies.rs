//! Cross-crate integration tests: the four case studies end to end —
//! generation, validation, execution, and comparison against the expert
//! baselines. These are the paper's §4 claims as assertions.

use arachnet_repro::{run_case_study, CaseStudy};
use baselines::metrics;
use toolkit::data::{CountryTableData, TimelineData, VerdictData};

#[test]
fn cs1_direct_pipeline_matches_expert_outputs() {
    let run = run_case_study(CaseStudy::Cs1CableImpact);

    // The controlled setup worked: the generated workflow avoids the
    // withheld high-level abstraction and derives the direct pipeline.
    let functions: Vec<&str> =
        run.solution.workflow.steps.iter().map(|s| s.function.0.as_str()).collect();
    assert!(!functions.contains(&"xaminer.event_impact"));
    for expected in [
        "nautilus.map_links",
        "nautilus.dependency_table",
        "nautilus.resolve_cable",
        "util.cable_failure_event",
        "xaminer.process_event",
        "xaminer.impact_report",
        "xaminer.country_aggregate",
    ] {
        assert!(functions.contains(&expected), "missing {expected}");
    }

    // Both workflows execute cleanly.
    assert!(run.report.all_ok(), "generated failed: {:?}", run.report.qa);
    assert!(run.expert_report.all_ok());

    // Similar impact metrics despite the architectural difference.
    let generated: CountryTableData = run.output_as().expect("table");
    let expert: CountryTableData = run.expert_output_as().expect("table");
    let sim = metrics::country_table_similarity(&generated, &expert);
    assert!(sim.jaccard > 0.8, "affected-country jaccard {:.2}", sim.jaccard);
    if let Some(rho) = sim.spearman {
        assert!(rho > 0.8, "rank correlation {rho:.2}");
    }
    assert!(sim.top5_overlap >= 0.6, "top-5 overlap {:.2}", sim.top5_overlap);
}

#[test]
fn cs2_restraint_single_capability() {
    let run = run_case_study(CaseStudy::Cs2DisasterImpact);
    assert!(run.report.all_ok());

    // Exactly one distinct analysis capability, from one framework,
    // despite the full multi-framework catalog being available.
    let mut analysis: Vec<&str> = run
        .solution
        .workflow
        .steps
        .iter()
        .map(|s| s.function.0.as_str())
        .filter(|f| {
            ["nautilus.", "xaminer.", "bgp.", "traceroute."]
                .iter()
                .any(|p| f.starts_with(p))
        })
        .collect();
    analysis.sort();
    analysis.dedup();
    assert_eq!(analysis, vec!["xaminer.event_impact"], "restraint violated");

    // Alternatives were actually explored (adaptive exploration ran).
    assert!(run.solution.architecture.alternatives_considered >= 2);

    // Output functionally identical to the expert's.
    let generated: CountryTableData = run.output_as().expect("table");
    let expert: CountryTableData = run.expert_output_as().expect("table");
    let sim = metrics::country_table_similarity(&generated, &expert);
    assert_eq!(sim.jaccard, 1.0, "CS2 outputs should be identical");
}

#[test]
fn cs3_four_framework_orchestration() {
    let run = run_case_study(CaseStudy::Cs3CascadingFailure);
    assert!(run.report.all_ok(), "qa: {:?}", run.report.qa);

    let frameworks: Vec<&str> = run
        .solution
        .frameworks
        .iter()
        .map(|s| s.as_str())
        .filter(|f| ["nautilus", "xaminer", "bgp", "traceroute"].contains(f))
        .collect();
    assert_eq!(frameworks.len(), 4, "got {frameworks:?}");

    // The unified timeline spans physical, routing and data-plane layers.
    let timeline: TimelineData = run.output_as().expect("timeline");
    assert!(timeline.events.len() >= 3);
    for layer in ["cable", "routing"] {
        assert!(
            timeline.layers.iter().any(|l| l == layer),
            "timeline misses layer {layer}: {:?}",
            timeline.layers
        );
    }

    // Strong structural agreement with the expert workflow.
    let overlap = metrics::function_overlap(&run.solution.workflow, &run.expert_workflow);
    assert!(overlap > 0.7, "function overlap {overlap:.2}");
}

#[test]
fn cs4_forensics_identify_the_culprit() {
    let run = run_case_study(CaseStudy::Cs4ForensicRca);
    assert!(run.report.all_ok(), "qa: {:?}", run.report.qa);

    let verdict: VerdictData = run.output_as().expect("verdict");
    assert!(verdict.cable_caused, "narrative: {}", verdict.narrative);
    assert_eq!(
        verdict.cable.as_deref(),
        Some(toolkit::scenarios::CS4_CULPRIT),
        "wrong culprit: {}",
        verdict.narrative
    );
    assert!(verdict.confidence > 0.5);

    // Expert agrees.
    let expert: VerdictData = run.expert_output_as().expect("verdict");
    assert_eq!(expert.cable, verdict.cable);
}

#[test]
fn cs4_negative_control_declines_to_blame() {
    use arachnet::{DeterministicExpertModel, Engine};
    use toolkit::{catalog, scenarios};

    let engine = Engine::new(
        std::sync::Arc::new(DeterministicExpertModel::new()),
        catalog::standard_registry(),
    );
    engine.register_scenario("cs4-negative", scenarios::cs4_negative_scenario());
    let session = engine.session("cs4-negative").expect("registered above");
    let scenario = session.scenario();
    let context = catalog::query_context(&scenario.world, scenario.now, 14);
    let run = session
        .run(CaseStudy::Cs4ForensicRca.query(), &context)
        .expect("generation succeeds");
    let verdict: VerdictData = run
        .report
        .outputs
        .values()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("verdict output");
    assert!(
        !verdict.cable_caused,
        "congestion must not be blamed on a cable: {}",
        verdict.narrative
    );
}

#[test]
fn generated_loc_ordering_tracks_the_paper() {
    // The paper's sizes: CS1 ≈250 < CS2 ≈300 < CS3 ≈525 < CS4 ≈750. Our
    // renderer is more compact, but complexity ordering must hold for the
    // multi-framework studies relative to the single-framework ones.
    let locs: Vec<usize> = CaseStudy::ALL
        .iter()
        .map(|&c| run_case_study(c).solution.loc)
        .collect();
    assert!(locs[2] > locs[0], "CS3 ({}) must exceed CS1 ({})", locs[2], locs[0]);
    assert!(locs[2] > locs[1], "CS3 ({}) must exceed CS2 ({})", locs[2], locs[1]);
    assert!(locs[3] > locs[1], "CS4 ({}) must exceed CS2 ({})", locs[3], locs[1]);
    for (i, &loc) in locs.iter().enumerate() {
        assert!(loc > 60, "CS{} rendered only {loc} lines", i + 1);
    }
}

#[test]
fn planning_transcript_is_pinned() {
    // Every model exchange of CS1–CS5 generation plus one curation pass,
    // folded into one hash over each exchange's system prompt, task tag,
    // payload JSON and completion text: a change to any prompt, payload
    // or completion byte moves it.
    use std::sync::Arc;

    use arachnet::Engine;
    use llm::{DeterministicExpertModel, RecordingModel};
    use net_model::hash::stable_str_hash;
    use toolkit::{catalog, scenarios};

    let model = Arc::new(RecordingModel::new(DeterministicExpertModel::new()));
    let cases = CaseStudy::ALL
        .iter()
        .map(|c| (c.registry(), c.scenario(), c.query()))
        .chain([(
            catalog::standard_registry(),
            scenarios::cs5_hijack_scenario(),
            scenarios::CS5_QUERY,
        )]);
    let mut corpus = Vec::new();
    let mut engines = Vec::new();
    for (registry, scenario, query) in cases {
        let engine = Engine::new(model.clone(), registry);
        engine.register_scenario("case", scenario);
        let session = engine.session("case").unwrap();
        corpus.push(session.generate(query, &session.context()).unwrap().summary(true));
        engines.push(engine);
    }
    let curated = engines.last().unwrap().curate(&corpus, 1).unwrap();
    assert!(!curated.added.is_empty() || !curated.rejected.is_empty());

    let transcript = model.transcript();
    assert_eq!(transcript.len(), 5 * 3 + 1);
    let mut text = String::new();
    for (prompt, completion) in &transcript {
        let completion = match completion {
            Ok(c) => c.text.clone(),
            Err(e) => format!("error: {e}"),
        };
        for part in [&prompt.system, &prompt.task, &prompt.payload.to_string(), &completion] {
            text.push_str(part);
            text.push('\u{1f}');
        }
    }
    let hash = stable_str_hash(&text);
    assert_eq!(hash, 0xf1ba_9e06_50da_f5ff, "transcript hash {hash:016x}");
}

#[test]
fn session_context_is_the_horizon_day_derivation() {
    // `Session::context` clamps the horizon to at least one day; every
    // case study and every forged family scenario has a whole-day horizon
    // of at least one day, so it equals the unclamped derivation.
    use std::sync::Arc;

    use arachnet::{DeterministicExpertModel, Engine, Family, FamilyParams};
    use toolkit::{catalog, scenarios};

    let model = Arc::new(DeterministicExpertModel::new());
    let engine = Engine::new(model, catalog::standard_registry());
    let mut keys: Vec<String> = CaseStudy::ALL
        .iter()
        .map(|c| {
            let key = format!("cs{}", c.index());
            engine.register_scenario(&key, c.scenario());
            key
        })
        .collect();
    engine.register_scenario("cs5", scenarios::cs5_hijack_scenario());
    keys.push("cs5".into());
    let fleet = engine.register_families(&Family::ALL, &FamilyParams::default());
    assert!(!fleet.is_empty());
    keys.extend(fleet.into_iter().map(|f| f.key));
    for key in &keys {
        let session = engine.session(key).expect("registered");
        let s = session.scenario();
        let days = s.horizon.duration().as_seconds() / 86_400;
        assert!(days >= 1, "{key}: horizon of {days} days");
        assert_eq!(session.context(), catalog::query_context(&s.world, s.now, days), "{key}");
    }
}
