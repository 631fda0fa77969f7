//! Regenerates every evaluation artifact of the paper.
//!
//! ```text
//! cargo run --release -p benchkit --bin report -- all
//! cargo run --release -p benchkit --bin report -- cs1 cs4 ensemble
//! ```
//!
//! Artifacts: `figure1`, `cs1`…`cs4` (E1–E4), `scaling` (E5),
//! `ensemble` (E6), `curator` (E7), `conflicts` (E8).

use arachnet_repro::CaseStudy;
use benchkit::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec!["figure1", "cs1", "cs2", "cs3", "cs4", "scaling", "ensemble", "curator", "conflicts"]
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };

    for artifact in wanted {
        match artifact {
            "figure1" => figure1(),
            "cs1" => cs1(),
            "cs2" => cs2(),
            "cs3" => cs3(),
            "cs4" => cs4(),
            "scaling" => scaling(),
            "ensemble" => ensemble_report(),
            "curator" => curator(),
            "conflicts" => conflicts(),
            other => eprintln!("unknown artifact {other:?} (see --help in source)"),
        }
    }
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// F1 — the architecture walkthrough: one query through all four agents.
fn figure1() {
    header("F1 | Figure 1 — four-agent pipeline trace (CS1 query)");
    let (_, run) = case_study_row(CaseStudy::Cs1CableImpact);
    let d = &run.solution.decomposition;
    println!("[QueryMind]      intent={:?} complexity={:?}", d.intent, d.complexity);
    for sp in &d.sub_problems {
        println!("                 sub-problem {:<20} -> {}", sp.id, sp.target);
    }
    for c in &d.constraints {
        println!("                 constraint: {c}");
    }
    for s in &d.success_criteria {
        println!("                 success: {s}");
    }
    println!(
        "[WorkflowScout]  {} steps over frameworks {:?} ({} alternatives considered)",
        run.solution.architecture.steps.len(),
        run.solution.frameworks,
        run.solution.architecture.alternatives_considered
    );
    println!(
        "[SolutionWeaver] {} steps after QA weaving, {} rendered LoC, QA: {:?}",
        run.solution.workflow.steps.len(),
        run.solution.loc,
        run.solution.qa_measures
    );
    println!(
        "[Execution]      {} ok / {} failed / {} poisoned; {} QA findings",
        run.report.executed - run.report.failed,
        run.report.failed,
        run.report.poisoned,
        run.report.qa.len()
    );
    println!("[RegistryCurator] see `curator` artifact (E7)");
}

fn print_row(row: &CaseStudyRow) {
    println!("query: {}", row.query);
    println!(
        "  LoC: paper ≈{}  measured {}   steps: {}   frameworks: {:?}",
        row.paper_loc, row.measured_loc, row.steps, row.frameworks
    );
    println!(
        "  expert function overlap (Jaccard): {:.2}   generated-ok: {}   expert-ok: {}",
        row.function_overlap_with_expert, row.generated_all_ok, row.expert_all_ok
    );
}

/// E1 — CS1: expert-level cable impact analysis.
fn cs1() {
    header("E1 | Case study 1 — SeaMeWe-5 country-level impact (restricted registry)");
    let (row, run) = case_study_row(CaseStudy::Cs1CableImpact);
    print_row(&row);
    if let Some(sim) = country_similarity(&run) {
        println!(
            "  output similarity vs expert: jaccard={:.2} spearman={} top5-overlap={:.2} ({} common countries)",
            sim.jaccard,
            sim.spearman.map(|s| format!("{s:.2}")).unwrap_or_else(|| "n/a".into()),
            sim.top5_overlap,
            sim.common_countries
        );
    }
    if let Some(table) = run.output_as::<toolkit::data::CountryTableData>() {
        println!("  top impacted countries (generated):");
        for r in table.rows.iter().take(5) {
            println!(
                "    {}  score={:.3} links={} ases={}",
                r.country, r.impact_score, r.links_affected, r.ases_affected
            );
        }
    }
    println!(
        "  paper claim: direct processing pipeline derived without Xaminer's high-level \
         abstractions, similar impact metrics — {}",
        if row.generated_all_ok { "reproduced" } else { "NOT reproduced" }
    );
}

/// E2 — CS2: multi-disaster restraint.
fn cs2() {
    header("E2 | Case study 2 — global earthquakes+hurricanes at 10% (restraint)");
    let (row, run) = case_study_row(CaseStudy::Cs2DisasterImpact);
    print_row(&row);
    let analysis_fns: Vec<&str> = run
        .solution
        .workflow
        .steps
        .iter()
        .map(|s| s.function.0.as_str())
        .filter(|f| f.starts_with("xaminer.") || f.starts_with("nautilus.") || f.starts_with("bgp.") || f.starts_with("traceroute."))
        .collect();
    println!("  analysis functions used: {analysis_fns:?}");
    println!(
        "  alternatives considered during exploration: {}",
        run.solution.architecture.alternatives_considered
    );
    if let Some(sim) = country_similarity(&run) {
        println!(
            "  output vs expert: jaccard={:.2} spearman={}",
            sim.jaccard,
            sim.spearman.map(|s| format!("{s:.2}")).unwrap_or_else(|| "n/a".into()),
        );
    }
    // "Only a single function": one *distinct* analysis capability, applied
    // per disaster kind — the paper's workflows "leverage the event
    // processing function's versatility to handle earthquakes and
    // hurricanes separately".
    let mut distinct = analysis_fns.clone();
    distinct.sort();
    distinct.dedup();
    println!(
        "  paper claim: a single event-processing function suffices; no cross-framework \
         integration — {}",
        if distinct == vec!["xaminer.event_impact"] {
            "reproduced"
        } else {
            "NOT reproduced"
        }
    );
}

/// E3 — CS3: cascading failure orchestration across 4 frameworks.
fn cs3() {
    header("E3 | Case study 3 — Europe–Asia cascading failures (4-framework orchestration)");
    let (row, run) = case_study_row(CaseStudy::Cs3CascadingFailure);
    print_row(&row);
    if let Some(f1) = timeline_similarity(&run) {
        println!("  timeline alignment with expert (F1): {f1:.2}");
    }
    if let Some(tl) = run.output_as::<toolkit::data::TimelineData>() {
        println!("  unified timeline: {} events across layers {:?}", tl.events.len(), tl.layers);
        for e in tl.events.iter().take(8) {
            println!("    t={:>8}  [{:^8}] {}", e.t, e.layer, e.description);
        }
    }
    println!(
        "  paper claim: automated integration across 4 frameworks with unified cable/IP/AS \
         timeline — {}",
        if row.frameworks.len() == 4 { "reproduced" } else { "NOT reproduced" }
    );
}

/// E4 — CS4: forensic root-cause investigation.
fn cs4() {
    header("E4 | Case study 4 — forensic root cause of the latency anomaly");
    let (row, run) = case_study_row(CaseStudy::Cs4ForensicRca);
    print_row(&row);
    let (generated, expert) = verdicts(&run);
    if let Some(v) = &generated {
        println!(
            "  generated verdict: cable_caused={} cable={:?} confidence={:.2}",
            v.cable_caused, v.cable, v.confidence
        );
        println!("  narrative: {}", v.narrative);
    }
    if let Some(v) = &expert {
        println!(
            "  expert verdict:    cable_caused={} cable={:?} confidence={:.2}",
            v.cable_caused, v.cable, v.confidence
        );
    }
    let truth = toolkit::scenarios::CS4_CULPRIT;
    let correct = generated
        .as_ref()
        .map(|v| v.cable.as_deref() == Some(truth))
        .unwrap_or(false);
    println!("  injected culprit: {truth}   identified correctly: {correct}");
    println!(
        "  paper claim: definitive cable identification with confidence — {}",
        if correct { "reproduced" } else { "NOT reproduced" }
    );

    // Negative control: congestion-only scenario must not blame a cable.
    let engine = arachnet::Engine::new(
        std::sync::Arc::new(arachnet::DeterministicExpertModel::new()),
        toolkit::standard_registry(),
    );
    engine.register_scenario("cs4-negative", toolkit::scenarios::cs4_negative_scenario());
    let session = engine.session("cs4-negative").expect("registered above");
    let scenario = session.scenario();
    let context = toolkit::catalog::query_context(&scenario.world, scenario.now, 14);
    let run = session
        .run(CaseStudy::Cs4ForensicRca.query(), &context)
        .expect("generation succeeds");
    let verdict: Option<toolkit::data::VerdictData> = run
        .report
        .outputs
        .values()
        .next()
        .and_then(|v| v.parse().ok());
    if let Some(v) = verdict {
        println!(
            "  negative control (congestion only): cable_caused={} — {}",
            v.cable_caused,
            if v.cable_caused { "FALSE POSITIVE" } else { "correctly not blamed" }
        );
    }
}

/// E5 — registry scaling.
fn scaling() {
    header("E5 | Registry scaling — warm Session::generate cost vs registry size");
    let sizes = [0usize, 25, 50, 100, 200, 400];
    let curve = registry_scaling_curve(&sizes);
    println!("  {:>10} | {:>12}", "entries", "generate µs");
    for (n, us) in &curve {
        println!("  {n:>10} | {us:>12}");
    }
    let (n0, t0) = curve.first().copied().unwrap();
    let (n1, t1) = curve.last().copied().unwrap();
    println!(
        "  growth: {:.1}x entries -> {:.1}x time",
        n1 as f64 / n0 as f64,
        t1 as f64 / t0.max(1) as f64
    );
}

/// E6 — ensemble confidence.
fn ensemble_report() {
    header("E6 | Ensemble confidence (5 independent generations, CS1 query)");
    let (consensus, agreements) = ensemble_consensus(CaseStudy::Cs1CableImpact, 5);
    println!("  consensus (mean pairwise Jaccard): {consensus:.2}");
    println!("  per-function agreement:");
    for (f, a) in agreements.iter().take(10) {
        println!("    {a:>5.2}  {f}");
    }
}

/// E7 — registry evolution.
fn curator() {
    header("E7 | RegistryCurator — validation-first registry evolution");
    let exp = curation_experiment();
    println!("  composites added: {:?}", exp.added);
    println!("  patterns rejected: {}", exp.rejected);
    println!(
        "  plan size for the repeat query: {} steps before -> {} steps after",
        exp.steps_before, exp.steps_after
    );
}

/// E8 — conflicting tool outputs.
fn conflicts() {
    header("E8 | Conflict resolution — BGP vs traceroute disagreement");
    use arachnet::conflict::{resolve, Claim};
    let claims = vec![
        Claim { source: "bgp.best_path".into(), reliability: 0.9, verdict: "via AS1001".into() },
        Claim {
            source: "traceroute.observed".into(),
            reliability: 0.8,
            verdict: "via AS1002".into(),
        },
        Claim {
            source: "traceroute.mda_sweep".into(),
            reliability: 0.7,
            verdict: "via AS1002".into(),
        },
    ];
    let r = resolve(&claims).expect("claims exist");
    println!("  verdict: {} (confidence {:.2})", r.verdict, r.confidence);
    println!("  conflicted: {}   dissent: {:?}", r.conflicted, r.dissent);
    println!("  explanation: {}", r.explanation);
}
