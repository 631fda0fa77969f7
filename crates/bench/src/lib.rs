//! # benchkit — shared evaluation helpers for benches and the report
//! binary.
//!
//! The experiment ids (E1–E8, F1) map to DESIGN.md §4; every function here
//! regenerates one of the paper's evaluation artifacts.

use arachnet::{ensemble, DeterministicExpertModel};
use arachnet_repro::{case_study_engine, run_case_study, CaseStudy, CaseStudyRun};
use baselines::metrics;
use toolkit::data::{CountryTableData, TimelineData, VerdictData};
use toolkit::{catalog, scenarios};

/// One row of a case-study comparison (E1–E4).
#[derive(Debug, Clone)]
pub struct CaseStudyRow {
    pub case: usize,
    pub query: String,
    pub paper_loc: usize,
    pub measured_loc: usize,
    pub steps: usize,
    pub frameworks: Vec<String>,
    pub function_overlap_with_expert: f64,
    pub generated_all_ok: bool,
    pub expert_all_ok: bool,
}

/// Runs a case study and summarizes the comparison row.
pub fn case_study_row(case: CaseStudy) -> (CaseStudyRow, CaseStudyRun) {
    let run = run_case_study(case);
    let row = CaseStudyRow {
        case: case.index(),
        query: case.query().to_string(),
        paper_loc: case.paper_loc(),
        measured_loc: run.solution.loc,
        steps: run.solution.workflow.steps.len(),
        frameworks: measurement_frameworks(&run),
        function_overlap_with_expert: metrics::function_overlap(
            &run.solution.workflow,
            &run.expert_workflow,
        ),
        generated_all_ok: run.report.all_ok(),
        expert_all_ok: run.expert_report.all_ok(),
    };
    (row, run)
}

/// The *measurement* frameworks a solution integrates (nautilus, xaminer,
/// bgp, traceroute) — the paper's "4 frameworks" counts these, not the
/// util/qa plumbing.
pub fn measurement_frameworks(run: &CaseStudyRun) -> Vec<String> {
    run.solution
        .frameworks
        .iter()
        .filter(|f| ["nautilus", "xaminer", "bgp", "traceroute"].contains(&f.as_str()))
        .cloned()
        .collect()
}

/// E1/E2 output similarity: generated vs expert country tables.
pub fn country_similarity(run: &CaseStudyRun) -> Option<metrics::CountrySimilarity> {
    let generated: CountryTableData = run.output_as()?;
    let expert: CountryTableData = run.expert_output_as()?;
    Some(metrics::country_table_similarity(&generated, &expert))
}

/// E3 output similarity: generated vs expert unified timelines.
pub fn timeline_similarity(run: &CaseStudyRun) -> Option<f64> {
    let generated: TimelineData = run.output_as()?;
    let expert: TimelineData = run.expert_output_as()?;
    Some(metrics::timeline_alignment(&generated, &expert, 6 * 3600))
}

/// E4: the generated verdict (and the expert one).
pub fn verdicts(run: &CaseStudyRun) -> (Option<VerdictData>, Option<VerdictData>) {
    (run.output_as(), run.expert_output_as())
}

/// E5: registry exploration cost vs registry size. Returns
/// `(registry_size, planner_micros)` pairs for one decomposition planned
/// against registries padded with `n` extra irrelevant entries; the
/// micros are the [`sample`] median over 11 rounds.
pub fn registry_scaling_curve(sizes: &[usize]) -> Vec<(usize, u128)> {
    use llm::protocol::{DecomposeRequest, QueryContext};
    let scenario = scenarios::cs2_scenario();
    let context = QueryContext {
        cable_names: scenario.world.cables.iter().map(|c| c.name.clone()).collect(),
        now: scenario.now.seconds_since_epoch(),
        horizon_days: 10,
    };
    let mut out = Vec::new();
    for &n in sizes {
        let registry = padded_registry(n);
        let req = DecomposeRequest {
            query: CaseStudy::Cs2DisasterImpact.query().to_string(),
            context: context.clone(),
            registry: registry.clone(),
        };
        let decomposition = llm::expert::decompose(&req);
        let [plan] = sample(11, &mut [&mut || {
            let plan = llm::planner::plan_architecture(&decomposition, &registry, 0)
                .expect("plannable at any padding");
            assert!(!plan.steps.is_empty());
        }]);
        out.push((registry.len(), (plan.median_ms * 1e3).round() as u128));
    }
    out
}

// -- Wall-clock sampling ------------------------------------------------------

/// One sampled arm: nearest-rank p10, median and p90 of its per-round
/// wall-clock milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub p10_ms: f64,
    pub median_ms: f64,
    pub p90_ms: f64,
}

impl Spread {
    /// The nearest-rank p10/p50/p90 of `samples` (any order, non-empty).
    pub fn of(samples: &[f64]) -> Spread {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        // Nearest rank: the smallest sample with at least pct% of the
        // samples at or below it.
        let rank = |pct: usize| sorted[(pct * sorted.len()).div_ceil(100) - 1];
        Spread { p10_ms: rank(10), median_ms: rank(50), p90_ms: rank(90) }
    }
}

/// Runs every arm once untimed, then `rounds` timed rounds of all arms.
/// Round `r` starts at arm `r % arms.len()` and goes round the list, so
/// with two arms the order is AB BA AB …: both arms see the same machine
/// state and neither always runs first. Returns each arm's samples in
/// milliseconds, `rounds` per arm.
pub fn sample_arms(rounds: usize, arms: &mut [&mut dyn FnMut()]) -> Vec<Vec<f64>> {
    for arm in arms.iter_mut() {
        arm();
    }
    let mut samples = vec![Vec::with_capacity(rounds); arms.len()];
    for r in 0..rounds {
        for k in 0..arms.len() {
            let i = (r + k) % arms.len();
            // conformance: allow(no-wall-clock, reason = "the one clock read behind every bench number")
            let t0 = std::time::Instant::now();
            arms[i]();
            samples[i].push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    samples
}

/// [`sample_arms`] summarized: one [`Spread`] per arm.
pub fn sample<const N: usize>(rounds: usize, arms: &mut [&mut dyn FnMut(); N]) -> [Spread; N] {
    let samples = sample_arms(rounds, arms);
    std::array::from_fn(|i| Spread::of(&samples[i]))
}

/// The standard registry padded with `n` irrelevant (but well-typed)
/// entries, to measure lookup/exploration scaling.
pub fn padded_registry(n: usize) -> registry::Registry {
    use registry::{CapabilityEntry, DataFormat, Param};
    let mut r = catalog::standard_registry();
    for i in 0..n {
        r.register(
            CapabilityEntry::new(
                &format!("pad.tool_{i}"),
                "pad",
                "an unrelated capability for scaling measurements",
                vec![Param::required("table", DataFormat::Table)],
                DataFormat::Table,
            )
            .with_tags(&["padding"]),
        )
        .expect("padding ids are unique");
    }
    r
}

/// E6: ensemble consensus for a case-study query. Members generate
/// through a serving-engine session (sharing one epoch snapshot).
pub fn ensemble_consensus(case: CaseStudy, n: usize) -> (f64, Vec<(String, f64)>) {
    let engine = case_study_engine(case);
    let session = engine
        .session(&format!("cs{}", case.index()))
        .expect("scenario registered by case_study_engine");
    let scenario = session.scenario();
    let horizon_days = scenario.horizon.duration().as_seconds() / 86_400;
    let context = catalog::query_context(&scenario.world, scenario.now, horizon_days);
    let report = ensemble::generate_ensemble(&session, case.query(), &context, n)
        .expect("ensemble generation succeeds");
    let agreements = report
        .agreements
        .iter()
        .map(|a| (a.function.clone(), a.agreement))
        .collect();
    (report.consensus, agreements)
}

/// E7: registry evolution — generate CS2, curate through the engine, and
/// report what was added plus the before/after plan size for a repeat
/// query on a session opened under the new epoch.
pub struct CurationExperiment {
    pub added: Vec<String>,
    pub rejected: usize,
    pub steps_before: usize,
    pub steps_after: usize,
}

pub fn curation_experiment() -> CurationExperiment {
    let case = CaseStudy::Cs2DisasterImpact;
    let engine = case_study_engine(case);
    let key = format!("cs{}", case.index());
    let session = engine.session(&key).expect("scenario registered by case_study_engine");
    let scenario = session.scenario();
    let context = catalog::query_context(&scenario.world, scenario.now, 10);

    let before = session.generate(case.query(), &context).expect("generation succeeds");

    // A corpus of successful runs (the paper's "as workflows are built and
    // run successfully, patterns emerge").
    let corpus = vec![before.summary(true), before.summary(true), before.summary(true)];
    let outcome = engine.curate(&corpus, 2).expect("curation succeeds");

    // Sessions opened after curation pin the new epoch.
    let after = engine
        .session(&key)
        .expect("scenario still registered")
        .generate(case.query(), &context)
        .expect("generation succeeds");
    CurationExperiment {
        added: outcome.added.iter().map(|f| f.0.clone()).collect(),
        rejected: outcome.rejected.len(),
        steps_before: before.workflow.steps.len(),
        steps_after: after.workflow.steps.len(),
    }
}

// -- PR 3 serving benchmarks -------------------------------------------------

/// A CPU-bound toy runtime for executor benchmarks: every `work.unit`
/// call burns a deterministic number of hash rounds; `work.mix` folds its
/// inputs. Deterministic, allocation-light, embarrassingly parallel.
pub struct BusyRuntime {
    /// Hash rounds per `work.unit` invocation.
    pub rounds: u64,
}

impl workflow::ToolRuntime for BusyRuntime {
    fn invoke(
        &self,
        function: &registry::FunctionId,
        args: &std::collections::BTreeMap<String, workflow::Value>,
    ) -> Result<workflow::Value, workflow::ToolError> {
        use registry::DataFormat;
        match function.0.as_str() {
            "work.unit" => {
                let mut acc: u64 = 0x9E37_79B9_7F4A_7C15;
                for i in 0..self.rounds {
                    acc = acc.wrapping_mul(0x100_0000_01B3).rotate_left(17) ^ i;
                }
                Ok(workflow::Value::new(
                    DataFormat::Scalar,
                    serde_json::json!(acc % 1_000_000),
                ))
            }
            "work.mix" => {
                let mut total: i64 = 0;
                for v in args.values() {
                    total = total.wrapping_add(v.json().as_i64().unwrap_or(0));
                }
                Ok(workflow::Value::new(DataFormat::Scalar, serde_json::json!(total)))
            }
            _ => Err(workflow::ToolError::Unbound(function.clone())),
        }
    }
}

/// A fan-out/fan-in DAG workload: `width` independent `work.unit` steps
/// feeding one `work.mix` reduction — the shape the parallel executor is
/// built for. Returns the registry and the workflow.
pub fn exec_dag_workload(width: usize) -> (registry::Registry, workflow::Workflow) {
    use registry::{CapabilityEntry, DataFormat, Param};
    let mut r = registry::Registry::new();
    r.register(CapabilityEntry::new("work.unit", "work", "burns CPU", vec![], DataFormat::Scalar))
        .expect("unique");
    let inputs: Vec<Param> =
        (0..width).map(|i| Param::optional(&format!("d{i}"), DataFormat::Scalar)).collect();
    r.register(CapabilityEntry::new("work.mix", "work", "folds inputs", inputs, DataFormat::Scalar))
        .expect("unique");

    let mut wf = workflow::Workflow::new("exec-dag", "synthetic fan-out");
    for i in 0..width {
        wf.push(workflow::Step::new(&format!("u{i:02}"), "work.unit"));
    }
    let mut mix = workflow::Step::new("mix", "work.mix");
    for i in 0..width {
        mix = mix.bind_step(&format!("d{i}"), &format!("u{i:02}"));
    }
    wf.push(mix);
    (r, wf.with_output("mix"))
}

/// Serves `queries` identical queries end-to-end (generate + execute)
/// through a fresh engine with at most `threads` sessions in flight.
///
/// With `shared_store` the queries hit one scenario key, so every session
/// shares that scenario's artifact store (the engine's serving model);
/// without it each query gets its own key and therefore a cold private
/// store — the pre-engine batch-of-one behaviour, where every
/// `StandardRuntime::new` recomputed the mapping run from scratch.
///
/// Returns the total output count as a black-box guard.
pub fn serve_sessions(
    scenario: &world::Scenario,
    query: &str,
    queries: usize,
    shared_store: bool,
    threads: usize,
) -> usize {
    let engine = arachnet::Engine::new(
        std::sync::Arc::new(DeterministicExpertModel::new()),
        catalog::standard_registry(),
    );
    let keys: Vec<String> = if shared_store {
        engine.register_scenario("shared", scenario.clone());
        vec!["shared".to_string(); queries]
    } else {
        (0..queries)
            .map(|i| {
                let key = format!("cold{i}");
                engine.register_scenario(&key, scenario.clone());
                key
            })
            .collect()
    };
    let next = std::sync::atomic::AtomicUsize::new(0);
    let outputs = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, keys.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(key) = keys.get(i) else { return };
                let session = engine.session(key).expect("registered");
                let scenario = session.scenario();
                let horizon_days = scenario.horizon.duration().as_seconds() / 86_400;
                let context =
                    catalog::query_context(&scenario.world, scenario.now, horizon_days);
                let run = session.run(query, &context).expect("query serves");
                assert!(run.report.all_ok(), "qa: {:?}", run.report.qa);
                outputs.fetch_add(
                    run.report.outputs.len(),
                    std::sync::atomic::Ordering::Relaxed,
                );
            });
        }
    });
    outputs.load(std::sync::atomic::Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_registry_grows() {
        let base = catalog::standard_registry().len();
        assert_eq!(padded_registry(10).len(), base + 10);
    }

    #[test]
    fn exec_dag_workload_runs_identically_at_any_width() {
        let (registry, wf) = exec_dag_workload(6);
        let runtime = BusyRuntime { rounds: 10 };
        let args = std::collections::BTreeMap::new();
        let one = workflow::execute_with(
            &wf, &registry, &runtime, &args,
            &workflow::ExecOptions { workers: 1, ..Default::default() },
        );
        let many = workflow::execute_with(
            &wf, &registry, &runtime, &args,
            &workflow::ExecOptions { workers: 8, ..Default::default() },
        );
        assert!(one.all_ok());
        assert_eq!(one, many);
    }

    #[test]
    fn concurrent_sessions_serve_all_queries() {
        let scenario = toolkit::scenarios::cs1_scenario();
        let query = "Identify the impact at a country level due to SeaMeWe-5 cable failure";
        assert_eq!(serve_sessions(&scenario, query, 2, true, 2), 2);
        assert_eq!(serve_sessions(&scenario, query, 2, false, 1), 2);
    }

    #[test]
    fn sampler_alternates_the_first_arm_and_samples_arms_equally() {
        let log = std::cell::RefCell::new(Vec::new());
        let (mut a, mut b) = (|| log.borrow_mut().push('A'), || log.borrow_mut().push('B'));
        let samples = sample_arms(4, &mut [&mut a, &mut b]);
        let order: String = log.into_inner().into_iter().collect();
        // One untimed warmup call per arm, then four rounds: AB BA AB BA.
        assert_eq!((&order[..2], &order[2..]), ("AB", "ABBAABBA"));
        assert_eq!(samples.iter().map(Vec::len).collect::<Vec<_>>(), vec![4, 4]);
    }

    #[test]
    fn spread_is_nearest_rank() {
        let shuffled = [7.0, 3.0, 10.0, 1.0, 5.0, 9.0, 2.0, 8.0, 4.0, 6.0];
        let s = Spread::of(&shuffled);
        assert_eq!((s.p10_ms, s.median_ms, s.p90_ms), (1.0, 5.0, 9.0));
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        let s = Spread::of(&twenty);
        assert_eq!((s.p10_ms, s.median_ms, s.p90_ms), (2.0, 10.0, 18.0));
        let s = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p10_ms, s.median_ms, s.p90_ms), (1.0, 2.0, 3.0));
        let s = Spread::of(&[4.0]);
        assert_eq!((s.p10_ms, s.median_ms, s.p90_ms), (4.0, 4.0, 4.0));
    }

    #[test]
    fn scaling_curve_has_requested_points() {
        let curve = registry_scaling_curve(&[0, 20]);
        assert_eq!(curve.len(), 2);
        assert!(curve[1].0 > curve[0].0);
    }
}
