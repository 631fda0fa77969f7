//! Executor determinism: proptest-generated DAGs — with failures,
//! poisoning chains, empty outputs and missing query arguments — must
//! produce byte-identical [`ExecutionReport`]s, including the QA-finding
//! order, when 1, 2 or 8 worker threads run the same workflow at once
//! against one shared runtime.

use std::collections::BTreeMap;

use proptest::prelude::*;

use registry::{CapabilityEntry, DataFormat, FunctionId, Param, Registry};
use workflow::{execute, Step, ToolError, ToolRuntime, Value, Workflow};

/// What one generated step does.
#[derive(Debug, Clone, Copy)]
enum Behavior {
    /// Produces a table derived from its inputs.
    Ok,
    /// The tool fails, poisoning dependents.
    Fail,
    /// Produces an empty table (raises the QA sanity warning).
    Empty,
    /// Binds a query argument that is never supplied (fails pre-invoke).
    MissingArg,
}

#[derive(Debug, Clone)]
struct StepSpec {
    behavior: Behavior,
    /// Bitmask over earlier steps: bit `j` depends on step `j`.
    deps: u16,
}

fn step_spec() -> impl Strategy<Value = StepSpec> {
    (0u8..6, any::<u16>()).prop_map(|(b, deps)| StepSpec {
        behavior: match b {
            0..=2 => Behavior::Ok,
            3 => Behavior::Fail,
            4 => Behavior::Empty,
            _ => Behavior::MissingArg,
        },
        deps,
    })
}

/// The registry: one function per behavior, with enough optional table
/// parameters to wire any dependency mask.
#[expect(clippy::unwrap_used, reason = "distinct toy ids")]
fn dag_registry() -> Registry {
    let deps: Vec<Param> =
        (0..16).map(|i| Param::optional(&format!("d{i}"), DataFormat::Table)).collect();
    let mut r = Registry::new();
    for id in ["dag.ok", "dag.fail", "dag.empty"] {
        r.register(CapabilityEntry::new(id, "dag", "toy", deps.clone(), DataFormat::Table))
            .unwrap();
    }
    let mut with_arg = deps.clone();
    with_arg.push(Param::required("seed", DataFormat::Scalar));
    r.register(CapabilityEntry::new("dag.needs_arg", "dag", "toy", with_arg, DataFormat::Table))
        .unwrap();
    r
}

/// Deterministic toy runtime: concatenates input tables (in parameter
/// order) and appends its own tag.
struct DagRuntime;

impl ToolRuntime for DagRuntime {
    fn invoke(
        &self,
        function: &FunctionId,
        args: &BTreeMap<String, Value>,
    ) -> Result<Value, ToolError> {
        match function.0.as_str() {
            "dag.ok" => {
                let mut rows: Vec<serde_json::Value> = Vec::new();
                for (name, v) in args {
                    if let Some(a) = v.json().as_array() {
                        rows.extend(a.iter().cloned());
                    }
                    rows.push(serde_json::Value::String(name.clone()));
                }
                Ok(Value::new(DataFormat::Table, serde_json::Value::Array(rows)))
            }
            "dag.empty" => Ok(Value::new(DataFormat::Table, serde_json::json!([]))),
            "dag.fail" => Err(ToolError::Failed {
                function: function.clone(),
                message: "intentional".into(),
                transient: false,
            }),
            _ => Err(ToolError::Unbound(function.clone())),
        }
    }
}

fn build_workflow(specs: &[StepSpec]) -> Workflow {
    let mut wf = Workflow::new("dag", "generated");
    for (i, spec) in specs.iter().enumerate() {
        let function = match spec.behavior {
            Behavior::Ok | Behavior::MissingArg => {
                if matches!(spec.behavior, Behavior::MissingArg) {
                    "dag.needs_arg"
                } else {
                    "dag.ok"
                }
            }
            Behavior::Fail => "dag.fail",
            Behavior::Empty => "dag.empty",
        };
        let mut step = Step::new(&format!("s{i:02}"), function);
        for j in 0..i.min(16) {
            if spec.deps & (1 << j) != 0 {
                step = step.bind(&format!("d{j}"), workflow::Binding::Step(format!("s{j:02}").as_str().into()));
            }
        }
        if matches!(spec.behavior, Behavior::MissingArg) {
            step = step.bind_arg("seed", "never_supplied", DataFormat::Scalar);
        }
        wf.push(step);
    }
    // Every step is an output so the report covers the full DAG surface.
    for i in 0..specs.len() {
        wf = wf.with_output(&format!("s{i:02}"));
    }
    wf
}

/// Runs `run` on `workers` threads at once and returns every result.
#[expect(clippy::disallowed_methods, reason = "the 1/2/8 concurrent-caller pin")]
#[expect(clippy::expect_used, reason = "a panicking caller fails the test")]
fn concurrently<T: Send>(workers: usize, run: impl Fn() -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(&run)).collect();
        handles.into_iter().map(|h| h.join().expect("worker thread")).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full report — results, outputs, QA findings (and their order),
    /// counters — is identical for every one of 1, 2 and 8 concurrent
    /// worker threads.
    #[test]
    fn reports_identical_across_worker_counts(specs in proptest::collection::vec(step_spec(), 1..14)) {
        let wf = build_workflow(&specs);
        let registry = dag_registry();
        let args = BTreeMap::new();
        let baseline = execute(&wf, &registry, &DagRuntime, &args);
        for workers in [1usize, 2, 8] {
            for report in concurrently(workers, || execute(&wf, &registry, &DagRuntime, &args)) {
                prop_assert_eq!(&report, &baseline);
            }
        }
        // Sanity: counters cover every step instance.
        prop_assert_eq!(baseline.results.len(), specs.len());
    }

    /// Failure accounting holds for any DAG shape: failed steps are the
    /// Fail/MissingArg ones, and every step downstream of a non-Ok step
    /// poisons.
    #[test]
    fn poisoning_is_transitive_and_deterministic(specs in proptest::collection::vec(step_spec(), 1..14)) {
        let wf = build_workflow(&specs);
        let registry = dag_registry();
        let report = execute(&wf, &registry, &DagRuntime, &BTreeMap::new());

        // Recompute expected per-step health sequentially.
        let mut ok = vec![false; specs.len()];
        for (i, spec) in specs.iter().enumerate() {
            let deps_ok = (0..i.min(16)).all(|j| spec.deps & (1 << j) == 0 || ok[j]);
            ok[i] = deps_ok && matches!(spec.behavior, Behavior::Ok | Behavior::Empty);
        }
        for (i, &expected) in ok.iter().enumerate() {
            let id = workflow::StepId::from(format!("s{i:02}").as_str());
            let result = report.results.get(&id).expect("every step reported");
            prop_assert_eq!(result.is_ok(), expected);
        }
        prop_assert_eq!(report.outputs.len(), ok.iter().filter(|&&b| b).count());
    }
}
