//! Degraded forensics: resilient serving when a detector goes dark.
//!
//! Serves the CS5 hijack-forensics query three times against the same
//! engine configuration, varying only the (deterministic, seeded) fault
//! plan:
//!
//! 1. **healthy** — empty fault plan, `health = Ok`, full attribution;
//! 2. **degraded** — `bgp.valley_violations` fails persistently; the
//!    detector is non-critical, so the run completes with
//!    `health = Degraded`, the MOAS detections survive, and every
//!    downstream casualty names the valley step as its root cause;
//! 3. **recovered** — the same outage made transient, plus a retry
//!    budget: the session rides through and serves a healthy report,
//!    with the retries visible in the accounting.
//!
//! ```text
//! cargo run --release --example degraded_forensics
//! ```

use std::sync::Arc;

use arachnet::{
    DeterministicExpertModel, Engine, FaultKind, FaultPlan, RetryPolicy, RunHealth, SessionRun,
};
use toolkit::{catalog, scenarios};
use workflow::StepResult;

fn serve(plan: FaultPlan, retry: RetryPolicy) -> SessionRun {
    let engine = Engine::new(
        Arc::new(DeterministicExpertModel::new()),
        catalog::standard_registry(),
    )
    .with_fault_plan(plan)
    .with_retry_policy(retry);
    engine.register_scenario("cs5", scenarios::cs5_hijack_scenario());
    let session = engine.session("cs5").expect("cs5 registered");
    session.run(scenarios::CS5_QUERY, &session.context()).expect("query serves despite faults")
}

fn print_run(label: &str, run: &SessionRun) {
    println!("\n--- {label} ---");
    let health = match &run.health {
        RunHealth::Ok => "Ok".to_string(),
        RunHealth::Degraded { failed_steps } => {
            format!("Degraded ({} failed step(s))", failed_steps.len())
        }
        RunHealth::Failed { failed_steps } => {
            format!("Failed ({} failed step(s))", failed_steps.len())
        }
    };
    println!("health:   {health}");
    println!(
        "steps:    {} ok, {} failed, {} poisoned, {} retries ({} backoff tick(s))",
        run.report.executed - run.report.failed,
        run.report.failed,
        run.report.poisoned,
        run.report.retries,
        run.report.backoff_ticks,
    );
    for (id, result) in &run.report.results {
        match result {
            StepResult::Failed(e) => println!("  ✗ {id}: {e}"),
            StepResult::Poisoned { failed_dependencies } => {
                let roots: Vec<&str> =
                    failed_dependencies.iter().map(|d| d.0.as_str()).collect();
                println!("  ⊘ {id}: poisoned by {}", roots.join(", "));
            }
            StepResult::Ok(_) => {}
        }
    }
    if let Some(conflicts) = run
        .report
        .results
        .iter()
        .find(|(id, _)| id.0.contains("detect_moas"))
        .and_then(|(_, r)| r.value())
        .and_then(|v| v.parse::<Vec<bgp_sim::MoasConflict>>().ok())
    {
        println!("moas:     {} conflict(s) still detected", conflicts.len());
    }
}

fn main() {
    println!("degraded forensics: one query, three fault plans");

    let healthy = serve(FaultPlan::empty(), RetryPolicy::default());
    assert_eq!(healthy.health, RunHealth::Ok);
    print_run("healthy: empty fault plan", &healthy);

    let degraded = serve(
        FaultPlan::new(7).with_fault("bgp.valley_violations", FaultKind::Persistent),
        RetryPolicy::default(),
    );
    assert!(degraded.health.is_degraded());
    print_run("degraded: bgp.valley_violations persistently down", &degraded);

    let recovered = serve(
        FaultPlan::new(7).with_fault("bgp.valley_violations", FaultKind::Transient { failures: 2 }),
        RetryPolicy::with_retries(2),
    );
    assert_eq!(recovered.health, RunHealth::Ok);
    print_run("recovered: transient outage absorbed by the retry budget", &recovered);

    println!("\nSame seed, same plan, same report — rerun to verify bit-for-bit.");
}
