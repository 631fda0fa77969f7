//! Trace forensics: replaying a degraded serve from its deterministic
//! trace.
//!
//! Serves the CS5 hijack-forensics query with a transient outage on
//! `bgp.valley_violations` behind a tight circuit breaker, with a
//! telemetry [`Recorder`] attached to the engine. The run completes
//! degraded; the trace then tells the whole story without re-running
//! anything: which attempts the fault hit, when the breaker tripped,
//! which calls were shed, and where the half-open probe failed — all on
//! the logical clock, so the same plan produces the same bytes on every
//! machine.
//!
//! The example prints the event taxonomy and the span tree, then writes
//! a Chrome `trace_event` export (load it in `chrome://tracing` or
//! Perfetto) next to your temp directory.
//!
//! ```text
//! cargo run --release --example trace_forensics
//! ```

use std::sync::Arc;

use arachnet::{
    DeterministicExpertModel, Engine, EventKind, FaultKind, FaultPlan, Recorder, RetryPolicy,
    SpanKind,
};
use toolkit::{catalog, scenarios, BreakerConfig, ResilienceConfig};

fn main() {
    println!("trace forensics: one degraded serve, fully replayable from its trace\n");

    let recorder = Arc::new(Recorder::new());
    let engine = Engine::new(
        Arc::new(DeterministicExpertModel::new()),
        catalog::standard_registry(),
    )
    .with_fault_plan(
        FaultPlan::new(7)
            .with_fault("bgp.valley_violations", FaultKind::Transient { failures: 10 }),
    )
    .with_resilience(ResilienceConfig::new(BreakerConfig {
        trip_after: 2,
        cooldown_invocations: 2,
    }))
    .with_retry_policy(RetryPolicy::with_retries(4))
    .with_recorder(Arc::clone(&recorder));

    engine.register_scenario("cs5", scenarios::cs5_hijack_scenario());
    let session = engine.session("cs5").expect("cs5 registered");
    let run = session
        .run(scenarios::CS5_QUERY, &session.context())
        .expect("query serves despite faults");
    println!("health:     {:?}", run.health);
    println!(
        "steps:      {} executed, {} failed, {} retries ({} backoff tick(s))",
        run.report.executed, run.report.failed, run.report.retries, run.report.backoff_ticks
    );

    let trace = recorder.trace();
    println!("\nspan tree ({} spans on the logical clock):", trace.spans.len());
    for span in &trace.spans {
        let depth = match span.kind {
            SpanKind::Session => 0,
            SpanKind::Workflow => 1,
            SpanKind::Step => 2,
            SpanKind::Attempt => 3,
        };
        if depth < 3 || span.name == "bgp.valley_violations" {
            println!(
                "  {}[{:>3}..{:<3}] {} {} ({:?})",
                "  ".repeat(depth),
                span.start,
                span.end,
                span.kind.label(),
                span.name,
                span.status
            );
        }
    }

    println!("\nevent taxonomy:");
    let mut counts: std::collections::BTreeMap<&'static str, usize> =
        std::collections::BTreeMap::new();
    for event in &trace.events {
        *counts.entry(event.kind.label()).or_default() += 1;
    }
    for (label, count) in &counts {
        println!("  {count:>3} × {label}");
    }

    println!("\nbreaker story for bgp.valley_violations:");
    for event in &trace.events {
        match &event.kind {
            EventKind::FaultInjected { function, .. } if function == "bgp.valley_violations" => {
                println!("  t={:<3} fault injected", event.at)
            }
            EventKind::CallShed { function } if function == "bgp.valley_violations" => {
                println!("  t={:<3} call shed (circuit open)", event.at)
            }
            EventKind::BreakerTransition { function, from, to }
                if function == "bgp.valley_violations" =>
            {
                println!("  t={:<3} breaker {from} → {to}", event.at)
            }
            _ => {}
        }
    }

    let snapshot = recorder.metrics_snapshot();
    println!("\nmetrics (events.* counters):");
    for counter in &snapshot.counters {
        if counter.name.starts_with("events.") {
            println!("  {:>3} × {}", counter.value, counter.name);
        }
    }

    let path = std::env::temp_dir().join("trace_forensics.chrome.json");
    std::fs::write(&path, recorder.chrome_trace()).expect("temp dir is writable");
    println!("\ntrace hash:   {:#018x}", recorder.trace_hash());
    println!("chrome trace: {} (open in chrome://tracing or Perfetto)", path.display());
    println!("\nSame plan, same trace bytes — rerun to verify bit-for-bit.");
}
