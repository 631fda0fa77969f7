//! Resilient serving wrappers: per-function circuit breakers and
//! fallback bindings.
//!
//! A [`ResilientRuntime`] wraps any [`ToolRuntime`] (typically the
//! [`crate::StandardRuntime`], optionally under a chaos injector) and
//! adds two production-serving behaviors:
//!
//! * **circuit breaking** — after `trip_after` consecutive
//!   [`ToolError::Failed`] results from one function, the breaker opens
//!   and subsequent invocations are shed without touching the tool for
//!   `cooldown_invocations` calls; the next call after the cooldown
//!   half-opens the circuit and probes the primary once, closing on
//!   success and re-opening on failure. All state is *counter-based* —
//!   trips, cooldowns and probes advance per invocation, never per
//!   wall-clock second, so breaker behavior is reproducible.
//! * **fallbacks** — a function id can be bound to a substitute (e.g.
//!   `bgp.updates` → `bgp.updates_reference`): when the primary fails or
//!   its circuit is open, the substitute is invoked instead, and the
//!   step carries the substitute's output.
//!
//! Trips, sheds and fallbacks are read back from an attached
//! [`Recorder`] as events and `events.*` counters.
//!
//! Breaker state is per-runtime, and runtimes are built per
//! epoch-pinned session (see `arachnet::Session`): a curated registry
//! swap never leaks breaker counters across epochs, because the new
//! epoch's sessions start with fresh wrappers.
//!
//! Determinism note: counters are shared across worker threads, so the
//! *sequence* of breaker transitions is deterministic for sequential
//! execution (workers = 1) or per-function serialized call patterns.
//! Chaos-suite determinism pins the retry/degradation layers; breaker
//! trip sequences are pinned by their own sequential tests.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use registry::{FunctionId, Registry};
use telemetry::{EventKind, Recorder};
use workflow::exec::{InvokeContext, ToolError, ToolRuntime, Value};

/// Counter-based breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive `Failed` results that open the circuit.
    pub trip_after: u32,
    /// Invocations shed while open before the circuit half-opens.
    pub cooldown_invocations: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { trip_after: 3, cooldown_invocations: 5 }
    }
}

/// Full resilience wiring for a runtime: breaker tuning plus fallback
/// bindings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceConfig {
    pub breaker: BreakerConfig,
    /// primary function id → substitute invoked when the primary fails
    /// or its circuit is open.
    pub fallbacks: BTreeMap<FunctionId, FunctionId>,
}

impl ResilienceConfig {
    pub fn new(breaker: BreakerConfig) -> ResilienceConfig {
        ResilienceConfig { breaker, fallbacks: BTreeMap::new() }
    }

    /// Binds a fallback function.
    pub fn with_fallback(mut self, primary: &str, substitute: &str) -> ResilienceConfig {
        self.fallbacks.insert(FunctionId::from(primary), FunctionId::from(substitute));
        self
    }

    /// Checks every fallback target against a registry epoch, so a
    /// curated registry swap cannot leave bindings pointing at functions
    /// the epoch no longer serves.
    pub fn validate(&self, registry: &Registry) -> Result<(), String> {
        for (primary, substitute) in &self.fallbacks {
            if registry.get(substitute).is_none() {
                return Err(format!(
                    "fallback for {primary} targets {substitute}, which this registry epoch does not define"
                ));
            }
        }
        Ok(())
    }
}

/// Observable breaker phase of one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPhase {
    Closed,
    Open,
    HalfOpen,
}

/// Internal per-function breaker state.
#[derive(Debug, Clone, Copy)]
enum BreakerState {
    Closed { consecutive_failures: u32 },
    Open { remaining_cooldown: u32 },
    HalfOpen,
}

impl BreakerState {
    /// Phase label for telemetry events.
    fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed { .. } => "Closed",
            BreakerState::Open { .. } => "Open",
            BreakerState::HalfOpen => "HalfOpen",
        }
    }
}

/// The wrapper. See the module docs for semantics.
pub struct ResilientRuntime<R> {
    inner: R,
    config: ResilienceConfig,
    breakers: Mutex<BTreeMap<FunctionId, BreakerState>>,
    /// Optional telemetry sink: breaker transitions, sheds and fallback
    /// substitutions become trace events.
    recorder: Option<Arc<Recorder>>,
}

impl<R: ToolRuntime> ResilientRuntime<R> {
    pub fn new(inner: R, config: ResilienceConfig) -> ResilientRuntime<R> {
        ResilientRuntime {
            inner,
            config,
            breakers: Mutex::new(BTreeMap::new()),
            recorder: None,
        }
    }

    /// Attach a telemetry recorder. Events observed during an executor
    /// invocation are buffered per `(step, attempt)` and drained into the
    /// trace by the executor's deterministic fold; events on the
    /// context-free `invoke` path are counted in metrics only. Breaker
    /// transition *sequences* within one step's retry loop are serialized
    /// (one thread) and therefore deterministic — see the module docs for
    /// the cross-step caveat.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> ResilientRuntime<R> {
        self.recorder = Some(recorder);
        self
    }

    /// Buffer (with executor context) or count (without) a trace event.
    fn note(&self, key: Option<(&str, u32)>, kind: EventKind) {
        if let Some(recorder) = &self.recorder {
            match key {
                Some((step, attempt)) => recorder.emit_invocation(step, attempt, kind),
                None => recorder.count_event(&kind),
            }
        }
    }

    /// The wrapped runtime.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// The observable breaker phase of a function (Closed when never
    /// invoked).
    pub fn breaker_phase(&self, function: &FunctionId) -> BreakerPhase {
        match self.breakers.lock().get(function) {
            None | Some(BreakerState::Closed { .. }) => BreakerPhase::Closed,
            Some(BreakerState::Open { .. }) => BreakerPhase::Open,
            Some(BreakerState::HalfOpen) => BreakerPhase::HalfOpen,
        }
    }

    /// Decides, atomically, whether this invocation may reach the
    /// primary. Returns `false` when the circuit is open (the call must
    /// be shed), advancing the cooldown counter as a side effect; the
    /// second element reports an Open→HalfOpen transition for telemetry.
    fn admit(&self, function: &FunctionId) -> (bool, Option<(&'static str, &'static str)>) {
        let mut breakers = self.breakers.lock();
        let state = breakers
            .entry(function.clone())
            .or_insert(BreakerState::Closed { consecutive_failures: 0 });
        match *state {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => (true, None),
            BreakerState::Open { remaining_cooldown } => {
                let transition = if remaining_cooldown <= 1 {
                    *state = BreakerState::HalfOpen;
                    Some(("Open", "HalfOpen"))
                } else {
                    *state = BreakerState::Open { remaining_cooldown: remaining_cooldown - 1 };
                    None
                };
                (false, transition)
            }
        }
    }

    /// Records a primary outcome and advances the breaker, returning the
    /// phase transition (if any) for telemetry.
    fn record(
        &self,
        function: &FunctionId,
        failed: bool,
    ) -> Option<(&'static str, &'static str)> {
        let open = BreakerState::Open {
            remaining_cooldown: self.config.breaker.cooldown_invocations.max(1),
        };
        let mut breakers = self.breakers.lock();
        let state = breakers
            .entry(function.clone())
            .or_insert(BreakerState::Closed { consecutive_failures: 0 });
        let from = state.label();
        *state = match (*state, failed) {
            (BreakerState::Closed { consecutive_failures }, true) => {
                if consecutive_failures + 1 >= self.config.breaker.trip_after {
                    open
                } else {
                    BreakerState::Closed { consecutive_failures: consecutive_failures + 1 }
                }
            }
            (BreakerState::HalfOpen, true) => open,
            (_, false) => BreakerState::Closed { consecutive_failures: 0 },
            (still_open @ BreakerState::Open { .. }, true) => still_open,
        };
        let to = state.label();
        (from != to).then_some((from, to))
    }

    /// The shared serving path: breaker admission, primary invocation,
    /// fallback substitution. `key` is the executor invocation context
    /// (step id, attempt) when available, used to attach telemetry
    /// events to the right attempt span.
    fn dispatch(
        &self,
        key: Option<(&str, u32)>,
        function: &FunctionId,
        call: impl Fn(&R, &FunctionId) -> Result<Value, ToolError>,
    ) -> Result<Value, ToolError> {
        let fallback = self.config.fallbacks.get(function);
        let (admitted, transition) = self.admit(function);
        if let Some((from, to)) = transition {
            self.note(
                key,
                EventKind::BreakerTransition {
                    function: function.to_string(),
                    from: from.to_string(),
                    to: to.to_string(),
                },
            );
        }
        if !admitted {
            self.note(key, EventKind::CallShed { function: function.to_string() });
            if let Some(substitute) = fallback {
                self.note(
                    key,
                    EventKind::FallbackInvoked {
                        function: function.to_string(),
                        substitute: substitute.to_string(),
                    },
                );
                return call(&self.inner, substitute);
            }
            return Err(ToolError::Failed {
                function: function.clone(),
                message: format!(
                    "circuit open after {} consecutive failures; call shed",
                    self.config.breaker.trip_after
                ),
                // The circuit re-closes after the cooldown, so shedding
                // is transient by construction.
                transient: true,
            });
        }
        let primary = call(&self.inner, function);
        let failed = matches!(primary, Err(ToolError::Failed { .. }));
        if let Some((from, to)) = self.record(function, failed) {
            self.note(
                key,
                EventKind::BreakerTransition {
                    function: function.to_string(),
                    from: from.to_string(),
                    to: to.to_string(),
                },
            );
        }
        match (primary, fallback) {
            (Err(ToolError::Failed { .. }), Some(substitute)) => {
                self.note(
                    key,
                    EventKind::FallbackInvoked {
                        function: function.to_string(),
                        substitute: substitute.to_string(),
                    },
                );
                call(&self.inner, substitute)
            }
            (other, _) => other,
        }
    }
}

impl<R: ToolRuntime> ToolRuntime for ResilientRuntime<R> {
    fn invoke(
        &self,
        function: &FunctionId,
        args: &BTreeMap<String, Value>,
    ) -> Result<Value, ToolError> {
        self.dispatch(None, function, |inner, f| inner.invoke(f, args))
    }

    fn invoke_with(
        &self,
        ctx: &InvokeContext<'_>,
        function: &FunctionId,
        args: &BTreeMap<String, Value>,
    ) -> Result<Value, ToolError> {
        self.dispatch(Some((&ctx.step.0, ctx.attempt)), function, |inner, f| {
            inner.invoke_with(ctx, f, args)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use registry::DataFormat;
    use telemetry::{SpanStatus, StepObservation};
    use workflow::StepId;

    /// A runtime with one failing primary and one healthy substitute.
    struct SplitRuntime;

    impl ToolRuntime for SplitRuntime {
        fn invoke(
            &self,
            function: &FunctionId,
            _args: &BTreeMap<String, Value>,
        ) -> Result<Value, ToolError> {
            match function.0.as_str() {
                "t.flaky" => Err(ToolError::Failed {
                    function: function.clone(),
                    message: "down".into(),
                    transient: true,
                }),
                other => Ok(Value::new(DataFormat::Table, serde_json::json!([other]))),
            }
        }
    }

    fn invoke(rt: &impl ToolRuntime, f: &str) -> Result<Value, ToolError> {
        rt.invoke(&FunctionId::from(f), &BTreeMap::new())
    }

    /// A resilient runtime over `inner` reporting into a fresh recorder.
    fn traced<R: ToolRuntime>(
        inner: R,
        config: ResilienceConfig,
    ) -> (ResilientRuntime<R>, Arc<Recorder>) {
        let recorder = Arc::new(Recorder::new());
        (ResilientRuntime::new(inner, config).with_recorder(Arc::clone(&recorder)), recorder)
    }

    /// Invokes `f` as attempt `n` of step `s`, so the recorder buffers the
    /// call's events under that key as it does under the executor.
    fn invoke_at(rt: &impl ToolRuntime, f: &str, n: u32) -> Result<Value, ToolError> {
        let step = StepId::from("s");
        let ctx = InvokeContext { step: &step, attempt: n };
        rt.invoke_with(&ctx, &FunctionId::from(f), &BTreeMap::new())
    }

    /// Folds the buffered attempts `0..calls` of step `s` into the trace,
    /// as the executor's fold does, and counts the breaker trips recorded
    /// so far: transitions into `Open`.
    fn trips(recorder: &Recorder, calls: u32) -> usize {
        recorder.record_workflow(
            "w",
            1,
            &[StepObservation {
                step: "s".into(),
                function: "t".into(),
                invoked: true,
                retries: calls - 1,
                status: SpanStatus::Failed,
                poison_roots: Vec::new(),
            }],
        );
        recorder
            .trace()
            .events
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::BreakerTransition { to, .. } if to == "Open"))
            .count()
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_and_half_opens() {
        let config = ResilienceConfig::new(BreakerConfig { trip_after: 3, cooldown_invocations: 2 });
        let (rt, recorder) = traced(SplitRuntime, config);
        let f = FunctionId::from("t.flaky");
        // Three primary failures trip the circuit.
        for n in 0..3 {
            assert!(invoke_at(&rt, "t.flaky", n).is_err());
        }
        assert_eq!(rt.breaker_phase(&f), BreakerPhase::Open);
        assert_eq!(trips(&recorder, 3), 1);
        // Two shed invocations drain the cooldown...
        assert!(invoke_at(&rt, "t.flaky", 3).is_err());
        assert!(invoke_at(&rt, "t.flaky", 4).is_err());
        assert_eq!(recorder.metrics_snapshot().counter("events.call_shed"), 2);
        // ...then the next call half-opens and probes the (still broken)
        // primary, re-opening the circuit.
        assert_eq!(rt.breaker_phase(&f), BreakerPhase::HalfOpen);
        assert!(invoke_at(&rt, "t.flaky", 5).is_err());
        assert_eq!(rt.breaker_phase(&f), BreakerPhase::Open);
        assert_eq!(trips(&recorder, 6), 2);
    }

    #[test]
    fn half_open_probe_success_closes_the_circuit() {
        use std::sync::atomic::{AtomicBool, Ordering};
        struct Recovering {
            healthy: AtomicBool,
        }
        impl ToolRuntime for Recovering {
            fn invoke(
                &self,
                function: &FunctionId,
                _args: &BTreeMap<String, Value>,
            ) -> Result<Value, ToolError> {
                if self.healthy.load(Ordering::SeqCst) {
                    Ok(Value::new(DataFormat::Scalar, serde_json::json!(1)))
                } else {
                    Err(ToolError::Failed {
                        function: function.clone(),
                        message: "down".into(),
                        transient: true,
                    })
                }
            }
        }
        let config = ResilienceConfig::new(BreakerConfig { trip_after: 2, cooldown_invocations: 1 });
        let rt = ResilientRuntime::new(Recovering { healthy: AtomicBool::new(false) }, config);
        let f = FunctionId::from("t.svc");
        assert!(invoke(&rt, "t.svc").is_err());
        assert!(invoke(&rt, "t.svc").is_err());
        assert_eq!(rt.breaker_phase(&f), BreakerPhase::Open);
        // Service recovers while the circuit is open.
        rt.inner().healthy.store(true, Ordering::SeqCst);
        assert!(invoke(&rt, "t.svc").is_err(), "cooldown invocation is still shed");
        assert_eq!(rt.breaker_phase(&f), BreakerPhase::HalfOpen);
        assert!(invoke(&rt, "t.svc").is_ok(), "half-open probe reaches the primary");
        assert_eq!(rt.breaker_phase(&f), BreakerPhase::Closed);
    }

    #[test]
    fn fallback_substitutes_on_failure_and_while_open() {
        let config = ResilienceConfig::new(BreakerConfig { trip_after: 2, cooldown_invocations: 8 })
            .with_fallback("t.flaky", "t.reference");
        let (rt, recorder) = traced(SplitRuntime, config);
        // Primary fails → fallback output is served, call still counts
        // toward the trip.
        let first = invoke(&rt, "t.flaky").unwrap();
        assert_eq!(first.json(), &serde_json::json!(["t.reference"]));
        let second = invoke(&rt, "t.flaky").unwrap();
        assert_eq!(second.json(), &serde_json::json!(["t.reference"]));
        assert_eq!(rt.breaker_phase(&FunctionId::from("t.flaky")), BreakerPhase::Open);
        // While open, the primary is never touched but the fallback still
        // serves.
        let shed = invoke(&rt, "t.flaky").unwrap();
        assert_eq!(shed.json(), &serde_json::json!(["t.reference"]));
        let metrics = recorder.metrics_snapshot();
        assert_eq!(metrics.counter("events.call_shed"), 1);
        assert_eq!(metrics.counter("events.fallback_invoked"), 3);
    }

    #[test]
    fn non_failure_errors_do_not_trip_the_breaker() {
        struct BadArgs;
        impl ToolRuntime for BadArgs {
            fn invoke(
                &self,
                function: &FunctionId,
                _args: &BTreeMap<String, Value>,
            ) -> Result<Value, ToolError> {
                Err(ToolError::BadArgument { function: function.clone(), message: "no".into() })
            }
        }
        let config = ResilienceConfig::new(BreakerConfig { trip_after: 1, cooldown_invocations: 1 });
        let (rt, recorder) = traced(BadArgs, config);
        for n in 0..4 {
            assert!(matches!(invoke_at(&rt, "t.x", n), Err(ToolError::BadArgument { .. })));
        }
        assert_eq!(rt.breaker_phase(&FunctionId::from("t.x")), BreakerPhase::Closed);
        assert_eq!(trips(&recorder, 4), 0);
    }

    #[test]
    fn validate_rejects_unknown_fallback_targets() {
        let registry = crate::standard_registry();
        let ok = ResilienceConfig::default().with_fallback("bgp.updates", "bgp.detect_moas");
        assert!(ok.validate(&registry).is_ok());
        let bad = ResilienceConfig::default().with_fallback("bgp.updates", "no.such_function");
        assert!(bad.validate(&registry).is_err());
    }
}
