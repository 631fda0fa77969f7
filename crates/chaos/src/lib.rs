//! # chaos — deterministic fault injection for workflow runtimes
//!
//! The resilience machinery in `workflow::exec` (retries, degradation)
//! and `toolkit` (circuit breakers, fallbacks) is only testable if the
//! failures it guards against can be produced *on demand and
//! reproducibly*. This crate provides that: a seeded, logical-time
//! [`FaultPlan`] and a [`ChaosRuntime`] wrapper that injects the planned
//! faults into any [`ToolRuntime`].
//!
//! Everything is a pure function of `(seed, function_id, invocation
//! key)` — no `Instant`, no thread rng, no wall clock — so a chaos run
//! is bit-identical across reruns and across executor worker counts:
//!
//! * scheduled faults key on the *function id* and the *attempt index*
//!   the executor hands down via [`InvokeContext`], never on arrival
//!   order;
//! * background faults hash `(seed, function, step, attempt)` through a
//!   splitmix64-style mixer and compare against a parts-per-million
//!   threshold;
//! * slow-step costs are logical ticks carried by `SlowTicks` events on
//!   an attached [`Recorder`] (the layer's one record of what it did),
//!   not sleeps.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use registry::{DataFormat, FunctionId};
use telemetry::{EventKind, Recorder};
use workflow::exec::{InvokeContext, ToolError, ToolRuntime, Value};

/// What kind of fault a function is scheduled to exhibit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The first `failures` attempts of every invocation fail with
    /// `transient: true`; attempt `failures` onward succeeds. A retry
    /// budget of at least `failures` rides through this fault.
    Transient { failures: u32 },
    /// Every invocation fails with `transient: false` — retries are
    /// pointless, only degradation or a fallback helps.
    Persistent,
    /// The inner tool runs, but its output is replaced with a malformed
    /// text payload — exercising the woven-in QA format check and
    /// downstream argument validation.
    Corrupt,
    /// The invocation succeeds but charges `ticks` logical ticks, reported
    /// in a `SlowTicks` telemetry event (a logical-time stand-in for a
    /// slow tool; no wall-clock sleep is ever performed).
    Slow { ticks: u64 },
}

/// A seeded, deterministic fault schedule.
///
/// Per-function faults fire on every invocation of that function;
/// background faults fire pseudo-randomly (but reproducibly) across all
/// functions at a parts-per-million rate derived from the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for background-fault hashing.
    pub seed: u64,
    /// function id → scheduled fault.
    pub faults: BTreeMap<FunctionId, FaultKind>,
    /// Background transient-failure rate, in failures per million
    /// invocations (0 disables background faults).
    pub background_failure_ppm: u32,
}

impl FaultPlan {
    /// An empty plan: no faults at all. Wrapping a runtime with an empty
    /// plan must be behaviorally identical to the bare runtime.
    pub fn empty() -> FaultPlan {
        FaultPlan::new(0)
    }

    /// A plan with a seed and no scheduled faults.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, faults: BTreeMap::new(), background_failure_ppm: 0 }
    }

    /// Schedules a fault for a function.
    pub fn with_fault(mut self, function: &str, kind: FaultKind) -> FaultPlan {
        self.faults.insert(FunctionId::from(function), kind);
        self
    }

    /// Enables background transient failures at `ppm` per million.
    pub fn with_background_failures(mut self, ppm: u32) -> FaultPlan {
        self.background_failure_ppm = ppm;
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.background_failure_ppm == 0
    }

    /// Whether a background fault fires for this invocation key. Pure
    /// function of the plan seed and the key — identical across worker
    /// counts and reruns.
    fn background_fires(&self, function: &FunctionId, salt: &str, attempt: u32) -> bool {
        if self.background_failure_ppm == 0 {
            return false;
        }
        let mut h = mix(self.seed ^ 0x0063_6861_6f73); // "chaos"
        h = fold(h, function.0.as_bytes());
        h = fold(h, salt.as_bytes());
        h = mix(h ^ u64::from(attempt));
        h % 1_000_000 < u64::from(self.background_failure_ppm)
    }
}

/// splitmix64 finalizer: cheap, well-distributed, dependency-free.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e9b5);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds bytes into a hash state through the mixer.
fn fold(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |acc, &b| mix(acc ^ u64::from(b)))
}

/// Wraps any [`ToolRuntime`] and injects the faults a [`FaultPlan`]
/// schedules.
///
/// Under the executor (which always calls [`ToolRuntime::invoke_with`]),
/// injection keys on `(step, attempt)` and is therefore bit-identical at
/// any worker count. The plain [`ToolRuntime::invoke`] path keeps a
/// per-function invocation counter instead — deterministic for
/// sequential callers, which is what direct invocation is.
pub struct ChaosRuntime<R> {
    inner: R,
    plan: FaultPlan,
    /// Invocation counters for the context-free `invoke` path.
    counters: Mutex<BTreeMap<FunctionId, u32>>,
    /// Optional telemetry sink: injection decisions become trace events.
    recorder: Option<Arc<Recorder>>,
}

impl<R: ToolRuntime> ChaosRuntime<R> {
    pub fn new(inner: R, plan: FaultPlan) -> ChaosRuntime<R> {
        ChaosRuntime {
            inner,
            plan,
            counters: Mutex::new(BTreeMap::new()),
            recorder: None,
        }
    }

    /// Attach a telemetry recorder: every injection decision is buffered
    /// as a trace event keyed by `(step, attempt)` — deterministic,
    /// because injection itself is a pure function of that key.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> ChaosRuntime<R> {
        self.recorder = Some(recorder);
        self
    }

    /// The wrapped runtime.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// The active plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Buffer a trace event for the invocation `(salt, attempt)` when the
    /// call has executor context, or just count it when it does not.
    fn note(&self, has_context: bool, salt: &str, attempt: u32, kind: EventKind) {
        if let Some(recorder) = &self.recorder {
            if has_context {
                recorder.emit_invocation(salt, attempt, kind);
            } else {
                recorder.count_event(&kind);
            }
        }
    }

    fn injected_failure(&self, function: &FunctionId, transient: bool) -> ToolError {
        let flavor = if transient { "transient" } else { "persistent" };
        ToolError::Failed {
            function: function.clone(),
            message: format!("chaos: injected {flavor} failure"),
            transient,
        }
    }

    /// The shared injection path. `salt` distinguishes invocation sites
    /// (step id under the executor, synthetic counter otherwise);
    /// `attempt` is the retry attempt for scheduled transient faults.
    fn dispatch(
        &self,
        has_context: bool,
        salt: &str,
        attempt: u32,
        function: &FunctionId,
        args: &BTreeMap<String, Value>,
        call: impl FnOnce(&R) -> Result<Value, ToolError>,
    ) -> Result<Value, ToolError> {
        let _ = args;
        match self.plan.faults.get(function) {
            Some(FaultKind::Transient { failures }) if attempt < *failures => {
                self.note(
                    has_context,
                    salt,
                    attempt,
                    EventKind::FaultInjected { function: function.to_string(), transient: true },
                );
                return Err(self.injected_failure(function, true));
            }
            Some(FaultKind::Persistent) => {
                self.note(
                    has_context,
                    salt,
                    attempt,
                    EventKind::FaultInjected { function: function.to_string(), transient: false },
                );
                return Err(self.injected_failure(function, false));
            }
            Some(FaultKind::Corrupt) => {
                let _ = call(&self.inner)?;
                self.note(
                    has_context,
                    salt,
                    attempt,
                    EventKind::OutputCorrupted { function: function.to_string() },
                );
                return Ok(Value::new(
                    DataFormat::Text,
                    serde_json::json!(format!("chaos: corrupted output of {function}")),
                ));
            }
            Some(FaultKind::Slow { ticks }) => {
                self.note(
                    has_context,
                    salt,
                    attempt,
                    EventKind::SlowTicks { function: function.to_string(), ticks: *ticks },
                );
            }
            Some(FaultKind::Transient { .. }) | None => {}
        }
        if self.plan.background_fires(function, salt, attempt) {
            self.note(
                has_context,
                salt,
                attempt,
                EventKind::FaultInjected { function: function.to_string(), transient: true },
            );
            return Err(self.injected_failure(function, true));
        }
        call(&self.inner)
    }
}

impl<R: ToolRuntime> ToolRuntime for ChaosRuntime<R> {
    fn invoke(
        &self,
        function: &FunctionId,
        args: &BTreeMap<String, Value>,
    ) -> Result<Value, ToolError> {
        let index = {
            let mut counters = self.counters.lock();
            let slot = counters.entry(function.clone()).or_insert(0);
            let index = *slot;
            *slot += 1;
            index
        };
        self.dispatch(false, &format!("#{index}"), index, function, args, |inner| {
            inner.invoke(function, args)
        })
    }

    fn invoke_with(
        &self,
        ctx: &InvokeContext<'_>,
        function: &FunctionId,
        args: &BTreeMap<String, Value>,
    ) -> Result<Value, ToolError> {
        self.dispatch(true, &ctx.step.0, ctx.attempt, function, args, |inner| {
            inner.invoke_with(ctx, function, args)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::{SpanStatus, StepObservation};
    use workflow::StepId;

    struct EchoRuntime;

    impl ToolRuntime for EchoRuntime {
        fn invoke(
            &self,
            function: &FunctionId,
            _args: &BTreeMap<String, Value>,
        ) -> Result<Value, ToolError> {
            Ok(Value::new(DataFormat::Table, serde_json::json!([function.0.as_str()])))
        }
    }

    fn ctx(step: &StepId, attempt: u32) -> InvokeContext<'_> {
        InvokeContext { step, attempt }
    }

    /// A chaos runtime over [`EchoRuntime`] reporting into a fresh
    /// recorder.
    fn traced(plan: FaultPlan) -> (ChaosRuntime<EchoRuntime>, Arc<Recorder>) {
        let recorder = Arc::new(Recorder::new());
        (ChaosRuntime::new(EchoRuntime, plan).with_recorder(Arc::clone(&recorder)), recorder)
    }

    #[test]
    fn empty_plan_passes_through() {
        let (rt, recorder) = traced(FaultPlan::empty());
        let step = StepId::from("s");
        let out = rt.invoke_with(&ctx(&step, 0), &FunctionId::from("f.x"), &BTreeMap::new());
        assert!(out.is_ok());
        assert!(recorder.metrics_snapshot().is_empty(), "a pass-through records nothing");
    }

    #[test]
    fn transient_fault_clears_after_scheduled_failures() {
        let plan = FaultPlan::new(7).with_fault("f.x", FaultKind::Transient { failures: 2 });
        let (rt, recorder) = traced(plan);
        let step = StepId::from("s");
        let f = FunctionId::from("f.x");
        for attempt in 0..2 {
            let err = rt.invoke_with(&ctx(&step, attempt), &f, &BTreeMap::new());
            assert!(
                matches!(err, Err(ToolError::Failed { transient: true, .. })),
                "attempt {attempt} must fail transiently"
            );
        }
        assert!(rt.invoke_with(&ctx(&step, 2), &f, &BTreeMap::new()).is_ok());
        assert_eq!(recorder.metrics_snapshot().counter("events.fault_injected"), 2);
    }

    #[test]
    fn persistent_fault_never_clears() {
        let plan = FaultPlan::new(7).with_fault("f.x", FaultKind::Persistent);
        let rt = ChaosRuntime::new(EchoRuntime, plan);
        let step = StepId::from("s");
        for attempt in [0, 5, 50] {
            let err = rt.invoke_with(&ctx(&step, attempt), &FunctionId::from("f.x"), &BTreeMap::new());
            assert!(matches!(err, Err(ToolError::Failed { transient: false, .. })));
        }
        // Other functions are untouched.
        assert!(rt.invoke_with(&ctx(&step, 0), &FunctionId::from("f.y"), &BTreeMap::new()).is_ok());
    }

    #[test]
    fn corrupt_fault_yields_malformed_text() {
        let plan = FaultPlan::new(7).with_fault("f.x", FaultKind::Corrupt);
        let (rt, recorder) = traced(plan);
        let step = StepId::from("s");
        let out = rt.invoke_with(&ctx(&step, 0), &FunctionId::from("f.x"), &BTreeMap::new()).unwrap();
        assert_eq!(out.format, DataFormat::Text);
        assert_eq!(recorder.metrics_snapshot().counter("events.output_corrupted"), 1);
    }

    #[test]
    fn slow_fault_charges_logical_ticks_only() {
        let plan = FaultPlan::new(7).with_fault("f.x", FaultKind::Slow { ticks: 40 });
        let (rt, recorder) = traced(plan);
        let step = StepId::from("s");
        let f = FunctionId::from("f.x");
        assert!(rt.invoke_with(&ctx(&step, 0), &f, &BTreeMap::new()).is_ok());
        assert!(rt.invoke_with(&ctx(&step, 0), &f, &BTreeMap::new()).is_ok());
        // Fold the buffered attempt into the trace, as the executor does.
        recorder.record_workflow(
            "w",
            1,
            &[StepObservation {
                step: "s".into(),
                function: "f.x".into(),
                invoked: true,
                retries: 0,
                status: SpanStatus::Ok,
                poison_roots: Vec::new(),
            }],
        );
        let ticks: u64 = recorder
            .trace()
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::SlowTicks { ticks, .. } => ticks,
                _ => 0,
            })
            .sum();
        assert_eq!(ticks, 80);
    }

    #[test]
    fn background_faults_are_a_pure_function_of_the_key() {
        let plan = FaultPlan::new(42).with_background_failures(250_000);
        let step_a = StepId::from("a");
        let f = FunctionId::from("f.x");
        // Same key → same verdict, across fresh runtimes.
        let first: Vec<bool> = (0..64)
            .map(|i| {
                let rt = ChaosRuntime::new(EchoRuntime, plan.clone());
                rt.invoke_with(&ctx(&step_a, i), &f, &BTreeMap::new()).is_ok()
            })
            .collect();
        let second: Vec<bool> = (0..64)
            .map(|i| {
                let rt = ChaosRuntime::new(EchoRuntime, plan.clone());
                rt.invoke_with(&ctx(&step_a, i), &f, &BTreeMap::new()).is_ok()
            })
            .collect();
        assert_eq!(first, second);
        // At 25% ppm over 64 keys, both outcomes should occur.
        assert!(first.iter().any(|ok| *ok));
        assert!(first.iter().any(|ok| !*ok));
        // A different seed draws a different schedule.
        let other = FaultPlan::new(43).with_background_failures(250_000);
        let third: Vec<bool> = (0..64)
            .map(|i| {
                let rt = ChaosRuntime::new(EchoRuntime, other.clone());
                rt.invoke_with(&ctx(&step_a, i), &f, &BTreeMap::new()).is_ok()
            })
            .collect();
        assert_ne!(first, third);
    }

    #[test]
    fn context_free_invoke_counts_invocations() {
        let plan = FaultPlan::new(7).with_fault("f.x", FaultKind::Transient { failures: 1 });
        let rt = ChaosRuntime::new(EchoRuntime, plan);
        let f = FunctionId::from("f.x");
        assert!(rt.invoke(&f, &BTreeMap::new()).is_err(), "first invocation fails");
        assert!(rt.invoke(&f, &BTreeMap::new()).is_ok(), "counter advances past the fault");
    }
}
