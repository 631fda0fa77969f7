//! Panic-budget rule: per-crate ceilings on panic sites in serving-path
//! code.

use super::{Finding, Rule, SigView, Sink};
use crate::Workspace;

/// The checked-in budget table: serving-path crates and the maximum
/// number of panic sites (`unwrap()`, `expect(...)`, `panic!`,
/// `unreachable!`) allowed in their non-test `src/` code.
///
/// A query that panics kills its session worker; the serving path is
/// supposed to surface `PipelineError`/`ToolError` instead. The budgets
/// grandfather the sites that are genuine invariants (mutex-poisoning
/// propagation in the executor, "validated at registration" lookups) —
/// shrink them as sites are burned down; never raise them without a
/// written justification in the PR.
pub const BUDGETS: [(&str, usize); 11] = [
    // campaign runner: born clean — composition, ensembles and the
    // scorecard reduction all propagate errors; zero slack on purpose.
    ("campaign", 0),
    // telemetry: born clean — the trace recorder sits on every serving
    // path, so a panic here would take down otherwise-healthy queries;
    // zero slack on purpose.
    ("telemetry", 0),
    // fault-injection runtime: zero panic sites today; headroom of 2 for
    // genuine invariants only — injected faults must surface as
    // ToolError, never as panics.
    ("chaos", 2),
    // engine/session/orchestrator/ensemble serving core: the request
    // serializer, the ensemble scope-join slot, the curate-validated
    // registry lookup (PR 6 burned the partial_cmp unwraps down to
    // total_cmp).
    ("core", 3),
    // DAG executor: mutex-poisoning expects + the worker panic relay.
    ("workflow", 7),
    // tool runtime + scenario curation (curated-world expects).
    ("toolkit", 8),
    // Substrates and the registry the tool runtime calls on every serve:
    // zero panic sites today (xaminer's last two, a one-incident `pop`
    // and a just-inserted lookup, became direct code; traceroute's
    // origin lookups fall back to the unrouted trace), so zero slack.
    ("xaminer-sim", 0),
    ("nautilus-sim", 0),
    ("registry", 0),
    ("traceroute-sim", 0),
    // The model's planner and expert serve every query's planning stage:
    // serialization goes straight to the infallible JSON projection and
    // the one-input lookups are `let … else`, so zero slack.
    ("llm", 0),
];

/// `panic-budget`: counts panic sites per budgeted crate and reports
/// crates over their ceiling. Individual sites can be acknowledged with
/// `// conformance: allow(panic-budget, reason = "...")` — consumed
/// pragmas are reported to the [`Sink`] so the unused-pragma check
/// knows they earn their keep.
pub struct PanicBudget;

impl Rule for PanicBudget {
    fn id(&self) -> &'static str {
        "panic-budget"
    }

    fn description(&self) -> &'static str {
        "serving-path crates (campaign, telemetry, chaos, core, workflow, toolkit, \
         xaminer-sim, nautilus-sim, registry, traceroute-sim, llm) have per-crate ceilings \
         on unwrap()/expect()/panic! sites; prefer PipelineError/ToolError propagation"
    }

    fn check(&self, ws: &Workspace, sink: &mut Sink) {
        for (crate_dir, budget) in BUDGETS {
            let prefix = format!("crates/{crate_dir}/src/");
            let mut sites: Vec<(String, u32)> = Vec::new();
            for file in &ws.files {
                if !file.rel_path.starts_with(&prefix) {
                    continue;
                }
                let sig = SigView::new(file);
                for i in 0..sig.len() {
                    if !sig.is_ident(i) || file.is_test_code(sig.offset(i)) {
                        continue;
                    }
                    let is_site = match sig.text(i) {
                        "unwrap" | "expect" => sig.matches(i + 1, &["("]),
                        "panic" | "unreachable" => sig.matches(i + 1, &["!"]),
                        _ => false,
                    };
                    if !is_site {
                        continue;
                    }
                    if file.allowed(self.id(), sig.line(i)) {
                        sink.mark_allow_used(&file.rel_path, self.id(), sig.line(i));
                    } else {
                        sites.push((file.rel_path.clone(), sig.line(i)));
                    }
                }
            }
            if sites.len() > budget {
                let preview: Vec<String> = sites
                    .iter()
                    .take(3)
                    .map(|(f, l)| format!("{f}:{l}"))
                    .collect();
                sink.push(Finding {
                    rule: self.id(),
                    file: format!("crates/{crate_dir}"),
                    line: 0,
                    message: format!(
                        "crate `{crate_dir}`: {} panic sites in serving code exceed the \
                         budget of {budget} (first: {}); return errors or add a \
                         reasoned allow pragma",
                        sites.len(),
                        preview.join(", "),
                    ),
                    snippet: String::new(),
                });
            }
        }
    }
}
