//! Dependency-closure rule: the deterministic-crate list is closed
//! under path dependencies.

use super::{Finding, Rule, Sink};
use crate::deps::DepSpec;
use crate::rules::determinism::DETERMINISTIC_CRATES;
use crate::Workspace;

/// Where unused-allow-entry findings anchor: this file owns the table.
const SELF_PATH: &str = "crates/conformance/src/rules/closure.rs";

/// Dependency edges out of the deterministic set that are sound anyway,
/// each with a written justification. Member `"*"` covers every
/// deterministic crate. Like the baseline and the pragma set, this
/// table is shrink-only: an entry matching no live edge is itself a
/// finding.
const ALLOWED_EDGES: &[(&str, &str, &str)] = &[
    (
        "*",
        "vendor/serde",
        "vendored derive stand-in: compile-time codegen only, no iteration order \
         or ambient state at runtime",
    ),
    (
        "*",
        "vendor/serde_json",
        "vendored stand-in whose objects are BTree-ordered, so serialization is \
         canonical by construction",
    ),
    (
        "*",
        "vendor/rand",
        "the vendored StdRng stand-in is the explicit-seed generator all \
         determinism flows from; no entropy source is exposed",
    ),
    (
        "*",
        "vendor/parking_lot",
        "vendored lock stand-in guarding build-once slots and buffers; lock \
         acquisition order never reaches any output",
    ),
    (
        "campaign",
        "core",
        "campaign drives the serving engine; engine outputs are pinned \
         byte-identical dynamically by the campaign_determinism suite at 1/2/8 \
         workers",
    ),
    (
        "campaign",
        "llm",
        "the scripted-LLM planner is a pure function of (prompt, seed); campaign \
         provenance records pin its outputs byte-identical across reruns",
    ),
    (
        "campaign",
        "toolkit",
        "tool invocations flow through the workflow executor, whose 1/2/8-worker \
         invariance suites pin the composed outputs campaign consumes",
    ),
];

/// `deterministic-closure`: proves from the parsed crate graph
/// ([`crate::deps`]) that
///
/// 1. every `[dependencies]` edge out of a deterministic crate lands on
///    another deterministic crate or a reasoned `ALLOWED_EDGES` entry
///    — the `DETERMINISTIC_CRATES` list cannot silently rot;
/// 2. the manifest markers (`[package.metadata.conformance]
///    deterministic = true`) and the `DETERMINISTIC_CRATES` const agree
///    in both directions;
/// 3. no deterministic crate pulls an external registry dependency;
/// 4. every `ALLOWED_EDGES` entry still matches a live edge
///    (shrink-only, like the baseline).
pub struct DeterministicClosure;

impl Rule for DeterministicClosure {
    fn id(&self) -> &'static str {
        "deterministic-closure"
    }

    fn description(&self) -> &'static str {
        "every path dependency of a DETERMINISTIC_CRATES member must itself be \
         deterministic (or a reasoned allow entry), and the manifest markers \
         must agree with the list"
    }

    fn check(&self, ws: &Workspace, sink: &mut Sink) {
        let Some(graph) = &ws.graph else {
            // String-assembled fixture workspaces have no manifests.
            return;
        };

        for err in &graph.errors {
            sink.push(Finding {
                rule: self.id(),
                file: err.manifest.clone(),
                line: 0,
                message: format!("crate graph: {}", err.message),
                snippet: String::new(),
            });
        }

        // 2a. Every list member present in the graph must carry the marker.
        for name in DETERMINISTIC_CRATES {
            let Some(p) = graph.package(name) else { continue };
            if !p.deterministic {
                sink.push(Finding {
                    rule: self.id(),
                    file: p.manifest.clone(),
                    line: 0,
                    message: format!(
                        "`{name}` is in DETERMINISTIC_CRATES but its manifest lacks \
                         `[package.metadata.conformance] deterministic = true`; the \
                         marker and the list must agree"
                    ),
                    snippet: String::new(),
                });
            }
        }
        // 2b. Every marked package must be in the list.
        for p in &graph.packages {
            if p.deterministic && !DETERMINISTIC_CRATES.contains(&p.key.as_str()) {
                sink.push(Finding {
                    rule: self.id(),
                    file: p.manifest.clone(),
                    line: 0,
                    message: format!(
                        "`{}` is marked deterministic in its manifest but absent \
                         from DETERMINISTIC_CRATES, so the token rules would not \
                         cover it; add it to the list (or drop the marker)",
                        p.key
                    ),
                    snippet: String::new(),
                });
            }
        }

        // 1 + 3: closure over [dependencies] edges.
        let mut used_entries = vec![false; ALLOWED_EDGES.len()];
        for p in graph.packages.iter().filter(|p| p.deterministic) {
            for dep in &p.deps {
                let Some(dep_key) = &dep.key else {
                    if dep.spec == DepSpec::External {
                        sink.push(Finding {
                            rule: self.id(),
                            file: p.manifest.clone(),
                            line: dep.line,
                            message: format!(
                                "deterministic crate `{}` pulls external dependency \
                                 `{}`: only path dependencies inside the closure \
                                 are allowed",
                                p.key, dep.name
                            ),
                            snippet: String::new(),
                        });
                    }
                    continue; // unresolvable paths already reported via errors
                };
                if graph.is_deterministic(dep_key) {
                    continue;
                }
                let allowed = ALLOWED_EDGES.iter().position(|(member, target, _)| {
                    (*member == "*" || *member == p.key) && *target == dep_key
                });
                match allowed {
                    Some(ix) => used_entries[ix] = true,
                    None => sink.push(Finding {
                        rule: self.id(),
                        file: p.manifest.clone(),
                        line: dep.line,
                        message: format!(
                            "deterministic crate `{}` depends on `{dep_key}`, which \
                             is not in the deterministic closure; add the marker \
                             there, or a reasoned ALLOWED_EDGES entry",
                            p.key
                        ),
                        snippet: String::new(),
                    }),
                }
            }
        }

        // 4. Shrink-only allow table: an entry whose member and target
        // both exist in this graph but which matched no edge has rotted.
        // (Fixture workspaces omit most packages, so absent endpoints
        // don't count against an entry.)
        for (ix, (member, target, _)) in ALLOWED_EDGES.iter().enumerate() {
            if used_entries[ix] {
                continue;
            }
            let member_present = *member == "*"
                || graph.package(member).is_some_and(|p| p.deterministic);
            let target_present = graph.package(target).is_some();
            let any_det = graph.packages.iter().any(|p| p.deterministic);
            if member_present && target_present && any_det {
                sink.push(Finding {
                    rule: self.id(),
                    file: SELF_PATH.to_string(),
                    line: 0,
                    message: format!(
                        "ALLOWED_EDGES entry (`{member}`, `{target}`) matches no \
                         live dependency edge: the table is shrink-only — delete \
                         the entry",
                    ),
                    snippet: format!("(\"{member}\", \"{target}\")"),
                });
            }
        }
    }
}
