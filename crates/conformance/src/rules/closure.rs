//! Dependency-closure check: the deterministic-crate list is closed
//! under path dependencies.

use crate::deps::{CrateGraph, DepSpec};
use crate::{Finding, DETERMINISTIC_CRATES};

/// The check's rule id.
pub const ID: &str = "deterministic-closure";

/// Where unused-allow-entry findings anchor: this file owns the table.
const SELF_PATH: &str = "crates/conformance/src/rules/closure.rs";

/// Dependency edges out of the deterministic set that are sound anyway,
/// each with a written justification. Member `"*"` covers every
/// deterministic crate. The table is shrink-only: an entry matching no
/// live edge is itself a finding.
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
];

/// `deterministic-closure`: proves from the parsed crate graph that
///
/// 1. every `[dependencies]` edge out of a deterministic crate lands on
///    another deterministic crate or a reasoned `ALLOWED_EDGES` entry;
/// 2. the manifests that inherit the workspace lint table
///    (`[lints] workspace = true`) and [`DETERMINISTIC_CRATES`] agree in
///    both directions;
/// 3. no deterministic crate pulls an external registry dependency;
/// 4. every `ALLOWED_EDGES` entry still matches a live edge.
pub fn check(graph: &CrateGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut push = |file: &str, line: u32, message: String, snippet: String| {
        out.push(Finding { rule: ID, file: file.to_string(), line, message, snippet });
    };

    for err in &graph.errors {
        push(&err.manifest, 0, format!("crate graph: {}", err.message), String::new());
    }

    // 2a. Every list member present in the graph must inherit the lints.
    for name in DETERMINISTIC_CRATES {
        let Some(p) = graph.package(name) else { continue };
        if !p.deterministic {
            push(
                &p.manifest,
                0,
                format!(
                    "`{name}` is in DETERMINISTIC_CRATES but its manifest lacks \
                     `[lints] workspace = true`; the manifests and the list must agree"
                ),
                String::new(),
            );
        }
    }
    // 2b. Every package that inherits the lints must be in the list.
    for p in &graph.packages {
        if p.deterministic && !DETERMINISTIC_CRATES.contains(&p.key.as_str()) {
            push(
                &p.manifest,
                0,
                format!(
                    "`{}` inherits the workspace lints but is absent from \
                     DETERMINISTIC_CRATES, so the line scan would not cover it; add it \
                     to the list (or drop the `[lints]` table)",
                    p.key
                ),
                String::new(),
            );
        }
    }

    // 1 + 3: closure over [dependencies] edges.
    let mut used_entries = vec![false; ALLOWED_EDGES.len()];
    for p in graph.packages.iter().filter(|p| p.deterministic) {
        for dep in &p.deps {
            let Some(dep_key) = &dep.key else {
                if dep.spec == DepSpec::External {
                    push(
                        &p.manifest,
                        dep.line,
                        format!(
                            "deterministic crate `{}` pulls external dependency `{}`: \
                             only path dependencies inside the closure are allowed",
                            p.key, dep.name
                        ),
                        String::new(),
                    );
                }
                continue; // unresolvable paths are already graph errors
            };
            if graph.is_deterministic(dep_key) {
                continue;
            }
            let allowed = ALLOWED_EDGES.iter().position(|(member, target, _)| {
                (*member == "*" || *member == p.key) && *target == dep_key
            });
            match allowed {
                Some(ix) => used_entries[ix] = true,
                None => push(
                    &p.manifest,
                    dep.line,
                    format!(
                        "deterministic crate `{}` depends on `{dep_key}`, which is not \
                         in the deterministic closure; inherit the workspace lints \
                         there, or add a reasoned ALLOWED_EDGES entry",
                        p.key
                    ),
                    String::new(),
                ),
            }
        }
    }

    // 4. Shrink-only allow table: an entry whose member and target both
    // exist in this graph but which matched no edge has rotted. (Fixture
    // workspaces omit most packages, so absent endpoints don't count
    // against an entry.)
    let any_det = graph.packages.iter().any(|p| p.deterministic);
    for (ix, (member, target, _)) in ALLOWED_EDGES.iter().enumerate() {
        let member_present =
            *member == "*" || graph.package(member).is_some_and(|p| p.deterministic);
        let target_present = graph.package(target).is_some();
        if !used_entries[ix] && member_present && target_present && any_det {
            push(
                SELF_PATH,
                0,
                format!(
                    "ALLOWED_EDGES entry (`{member}`, `{target}`) matches no live \
                     dependency edge: the table is shrink-only, so delete the entry",
                ),
                format!("(\"{member}\", \"{target}\")"),
            );
        }
    }
    out
}
