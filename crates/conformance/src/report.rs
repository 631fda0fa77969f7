//! Diagnostic rendering: human-readable text and the JSON artifact CI
//! uploads.

use serde_json::{json, Value};

use crate::deps::CrateGraph;
use crate::rules::{closure, lines};
use crate::{Finding, Scan};

fn finding_json(f: &Finding) -> Value {
    json!({
        "rule": f.rule,
        "file": f.file,
        "line": f.line,
        "message": f.message,
        "snippet": f.snippet,
    })
}

/// The `deps` section: the crate DAG the closure check ran over, and
/// whether the closure held.
fn deps_json(graph: &CrateGraph, findings: &[Finding]) -> Value {
    let packages: Vec<Value> = graph
        .packages
        .iter()
        .map(|p| {
            let path_deps: Vec<&str> = p.deps.iter().filter_map(|d| d.key.as_deref()).collect();
            json!({
                "name": p.key,
                "package": p.package,
                "deterministic": p.deterministic,
                "vendored": p.vendored,
                "manifest": p.manifest,
                "path_deps": path_deps,
            })
        })
        .collect();
    let deterministic: Vec<&str> =
        graph.packages.iter().filter(|p| p.deterministic).map(|p| p.key.as_str()).collect();
    let closure_ok = !findings.iter().any(|f| f.rule == closure::ID);
    json!({
        "packages": packages,
        "deterministic": deterministic,
        "closure_ok": closure_ok,
    })
}

/// The machine-readable report.
pub fn to_json(scan: &Scan) -> Value {
    let checks: Vec<&str> =
        std::iter::once(closure::ID).chain(lines::PATTERNS.iter().map(|p| p.rule)).collect();
    let findings: Vec<Value> = scan.findings.iter().map(finding_json).collect();
    let deps = match &scan.graph {
        Some(graph) => deps_json(graph, &scan.findings),
        None => Value::Null,
    };
    json!({
        "tool": "conformance",
        "checks": checks,
        "summary": {
            "files_scanned": scan.files_scanned,
            "findings": scan.findings.len(),
        },
        "findings": findings,
        "deps": deps,
    })
}

/// The human-readable report printed by the binary.
pub fn render_text(scan: &Scan) -> String {
    let mut out = String::new();
    for f in &scan.findings {
        let loc = if f.line > 0 { format!("{}:{}", f.file, f.line) } else { f.file.clone() };
        out.push_str(&format!("{loc}: [{}] {}\n", f.rule, f.message));
        if !f.snippet.is_empty() {
            out.push_str(&format!("    | {}\n", f.snippet));
        }
    }
    if let Some(graph) = &scan.graph {
        let det = graph.packages.iter().filter(|p| p.deterministic).count();
        out.push_str(&format!(
            "conformance: crate graph: {} packages, {det} deterministic\n",
            graph.packages.len(),
        ));
    }
    out.push_str(&format!(
        "conformance: {} files line-scanned; {} findings\n",
        scan.files_scanned,
        scan.findings.len(),
    ));
    out
}
