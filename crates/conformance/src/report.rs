//! Diagnostic rendering: human-readable text and the JSON artifact CI
//! uploads.

use serde_json::{json, Value};

use crate::deps::CrateGraph;
use crate::rules::{all_rules, Finding};
use crate::Scan;

fn finding_json(f: &Finding) -> Value {
    json!({
        "rule": f.rule,
        "file": f.file,
        "line": f.line,
        "message": f.message,
        "snippet": f.snippet,
    })
}

/// The `deps` section: the crate DAG the `deterministic-closure` rule
/// ran over, and whether the closure held.
fn deps_json(graph: &CrateGraph, findings: &[Finding]) -> Value {
    let packages: Vec<Value> = graph
        .packages
        .iter()
        .map(|p| {
            let path_deps: Vec<&str> = p
                .deps
                .iter()
                .filter_map(|d| d.key.as_deref())
                .collect();
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
    let deterministic: Vec<&str> = graph
        .packages
        .iter()
        .filter(|p| p.deterministic)
        .map(|p| p.key.as_str())
        .collect();
    let closure_ok =
        !findings.iter().any(|f| f.rule == "deterministic-closure");
    json!({
        "packages": packages,
        "deterministic": deterministic,
        "closure_ok": closure_ok,
    })
}

/// The machine-readable report (uploaded as a CI artifact alongside the
/// BENCH trajectory files).
pub fn to_json(scan: &Scan) -> Value {
    let rules: Vec<Value> = all_rules()
        .iter()
        .map(|r| {
            let id = r.id;
            let description = r.description;
            json!({ "id": id, "description": description })
        })
        .collect();
    let files_scanned = scan.files_scanned;
    let findings_count = scan.findings.len();
    let allowed_count = scan.allowed.len();
    let summary = json!({
        "files_scanned": files_scanned,
        "findings": findings_count,
        "allowed": allowed_count,
    });
    let findings: Vec<Value> = scan.findings.iter().map(finding_json).collect();
    let allowed: Vec<Value> = scan.allowed.iter().map(finding_json).collect();
    let deps = match &scan.graph {
        Some(graph) => deps_json(graph, &scan.findings),
        None => Value::Null,
    };
    json!({
        "tool": "conformance",
        "rules": rules,
        "summary": summary,
        "findings": findings,
        "allowed": allowed,
        "deps": deps,
    })
}

fn render_finding(f: &Finding) -> String {
    let loc = if f.line > 0 {
        format!("{}:{}", f.file, f.line)
    } else {
        f.file.clone()
    };
    let mut line = format!("{loc}: [{}] {}", f.rule, f.message);
    if !f.snippet.is_empty() {
        line.push_str(&format!("\n    | {}", f.snippet));
    }
    line
}

/// The human-readable report printed by the binary.
pub fn render_text(scan: &Scan) -> String {
    let mut out = String::new();
    for f in &scan.findings {
        out.push_str(&render_finding(f));
        out.push('\n');
    }
    if let Some(graph) = &scan.graph {
        let det = graph.packages.iter().filter(|p| p.deterministic).count();
        out.push_str(&format!(
            "conformance: crate graph: {} packages, {} deterministic\n",
            graph.packages.len(),
            det,
        ));
    }
    out.push_str(&format!(
        "conformance: {} files scanned, {} rules active; {} findings, {} allowed by pragma\n",
        scan.files_scanned,
        all_rules().len(),
        scan.findings.len(),
        scan.allowed.len(),
    ));
    out
}
