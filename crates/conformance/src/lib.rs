//! # conformance — workspace static analysis for determinism invariants
//!
//! Every layer of this reproduction stakes correctness on invariants
//! the dynamic suites can only spot-check: bit-identical output at any
//! worker count, pure-function scenario expansion, panic-free serving
//! paths, and dense/reference routing engines that move in lockstep.
//! This crate *proves the source obeys the rules* instead of hoping the
//! 1/2/8-worker suites happened to catch a violation.
//!
//! The engine is self-contained: a hand-rolled lexer ([`lexer`]), a
//! brace-matched item tree over it ([`syntax`]), a file scanner
//! ([`source`]), the crate-dependency graph parsed from every
//! `Cargo.toml` ([`deps`]), inline allow pragmas ([`pragma`]) and a
//! rule framework ([`rules`]). [`scan()`] runs every rule over the
//! workspace, one file after another in path order. CI gates on the
//! binary, which fails on any finding:
//!
//! ```text
//! cargo run -p conformance
//! ```
//!
//! An inline `allow(rule, reason = "...")` pragma is the only per-site
//! exception, and a pragma that suppresses nothing is itself a finding.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

pub mod deps;
pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod source;
pub mod syntax;

pub use rules::{all_rules, FileRule, Finding, Rule, RuleInfo, Sink};
pub use source::SourceFile;

/// The lexed workspace rules run over.
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<SourceFile>,
    /// The crate-dependency DAG parsed from the workspace manifests
    /// (`None` when the root has no `Cargo.toml` — fixture workspaces
    /// assembled from strings).
    pub graph: Option<deps::CrateGraph>,
}

impl Workspace {
    /// Loads and lexes every scannable `.rs` file under `root`, and
    /// parses the crate graph from the manifests.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        for rel in source::collect_files(root)? {
            files.push(SourceFile::load(root, &rel)?);
        }
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
            graph: deps::CrateGraph::load(root),
        })
    }

    /// Looks a file up by workspace-relative path.
    pub fn file(&self, rel_path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel_path == rel_path)
    }
}

/// The result of running every rule over a workspace. Any entry in
/// `findings` fails the gate.
pub struct Scan {
    pub files_scanned: usize,
    /// Findings that survived pragma filtering.
    pub findings: Vec<Finding>,
    /// Findings suppressed by an inline allow pragma.
    pub allowed: Vec<Finding>,
    /// The crate graph the `deterministic-closure` rule ran over
    /// (reported in the JSON artifact's `deps` section).
    pub graph: Option<deps::CrateGraph>,
}

/// Runs every active rule (plus the pragma-hygiene checks) over the
/// workspace at `root`.
pub fn scan(root: &Path) -> std::io::Result<Scan> {
    let ws = Workspace::load(root)?;
    Ok(scan_workspace(&ws))
}

/// [`scan()`] over an already-loaded workspace (used by the fixture
/// tests, which assemble workspaces from strings): the per-file rules
/// in file order, then the workspace rules, pragma filtering, pragma
/// hygiene (syntax + unused) and deterministic ordering.
pub fn scan_workspace(ws: &Workspace) -> Scan {
    let mut sink = Sink::default();
    for file in &ws.files {
        sink.findings.extend(check_file(file));
    }
    for rule in rules::workspace_rules() {
        rule.check(ws, &mut sink);
    }
    let Sink { findings: raw, used_allows } = sink;

    // Pragma filtering. Every pragma that suppresses a finding — or was
    // consumed inside a rule — is "used"; the rest have rotted.
    let mut used: BTreeSet<(String, String, u32)> = used_allows.into_iter().collect();
    let mut findings = Vec::new();
    let mut allowed = Vec::new();
    for finding in raw {
        let suppressed = finding.rule != rules::PRAGMA_SYNTAX
            && ws
                .file(&finding.file)
                .is_some_and(|f| f.allowed(finding.rule, finding.line));
        if suppressed {
            used.insert((finding.file.clone(), finding.rule.to_string(), finding.line));
            allowed.push(finding);
        } else {
            findings.push(finding);
        }
    }

    // Malformed pragmas are findings too — a suppression that silently
    // fails to parse must not silently suppress nothing.
    for file in &ws.files {
        for err in &file.pragma_errors {
            findings.push(Finding {
                rule: rules::PRAGMA_SYNTAX,
                file: file.rel_path.clone(),
                line: err.line,
                message: err.message.clone(),
                snippet: file.line_text(err.line).to_string(),
            });
        }
        // A well-formed pragma that suppresses nothing is a finding of
        // its own: the pragma set is shrink-only.
        // (Neither pragma-syntax nor unused-pragma findings can be
        // pragma-allowed — they are emitted after filtering.)
        for a in &file.allows {
            let key = (file.rel_path.clone(), a.rule.clone(), a.target_line);
            if !used.contains(&key) {
                findings.push(Finding {
                    rule: rules::UNUSED_PRAGMA,
                    file: file.rel_path.clone(),
                    line: a.line,
                    message: format!(
                        "`allow({})` suppresses no finding: the violation it \
                         acknowledged is gone — delete the pragma (pragmas are \
                         shrink-only)",
                        a.rule
                    ),
                    snippet: file.line_text(a.line).to_string(),
                });
            }
        }
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule))
    });
    allowed.sort_by(|a, b| {
        (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule))
    });
    Scan {
        files_scanned: ws.files.len(),
        findings,
        allowed,
        graph: ws.graph.clone(),
    }
}

/// Runs every per-file rule over one parsed file.
fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for rule in rules::file_rules() {
        rule.check_file(file, &mut out);
    }
    out
}
