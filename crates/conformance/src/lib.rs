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
//! `Cargo.toml` ([`deps`]), inline allow pragmas ([`pragma`]), a rule
//! framework ([`rules`]), a parallel scanner ([`scan`](mod@scan)) and
//! a committed baseline for grandfathered findings ([`baseline`]). CI
//! gates on the binary:
//!
//! ```text
//! cargo run -p conformance -- --deny-new
//! ```
//!
//! The parallel scanner is pinned byte-identical to the serial scan at
//! any worker count: files are sharded across `std::thread::scope`
//! workers and the per-file results folded back in path order.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub mod baseline;
pub mod deps;
pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod scan;
pub mod source;
pub mod syntax;

pub use baseline::{Baseline, BaselineEntry, BaselineOutcome};
pub use rules::{all_rules, FileRule, Finding, Rule, RuleInfo, Sink};
pub use source::SourceFile;

/// The lexed workspace rules run over.
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<Arc<SourceFile>>,
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
            files.push(Arc::new(SourceFile::load(root, &rel)?));
        }
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
            graph: deps::CrateGraph::load(root),
        })
    }

    /// Looks a file up by workspace-relative path.
    pub fn file(&self, rel_path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel_path == rel_path).map(|f| f.as_ref())
    }
}

/// The result of running every rule over a workspace, before the
/// baseline is applied.
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
/// workspace at `root`, serially. [`scan::scan_parallel`] is the
/// sharded equivalent, pinned byte-identical to this.
pub fn scan(root: &Path) -> std::io::Result<Scan> {
    let ws = Workspace::load(root)?;
    Ok(scan_workspace(&ws))
}

/// [`scan()`] over an already-loaded workspace (used by the fixture
/// tests, which assemble workspaces from strings).
pub fn scan_workspace(ws: &Workspace) -> Scan {
    let mut file_findings = Vec::new();
    for file in &ws.files {
        file_findings.extend(scan::check_file(file));
    }
    finish_scan(ws, file_findings)
}

/// The serial tail every scan shares: workspace rules, pragma
/// filtering, pragma hygiene (syntax + unused), deterministic ordering.
/// `file_findings` are the per-file rule findings, in file order.
pub(crate) fn finish_scan(ws: &Workspace, file_findings: Vec<Finding>) -> Scan {
    let mut sink = Sink { findings: file_findings, used_allows: Vec::new() };
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
        // its own: the pragma set is shrink-only, like the baseline.
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
                         shrink-only, like the baseline)",
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

/// The default baseline location, relative to the workspace root.
pub const BASELINE_PATH: &str = "crates/conformance/baseline.json";
