//! # conformance — what the compiler cannot check of the determinism contract
//!
//! The contract lives on the compiler. A root `clippy.toml` bans
//! unordered containers, wall clocks, thread starts and `thread_local!`
//! everywhere, and the root `[workspace.lints]` table denies panics in
//! every crate that opts in with `[lints] workspace = true`. Each
//! exception is one `#[expect(clippy::…, reason = "…")]` at its site, so
//! a stale exception fails the build like a new violation does. CI gates
//! on `cargo clippy --workspace --all-targets -- -D warnings`.
//!
//! This crate checks the two things clippy cannot see:
//!
//! - [`rules::closure`]: the deterministic set is closed under path
//!   dependencies, proved over the manifest graph ([`deps`]);
//! - [`rules::lines`]: three patterns that no lint states exactly
//!   (`.partial_cmp(`, `Ordering::Relaxed`, lock-and-push inside a
//!   threaded file), found by a line scan of the deterministic crates'
//!   non-test sources.
//!
//! The binary runs both and fails on any finding:
//!
//! ```text
//! cargo run -p conformance
//! ```

use std::path::Path;

pub mod deps;
pub mod report;
pub mod rules;

/// Crates whose outputs are pinned byte-identical across runs, platforms
/// and worker counts. Each one inherits the workspace lint table, and
/// the closure check proves the list matches those manifests and is
/// closed under path dependencies.
pub const DETERMINISTIC_CRATES: [&str; 15] = [
    "world",
    "scenario-forge",
    "bgp-sim",
    "workflow",
    "registry",
    "chaos",
    "campaign",
    "telemetry",
    "net-model",
    "core",
    "llm",
    "toolkit",
    "xaminer-sim",
    "nautilus-sim",
    "traceroute-sim",
];

/// One diagnostic: a check violated at a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line, or 0 for a whole manifest.
    pub line: u32,
    pub message: String,
    /// Trimmed source line, shown under the diagnostic.
    pub snippet: String,
}

/// The result of one scan. Any entry in `findings` fails the gate.
pub struct Scan {
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
    /// The crate graph the closure check ran over (`None` when the root
    /// has no `Cargo.toml`).
    pub graph: Option<deps::CrateGraph>,
}

/// Runs the closure check and the line scan over the workspace at
/// `root`, in path order.
pub fn scan(root: &Path) -> std::io::Result<Scan> {
    let graph = deps::CrateGraph::load(root);
    let mut findings = graph.as_ref().map(rules::closure::check).unwrap_or_default();
    let files = rules::lines::source_files(root)?;
    for rel in &files {
        let text = std::fs::read_to_string(root.join(rel))?;
        findings.extend(rules::lines::scan_source(rel, &text));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(Scan { files_scanned: files.len(), findings, graph })
}
