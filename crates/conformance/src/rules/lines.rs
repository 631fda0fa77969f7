//! The line scan: the clauses of the contract that no clippy lint states
//! exactly.
//!
//! It reads each deterministic crate's `src/` files up to the first
//! line-initial `#[cfg(test)]` and skips `//` comment lines. It matches
//! plain substrings, so it cannot tell a string literal from code; the
//! patterns are specific enough that this has not mattered.

use std::path::Path;

use crate::{Finding, DETERMINISTIC_CRATES};

/// One banned pattern.
pub struct Pattern {
    pub rule: &'static str,
    pub needle: &'static str,
    /// Whether the pattern counts only in a file that starts scoped
    /// threads.
    pub threaded_only: bool,
    pub message: &'static str,
}

/// Every pattern, in reporting order.
pub const PATTERNS: [Pattern; 3] = [
    // A `disallowed-methods` entry for `f64::partial_cmp` is silently
    // inert, and one for `PartialOrd::partial_cmp` flags every
    // `#[derive(PartialOrd)]`.
    Pattern {
        rule: "partial-cmp",
        needle: ".partial_cmp(",
        threaded_only: false,
        message: "`.partial_cmp(...)` is not a total order (NaN gives None): use `total_cmp`",
    },
    // A variant, which clippy's method and type bans cannot name.
    Pattern {
        rule: "relaxed-ordering",
        needle: "Ordering::Relaxed",
        threaded_only: false,
        message: "`Ordering::Relaxed` lets atomic reads diverge between runs and \
                  interleavings: use SeqCst",
    },
    // Beside scoped threads, results pushed under a lock land in
    // completion order.
    Pattern {
        rule: "lock-and-push",
        needle: ".lock().push(",
        threaded_only: true,
        message: "lock-and-push accumulates in completion order beside scoped threads: \
                  collect per worker and merge in index order",
    },
];

/// The non-test, non-comment lines of one source file, 1-based.
fn code_lines(text: &str) -> impl Iterator<Item = (u32, &str)> {
    text.lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .enumerate()
        .map(|(ix, line)| (ix as u32 + 1, line))
        .filter(|(_, line)| !line.trim_start().starts_with("//"))
}

/// Scans one file's text. `rel_path` only labels the findings.
pub fn scan_source(rel_path: &str, text: &str) -> Vec<Finding> {
    let threaded = code_lines(text).any(|(_, line)| line.contains("thread::scope"));
    let mut out = Vec::new();
    for (line_no, line) in code_lines(text) {
        let active = PATTERNS.iter().filter(|p| threaded || !p.threaded_only);
        for p in active.filter(|p| line.contains(p.needle)) {
            out.push(Finding {
                rule: p.rule,
                file: rel_path.to_string(),
                line: line_no,
                message: p.message.to_string(),
                snippet: line.trim().to_string(),
            });
        }
    }
    out
}

/// Every `.rs` file under each deterministic crate's `src/`, relative to
/// `root` and sorted. A crate missing from this tree is skipped.
pub fn source_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    for name in DETERMINISTIC_CRATES {
        let dir = format!("crates/{name}/src");
        if root.join(&dir).is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(root: &Path, rel: &str, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(root.join(rel))? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let child = format!("{rel}/{name}");
        if entry.file_type()?.is_dir() {
            walk(root, &child, out)?;
        } else if name.ends_with(".rs") {
            out.push(child);
        }
    }
    Ok(())
}
