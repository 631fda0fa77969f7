//! The parallel scanner.
//!
//! File scans (read + lex + item-tree parse + per-file rules) are
//! sharded across `std::thread::scope` workers in contiguous
//! path-order chunks, and the per-shard results are folded back **in
//! path order** — never in completion order — so the scan is
//! bit-identical to the serial one at any worker count (pinned by
//! `tests/scan_determinism.rs` at 1/2/8 workers). Workspace-level rules
//! (panic-budget, paired-engines, deterministic-closure) and pragma
//! hygiene then run serially over the folded result, exactly as in
//! [`crate::scan_workspace`]. Every scan starts cold: nothing is
//! memoized across scans.

use std::path::Path;
use std::sync::Arc;

use crate::rules::{file_rules, Finding};
use crate::source::{collect_files, SourceFile};
use crate::{deps, finish_scan, Scan, Workspace};

/// Runs every per-file rule over one parsed file.
pub(crate) fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for rule in file_rules() {
        rule.check_file(file, &mut out);
    }
    out
}

/// One file's scan: the parsed file and its per-file rule findings.
type FileScan = (Arc<SourceFile>, Vec<Finding>);

/// Scans the workspace at `root` with `workers` threads (`0` = one per
/// available CPU). Bit-identical to [`crate::scan()`] at every worker
/// count.
pub fn scan_parallel(root: &Path, workers: usize) -> std::io::Result<Scan> {
    let rels = collect_files(root)?;
    let workers = effective_workers(workers, rels.len());

    // Shard the sorted path list into contiguous chunks. Each worker
    // owns its output slots; nothing is pushed through a shared lock.
    let mut slots: Vec<Option<std::io::Result<FileScan>>> = Vec::new();
    slots.resize_with(rels.len(), || None);
    let chunk = rels.len().div_ceil(workers).max(1);
    std::thread::scope(|s| {
        for (rel_chunk, out_chunk) in rels.chunks(chunk).zip(slots.chunks_mut(chunk)) {
            s.spawn(move || {
                for (rel, slot) in rel_chunk.iter().zip(out_chunk.iter_mut()) {
                    let scanned = std::fs::read_to_string(root.join(rel)).map(|text| {
                        let file = Arc::new(SourceFile::from_text(rel, text));
                        let findings = check_file(&file);
                        (file, findings)
                    });
                    *slot = Some(scanned);
                }
            });
        }
    });

    // Fold in path order (slot order == sorted path order).
    let mut files = Vec::with_capacity(rels.len());
    let mut file_findings = Vec::new();
    for slot in slots {
        let (file, findings) = slot.expect("every slot filled by its shard")?;
        files.push(file);
        file_findings.extend(findings);
    }

    let ws = Workspace {
        root: root.to_path_buf(),
        files,
        graph: deps::CrateGraph::load(root),
    };
    Ok(finish_scan(&ws, file_findings))
}

/// Resolves a worker count: `0` means one per available CPU, and no
/// point spawning more workers than files.
fn effective_workers(requested: usize, files: usize) -> usize {
    let auto = || {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    };
    let n = if requested == 0 { auto() } else { requested };
    n.clamp(1, files.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_resolution_clamps() {
        assert_eq!(effective_workers(8, 3), 3);
        assert_eq!(effective_workers(2, 100), 2);
        assert_eq!(effective_workers(3, 0), 1);
        assert!(effective_workers(0, 100) >= 1);
    }
}
