//! The parallel scanner is an optimization, not a semantic change: its
//! output is pinned byte-identical to the serial scan at 1, 2 and 8
//! workers and at the per-CPU default.

use std::path::{Path, PathBuf};

use conformance::scan::scan_parallel;
use conformance::{report, Baseline, Scan, BASELINE_PATH};

fn workspace_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// The full observable surface of one scan, rendered: the JSON report
/// and the text report, against the committed baseline.
fn rendered(root: &Path, scan: &Scan) -> (String, String) {
    let baseline = Baseline::load(&root.join(BASELINE_PATH)).expect("baseline loads");
    let outcome = baseline.apply(scan.findings.clone());
    let json = report::to_json(scan, &outcome).to_string();
    let text = report::render_text(scan, &outcome);
    (json, text)
}

#[test]
fn parallel_scan_is_byte_identical_to_serial_at_every_width() {
    let root = workspace_root();
    let serial = conformance::scan(&root).expect("serial scan");
    let serial_rendered = rendered(&root, &serial);

    for workers in [1, 2, 8] {
        let par = scan_parallel(&root, workers).expect("parallel scan");
        assert_eq!(par.findings, serial.findings, "findings differ at {workers} workers");
        assert_eq!(par.allowed, serial.allowed, "allowed differ at {workers} workers");
        assert_eq!(
            par.files_scanned, serial.files_scanned,
            "file count differs at {workers} workers"
        );
        assert_eq!(par.graph, serial.graph, "crate graph differs at {workers} workers");
        assert_eq!(
            rendered(&root, &par),
            serial_rendered,
            "rendered reports differ at {workers} workers"
        );
    }
}

#[test]
fn default_worker_count_matches_serial_too() {
    let root = workspace_root();
    let serial = conformance::scan(&root).expect("serial scan");
    // 0 = one worker per available core, whatever this machine has.
    let par = scan_parallel(&root, 0).expect("parallel scan");
    assert_eq!(par.findings, serial.findings);
    assert_eq!(par.allowed, serial.allowed);
    assert_eq!(par.files_scanned, serial.files_scanned);
}
