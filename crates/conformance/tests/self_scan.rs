//! The workspace scans itself clean — and the gate actually fires when
//! a violation is injected, for every rule class.

use std::path::PathBuf;

use conformance::{scan_workspace, SourceFile, Workspace};

fn workspace_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn workspace_has_zero_findings() {
    let root = workspace_root();
    let scan = conformance::scan(&root).expect("workspace scans");
    assert!(scan.files_scanned > 80, "scanned {} files", scan.files_scanned);
    assert!(conformance::all_rules().len() >= 10);
    assert_eq!(
        scan.findings,
        Vec::new(),
        "the workspace must scan clean: fix the finding or allow it inline with a reason"
    );
}

#[test]
fn workspace_graph_covers_the_deterministic_closure() {
    let root = workspace_root();
    let ws = Workspace::load(&root).expect("workspace loads");
    let graph = ws.graph.as_ref().expect("real workspace has a crate graph");

    // Every DETERMINISTIC_CRATES member exists, carries the manifest
    // marker, and the marked set matches the const exactly.
    let marked: Vec<&str> = graph
        .packages
        .iter()
        .filter(|p| p.deterministic)
        .map(|p| p.key.as_str())
        .collect();
    let mut expected: Vec<&str> =
        conformance::rules::determinism::DETERMINISTIC_CRATES.to_vec();
    expected.sort_unstable();
    assert_eq!(marked, expected, "manifest markers must mirror the const list");

    // The graph resolved real dependency edges (spot-check a few).
    let world = graph.package("world").expect("world in graph");
    assert!(world.deps.iter().any(|d| d.key.as_deref() == Some("net-model")));
    let bench = graph.package("bench").expect("bench in graph");
    assert!(
        bench.deps.iter().any(|d| d.key.as_deref() == Some("arachnet-repro")),
        "bench's `path = \"../..\"` dep resolves to the root package"
    );
    assert!(graph.errors.is_empty(), "manifests parse clean: {:?}", graph.errors);
}

#[test]
fn injected_violation_fails_the_gate() {
    let root = workspace_root();
    let mut ws = Workspace::load(&root).expect("workspace loads");

    // Inject a determinism violation into a pinned crate, exactly as a
    // bad PR would.
    ws.files.push(SourceFile::from_text(
        "crates/world/src/injected.rs",
        "use std::collections::HashMap;\n\
         pub fn drift() -> HashMap<u32, u32> { HashMap::new() }\n\
         pub fn when() -> std::time::Instant { std::time::Instant::now() }\n"
            .to_string(),
    ));

    let scan = scan_workspace(&ws);
    let injected: Vec<_> = scan
        .findings
        .iter()
        .filter(|f| f.file == "crates/world/src/injected.rs")
        .collect();
    assert!(
        injected.iter().any(|f| f.rule == "no-unordered-iteration"),
        "injected HashMap must surface as a finding"
    );
    assert!(
        injected.iter().any(|f| f.rule == "no-wall-clock"),
        "injected Instant must surface as a finding"
    );
}

#[test]
fn injected_float_and_sharing_violations_fail_the_gate() {
    let root = workspace_root();
    let mut ws = Workspace::load(&root).expect("workspace loads");

    ws.files.push(SourceFile::from_text(
        "crates/world/src/injected_v2.rs",
        "pub fn rank(xs: &mut Vec<f64>) {\n\
             xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
         }\n\
         pub fn bucket(intensity: f64) -> usize { (intensity * 8.0) as usize }\n\
         pub static mut COUNTER: u64 = 0;\n\
         use std::sync::atomic::{AtomicU64, Ordering};\n\
         pub fn peek(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n\
         // conformance: allow(no-wall-clock, reason = \"nothing here reads a clock\")\n\
         pub fn idle() {}\n"
            .to_string(),
    ));

    let scan = scan_workspace(&ws);
    let rules_hit: Vec<&str> = scan
        .findings
        .iter()
        .filter(|f| f.file == "crates/world/src/injected_v2.rs")
        .map(|f| f.rule)
        .collect();
    assert!(
        rules_hit.iter().filter(|r| **r == "float-total-order").count() >= 2,
        "partial_cmp and the bare float cast must both surface: {rules_hit:?}"
    );
    assert!(
        rules_hit.iter().filter(|r| **r == "no-shared-mutation").count() >= 2,
        "static mut and Ordering::Relaxed must both surface: {rules_hit:?}"
    );
    assert!(
        rules_hit.contains(&"unused-pragma"),
        "a pragma suppressing nothing must surface: {rules_hit:?}"
    );
}

#[test]
fn injected_closure_violation_fails_the_gate() {
    let root = workspace_root();
    let mut ws = Workspace::load(&root).expect("workspace loads");

    // Grow a nondeterministic dependency onto a deterministic crate —
    // the exact rot the closure rule exists to catch.
    {
        let graph = ws.graph.as_mut().expect("real workspace has a crate graph");
        let world = graph
            .packages
            .iter_mut()
            .find(|p| p.key == "world")
            .expect("world in graph");
        world.deps.push(conformance::deps::Dep {
            name: "baselines".to_string(),
            key: Some("baselines".to_string()),
            spec: conformance::deps::DepSpec::Workspace,
            line: 99,
        });
    }

    let scan = scan_workspace(&ws);
    let closure: Vec<_> = scan
        .findings
        .iter()
        .filter(|f| f.rule == "deterministic-closure")
        .collect();
    assert_eq!(closure.len(), 1, "exactly the injected edge: {closure:?}");
    assert_eq!(closure[0].file, "crates/world/Cargo.toml");
    assert!(closure[0].message.contains("`baselines`"), "{}", closure[0].message);
}

#[test]
fn scan_is_deterministic() {
    let root = workspace_root();
    let a = conformance::scan(&root).expect("scans");
    let b = conformance::scan(&root).expect("scans");
    assert_eq!(a.findings, b.findings);
    assert_eq!(a.allowed, b.allowed);
    assert_eq!(a.files_scanned, b.files_scanned);
    assert_eq!(a.graph, b.graph);
}

#[test]
fn fixture_trees_are_not_part_of_the_workspace_scan() {
    let root = workspace_root();
    let files = conformance::source::collect_files(&root).expect("collects");
    assert!(files.iter().all(|f| !f.contains("/fixtures/")));
    assert!(files.iter().all(|f| !f.starts_with("vendor")));
    assert!(files.contains(&"crates/bgp-sim/src/routing.rs".to_string()));
}
