//! The workspace scans itself clean, the lint contract is wired up as
//! documented, and the gate fires when a violation is injected.

use std::path::{Path, PathBuf};

use conformance::rules::{closure, lines};
use conformance::{deps, Finding, DETERMINISTIC_CRATES};

fn workspace_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures")).join(name)
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(workspace_root().join(rel)).expect("workspace file reads")
}

/// `key = value` pairs of one `[section]` of a TOML file, quotes kept.
fn toml_section(text: &str, section: &str) -> Vec<(String, String)> {
    let header = format!("[{section}]");
    let mut inside = false;
    let mut out = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == header;
        } else if let (true, Some((k, v))) = (inside, line.split_once('=')) {
            out.push((k.trim().to_string(), v.trim().to_string()));
        }
    }
    out
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn workspace_has_zero_findings() {
    let scan = conformance::scan(&workspace_root()).expect("workspace scans");
    assert!(scan.files_scanned > 80, "scanned {} files", scan.files_scanned);
    assert_eq!(scan.findings, Vec::new(), "the workspace must scan clean: fix the finding");
}

#[test]
fn workspace_graph_covers_the_deterministic_closure() {
    let graph =
        deps::CrateGraph::load(&workspace_root()).expect("real workspace has a crate graph");

    // The packages that inherit the workspace lints are exactly the list.
    let marked: Vec<&str> =
        graph.packages.iter().filter(|p| p.deterministic).map(|p| p.key.as_str()).collect();
    let mut expected = DETERMINISTIC_CRATES.to_vec();
    expected.sort_unstable();
    assert_eq!(marked, expected, "`[lints] workspace = true` must mirror the list");

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
fn deterministic_manifests_inherit_the_workspace_lints() {
    for name in DETERMINISTIC_CRATES {
        let manifest = read(&format!("crates/{name}/Cargo.toml"));
        let lints = toml_section(&manifest, "lints");
        assert_eq!(
            lints,
            [("workspace".to_string(), "true".to_string())],
            "crates/{name}/Cargo.toml must inherit the workspace lints"
        );
    }
    // The crates outside the contract keep clippy's default levels.
    for dir in ["crates/bench", "crates/baselines", "crates/conformance", "."] {
        let manifest = read(&format!("{dir}/Cargo.toml"));
        assert!(toml_section(&manifest, "lints").is_empty(), "{dir} inherits the lints");
    }
}

#[test]
fn workspace_lints_deny_the_contract() {
    let root = read("Cargo.toml");
    let rust = toml_section(&root, "workspace.lints.rust");
    assert!(rust.contains(&("unsafe_code".to_string(), "\"forbid\"".to_string())), "{rust:?}");
    let clippy = toml_section(&root, "workspace.lints.clippy");
    for lint in [
        "unwrap_used",
        "expect_used",
        "panic",
        "unreachable",
        "allow_attributes",
        "allow_attributes_without_reason",
        "disallowed_types",
        "disallowed_methods",
        "disallowed_macros",
    ] {
        assert!(
            clippy.contains(&(lint.to_string(), "\"deny\"".to_string())),
            "[workspace.lints.clippy] must deny {lint}: {clippy:?}"
        );
    }
}

#[test]
fn clippy_toml_bans_each_path() {
    let config = read("clippy.toml");
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::Instant",
        "std::time::SystemTime",
        "std::thread::spawn",
        "std::thread::scope",
        "std::thread::available_parallelism",
        "std::thread_local",
    ] {
        assert!(config.contains(&format!("path = \"{path}\"")), "clippy.toml must ban {path}");
    }
    for knob in ["allow-unwrap-in-tests", "allow-expect-in-tests", "allow-panic-in-tests"] {
        assert!(config.contains(&format!("{knob} = true")), "clippy.toml must set {knob}");
    }
}

#[test]
fn partial_cmp_pattern_fixture() {
    let text = "pub fn rank(xs: &mut [f64]) {\n\
                    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
                }\n\
                // a.partial_cmp(b) in a comment is not code\n\
                impl PartialOrd for X {\n\
                    fn partial_cmp(&self, o: &X) -> Option<Ordering> { Some(self.cmp(o)) }\n\
                }\n\
                #[cfg(test)]\n\
                mod tests { fn f(a: f64, b: f64) { a.partial_cmp(&b); } }\n";
    let found = lines::scan_source("crates/world/src/x.rs", text);
    assert_eq!(rules_of(&found), ["partial-cmp"], "{found:#?}");
    assert_eq!(found[0].line, 2);
}

#[test]
fn relaxed_ordering_pattern_fixture() {
    let text = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                pub fn peek(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n\
                pub fn seq(c: &AtomicU64) -> u64 { c.load(Ordering::SeqCst) }\n\
                    /// `Ordering::Relaxed` in a doc comment is not code\n\
                #[cfg(test)]\n\
                mod tests { fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); } }\n";
    let found = lines::scan_source("crates/world/src/x.rs", text);
    assert_eq!(rules_of(&found), ["relaxed-ordering"], "{found:#?}");
    assert_eq!(found[0].line, 2);
}

#[test]
fn lock_and_push_pattern_fixture() {
    let body = "pub fn record(log: &Mutex<Vec<u32>>, x: u32) {\n\
                    log.lock().push(x);\n\
                }\n";
    // Without threads in the file, a lock-and-push keeps the caller's order.
    assert_eq!(lines::scan_source("crates/llm/src/x.rs", body), Vec::new());
    let threaded = format!("{body}pub fn fan_out() {{ std::thread::scope(|_| {{}}); }}\n");
    let found = lines::scan_source("crates/campaign/src/x.rs", &threaded);
    assert_eq!(rules_of(&found), ["lock-and-push"], "{found:#?}");
    assert_eq!(found[0].line, 2);
    // Threads started only in test code do not count.
    let test_threads = format!("{body}#[cfg(test)]\nfn t() {{ std::thread::scope(|_| {{}}); }}\n");
    assert_eq!(lines::scan_source("crates/campaign/src/x.rs", &test_threads), Vec::new());
}

/// Copies `fixture/<name>` into a fresh directory under the test's
/// scratch space, so a test can plant a file in it.
fn scratch_copy(name: &str) -> PathBuf {
    fn copy(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).expect("scratch dir");
        for entry in std::fs::read_dir(from).expect("fixture dir") {
            let entry = entry.expect("fixture entry");
            let dest = to.join(entry.file_name());
            if entry.file_type().expect("file type").is_dir() {
                copy(&entry.path(), &dest);
            } else {
                std::fs::copy(entry.path(), dest).expect("fixture file copies");
            }
        }
    }
    let to = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("self_scan-{name}"));
    let _ = std::fs::remove_dir_all(&to);
    copy(&fixture(name), &to);
    to
}

#[test]
fn injected_violation_fails_the_gate() {
    // The closure-clean fixture scans clean, then a planted file in its
    // deterministic `world` crate trips the line scan end to end.
    let root = scratch_copy("deps-clean");
    assert_eq!(conformance::scan(&root).expect("fixture scans").findings, Vec::new());
    std::fs::write(
        root.join("crates/world/src/injected.rs"),
        "pub fn rank(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }\n\
         pub fn peek(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n",
    )
    .expect("plants the file");
    let scan = conformance::scan(&root).expect("fixture scans");
    assert_eq!(rules_of(&scan.findings), ["partial-cmp", "relaxed-ordering"]);
    assert!(scan.findings.iter().all(|f| f.file == "crates/world/src/injected.rs"));
}

#[test]
fn injected_closure_violation_fails_the_gate() {
    let mut graph = deps::CrateGraph::load(&workspace_root()).expect("real workspace graph");
    // Grow a nondeterministic dependency onto a deterministic crate —
    // the exact rot the closure check exists to catch.
    let world = graph.packages.iter_mut().find(|p| p.key == "world").expect("world in graph");
    world.deps.push(deps::Dep {
        name: "baselines".to_string(),
        key: Some("baselines".to_string()),
        spec: deps::DepSpec::Workspace,
        line: 99,
    });
    let found = closure::check(&graph);
    assert_eq!(found.len(), 1, "exactly the injected edge: {found:?}");
    assert_eq!(found[0].file, "crates/world/Cargo.toml");
    assert!(found[0].message.contains("`baselines`"), "{}", found[0].message);
}

#[test]
fn deps_violating_fixture_breaks_the_closure() {
    let scan = conformance::scan(&fixture("deps-violating")).expect("fixture scans");
    let found = &scan.findings;
    assert_eq!(found.len(), 5, "got {found:#?}");
    assert!(found.iter().all(|f| f.rule == closure::ID));

    // Manifest/list drift, both directions.
    assert!(found
        .iter()
        .any(|f| f.file == "crates/registry/Cargo.toml" && f.message.contains("lacks")));
    assert!(found.iter().any(|f| f.file == "crates/extra/Cargo.toml"
        && f.message.contains("absent from DETERMINISTIC_CRATES")));

    // All three bad edges out of `world`: the nondeterministic workspace
    // dep, the unapproved vendored path dep, and the external spec.
    let world: Vec<_> = found.iter().filter(|f| f.file == "crates/world/Cargo.toml").collect();
    assert_eq!(world.len(), 3);
    assert!(world.iter().any(|f| f.message.contains("`baselines`")));
    assert!(world.iter().any(|f| f.message.contains("`vendor/criterion`")));
    assert!(world.iter().any(|f| f.message.contains("external dependency `rand_core`")));

    // The findings are semantic, not parse failures.
    assert!(scan.graph.as_ref().expect("graph parsed").errors.is_empty());
}

#[test]
fn deps_clean_fixture_closure_holds() {
    let scan = conformance::scan(&fixture("deps-clean")).expect("fixture scans");
    assert_eq!(scan.findings, Vec::new());
    let graph = scan.graph.as_ref().expect("manifests parsed");
    assert!(graph.is_deterministic("world"));
    assert!(graph.is_deterministic("net-model"));
    let world = graph.package("world").expect("world in graph");
    assert!(
        world.deps.iter().any(|d| d.key.as_deref() == Some("vendor/serde")),
        "the workspace-table serde dep resolves to the vendored stand-in"
    );
}

#[test]
fn scan_is_deterministic() {
    let root = workspace_root();
    let a = conformance::scan(&root).expect("scans");
    let b = conformance::scan(&root).expect("scans");
    assert_eq!(a.findings, b.findings);
    assert_eq!(a.files_scanned, b.files_scanned);
    assert_eq!(a.graph, b.graph);
}

#[test]
fn fixture_trees_are_not_part_of_the_workspace_scan() {
    let files = lines::source_files(&workspace_root()).expect("collects");
    assert!(files.iter().all(|f| !f.contains("/fixtures/")));
    assert!(files.iter().all(|f| !f.starts_with("vendor")));
    assert!(files.iter().all(|f| !f.starts_with("crates/conformance/")));
    assert!(files.contains(&"crates/bgp-sim/src/routing.rs".to_string()));
}
