//! Per-rule fixture coverage: one violating and one clean fixture per
//! rule, and pragma-allow behavior.

use std::path::PathBuf;

use conformance::{scan, Finding};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures")).join(name)
}

fn rule_count(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn violating_fixture_trips_every_rule() {
    let scan = scan(&fixture("violating")).expect("fixture scans");
    let f = &scan.findings;

    // no-unordered-iteration: the import, the annotation and the
    // HashSet use — but not the #[cfg(test)] module's maps.
    assert_eq!(rule_count(f, "no-unordered-iteration"), 3);
    assert!(f
        .iter()
        .filter(|x| x.rule == "no-unordered-iteration")
        .all(|x| x.file == "crates/world/src/iteration.rs"));

    // no-wall-clock: Instant + SystemTime.
    assert_eq!(rule_count(f, "no-wall-clock"), 2);

    // no-unseeded-rng: thread_rng + rand::random.
    assert_eq!(rule_count(f, "no-unseeded-rng"), 2);

    // scoped-threads-only: the detached spawn + the lock-and-push + the
    // substrate kernel's core count + the executor's and the analysis
    // pass's own threads (but not the test modules' core count or
    // threads).
    assert_eq!(rule_count(f, "scoped-threads-only"), 5);
    assert!(f
        .iter()
        .any(|x| x.rule == "scoped-threads-only" && x.snippet.contains("push")));
    let ambient: Vec<&Finding> = f
        .iter()
        .filter(|x| x.rule == "scoped-threads-only" && x.snippet.contains("available_parallelism"))
        .collect();
    assert_eq!(ambient.len(), 1, "got {ambient:#?}");
    assert_eq!(ambient[0].file, "crates/bgp-sim/src/shards.rs");
    let pooled: Vec<&str> = f
        .iter()
        .filter(|x| x.rule == "scoped-threads-only" && x.snippet.contains("thread::scope"))
        .map(|x| x.file.as_str())
        .collect();
    assert_eq!(
        pooled,
        ["crates/conformance/src/shards.rs", "crates/workflow/src/pool.rs"],
        "the executor and the analysis pass start no threads"
    );

    // panic-budget: one crate-level aggregate for `core`.
    assert_eq!(rule_count(f, "panic-budget"), 1);
    let budget = f.iter().find(|x| x.rule == "panic-budget").expect("present");
    assert_eq!(budget.file, "crates/core");
    assert!(budget.message.contains("panics.rs"), "sites listed: {}", budget.message);

    // float-total-order: the partial_cmp sort and the bare float cast —
    // but not the clean tree's `.trunc()`/`.round()` casts.
    assert_eq!(rule_count(f, "float-total-order"), 2);
    assert!(f
        .iter()
        .filter(|x| x.rule == "float-total-order")
        .all(|x| x.file == "crates/world/src/floats.rs"));

    // no-shared-mutation: static mut + thread_local! + Relaxed.
    assert_eq!(rule_count(f, "no-shared-mutation"), 3);
    assert!(f
        .iter()
        .any(|x| x.rule == "no-shared-mutation" && x.snippet.contains("static mut")));

    // unused-pragma: the allow that suppresses nothing.
    assert_eq!(rule_count(f, "unused-pragma"), 1);
    let stale = f.iter().find(|x| x.rule == "unused-pragma").expect("present");
    assert_eq!(stale.file, "crates/world/src/stale_pragma.rs");
    assert!(stale.message.contains("no-wall-clock"), "{}", stale.message);

    // paired-engines: the dense-only field and the dense-only variant.
    assert_eq!(rule_count(f, "paired-engines"), 2);
    let drifted: Vec<&str> = f
        .iter()
        .filter(|x| x.rule == "paired-engines")
        .map(|x| x.message.split('`').nth(1).expect("name quoted"))
        .collect();
    assert!(drifted.contains(&"drop_prefixes"), "got {drifted:?}");
    assert!(drifted.contains(&"PrefixHijack"), "got {drifted:?}");

    assert!(scan.allowed.is_empty());
}

#[test]
fn clean_fixture_is_silent() {
    let scan = scan(&fixture("clean")).expect("fixture scans");
    assert_eq!(
        scan.findings,
        Vec::new(),
        "clean fixtures must produce zero findings"
    );
}

#[test]
fn pragma_allow_suppresses_with_reason_only() {
    let scan = scan(&fixture("pragma")).expect("fixture scans");

    // allowed.rs: both pragmas (standalone + preceding-line) suppress.
    assert!(!scan
        .findings
        .iter()
        .any(|f| f.file == "crates/world/src/allowed.rs"));
    assert_eq!(
        scan.allowed
            .iter()
            .filter(|f| f.file == "crates/world/src/allowed.rs")
            .count(),
        2
    );

    // malformed.rs: the reason-less pragma is a finding and suppresses
    // nothing — the HashMap it hoped to cover still fires.
    assert_eq!(rule_count(&scan.findings, "pragma-syntax"), 1);
    assert!(scan
        .findings
        .iter()
        .any(|f| f.rule == "no-unordered-iteration"
            && f.file == "crates/world/src/malformed.rs"
            && f.snippet.contains("use std::collections::HashMap")));
}

#[test]
fn deps_violating_fixture_breaks_the_closure() {
    let scan = scan(&fixture("deps-violating")).expect("fixture scans");
    let closure: Vec<&Finding> = scan
        .findings
        .iter()
        .filter(|f| f.rule == "deterministic-closure")
        .collect();
    assert_eq!(closure.len(), 5, "got {closure:#?}");

    // Marker/list drift, both directions.
    assert!(closure
        .iter()
        .any(|f| f.file == "crates/registry/Cargo.toml" && f.message.contains("lacks")));
    assert!(closure.iter().any(|f| f.file == "crates/extra/Cargo.toml"
        && f.message.contains("absent from DETERMINISTIC_CRATES")));

    // All three bad edges out of `world`: the nondeterministic workspace
    // dep, the unapproved vendored path dep, and the external spec.
    let world: Vec<_> =
        closure.iter().filter(|f| f.file == "crates/world/Cargo.toml").collect();
    assert_eq!(world.len(), 3);
    assert!(world.iter().any(|f| f.message.contains("`baselines`")));
    assert!(world.iter().any(|f| f.message.contains("`vendor/criterion`")));
    assert!(world
        .iter()
        .any(|f| f.message.contains("external dependency `rand_core`")));

    // The findings are semantic, not parse failures.
    assert!(scan.graph.as_ref().expect("graph parsed").errors.is_empty());
}

#[test]
fn deps_clean_fixture_closure_holds() {
    let scan = scan(&fixture("deps-clean")).expect("fixture scans");
    assert_eq!(rule_count(&scan.findings, "deterministic-closure"), 0);
    // The only finding is paired-engines noting the tree has no routing
    // engines to pair — this fixture exercises the manifest layer only.
    assert!(
        scan.findings.iter().all(|f| f.rule == "paired-engines"),
        "closure-clean tree is clean at the manifest layer: {:#?}",
        scan.findings
    );

    let graph = scan.graph.as_ref().expect("manifests parsed");
    assert!(graph.is_deterministic("world"));
    assert!(graph.is_deterministic("net-model"));
    let world = graph.package("world").expect("world in graph");
    assert!(
        world.deps.iter().any(|d| d.key.as_deref() == Some("vendor/serde")),
        "the workspace-table serde dep resolves to the vendored stand-in"
    );
}
