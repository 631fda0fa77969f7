//! Concurrency-discipline rule: scoped threads only, and only in the
//! crates that own the cores; no lock-and-push accumulation inside
//! scoped sweeps, and no ambient core counts in the substrate crates.

use super::{finding_at, FileRule, Finding, SigView};
use crate::source::SourceFile;

/// The substrate crates: kernels that campaign workers, sessions and
/// benches call. They run on the caller's thread or on an explicit
/// thread count, never on a pool sized from the machine.
pub const SUBSTRATE_CRATES: [&str; 6] =
    ["bgp-sim", "traceroute-sim", "xaminer-sim", "nautilus-sim", "world", "scenario-forge"];

/// The crates whose non-test code may start scoped threads: the campaign
/// runner's workers and the benches that measure concurrent callers.
pub const THREAD_CRATES: [&str; 2] = ["campaign", "bench"];

/// `scoped-threads-only`:
///
/// 1. `thread::spawn` is banned everywhere — detached threads outlive
///    the data they borrow (forcing `'static` + `Arc` churn) and escape
///    the worker-count-invariance argument every parallel sweep in this
///    workspace is built on. `std::thread::scope` (whose `scope.spawn`
///    is fine) joins deterministically.
/// 2. Inside a file that uses scoped sweeps, accumulating results with
///    `shared.lock().push(...)` (or via `.unwrap()`/`.expect(...)`)
///    records them in *completion order* — a nondeterministic order.
///    Collect per-shard vectors and merge them in shard index order.
/// 3. In [`SUBSTRATE_CRATES`], `available_parallelism` is banned. The
///    serving stack has one layer of parallelism, the callers that own
///    the cores (campaign workers, session clients); a kernel that sizes
///    its own pool from the core count stacks a second layer under every
///    one of them (two campaign workers on two cores then run four
///    compute threads). Compute on the caller's thread, or take the
///    thread count as an argument.
/// 4. Outside [`THREAD_CRATES`], `thread::scope` is banned in non-test
///    code. The same one-layer argument: the workflow executor, the
///    engine and its sessions run on the caller's thread, and the
///    callers that own the cores start the threads.
pub struct ScopedThreadsOnly;

impl FileRule for ScopedThreadsOnly {
    fn id(&self) -> &'static str {
        "scoped-threads-only"
    }

    fn description(&self) -> &'static str {
        "thread::spawn is banned (use std::thread::scope), thread::scope is only for \
         campaign and bench, Mutex lock-and-push accumulation inside \
         scoped sweeps must be per-shard ordered merges, and substrate crates never \
         read available_parallelism"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let sig = SigView::new(file);
        let uses_scope =
            (0..sig.len()).any(|i| sig.matches(i, &["thread", "::", "scope"]));
        let substrate = SUBSTRATE_CRATES.contains(&file.crate_name());
        let owns_threads = THREAD_CRATES.contains(&file.crate_name());
        for i in 0..sig.len() {
            if file.is_test_code(sig.offset(i)) {
                continue;
            }
            if substrate && sig.matches(i, &["available_parallelism"]) {
                out.push(finding_at(
                    self.id(),
                    file,
                    sig.line(i),
                    "a substrate kernel must not size its own thread pool from the core \
                     count: compute on the caller's thread or take an explicit thread count"
                        .to_string(),
                ));
            }
            if !owns_threads && sig.matches(i, &["thread", "::", "scope"]) {
                out.push(finding_at(
                    self.id(),
                    file,
                    sig.line(i),
                    "only campaign and bench start threads: run on the \
                     caller's thread and let the caller parallelize across queries"
                        .to_string(),
                ));
            }
            // `thread::spawn` — but not `scope.spawn(...)`.
            if sig.matches(i, &["thread", "::", "spawn"]) {
                let spawn_ix = i + SigView::width(&["thread", "::"]);
                out.push(finding_at(
                    self.id(),
                    file,
                    sig.line(spawn_ix),
                    "`thread::spawn` detaches from the caller: use \
                     `std::thread::scope` so shards join deterministically"
                        .to_string(),
                ));
            }
            if uses_scope && lock_push_at(&sig, i) {
                out.push(finding_at(
                    self.id(),
                    file,
                    sig.line(i),
                    "Mutex lock-and-push accumulates in completion order inside a \
                     scoped sweep: collect per-shard and merge in shard order"
                        .to_string(),
                ));
            }
        }
    }
}

/// Matches `lock().push(`, `lock().unwrap().push(` and
/// `lock().expect("...").push(` starting at significant token `i`.
fn lock_push_at(sig: &SigView<'_>, i: usize) -> bool {
    if !sig.matches(i, &["lock", "(", ")"]) {
        return false;
    }
    let mut j = i + 3;
    if sig.matches(j, &[".", "unwrap", "(", ")"]) {
        j += 4;
    } else if sig.matches(j, &[".", "expect", "("]) {
        // Skip the expect argument to its closing paren.
        let mut depth = 0usize;
        let mut k = j + 2;
        while k < sig.len() {
            match sig.text(k) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        j = k + 1;
    }
    sig.matches(j, &[".", "push", "("])
}
