//! The rule framework.
//!
//! Rules come in two shapes. A [`FileRule`] checks one file at a time —
//! the majority, run file by file by [`crate::scan_workspace`]. A
//! workspace [`Rule`] sees the whole [`Workspace`] (and its crate
//! graph), so cross-file invariants like the dense/reference engine
//! pairing and the dependency closure are expressible; those run after
//! the per-file pass. Adding a rule: implement the right trait, register it
//! in [`file_rules`] / [`workspace_rules`], add a violating + clean
//! fixture under `fixtures/`, and document it in the README table.

use crate::source::SourceFile;
use crate::Workspace;

pub mod closure;
pub mod concurrency;
pub mod determinism;
pub mod float_order;
pub mod paired_engines;
pub mod panic_budget;
pub mod shared_mutation;

/// Rule id used for malformed `conformance:` comments (reported by the
/// engine itself, not a rule impl).
pub const PRAGMA_SYNTAX: &str = "pragma-syntax";

/// Rule id for allow pragmas that suppress nothing (reported by the
/// engine after pragma filtering — see [`crate::scan_workspace`]). The
/// pragma set is shrink-only: a pragma whose finding was burned down
/// must be deleted, not left to rot.
pub const UNUSED_PRAGMA: &str = "unused-pragma";

/// One diagnostic: a rule violated at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-relative path (or `crates/<name>` for crate-level
    /// aggregates like the panic budget).
    pub file: String,
    /// 1-based line, or 0 for crate-level aggregates.
    pub line: u32,
    pub message: String,
    /// Trimmed source line, shown under the diagnostic.
    pub snippet: String,
}

/// Where workspace rules deposit findings — plus the allow pragmas they
/// consumed *internally* (the panic budget skips allowed sites while
/// counting instead of emitting per-site findings), so the
/// unused-pragma check knows those pragmas earn their keep.
#[derive(Debug, Default)]
pub struct Sink {
    pub findings: Vec<Finding>,
    /// `(file, rule, target line)` of internally-consumed pragmas.
    pub used_allows: Vec<(String, String, u32)>,
}

impl Sink {
    pub fn push(&mut self, finding: Finding) {
        self.findings.push(finding);
    }

    /// Records that a pragma `allow(rule)` targeting `line` in `file`
    /// suppressed something, even though no finding was emitted.
    pub fn mark_allow_used(&mut self, file: &str, rule: &str, line: u32) {
        self.used_allows.push((file.to_string(), rule.to_string(), line));
    }
}

/// A rule over one source file. Implementations must not consult
/// anything beyond the file.
pub trait FileRule {
    fn id(&self) -> &'static str;
    fn description(&self) -> &'static str;
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>);
}

/// A static-analysis rule over the whole lexed workspace (cross-file or
/// crate-graph context; runs after the per-file pass).
pub trait Rule {
    fn id(&self) -> &'static str;
    fn description(&self) -> &'static str;
    fn check(&self, ws: &Workspace, sink: &mut Sink);
}

/// Every per-file rule, in reporting order.
pub fn file_rules() -> Vec<Box<dyn FileRule>> {
    vec![
        Box::new(determinism::NoUnorderedIteration),
        Box::new(determinism::NoWallClock),
        Box::new(determinism::NoUnseededRng),
        Box::new(concurrency::ScopedThreadsOnly),
        Box::new(float_order::FloatTotalOrder),
        Box::new(shared_mutation::NoSharedMutation),
    ]
}

/// Every workspace-level rule, in reporting order.
pub fn workspace_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(panic_budget::PanicBudget),
        Box::new(paired_engines::PairedEngines),
        Box::new(closure::DeterministicClosure),
    ]
}

/// Id + description of one active rule (for the report).
pub struct RuleInfo {
    pub id: &'static str,
    pub description: &'static str,
}

/// Every active rule, in reporting order: the per-file rules, the
/// workspace rules, then the engine-level pragma-hygiene check.
pub fn all_rules() -> Vec<RuleInfo> {
    let mut out: Vec<RuleInfo> = file_rules()
        .iter()
        .map(|r| RuleInfo { id: r.id(), description: r.description() })
        .collect();
    out.extend(
        workspace_rules()
            .iter()
            .map(|r| RuleInfo { id: r.id(), description: r.description() }),
    );
    out.push(RuleInfo {
        id: UNUSED_PRAGMA,
        description:
            "a `// conformance: allow(...)` pragma that suppresses no finding is \
             itself a finding; the pragma set is shrink-only",
    });
    out
}

/// Emits one finding anchored at a token occurrence.
pub(crate) fn finding_at(
    rule: &'static str,
    file: &SourceFile,
    line: u32,
    message: String,
) -> Finding {
    Finding {
        rule,
        file: file.rel_path.clone(),
        line,
        message,
        snippet: file.line_text(line).to_string(),
    }
}

/// Shared pattern-matching view: significant-token texts plus their
/// token indices, so rules can look around occurrences cheaply.
pub(crate) struct SigView<'a> {
    pub file: &'a SourceFile,
    pub idx: &'a [usize],
}

impl<'a> SigView<'a> {
    pub fn new(file: &'a SourceFile) -> SigView<'a> {
        SigView { file, idx: file.sig() }
    }

    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// Text of the `i`-th significant token.
    pub fn text(&self, i: usize) -> &str {
        self.file.token_text(&self.file.tokens[self.idx[i]])
    }

    pub fn line(&self, i: usize) -> u32 {
        self.file.tokens[self.idx[i]].line
    }

    pub fn offset(&self, i: usize) -> usize {
        self.file.tokens[self.idx[i]].start
    }

    pub fn is_ident(&self, i: usize) -> bool {
        matches!(self.file.tokens[self.idx[i]].kind, crate::lexer::TokenKind::Ident)
    }

    pub fn kind(&self, i: usize) -> crate::lexer::TokenKind {
        self.file.tokens[self.idx[i]].kind
    }

    /// Whether significant tokens starting at `i` spell out `pattern`.
    /// The lexer emits punctuation one character per token, so a
    /// multi-character punctuation element such as `"::"` matches the
    /// corresponding run of single-character tokens.
    pub fn matches(&self, i: usize, pattern: &[&str]) -> bool {
        let mut k = i;
        for p in pattern {
            if Self::is_multi_punct(p) {
                for c in p.chars() {
                    if k >= self.len() || self.text(k) != c.to_string() {
                        return false;
                    }
                    k += 1;
                }
            } else {
                if k >= self.len() || self.text(k) != *p {
                    return false;
                }
                k += 1;
            }
        }
        true
    }

    /// How many significant tokens `pattern` spans when matched.
    pub fn width(pattern: &[&str]) -> usize {
        pattern
            .iter()
            .map(|p| if Self::is_multi_punct(p) { p.chars().count() } else { 1 })
            .sum()
    }

    fn is_multi_punct(p: &str) -> bool {
        p.len() > 1 && p.chars().all(|c| c.is_ascii_punctuation())
    }
}
