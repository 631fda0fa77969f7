//! Workspace file collection and the per-file source model rules run on.

use std::path::Path;

use crate::lexer::{lex, Token, TokenKind};
use crate::pragma::{parse_pragmas, Allow, PragmaError};
use crate::syntax::ItemTree;

/// Top-level directories scanned, relative to the workspace root.
const SCAN_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Directory names skipped anywhere in the walk: vendored stand-ins and
/// build output are not our code, and `fixtures/` trees are deliberately
/// violating inputs for the conformance tests themselves.
const SKIP_DIRS: [&str; 3] = ["vendor", "target", "fixtures"];

/// One lexed workspace source file plus everything the rules need to
/// interpret it: the item tree, which spans are test code, and which
/// findings the author explicitly allowed.
pub struct SourceFile {
    /// Path relative to the scanned root, `/`-separated.
    pub rel_path: String,
    pub text: String,
    pub tokens: Vec<Token>,
    /// The brace-matched item tree (see [`crate::syntax`]). Test
    /// attribution and item lookups ride this instead of offset
    /// heuristics.
    pub tree: ItemTree,
    /// Byte spans of items gated on test compilation (`#[cfg(test)]`,
    /// `#[test]`), flattened from the item tree.
    pub test_spans: Vec<(usize, usize)>,
    /// Whether the whole file is test/measurement context (under a
    /// `tests/` or `benches/` directory).
    pub whole_file_test: bool,
    /// Whether the file lives under a `benches/` directory (exempt from
    /// the wall-clock and rng rules, like `crates/bench` via pragmas).
    pub in_benches_dir: bool,
    pub allows: Vec<Allow>,
    pub pragma_errors: Vec<PragmaError>,
    /// Indices of significant tokens (everything except whitespace and
    /// comments), computed once; rules pattern-match over this stream.
    sig_idx: Vec<usize>,
}

impl SourceFile {
    /// Loads and lexes one file. `rel_path` uses `/` separators.
    pub fn load(root: &Path, rel_path: &str) -> std::io::Result<SourceFile> {
        let text = std::fs::read_to_string(root.join(rel_path))?;
        Ok(SourceFile::from_text(rel_path, text))
    }

    pub fn from_text(rel_path: &str, text: String) -> SourceFile {
        let tokens = lex(&text);
        let sig_idx: Vec<usize> = (0..tokens.len())
            .filter(|&i| {
                !matches!(
                    tokens[i].kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .collect();
        let tree = ItemTree::parse(&text, &tokens, &sig_idx);
        let test_spans = tree.test_spans();
        let (allows, pragma_errors) = parse_pragmas(&text, &tokens);
        let components: Vec<&str> = rel_path.split('/').collect();
        let whole_file_test =
            components.contains(&"tests") || components.contains(&"benches");
        let in_benches_dir = components.contains(&"benches");
        SourceFile {
            rel_path: rel_path.to_string(),
            text,
            tokens,
            tree,
            test_spans,
            whole_file_test,
            in_benches_dir,
            allows,
            pragma_errors,
            sig_idx,
        }
    }

    /// The crate this file belongs to: `crates/<name>/...` → `<name>`,
    /// everything else (root `src/`, `tests/`, `examples/`) → the root
    /// package.
    pub fn crate_name(&self) -> &str {
        let mut parts = self.rel_path.split('/');
        match (parts.next(), parts.next()) {
            (Some("crates"), Some(name)) => name,
            _ => "arachnet-repro",
        }
    }

    pub fn token_text(&self, t: &Token) -> &str {
        &self.text[t.start..t.end]
    }

    /// Whether the byte offset falls in test context: whole-file test
    /// context, or inside an item the tree attributes to test
    /// compilation (`#[cfg(test)]` / `#[test]` — but not
    /// `#[cfg(not(test))]`, which is live code).
    pub fn is_test_code(&self, offset: usize) -> bool {
        self.whole_file_test
            || self.test_spans.iter().any(|&(s, e)| offset >= s && offset < e)
    }

    /// Whether a finding of `rule` at `line` was explicitly allowed by an
    /// inline pragma.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.iter().any(|a| a.rule == rule && a.target_line == line)
    }

    /// Indices of significant tokens: everything except whitespace and
    /// comments.
    pub fn sig(&self) -> &[usize] {
        &self.sig_idx
    }

    /// The trimmed text of a 1-based line (for diagnostics).
    pub fn line_text(&self, line: u32) -> &str {
        self.text
            .lines()
            .nth(line.saturating_sub(1) as usize)
            .unwrap_or("")
            .trim()
    }
}

/// Recursively collects the workspace's `.rs` files under the scan
/// roots, skipping vendored/generated/fixture trees. Paths are sorted
/// for deterministic output.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    for top in SCAN_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, Path::new(top), &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, rel: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let path = entry.path();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, &rel.join(name.as_ref()), out)?;
        } else if name.ends_with(".rs") {
            out.push(rel_string(&rel.join(name.as_ref())));
        }
    }
    Ok(())
}

fn rel_string(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_cfg_test_module_span() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let f = SourceFile::from_text("crates/demo/src/lib.rs", src.to_string());
        let live = src.find("x.unwrap").unwrap();
        let test = src.find("y.unwrap").unwrap();
        assert!(!f.is_test_code(live));
        assert!(f.is_test_code(test));
    }

    #[test]
    fn detects_test_fn_and_braceless_items() {
        let src = "#[test]\nfn check() { a.unwrap(); }\n\
                   #[cfg(test)]\nuse std::collections::HashMap;\nfn live() {}\n";
        let f = SourceFile::from_text("crates/demo/src/lib.rs", src.to_string());
        assert!(f.is_test_code(src.find("a.unwrap").unwrap()));
        assert!(f.is_test_code(src.find("HashMap").unwrap()));
        assert!(!f.is_test_code(src.find("fn live").unwrap()));
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        // The pre-item-tree span heuristic treated any attribute
        // containing `cfg` + `test` as test-gated, so `#[cfg(not(test))]`
        // items escaped every rule. The tree reads the predicate.
        let src = "#[cfg(not(test))]\nfn live_only() { h(HashMap::new()); }\n";
        let f = SourceFile::from_text("crates/demo/src/lib.rs", src.to_string());
        assert!(!f.is_test_code(src.find("HashMap").unwrap()));
    }

    #[test]
    fn nested_items_inside_cfg_test_mod_are_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n  mod helpers {\n    pub fn mk() { x.unwrap(); }\n  }\n  struct Fixture { map: HashMap<u32, u32> }\n}\nfn live() {}\n";
        let f = SourceFile::from_text("crates/demo/src/lib.rs", src.to_string());
        assert!(f.is_test_code(src.find("x.unwrap").unwrap()));
        assert!(f.is_test_code(src.find("HashMap").unwrap()));
        assert!(!f.is_test_code(src.find("fn live").unwrap()));
    }

    #[test]
    fn tests_dir_is_whole_file_test_context() {
        let f = SourceFile::from_text("crates/demo/tests/it.rs", "fn x() {}".into());
        assert!(f.is_test_code(0));
        assert_eq!(f.crate_name(), "demo");
        let root = SourceFile::from_text("src/lib.rs", "fn x() {}".into());
        assert_eq!(root.crate_name(), "arachnet-repro");
    }
}
