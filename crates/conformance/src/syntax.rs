//! The item-tree syntax layer: a brace-matched view of one source file.
//!
//! The lexer guarantees token spans tile the file; this layer adds the
//! next structural level — *items*. Modules, functions, impl/trait
//! blocks, `use` declarations and the rest are parsed into a tree whose
//! spans nest properly and tile the file (siblings never overlap, every
//! child sits inside its parent's body). Rules ride the tree instead of
//! re-deriving structure from token offsets: test attribution
//! ([`SourceFile::is_test_code`](crate::source::SourceFile::is_test_code))
//! walks item attributes, and cross-file rules look items up by kind and
//! name.
//!
//! The parser is *resilient*, not validating: a token sequence that does
//! not start a recognized item becomes a one-token [`ItemKind::Other`]
//! leaf, so the tree invariants hold on any input the lexer accepts.
//! Its contract is pinned the same way the lexer's is — a proptest over
//! generated item soup plus an exhaustive pass over every workspace
//! source (`tests/syntax_tree.rs`).
//!
//! Test attribution is predicate-aware where the old span heuristic was
//! not: `#[cfg(test)]`, `#[test]` and `#[cfg(all(test, ...))]` mark an
//! item (and everything nested in it) as test code, while
//! `#[cfg(not(test))]` — *live* code, compiled out of test builds — does
//! not.

use crate::lexer::{Token, TokenKind};

/// What kind of item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { ... }` or `mod name;`
    Mod,
    /// `fn name(...) { ... }` (body is a leaf: statements are not items)
    Fn,
    /// `impl ... { ... }` — children are the associated items.
    Impl,
    /// `trait Name { ... }` — children are the associated items.
    Trait,
    /// `struct` / `enum` / `union` declarations.
    Type,
    /// `use ...;` / `extern crate ...;`
    Use,
    /// `static NAME: T = ...;` (including `static mut`).
    Static,
    /// `const NAME: T = ...;`
    Const,
    /// `type Name = ...;`
    TypeAlias,
    /// `macro_rules! name { ... }`
    MacroDef,
    /// A macro invoked in item position: `proptest! { ... }`.
    MacroInvocation,
    /// `extern "C" { ... }` — children are the foreign items.
    ExternBlock,
    /// A token the parser could not attach to an item (kept as a
    /// one-token leaf so spans still tile the file).
    Other,
}

/// One node of the item tree.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    /// The declared name (`""` for impl blocks, extern blocks, `Other`).
    pub name: String,
    /// Byte span, *including* any outer attributes.
    pub start: usize,
    pub end: usize,
    /// 1-based line of the first token (attribute or keyword).
    pub line: u32,
    /// Whether an outer attribute gates this item on test compilation:
    /// `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, ...))]` — but not
    /// `#[cfg(not(test))]`.
    pub test_attr: bool,
    /// Items nested in this item's body (mod / impl / trait / extern).
    pub children: Vec<Item>,
}

/// The parsed item tree of one file.
#[derive(Debug, Clone, Default)]
pub struct ItemTree {
    pub items: Vec<Item>,
}

impl ItemTree {
    /// Parses `text` (already lexed into `tokens`; `sig` indexes the
    /// significant tokens) into an item tree.
    pub fn parse(text: &str, tokens: &[Token], sig: &[usize]) -> ItemTree {
        let mut p = Parser { text, tokens, sig };
        let (items, _) = p.parse_items(0, sig.len());
        ItemTree { items }
    }

    /// Byte spans of every item (with everything nested inside it) that
    /// is gated on test compilation.
    pub fn test_spans(&self) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        collect_test_spans(&self.items, &mut spans);
        spans
    }

    /// Depth-first search for the first item of `kind` named `name`
    /// (searching children too).
    pub fn find(&self, kind: ItemKind, name: &str) -> Option<&Item> {
        find_in(&self.items, kind, name)
    }

    /// Every item in the tree, depth first.
    pub fn walk(&self) -> Vec<&Item> {
        let mut out = Vec::new();
        walk_into(&self.items, &mut out);
        out
    }
}

fn collect_test_spans(items: &[Item], out: &mut Vec<(usize, usize)>) {
    for item in items {
        if item.test_attr {
            // The span covers every nested item too; no need to descend.
            out.push((item.start, item.end));
        } else {
            collect_test_spans(&item.children, out);
        }
    }
}

fn find_in<'a>(items: &'a [Item], kind: ItemKind, name: &str) -> Option<&'a Item> {
    for item in items {
        if item.kind == kind && item.name == name {
            return Some(item);
        }
        if let Some(found) = find_in(&item.children, kind, name) {
            return Some(found);
        }
    }
    None
}

fn walk_into<'a>(items: &'a [Item], out: &mut Vec<&'a Item>) {
    for item in items {
        out.push(item);
        walk_into(&item.children, out);
    }
}

/// Item keywords that modify the item that follows rather than starting
/// one themselves.
const MODIFIERS: [&str; 4] = ["pub", "unsafe", "async", "default"];

/// Where an item opens: its first byte and line, and whether one of its
/// outer attributes gates it on test compilation.
#[derive(Clone, Copy)]
struct ItemStart {
    byte: usize,
    line: u32,
    test_attr: bool,
}

struct Parser<'a> {
    text: &'a str,
    tokens: &'a [Token],
    sig: &'a [usize],
}

impl<'a> Parser<'a> {
    fn txt(&self, i: usize) -> &str {
        let t = &self.tokens[self.sig[i]];
        &self.text[t.start..t.end]
    }

    fn kind(&self, i: usize) -> TokenKind {
        self.tokens[self.sig[i]].kind
    }

    fn start_of(&self, i: usize) -> usize {
        self.tokens[self.sig[i]].start
    }

    fn end_of(&self, i: usize) -> usize {
        self.tokens[self.sig[i]].end
    }

    fn line_of(&self, i: usize) -> u32 {
        self.tokens[self.sig[i]].line
    }

    /// Parses items in `[i, end)` of the significant-token stream,
    /// stopping early at a `}` that closes the enclosing body (which the
    /// caller consumes). Returns the items and the index it stopped at.
    fn parse_items(&mut self, mut i: usize, end: usize) -> (Vec<Item>, usize) {
        let mut items = Vec::new();
        while i < end {
            if self.txt(i) == "}" {
                break; // closes the enclosing body; caller owns it
            }
            let (item, next) = self.parse_item(i, end);
            debug_assert!(next > i, "item parser must advance");
            items.push(item);
            i = next;
        }
        (items, i)
    }

    /// Parses one item starting at significant index `i`.
    fn parse_item(&mut self, i: usize, end: usize) -> (Item, usize) {
        let mut at = ItemStart { byte: self.start_of(i), line: self.line_of(i), test_attr: false };
        let mut j = i;

        // Inner attributes (`#![...]`) and outer attributes (`#[...]`).
        // Inner attributes configure the enclosing scope; they are kept
        // as part of this item's leading span but never mark it as test.
        while j < end && self.txt(j) == "#" {
            let mut k = j + 1;
            if k < end && self.txt(k) == "!" {
                k += 1;
            }
            if k >= end || self.txt(k) != "[" {
                break; // a stray `#`: not an attribute
            }
            let close = self.matching(k, end);
            let inner = self.txt(j + 1) == "!";
            if !inner && attr_is_test(self, k + 1, close) {
                at.test_attr = true;
            }
            j = close.min(end.saturating_sub(1)) + 1;
            if close >= end {
                // Unterminated attribute: swallow to the end.
                return (self.node(at, ItemKind::Other, String::new(), Vec::new(), end), end);
            }
        }
        if j >= end {
            return (self.node(at, ItemKind::Other, String::new(), Vec::new(), end), end);
        }

        // Modifiers: `pub` (with optional `(crate)`/`(super)`/`(in ...)`),
        // `unsafe`, `async`, `default`, `const fn`, `extern "C" fn`.
        loop {
            let t = self.txt(j);
            if MODIFIERS.contains(&t) {
                j += 1;
                if t == "pub" && j < end && self.txt(j) == "(" {
                    j = self.matching(j, end).min(end.saturating_sub(1)) + 1;
                }
            } else if t == "const" && j + 1 < end && self.txt(j + 1) == "fn" {
                j += 1; // `const fn`: const is a modifier here
            } else if t == "extern"
                && j + 1 < end
                && self.kind(j + 1) == TokenKind::StrLit
                && j + 2 < end
                && self.txt(j + 2) == "fn"
            {
                j += 2; // `extern "C" fn`
            } else {
                break;
            }
            if j >= end {
                return (self.node(at, ItemKind::Other, String::new(), Vec::new(), end), end);
            }
        }

        let keyword = self.txt(j);
        match keyword {
            "mod" => {
                let name = self.name_after(j, end);
                let (children, stop) = self.braced_or_semi(j, end, true);
                (self.node(at, ItemKind::Mod, name, children, stop), stop)
            }
            "impl" => {
                let (children, stop) = self.braced_or_semi(j, end, true);
                (self.node(at, ItemKind::Impl, String::new(), children, stop), stop)
            }
            "trait" => {
                let name = self.name_after(j, end);
                let (children, stop) = self.braced_or_semi(j, end, true);
                (self.node(at, ItemKind::Trait, name, children, stop), stop)
            }
            "fn" => {
                let name = self.name_after(j, end);
                let (_, stop) = self.braced_or_semi(j, end, false);
                (self.node(at, ItemKind::Fn, name, Vec::new(), stop), stop)
            }
            "struct" | "enum" | "union" => {
                let name = self.name_after(j, end);
                let (_, stop) = self.braced_or_semi(j, end, false);
                (self.node(at, ItemKind::Type, name, Vec::new(), stop), stop)
            }
            "use" => {
                let stop = self.to_semi(j, end);
                (self.node(at, ItemKind::Use, String::new(), Vec::new(), stop), stop)
            }
            "extern" => {
                // `extern crate name;` or `extern "C" { ... }`.
                if j + 1 < end && self.txt(j + 1) == "crate" {
                    let stop = self.to_semi(j, end);
                    (self.node(at, ItemKind::Use, self.name_after(j + 1, end), Vec::new(), stop), stop)
                } else {
                    let (children, stop) = self.braced_or_semi(j, end, true);
                    (self.node(at, ItemKind::ExternBlock, String::new(), children, stop), stop)
                }
            }
            "static" => {
                let stop = self.to_semi(j, end);
                let name_at = if j + 1 < end && self.txt(j + 1) == "mut" { j + 1 } else { j };
                (self.node(at, ItemKind::Static, self.name_after(name_at, end), Vec::new(), stop), stop)
            }
            "const" => {
                let stop = self.to_semi(j, end);
                (self.node(at, ItemKind::Const, self.name_after(j, end), Vec::new(), stop), stop)
            }
            "type" => {
                let stop = self.to_semi(j, end);
                (self.node(at, ItemKind::TypeAlias, self.name_after(j, end), Vec::new(), stop), stop)
            }
            "macro_rules" => {
                // `macro_rules! name { ... }` (no trailing `;` for `{}`).
                let name = if j + 2 < end && self.txt(j + 1) == "!" {
                    self.txt(j + 2).to_string()
                } else {
                    String::new()
                };
                let (_, stop) = self.braced_or_semi(j, end, false);
                (self.node(at, ItemKind::MacroDef, name, Vec::new(), stop), stop)
            }
            _ if self.kind(j) == TokenKind::Ident
                && j + 1 < end
                && self.txt(j + 1) == "!" =>
            {
                // Macro invocation in item position: `name! { ... }`,
                // `path::name! ( ... );`. Skip the path tail first.
                let name = self.txt(j).to_string();
                let mut k = j + 2;
                // `name! ident` (e.g. `macro_rules`-style declarators) —
                // an optional single ident before the delimiter.
                if k < end && self.kind(k) == TokenKind::Ident {
                    k += 1;
                }
                let stop = if k < end && self.txt(k) == "{" {
                    self.matching(k, end).min(end.saturating_sub(1)) + 1
                } else if k < end && (self.txt(k) == "(" || self.txt(k) == "[") {
                    let close = self.matching(k, end);
                    let mut stop = close.min(end.saturating_sub(1)) + 1;
                    if stop < end && self.txt(stop) == ";" {
                        stop += 1;
                    }
                    stop
                } else {
                    k.min(end)
                };
                (self.node(at, ItemKind::MacroInvocation, name, Vec::new(), stop), stop)
            }
            _ => {
                // Not an item start: keep the single token as a leaf so
                // spans still tile the file.
                (self.node(at, ItemKind::Other, String::new(), Vec::new(), j + 1), j + 1)
            }
        }
    }

    /// The first identifier after position `j` (the declared name).
    fn name_after(&self, j: usize, end: usize) -> String {
        if j + 1 < end && self.kind(j + 1) == TokenKind::Ident {
            self.txt(j + 1).to_string()
        } else if j + 1 < end && self.txt(j + 1) == "_" {
            "_".to_string()
        } else {
            String::new()
        }
    }

    /// Scans from keyword position `j` to the item's end: the matching
    /// `}` of the first body brace at delimiter depth 0, or a `;` before
    /// any brace. With `recurse`, the body's contents are parsed as
    /// child items. Returns `(children, index after the item)`.
    fn braced_or_semi(&mut self, j: usize, end: usize, recurse: bool) -> (Vec<Item>, usize) {
        let mut depth = 0usize;
        let mut k = j;
        while k < end {
            match self.txt(k) {
                "{" if depth == 0 => {
                    if recurse {
                        let (children, stopped) = self.parse_items(k + 1, end);
                        // parse_items stops at the closing `}` (or end).
                        let after = if stopped < end { stopped + 1 } else { end };
                        return (children, after);
                    }
                    let close = self.matching(k, end);
                    return (Vec::new(), close.min(end.saturating_sub(1)) + 1);
                }
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => return (Vec::new(), k + 1),
                _ => {}
            }
            k += 1;
        }
        (Vec::new(), end)
    }

    /// Scans to the `;` ending a brace-less item (brace/paren/bracket
    /// groups along the way are skipped whole, so `use a::{b, c};` and
    /// initializer expressions with blocks stay inside the item).
    fn to_semi(&self, j: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut k = j;
        while k < end {
            match self.txt(k) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        return k; // closes the enclosing body: stop before it
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => return k + 1,
                _ => {}
            }
            k += 1;
        }
        end
    }

    /// Index of the token matching the opening delimiter at `open`
    /// (any of `(`/`[`/`{`); `end` if unbalanced.
    fn matching(&self, open: usize, end: usize) -> usize {
        let mut depth = 0usize;
        for k in open..end {
            match self.txt(k) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
        end
    }

    /// The item opened at `at` whose last significant token is `stop - 1`.
    fn node(
        &self,
        at: ItemStart,
        kind: ItemKind,
        name: String,
        children: Vec<Item>,
        stop: usize,
    ) -> Item {
        let ItemStart { byte: start, line, test_attr } = at;
        Item { kind, name, start, end: self.end_at(stop, start), line, test_attr, children }
    }

    /// Byte end of the item whose last significant token is `stop - 1`.
    fn end_at(&self, stop: usize, start: usize) -> usize {
        if stop == 0 {
            return start;
        }
        if stop > self.sig.len() {
            return self.text.len();
        }
        self.end_of(stop - 1).max(start)
    }
}

/// Whether the attribute body in `(open, close)` (significant indices
/// just inside `[` and `]`) gates on test compilation. `#[test]` and
/// path attributes whose last segment is `test` count; `#[cfg(...)]`
/// counts when the predicate mentions `test` outside any `not(...)`.
fn attr_is_test(p: &Parser<'_>, open: usize, close: usize) -> bool {
    if open >= close {
        return false;
    }
    // The attribute's leading path: idents separated by `::`.
    let mut path_end = open;
    let mut last_segment = String::new();
    while path_end < close {
        if p.kind(path_end) == TokenKind::Ident {
            last_segment = p.txt(path_end).to_string();
            path_end += 1;
            if path_end + 1 < close && p.txt(path_end) == ":" && p.txt(path_end + 1) == ":" {
                path_end += 2;
                continue;
            }
        }
        break;
    }
    if last_segment == "test" {
        return true; // #[test], #[tokio::test]
    }
    if last_segment != "cfg" {
        return false;
    }
    // Scan the cfg predicate for `test` outside `not(...)`.
    let mut not_depths: Vec<usize> = Vec::new();
    let mut depth = 0usize;
    let mut k = path_end;
    while k < close {
        match p.txt(k) {
            "(" => {
                depth += 1;
                // Did an ident `not` immediately precede this paren?
                if k > open && p.txt(k - 1) == "not" {
                    not_depths.push(depth);
                }
            }
            ")" => {
                if not_depths.last() == Some(&depth) {
                    not_depths.pop();
                }
                depth = depth.saturating_sub(1);
            }
            "test" if p.kind(k) == TokenKind::Ident && not_depths.is_empty() => {
                // `test` as a bare predicate, not the value of `feature = "..."`
                // (values are string literals, so an Ident here is a predicate).
                return true;
            }
            _ => {}
        }
        k += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree(src: &str) -> ItemTree {
        let tokens = lex(src);
        let sig: Vec<usize> = (0..tokens.len())
            .filter(|&i| {
                !matches!(
                    tokens[i].kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .collect();
        ItemTree::parse(src, &tokens, &sig)
    }

    #[test]
    fn parses_basic_items() {
        let src = "use std::fmt;\n\
                   pub fn live() -> u32 { if true { 1 } else { 2 } }\n\
                   pub struct S { pub x: u32 }\n\
                   impl S { fn m(&self) {} }\n\
                   mod inner { pub const K: u32 = 1; }\n";
        let t = tree(src);
        let kinds: Vec<ItemKind> = t.items.iter().map(|i| i.kind).collect();
        assert_eq!(
            kinds,
            vec![ItemKind::Use, ItemKind::Fn, ItemKind::Type, ItemKind::Impl, ItemKind::Mod]
        );
        assert_eq!(t.items[1].name, "live");
        assert_eq!(t.items[3].children.len(), 1);
        assert_eq!(t.items[3].children[0].name, "m");
        assert_eq!(t.items[4].children[0].kind, ItemKind::Const);
        assert_eq!(t.items[4].children[0].name, "K");
    }

    #[test]
    fn cfg_test_marks_but_cfg_not_test_does_not() {
        let src = "#[cfg(test)]\nmod tests { fn t() {} }\n\
                   #[cfg(not(test))]\nfn live_only() {}\n\
                   #[cfg(all(test, feature = \"x\"))]\nfn gated() {}\n";
        let t = tree(src);
        assert!(t.items[0].test_attr, "cfg(test) mod");
        assert!(!t.items[1].test_attr, "cfg(not(test)) is live code");
        assert!(t.items[2].test_attr, "cfg(all(test, ...))");
    }

    #[test]
    fn nested_mod_spans_cover_children() {
        let src = "#[cfg(test)]\nmod tests {\n  mod deep { fn a() { x.unwrap(); } }\n  #[test]\n  fn t() {}\n}\nfn live() {}\n";
        let t = tree(src);
        let spans = t.test_spans();
        assert_eq!(spans.len(), 1, "outer mod covers everything nested");
        let unwrap_at = src.find("x.unwrap").unwrap();
        let live_at = src.find("fn live").unwrap();
        assert!(spans[0].0 <= unwrap_at && unwrap_at < spans[0].1);
        assert!(!(spans[0].0 <= live_at && live_at < spans[0].1));
    }

    #[test]
    fn macro_invocations_and_defs_are_items() {
        let src = "thread_local! { static X: u32 = 0; }\n\
                   macro_rules! m { () => {}; }\n\
                   proptest! { #[test] fn p() {} }\n";
        let t = tree(src);
        assert_eq!(t.items[0].kind, ItemKind::MacroInvocation);
        assert_eq!(t.items[0].name, "thread_local");
        assert_eq!(t.items[1].kind, ItemKind::MacroDef);
        assert_eq!(t.items[1].name, "m");
        assert_eq!(t.items[2].kind, ItemKind::MacroInvocation);
    }

    #[test]
    fn finds_named_modules() {
        let src = "pub mod reference { pub fn compute() {} }\n";
        let t = tree(src);
        let m = t.find(ItemKind::Mod, "reference").expect("found");
        assert_eq!(m.children.len(), 1);
        assert!(t.find(ItemKind::Mod, "dense").is_none());
    }

    #[test]
    fn static_and_braceless_items_end_at_semicolon() {
        let src = "static mut COUNTER: u64 = 0;\ntype Alias = Vec<u32>;\nfn after() {}\n";
        let t = tree(src);
        assert_eq!(t.items[0].kind, ItemKind::Static);
        assert_eq!(t.items[0].name, "COUNTER");
        assert_eq!(t.items[1].kind, ItemKind::TypeAlias);
        assert_eq!(t.items[2].name, "after");
    }
}
