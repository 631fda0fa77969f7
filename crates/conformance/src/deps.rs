//! The workspace graph layer: every crate's `Cargo.toml` parsed into a
//! crate-dependency DAG.
//!
//! The `deterministic-closure` rule proves over this graph that the
//! `DETERMINISTIC_CRATES` list is closed under path dependencies — a
//! deterministic crate can never silently grow a nondeterministic
//! dependency, and the manifest markers
//! (`[package.metadata.conformance] deterministic = true`) can never
//! drift from the list the token rules enforce.
//!
//! The parser covers exactly the TOML subset this workspace uses:
//! `[section]` headers, `key = "string"`, `key = true`, and single-line
//! inline tables (`key = { workspace = true }`, `key = { path = "…" }`).
//! Only `[dependencies]` entries feed the graph — dev-dependencies
//! never ship in the serving path, so they carry no closure obligation.

use std::collections::BTreeMap;
use std::path::Path;

/// How one dependency entry is declared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepSpec {
    /// `{ workspace = true }` — resolved through the root
    /// `[workspace.dependencies]` table.
    Workspace,
    /// `{ path = "..." }` — resolved relative to the declaring manifest.
    Path(String),
    /// Anything else (a registry version). This workspace has none; the
    /// closure rule flags one appearing in a deterministic crate.
    External,
}

/// One `[dependencies]` entry of one manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dep {
    /// The dependency name as written in the manifest.
    pub name: String,
    /// The graph key of the package it resolves to (`None` for
    /// [`DepSpec::External`] or an unresolvable path).
    pub key: Option<String>,
    pub spec: DepSpec,
    /// 1-based line of the entry in the manifest.
    pub line: u32,
}

/// One workspace member (or the root package).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CratePackage {
    /// Graph key: `crates/<dir>` → `<dir>`, `vendor/<dir>` →
    /// `vendor/<dir>`, root package → its package name. Matches
    /// [`crate::source::SourceFile::crate_name`] for workspace members.
    pub key: String,
    /// Directory relative to the workspace root (`""` for the root).
    pub dir: String,
    /// The `[package] name` (may differ from the key: `crates/core` is
    /// package `arachnet`).
    pub package: String,
    /// `[package.metadata.conformance] deterministic = true`.
    pub deterministic: bool,
    /// Whether this is a vendored stand-in under `vendor/`.
    pub vendored: bool,
    /// Manifest path relative to the workspace root.
    pub manifest: String,
    pub deps: Vec<Dep>,
}

/// The parsed crate-dependency DAG.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrateGraph {
    /// All packages, sorted by key.
    pub packages: Vec<CratePackage>,
    /// Manifest problems (unresolvable workspace deps, unreadable
    /// files). The closure rule surfaces these as findings rather than
    /// silently analyzing a partial graph.
    pub errors: Vec<GraphError>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphError {
    /// Manifest path relative to the workspace root.
    pub manifest: String,
    pub message: String,
}

impl CrateGraph {
    /// Parses the workspace rooted at `root` into a graph. Returns
    /// `None` when `root` has no `Cargo.toml` (fixture workspaces
    /// assembled from strings); manifest-level problems inside an
    /// existing workspace are collected in [`CrateGraph::errors`].
    pub fn load(root: &Path) -> Option<CrateGraph> {
        let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).ok()?;
        let mut graph = CrateGraph::default();
        let root_doc = Manifest::parse(&root_manifest);

        // Member manifests: crates/* and vendor/*, plus the root package.
        let mut members: Vec<(String, Manifest)> = Vec::new();
        if !root_doc.package_name.is_empty() {
            members.push((String::new(), root_doc.clone()));
        }
        for parent in ["crates", "vendor"] {
            let dir = root.join(parent);
            let Ok(entries) = std::fs::read_dir(&dir) else { continue };
            let mut names: Vec<String> = entries
                .filter_map(|e| e.ok())
                .filter(|e| e.path().join("Cargo.toml").is_file())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            for name in names {
                let rel = format!("{parent}/{name}");
                match std::fs::read_to_string(root.join(&rel).join("Cargo.toml")) {
                    Ok(text) => members.push((rel, Manifest::parse(&text))),
                    Err(e) => graph.errors.push(GraphError {
                        manifest: format!("{rel}/Cargo.toml"),
                        message: format!("unreadable manifest: {e}"),
                    }),
                }
            }
        }

        for (dir, doc) in &members {
            let manifest = if dir.is_empty() {
                "Cargo.toml".to_string()
            } else {
                format!("{dir}/Cargo.toml")
            };
            if doc.package_name.is_empty() {
                graph.errors.push(GraphError {
                    manifest,
                    message: "manifest has no [package] name".to_string(),
                });
                continue;
            }
            let key = dir_key(dir, &doc.package_name);
            let mut deps = Vec::new();
            for raw in &doc.deps {
                let (key_resolved, err) = resolve(raw, dir, &root_doc.workspace_deps);
                if let Some(message) = err {
                    graph.errors.push(GraphError { manifest: manifest.clone(), message });
                }
                deps.push(Dep {
                    name: raw.name.clone(),
                    key: key_resolved,
                    spec: raw.spec.clone(),
                    line: raw.line,
                });
            }
            graph.packages.push(CratePackage {
                key,
                dir: dir.clone(),
                package: doc.package_name.clone(),
                deterministic: doc.deterministic,
                vendored: dir.starts_with("vendor/"),
                manifest,
                deps,
            });
        }
        graph.packages.sort_by(|a, b| a.key.cmp(&b.key));
        graph.errors.sort_by(|a, b| (&a.manifest, &a.message).cmp(&(&b.manifest, &b.message)));
        Some(graph)
    }

    /// Looks a package up by graph key.
    pub fn package(&self, key: &str) -> Option<&CratePackage> {
        self.packages.iter().find(|p| p.key == key)
    }

    /// Whether the package behind `key` carries the deterministic
    /// manifest marker.
    pub fn is_deterministic(&self, key: &str) -> bool {
        self.package(key).is_some_and(|p| p.deterministic)
    }
}

/// Graph key for a member directory.
fn dir_key(dir: &str, package_name: &str) -> String {
    match dir.strip_prefix("crates/") {
        Some(name) => name.to_string(),
        None if dir.is_empty() => package_name.to_string(),
        None => dir.to_string(), // vendor/<name>
    }
}

/// Resolves one raw dependency to a graph key. Returns
/// `(key, error message)`.
fn resolve(
    raw: &RawDep,
    member_dir: &str,
    workspace_deps: &BTreeMap<String, String>,
) -> (Option<String>, Option<String>) {
    let path = match &raw.spec {
        DepSpec::Workspace => match workspace_deps.get(&raw.name) {
            Some(p) => p.clone(),
            None => {
                return (
                    None,
                    Some(format!(
                        "dependency `{}` says `workspace = true` but the root \
                         [workspace.dependencies] table has no such entry",
                        raw.name
                    )),
                )
            }
        },
        DepSpec::Path(p) => join_rel(member_dir, p),
        DepSpec::External => return (None, None),
    };
    (Some(dir_key(&path, &raw.name)), None)
}

/// Joins a manifest-relative path onto a root-relative member dir and
/// normalizes `..`/`.` components. `crates/bench` + `../..` → `""`.
fn join_rel(base: &str, rel: &str) -> String {
    let mut parts: Vec<&str> =
        base.split('/').filter(|s| !s.is_empty() && *s != ".").collect();
    for c in rel.split('/') {
        match c {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            other => parts.push(other),
        }
    }
    parts.join("/")
}

/// One parsed manifest (the subset the graph needs).
#[derive(Debug, Clone, Default)]
struct Manifest {
    package_name: String,
    deterministic: bool,
    deps: Vec<RawDep>,
    /// Root manifest only: `[workspace.dependencies]` name → path.
    workspace_deps: BTreeMap<String, String>,
}

#[derive(Debug, Clone)]
struct RawDep {
    name: String,
    spec: DepSpec,
    line: u32,
}

impl Manifest {
    fn parse(text: &str) -> Manifest {
        let mut doc = Manifest::default();
        let mut section = String::new();
        for (ix, raw_line) in text.lines().enumerate() {
            let line = strip_toml_comment(raw_line).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                section = header
                    .trim_start_matches('[')
                    .trim_end_matches(']')
                    .trim()
                    .to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else { continue };
            let key = key.trim().trim_matches('"');
            let value = value.trim();
            match section.as_str() {
                "package" if key == "name" => {
                    doc.package_name = unquote(value).to_string();
                }
                "package.metadata.conformance" if key == "deterministic" => {
                    doc.deterministic = value == "true";
                }
                "dependencies" => {
                    doc.deps.push(RawDep {
                        name: key.to_string(),
                        spec: parse_dep_value(value),
                        line: ix as u32 + 1,
                    });
                }
                "workspace.dependencies" => {
                    if let DepSpec::Path(p) = parse_dep_value(value) {
                        doc.workspace_deps.insert(key.to_string(), p);
                    }
                }
                _ => {}
            }
        }
        doc
    }
}

/// Classifies one dependency value: inline table with `workspace = true`
/// or `path = "…"`, else an external registry spec.
fn parse_dep_value(value: &str) -> DepSpec {
    if !value.starts_with('{') {
        return DepSpec::External;
    }
    let inner = value.trim_start_matches('{').trim_end_matches('}');
    let mut path: Option<String> = None;
    let mut workspace = false;
    // Split on commas outside quotes (paths here never contain commas,
    // but feature lists like `features = ["a", "b"]` do).
    for part in split_top_level(inner) {
        let Some((k, v)) = part.split_once('=') else { continue };
        match (k.trim(), v.trim()) {
            ("workspace", "true") => workspace = true,
            ("path", v) => path = Some(unquote(v).to_string()),
            _ => {}
        }
    }
    if workspace {
        DepSpec::Workspace
    } else if let Some(p) = path {
        DepSpec::Path(p)
    } else {
        DepSpec::External
    }
}

/// Splits an inline-table body on commas that are not inside `[...]` or
/// a quoted string.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth = depth.saturating_sub(1),
            ',' if !in_str && depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// Drops a `#` comment that is not inside a quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn unquote(s: &str) -> &str {
    s.trim().trim_matches('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_member_manifest() {
        let doc = Manifest::parse(
            "[package]\nname = \"world\"\nversion = \"0.1.0\"\n\n\
             [package.metadata.conformance]\ndeterministic = true\n\n\
             [dependencies]\nnet-model = { workspace = true }\n\
             serde = { workspace = true, features = [\"derive\"] }\n\n\
             [dev-dependencies]\nproptest = { workspace = true }\n",
        );
        assert_eq!(doc.package_name, "world");
        assert!(doc.deterministic);
        let names: Vec<&str> = doc.deps.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["net-model", "serde"], "dev-deps are ignored");
        assert!(doc.deps.iter().all(|d| d.spec == DepSpec::Workspace));
    }

    #[test]
    fn parses_workspace_table_and_path_deps() {
        let doc = Manifest::parse(
            "[workspace]\nmembers = [\"crates/*\"]\ndefault-members = [\".\", \"crates/*\"]\n\n\
             [workspace.dependencies]\nserde = { path = \"vendor/serde\" }\n\
             arachnet = { path = \"crates/core\" }\n\n\
             [package]\nname = \"root\"\n\n\
             [dependencies]\nlocal = { path = \"../..\" }\nregistry-dep = \"1.0\"\n",
        );
        assert_eq!(doc.workspace_deps.get("serde").unwrap(), "vendor/serde");
        assert_eq!(doc.workspace_deps.get("arachnet").unwrap(), "crates/core");
        assert_eq!(doc.deps[0].spec, DepSpec::Path("../..".to_string()));
        assert_eq!(doc.deps[1].spec, DepSpec::External);
    }

    #[test]
    fn path_join_normalizes() {
        assert_eq!(join_rel("crates/bench", "../.."), "");
        assert_eq!(join_rel("crates/bench", "../conformance"), "crates/conformance");
        assert_eq!(join_rel("", "vendor/serde"), "vendor/serde");
    }

    #[test]
    fn dir_keys_match_crate_name_convention() {
        assert_eq!(dir_key("crates/world", "world"), "world");
        assert_eq!(dir_key("crates/core", "arachnet"), "core");
        assert_eq!(dir_key("vendor/serde", "serde"), "vendor/serde");
        assert_eq!(dir_key("", "arachnet-repro"), "arachnet-repro");
    }
}
