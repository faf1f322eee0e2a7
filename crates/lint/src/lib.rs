//! # linkpad-lint
//!
//! Workspace static analysis for the invariants the compiler does not
//! check and the property tests only sample: bit-identical
//! reset/shard determinism, the `Node::reset` override contract,
//! `// SAFETY:` audits, run-path panic-freedom, and the `#[cold]`
//! outlining discipline on watchdog/fault helpers.
//!
//! Dependency-free by design (a hand-rolled tokenizer instead of `syn`):
//! the workspace builds offline, and the linter must not share a
//! dependency graph with the code it audits.
//!
//! Layout:
//! * [`tokenizer`] — the lightweight Rust lexer;
//! * [`rules`] — the rule implementations over one file;
//! * [`allowlist`] — the checked-in, justification-required exception
//!   file;
//! * this module — the workspace walker and the `check` driver the CLI
//!   and the self-tests share.
//!
//! See DESIGN.md §Static analysis for the rule catalog and the policy on
//! adding exceptions.

pub mod allowlist;
pub mod rules;
pub mod tokenizer;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use allowlist::Allowlist;
use rules::{FileContext, UnsafeSite, Violation};

/// Path of the allowlist, relative to the workspace root.
pub const ALLOWLIST_PATH: &str = "crates/lint/workspace.allow";
/// Path of the cold-fn list, relative to the workspace root.
pub const COLD_LIST_PATH: &str = "crates/lint/cold_fns.list";
/// Path of the generated unsafe inventory, relative to the workspace root.
pub const INVENTORY_PATH: &str = "crates/lint/UNSAFE_INVENTORY.md";

/// Files where `RP_PANIC` applies: the modules a million-flow sharded
/// run cannot afford to panic in (typed errors or documented infallible
/// patterns only).
pub const RUN_PATH_FILES: &[&str] = &[
    "crates/core/src/gateway.rs",
    "crates/sim/src/cohort.rs",
    "crates/sim/src/engine.rs",
    "crates/sim/src/equeue.rs",
    "crates/sim/src/fault.rs",
    "crates/sim/src/hooks.rs",
    "crates/sim/src/observer.rs",
    "crates/sim/src/router.rs",
    "crates/sim/src/source.rs",
    "crates/sim/src/tap.rs",
    "crates/sim/src/trunk.rs",
    "crates/workloads/src/aggregate.rs",
    "crates/workloads/src/shard.rs",
    "crates/workloads/src/scenario.rs",
];

/// Every `.rs` file the lint walks, as workspace-relative `/`-separated
/// paths, sorted. Covers all non-`compat` crates plus the facade crate's
/// `src`, `tests`, and `examples`; skips `target` and fixture corpora.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if name == "compat" || !entry.file_type()?.is_dir() {
                continue;
            }
            collect_rs(&entry.path(), root, &mut out)?;
        }
    }
    for top in ["src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let fname = entry.file_name();
        if entry.file_type()?.is_dir() {
            // `fixtures` holds deliberately-bad lint corpora; `target`
            // holds build output.
            if fname != "fixtures" && fname != "target" {
                collect_rs(&path, root, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Is this a crate `src/` file (as opposed to an integration test,
/// example, or bench fixture)? The determinism and node-reset rules only
/// apply here: integration tests and examples may time and poke freely.
fn is_library_source(rel: &str) -> bool {
    rel.starts_with("src/")
        || (rel.starts_with("crates/")
            && rel
                .splitn(3, '/')
                .nth(2)
                .is_some_and(|r| r.starts_with("src/")))
}

/// Parse `cold_fns.list`: `path | fn_name` per line, `#` comments.
pub fn parse_cold_list(text: &str) -> Result<BTreeMap<String, Vec<String>>, String> {
    let mut map: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(2, '|').map(str::trim);
        let (path, name) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        if path.is_empty() || name.is_empty() {
            return Err(format!(
                "cold list line {}: expected `path/to/file.rs | fn_name`",
                i + 1
            ));
        }
        map.entry(path.to_string())
            .or_default()
            .push(name.to_string());
    }
    Ok(map)
}

/// The full `check` result.
pub struct CheckReport {
    /// Violations not covered by the allowlist (including `ALLOW_STALE`
    /// and inventory-drift findings). Empty means the gate passes.
    pub violations: Vec<Violation>,
    /// How many raw findings the allowlist excused.
    pub allowed: usize,
    /// How many files were scanned.
    pub files: usize,
}

/// Run the whole workspace check rooted at `root`.
pub fn check_workspace(root: &Path) -> Result<CheckReport, String> {
    let allow_text = fs::read_to_string(root.join(ALLOWLIST_PATH))
        .map_err(|e| format!("{ALLOWLIST_PATH}: {e}"))?;
    let mut allow = Allowlist::parse(&allow_text)?;
    let cold_text = fs::read_to_string(root.join(COLD_LIST_PATH))
        .map_err(|e| format!("{COLD_LIST_PATH}: {e}"))?;
    let cold = parse_cold_list(&cold_text)?;

    let files = workspace_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut violations = Vec::new();
    let mut allowed = 0usize;
    for rel in &files {
        let src = fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
        let empty = Vec::new();
        let ctx = FileContext {
            rel_path: rel,
            determinism: is_library_source(rel),
            run_path: RUN_PATH_FILES.contains(&rel.as_str()),
            node_reset: is_library_source(rel),
            cold_fns: cold.get(rel).unwrap_or(&empty),
        };
        for v in rules::lint_file(&src, &ctx) {
            if allow.allows(&v) {
                allowed += 1;
            } else {
                violations.push(v);
            }
        }
    }

    // Cold-list entries pointing at files the walk never saw would
    // otherwise silently rot.
    for path in cold.keys() {
        if !files.iter().any(|f| f == path) {
            violations.push(Violation {
                file: COLD_LIST_PATH.to_string(),
                line: 1,
                rule: "COLD_ATTR",
                message: format!("cold list names `{path}`, which the walk did not find"),
                line_text: String::new(),
            });
        }
    }

    for e in allow.unused() {
        violations.push(Violation {
            file: ALLOWLIST_PATH.to_string(),
            line: e.source_line,
            rule: "ALLOW_STALE",
            message: format!(
                "allowlist entry `{} | {} | {}` matched nothing; remove it",
                e.rule, e.path_frag, e.line_frag
            ),
            line_text: String::new(),
        });
    }

    // The committed unsafe inventory must match a fresh scan.
    let fresh = render_inventory(root)?;
    match fs::read_to_string(root.join(INVENTORY_PATH)) {
        Ok(committed) if committed == fresh => {}
        Ok(_) | Err(_) => violations.push(Violation {
            file: INVENTORY_PATH.to_string(),
            line: 1,
            rule: "UNSAFE_SAFETY",
            message: "unsafe inventory is stale or missing; regenerate with \
                      `cargo run -p linkpad-lint -- inventory --write`"
                .to_string(),
            line_text: String::new(),
        }),
    }

    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(CheckReport {
        violations,
        allowed,
        files: files.len(),
    })
}

/// Scan the workspace for `unsafe` sites.
pub fn collect_inventory(root: &Path) -> Result<Vec<UnsafeSite>, String> {
    let files = workspace_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut sites = Vec::new();
    for rel in &files {
        let src = fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
        sites.extend(rules::unsafe_inventory(&src, rel));
    }
    Ok(sites)
}

/// Render the inventory markdown exactly as committed at
/// [`INVENTORY_PATH`].
pub fn render_inventory(root: &Path) -> Result<String, String> {
    let sites = collect_inventory(root)?;
    let mut out = String::from(
        "# Unsafe inventory\n\n\
         Generated by `cargo run -p linkpad-lint -- inventory --write`.\n\
         `linkpad-lint check` fails when this file is out of date, so the\n\
         audit below is always current.\n\n",
    );
    if sites.is_empty() {
        out.push_str(
            "**No unsafe sites.** Every non-`compat` crate carries\n\
             `#![forbid(unsafe_code)]`; the slab-arena event queue and the\n\
             parallel harness are written in safe Rust. Any future `unsafe`\n\
             must appear here with a `// SAFETY:` comment (rule\n\
             `UNSAFE_SAFETY`).\n",
        );
    } else {
        out.push_str("| file | line | kind | `// SAFETY:` |\n|---|---|---|---|\n");
        for s in &sites {
            out.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                s.file,
                s.line,
                s.kind,
                if s.documented { "yes" } else { "**missing**" }
            ));
        }
    }
    Ok(out)
}

/// Locate the workspace root: an explicit `--root`, else the lint
/// crate's own manifest dir walked up to the workspace `Cargo.toml`,
/// else the current directory.
pub fn find_root(explicit: Option<&str>) -> PathBuf {
    if let Some(r) = explicit {
        return PathBuf::from(r);
    }
    let start = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|_| std::env::current_dir())
        .unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = start.as_path();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file()
            && fs::read_to_string(&manifest)
                .map(|t| t.contains("[workspace]"))
                .unwrap_or(false)
        {
            return dir.to_path_buf();
        }
        match dir.parent() {
            Some(p) => dir = p,
            None => return start,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_source_classification() {
        assert!(is_library_source("crates/sim/src/engine.rs"));
        assert!(is_library_source("crates/bench/src/bin/queue_probe.rs"));
        assert!(is_library_source("src/lib.rs"));
        assert!(!is_library_source(
            "crates/workloads/tests/reset_determinism.rs"
        ));
        assert!(!is_library_source("tests/end_to_end_detection.rs"));
        assert!(!is_library_source("examples/quickstart.rs"));
    }

    #[test]
    fn cold_list_parses_and_rejects_garbage() {
        let map = parse_cold_list("# c\ncrates/sim/src/engine.rs | run_until_guarded\n").unwrap();
        assert_eq!(map["crates/sim/src/engine.rs"], vec!["run_until_guarded"]);
        assert!(parse_cold_list("no-pipe-here\n").is_err());
    }
}
