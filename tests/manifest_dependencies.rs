//! Every dependency a workspace crate declares is used: a manifest line
//! whose crate the package's `src/`, `tests/` and `examples/` never
//! name is a dead edge that only costs build time and lock churn.

use std::fs;
use std::path::{Path, PathBuf};

/// The dependency names a manifest declares under `[dependencies]`,
/// `[dev-dependencies]` and `[build-dependencies]`.
fn declared(manifest: &str) -> Vec<String> {
    let mut in_deps = false;
    let mut names = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = matches!(
                line,
                "[dependencies]" | "[dev-dependencies]" | "[build-dependencies]"
            );
        } else if in_deps && !line.is_empty() && !line.starts_with('#') {
            let name = line
                .split(|c: char| c == '.' || c == '=' || c.is_whitespace())
                .next()
                .expect("split yields at least one piece");
            names.push(name.to_string());
        }
    }
    names
}

/// Every `.rs` file under `dir`, recursively (none if `dir` is absent).
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether `ident` occurs in `text` as a whole identifier (so `abg`
/// does not match inside `abg_dag`).
fn mentions(text: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(ident).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + ident.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

/// The names `declared` in the manifest of the package at `dir` that no
/// Rust file under its `src/`, `tests/` or `examples/` mentions.
fn unused(dir: &Path) -> Vec<String> {
    let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("readable manifest");
    let mut files = Vec::new();
    for sub in ["src", "tests", "examples"] {
        rust_files(&dir.join(sub), &mut files);
    }
    let sources: Vec<String> = files
        .iter()
        .map(|f| fs::read_to_string(f).expect("readable source"))
        .collect();
    declared(&manifest)
        .into_iter()
        .filter(|dep| {
            // Code names crate `abg-alloc` as `abg_alloc`.
            let ident = dep.replace('-', "_");
            !sources.iter().any(|s| mentions(s, &ident))
        })
        .collect()
}

#[test]
fn every_crate_uses_every_dependency_it_declares() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut dirs: Vec<PathBuf> = fs::read_dir(&crates)
        .expect("crates/ exists")
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    assert!(dirs.len() >= 10, "found only {dirs:?}");
    let dead: Vec<String> = dirs
        .iter()
        .flat_map(|dir| {
            let name = dir.file_name().unwrap().to_string_lossy().into_owned();
            unused(dir)
                .into_iter()
                .map(move |dep| format!("crates/{name} declares `{dep}` but never uses it"))
        })
        .collect();
    assert!(
        dead.is_empty(),
        "dead dependency edges:\n{}",
        dead.join("\n")
    );
}

#[test]
fn the_scan_sees_what_it_should() {
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\nabg-dag.workspace = true\n\
                    rand = { version = \"0.10\" }\n\n[dev-dependencies]\nproptest.workspace = true\n\
                    \n[[bin]]\nname = \"y\"\n";
    assert_eq!(declared(manifest), ["abg-dag", "rand", "proptest"]);
    assert!(mentions("use abg::experiments;", "abg"));
    assert!(!mentions("use abg_dag::TaskId;", "abg"));
    assert!(mentions("abg_dag::TaskId", "abg_dag"));
    assert!(!mentions("my_rand()", "rand"));
}
