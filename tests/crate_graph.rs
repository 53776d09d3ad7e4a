//! The workspace's crate graph has no dead edges and a leaf instrument.
//!
//! Every `pvr-*` dependency a package declares must be named (as
//! `pvr_…`) in some `.rs` file of that package outside comments: an
//! edge nothing uses still compiles the dependency and everything below
//! it. And `pvr-obs` declares no `pvr-*` dependency at all, so every
//! layer can report through it without compiling another layer.

use std::fs;
use std::path::{Path, PathBuf};

/// The `pvr-*` names declared in a manifest's dependency tables
/// (`[dependencies]`, `[dev-dependencies]`, `[build-dependencies]`),
/// in file order.
fn declared_pvr_deps(manifest: &str) -> Vec<String> {
    let mut in_deps = false;
    let mut out = Vec::new();
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = matches!(
                line,
                "[dependencies]" | "[dev-dependencies]" | "[build-dependencies]"
            );
            continue;
        }
        if !in_deps || !line.starts_with("pvr-") {
            continue;
        }
        let end = line.find(['.', ' ', '=']).unwrap_or(line.len());
        out.push(line[..end].to_string());
    }
    out
}

/// Every `.rs` file under `dir`, skipping the directories in `skip`.
fn rust_files(dir: &Path, skip: &[PathBuf], out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if !skip.contains(&path) {
                rust_files(&path, skip, out);
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `src` with its `//` comments (doc comments included) cut off. The
/// workspace writes no `/* … */` comments.
fn strip_comments(src: &str) -> String {
    src.lines()
        .map(|line| line.find("//").map_or(line, |at| &line[..at]))
        .collect::<Vec<_>>()
        .join("\n")
}

/// `(package, dependency)` for every declared `pvr-*` dependency of the
/// package at `dir` (its `Cargo.toml`) that no `.rs` file of the package
/// names outside comments.
fn unused_edges(dir: &Path, skip: &[PathBuf]) -> Vec<(String, String)> {
    let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
    let package = manifest
        .lines()
        .find_map(|l| l.trim().strip_prefix("name = "))
        .map(|n| n.trim_matches('"').to_string())
        .expect("a package name");
    let mut files = Vec::new();
    rust_files(dir, skip, &mut files);
    let code: Vec<String> = files
        .iter()
        .map(|f| strip_comments(&fs::read_to_string(f).unwrap()))
        .collect();
    declared_pvr_deps(&manifest)
        .into_iter()
        .filter(|dep| {
            let ident = dep.replace('-', "_");
            !code.iter().any(|c| c.contains(&ident))
        })
        .map(|dep| (package.clone(), dep))
        .collect()
}

fn workspace_packages(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

#[test]
fn every_declared_crate_edge_is_used() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // The root package owns src/, tests/ and examples/; the other
    // packages, the frozen benchmark and build output are not its files.
    let not_root = ["crates", "benchmark", "target", ".git"].map(|d| root.join(d));
    let mut unused = unused_edges(root, &not_root);
    for dir in workspace_packages(root) {
        unused.extend(unused_edges(&dir, &[dir.join("target")]));
    }
    assert!(
        unused.is_empty(),
        "declared dependencies no source file names (package -> dependency): {unused:?}"
    );
}

#[test]
fn pvr_obs_depends_on_no_workspace_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = fs::read_to_string(root.join("crates/obs/Cargo.toml")).unwrap();
    let deps = declared_pvr_deps(&manifest);
    assert!(
        deps.is_empty(),
        "pvr-obs is the instrument every layer reports through; it declares {deps:?}"
    );
}

#[test]
fn the_scan_sees_through_comments_and_manifest_forms() {
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\npvr-a.workspace = true\n\
                    pvr-b = { path = \"../b\" }\nrayon.workspace = true\n\n\
                    [workspace.dependencies]\npvr-c = { path = \"c\" }\n\n\
                    [dev-dependencies]\npvr-d.workspace = true\n";
    assert_eq!(declared_pvr_deps(manifest), ["pvr-a", "pvr-b", "pvr-d"]);
    let src = "//! uses pvr_a\nuse pvr_b::X; // and pvr_c\n/// pvr_d\nfn f() {}\n";
    let code = strip_comments(src);
    assert!(code.contains("pvr_b"));
    for hidden in ["pvr_a", "pvr_c", "pvr_d"] {
        assert!(!code.contains(hidden), "{hidden} is only in a comment");
    }
}
