//! `ambipla-analyze` — a dependency-free static analyzer for the
//! workspace's hand-rolled concurrency and untrusted-input paths.
//!
//! The compiler cannot check the invariants these layers rest on: the
//! SAFETY argument of an `unsafe impl`, the pairing of a Release store
//! with its Acquire load, the global order of nested lock
//! acquisitions, or the promise that the wire-parsing path never
//! panics. This crate lexes the workspace's Rust sources (no `syn`;
//! offline-honest like the rest of the shims) and enforces five rules
//! driven by the declarative policy table in [`policy`]:
//!
//! 1. `panic_freedom` — no `unwrap`/`expect`/`panic!`-family macros in
//!    non-test code of designated modules ([`policy::PANIC_POLICIES`]).
//! 2. `atomic_ordering` — every `Ordering::` site justified by comment
//!    or policy; `SeqCst` banned outside an allowlist; Release stores
//!    paired against Relaxed loads of the same field are flagged.
//! 3. `lock_order` — nested `.lock()`/`.read()`/`.write()`
//!    acquisitions form a cross-function lock-order graph; cycles fail.
//! 4. `unsafe_safety` — every `unsafe` needs `// SAFETY:` attached.
//! 5. `blocking_under_lock` — no blocking I/O, `recv()`, `join()` or
//!    `sleep` while a guard is live (a `Condvar` wait on that guard is
//!    exempt).
//!
//! Suppression is explicit and audited: `// analyze: allow(<rule>,
//! reason = "...")` — the reason is mandatory, and a malformed allow is
//! itself a finding (`allow_syntax`).

pub mod lexer;
pub mod policy;
pub mod report;
pub mod rules;
pub mod source;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use report::Finding;
use source::SourceFile;

/// Directory names never descended into when walking the workspace.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "fixtures", "node_modules"];

/// Recursively collect `.rs` files under `root`, skipping build
/// output, VCS metadata, and the analyzer's violation-seeded fixtures.
/// Deterministic (sorted) order.
pub fn collect_rust_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if !SKIP_DIRS.contains(&name) {
                    stack.push(path);
                }
            } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Workspace-relative display path with forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Load and analyze an explicit set of files; `root` anchors the
/// relative paths in findings and policy matching.
pub fn analyze_paths(root: &Path, paths: &[PathBuf]) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for p in paths {
        let text = fs::read_to_string(p)?;
        files.push(SourceFile::new(p.clone(), rel_path(root, p), text));
    }
    Ok(analyze_sources(&files))
}

/// Analyze every Rust source under `root`.
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let paths = collect_rust_files(root)?;
    analyze_paths(root, &paths)
}

/// Run all rules over an in-memory file set.
pub fn analyze_sources(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        rules::run_file_rules(f, &mut findings);
    }
    rules::locks::check(files, &mut findings);
    report::sort(&mut findings);
    findings
}

/// Locate the workspace root: walk up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_pipeline_end_to_end() {
        let src = "\
fn f() {\n\
    let x = y.unwrap();\n\
    unsafe { boom() };\n\
}\n";
        let files = vec![SourceFile::new(
            PathBuf::from("crates/net/src/protocol.rs"),
            "crates/net/src/protocol.rs".into(),
            src.into(),
        )];
        let findings = analyze_sources(&files);
        assert_eq!(findings.len(), 2, "{:?}", findings);
        assert_eq!(findings[0].rule, "panic_freedom");
        assert_eq!(findings[1].rule, "unsafe_safety");
    }
}
