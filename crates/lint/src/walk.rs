//! Workspace discovery: which `.rs` files to lint and under which
//! [`FileCtx`].
//!
//! Scope — *library code only*: `crates/*/src/**` plus the root package's
//! `src/**`. Integration tests, examples and benches are intentionally
//! outside the net: they are consumers of the library invariants, not
//! carriers of them (and the determinism suites *want* wall-clock and
//! unseeded randomness in places). `#[cfg(test)]` modules inside library
//! files are excluded token-precisely by the rule engine instead.

use crate::rules::FileCtx;
use std::fs;
use std::path::{Path, PathBuf};

/// One file scheduled for linting.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Workspace-relative path used in findings.
    pub rel: String,
    /// Owning crate (the `panic-budget` key).
    pub ctx: FileCtx,
}

/// Walks up from `start` to the enclosing workspace root (the directory
/// whose `Cargo.toml` declares `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = start
        .canonicalize()
        .map_err(|e| format!("cannot resolve {}: {e}", start.display()))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(format!(
                "no workspace Cargo.toml found above {}",
                start.display()
            ));
        }
    }
}

/// Reads the `name = "…"` of a crate's `Cargo.toml`.
fn package_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                let v = rest.trim().trim_matches('"');
                if !v.is_empty() {
                    return Some(v.to_string());
                }
            }
        }
    }
    None
}

/// Collects every library source file of the workspace at `root`.
pub fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    // Member crates: crates/*/src.
    let crates_dir = root.join("crates");
    let mut members: Vec<PathBuf> = Vec::new();
    match fs::read_dir(&crates_dir) {
        Ok(entries) => {
            for entry in entries.flatten() {
                let p = entry.path();
                if p.is_dir() && p.join("Cargo.toml").is_file() {
                    members.push(p);
                }
            }
        }
        Err(e) => return Err(format!("cannot read {}: {e}", crates_dir.display())),
    }
    members.sort();
    for member in members {
        let name = package_name(&member.join("Cargo.toml"))
            .ok_or_else(|| format!("no package name in {}", member.join("Cargo.toml").display()))?;
        let ctx = FileCtx { crate_name: name };
        push_rs_files(root, &member.join("src"), &ctx, &mut files)?;
    }
    // The root package's own src/.
    if let Some(name) = package_name(&root.join("Cargo.toml")) {
        let ctx = FileCtx { crate_name: name };
        push_rs_files(root, &root.join("src"), &ctx, &mut files)?;
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

/// Recursively adds `dir`'s `.rs` files under `ctx`.
fn push_rs_files(
    root: &Path,
    dir: &Path,
    ctx: &FileCtx,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        // A crate without src/ (or an unreadable dir) is not our error
        // to report; cargo will complain better than we can.
        Err(_) => return Ok(()),
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            push_rs_files(root, &p, ctx, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile {
                path: p,
                rel,
                ctx: ctx.clone(),
            });
        }
    }
    Ok(())
}
