//! `opc corpus --out DIR` creates DIR (parents included) before the run,
//! and reports a path it cannot create as an error instead of running
//! the corpus first.

use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn corpus_out_creates_missing_directories() {
    let out = scratch("opc-corpus-out").join("nested/report");
    let status = Command::new(env!("CARGO_BIN_EXE_opc"))
        .args(["corpus", "--tier", "smoke", "--out"])
        .arg(&out)
        .output()
        .expect("spawn opc");
    assert!(
        status.status.success(),
        "opc corpus failed: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    assert!(out.join("CORPUS_REPORT.json").is_file());
    assert!(out.join("CORPUS_REPORT.md").is_file());
}

#[test]
fn corpus_out_under_a_file_is_a_create_error() {
    let root = scratch("opc-corpus-out-file");
    std::fs::create_dir_all(&root).expect("scratch dir");
    let file = root.join("not-a-dir");
    std::fs::write(&file, "").expect("scratch file");
    let out = Command::new(env!("CARGO_BIN_EXE_opc"))
        .args(["corpus", "--out"])
        .arg(file.join("sub"))
        .output()
        .expect("spawn opc");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("opc corpus: create "),
        "unexpected stderr: {stderr}"
    );
}
