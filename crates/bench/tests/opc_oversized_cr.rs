//! An absurd `rzz` angle is a compile error from `opc`, not an abort: the
//! stretched CR pulse it would need is refused before any sample is
//! rendered (`LowerError::CrTooLong`, tagged with its pipeline stage),
//! and a large but sane angle still compiles.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn opc_optimized(program: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_opc"))
        .arg("--optimized-only")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn opc");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(program.as_bytes())
        .expect("write program");
    child.wait_with_output().expect("opc runs")
}

#[test]
fn oversized_rzz_is_a_compile_error() {
    let out = opc_optimized("qreg q[2];\nrzz(1e7) q[0],q[1];\n");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("Optimized compile error: lower: CR(") && stderr.contains("samples"),
        "unexpected stderr: {stderr}"
    );
    assert!(
        !stderr.contains("route first"),
        "not a coupling error: {stderr}"
    );
}

#[test]
fn rzz_100_still_compiles() {
    let out = opc_optimized("qreg q[2];\nrzz(100) q[0],q[1];\n");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
