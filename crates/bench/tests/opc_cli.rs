//! `opc`'s command line, pinned: the stdout of every successful run below
//! must match its file in `tests/opc_cli/` byte for byte, and every usage
//! error exits 2 with the subcommand's `opc <sub>: ` prefix on stderr.
//! Runs use a fresh calibration (`OPC_CAL_CACHE=0`), so a stale snapshot
//! on disk cannot mask a change.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/opc_cli")
}

/// Runs `opc args` in the fixture directory, feeding `stdin` if given.
fn opc(args: &[&str], stdin: Option<&str>) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_opc"))
        .args(args)
        .current_dir(fixtures())
        .env("OPC_CAL_CACHE", "0")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn opc");
    let mut pipe = child.stdin.take().expect("stdin");
    if let Some(text) = stdin {
        pipe.write_all(text.as_bytes()).expect("write program");
    }
    drop(pipe);
    child.wait_with_output().expect("opc runs")
}

fn assert_stdout(golden: &str, args: &[&str], stdin: Option<&str>) {
    let out = opc(args, stdin);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "opc {args:?}: {stderr}");
    let want = std::fs::read_to_string(fixtures().join(golden)).expect("golden");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        want,
        "opc {args:?} stdout differs from {golden}"
    );
}

#[test]
fn bare_opc_stdout_is_pinned() {
    let program = std::fs::read_to_string(fixtures().join("bell.qasm")).expect("program");
    assert_stdout(
        "bare_file.txt",
        &["--run", "--shots", "200", "--seed", "5", "bell.qasm"],
        None,
    );
    assert_stdout("bare_stdin.txt", &["--optimized-only"], Some(&program));
    assert_stdout("bare_standard.txt", &["--standard-only", "bell.qasm"], None);
}

#[test]
fn compile_stdout_is_pinned() {
    assert_stdout("compile_default.txt", &["compile", "bell.qasm"], None);
    assert_stdout(
        "compile_flags.txt",
        &[
            "compile",
            "--mode",
            "standard",
            "--shots",
            "300",
            "--seed",
            "3",
            "--noiseless",
            "--no-verify",
            "--trajectories",
            "8",
            "bell.qasm",
        ],
        None,
    );
}

#[test]
fn verify_stdout_is_pinned() {
    assert_stdout(
        "verify_smoke.txt",
        &["verify", "--tier", "smoke", "--device-seed", "3"],
        None,
    );
}

#[test]
fn in_process_submit_stdout_is_pinned() {
    assert_stdout(
        "submit.txt",
        &["submit", "--shots", "100", "bell.qasm"],
        None,
    );
    assert_stdout(
        "submit_flags.txt",
        &[
            "submit",
            "--standard",
            "--noiseless",
            "--seed",
            "3",
            "--device-seed",
            "5",
            "--shots",
            "100",
            "--device",
            "almaden",
            "--qubits",
            "3",
            "bell.qasm",
        ],
        None,
    );
}

#[test]
fn usage_errors_exit_2_with_the_subcommand_prefix() {
    for (prefix, args) in [
        ("", &["--shots", "many"][..]),
        ("", &["--seed"][..]),
        ("", &["--bogus"][..]),
        (
            "opc compile: ",
            &["compile", "--shots", "x", "bell.qasm"][..],
        ),
        (
            "opc compile: ",
            &["compile", "--mode", "fast", "bell.qasm"][..],
        ),
        ("opc compile: ", &["compile", "--bogus", "bell.qasm"][..]),
        ("opc compile: ", &["compile"][..]),
        ("opc corpus: ", &["corpus", "--seed", "x"][..]),
        ("opc corpus: ", &["corpus", "--tier", "huge"][..]),
        ("opc corpus: ", &["corpus", "--bogus"][..]),
        ("opc verify: ", &["verify", "--device-seed", "x"][..]),
        ("opc verify: ", &["verify", "--tier"][..]),
        ("opc verify: ", &["verify", "--bogus"][..]),
        (
            "opc submit: ",
            &["submit", "--qubits", "x", "bell.qasm"][..],
        ),
        (
            "opc submit: ",
            &["submit", "--device", "eagle", "bell.qasm"][..],
        ),
        ("opc submit: ", &["submit", "--bogus", "bell.qasm"][..]),
        ("opc submit: ", &["submit"][..]),
        // `serve` must refuse before it binds a socket.
        ("opc serve: ", &["serve", "--workers", "x"][..]),
        ("opc serve: ", &["serve", "--addr"][..]),
        ("opc serve: ", &["serve", "--bogus"][..]),
    ] {
        let out = opc(args, None);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "opc {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "opc {args:?} wrote stdout");
        assert!(
            stderr.len() > prefix.len() && stderr.starts_with(prefix),
            "opc {args:?}: unexpected stderr: {stderr}"
        );
    }
}
