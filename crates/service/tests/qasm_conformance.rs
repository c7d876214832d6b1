//! Frontend conformance: `opc submit` (the service path) must accept and
//! reject exactly the QASM dialect `opc compile` (the `quant-corpus`
//! pipeline) accepts — both are thin wrappers over `quant_circuit::qasm`,
//! and this suite pins them together over the shared fixture tree in
//! `crates/circuit/tests/fixtures/qasm/` so the two frontends can't
//! drift: every bad fixture must be rejected by `submit` with the *same*
//! typed `QasmError` (line, column, message — `PartialEq` is bit-equal),
//! and every valid fixture must be accepted by both.
//!
//! The service is built with `workers: 0` and jobs are never driven, so
//! this exercises the submit-time resolve path only — no calibration, no
//! execution.

use quant_circuit::qasm;
use quant_service::{CompileService, DeviceKind, DeviceSpec, JobSpec, ServiceConfig, ServiceError};
use std::path::{Path, PathBuf};

/// The fixture tree shared with `crates/circuit/tests/qasm_negative.rs`.
fn fixtures(kind: &str) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../circuit/tests/fixtures/qasm")
        .join(kind);
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "qasm"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no fixtures under {}", dir.display());
    paths
}

fn service() -> CompileService {
    let cfg = ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    };
    CompileService::new(cfg).expect("service start")
}

fn job_for(source: &str) -> JobSpec {
    // 10 qubits covers every fixture width and stays at the service's
    // 10-qubit ceiling.
    JobSpec::qasm(
        DeviceSpec::new(DeviceKind::Almaden, 10, 42),
        source.to_string(),
    )
}

#[test]
fn service_rejects_exactly_what_the_parser_rejects() {
    let svc = service();
    for path in fixtures("bad") {
        let text = std::fs::read_to_string(&path).expect("read fixture");
        let parser_err = qasm::parse(&text).expect_err("bad fixture must fail direct parse");
        match svc.submit(job_for(&text)) {
            Err(ServiceError::Parse(service_err)) => assert_eq!(
                service_err,
                parser_err,
                "{}: service and parser errors drifted",
                path.display()
            ),
            Err(other) => panic!(
                "{}: expected Parse rejection, got {other:?}",
                path.display()
            ),
            Ok(_) => panic!(
                "{}: service accepted a program the parser rejects",
                path.display()
            ),
        }
    }
}

#[test]
fn service_accepts_exactly_what_the_parser_accepts() {
    let svc = service();
    for path in fixtures("valid") {
        let text = std::fs::read_to_string(&path).expect("read fixture");
        let circuit = qasm::parse(&text)
            .unwrap_or_else(|e| panic!("{}: parser rejected: {e}", path.display()));
        let ticket = svc
            .submit(job_for(&text))
            .unwrap_or_else(|e| panic!("{}: service rejected: {e:?}", path.display()));
        drop(ticket); // never driven: submit-time acceptance is the contract
        assert!(circuit.num_qubits() <= 10, "{}", path.display());
    }
}
