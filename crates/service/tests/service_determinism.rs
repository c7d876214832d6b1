//! Service-level guarantees: bit-identical results at any worker count,
//! single-computation dedup, typed backpressure, and 4xx-style rejection
//! of bad input. The service reads no environment: `workers` sizes the
//! job workers, the core budget a job's execution borrows helper threads
//! from, and each shard's tune-up pool, so
//! `results_bit_identical_at_any_worker_count` (0 workers driven by
//! `run_pending`, then 1, 2 and 4) varies execution fan-out, job
//! concurrency and tune-up fan-out together.

use pulse_compiler::CompileMode;
use quant_circuit::Circuit;
use quant_service::{CompileService, DeviceKind, DeviceSpec, JobSpec, ServiceConfig};

fn service(workers: usize) -> CompileService {
    service_with(workers, ServiceConfig::default())
}

fn service_with(workers: usize, mut cfg: ServiceConfig) -> CompileService {
    cfg.workers = workers;
    CompileService::new(cfg).expect("service start")
}

/// A mixed job set: two devices, both compile modes, parameterized and
/// plain programs, QASM and IR sources.
fn job_set() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for (k, mode) in [(1, CompileMode::Standard), (2, CompileMode::Optimized)] {
        let mut job = JobSpec::qasm(
            DeviceSpec::new(DeviceKind::Armonk, 1, 42),
            format!("qreg q[1]; rx({k}*pi/3) q[0];"),
        );
        job.mode = mode;
        job.shots = 500;
        job.seed = 11 + k as u64;
        jobs.push(job);
    }
    for k in 0..3u32 {
        let mut job = JobSpec::qasm(
            DeviceSpec::new(DeviceKind::Almaden, 2, 43),
            format!("qreg q[2]; h q[0]; cx q[0], q[1]; rz({}*pi/8) q[1];", k + 1),
        );
        job.shots = 400;
        job.seed = 21 + k as u64;
        jobs.push(job);
    }
    let mut bell = Circuit::new(2);
    bell.h(0).cnot(0, 1);
    let mut job = JobSpec::ir(DeviceSpec::new(DeviceKind::Almaden, 2, 43), bell);
    job.shots = 300;
    job.noisy = false;
    jobs.push(job);
    jobs
}

fn run_all(workers: usize) -> Vec<(u64, Vec<u64>, u64, f64)> {
    let svc = service(workers);
    let tickets: Vec<_> = job_set()
        .into_iter()
        .map(|job| svc.submit(job).expect("submit"))
        .collect();
    if workers == 0 {
        // The calling thread runs every job, each on its own core alone.
        assert_eq!(svc.run_pending(), 2, "one batch per device shard");
    }
    tickets
        .into_iter()
        .map(|t| {
            let out = t.wait().expect("job result");
            (out.key, out.counts.clone(), out.duration_dt, out.fidelity)
        })
        .collect()
}

#[test]
fn results_bit_identical_at_any_worker_count() {
    // 2 is opcbench's width; at 2 and 4 a lone job borrows the idle
    // workers' cores.
    let serial = run_all(0);
    for workers in [1, 2, 4] {
        let got = run_all(workers);
        assert_eq!(serial.len(), got.len(), "{workers} workers");
        for (i, (a, b)) in serial.iter().zip(&got).enumerate() {
            assert_eq!(a.0, b.0, "{workers} workers, job {i}: key");
            assert_eq!(a.1, b.1, "{workers} workers, job {i}: counts");
            assert_eq!(a.2, b.2, "{workers} workers, job {i}: duration");
            assert_eq!(
                a.3.to_bits(),
                b.3.to_bits(),
                "{workers} workers, job {i}: fidelity bits"
            );
        }
    }
}

#[test]
fn identical_jobs_compile_once() {
    // workers: 0 → nothing executes until `run_pending`, so all eight
    // submissions are in the queue/dedup structures when work starts —
    // the in-flight coalescing path, with no scheduler race.
    let svc = service(0);
    let job = JobSpec::qasm(
        DeviceSpec::new(DeviceKind::Armonk, 1, 7),
        "qreg q[1]; h q[0];",
    );
    let tickets: Vec<_> = (0..8)
        .map(|_| svc.submit(job.clone()).expect("submit"))
        .collect();
    assert!(!tickets[0].deduped());
    assert!(tickets[1..].iter().all(|t| t.deduped()));
    assert_eq!(svc.run_pending(), 1, "one queued computation");
    let outputs: Vec<_> = tickets.iter().map(|t| t.wait().expect("result")).collect();
    let stats = svc.stats();
    assert_eq!(stats.compiles, 1, "one compile for eight submissions");
    assert_eq!(stats.dedup_hits, 7);
    assert_eq!(stats.submitted, 1);
    for out in &outputs[1..] {
        assert!(
            std::sync::Arc::ptr_eq(&outputs[0], out),
            "deduped tickets share one output allocation"
        );
    }

    // A ninth submission after completion hits the result memo instead.
    let memo_ticket = svc.submit(job).expect("submit");
    assert!(memo_ticket.deduped());
    assert_eq!(svc.stats().dedup_hits, 8);
    assert_eq!(svc.stats().compiles, 1);
    assert_eq!(
        memo_ticket.wait().expect("memo result").counts,
        outputs[0].counts
    );
}

#[test]
fn threaded_duplicates_also_compile_once() {
    // The same property with real workers: duplicates either coalesce
    // in-flight or hit the memo, but the compile count stays 1.
    let svc = service(4);
    let job = JobSpec::qasm(
        DeviceSpec::new(DeviceKind::Armonk, 1, 9),
        "qreg q[1]; rx(pi/5) q[0];",
    );
    let tickets: Vec<_> = (0..8)
        .map(|_| svc.submit(job.clone()).expect("submit"))
        .collect();
    let first = tickets[0].wait().expect("result");
    for t in &tickets[1..] {
        assert_eq!(t.wait().expect("result").counts, first.counts);
    }
    let stats = svc.stats();
    assert_eq!(stats.compiles, 1);
    assert_eq!(stats.dedup_hits, 7);
}

#[test]
fn full_queue_overloads_with_a_typed_error() {
    let svc = service_with(
        0,
        ServiceConfig {
            queue_capacity: 2,
            ..ServiceConfig::default()
        },
    );
    let job = |k: u64| {
        let mut j = JobSpec::qasm(
            DeviceSpec::new(DeviceKind::Armonk, 1, 7),
            "qreg q[1]; x q[0];",
        );
        j.seed = k; // distinct keys, so dedup cannot absorb them
        j
    };
    svc.submit(job(1)).expect("first fits");
    svc.submit(job(2)).expect("second fits");
    match svc.submit(job(3)) {
        Err(quant_service::ServiceError::Overloaded { capacity }) => {
            assert_eq!(capacity, 2)
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(svc.stats().overloads, 1);
    // Draining frees the queue; the next submission is accepted. Both
    // jobs share a device shard, so they drain as one batch.
    assert_eq!(svc.run_pending(), 1);
    assert_eq!(svc.stats().completed, 2);
    assert_eq!(svc.stats().batches, 1);
    svc.submit(job(3)).expect("fits after drain");
}

#[test]
fn bad_programs_are_rejected_before_queueing() {
    let svc = service(0);
    let submit_src = |src: &str| {
        svc.submit(JobSpec::qasm(
            DeviceSpec::new(DeviceKind::Almaden, 2, 7),
            src,
        ))
    };
    match submit_src("qreg q[2]; frobnicate q[0];") {
        Err(quant_service::ServiceError::Parse(e)) => {
            assert_eq!(e.line, 1);
            assert!(e.column > 1);
            assert!(e.message.contains("frobnicate"));
        }
        other => panic!("expected Parse error, got {other:?}"),
    }
    assert!(matches!(
        submit_src("qreg q[2]; cx q[0], q[0];"),
        Err(quant_service::ServiceError::Parse(_))
    ));
    // Wider than the device.
    assert!(matches!(
        submit_src("qreg q[5]; x q[4];"),
        Err(quant_service::ServiceError::InvalidRequest(_))
    ));
    // Wider than the service cap.
    let wide = svc.submit(JobSpec::qasm(
        DeviceSpec::new(DeviceKind::Almaden, 64, 7),
        "qreg q[64]; x q[0];",
    ));
    assert!(matches!(
        wide,
        Err(quant_service::ServiceError::InvalidRequest(_))
    ));
    // Zero shots.
    let mut zero = JobSpec::qasm(
        DeviceSpec::new(DeviceKind::Armonk, 1, 7),
        "qreg q[1]; x q[0];",
    );
    zero.shots = 0;
    assert!(matches!(
        svc.submit(zero),
        Err(quant_service::ServiceError::InvalidRequest(_))
    ));
    // Nothing reached the queue.
    assert_eq!(svc.stats().submitted, 0);
    assert_eq!(svc.run_pending(), 0);
}

#[test]
fn width_and_shot_limits_sit_at_ten_qubits_and_two_to_the_twenty() {
    let svc = service(0);
    let on = |qubits: u32, shots: usize| {
        let mut job = JobSpec::qasm(
            DeviceSpec::new(DeviceKind::Almaden, qubits, 7),
            "qreg q[1]; x q[0];",
        );
        job.shots = shots;
        svc.submit(job)
    };
    assert!(on(10, 1).is_ok(), "a 10-qubit device is servable");
    match on(11, 1) {
        Err(quant_service::ServiceError::InvalidRequest(msg)) => {
            assert!(msg.contains("limit 10"), "{msg}")
        }
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
    assert!(on(2, 1 << 20).is_ok(), "2^20 shots are servable");
    match on(2, (1 << 20) + 1) {
        Err(quant_service::ServiceError::InvalidRequest(msg)) => {
            assert!(msg.contains(&(1u64 << 20).to_string()), "{msg}")
        }
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
    assert_eq!(svc.stats().submitted, 2);
}

#[test]
fn result_memo_keeps_the_last_512_completed_jobs() {
    let svc = service(0);
    let job = |seed: u64| {
        let mut j = JobSpec::qasm(
            DeviceSpec::new(DeviceKind::Armonk, 1, 7),
            "qreg q[1]; x q[0];",
        );
        j.shots = 1;
        j.noisy = false;
        j.seed = seed;
        j
    };
    for seed in 0..513 {
        assert!(!svc.submit(job(seed)).expect("distinct job").deduped());
        svc.run_pending();
    }
    assert_eq!(svc.stats().completed, 513);
    // The memo is FIFO over completions: the oldest fell out, the newest
    // is answered without queueing.
    assert!(svc.submit(job(512)).expect("newest").deduped());
    assert!(!svc.submit(job(0)).expect("oldest").deduped());
}

#[test]
fn uncoupled_pairs_come_back_as_compile_errors() {
    // A CZ between qubits 0 and 2 on a 3-qubit line: no direct coupling,
    // and the service's compiler does not route — the job must fail as a
    // value, not a panic.
    let svc = service(1);
    let mut c = Circuit::new(3);
    c.push(quant_circuit::Gate::Cz, &[0, 2]);
    let ticket = svc
        .submit(JobSpec::ir(DeviceSpec::new(DeviceKind::Almaden, 3, 7), c))
        .expect("submits fine");
    match ticket.wait() {
        Err(quant_service::ServiceError::Compile(msg)) => {
            assert!(!msg.is_empty());
        }
        other => panic!("expected Compile error, got {other:?}"),
    }
}

#[test]
fn oversized_cr_angles_come_back_as_compile_errors() {
    // rzz(1e7) would need a ~5·10⁹-sample CR pulse: lowering refuses it
    // before rendering, so the job fails as a value and the service keeps
    // serving.
    let svc = service(1);
    let job = |theta: &str| {
        let mut job = JobSpec::qasm(
            DeviceSpec::new(DeviceKind::Almaden, 2, 7),
            format!("qreg q[2]; rzz({theta}) q[0],q[1];"),
        );
        job.mode = CompileMode::Optimized;
        job.shots = 100;
        job
    };
    let ticket = svc.submit(job("1e7")).expect("submits fine");
    match ticket.wait() {
        Err(quant_service::ServiceError::Compile(msg)) => {
            assert!(msg.contains("samples"), "{msg}");
        }
        other => panic!("expected Compile error, got {other:?}"),
    }
    let ticket = svc.submit(job("0.5")).expect("submits fine");
    assert!(ticket.wait().is_ok(), "the service still runs jobs");
}

#[test]
fn wire_round_trip_through_in_process_service() {
    // The opc serve/submit path without a socket: request bytes in,
    // response bytes out, exact fidelity bits back.
    use std::io::BufReader;
    let svc = service(1);
    let job = JobSpec::qasm(
        DeviceSpec::new(DeviceKind::Almaden, 2, 7),
        "qreg q[2]; h q[0]; cx q[0], q[1];",
    );
    let mut request = Vec::new();
    quant_service::wire::write_request(&mut request, &job).expect("serialize");
    let mut reader = BufReader::new(&request[..]);
    let mut response = Vec::new();
    quant_service::wire::serve_connection(&mut reader, &mut response, &svc).expect("serve");
    let parsed =
        quant_service::wire::read_response(&mut BufReader::new(&response[..])).expect("parse");
    let direct = svc.submit(job).expect("submit").wait().expect("result");
    match parsed {
        quant_service::wire::WireResponse::Ok(out) => {
            assert_eq!(out.counts, direct.counts);
            assert_eq!(out.fidelity.to_bits(), direct.fidelity.to_bits());
            assert_eq!(out.key, direct.key);
        }
        quant_service::wire::WireResponse::Error(kind, msg) => {
            panic!("wire error {kind}: {msg}")
        }
    }
    // The wire submission already computed it; the direct one deduped.
    assert_eq!(svc.stats().compiles, 1);
}

#[test]
fn shutdown_fails_queued_jobs_instead_of_hanging() {
    let svc = service(0);
    let ticket = svc
        .submit(JobSpec::qasm(
            DeviceSpec::new(DeviceKind::Armonk, 1, 7),
            "qreg q[1]; x q[0];",
        ))
        .expect("submit");
    drop(svc);
    assert!(matches!(
        ticket.wait(),
        Err(quant_service::ServiceError::ShutDown)
    ));
}
