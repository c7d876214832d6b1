//! Regression tests for the trajectory executor's determinism contract.
//!
//! The contract mirrors the shot engine's: one jitter RNG drawn once per
//! job, one root `u64` plus a `stream_seed(root, index)` RNG stream per
//! trajectory means the returned counts depend only on
//! `(program, jitter, shots, root)` — **never** on the
//! thread count, and not on whether the fused fast path or the
//! retained reference path (skip-scan state-vector kernels,
//! clone-per-branch channel sampling) did the work.
//! These tests pin that down so a kernel or scheduler change cannot
//! silently reorder randomness, and check the ensemble still converges to
//! the exact density-matrix distribution.
//!
//! The fast route is gate fusion: it replays a hoisted plan but spends
//! every random draw at the same program point with the same (to
//! rounding) branch weights, so its counts must match the reference route
//! bit-for-bit at a fixed root. CI runs this suite at `OPC_THREADS={1,4}`;
//! the tests below also pin explicit pool sizes regardless of the ambient
//! knob.

use quant_device::{
    calibrate, Block, DeviceModel, ExecError, LoweredProgram, PulseExecutor, ShotPool,
    TrajectoryExecutor,
};
use quant_math::seeded;
use quant_pulse::Schedule;
use rand::Rng;

/// An entangling line program on `n` qubits: X on qubit 0, then a CNOT
/// chain down the line — every 1Q, 2Q, relaxation and readout path runs.
fn line_program(device: &DeviceModel, n: u32) -> LoweredProgram {
    let mut rng = seeded(42);
    let cal = calibrate(device, &mut rng);
    let mut blocks = vec![Block::Gate1Q {
        qubit: 0,
        waveforms: vec![cal.qubit(0).rx180_waveform("x")],
    }];
    for q in 0..n - 1 {
        blocks.push(Block::Gate2Q {
            control: q,
            target: q + 1,
            schedule: cal.cmd_def().get("cx", &[q, q + 1]).unwrap().clone(),
        });
    }
    LoweredProgram {
        num_qubits: n,
        blocks,
        schedule: Schedule::new("line"),
    }
}

#[test]
fn counts_identical_across_thread_counts() {
    let mut rng = seeded(7);
    let device = DeviceModel::almaden_like(3, &mut rng);
    let program = line_program(&device, 3);
    let exec = TrajectoryExecutor::new(&device, 8);

    let root = 0xD1CE;
    let shots = 2000;
    let reference = exec
        .try_run_pooled(&program, &mut seeded(root), shots, root, &ShotPool::new(1))
        .unwrap();
    assert_eq!(reference.iter().sum::<u64>(), shots as u64);
    for threads in [2, 4] {
        let counts = exec
            .try_run_pooled(
                &program,
                &mut seeded(root),
                shots,
                root,
                &ShotPool::new(threads),
            )
            .unwrap();
        assert_eq!(
            counts, reference,
            "{threads}-thread trajectory counts diverged from serial"
        );
    }
}

#[test]
fn kernel_path_reproduces_reference_counts_bit_identically() {
    // The fast path reassociates float arithmetic two ways — fused
    // block kernels and branch weighing against a reduced density — so
    // amplitudes may differ from the reference route at the ulp level.
    // But every stochastic draw consumes the same RNG stream in the same
    // order, so at a fixed root the sampled counts must be bit-identical
    // (an outcome flip would need a uniform draw within ~1e-12 of a
    // branch/cdf boundary).
    let mut rng = seeded(23);
    let device = DeviceModel::almaden_like(3, &mut rng);
    let program = line_program(&device, 3);

    let fast = TrajectoryExecutor::new(&device, 6);
    let slow = TrajectoryExecutor::new(&device, 6).with_reference_path();
    for root in [1u64, 0xFEED, 0x5EED_CAFE] {
        let a = fast
            .try_run_pooled(&program, &mut seeded(root), 1500, root, &ShotPool::new(4))
            .unwrap();
        let b = slow
            .try_run_pooled(&program, &mut seeded(root), 1500, root, &ShotPool::new(1))
            .unwrap();
        assert_eq!(a, b, "kernel swap changed the counts at root {root:#x}");
    }
}

#[test]
fn fused_route_matches_reference_at_any_thread_count() {
    // The strongest form of the contract: at a fixed root, the fused
    // plan-replay route and the reference route must return the same
    // counts, and the fused route must not care how many threads replay
    // the plan. The program mixes 1Q gates,
    // a CNOT chain (block growth + merge + close) and an explicit idle
    // (a relaxation table entry no gate emits).
    let mut rng = seeded(47);
    let device = DeviceModel::almaden_like(4, &mut rng);
    let mut program = line_program(&device, 4);
    program.blocks.push(Block::Idle {
        qubit: 1,
        duration: 3_000,
    });

    let shots = 1800;
    for root in [0x00DD_5EED_u64, 0xFACE] {
        let fused = TrajectoryExecutor::new(&device, 6)
            .try_run_pooled(&program, &mut seeded(root), shots, root, &ShotPool::new(1))
            .unwrap();
        assert_eq!(fused.iter().sum::<u64>(), shots as u64);
        for threads in [2, 4] {
            let threaded = TrajectoryExecutor::new(&device, 6)
                .try_run_pooled(
                    &program,
                    &mut seeded(root),
                    shots,
                    root,
                    &ShotPool::new(threads),
                )
                .unwrap();
            assert_eq!(
                threaded, fused,
                "{threads}-thread fused counts diverged at root {root:#x}"
            );
        }
        let reference = TrajectoryExecutor::new(&device, 6)
            .with_reference_path()
            .try_run_pooled(&program, &mut seeded(root), shots, root, &ShotPool::new(1))
            .unwrap();
        assert_eq!(
            fused, reference,
            "fused counts diverged from the reference path at root {root:#x}"
        );
    }
}

#[test]
fn uncoupled_pair_reported_as_error_not_panic() {
    let mut rng = seeded(31);
    let device = DeviceModel::almaden_like(3, &mut rng);
    let mut program = line_program(&device, 3);
    // Re-address the last CNOT to (0, 2) — not an edge of the line.
    if let Some(Block::Gate2Q {
        control, target, ..
    }) = program.blocks.last_mut()
    {
        *control = 0;
        *target = 2;
    }
    let exec = TrajectoryExecutor::new(&device, 4);
    let err = exec
        .try_run_pooled(
            &program,
            &mut seeded(1),
            100,
            seeded(1).gen(),
            &ShotPool::from_env(),
        )
        .expect_err("uncoupled pair must be an error");
    assert!(matches!(
        err,
        ExecError::UncoupledPair {
            control: 0,
            target: 2
        }
    ));
}

#[test]
fn every_route_reports_a_topology_error_at_any_shot_count() {
    // The error comes from the program, not from the sampling: a run
    // with zero shots still walks the whole program, on every route.
    let mut rng = seeded(37);
    let device = DeviceModel::almaden_like(3, &mut rng);
    let mut program = line_program(&device, 3);
    if let Some(Block::Gate2Q { target, .. }) = program.blocks.get_mut(1) {
        *target = 2;
    }
    let want = ExecError::UncoupledPair {
        control: 0,
        target: 2,
    };
    let routes = [
        TrajectoryExecutor::new(&device, 4),
        TrajectoryExecutor::new(&device, 4).with_reference_path(),
    ];
    for (route, exec) in ["fused", "reference"].iter().zip(&routes) {
        for shots in [0, 100] {
            let got = exec.try_run_pooled(&program, &mut seeded(9), shots, 9, &ShotPool::new(1));
            assert_eq!(got, Err(want), "{route} route at {shots} shots");
        }
    }
}

#[test]
fn ensemble_converges_to_density_matrix_distribution() {
    // Statistical cross-check against the exact density-matrix executor on
    // a register small enough for both: the 3-qubit entangling line. The
    // two executors walk the same timeline with the same jitter draws and
    // the same integrated pulses, but share no state evolution, so
    // agreement here is an end-to-end physics check of the whole fast
    // path (branch sampling, leakage handling, readout error).
    let mut rng = seeded(2);
    let device = DeviceModel::almaden_like(3, &mut rng);
    let program = line_program(&device, 3);

    let dm = PulseExecutor::new(&device)
        .try_run(&program, &mut seeded(5))
        .expect("program runs");
    let traj = TrajectoryExecutor::new(&device, 128);
    let counts = traj
        .try_run_pooled(
            &program,
            &mut seeded(5),
            64_000,
            seeded(6).gen(),
            &ShotPool::from_env(),
        )
        .unwrap();
    let total: u64 = counts.iter().sum();
    assert_eq!(total, 64_000);
    for (i, (&c, &p)) in counts.iter().zip(&dm.probabilities).enumerate() {
        let freq = c as f64 / total as f64;
        assert!(
            (freq - p).abs() < 0.03,
            "outcome {i}: trajectory {freq:.3} vs density {p:.3}"
        );
    }
}
