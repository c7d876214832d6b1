//! Regression tests for the trajectory executor's determinism contract.
//!
//! The contract mirrors the shot engine's: one jitter RNG drawn once per
//! job, one root `u64` plus a `stream_seed(root, index)` RNG stream per
//! trajectory means the returned counts depend only on
//! `(program, jitter, shots, root)` — **never** on the
//! thread count. These tests pin that down so a kernel or scheduler
//! change cannot silently reorder randomness, and check the ensemble still
//! converges to the exact density-matrix distribution. CI runs this suite
//! at `OPC_THREADS={1,4}`; the tests below also pin explicit pool sizes
//! regardless of the ambient knob.
//!
//! The fused replay's counts against an event-by-event oracle at a fixed
//! root are pinned by the `oracle` tests inside `src/trajectory.rs`.

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
fn topology_error_is_reported_at_any_shot_count() {
    // The error comes from the program, not from the sampling: a run
    // with zero shots still walks the whole program.
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
    let exec = TrajectoryExecutor::new(&device, 4);
    for shots in [0, 100] {
        let got = exec.try_run_pooled(&program, &mut seeded(9), shots, 9, &ShotPool::new(1));
        assert_eq!(got, Err(want), "{shots} shots");
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
