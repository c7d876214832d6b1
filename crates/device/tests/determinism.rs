//! Regression tests for the parallel shot engine's determinism contract
//! and the pulse cache's drift invalidation.
//!
//! The contract: with per-index RNG streams (`seeded(seed ^ index)`),
//! results are **bit-identical** across thread counts and across
//! cache-on/cache-off runs. The density executor's pooled entry point
//! keeps the same contract: its jitter is drawn serially, so outcomes and
//! errors do not depend on the pool size. These tests pin that down so a
//! future scheduler or cache change cannot silently reorder randomness.

use quant_device::{
    calibrate, Block, Calibration, DeviceModel, ExecError, ExecOutcome, LoweredProgram,
    PulseExecutor, ShotPool,
};
use quant_math::seeded;
use quant_pulse::Schedule;
use rand::Rng;

/// An X-then-CNOT program on a 2-qubit device (exercises both the 1Q and
/// the 2Q integration paths, hence both cache key kinds).
fn bell_ish_program(device: &DeviceModel) -> LoweredProgram {
    let mut rng = seeded(42);
    let cal = calibrate(device, &mut rng);
    let cx = cal.cmd_def().get("cx", &[0, 1]).unwrap().clone();
    LoweredProgram {
        num_qubits: 2,
        blocks: vec![
            Block::Gate1Q {
                qubit: 0,
                waveforms: vec![cal.qubit(0).rx180_waveform("x")],
            },
            Block::Gate2Q {
                control: 0,
                target: 1,
                schedule: cx,
            },
        ],
        schedule: Schedule::new("bell-ish"),
    }
}

#[test]
fn sweep_results_identical_across_thread_counts() {
    let mut rng = seeded(9);
    let device = DeviceModel::almaden_like(2, &mut rng);
    let program = bell_ish_program(&device);

    // Each sweep point is an independent noisy execution keyed by its
    // index; probabilities must agree bit-for-bit at every thread count.
    let sweep = |pool: &ShotPool| -> Vec<Vec<f64>> {
        pool.map_indices(6, |i| {
            let exec = PulseExecutor::new(&device);
            let mut rng = seeded(0xABCD ^ i as u64);
            exec.try_run(&program, &mut rng)
                .expect("program runs")
                .probabilities
        })
    };
    let reference = sweep(&ShotPool::serial());
    for threads in [2, 8] {
        let probs = sweep(&ShotPool::new(threads));
        for (i, (a, b)) in reference.iter().zip(&probs).enumerate() {
            assert!(
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "sweep point {i} diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn counts_identical_cache_on_and_off() {
    let mut rng = seeded(13);
    let device = DeviceModel::almaden_like(2, &mut rng);
    let program = bell_ish_program(&device);

    let run_with_cache = |enabled: bool| -> (Vec<f64>, Vec<u64>) {
        device.pulse_cache().set_enabled(enabled);
        device.pulse_cache().invalidate();
        let exec = PulseExecutor::new(&device);
        // Two runs: jittered runs bypass the cache, so the second must not
        // see anything the first left behind, enabled or not.
        let _ = exec
            .try_run(&program, &mut seeded(21))
            .expect("program runs");
        let out = exec
            .try_run(&program, &mut seeded(21))
            .expect("program runs");
        (
            out.probabilities.clone(),
            out.sample_counts_deterministic(77, 4000),
        )
    };

    let (p_off, c_off) = run_with_cache(false);
    let (p_on, c_on) = run_with_cache(true);
    device.pulse_cache().set_enabled(true);
    assert!(
        p_off
            .iter()
            .zip(&p_on)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "cache changed the outcome distribution"
    );
    assert_eq!(c_off, c_on, "cache changed the sampled counts");
}

#[test]
fn cache_hits_repeated_noiseless_runs_and_drift_invalidates() {
    let mut rng = seeded(17);
    let mut device = DeviceModel::almaden_like(2, &mut rng);
    let program = bell_ish_program(&device);
    let exec = PulseExecutor::noiseless(&device);

    // Noiseless runs replay bit-identical pulses: the second run must be
    // answered entirely from the cache.
    device.pulse_cache().reset_stats();
    let first = exec
        .try_run(&program, &mut seeded(31))
        .expect("program runs");
    let after_first = device.pulse_cache().stats();
    assert!(
        after_first.misses > 0,
        "first run should populate the cache"
    );
    assert_eq!(after_first.hits, 0);
    let second = exec
        .try_run(&program, &mut seeded(31))
        .expect("program runs");
    let after_second = device.pulse_cache().stats();
    assert_eq!(
        after_second.misses, after_first.misses,
        "second noiseless run must not re-integrate"
    );
    assert_eq!(after_second.hits, after_first.misses);
    assert!(first
        .probabilities
        .iter()
        .zip(&second.probabilities)
        .all(|(a, b)| a.to_bits() == b.to_bits()));

    // Calibration drift mutates the execution-time physics: the cache is
    // flushed and the next run re-integrates against the new parameters.
    let before = device.pulse_cache().stats();
    assert!(before.entries > 0);
    device.redraw_drift(&mut seeded(99));
    let after_drift = device.pulse_cache().stats();
    assert_eq!(after_drift.entries, 0, "drift must flush the cache");
    assert_eq!(after_drift.generation, before.generation + 1);

    let exec = PulseExecutor::noiseless(&device);
    let third = exec
        .try_run(&program, &mut seeded(31))
        .expect("program runs");
    let stats = device.pulse_cache().stats();
    assert_eq!(
        stats.misses,
        after_drift.misses + after_first.misses,
        "post-drift run must re-integrate every pulse"
    );
    // And the physics actually changed — stale reuse would be invisible
    // otherwise.
    assert!(
        first
            .probabilities
            .iter()
            .zip(&third.probabilities)
            .any(|(a, b)| a.to_bits() != b.to_bits()),
        "drift should perturb the outcome distribution"
    );
}

/// Calibrates an `n`-qubit Almaden-like chain.
fn chain(n: usize, seed: u64) -> (DeviceModel, Calibration) {
    let mut rng = seeded(seed);
    let device = DeviceModel::almaden_like(n, &mut rng);
    let cal = calibrate(&device, &mut rng);
    (device, cal)
}

/// A Fig. 12-class program on an `n`-qubit chain: the block mix the
/// compiled benchmarks lower to. An rx90 layer, a CNOT ladder down the
/// chain and back up in the reverse direction, an idle, and a closing
/// block of two waveforms.
fn fig12_class_program(cal: &Calibration, n: u32) -> LoweredProgram {
    let cx = |c: u32, t: u32| Block::Gate2Q {
        control: c,
        target: t,
        schedule: cal.cmd_def().get("cx", &[c, t]).unwrap().clone(),
    };
    let mut blocks: Vec<Block> = (0..n)
        .map(|q| Block::Gate1Q {
            qubit: q,
            waveforms: vec![cal.qubit(q).rx90_waveform("sx")],
        })
        .collect();
    blocks.extend((0..n - 1).map(|q| cx(q, q + 1)));
    blocks.push(Block::Idle {
        qubit: 0,
        duration: 1_600,
    });
    blocks.extend((0..n - 1).rev().map(|q| cx(q + 1, q)));
    blocks.push(Block::Gate1Q {
        qubit: n - 1,
        waveforms: vec![
            cal.qubit(n - 1).rx180_waveform("x"),
            cal.qubit(n - 1).rx90_waveform("sx"),
        ],
    });
    LoweredProgram {
        num_qubits: n,
        blocks,
        schedule: Schedule::new("fig12-class"),
    }
}

/// Runs `program` and returns the outcome plus the next draw of the
/// jitter stream, which pins how much of the stream the run consumed.
fn run_with(
    exec: &PulseExecutor,
    program: &LoweredProgram,
    pool: Option<&ShotPool>,
) -> (Result<ExecOutcome, ExecError>, u64) {
    let mut rng = seeded(0x5EED);
    let out = match pool {
        Some(pool) => exec.try_run_pooled(program, &mut rng, pool),
        None => exec.try_run(program, &mut rng),
    };
    (out, rng.gen::<u64>())
}

fn bits(p: &[f64]) -> Vec<u64> {
    p.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn pooled_density_runs_match_serial_bit_for_bit() {
    for n in [2u32, 4, 6] {
        let (device, cal) = chain(n as usize, 40 + n as u64);
        let program = fig12_class_program(&cal, n);
        let executors = [
            ("noisy", PulseExecutor::new(&device)),
            ("noiseless", PulseExecutor::noiseless(&device)),
        ];
        for (name, exec) in &executors {
            let (serial, serial_next) = run_with(exec, &program, None);
            let serial = serial.expect("serial run");
            let serial_counts = serial.sample_counts_deterministic(0xC0DE, 4_000);
            for threads in [1, 2, 3, 4] {
                let pool = ShotPool::new(threads);
                let (pooled, pooled_next) = run_with(exec, &program, Some(&pool));
                let pooled = pooled.expect("pooled run");
                let what = format!("{name} n={n} at {threads} thread(s)");
                assert_eq!(
                    bits(&pooled.probabilities),
                    bits(&serial.probabilities),
                    "{what}: probabilities differ"
                );
                assert_eq!(
                    bits(&pooled.true_probabilities),
                    bits(&serial.true_probabilities),
                    "{what}: pre-readout probabilities differ"
                );
                assert_eq!(pooled.duration, serial.duration, "{what}: duration");
                assert_eq!(
                    pooled.sample_counts_deterministic(0xC0DE, 4_000),
                    serial_counts,
                    "{what}: counts differ"
                );
                assert_eq!(pooled_next, serial_next, "{what}: jitter stream drifted");
            }
        }
    }
}

#[test]
fn pooled_density_errors_match_serial() {
    // A jittered single-qubit block, then an uncoupled pair, then a second
    // topology error: both entry points must return the first error in
    // program order, after drawing the same jitter, without panicking.
    // (`DeviceModel` derives pairs and control channels from one edge
    // list, so a coupled pair without a channel cannot be built from the
    // public API; the reverse uncoupled pair stands in for it.)
    let (device, cal) = chain(3, 51);
    let program = LoweredProgram {
        num_qubits: 3,
        blocks: vec![
            Block::Gate1Q {
                qubit: 0,
                waveforms: vec![cal.qubit(0).rx180_waveform("x")],
            },
            Block::Gate2Q {
                control: 0,
                target: 2,
                schedule: cal.cmd_def().get("cx", &[0, 1]).unwrap().clone(),
            },
            Block::Gate2Q {
                control: 2,
                target: 0,
                schedule: cal.cmd_def().get("cx", &[1, 0]).unwrap().clone(),
            },
        ],
        schedule: Schedule::new("bad-topology"),
    };
    let want = ExecError::UncoupledPair {
        control: 0,
        target: 2,
    };
    let exec = PulseExecutor::new(&device);
    let (serial, serial_next) = run_with(&exec, &program, None);
    assert_eq!(serial.err(), Some(want));
    for threads in [1, 2, 4] {
        let (pooled, pooled_next) = run_with(&exec, &program, Some(&ShotPool::new(threads)));
        assert_eq!(pooled.err(), Some(want), "{threads} thread(s)");
        assert_eq!(
            pooled_next, serial_next,
            "{threads} thread(s): jitter stream"
        );
    }
    // Exactly the single-qubit block's one jitter draw precedes the
    // error: the uncoupled pair fails before drawing its own.
    let mut expected = seeded(0x5EED);
    let _ = quant_math::normal(&mut expected, 0.0, device.pulse_amp_jitter());
    assert_eq!(serial_next, expected.gen::<u64>());
}

#[test]
fn jittered_runs_bypass_the_pulse_cache() {
    let (mut device, cal) = chain(2, 61);
    let program = fig12_class_program(&cal, 2);
    let fresh = |device: &DeviceModel| {
        device.pulse_cache().invalidate();
        device.pulse_cache().reset_stats();
    };

    // Every jittered pulse is new, so a noisy run never looks one up and
    // never stores one.
    fresh(&device);
    for _ in 0..2 {
        PulseExecutor::new(&device)
            .try_run_pooled(&program, &mut seeded(3), &ShotPool::new(2))
            .expect("noisy run");
    }
    let stats = device.pulse_cache().stats();
    assert_eq!(
        (stats.entries, stats.hits, stats.misses),
        (0, 0, 0),
        "a jittered run touched the cache"
    );

    // Runs that replay identical pulses still fill the cache and then hit
    // it: the noiseless executor, and the noisy one once jitter is off.
    let replay = |device: &DeviceModel, exec: PulseExecutor| {
        fresh(device);
        exec.try_run(&program, &mut seeded(3)).expect("first run");
        let first = device.pulse_cache().stats();
        assert!(first.entries > 0 && first.misses > 0, "cache not filled");
        exec.try_run(&program, &mut seeded(3)).expect("second run");
        let second = device.pulse_cache().stats();
        assert_eq!(second.misses, first.misses, "second run re-integrated");
        assert!(second.hits > first.hits, "second run did not hit");
    };
    replay(&device, PulseExecutor::noiseless(&device));
    device.set_pulse_amp_jitter(0.0);
    replay(&device, PulseExecutor::new(&device));
}
