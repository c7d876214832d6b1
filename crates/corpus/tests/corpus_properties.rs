//! Property tests over the generated corpus.
//!
//! 1. Every full-tier circuit survives a QASM print → parse round trip
//!    op-for-op (the corpus doubles as the emitter's test vector set),
//!    and the reparsed circuit's unitary matches on small registers.
//! 2. Trajectory execution of a wide corpus circuit, and density
//!    execution of a narrow one, are bit-identical across explicit pool
//!    sizes (serial vs 4 threads) — the in-process witnesses for both
//!    executors' thread contracts.
//! 3. On every smoke-tier circuit the density executor can hold, both
//!    executors model one channel: on the same jitter lane, trajectory
//!    counts lie within a sampling bound of the exact density
//!    distribution.
//!
//! CI runs this at `OPC_THREADS=1` and `4`. The executors' fast paths are
//! checked against their oracles inside `quant-device` (over generated
//! programs of every lowered block shape), and the corpus golden pins the
//! smoke circuits' counts and fidelity bits.

use pulse_compiler::CompileMode;
use quant_char::{counts_to_distribution, hellinger_distance};
use quant_circuit::qasm;
use quant_corpus::{
    compile_circuit, execute_compiled, generate, ExecutorKind, PipelineConfig, Tier,
};
use quant_device::{
    calibrate, Block, DeviceModel, DriveState, LoweredProgram, PulseExecutor, ShotPool,
};
use quant_math::{seeded, stream_seed, CMat};
use quant_pulse::Channel;

fn backend(width: u32, device_seed: u64) -> (DeviceModel, quant_device::Calibration) {
    let mut rng = seeded(stream_seed(device_seed, width as u64));
    let device = DeviceModel::almaden_like(width as usize, &mut rng);
    let calibration = calibrate(&device, &mut rng);
    (device, calibration)
}

#[test]
fn corpus_circuits_round_trip_through_the_qasm_emitter() {
    for entry in generate(Tier::Full) {
        let printed = qasm::print(&entry.circuit);
        let reparsed = qasm::parse(&printed)
            .unwrap_or_else(|e| panic!("{}: emitter output rejected: {e}", entry.name));
        assert_eq!(
            entry.circuit, reparsed,
            "{}: print→parse is not the identity",
            entry.name
        );
        // On registers small enough to build the unitary, check the round
        // trip preserves semantics, not just syntax.
        if entry.width <= 5 {
            let diff = entry
                .circuit
                .unitary()
                .phase_invariant_diff(&reparsed.unitary());
            assert!(diff < 1e-12, "{}: unitary drifted by {diff}", entry.name);
        }
    }
}

#[test]
fn wide_trajectory_counts_are_pool_size_independent() {
    // qaoa_n8_p1 is the narrowest full-tier circuit past the density
    // wall; run its optimized compilation under two explicit pools.
    let entry = generate(Tier::Full)
        .into_iter()
        .find(|e| e.name == "qaoa_n8_p1")
        .expect("qaoa_n8_p1 in full tier");
    let (device, calibration) = backend(entry.width, 7);
    let cc = compile_circuit(
        &device,
        &calibration,
        &entry.circuit,
        CompileMode::Optimized,
    )
    .expect("compile qaoa_n8_p1");
    let config = PipelineConfig {
        shots: 256,
        trajectories: 8,
        seed: 13,
        ..PipelineConfig::default()
    };
    let (kind_serial, serial) =
        execute_compiled(&device, &cc, &config, &ShotPool::serial()).expect("serial run");
    let (kind_pooled, pooled) =
        execute_compiled(&device, &cc, &config, &ShotPool::new(4)).expect("pooled run");
    assert_eq!(kind_serial.name(), "trajectory");
    assert_eq!(kind_pooled.name(), "trajectory");
    assert_eq!(serial, pooled, "trajectory counts depend on the pool size");
    assert_eq!(serial.iter().sum::<u64>(), 256);
}

#[test]
fn density_counts_are_pool_size_independent() {
    // The smoke adder is the smoke tier's longest density program: its
    // echoed-CR blocks are what the pooled executor integrates in parallel.
    let entry = generate(Tier::Smoke)
        .into_iter()
        .find(|e| e.name == "adder_1b_a1_b1")
        .expect("adder_1b_a1_b1 in smoke tier");
    let (device, calibration) = backend(entry.width, 7);
    for mode in [CompileMode::Standard, CompileMode::Optimized] {
        let cc = compile_circuit(&device, &calibration, &entry.circuit, mode)
            .expect("compile adder_1b_a1_b1");
        let config = PipelineConfig {
            mode,
            shots: 512,
            seed: 17,
            ..PipelineConfig::default()
        };
        let (kind_serial, serial) =
            execute_compiled(&device, &cc, &config, &ShotPool::serial()).expect("serial run");
        let (kind_pooled, pooled) =
            execute_compiled(&device, &cc, &config, &ShotPool::new(4)).expect("pooled run");
        assert_eq!(kind_serial.name(), "density");
        assert_eq!(kind_pooled.name(), "density");
        assert_eq!(
            serial, pooled,
            "{mode:?}: density counts depend on the pool size"
        );
        assert_eq!(serial.iter().sum::<u64>(), 512);
    }
}

#[test]
fn every_full_tier_schedule_passes_static_verification() {
    // 4. The acceptance bar for the verifier rollout: every corpus
    //    circuit — full tier, both compilation flows — produces a
    //    schedule with zero `pulse::verify` findings. Compile-only
    //    (no execution), with one backend per register width.
    let mut backends: std::collections::BTreeMap<u32, _> = std::collections::BTreeMap::new();
    for entry in generate(Tier::Full) {
        let (device, calibration) = backends
            .entry(entry.width)
            .or_insert_with(|| backend(entry.width, 7));
        for mode in [CompileMode::Standard, CompileMode::Optimized] {
            let cc = compile_circuit(device, calibration, &entry.circuit, mode)
                .unwrap_or_else(|e| panic!("{} ({mode:?}): {e}", entry.name));
            let findings =
                quant_pulse::verify(&cc.compiled.program.schedule, &device.verify_spec());
            assert!(
                findings.is_empty(),
                "{} ({mode:?}) failed verification:\n{}",
                entry.name,
                findings
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
    }
}

/// Trajectories per parity run, one shot each.
const PARITY_TRAJECTORIES: usize = 4096;
/// Shots per parity run.
const PARITY_SHOTS: usize = 4096;
/// `−ln` of the per-run failure probability the sampling bound allows.
const PARITY_TAIL: f64 = 13.8; // e^−13.8 ≈ 1e-6

/// The largest Hellinger distance the sampling noise of `shots` shots over
/// `trajectories` trajectories and `outcomes` outcomes leaves between the
/// trajectory counts `q̂` and their mean `p̄`, except with probability
/// `e^−tail`.
///
/// Derivation. Shots are split over `t = min(trajectories, shots)`
/// trajectories, `m_j ≤ ⌈shots/t⌉` shots to trajectory `j`. Trajectory `j`
/// draws an outcome distribution `π_j` (its SPAM flips, relaxation
/// branches and readout), independent across `j`, with `E π_j = p̄`; its
/// shots are then multinomial from `π_j`. So
/// `Cov q̂ = Σ_j (m_j/S)² (Cov π + (E diag π − E ππᵀ)/m_j)`, and since
/// `E ππᵀ ≤ E diag π = diag p̄` (each `diag π − ππᵀ` is a multinomial
/// covariance, hence PSD), `Cov q̂ ≤ (diag p̄ − p̄p̄ᵀ)/n` in the Loewner order,
/// with `n = S / ⌈S/t⌉` (`Σ_j m_j² ≤ S·⌈S/t⌉`). The Pearson statistic
/// `D = Σ_i (q̂_i − p̄_i)²/p̄_i` is then, in the normal approximation,
/// dominated by `χ²_{K−1}/n` (the eigenvalues of
/// `diag(p̄)^−½ (diag p̄ − p̄p̄ᵀ) diag(p̄)^−½` are `K − 1` ones and a zero), so
/// by the Laurent–Massart tail `D ≤ (K − 1 + 2√((K − 1)x) + 2x)/n` except
/// with probability `e^−x`. Finally, exactly,
/// `H² = ½ Σ_i (q̂_i − p̄_i)²/(√q̂_i + √p̄_i)² ≤ D/2`.
fn sampling_bound(trajectories: usize, shots: usize, outcomes: usize, tail: f64) -> f64 {
    let t = trajectories.min(shots);
    let n = shots as f64 / shots.div_ceil(t) as f64;
    let k = (outcomes - 1) as f64;
    ((k + 2.0 * (k * tail).sqrt() + 2.0 * tail) / n / 2.0).sqrt()
}

/// An upper bound on the probability weight the executors treat
/// differently when a pulse leaks out of the qubit subspace.
///
/// The density executor completes each pulse's sub-unitary block `B` to a
/// channel that deposits the lost weight `1 − ‖Bψ‖²` on a basis state; a
/// trajectory applies `B` and renormalizes. Unravel the density channel
/// into "apply `B`, renormalize" with probability `‖Bψ‖²` and "deposit"
/// otherwise: the two executors then follow the same trajectory except
/// with probability at most `Λ = Σ_pulses λ_max(I − B†B)` (a union bound),
/// so their outcome distributions differ in total variation by at most
/// `Λ`, and `H² ≤ TV` gives `H ≤ √Λ`.
///
/// This sums `Tr(I − B†B) ≥ λ_max(I − B†B)` over the program's pulses as
/// lowered, on the execution-time (drifted) physics, times two for the
/// jitter: a jittered pulse is its waveform scaled by `1 + ξ/peak`, the
/// leaked amplitude is linear in the waveform to first order, so the
/// leaked weight scales by `(1 + ξ/peak)²`, and the factor 2 covers any
/// rescaling up to 41 % — many σ beyond the device's jitter.
fn leakage_allowance(device: &DeviceModel, program: &LoweredProgram) -> f64 {
    // Tr(I − B†B) = d − ‖B‖²_F for the leading d × d block B of `u`.
    let lost = |u: &CMat, d: usize| {
        d as f64
            - (0..d * d)
                .map(|k| u[(k / d, k % d)].norm_sqr())
                .sum::<f64>()
    };
    let mut total = 0.0;
    for block in &program.blocks {
        match block {
            Block::Gate1Q { qubit, waveforms } => {
                let transmon = device.transmon_exec(*qubit);
                for w in waveforms {
                    let u = transmon.integrate_play(&mut DriveState::default(), w);
                    total += lost(&u, 2);
                }
            }
            Block::Gate2Q {
                control,
                target,
                schedule,
            } => {
                let pair = device.pair_exec(*control, *target).expect("coupled pair");
                let channel = device
                    .control_channel(*control, *target)
                    .expect("control channel");
                let u = pair
                    .integrate(
                        schedule,
                        Channel::Drive(*control),
                        Channel::Drive(*target),
                        channel,
                    )
                    .unitary;
                total += lost(&u, 4);
            }
            Block::Idle { .. } => {}
        }
    }
    (2.0 * total).max(0.0)
}

#[test]
fn trajectory_counts_match_the_density_distribution_on_one_jitter_lane() {
    // Every smoke-tier circuit the density executor can hold, both flows:
    // the density executor's exact distribution on jitter lane 0, and the
    // pipeline's trajectory counts (forced onto the trajectory executor),
    // which draw their jitter from the same lane. Their Hellinger distance
    // is bounded by the sampling noise plus the leakage allowance; the
    // union over all runs fails with probability below 1e-4.
    let pool = ShotPool::from_env();
    for (i, entry) in generate(Tier::Smoke).iter().enumerate() {
        if entry.width > 6 {
            continue;
        }
        let (device, calibration) = backend(entry.width, 7);
        for mode in [CompileMode::Standard, CompileMode::Optimized] {
            let config = PipelineConfig {
                mode,
                shots: PARITY_SHOTS,
                trajectories: PARITY_TRAJECTORIES,
                seed: stream_seed(11, i as u64),
                density_max_qubits: 0,
                ..PipelineConfig::default()
            };
            let cc = compile_circuit(&device, &calibration, &entry.circuit, mode)
                .unwrap_or_else(|e| panic!("{} ({mode:?}): {e}", entry.name));
            let exact = PulseExecutor::new(&device)
                .try_run_pooled(
                    &cc.compiled.program,
                    &mut seeded(stream_seed(config.seed, 0)),
                    &pool,
                )
                .unwrap_or_else(|e| panic!("{} ({mode:?}) density: {e}", entry.name))
                .probabilities;
            let (kind, counts) = execute_compiled(&device, &cc, &config, &pool)
                .unwrap_or_else(|e| panic!("{} ({mode:?}) trajectories: {e}", entry.name));
            assert_eq!(kind, ExecutorKind::Trajectory);
            let distance = hellinger_distance(&exact, &counts_to_distribution(&counts));
            let sampling =
                sampling_bound(PARITY_TRAJECTORIES, PARITY_SHOTS, exact.len(), PARITY_TAIL);
            let leakage = leakage_allowance(&device, &cc.compiled.program).sqrt();
            assert!(
                distance <= sampling + leakage,
                "{} ({mode:?}): Hellinger distance {distance:.4} exceeds \
                 {sampling:.4} (sampling) + {leakage:.4} (leakage)",
                entry.name
            );
        }
    }
}
