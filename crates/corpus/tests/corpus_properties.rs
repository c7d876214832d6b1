//! Property tests over the generated corpus.
//!
//! 1. For every smoke-tier circuit, both compilation flows produce
//!    **bit-identical counts** on the fast executor path vs the retained
//!    reference path — the corpus rides on the same fast-vs-ref contract
//!    the kernel equivalence suites enforce. The ≤6-qubit circuits pin
//!    the density executor's stride kernels; the 10-qubit QAOA line pins
//!    the trajectory engine's fused route against its reference path.
//!    CI runs this at `OPC_THREADS=1` and `4`.
//! 2. Every full-tier circuit survives a QASM print → parse round trip
//!    op-for-op (the corpus doubles as the emitter's test vector set),
//!    and the reparsed circuit's unitary matches on small registers.
//! 3. Trajectory execution of a wide corpus circuit, and density
//!    execution of a narrow one, are bit-identical across explicit pool
//!    sizes (serial vs 4 threads) — the in-process witnesses for both
//!    executors' thread contracts.

use pulse_compiler::CompileMode;
use quant_circuit::qasm;
use quant_corpus::{
    compile_circuit, execute_compiled, generate, run_circuit, PipelineConfig, Tier,
};
use quant_device::{calibrate, DeviceModel, ShotPool};
use quant_math::{seeded, stream_seed};

fn backend(width: u32, device_seed: u64) -> (DeviceModel, quant_device::Calibration) {
    let mut rng = seeded(stream_seed(device_seed, width as u64));
    let device = DeviceModel::almaden_like(width as usize, &mut rng);
    let calibration = calibrate(&device, &mut rng);
    (device, calibration)
}

#[test]
fn smoke_circuits_agree_with_the_reference_path_bit_for_bit() {
    let pool = ShotPool::from_env();
    for (i, entry) in generate(Tier::Smoke).iter().enumerate() {
        let (device, calibration) = backend(entry.width, 7);
        for mode in [CompileMode::Standard, CompileMode::Optimized] {
            let base = PipelineConfig {
                mode,
                shots: 512,
                seed: stream_seed(11, i as u64),
                ..PipelineConfig::default()
            };
            let fast = run_circuit(&device, &calibration, &entry.circuit, &base, &pool)
                .unwrap_or_else(|e| panic!("{} fast: {e}", entry.name));
            let reference = run_circuit(
                &device,
                &calibration,
                &entry.circuit,
                &PipelineConfig {
                    reference: true,
                    ..base
                },
                &pool,
            )
            .unwrap_or_else(|e| panic!("{} reference: {e}", entry.name));
            assert_eq!(
                fast.counts, reference.counts,
                "{} ({mode:?}): fast and reference counts diverge",
                entry.name
            );
            assert_eq!(
                fast.fidelity.to_bits(),
                reference.fidelity.to_bits(),
                "{} ({mode:?}): fidelity bits diverge",
                entry.name
            );
            assert_eq!(fast.counts.iter().sum::<u64>(), 512, "{}", entry.name);
        }
    }
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
