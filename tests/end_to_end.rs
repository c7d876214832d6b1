//! End-to-end integration tests across the whole stack: circuits are
//! compiled by both flows, lowered to pulses, integrated against the
//! device physics, and compared with ideal quantum mechanics.

use openpulse_repro::algorithms::{molecules, trotter, vqe, LineGraph};
use openpulse_repro::characterization::hellinger_distance;
use openpulse_repro::circuit::Circuit;
use openpulse_repro::compiler::{CompileMode, Compiler};
use openpulse_repro::device::{calibrate, Calibration, DeviceModel, PulseExecutor};
use openpulse_repro::math::seeded;

fn ideal_setup(n: usize) -> (DeviceModel, Calibration) {
    let device = DeviceModel::ideal(n);
    let mut rng = seeded(99);
    let cal = calibrate(&device, &mut rng);
    (device, cal)
}

fn pulse_distribution(
    device: &DeviceModel,
    cal: &Calibration,
    circuit: &Circuit,
    mode: CompileMode,
) -> Vec<f64> {
    let compiled = Compiler::new(device, cal, mode).compile(circuit).unwrap();
    let exec = PulseExecutor::noiseless(device);
    let mut rng = seeded(1);
    exec.try_run(&compiled.program, &mut rng)
        .expect("program runs")
        .probabilities
}

#[test]
fn both_flows_match_ideal_on_benchmark_circuits() {
    let (device, cal) = ideal_setup(3);
    let mut circuits: Vec<(String, Circuit)> = Vec::new();

    let mut ghz = Circuit::new(3);
    ghz.h(0).cnot(0, 1).cnot(1, 2);
    circuits.push(("ghz".into(), ghz));

    let solved = vqe::solve(&molecules::h2().hamiltonian);
    circuits.push(("vqe_h2".into(), vqe::ucc_ansatz(solved.theta)));

    circuits.push((
        "trotter_h2o".into(),
        trotter::trotter_circuit(&molecules::water().hamiltonian, 1.0, 2),
    ));

    let g = LineGraph::new(3);
    circuits.push(("qaoa3".into(), g.qaoa_circuit(&[(0.8, 0.4)])));

    for (name, circuit) in circuits {
        let ideal = circuit.output_distribution();
        for mode in [CompileMode::Standard, CompileMode::Optimized] {
            let got = pulse_distribution(&device, &cal, &circuit, mode);
            let h = hellinger_distance(&ideal, &got);
            assert!(h < 0.12, "{name} / {mode:?}: Hellinger {h:.4} vs ideal");
        }
    }
}

#[test]
fn optimized_flow_is_never_slower() {
    let (device, cal) = ideal_setup(3);
    let workloads: Vec<Circuit> = vec![
        {
            let mut c = Circuit::new(1);
            c.x(0);
            c
        },
        {
            let mut c = Circuit::new(2);
            c.cnot(0, 1).rz(1, 0.7).cnot(0, 1);
            c
        },
        {
            let mut c = Circuit::new(3);
            c.h(0).h(1).h(2).cnot(0, 1).rz(1, 0.4).cnot(0, 1).cnot(1, 2);
            c
        },
    ];
    for circuit in &workloads {
        let std = Compiler::new(&device, &cal, CompileMode::Standard)
            .compile(circuit)
            .unwrap();
        let opt = Compiler::new(&device, &cal, CompileMode::Optimized)
            .compile(circuit)
            .unwrap();
        assert!(
            opt.duration() <= std.duration(),
            "optimized slower: {} vs {} dt\n{circuit}",
            opt.duration(),
            std.duration()
        );
        assert!(opt.pulse_count() <= std.pulse_count());
    }
}

#[test]
fn noisy_execution_beats_worst_case_on_almaden() {
    // Sanity: a noisy Bell pair still shows dominant |00⟩/|11⟩ weight.
    let mut rng = seeded(3);
    let device = DeviceModel::almaden_like(2, &mut rng);
    let cal = calibrate(&device, &mut rng);
    let mut bell = Circuit::new(2);
    bell.h(0).cnot(0, 1);
    let compiled = Compiler::new(&device, &cal, CompileMode::Optimized)
        .compile(&bell)
        .unwrap();
    let exec = PulseExecutor::new(&device);
    let out = exec
        .try_run(&compiled.program, &mut rng)
        .expect("program runs");
    let p = &out.probabilities;
    assert!(p[0] + p[3] > 0.85, "Bell weight too low: {p:?}");
    assert!((p[0] - p[3]).abs() < 0.15, "Bell asymmetry: {p:?}");
}

#[test]
fn error_reduction_on_noisy_device() {
    // The headline claim in miniature: on the noisy device the optimized
    // flow has lower *mean* Hellinger error for a ZZ-heavy circuit.
    // Averaged over several drift realizations — a single draw can favour
    // either flow.
    let mut c = Circuit::new(2);
    c.h(0).h(1);
    for _ in 0..3 {
        c.cnot(0, 1).rz(1, 0.8).cnot(0, 1);
        // Mixers keep the ZZ layers from merging into one rotation.
        c.rx(0, 0.6).rx(1, 0.6);
    }
    c.h(0).h(1);
    let ideal = c.output_distribution();
    let mut total = [0.0_f64; 2];
    for seed in 0..4u64 {
        let mut rng = seeded(40 + seed);
        let device = DeviceModel::almaden_like(2, &mut rng);
        let cal = calibrate(&device, &mut rng);
        for (m, mode) in [CompileMode::Standard, CompileMode::Optimized]
            .into_iter()
            .enumerate()
        {
            let compiled = Compiler::new(&device, &cal, mode).compile(&c).unwrap();
            let exec = PulseExecutor::new(&device);
            let out = exec
                .try_run(&compiled.program, &mut rng)
                .expect("program runs");
            total[m] += hellinger_distance(&ideal, &out.probabilities);
        }
    }
    assert!(
        total[1] < total[0],
        "optimized should beat standard on average: {total:?}"
    );
}

#[test]
fn compile_preserves_stage_equivalence() {
    let (_, _) = ideal_setup(2);
    let mut c = Circuit::new(2);
    c.h(0).cnot(0, 1).rz(1, 1.1).cnot(0, 1).rx(0, 0.5);
    let assembly = openpulse_repro::compiler::optimize(&c);
    assert!(
        c.unitary().phase_invariant_diff(&assembly.unitary()) < 1e-9,
        "optimizer changed the unitary"
    );
}

#[test]
fn routed_circuit_compiles_and_runs() {
    use openpulse_repro::compiler::{route, CouplingMap};
    // A long-range CNOT on a 3-qubit chain: the router inserts a SWAP,
    // the compiler lowers everything (SWAP → CNOTs), and the executor
    // reproduces the permuted ideal distribution.
    let (device, cal) = ideal_setup(3);
    let mut c = Circuit::new(3);
    c.h(0).cnot(0, 2);
    let routed = route(&c, &CouplingMap::linear(3)).expect("routable");
    assert!(routed.swaps_inserted >= 1);
    let compiled = Compiler::new(&device, &cal, CompileMode::Optimized)
        .compile(&routed.circuit)
        .expect("compile routed");
    let exec = PulseExecutor::noiseless(&device);
    let mut rng = seeded(8);
    let out = exec
        .try_run(&compiled.program, &mut rng)
        .expect("program runs");
    // Ideal: Bell pair between logical 0 and 2; remap through the layout.
    let ideal = c.output_distribution();
    let mut expect = vec![0.0; 8];
    for (idx, &p) in ideal.iter().enumerate() {
        let mut phys = 0usize;
        for (lq, &pq) in routed.final_layout.iter().enumerate() {
            if (idx >> lq) & 1 == 1 {
                phys |= 1 << pq;
            }
        }
        expect[phys] += p;
    }
    let h = hellinger_distance(&expect, &out.probabilities);
    assert!(h < 0.1, "routed execution Hellinger {h}");
}

#[test]
fn qutrit_counter_end_to_end() {
    use openpulse_repro::algorithms::{calibrate_qutrit, counter_schedule};
    let (device, cal) = ideal_setup(1);
    let pulses = calibrate_qutrit(&device, &cal);
    let exec = PulseExecutor::noiseless(&device);
    let mut rng = seeded(5);
    let out = exec.run_qutrit(&counter_schedule(&pulses, 3), &mut rng);
    assert!(
        out.populations[0] > 0.8,
        "3 cycles should return near |0⟩: {:?}",
        out.populations
    );
}

#[test]
fn kernel_executor_reproduces_reference_counts_on_fig12_benchmark() {
    // A Fig. 12-class workload (compiled H2 VQE on a noisy Almaden-like
    // device), pinned: the 16,000-shot counts exactly and the
    // probabilities within 1e-12. The pins are the values the stride-kernel
    // executor printed at commit 0864ffc, where this test asserted that
    // they equal the embed-based reference route's at the same seed (the
    // counts exactly, the probabilities within 1e-12). That cross-check
    // now runs over generated programs as quant-device's density oracle
    // tests (`executor::oracle`).
    let mut rng = seeded(77);
    let device = DeviceModel::almaden_like(2, &mut rng);
    let cal = calibrate(&device, &mut rng);
    let solved = vqe::solve(&molecules::h2().hamiltonian);
    let circuit = vqe::ucc_ansatz(solved.theta);
    let compiled = Compiler::new(&device, &cal, CompileMode::Optimized)
        .compile(&circuit)
        .unwrap();

    let out = PulseExecutor::new(&device)
        .try_run(&compiled.program, &mut seeded(123))
        .expect("program runs");
    let pinned = [
        0.06564885025714781,
        0.8895563147701802,
        0.0142199962504553,
        0.030574838722211478,
    ];
    assert_eq!(out.probabilities.len(), pinned.len());
    for (a, b) in out.probabilities.iter().zip(&pinned) {
        assert!((a - b).abs() < 1e-12, "kernel drift: {a} vs {b}");
    }
    assert_eq!(
        out.sample_counts_deterministic(0xF16, 16_000),
        [1036, 14236, 207, 521],
        "fig12-class counts moved"
    );
}
