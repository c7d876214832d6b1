//! Hamiltonian dynamics as a time series: Trotter-evolve the water
//! surrogate Hamiltonian and track ⟨Z₀⟩(t) — exactly, ideally Trotterized,
//! and on the noisy device under both compilation flows.
//!
//! This is the paper's "Hamiltonian Dynamics" benchmark class (§8.1) as a
//! physical observable rather than a single distribution snapshot: the
//! optimized flow tracks the exact curve longer because each Trotter step
//! costs one stretched CR block instead of two CNOTs per term.
//!
//! ```text
//! cargo run --release --example hamiltonian_dynamics
//! ```

use openpulse_repro::algorithms::{molecules, pauli::PauliString, trotter};
use openpulse_repro::compiler::{CompileMode, Compiler};
use openpulse_repro::device::{calibrate, DeviceModel, PulseExecutor};
use openpulse_repro::math::seeded;
use openpulse_repro::sim::StateVector;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m = molecules::water();
    let h = &m.hamiltonian;
    let z0 = PauliString::parse(1.0, "ZI");
    let steps_per_unit = 4;

    let mut rng = seeded(33);
    let device = DeviceModel::almaden_like(2, &mut rng);
    let calibration = calibrate(&device, &mut rng);

    println!("⟨Z0⟩ under exp(−iHt) for the H2O surrogate (4 Trotter steps / time unit)\n");
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10}",
        "t", "exact", "trotter", "std flow", "opt flow"
    );

    for k in 0..=6 {
        let t = k as f64 * 0.5;
        // Start from the single-excitation state |01⟩ (q0 = 1): the
        // XX+YY hopping term moves the excitation between the qubits, so
        // ⟨Z0⟩ oscillates. (|00⟩ is an eigenstate — nothing would happen.)
        let exact = {
            let mut psi = StateVector::zero_qubits(2);
            psi.apply_unitary(&openpulse_repro::sim::gates::x(), &[0]);
            if t > 0.0 {
                psi.apply_unitary(&trotter::exact_propagator(h, t), &[0, 1]);
            }
            z0.expectation(&psi)
        };
        // Ideal Trotterized circuit.
        let steps = (steps_per_unit as f64 * t).ceil().max(1.0) as usize;
        let mut circuit = openpulse_repro::circuit::Circuit::new(2);
        circuit.x(0);
        circuit.extend(&trotter::trotter_circuit(h, t, steps));
        let ideal_trotter = z0.expectation(&circuit.simulate());
        // Noisy device, both flows.
        let mut measured = [0.0_f64; 2];
        for (i, mode) in [CompileMode::Standard, CompileMode::Optimized]
            .into_iter()
            .enumerate()
        {
            let compiled = Compiler::new(&device, &calibration, mode).compile(&circuit)?;
            let exec = PulseExecutor::new(&device);
            let out = exec.try_run(&compiled.program, &mut rng)?;
            // ⟨Z0⟩ from the (Z-basis) outcome distribution.
            measured[i] = z0.expectation_from_distribution(&out.probabilities);
        }
        println!(
            "{t:>6.2} {exact:>10.4} {ideal_trotter:>10.4} {:>10.4} {:>10.4}",
            measured[0], measured[1]
        );
    }
    println!("\nBoth flows decay towards ⟨Z0⟩ = 0 as circuits lengthen; the optimized");
    println!("flow stays closer to the Trotter curve at every time point.");
    Ok(())
}
