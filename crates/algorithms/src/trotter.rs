//! Trotterized Hamiltonian dynamics — the paper's methane/water
//! simulation benchmarks (6 Trotter steps each).

use crate::pauli::PauliSum;
use quant_circuit::Circuit;
use quant_math::{unitary_exp, CMat};

/// Builds the first-order Trotter circuit `(Π_j exp(−i·c_j·P_j·t/n))ⁿ`
/// approximating `exp(−iHt)`. Identity terms contribute only global phase
/// and are skipped.
pub fn trotter_circuit(hamiltonian: &PauliSum, time: f64, steps: usize) -> Circuit {
    assert!(steps >= 1, "need at least one Trotter step");
    let n = hamiltonian.num_qubits() as u32;
    let dt = time / steps as f64;
    let mut c = Circuit::new(n);
    for _ in 0..steps {
        for term in hamiltonian.terms() {
            if term.support().is_empty() {
                continue;
            }
            // exp(−i·coeff·P·dt): rotation angle θ = coeff·dt for the
            // unweighted string.
            let unweighted = crate::pauli::PauliString {
                coeff: 1.0,
                ops: term.ops.clone(),
            };
            unweighted.append_rotation(&mut c, term.coeff * dt);
        }
    }
    c
}

/// The exact propagator `exp(−iHt)`.
pub fn exact_propagator(hamiltonian: &PauliSum, time: f64) -> CMat {
    unitary_exp(&hamiltonian.matrix(), time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::molecules;
    use quant_sim::StateVector;

    /// Fidelity between the Trotterized state and the exact evolution from
    /// `|0…0⟩`.
    fn trotter_state_fidelity(hamiltonian: &PauliSum, time: f64, steps: usize) -> f64 {
        let n = hamiltonian.num_qubits();
        let approx = trotter_circuit(hamiltonian, time, steps).simulate();
        let mut exact = StateVector::zero_qubits(n);
        let targets: Vec<usize> = (0..n).collect();
        exact.apply_unitary(&exact_propagator(hamiltonian, time), &targets);
        approx.fidelity(&exact)
    }

    #[test]
    fn trotter_converges_with_steps() {
        let h = molecules::h2().hamiltonian;
        let t = 1.0;
        let f1 = trotter_state_fidelity(&h, t, 1);
        let f6 = trotter_state_fidelity(&h, t, 6);
        let f24 = trotter_state_fidelity(&h, t, 24);
        assert!(f6 >= f1 - 1e-9, "f1={f1}, f6={f6}");
        assert!(f24 >= f6 - 1e-9);
        assert!(f24 > 0.9999, "24 steps should be nearly exact: {f24}");
    }

    #[test]
    fn six_step_benchmark_is_accurate() {
        // The paper's benchmarks use 6 Trotter steps; verify that's in the
        // high-fidelity regime for the methane/water surrogates.
        for m in [molecules::methane(), molecules::water()] {
            let f = trotter_state_fidelity(&m.hamiltonian, 0.5, 6);
            assert!(f > 0.999, "{}: 6-step fidelity {f}", m.name);
        }
    }

    #[test]
    fn trotter_circuit_has_zz_cores() {
        let h = molecules::water().hamiltonian;
        let c = trotter_circuit(&h, 0.5, 6);
        // Each step: ZZ + XX + YY → three 2-local rotations → 3 ZZ cores.
        assert_eq!(c.count_gate("zz"), 18);
    }

    #[test]
    fn single_term_matches_exact() {
        let h = PauliSum::from_terms(&[(0.7, "ZZ")]);
        // One term → Trotter is exact at any step count.
        let f = trotter_state_fidelity(&h, 2.0, 1);
        assert!((f - 1.0).abs() < 1e-10);
    }
}
