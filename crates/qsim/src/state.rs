//! Pure-state simulation of mixed-dimension qudit registers.
//!
//! # Index convention
//!
//! Subsystem 0 is the **least-significant** digit of the global basis index
//! (little-endian, as in Qiskit). For a register with dimensions
//! `[d0, d1, …]`, basis state `|…, k1, k0⟩` has index
//! `k0 + d0·k1 + d0·d1·k2 + …`.
//!
//! Gate matrices applied to a target list `[t0, t1, …]` treat `t0` as the
//! least-significant digit of the *gate's* index space, consistent with the
//! matrices in [`crate::gates`].

use crate::kernels::KernelScratch;
use quant_math::{CMat, C64};

/// A normalized pure state of a mixed-dimension qudit register.
#[derive(Clone, Debug, PartialEq)]
pub struct StateVector {
    dims: Vec<usize>,
    amps: Vec<C64>,
}

impl StateVector {
    /// Creates the all-zeros state `|0…0⟩` for subsystems of the given
    /// dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or contains a dimension < 2.
    pub fn zero(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "register needs at least one subsystem");
        assert!(
            dims.iter().all(|&d| d >= 2),
            "every subsystem dimension must be ≥ 2"
        );
        let total: usize = dims.iter().product();
        let mut amps = vec![C64::ZERO; total];
        amps[0] = C64::ONE;
        StateVector {
            dims: dims.to_vec(),
            amps,
        }
    }

    /// Creates a register of `n` qubits in `|0…0⟩`.
    pub fn zero_qubits(n: usize) -> Self {
        StateVector::zero(&vec![2; n])
    }

    /// Builds a state from raw amplitudes; normalizes defensively.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or a zero-norm vector.
    pub fn from_amplitudes(dims: &[usize], amps: Vec<C64>) -> Self {
        let total: usize = dims.iter().product();
        assert_eq!(amps.len(), total, "amplitude length must match dimensions");
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        assert!(norm > 1e-12, "cannot normalize a zero state");
        let amps = amps.into_iter().map(|a| a / norm).collect();
        StateVector {
            dims: dims.to_vec(),
            amps,
        }
    }

    /// Subsystem dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of subsystems.
    pub fn num_subsystems(&self) -> usize {
        self.dims.len()
    }

    /// Total Hilbert-space dimension.
    pub fn dim(&self) -> usize {
        self.amps.len()
    }

    /// Amplitudes in the computational basis.
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Stride (index weight) of subsystem `k`.
    fn stride(&self, k: usize) -> usize {
        self.dims[..k].iter().product()
    }

    /// Applies a unitary to the listed target subsystems.
    ///
    /// Runs the in-place stride kernel with a call-local scratch; when the
    /// call sits in a hot loop (a trajectory sampler, a repeated sweep),
    /// thread a shared [`KernelScratch`] through
    /// [`StateVector::apply_unitary_scratch`] instead so the index plan is
    /// built once.
    ///
    /// # Panics
    ///
    /// Panics when the matrix dimension does not match the product of the
    /// target dimensions, or targets repeat / are out of range.
    pub fn apply_unitary(&mut self, u: &CMat, targets: &[usize]) {
        let mut scratch = KernelScratch::new();
        self.apply_unitary_scratch(u, targets, &mut scratch);
    }

    /// [`StateVector::apply_unitary`] with a caller-owned scratch:
    /// allocation-free once the scratch has seen this `(targets, dims)`
    /// pair.
    pub fn apply_unitary_scratch(
        &mut self,
        u: &CMat,
        targets: &[usize],
        scratch: &mut KernelScratch,
    ) {
        scratch.apply_state(&mut self.amps, u, targets, &self.dims);
    }

    /// Probability of each computational-basis outcome.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Resets to `|0…0⟩` in place, reusing the amplitude allocation — the
    /// per-trajectory reset of a reused worker state.
    pub fn reset_zero(&mut self) {
        self.amps.fill(C64::ZERO);
        self.amps[0] = C64::ONE;
    }

    /// ⟨ψ|O|ψ⟩ for a Hermitian operator acting on the listed targets.
    pub fn expectation(&self, op: &CMat, targets: &[usize]) -> f64 {
        let mut scratch = KernelScratch::new();
        self.expectation_scratch(op, targets, &mut scratch)
    }

    /// [`StateVector::expectation`] with a caller-owned scratch — no clone,
    /// no state transform, O(d·k²).
    pub fn expectation_scratch(
        &self,
        op: &CMat,
        targets: &[usize],
        scratch: &mut KernelScratch,
    ) -> f64 {
        scratch
            .expectation_state(&self.amps, op, targets, &self.dims)
            .re
    }

    /// The state's 2-norm (1 for physical states; less after applying a
    /// non-unitary Kraus operator via [`StateVector::apply_unitary`]).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Renormalizes in place (after a sampled Kraus branch).
    ///
    /// # Panics
    ///
    /// Panics on a zero-norm state.
    pub fn normalize(&mut self) {
        let n = self.norm();
        assert!(n > 1e-300, "cannot normalize a zero state");
        for a in &mut self.amps {
            *a = *a / n;
        }
    }

    /// Inner product ⟨self|other⟩.
    pub fn inner(&self, other: &StateVector) -> C64 {
        assert_eq!(self.dims, other.dims, "register shape mismatch");
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// State fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Reduced density matrix of a single subsystem (partial trace over the
    /// rest).
    pub fn reduced_density(&self, subsystem: usize) -> CMat {
        assert!(subsystem < self.dims.len(), "subsystem out of range");
        let d = self.dims[subsystem];
        let stride = self.stride(subsystem);
        let mut rho = CMat::zeros(d, d);
        let total = self.amps.len();
        // Each global index determines (base, digit) uniquely, so every
        // (base, digit, digit2) triple contributes exactly once.
        for idx in 0..total {
            let digit = (idx / stride) % d;
            let base = idx - digit * stride;
            for digit2 in 0..d {
                let idx2 = base + digit2 * stride;
                rho[(digit, digit2)] += self.amps[idx] * self.amps[idx2].conj();
            }
        }
        rho
    }

    /// Reduced density matrix of an ordered set of subsystems (partial
    /// trace over the rest), with digit 0 of the result on `targets[0]`
    /// — the convention every kernel in this crate uses. Reuses the
    /// caller's scratch; the state need not be normalized
    /// (`Tr` of the result is `‖ψ‖²`).
    pub fn reduced_density_on(&self, targets: &[usize], scratch: &mut KernelScratch) -> CMat {
        let d: usize = targets.iter().map(|&t| self.dims[t]).product();
        let mut rho = CMat::zeros(d, d);
        scratch.reduced_density_state(&self.amps, targets, &self.dims, &mut rho);
        rho
    }

    /// Bloch-vector components ⟨X⟩, ⟨Y⟩, ⟨Z⟩ of a 2-level subsystem.
    ///
    /// For higher-dimensional subsystems the components refer to the
    /// qubit (0/1) subspace embedded in the larger space.
    pub fn bloch(&self, subsystem: usize) -> (f64, f64, f64) {
        let rho = self.reduced_density(subsystem);
        let x = 2.0 * rho[(0, 1)].re;
        let y = -2.0 * rho[(0, 1)].im;
        let z = (rho[(0, 0)] - rho[(1, 1)]).re;
        (x, y, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn zero_state_probabilities() {
        let psi = StateVector::zero_qubits(3);
        let p = psi.probabilities();
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!(p[1..].iter().all(|&v| v < 1e-12));
    }

    #[test]
    fn x_on_each_qubit() {
        // X on qubit 1 of 3 → index 2 (little-endian).
        let mut psi = StateVector::zero_qubits(3);
        psi.apply_unitary(&gates::x(), &[1]);
        let p = psi.probabilities();
        assert!((p[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bell_state_construction() {
        let mut psi = StateVector::zero_qubits(2);
        psi.apply_unitary(&gates::h(), &[0]);
        psi.apply_unitary(&gates::cnot(), &[0, 1]);
        let p = psi.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-10);
        assert!((p[3] - 0.5).abs() < 1e-10);
        assert!(p[1].abs() < 1e-10 && p[2].abs() < 1e-10);
    }

    #[test]
    fn cnot_with_reversed_targets() {
        // Control on qubit 1, target on qubit 0: |01⟩(q1=0,q0=1) stays,
        // |10⟩ flips to |11⟩.
        let mut psi = StateVector::zero_qubits(2);
        psi.apply_unitary(&gates::x(), &[1]); // state |10⟩ = index 2
        psi.apply_unitary(&gates::cnot(), &[1, 0]); // control = q1
        let p = psi.probabilities();
        assert!((p[3] - 1.0).abs() < 1e-10, "probs = {p:?}");
    }

    #[test]
    fn expectation_of_pauli_z() {
        let mut psi = StateVector::zero_qubits(1);
        assert!((psi.expectation(&gates::z(), &[0]) - 1.0).abs() < 1e-12);
        psi.apply_unitary(&gates::x(), &[0]);
        assert!((psi.expectation(&gates::z(), &[0]) + 1.0).abs() < 1e-12);
        psi.apply_unitary(&gates::h(), &[0]);
        assert!(psi.expectation(&gates::z(), &[0]).abs() < 1e-12);
    }

    #[test]
    fn bloch_vector_tracks_rotation() {
        let mut psi = StateVector::zero_qubits(1);
        psi.apply_unitary(&gates::rx(FRAC_PI_2), &[0]);
        let (x, y, z) = psi.bloch(0);
        // Rx(π/2)|0⟩ points along -Y.
        assert!(x.abs() < 1e-10);
        assert!((y + 1.0).abs() < 1e-10);
        assert!(z.abs() < 1e-10);
    }

    #[test]
    fn qutrit_register() {
        let mut psi = StateVector::zero(&[3]);
        psi.apply_unitary(&gates::qutrit_increment(), &[0]);
        assert!((psi.probabilities()[1] - 1.0).abs() < 1e-12);
        psi.apply_unitary(&gates::qutrit_increment(), &[0]);
        assert!((psi.probabilities()[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_dims_register() {
        // A qutrit (subsystem 0) and a qubit (subsystem 1).
        let mut psi = StateVector::zero(&[3, 2]);
        psi.apply_unitary(&gates::x(), &[1]);
        psi.apply_unitary(&gates::qutrit_x01(), &[0]);
        // q1=1, qutrit=1 → index 1 + 3·1 = 4.
        assert!((psi.probabilities()[4] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_of_orthogonal_states() {
        let a = StateVector::zero_qubits(1);
        let mut b = StateVector::zero_qubits(1);
        b.apply_unitary(&gates::x(), &[0]);
        assert!(a.fidelity(&b) < 1e-12);
        assert!((a.fidelity(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reduced_density_of_bell_is_maximally_mixed() {
        let mut psi = StateVector::zero_qubits(2);
        psi.apply_unitary(&gates::h(), &[0]);
        psi.apply_unitary(&gates::cnot(), &[0, 1]);
        let rho = psi.reduced_density(0);
        assert!((rho[(0, 0)].re - 0.5).abs() < 1e-10);
        assert!((rho[(1, 1)].re - 0.5).abs() < 1e-10);
        assert!(rho[(0, 1)].abs() < 1e-10);
        assert!((rho.trace().re - 1.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "duplicate target")]
    fn duplicate_targets_rejected() {
        let mut psi = StateVector::zero_qubits(2);
        psi.apply_unitary(&gates::cnot(), &[0, 0]);
    }

    #[test]
    fn three_qubit_gate_application_order() {
        // Build GHZ: H(0), CNOT(0→1), CNOT(1→2).
        let mut psi = StateVector::zero_qubits(3);
        psi.apply_unitary(&gates::h(), &[0]);
        psi.apply_unitary(&gates::cnot(), &[0, 1]);
        psi.apply_unitary(&gates::cnot(), &[1, 2]);
        let p = psi.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-10);
        assert!((p[7] - 0.5).abs() < 1e-10);
    }
}
