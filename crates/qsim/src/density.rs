//! Density-matrix simulation with Kraus channels.
//!
//! The algorithm benchmarks (Fig. 12/13) need ~10⁵ shots through noisy
//! circuits. Rather than trajectory-sampling, we evolve the density matrix
//! once — unitaries and channels interleaved — and sample shots from the
//! final populations. System sizes are small (≤ 5 qubits, or a single
//! 3-level transmon), so dense ρ is cheap.
//!
//! Index conventions match [`crate::state`].

use crate::kernels::KernelScratch;
use crate::state::StateVector;
use quant_math::{CMat, C64};

/// Debug-build check of the Kraus completeness relation `Σ Kₖ†Kₖ = I`.
fn debug_assert_kraus_complete(kraus: &[CMat]) {
    #[cfg(debug_assertions)]
    {
        let mut completeness = CMat::zeros(kraus[0].rows(), kraus[0].cols());
        for k in kraus {
            completeness = &completeness + &(&k.dagger() * k);
        }
        debug_assert!(
            completeness.max_abs_diff(&CMat::identity(kraus[0].rows())) < 1e-6,
            "Kraus operators do not satisfy the completeness relation"
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = kraus;
}

/// A density matrix over a mixed-dimension qudit register.
#[derive(Clone, Debug, PartialEq)]
pub struct DensityMatrix {
    dims: Vec<usize>,
    rho: CMat,
}

/// Lifts an operator acting on `targets` (with target 0 as the gate's
/// least-significant digit) to the full register space.
///
/// The stride kernels in [`crate::kernels`] apply operators without ever
/// materializing the lifted matrix; their tests check them against dense
/// products of `embed`. It remains for call sites that genuinely need the
/// full matrix (commutation probes, small algebraic checks, test oracles).
pub fn embed(op: &CMat, targets: &[usize], dims: &[usize]) -> CMat {
    let gate_dim: usize = targets.iter().map(|&t| dims[t]).product();
    assert!(
        op.is_square() && op.rows() == gate_dim,
        "operator dim mismatch"
    );
    for (i, &t) in targets.iter().enumerate() {
        assert!(t < dims.len(), "target {t} out of range");
        assert!(!targets[..i].contains(&t), "duplicate target {t}");
    }
    // Stride table once, not a prefix product per digit of every entry.
    let mut strides = Vec::with_capacity(dims.len());
    let mut total = 1usize;
    for &d in dims {
        strides.push(total);
        total *= d;
    }
    let rest: Vec<usize> = (0..dims.len()).filter(|k| !targets.contains(k)).collect();
    let digit = |idx: usize, k: usize| -> usize { (idx / strides[k]) % dims[k] };
    let gate_index = |idx: usize| -> usize {
        let mut g = 0usize;
        let mut weight = 1usize;
        for &t in targets {
            g += digit(idx, t) * weight;
            weight *= dims[t];
        }
        g
    };
    CMat::from_fn(total, total, |i, j| {
        if rest.iter().all(|&k| digit(i, k) == digit(j, k)) {
            op[(gate_index(i), gate_index(j))]
        } else {
            C64::ZERO
        }
    })
}

impl DensityMatrix {
    /// The pure `|0…0⟩⟨0…0|` state.
    pub fn zero(dims: &[usize]) -> Self {
        DensityMatrix::from_state(&StateVector::zero(dims))
    }

    /// A register of `n` qubits in `|0…0⟩⟨0…0|`.
    pub fn zero_qubits(n: usize) -> Self {
        DensityMatrix::zero(&vec![2; n])
    }

    /// Builds `|ψ⟩⟨ψ|` from a pure state.
    pub fn from_state(psi: &StateVector) -> Self {
        let amps = psi.amplitudes();
        let n = amps.len();
        let rho = CMat::from_fn(n, n, |i, j| amps[i] * amps[j].conj());
        DensityMatrix {
            dims: psi.dims().to_vec(),
            rho,
        }
    }

    /// Subsystem dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total Hilbert-space dimension.
    pub fn dim(&self) -> usize {
        self.rho.rows()
    }

    /// Read-only access to the matrix.
    pub fn matrix(&self) -> &CMat {
        &self.rho
    }

    /// Applies a unitary to the listed targets: `ρ → UρU†`.
    ///
    /// Runs the in-place stride kernel with a call-local scratch; when the
    /// call sits in a hot loop, thread a shared [`KernelScratch`] through
    /// [`DensityMatrix::apply_unitary_scratch`] instead.
    pub fn apply_unitary(&mut self, u: &CMat, targets: &[usize]) {
        let mut scratch = KernelScratch::new();
        self.apply_unitary_scratch(u, targets, &mut scratch);
    }

    /// [`DensityMatrix::apply_unitary`] with a caller-owned scratch:
    /// allocation-free once the scratch has seen this `(targets, dims)`
    /// pair.
    pub fn apply_unitary_scratch(
        &mut self,
        u: &CMat,
        targets: &[usize],
        scratch: &mut KernelScratch,
    ) {
        scratch.apply_conjugate(&mut self.rho, u, targets, &self.dims);
    }

    /// Applies a Kraus channel `ρ → Σₖ KₖρKₖ†` to the listed targets.
    ///
    /// The Kraus operators must satisfy `Σ Kₖ†Kₖ = I` (checked loosely).
    /// Runs the single-pass superoperator kernel with a call-local
    /// scratch; hot loops should use
    /// [`DensityMatrix::apply_kraus_scratch`].
    pub fn apply_kraus(&mut self, kraus: &[CMat], targets: &[usize]) {
        let mut scratch = KernelScratch::new();
        self.apply_kraus_scratch(kraus, targets, &mut scratch);
    }

    /// [`DensityMatrix::apply_kraus`] with a caller-owned scratch:
    /// allocation-free once the scratch has seen this `(targets, dims)`
    /// pair.
    ///
    /// The kernel reads only the Hermitian half of ρ (the blocks with row
    /// base ≤ column base) and writes the rest as its mirror, so after
    /// any channel ρ is exactly Hermitian. ρ is Hermitian by
    /// construction ([`DensityMatrix::zero`], [`DensityMatrix::from_state`])
    /// and stays so under CPTP updates; the rounding-level asymmetry a
    /// [`DensityMatrix::apply_unitary`] pass can leave in the lower
    /// blocks is not read.
    pub fn apply_kraus_scratch(
        &mut self,
        kraus: &[CMat],
        targets: &[usize],
        scratch: &mut KernelScratch,
    ) {
        assert!(
            !kraus.is_empty(),
            "channel needs at least one Kraus operator"
        );
        debug_assert_kraus_complete(kraus);
        scratch.apply_kraus(&mut self.rho, kraus, targets, &self.dims);
    }

    /// Populations of the computational basis (the diagonal of ρ).
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.rho.rows())
            .map(|i| self.rho[(i, i)].re.max(0.0))
            .collect()
    }

    /// `Tr(ρ²)` — 1 for pure states, 1/d for the maximally mixed state.
    pub fn purity(&self) -> f64 {
        (&self.rho * &self.rho).trace().re
    }

    /// `Tr(ρ)`; should remain 1 under trace-preserving evolution.
    pub fn trace(&self) -> f64 {
        self.rho.trace().re
    }

    /// State fidelity `⟨ψ|ρ|ψ⟩` against a pure target.
    pub fn fidelity_pure(&self, psi: &StateVector) -> f64 {
        let v = psi.amplitudes();
        let rv = self.rho.mul_vec(v);
        let f: C64 = v.iter().zip(&rv).map(|(a, b)| a.conj() * *b).sum();
        f.re.clamp(0.0, 1.0)
    }

    /// ⟨O⟩ = Tr(ρO) for a Hermitian operator on the listed targets.
    pub fn expectation(&self, op: &CMat, targets: &[usize]) -> f64 {
        let mut scratch = KernelScratch::new();
        self.expectation_scratch(op, targets, &mut scratch)
    }

    /// [`DensityMatrix::expectation`] with a caller-owned scratch.
    pub fn expectation_scratch(
        &self,
        op: &CMat,
        targets: &[usize],
        scratch: &mut KernelScratch,
    ) -> f64 {
        scratch.expectation(&self.rho, op, targets, &self.dims).re
    }

    /// Reduced density matrix of a single subsystem.
    pub fn reduced(&self, subsystem: usize) -> CMat {
        assert!(subsystem < self.dims.len(), "subsystem out of range");
        let d = self.dims[subsystem];
        let stride: usize = self.dims[..subsystem].iter().product();
        let total = self.rho.rows();
        let mut out = CMat::zeros(d, d);
        for i in 0..total {
            let di = (i / stride) % d;
            let base = i - di * stride;
            for dj in 0..d {
                let j = base + dj * stride;
                out[(di, dj)] += self.rho[(i, j)];
            }
        }
        out
    }

    /// Bloch components ⟨X⟩, ⟨Y⟩, ⟨Z⟩ of a subsystem's qubit subspace.
    pub fn bloch(&self, subsystem: usize) -> (f64, f64, f64) {
        let r = self.reduced(subsystem);
        (
            2.0 * r[(0, 1)].re,
            -2.0 * r[(0, 1)].im,
            (r[(0, 0)] - r[(1, 1)]).re,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels;
    use crate::gates;

    #[test]
    fn pure_state_round_trip() {
        let mut psi = StateVector::zero_qubits(2);
        psi.apply_unitary(&gates::h(), &[0]);
        psi.apply_unitary(&gates::cnot(), &[0, 1]);
        let rho = DensityMatrix::from_state(&psi);
        assert!((rho.purity() - 1.0).abs() < 1e-10);
        assert!((rho.fidelity_pure(&psi) - 1.0).abs() < 1e-10);
        let p = rho.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-10 && (p[3] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn unitary_evolution_matches_state_vector() {
        let mut psi = StateVector::zero_qubits(3);
        let mut rho = DensityMatrix::zero_qubits(3);
        for (gate, targets) in [
            (gates::h(), vec![0]),
            (gates::cnot(), vec![0, 2]),
            (gates::ry(0.7), vec![1]),
            (gates::cz(), vec![1, 2]),
        ] {
            psi.apply_unitary(&gate, &targets);
            rho.apply_unitary(&gate, &targets);
        }
        let expect = DensityMatrix::from_state(&psi);
        assert!(rho.matrix().max_abs_diff(expect.matrix()) < 1e-10);
    }

    #[test]
    fn embed_identity_elsewhere() {
        let full = embed(&gates::x(), &[1], &[2, 2, 2]);
        // X on qubit 1 = I ⊗ X ⊗ I in kron (MSB-first) ordering.
        let expect = CMat::identity(2).kron(&gates::x()).kron(&CMat::identity(2));
        assert!(full.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn depolarizing_drives_to_mixed() {
        let mut rho = DensityMatrix::zero_qubits(1);
        for _ in 0..200 {
            rho.apply_kraus(&channels::depolarizing(0.2), &[0]);
        }
        assert!((rho.purity() - 0.5).abs() < 1e-6, "purity {}", rho.purity());
        assert!((rho.trace() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        let mut rho = DensityMatrix::zero_qubits(1);
        rho.apply_unitary(&gates::x(), &[0]);
        rho.apply_kraus(&channels::amplitude_damping(0.3), &[0]);
        let p = rho.probabilities();
        assert!((p[0] - 0.3).abs() < 1e-10);
        assert!((p[1] - 0.7).abs() < 1e-10);
    }

    #[test]
    fn phase_damping_kills_coherence_not_populations() {
        let mut rho = DensityMatrix::zero_qubits(1);
        rho.apply_unitary(&gates::h(), &[0]);
        let before = rho.probabilities();
        rho.apply_kraus(&channels::phase_damping(0.5), &[0]);
        let after = rho.probabilities();
        assert!((before[0] - after[0]).abs() < 1e-10);
        // Off-diagonal coherence scales by √(1−λ).
        let r = rho.reduced(0);
        assert!((r[(0, 1)].abs() - 0.5 * 0.5_f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn trace_preserved_through_channels() {
        let mut rho = DensityMatrix::zero_qubits(2);
        rho.apply_unitary(&gates::h(), &[0]);
        rho.apply_unitary(&gates::cnot(), &[0, 1]);
        rho.apply_kraus(&channels::amplitude_damping(0.1), &[0]);
        rho.apply_kraus(&channels::depolarizing(0.05), &[1]);
        rho.apply_kraus(&channels::phase_damping(0.2), &[0]);
        assert!((rho.trace() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expectation_via_trace() {
        let mut rho = DensityMatrix::zero_qubits(2);
        rho.apply_unitary(&gates::x(), &[1]);
        assert!((rho.expectation(&gates::z(), &[0]) - 1.0).abs() < 1e-10);
        assert!((rho.expectation(&gates::z(), &[1]) + 1.0).abs() < 1e-10);
    }

    #[test]
    fn qutrit_density_matrix() {
        let mut rho = DensityMatrix::zero(&[3]);
        rho.apply_unitary(&gates::qutrit_increment(), &[0]);
        rho.apply_kraus(&channels::qutrit_relaxation(0.2, 0.0), &[0]);
        let p = rho.probabilities();
        // |1⟩ decays partially to |0⟩.
        assert!((p[0] - 0.2).abs() < 1e-9, "p = {p:?}");
        assert!((p[1] - 0.8).abs() < 1e-9);
        assert!((rho.trace() - 1.0).abs() < 1e-9);
    }
}
