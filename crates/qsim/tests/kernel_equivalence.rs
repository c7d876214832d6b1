//! Property-style equivalence tests: the stride kernels versus a dense
//! oracle built on the public [`embed`] — `embed(U)·ρ·embed(U)†` for
//! density matrices, `embed(U)·ψ` for state vectors — on random
//! unitaries, random CPTP Kraus sets and random Hermitian observables over
//! a mixed qubit/qutrit register `[2, 3, 2]` (and qubit-only registers),
//! across every interesting target tuple including reversed orderings.

use quant_math::{eigh, normal, seeded, unitary_exp, CMat, C64};
use quant_sim::{embed, DensityMatrix, KernelScratch, StateVector};
use rand::rngs::StdRng;

const DIMS: [usize; 3] = [2, 3, 2];

/// Target tuples covering 1- and 2-subsystem gates, adjacent and not,
/// in both digit orders.
fn target_sets() -> Vec<Vec<usize>> {
    vec![
        vec![0],
        vec![1],
        vec![2],
        vec![0, 1],
        vec![1, 0],
        vec![1, 2],
        vec![2, 1],
        vec![0, 2],
        vec![2, 0],
        vec![0, 1, 2],
        vec![2, 0, 1],
    ]
}

fn gate_dim(targets: &[usize]) -> usize {
    targets.iter().map(|&t| DIMS[t]).product()
}

fn random_matrix(rng: &mut StdRng, n: usize) -> CMat {
    CMat::from_fn(n, n, |_, _| {
        C64::new(normal(rng, 0.0, 1.0), normal(rng, 0.0, 1.0))
    })
}

fn random_hermitian(rng: &mut StdRng, n: usize) -> CMat {
    let a = random_matrix(rng, n);
    (&a + &a.dagger()).scale(C64::real(0.5))
}

fn random_unitary(rng: &mut StdRng, n: usize) -> CMat {
    unitary_exp(&random_hermitian(rng, n), 0.7)
}

/// A random CPTP Kraus set: random operators `Aᵢ` whitened by
/// `S^{-1/2}` where `S = Σ Aᵢ†Aᵢ`, so `Σ Kᵢ†Kᵢ = I` exactly (to float).
fn random_kraus(rng: &mut StdRng, n: usize, ops: usize) -> Vec<CMat> {
    let raw: Vec<CMat> = (0..ops).map(|_| random_matrix(rng, n)).collect();
    let mut s = CMat::zeros(n, n);
    for a in &raw {
        s = &s + &(&a.dagger() * a);
    }
    let eig = eigh(&s);
    let inv_sqrt_diag = CMat::diag(
        &eig.values
            .iter()
            .map(|&l| C64::real(1.0 / l.max(1e-300).sqrt()))
            .collect::<Vec<_>>(),
    );
    let s_inv_sqrt = &(&eig.vectors * &inv_sqrt_diag) * &eig.vectors.dagger();
    raw.iter().map(|a| a * &s_inv_sqrt).collect()
}

/// Oracle: `Σₖ embed(Kₖ)·ρ·embed(Kₖ)†` as a dense matrix (one Kraus
/// operator is a unitary update).
fn oracle_channel(rho: &DensityMatrix, kraus: &[CMat], targets: &[usize]) -> CMat {
    let mut out = CMat::zeros(rho.dim(), rho.dim());
    for k in kraus {
        let full = embed(k, targets, rho.dims());
        out = &out + &(&(&full * rho.matrix()) * &full.dagger());
    }
    out
}

/// Oracle: `Tr(ρ·embed(O))`.
fn oracle_expectation(rho: &DensityMatrix, op: &CMat, targets: &[usize]) -> f64 {
    (rho.matrix() * &embed(op, targets, rho.dims())).trace().re
}

/// Oracle: the amplitudes `embed(K)·ψ`, unnormalized.
fn oracle_state(psi: &StateVector, k: &CMat, targets: &[usize]) -> Vec<C64> {
    embed(k, targets, psi.dims()).mul_vec(psi.amplitudes())
}

/// Oracle: `⟨ψ|embed(O)|ψ⟩`.
fn oracle_state_expectation(psi: &StateVector, op: &CMat, targets: &[usize]) -> f64 {
    let transformed = oracle_state(psi, op, targets);
    let inner: C64 = psi
        .amplitudes()
        .iter()
        .zip(&transformed)
        .map(|(a, b)| a.conj() * *b)
        .sum();
    inner.re
}

fn max_amp_diff(a: &[C64], b: &[C64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0f64, f64::max)
}

/// A random full-rank mixed state: a random pure state (built with the
/// oracle) through a random channel on the whole register. Every test
/// below compares a kernel and the oracle on the same input, so how the
/// input was made does not matter.
fn random_density(rng: &mut StdRng) -> DensityMatrix {
    let total: usize = DIMS.iter().product();
    let mut dm = DensityMatrix::from_state(&random_state(rng));
    dm.apply_kraus(&random_kraus(rng, total, 2), &[0, 1, 2]);
    debug_assert!((dm.trace() - 1.0).abs() < 1e-9);
    dm
}

#[test]
fn unitary_kernel_matches_embed_reference() {
    let mut rng = seeded(0xA11CE);
    let mut scratch = KernelScratch::new();
    for targets in target_sets() {
        for round in 0..3 {
            let u = random_unitary(&mut rng, gate_dim(&targets));
            let mut fast = random_density(&mut rng);
            let slow = oracle_channel(&fast, std::slice::from_ref(&u), &targets);
            fast.apply_unitary_scratch(&u, &targets, &mut scratch);
            let diff = fast.matrix().max_abs_diff(&slow);
            assert!(
                diff < 1e-12,
                "targets {targets:?} round {round}: diff {diff:.3e}"
            );
            assert!((fast.trace() - 1.0).abs() < 1e-9);
        }
    }
}

#[test]
fn kraus_kernel_matches_embed_reference() {
    let mut rng = seeded(0xBEEF);
    let mut scratch = KernelScratch::new();
    for targets in target_sets() {
        for ops in [1usize, 2, 4] {
            let kraus = random_kraus(&mut rng, gate_dim(&targets), ops);
            let mut fast = random_density(&mut rng);
            let slow = oracle_channel(&fast, &kraus, &targets);
            fast.apply_kraus_scratch(&kraus, &targets, &mut scratch);
            let diff = fast.matrix().max_abs_diff(&slow);
            assert!(
                diff < 1e-12,
                "targets {targets:?} with {ops} ops: diff {diff:.3e}"
            );
            assert!((fast.trace() - 1.0).abs() < 1e-9);
        }
    }
}

#[test]
fn expectation_kernel_matches_embed_reference() {
    let mut rng = seeded(0xFACADE);
    let mut scratch = KernelScratch::new();
    for targets in target_sets() {
        let op = random_hermitian(&mut rng, gate_dim(&targets));
        let rho = random_density(&mut rng);
        let fast = rho.expectation_scratch(&op, &targets, &mut scratch);
        let slow = oracle_expectation(&rho, &op, &targets);
        assert!(
            (fast - slow).abs() < 1e-10,
            "targets {targets:?}: {fast} vs {slow}"
        );
    }
}

#[test]
fn shared_scratch_is_equivalent_to_fresh_scratch() {
    // One scratch reused across interleaved target tuples and *registers
    // of different shapes* must behave exactly like fresh scratches —
    // this pins the (targets, dims) index-cache keying.
    let mut rng = seeded(0x5C4A7C);
    let mut shared = KernelScratch::new();
    for _ in 0..4 {
        for dims in [vec![2usize, 3, 2], vec![2, 2], vec![3, 2]] {
            let targets: Vec<usize> = vec![rng_index(&mut rng, dims.len())];
            let k = dims[targets[0]];
            let u = random_unitary(&mut rng, k);
            let mut a = DensityMatrix::zero(&dims);
            let mut b = a.clone();
            a.apply_unitary_scratch(&u, &targets, &mut shared);
            b.apply_unitary_scratch(&u, &targets, &mut KernelScratch::new());
            assert_eq!(
                a.matrix().as_slice(),
                b.matrix().as_slice(),
                "shared scratch diverged on dims {dims:?} targets {targets:?}"
            );
        }
    }
}

fn rng_index(rng: &mut StdRng, n: usize) -> usize {
    (normal(rng, 0.0, 100.0).abs() as usize) % n
}

/// A random normalized state over the mixed register, built through the
/// oracle only.
fn random_state(rng: &mut StdRng) -> StateVector {
    let total: usize = DIMS.iter().product();
    let zero = StateVector::zero(&DIMS);
    let amps = oracle_state(&zero, &random_unitary(rng, total), &[0, 1, 2]);
    StateVector::from_amplitudes(&DIMS, amps)
}

#[test]
fn state_vector_unitary_kernel_matches_embed_oracle() {
    // The trajectory executor's hot path: random (sub-)unitaries through
    // `apply_unitary_scratch` versus `embed(U)·ψ`, on every target tuple
    // over the mixed qubit/qutrit register.
    let mut rng = seeded(0x57A7E);
    let mut scratch = KernelScratch::new();
    for targets in target_sets() {
        for round in 0..3 {
            let u = random_unitary(&mut rng, gate_dim(&targets));
            let mut fast = random_state(&mut rng);
            let slow = oracle_state(&fast, &u, &targets);
            fast.apply_unitary_scratch(&u, &targets, &mut scratch);
            let diff = max_amp_diff(fast.amplitudes(), &slow);
            assert!(
                diff < 1e-12,
                "targets {targets:?} round {round}: diff {diff:.3e}"
            );
            assert!((fast.norm() - 1.0).abs() < 1e-9);
        }
    }
}

#[test]
fn state_vector_kraus_branch_kernel_matches_embed_oracle() {
    // A Kraus branch through the unitary kernel must agree with `embed(K)·ψ`
    // on the post-branch state *and* the weight ‖Kψ‖² — the weight drives
    // the trajectory executor's branch sampling, so a drift here would
    // bias the ensemble.
    let mut rng = seeded(0xB4A9C4);
    let mut scratch = KernelScratch::new();
    for targets in target_sets() {
        for ops in [2usize, 4] {
            let kraus = random_kraus(&mut rng, gate_dim(&targets), ops);
            for k in &kraus {
                let mut fast = random_state(&mut rng);
                let slow = oracle_state(&fast, k, &targets);
                fast.apply_unitary_scratch(k, &targets, &mut scratch);
                let wf = fast.norm().powi(2);
                let ws: f64 = slow.iter().map(|a| a.norm_sqr()).sum();
                assert!(
                    (wf - ws).abs() < 1e-12,
                    "targets {targets:?}: weight {wf} vs {ws}"
                );
                let diff = max_amp_diff(fast.amplitudes(), &slow);
                assert!(diff < 1e-12, "targets {targets:?}: diff {diff:.3e}");
            }
        }
    }
}

#[test]
fn state_vector_expectation_kernel_matches_embed_oracle() {
    let mut rng = seeded(0xE59EC7);
    let mut scratch = KernelScratch::new();
    for targets in target_sets() {
        let op = random_hermitian(&mut rng, gate_dim(&targets));
        let psi = random_state(&mut rng);
        let fast = psi.expectation_scratch(&op, &targets, &mut scratch);
        let slow = oracle_state_expectation(&psi, &op, &targets);
        assert!(
            (fast - slow).abs() < 1e-10,
            "targets {targets:?}: {fast} vs {slow}"
        );
    }
}

#[test]
fn state_vector_and_density_kernels_agree_on_circuits() {
    // Pure-state evolution through the stride kernels must match the
    // state-vector simulator exactly (both are stride-based paths).
    use quant_sim::gates;
    let mut psi = StateVector::zero(&DIMS);
    let mut rho = DensityMatrix::zero(&DIMS);
    let mut scratch = KernelScratch::new();
    let steps: Vec<(CMat, Vec<usize>)> = vec![
        (gates::h(), vec![0]),
        (gates::qutrit_x01(), vec![1]),
        (gates::cnot(), vec![2, 0]),
        (gates::ry(0.7), vec![2]),
        (gates::qutrit_increment(), vec![1]),
    ];
    for (u, targets) in &steps {
        psi.apply_unitary(u, targets);
        rho.apply_unitary_scratch(u, targets, &mut scratch);
    }
    let expect = DensityMatrix::from_state(&psi);
    assert!(rho.matrix().max_abs_diff(expect.matrix()) < 1e-12);
    assert!((rho.fidelity_pure(&psi) - 1.0).abs() < 1e-10);
}
