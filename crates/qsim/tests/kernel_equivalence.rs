//! Property-style equivalence tests: the stride kernels versus the
//! `embed()` reference route, on random unitaries, random CPTP Kraus sets
//! and random Hermitian observables over a mixed qubit/qutrit register
//! `[2, 3, 2]` (and qubit-only registers), across every interesting target
//! tuple including reversed orderings.

use quant_math::{eigh, normal, seeded, unitary_exp, CMat, C64};
use quant_sim::{DensityMatrix, KernelScratch};
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

/// A random full-rank mixed state, built through the reference path only:
/// a global random unitary on `|0…0⟩⟨0…0|` followed by a random channel.
fn random_density(rng: &mut StdRng) -> DensityMatrix {
    let total: usize = DIMS.iter().product();
    let mut dm = DensityMatrix::zero(&DIMS);
    dm.apply_unitary_ref(&random_unitary(rng, total), &[0, 1, 2]);
    dm.apply_kraus_ref(&random_kraus(rng, total, 2), &[0, 1, 2]);
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
            let mut slow = fast.clone();
            fast.apply_unitary_scratch(&u, &targets, &mut scratch);
            slow.apply_unitary_ref(&u, &targets);
            let diff = fast.matrix().max_abs_diff(slow.matrix());
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
            let mut slow = fast.clone();
            fast.apply_kraus_scratch(&kraus, &targets, &mut scratch);
            slow.apply_kraus_ref(&kraus, &targets);
            let diff = fast.matrix().max_abs_diff(slow.matrix());
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
        let slow = rho.expectation_ref(&op, &targets);
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
/// reference path only.
fn random_state(rng: &mut StdRng) -> quant_sim::StateVector {
    let total: usize = DIMS.iter().product();
    let mut psi = quant_sim::StateVector::zero(&DIMS);
    psi.apply_unitary_ref(&random_unitary(rng, total), &[0, 1, 2]);
    psi
}

#[test]
fn state_vector_unitary_kernel_matches_skip_scan_reference() {
    // The trajectory executor's hot path: random (sub-)unitaries through
    // `apply_unitary_scratch` versus the retained skip-scan reference, on
    // every target tuple over the mixed qubit/qutrit register.
    let mut rng = seeded(0x57A7E);
    let mut scratch = KernelScratch::new();
    for targets in target_sets() {
        for round in 0..3 {
            let u = random_unitary(&mut rng, gate_dim(&targets));
            let mut fast = random_state(&mut rng);
            let mut slow = fast.clone();
            fast.apply_unitary_scratch(&u, &targets, &mut scratch);
            slow.apply_unitary_ref(&u, &targets);
            let diff = fast
                .amplitudes()
                .iter()
                .zip(slow.amplitudes())
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0f64, f64::max);
            assert!(
                diff < 1e-12,
                "targets {targets:?} round {round}: diff {diff:.3e}"
            );
            assert!((fast.norm() - 1.0).abs() < 1e-9);
        }
    }
}

#[test]
fn state_vector_kraus_branch_kernel_matches_reference() {
    // Branch application must agree on the post-branch state *and* the
    // returned weight ‖Kψ‖² — the weight drives the trajectory executor's
    // branch sampling, so a drift here would bias the ensemble.
    let mut rng = seeded(0xB4A9C4);
    let mut scratch = KernelScratch::new();
    for targets in target_sets() {
        for ops in [2usize, 4] {
            let kraus = random_kraus(&mut rng, gate_dim(&targets), ops);
            for k in &kraus {
                let mut fast = random_state(&mut rng);
                let mut slow = fast.clone();
                let wf = fast.apply_kraus_branch_scratch(k, &targets, &mut scratch);
                let ws = slow.apply_kraus_branch_ref(k, &targets);
                assert!(
                    (wf - ws).abs() < 1e-12,
                    "targets {targets:?}: weight {wf} vs {ws}"
                );
                let diff = fast
                    .amplitudes()
                    .iter()
                    .zip(slow.amplitudes())
                    .map(|(a, b)| (*a - *b).abs())
                    .fold(0.0f64, f64::max);
                assert!(diff < 1e-12, "targets {targets:?}: diff {diff:.3e}");
            }
        }
    }
}

#[test]
fn state_vector_expectation_kernel_matches_reference() {
    let mut rng = seeded(0xE59EC7);
    let mut scratch = KernelScratch::new();
    for targets in target_sets() {
        let op = random_hermitian(&mut rng, gate_dim(&targets));
        let psi = random_state(&mut rng);
        let fast = psi.expectation_scratch(&op, &targets, &mut scratch);
        let slow = psi.expectation_ref(&op, &targets);
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
    use quant_sim::{gates, StateVector};
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
