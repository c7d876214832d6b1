//! Property-style equivalence tests for the fusion layer: a plan's fused
//! blocks, applied through the blocked state-vector kernels, must
//! reproduce sequential application of the original op stream through a
//! dense oracle (`embed(U)·ψ`) on the mixed qubit/qutrit register
//! `[2, 3, 2]` — and the fused block matrices must equal the ordered
//! product of the embedded ops.

use quant_math::{normal, seeded, unitary_exp, CMat, C64};
use quant_sim::fusion::{FusionPlan, OpDesc, Step, MAX_FUSED_WEIGHT};
use quant_sim::{embed, KernelScratch, StateVector};
use rand::{rngs::StdRng, Rng};

const DIMS: [usize; 3] = [2, 3, 2];

fn random_matrix(rng: &mut StdRng, n: usize) -> CMat {
    CMat::from_fn(n, n, |_, _| {
        C64::new(normal(rng, 0.0, 1.0), normal(rng, 0.0, 1.0))
    })
}

fn random_unitary(rng: &mut StdRng, n: usize) -> CMat {
    let a = random_matrix(rng, n);
    let h = (&a + &a.dagger()).scale(C64::real(0.5));
    unitary_exp(&h, 0.7)
}

/// Oracle: the amplitudes `embed(U)·ψ`.
fn oracle_apply(amps: &[C64], u: &CMat, targets: &[usize]) -> Vec<C64> {
    embed(u, targets, &DIMS).mul_vec(amps)
}

/// A random entangled state: the zero state hit by a full-register
/// random unitary through the oracle.
fn random_state(rng: &mut StdRng) -> StateVector {
    let u = random_unitary(rng, DIMS.iter().product());
    let amps = oracle_apply(StateVector::zero(&DIMS).amplitudes(), &u, &[0, 1, 2]);
    StateVector::from_amplitudes(&DIMS, amps)
}

/// Candidate supports over the `[2,3,2]` register, both digit orders.
fn supports() -> Vec<Vec<usize>> {
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
    ]
}

/// A random op stream mixing unitary gates and local (channel-point)
/// ops, with matrices for both.
fn random_stream(rng: &mut StdRng, len: usize) -> (Vec<OpDesc>, Vec<CMat>) {
    let pool = supports();
    let mut descs = Vec::with_capacity(len);
    let mut mats = Vec::with_capacity(len);
    for _ in 0..len {
        if rng.gen::<f64>() < 0.25 {
            // A local channel point: single subsystem, any matrix (use a
            // unitary stand-in; the fold arithmetic is matrix-agnostic).
            let q = rng.gen_range(0..DIMS.len());
            descs.push(OpDesc::local(q));
            mats.push(random_unitary(rng, DIMS[q]));
        } else {
            let support = pool[rng.gen_range(0..pool.len())].clone();
            let dim: usize = support.iter().map(|&s| DIMS[s]).product();
            mats.push(random_unitary(rng, dim));
            descs.push(OpDesc::unitary(&support));
        }
    }
    (descs, mats)
}

fn max_amp_diff(a: &[C64], b: &[C64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).norm_sqr().sqrt())
        .fold(0.0f64, f64::max)
}

#[test]
fn fused_apply_matches_sequential_reference_apply() {
    let mut rng = seeded(0xFA57_B10C);
    let mut scratch = KernelScratch::new();
    for trial in 0..24 {
        let len = 3 + (trial % 9);
        let (descs, mats) = random_stream(&mut rng, len);
        let plan = FusionPlan::build(&descs, &DIMS, MAX_FUSED_WEIGHT);
        let fused = plan.fused_blocks(&mats, &DIMS, &mut scratch);

        let mut fast = random_state(&mut rng);
        let mut slow = fast.amplitudes().to_vec();
        for step in &plan.steps {
            if let Step::Close { block } = step {
                fast.apply_unitary_scratch(
                    &fused[*block],
                    &plan.blocks[*block].targets,
                    &mut scratch,
                );
            }
        }
        for (desc, mat) in descs.iter().zip(&mats) {
            slow = oracle_apply(&slow, mat, &desc.support);
        }
        let diff = max_amp_diff(fast.amplitudes(), &slow);
        assert!(
            diff < 1e-12,
            "trial {trial}: fused vs sequential diff {diff:.3e}\nplan: {plan:?}"
        );
    }
}

#[test]
fn fused_block_matrices_equal_embedded_products() {
    let mut rng = seeded(0x0F0E_0D0C);
    let mut scratch = KernelScratch::new();
    for trial in 0..12 {
        let (descs, mats) = random_stream(&mut rng, 4 + (trial % 5));
        let plan = FusionPlan::build(&descs, &DIMS, MAX_FUSED_WEIGHT);
        let fused = plan.fused_blocks(&mats, &DIMS, &mut scratch);

        // Reference: embed every op into its block's subspace and take
        // the ordered product per block.
        let mut expect: Vec<CMat> = plan
            .blocks
            .iter()
            .map(|b| {
                let w: usize = b.targets.iter().map(|&t| DIMS[t]).product();
                CMat::identity(w)
            })
            .collect();
        for step in &plan.steps {
            match step {
                Step::Fold { op, block, local } => {
                    let bdims = plan.block_dims(*block, &DIMS);
                    let lifted = embed(&mats[*op], local, &bdims);
                    expect[*block] = &lifted * &expect[*block];
                }
                Step::Merge { from, into, local } => {
                    let bdims = plan.block_dims(*into, &DIMS);
                    let lifted = embed(&fused[*from], local, &bdims);
                    expect[*into] = &lifted * &expect[*into];
                }
                _ => {}
            }
        }
        for (b, (got, want)) in fused.iter().zip(&expect).enumerate() {
            let diff = got.phase_invariant_diff(want);
            assert!(
                diff < 1e-12,
                "trial {trial} block {b}: matrix diff {diff:.3e}"
            );
        }
    }
}
