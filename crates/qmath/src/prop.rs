//! Allocation-free short-time propagators.
//!
//! The pulse-level device simulator evaluates `exp(-i·H(tₖ)·dt)` once per
//! 0.22 ns sample — millions of times per experiment. The eigendecomposition
//! route ([`crate::unitary_exp`]) is exact but performs a full complex
//! Jacobi diagonalization plus several allocations per call. For the short
//! time steps the integrator actually takes (‖H·dt‖ ≲ 0.5), a truncated
//! Taylor series with scaling-and-squaring reaches the same 1e-12-level
//! accuracy at a fraction of the cost, and — with the scratch buffers held
//! here — performs **zero** heap allocations per propagator after warm-up.

use crate::complex::C64;
use crate::mat::CMat;
use std::ops::{Add, AddAssign, Mul};

/// Taylor truncation degree. With the scaled norm held at ≤ 0.5 the
/// remainder is below 0.5¹³/13! ≈ 2·10⁻¹⁴, comfortably inside the
/// integrator tolerances even after the squaring stage doubles it a few
/// times. Degree 12 is chosen because it factors as 4 groups of 3 for
/// the Paterson–Stockmeyer evaluation below.
const TAYLOR_DEGREE: usize = 12;

/// cₖ = 1/k! for k = 0..=12, folded at compile time.
const INV_FACTORIAL: [f64; TAYLOR_DEGREE + 1] = {
    let mut c = [1.0f64; TAYLOR_DEGREE + 1];
    let mut k = 1;
    while k <= TAYLOR_DEGREE {
        c[k] = c[k - 1] / k as f64;
        k += 1;
    }
    c
};

/// Scratch buffers for repeated `exp(-i H t)` evaluations of one fixed
/// dimension. Create once per integration loop, reuse for every sample.
#[derive(Clone, Debug)]
pub struct PropagatorScratch {
    n: usize,
    a: CMat,
    a2: CMat,
    a3: CMat,
    tmp: CMat,
    sum: CMat,
}

impl PropagatorScratch {
    /// Scratch for `n × n` generators.
    pub fn new(n: usize) -> Self {
        PropagatorScratch {
            n,
            a: CMat::zeros(n, n),
            a2: CMat::zeros(n, n),
            a3: CMat::zeros(n, n),
            tmp: CMat::zeros(n, n),
            sum: CMat::zeros(n, n),
        }
    }

    /// Dimension this scratch serves.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Writes `exp(-i·h·t)` into `out` without allocating.
    ///
    /// `h` must be Hermitian for the result to be unitary (not checked
    /// here — the integrators construct Hermitian drive Hamiltonians by
    /// symmetry, and checking would cost as much as the exponential).
    ///
    /// # Panics
    ///
    /// Panics when `h` or `out` is not `n × n`.
    pub fn unitary_exp_into(&mut self, h: &CMat, t: f64, out: &mut CMat) {
        assert_eq!(h.rows(), self.n, "generator dimension mismatch");
        assert!(h.is_square(), "unitary_exp_into requires a square matrix");
        if self.n == 3 {
            // Qutrit fast path: fold the −i·t scaling and the norm estimate
            // into the stack-array kernel (‖−i·t·H‖ = |t|·‖H‖, so the
            // squaring count comes from one fused pass over `h`).
            assert_eq!(out.rows(), 3, "output row mismatch");
            assert_eq!(out.cols(), 3, "output column mismatch");
            let hs = &h.as_slice()[..9];
            let (factor, squarings) = step_scaling(norm_sqr_sum(hs), t);
            let mut a = [C64::ZERO; 9];
            for (x, &z) in a.iter_mut().zip(hs) {
                *x = z * factor;
            }
            out.as_mut_slice().copy_from_slice(&expm3(&a, squarings));
            return;
        }
        // A = -i·t·H.
        self.a.copy_from(h);
        self.a.scale_assign(C64::imag(-t));
        self.expm_into(out);
    }

    /// Writes `exp(a)` into `out` without allocating (general generator).
    pub fn expm_of_into(&mut self, a: &CMat, out: &mut CMat) {
        assert_eq!(a.rows(), self.n, "generator dimension mismatch");
        assert!(a.is_square(), "expm_of_into requires a square matrix");
        self.a.copy_from(a);
        self.expm_into(out);
    }

    /// Exponentiates `self.a` (destroying it) into `out`.
    ///
    /// The truncated Taylor sum Σₖ aᵏ/k! is evaluated Paterson–Stockmeyer
    /// style: with A² and A³ precomputed, the degree-12 polynomial groups
    /// as B₀ + A³·(B₁ + A³·(B₂ + A³·(B₃ + A³·c₁₂·I))) where each
    /// Bⱼ = c₃ⱼI + c₃ⱼ₊₁A + c₃ⱼ₊₂A² costs only scaled adds. That is 6
    /// matrix products per exponential instead of the 12 a term-by-term
    /// recurrence needs — matmuls dominate at these dimensions.
    fn expm_into(&mut self, out: &mut CMat) {
        let squarings = squarings_for(self.a.frobenius_norm());
        if squarings > 0 {
            self.a
                .scale_assign(C64::real(1.0 / f64::powi(2.0, squarings as i32)));
        }
        if self.n == 3 {
            // Qutrit dimension is the integrator hot path — run the whole
            // evaluation on stack arrays so nothing round-trips through
            // heap-backed matrices between products.
            assert_eq!(out.rows(), 3, "output row mismatch");
            assert_eq!(out.cols(), 3, "output column mismatch");
            let mut a = [C64::ZERO; 9];
            a.copy_from_slice(self.a.as_slice());
            out.as_mut_slice().copy_from_slice(&expm3(&a, squarings));
            return;
        }
        let c = &INV_FACTORIAL;
        self.a.mul_into(&self.a, &mut self.a2);
        self.a2.mul_into(&self.a, &mut self.a3);
        // Horner in A³, innermost group first.
        self.sum.set_identity();
        self.sum.scale_assign(C64::real(c[12]));
        for j in (0..4).rev() {
            self.sum.mul_into(&self.a3, &mut self.tmp);
            std::mem::swap(&mut self.sum, &mut self.tmp);
            for i in 0..self.n {
                self.sum[(i, i)] += C64::real(c[3 * j]);
            }
            self.sum.add_scaled_assign(&self.a, C64::real(c[3 * j + 1]));
            self.sum
                .add_scaled_assign(&self.a2, C64::real(c[3 * j + 2]));
        }
        // Undo the scaling: square `squarings` times.
        for _ in 0..squarings {
            self.tmp.copy_from(&self.sum);
            self.tmp.mul_into(&self.tmp, &mut self.sum);
        }
        out.copy_from(&self.sum);
    }
}

/// The scaling-and-squaring policy every exponential here shares: halve
/// the generator until its norm is at most 0.5, where the degree-12
/// Taylor remainder is negligible. One copy, because the in-block route of
/// [`unitary_exp9_in_blocks_into`] is bit-identical to
/// [`unitary_exp9_into`] only while both take the same squaring count.
fn squarings_for(norm: f64) -> u32 {
    if norm > 0.5 {
        (norm / 0.5).log2().ceil().max(0.0) as u32
    } else {
        0
    }
}

/// `(−i·t/2ˢ, s)` for `exp(−i·h·t)`, given the generator's squared
/// Frobenius norm `norm2`: the factor that scales a Hermitian generator
/// into the Taylor window, and the squaring count `s` that undoes it
/// (`‖−i·t·H‖ = |t|·‖H‖`).
fn step_scaling(norm2: f64, t: f64) -> (C64, u32) {
    let squarings = squarings_for(norm2.sqrt() * t.abs());
    (C64::imag(-t / f64::powi(2.0, squarings as i32)), squarings)
}

/// `Σ|z|²` over `entries` in the order given (row-major for every caller).
fn norm_sqr_sum<'a>(entries: impl IntoIterator<Item = &'a C64>) -> f64 {
    let mut norm2 = 0.0;
    for z in entries {
        norm2 += z.norm_sqr();
    }
    norm2
}

/// A 3×3 matrix entry [`expm3`] runs on: one complex number, or the same
/// entry of two matrices side by side ([`C64x2`]).
trait Entry: Copy + Add<Output = Self> + Mul<Output = Self> + AddAssign {
    const ZERO: Self;
    /// `x + 0i`, in every lane.
    fn real(x: f64) -> Self;
}

impl Entry for C64 {
    const ZERO: Self = C64::ZERO;
    #[inline(always)]
    fn real(x: f64) -> Self {
        C64::real(x)
    }
}

/// The same entry of two complex matrices in structure-of-arrays form:
/// lane `l` of `re` and `im` belongs to matrix `l`. Every operation is the
/// [`C64`] operation applied lane by lane, with the same products in the
/// same association (including the `x·0` terms of a product with a real
/// number), so each lane's bits equal the scalar result. LLVM turns each
/// lane pair into one SSE2 instruction at the baseline x86-64 target; Rust
/// never contracts a product and a sum into an FMA, at any target.
#[derive(Clone, Copy)]
struct C64x2 {
    re: [f64; 2],
    im: [f64; 2],
}

impl Add for C64x2 {
    type Output = C64x2;
    #[inline(always)]
    fn add(self, rhs: C64x2) -> C64x2 {
        C64x2 {
            re: [self.re[0] + rhs.re[0], self.re[1] + rhs.re[1]],
            im: [self.im[0] + rhs.im[0], self.im[1] + rhs.im[1]],
        }
    }
}

impl Mul for C64x2 {
    type Output = C64x2;
    #[inline(always)]
    fn mul(self, rhs: C64x2) -> C64x2 {
        C64x2 {
            re: [
                self.re[0] * rhs.re[0] - self.im[0] * rhs.im[0],
                self.re[1] * rhs.re[1] - self.im[1] * rhs.im[1],
            ],
            im: [
                self.re[0] * rhs.im[0] + self.im[0] * rhs.re[0],
                self.re[1] * rhs.im[1] + self.im[1] * rhs.re[1],
            ],
        }
    }
}

impl AddAssign for C64x2 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: C64x2) {
        *self = *self + rhs;
    }
}

impl Entry for C64x2 {
    const ZERO: Self = C64x2 {
        re: [0.0; 2],
        im: [0.0; 2],
    };
    #[inline(always)]
    fn real(x: f64) -> Self {
        C64x2 {
            re: [x; 2],
            im: [0.0; 2],
        }
    }
}

/// Degree-12 Paterson–Stockmeyer `exp` specialized to 3×3, entirely on
/// stack arrays. `a` is the already-scaled generator; `squarings` undoes
/// the scaling at the end. Same evaluation order as the generic path, so
/// the two agree to rounding. On [`C64x2`] entries it evaluates two
/// generators at once, each lane bit-identical to the [`C64`] instance.
fn expm3<T: Entry>(a: &[T; 9], squarings: u32) -> [T; 9] {
    #[inline(always)]
    fn mul3<T: Entry>(a: &[T; 9], b: &[T; 9]) -> [T; 9] {
        let mut o = [T::ZERO; 9];
        for r in 0..3 {
            let (a0, a1, a2) = (a[3 * r], a[3 * r + 1], a[3 * r + 2]);
            o[3 * r] = a0 * b[0] + a1 * b[3] + a2 * b[6];
            o[3 * r + 1] = a0 * b[1] + a1 * b[4] + a2 * b[7];
            o[3 * r + 2] = a0 * b[2] + a1 * b[5] + a2 * b[8];
        }
        o
    }
    let c = &INV_FACTORIAL;
    let m = *a;
    let m2 = mul3(&m, &m);
    let m3 = mul3(&m2, &m);
    // Horner in M³, innermost group first: start from c₁₂·I.
    let mut sum = [T::ZERO; 9];
    for i in 0..3 {
        sum[4 * i] = T::real(c[12]);
    }
    for j in (0..4).rev() {
        sum = mul3(&sum, &m3);
        for i in 0..9 {
            sum[i] += m[i] * T::real(c[3 * j + 1]) + m2[i] * T::real(c[3 * j + 2]);
        }
        for i in 0..3 {
            sum[4 * i] += T::real(c[3 * j]);
        }
    }
    for _ in 0..squarings {
        sum = mul3(&sum, &sum);
    }
    sum
}

/// [`expm3`] of two scaled generators sharing one squaring count, on two
/// lanes: bit-identical to two scalar calls.
fn expm3_x2(a: [[C64; 9]; 2], squarings: u32) -> [[C64; 9]; 2] {
    let lanes = std::array::from_fn(|k| C64x2 {
        re: [a[0][k].re, a[1][k].re],
        im: [a[0][k].im, a[1][k].im],
    });
    let e = expm3(&lanes, squarings);
    std::array::from_fn(|l| std::array::from_fn(|k| C64::new(e[k].re[l], e[k].im[l])))
}

/// `out = a · b` for row-major 9×9 operands on stack arrays.
///
/// The two-qutrit pair integrator spends essentially all of its time in
/// 9×9 products; with the dimensions known at compile time the row
/// accumulator stays in registers and the product runs well ahead of the
/// generic heap-matrix loop. Same `i·k·j` accumulation order as
/// [`crate::CMat::mul_into`].
pub fn mul9_into(a: &[C64; 81], b: &[C64; 81], out: &mut [C64; 81]) {
    for r in 0..9 {
        let ar = &a[9 * r..9 * r + 9];
        let mut acc = [C64::ZERO; 9];
        for (k, &ak) in ar.iter().enumerate() {
            // Drive Hamiltonians (and their low Taylor powers) are sparse;
            // skipping zero coefficients mirrors the generic heap loop.
            if ak == C64::ZERO {
                continue;
            }
            let br = &b[9 * k..9 * k + 9];
            for (x, &bv) in acc.iter_mut().zip(br) {
                *x += ak * bv;
            }
        }
        out[9 * r..9 * r + 9].copy_from_slice(&acc);
    }
}

/// Writes `exp(-i·h·t)` of a row-major Hermitian 9×9 generator into `out`,
/// entirely on stack arrays — the two-qutrit analogue of the 3×3 fast path
/// inside [`PropagatorScratch::unitary_exp_into`]. Same degree-12
/// Paterson–Stockmeyer evaluation and scaling-and-squaring policy, so the
/// result agrees with the heap-matrix route to rounding.
pub fn unitary_exp9_into(h: &[C64; 81], t: f64, out: &mut [C64; 81]) {
    let (factor, squarings) = step_scaling(norm_sqr_sum(h), t);
    let mut a = [C64::ZERO; 81];
    for (x, &z) in a.iter_mut().zip(h.iter()) {
        *x = z * factor;
    }
    expm9(&a, squarings, out);
}

/// Degree-12 Paterson–Stockmeyer `exp` on 9×9 stack arrays; `a` is the
/// already-scaled generator, `squarings` undoes the scaling at the end.
fn expm9(a: &[C64; 81], squarings: u32, out: &mut [C64; 81]) {
    let c = &INV_FACTORIAL;
    let m = *a;
    let mut m2 = [C64::ZERO; 81];
    mul9_into(&m, &m, &mut m2);
    let mut m3 = [C64::ZERO; 81];
    mul9_into(&m2, &m, &mut m3);
    // Horner in M³, innermost group first: start from c₁₂·I.
    let mut sum = [C64::ZERO; 81];
    for i in 0..9 {
        sum[10 * i] = C64::real(c[12]);
    }
    let mut tmp = [C64::ZERO; 81];
    for j in (0..4).rev() {
        mul9_into(&sum, &m3, &mut tmp);
        sum = tmp;
        for i in 0..81 {
            sum[i] += m[i] * C64::real(c[3 * j + 1]) + m2[i] * C64::real(c[3 * j + 2]);
        }
        for i in 0..9 {
            sum[10 * i] += C64::real(c[3 * j]);
        }
    }
    for _ in 0..squarings {
        mul9_into(&sum, &sum, &mut tmp);
        sum = tmp;
    }
    *out = sum;
}

/// A split of the 9-dimensional two-qutrit space (row-major index
/// `lo + 3·hi`) into three 3-dimensional blocks. A generator that only
/// couples states within each block is block-diagonal, so its exponential
/// is three 3×3 exponentials instead of one 9×9.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Blocks9 {
    /// Blocks `{b, b+3, b+6}`, one per level `b` of the low digit: the
    /// generator leaves the low digit alone.
    Strided,
    /// Blocks `{3b, 3b+1, 3b+2}`, one per level `b` of the high digit:
    /// the generator leaves the high digit alone.
    Contiguous,
}

impl Blocks9 {
    /// The 9-space index of entry `i` of block `b` (both below 3): below 9,
    /// and ascending in `i`.
    #[inline(always)]
    pub fn index(self, b: usize, i: usize) -> usize {
        match self {
            Blocks9::Strided => b + 3 * i,
            Blocks9::Contiguous => 3 * b + i,
        }
    }

    /// The inverse of [`Blocks9::index`]: the block `b` and the entry `i`
    /// within it of 9-space index `r` (below 9).
    #[inline(always)]
    fn locate(self, r: usize) -> (usize, usize) {
        match self {
            Blocks9::Strided => (r % 3, r / 3),
            Blocks9::Contiguous => (r / 3, r % 3),
        }
    }

    /// The blocks whose three rows of the row-major 9×4 slab `u` are all
    /// exactly zero, of either sign: bit `b` of the mask is block `b`.
    pub fn zero_blocks(self, u: &[C64; 36]) -> u8 {
        let mut mask = 0;
        for b in 0..3 {
            let zero = (0..3).all(|i| {
                let r = self.index(b, i);
                u[4 * r..4 * r + 4].iter().all(|&z| z == C64::ZERO)
            });
            if zero {
                mask |= 1 << b;
            }
        }
        mask
    }
}

/// Writes `exp(-i·h·t)` of a Hermitian 9×9 generator that is
/// block-diagonal under `blocks`, given and returned as its three 3×3
/// blocks: `h[b]` and `out[b]` are block `b` in row-major order. Only the
/// blocks in `mask` (bit `b` = block `b`) are exponentiated, two at a time
/// on two SIMD lanes and an odd one alone; the other blocks of `out` are
/// left as they are. The 54 entries outside the blocks are zero and are
/// never formed.
///
/// Bit-identical, inside the blocks written, to [`unitary_exp9_into`] on
/// the full generator. The squaring count comes from the Frobenius norm
/// summed over all 27 in-block entries (masked or not) in the full
/// matrix's row-major order, which is the sum that route forms once its
/// off-block zeros add nothing. Each block then runs the same
/// Paterson–Stockmeyer evaluation, whose zero-skipping 9×9 products reduce
/// to exactly the 3×3 products here, and each lane of the two-lane
/// evaluation repeats the scalar one.
pub fn unitary_exp9_in_blocks_into(
    h: &[[C64; 9]; 3],
    t: f64,
    blocks: Blocks9,
    mask: u8,
    out: &mut [[C64; 9]; 3],
) {
    let mut norm2 = 0.0;
    for r in 0..9 {
        let (b, i) = blocks.locate(r);
        for z in &h[b][3 * i..3 * i + 3] {
            norm2 += z.norm_sqr();
        }
    }
    let (factor, squarings) = step_scaling(norm2, t);
    let scaled = |b: usize| h[b].map(|z| z * factor);
    let mut picked = (0..3).filter(|&b| mask & 1 << b != 0);
    while let Some(b0) = picked.next() {
        match picked.next() {
            Some(b1) => [out[b0], out[b1]] = expm3_x2([scaled(b0), scaled(b1)], squarings),
            None => out[b0] = expm3(&scaled(b0), squarings),
        }
    }
}

/// `out = a · u` for a row-major 9×9 `a` and a row-major 9×4 slab `u`
/// (four columns of a 9×9 operand).
///
/// Bit-identical to the same columns of [`mul9_into`] on the full operand:
/// each output column depends only on the same input column, and every
/// row accumulates in the same ascending-`k` order with the same
/// zero-coefficient skip.
pub fn mul9_slab_into(a: &[C64; 81], u: &[C64; 36], out: &mut [C64; 36]) {
    for r in 0..9 {
        let ar = &a[9 * r..9 * r + 9];
        let mut acc = [C64::ZERO; 4];
        for (k, &ak) in ar.iter().enumerate() {
            if ak == C64::ZERO {
                continue;
            }
            for (x, &uv) in acc.iter_mut().zip(&u[4 * k..4 * k + 4]) {
                *x += ak * uv;
            }
        }
        out[4 * r..4 * r + 4].copy_from_slice(&acc);
    }
}

/// `out = step · u` on the rows that must be written, where `step` is the
/// block-diagonal 9×9 matrix whose blocks under `blocks` are `step[b]` (as
/// written by [`unitary_exp9_in_blocks_into`]) and `u` is a row-major 9×4
/// slab. Block `b`'s rows of `out` are written when its input rows of `u`
/// are all zero ([`Blocks9::zero_blocks`]), as `+0` without reading
/// `step[b]`, or else when bit `b` of `live` is set, as the product. Every
/// other row of `out` is left as it is.
///
/// Bit-identical on the rows it writes to [`mul9_slab_into`] (and so to
/// [`mul9_into`]) on the full block-diagonal matrix: each output row
/// accumulates its block's terms in ascending column order and skips zero
/// coefficients, which is what that product does once its own zero-skip
/// drops the off-block terms. On zero input rows every term is `±0` and
/// each accumulator starts at `+0`, so that product writes `+0` too.
pub fn mul9_blocks_slab_into(
    step: &[[C64; 9]; 3],
    blocks: Blocks9,
    live: u8,
    u: &[C64; 36],
    out: &mut [C64; 36],
) {
    let zero = blocks.zero_blocks(u);
    for (b, block) in step.iter().enumerate() {
        if zero & 1 << b != 0 {
            for i in 0..3 {
                let r = blocks.index(b, i);
                out[4 * r..4 * r + 4].fill(C64::ZERO);
            }
            continue;
        }
        if live & 1 << b == 0 {
            continue;
        }
        for i in 0..3 {
            let mut acc = [C64::ZERO; 4];
            for j in 0..3 {
                let sij = block[3 * i + j];
                if sij == C64::ZERO {
                    continue;
                }
                let k = blocks.index(b, j);
                for (x, &uv) in acc.iter_mut().zip(&u[4 * k..4 * k + 4]) {
                    *x += sij * uv;
                }
            }
            let r = blocks.index(b, i);
            out[4 * r..4 * r + 4].copy_from_slice(&acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::unitary_exp;
    use std::f64::consts::PI;

    fn pauli_x() -> CMat {
        CMat::from_real_rows(&[&[0.0, 1.0], &[1.0, 0.0]])
    }

    #[test]
    fn matches_eigendecomposition_route() {
        let h = pauli_x().scale(C64::real(0.5));
        let mut scratch = PropagatorScratch::new(2);
        let mut out = CMat::zeros(2, 2);
        for &t in &[0.0, 0.1, 0.45, PI, -2.7, 11.0] {
            scratch.unitary_exp_into(&h, t, &mut out);
            let reference = unitary_exp(&h, t);
            assert!(
                out.max_abs_diff(&reference) < 1e-11,
                "t = {t}: diff {}",
                out.max_abs_diff(&reference)
            );
            assert!(out.is_unitary(1e-11));
        }
    }

    #[test]
    fn hermitian_3x3_short_step() {
        // A transmon-like 3×3 Hamiltonian at the integrator's step size.
        let mut h = CMat::zeros(3, 3);
        h[(0, 1)] = C64::new(0.3, 0.1);
        h[(1, 0)] = C64::new(0.3, -0.1);
        h[(1, 2)] = C64::new(0.4, -0.2);
        h[(2, 1)] = C64::new(0.4, 0.2);
        h[(2, 2)] = C64::real(-1.5);
        let mut scratch = PropagatorScratch::new(3);
        let mut out = CMat::zeros(3, 3);
        scratch.unitary_exp_into(&h, 0.22, &mut out);
        let reference = unitary_exp(&h, 0.22);
        assert!(out.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        let h1 = pauli_x().scale(C64::real(0.5));
        let mut h2 = CMat::zeros(2, 2);
        h2[(0, 0)] = C64::real(1.0);
        h2[(1, 1)] = C64::real(-1.0);
        let mut scratch = PropagatorScratch::new(2);
        let mut out = CMat::zeros(2, 2);
        scratch.unitary_exp_into(&h1, 0.7, &mut out);
        let first = out.clone();
        scratch.unitary_exp_into(&h2, 1.3, &mut out);
        scratch.unitary_exp_into(&h1, 0.7, &mut out);
        assert!(out.max_abs_diff(&first) < 1e-15, "scratch leaked state");
    }

    #[test]
    fn stack_9x9_exponential_matches_heap_route() {
        // A CR-like Hermitian 9×9 generator: anharmonic diagonal plus
        // off-diagonal drive couplings, at both single-sample and
        // compressed-run (many-squaring) time steps.
        let mut h = CMat::zeros(9, 9);
        for i in 0..9 {
            h[(i, i)] = C64::real(-0.3 * (i as f64 - 4.0));
        }
        for i in 0..8 {
            h[(i, i + 1)] = C64::new(0.2, 0.05 * i as f64);
            h[(i + 1, i)] = h[(i, i + 1)].conj();
        }
        let mut scratch = PropagatorScratch::new(9);
        let mut heap = CMat::zeros(9, 9);
        let mut h9 = [C64::ZERO; 81];
        h9.copy_from_slice(h.as_slice());
        let mut stack = [C64::ZERO; 81];
        for &t in &[0.22, 1.0, 513.7] {
            scratch.unitary_exp_into(&h, t, &mut heap);
            unitary_exp9_into(&h9, t, &mut stack);
            let mut worst = 0.0f64;
            for (i, &z) in stack.iter().enumerate() {
                worst = worst.max((z - heap.as_slice()[i]).abs());
            }
            assert!(worst < 1e-11, "t = {t}: stack vs heap diff {worst:e}");
        }
    }

    #[test]
    fn stack_9x9_product_matches_generic() {
        let mut rng_state = 0x2545F4914F6CDD1Du64;
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let a = CMat::from_fn(9, 9, |_, _| C64::new(next(), next()));
        let b = CMat::from_fn(9, 9, |_, _| C64::new(next(), next()));
        let mut want = CMat::zeros(9, 9);
        a.mul_into(&b, &mut want);
        let mut a9 = [C64::ZERO; 81];
        a9.copy_from_slice(a.as_slice());
        let mut b9 = [C64::ZERO; 81];
        b9.copy_from_slice(b.as_slice());
        let mut got = [C64::ZERO; 81];
        mul9_into(&a9, &b9, &mut got);
        for (i, &z) in got.iter().enumerate() {
            assert!((z - want.as_slice()[i]).abs() < 1e-13);
        }
    }

    /// A random Hermitian 9×9 generator at the pair integrator's scale
    /// (entries ~1e9 rad/s), block-diagonal under `blocks`, or diagonal
    /// when `blocks` is `None`. Off-block entries are exact zeros.
    fn block_hermitian(blocks: Option<Blocks9>, next: &mut impl FnMut() -> f64) -> [C64; 81] {
        let mut h = [C64::ZERO; 81];
        for i in 0..9 {
            h[10 * i] = C64::real(4e9 * next());
        }
        if let Some(blocks) = blocks {
            for b in 0..3 {
                for i in 0..3 {
                    for j in i + 1..3 {
                        let (r, c) = (blocks.index(b, i), blocks.index(b, j));
                        let z = C64::new(2e9 * next(), 2e9 * next());
                        h[9 * r + c] = z;
                        h[9 * c + r] = z.conj();
                    }
                }
            }
        }
        h
    }

    #[test]
    fn block_route_is_bit_identical_to_9x9_route() {
        // One sample of the pair integrator up to runs of thousands of
        // samples, so the squaring stage runs from 0 up to ≥ 10 times. The
        // slab kernels carry the qubit-subspace columns {0, 1, 3, 4}; the
        // reference is the full 9×9 route restricted to those columns.
        const DT: f64 = 2.0 / 9.0 * 1e-9;
        const COLS: [usize; 4] = [0, 1, 3, 4];
        let mut rng_state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let shapes = [Some(Blocks9::Strided), Some(Blocks9::Contiguous), None];
        for shape in shapes {
            // A dense starting operator, so the product sees every column.
            let mut u_full = [C64::ZERO; 81];
            for z in u_full.iter_mut() {
                *z = C64::new(next(), next());
            }
            let mut slab_block = [C64::ZERO; 36];
            for r in 0..9 {
                for (c, &col) in COLS.iter().enumerate() {
                    slab_block[4 * r + c] = u_full[9 * r + col];
                }
            }
            let mut slab_full = slab_block;
            let mut most_squarings = 0;
            for (n, run) in [1u32, 2, 3, 17, 160, 999, 1000, 4096]
                .into_iter()
                .enumerate()
            {
                // A diagonal generator splits either way: alternate.
                let blocks = shape.unwrap_or(if n % 2 == 0 {
                    Blocks9::Strided
                } else {
                    Blocks9::Contiguous
                });
                let h = block_hermitian(shape, &mut next);
                let t = DT * f64::from(run);
                most_squarings = most_squarings.max(step_scaling(norm_sqr_sum(&h), t).1);
                let mut full = [C64::ZERO; 81];
                unitary_exp9_into(&h, t, &mut full);
                let mut h_blocks = [[C64::ZERO; 9]; 3];
                for (b, hb) in h_blocks.iter_mut().enumerate() {
                    for i in 0..3 {
                        for j in 0..3 {
                            hb[3 * i + j] = h[9 * blocks.index(b, i) + blocks.index(b, j)];
                        }
                    }
                }
                let mut step = [[C64::ZERO; 9]; 3];
                unitary_exp9_in_blocks_into(&h_blocks, t, blocks, 0b111, &mut step);
                let mut in_block = [false; 81];
                for (b, block) in step.iter().enumerate() {
                    for i in 0..3 {
                        for j in 0..3 {
                            let (r, c) = (blocks.index(b, i), blocks.index(b, j));
                            in_block[9 * r + c] = true;
                            let (got, want) = (block[3 * i + j], full[9 * r + c]);
                            assert!(
                                got.re == want.re && got.im == want.im,
                                "{shape:?} run {run}: exp entry ({r},{c}) {got:?} vs {want:?}"
                            );
                        }
                    }
                }
                for (z, &inside) in full.iter().zip(&in_block) {
                    assert!(
                        inside || *z == C64::ZERO,
                        "{shape:?} run {run}: off-block {z:?}"
                    );
                }
                // Any subset of the blocks, two lanes or one, writes the
                // same bits and leaves the other blocks alone.
                for mask in 0..8u8 {
                    let mut part = [[C64::new(f64::NAN, 7.0); 9]; 3];
                    unitary_exp9_in_blocks_into(&h_blocks, t, blocks, mask, &mut part);
                    for b in 0..3 {
                        let want = if mask & 1 << b != 0 {
                            step[b]
                        } else {
                            [C64::new(f64::NAN, 7.0); 9]
                        };
                        assert_eq!(
                            bits(&part[b]),
                            bits(&want),
                            "{shape:?} run {run}: mask {mask:03b} block {b}"
                        );
                    }
                }
                let mut next_full = [C64::ZERO; 81];
                mul9_into(&full, &u_full, &mut next_full);
                let mut next_block = [C64::ZERO; 36];
                mul9_blocks_slab_into(&step, blocks, 0b111, &slab_block, &mut next_block);
                let mut next_slab = [C64::ZERO; 36];
                mul9_slab_into(&full, &slab_full, &mut next_slab);
                for r in 0..9 {
                    for (c, &col) in COLS.iter().enumerate() {
                        let want = next_full[9 * r + col];
                        for (route, got) in [("block", next_block), ("9x9", next_slab)] {
                            let got = got[4 * r + c];
                            assert!(
                                got.re == want.re && got.im == want.im,
                                "{shape:?} run {run}: {route} slab entry ({r},{col}) \
                                 {got:?} vs {want:?}"
                            );
                        }
                    }
                }
                u_full = next_full;
                slab_block = next_block;
                slab_full = next_slab;
            }
            assert!(most_squarings >= 10, "only {most_squarings} squarings");
        }
    }

    /// The bit patterns of a run of complex entries.
    fn bits(z: &[C64]) -> Vec<(u64, u64)> {
        z.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// A random Hermitian 3×3 block at the pair integrator's scale, with
    /// each off-diagonal pair and each diagonal entry exactly zero about
    /// one time in three.
    fn sparse_hermitian3(next: &mut impl FnMut() -> f64) -> [C64; 9] {
        let mut h = [C64::ZERO; 9];
        for i in 0..3 {
            if next() > -0.17 {
                h[4 * i] = C64::real(4e9 * next());
            }
            for j in i + 1..3 {
                if next() > -0.17 {
                    let z = C64::new(2e9 * next(), 2e9 * next());
                    h[3 * i + j] = z;
                    h[3 * j + i] = z.conj();
                }
            }
        }
        h
    }

    #[test]
    fn two_lane_exponential_is_bit_identical_to_scalar() {
        // Pairs of blocks scaled by the integrator's step policy, for runs
        // of one sample up to thousands, so the squaring stage runs from 0
        // to ≥ 10 times; each lane must reproduce the scalar kernel's bits.
        const DT: f64 = 2.0 / 9.0 * 1e-9;
        let mut rng_state = 0xD1B54A32D192ED03u64;
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut squarings_seen = std::collections::BTreeSet::new();
        for run in [1u32, 2, 5, 16, 40, 160, 640, 1000, 2500, 4096] {
            for _ in 0..20 {
                let pair = [sparse_hermitian3(&mut next), sparse_hermitian3(&mut next)];
                let norm2 = norm_sqr_sum(pair.iter().flatten());
                let (factor, squarings) = step_scaling(norm2, DT * f64::from(run));
                squarings_seen.insert(squarings);
                let scaled = pair.map(|h| h.map(|z| z * factor));
                let lanes = expm3_x2(scaled, squarings);
                for (lane, a) in lanes.iter().zip(&scaled) {
                    assert_eq!(bits(lane), bits(&expm3(a, squarings)), "run {run}");
                }
            }
        }
        assert!(squarings_seen.contains(&0), "no squaring-free case");
        assert!(
            squarings_seen.iter().any(|&s| s >= 10),
            "{squarings_seen:?}"
        );
    }

    #[test]
    fn masked_block_product_is_bit_identical_to_full_product() {
        // Every block's input rows are all zero (some as −0), zero but for
        // one row, or dense, under every live mask. A written block must
        // carry the full block-diagonal product's bits; any other row of
        // `out` must keep what it held.
        let mut rng_state = 0x94D049BB133111EBu64;
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let sentinel = C64::new(f64::NAN, -3.0);
        for blocks in [Blocks9::Strided, Blocks9::Contiguous] {
            for case in 0..200 {
                let mut step = [[C64::ZERO; 9]; 3];
                for z in step.iter_mut().flatten() {
                    if next() > -0.3 {
                        *z = C64::new(next(), next());
                    }
                }
                let mut full = [C64::ZERO; 81];
                for (b, block) in step.iter().enumerate() {
                    for i in 0..3 {
                        for j in 0..3 {
                            full[9 * blocks.index(b, i) + blocks.index(b, j)] = block[3 * i + j];
                        }
                    }
                }
                // Per block: 0 = all zero, 1..=3 = only row `pattern − 1`
                // nonzero, 4 = dense.
                let mut u = [C64::ZERO; 36];
                let mut zero = 0u8;
                for b in 0..3 {
                    let pattern = (case / [1, 5, 25][b]) % 5;
                    if pattern == 0 {
                        zero |= 1 << b;
                    }
                    for i in 0..3 {
                        let r = blocks.index(b, i);
                        let dense = pattern == 4 || pattern == i + 1;
                        for z in &mut u[4 * r..4 * r + 4] {
                            *z = if dense {
                                C64::new(next(), next())
                            } else if next() > 0.0 {
                                C64::new(-0.0, -0.0)
                            } else {
                                C64::ZERO
                            };
                        }
                    }
                }
                assert_eq!(blocks.zero_blocks(&u), zero, "case {case}");
                let mut want = [C64::ZERO; 36];
                mul9_slab_into(&full, &u, &mut want);
                for live in 0..8u8 {
                    let mut got = [sentinel; 36];
                    mul9_blocks_slab_into(&step, blocks, live, &u, &mut got);
                    for b in 0..3 {
                        let written = (zero | live) & 1 << b != 0;
                        for i in 0..3 {
                            let r = blocks.index(b, i);
                            let expect = if written {
                                &want[4 * r..4 * r + 4]
                            } else {
                                &[sentinel; 4][..]
                            };
                            assert_eq!(
                                bits(&got[4 * r..4 * r + 4]),
                                bits(expect),
                                "{blocks:?} case {case} live {live:03b}: row {r}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn general_exponential_matches_expm() {
        let mut nilp = CMat::zeros(2, 2);
        nilp[(0, 1)] = C64::ONE;
        let mut scratch = PropagatorScratch::new(2);
        let mut out = CMat::zeros(2, 2);
        scratch.expm_of_into(&nilp, &mut out);
        let mut expect = CMat::identity(2);
        expect[(0, 1)] = C64::ONE;
        assert!(out.max_abs_diff(&expect) < 1e-12);
    }
}
