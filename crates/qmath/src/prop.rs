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
//!
//! The heap route ([`PropagatorScratch`]) and the 9×9 route
//! ([`unitary_exp9_into`]) evaluate a degree-12 Taylor sum in
//! Paterson–Stockmeyer form: `M²` and `M³`, four Horner steps in `M³` and
//! one product per squaring. The 3×3 blocks of the pair integrator
//! ([`unitary_exp9_in_blocks_into`]) and the transmon's per-sample steps
//! ([`unitary_exp3`]) use that their generator is Hermitian:
//! - a block that is a 2×2 block plus a decoupled |2⟩ scalar (its
//!   couplings to index 2 exactly zero, as every block of a CR-tone-only
//!   run and every zero drive sample is) takes a closed form, with no
//!   series and no squaring;
//! - any other block is `exp(−iB) = cos B − i·sin B` from the same
//!   degree-12 series and squaring policy. Its even and odd parts are
//!   polynomials in `B²`, built from products of commuting Hermitian
//!   matrices of which only the real diagonal and the three upper
//!   couplings are formed, and the result is squared as full unitary
//!   products.
//!
//! Neither is bit-identical to the degree-12 evaluation. Both stay within
//! the bounds that the contract tests (`tests::contract`) state against
//! that evaluation and against the eigendecomposition.

use crate::complex::C64;
use crate::mat::CMat;

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

/// The scaling-and-squaring policy every series exponential here shares:
/// halve the generator until its norm is at most 0.5, where the degree-12
/// Taylor remainder is negligible.
fn squarings_for(norm: f64) -> u32 {
    if norm > 0.5 {
        (norm / 0.5).log2().ceil().max(0.0) as u32
    } else {
        0
    }
}

/// `(t/2ˢ, s)` for `exp(−i·h·t)`, given the generator's squared Frobenius
/// norm `norm2`: the time that scales a Hermitian generator into the
/// Taylor window, and the squaring count `s` that undoes it
/// (`‖−i·t·H‖ = |t|·‖H‖`).
fn step_scaling(norm2: f64, t: f64) -> (f64, u32) {
    let squarings = squarings_for(norm2.sqrt() * t.abs());
    (t / f64::powi(2.0, squarings as i32), squarings)
}

/// `Σ|z|²` over `entries` in the order given (row-major for every caller).
fn norm_sqr_sum<'a>(entries: impl IntoIterator<Item = &'a C64>) -> f64 {
    let mut norm2 = 0.0;
    for z in entries {
        norm2 += z.norm_sqr();
    }
    norm2
}

/// The even and odd terms of the degree-12 Taylor series of `exp(−iB)`
/// as polynomials in `A = B²`: `cos B = Σⱼ COS[j]·Aʲ` with
/// `COS[j] = (−1)ʲ/(2j)!`, and `sin B = B·Σⱼ SIN[j]·Aʲ` with
/// `SIN[j] = (−1)ʲ/(2j+1)!`.
const COS: [f64; 7] = {
    let mut c = [0.0; 7];
    let mut j = 0;
    while j < 7 {
        c[j] = if j % 2 == 0 { 1.0 } else { -1.0 } * INV_FACTORIAL[2 * j];
        j += 1;
    }
    c
};

/// See [`COS`].
const SIN: [f64; 6] = {
    let mut c = [0.0; 6];
    let mut j = 0;
    while j < 6 {
        c[j] = if j % 2 == 0 { 1.0 } else { -1.0 } * INV_FACTORIAL[2 * j + 1];
        j += 1;
    }
    c
};

/// A Hermitian 3×3 matrix as its upper half: the real diagonal `d` and
/// the couplings `u = [(0,1), (0,2), (1,2)]`.
#[derive(Clone, Copy)]
struct Herm3 {
    d: [f64; 3],
    u: [C64; 3],
}

impl Herm3 {
    /// `k·I + Σ cᵢ·mᵢ`.
    #[inline(always)]
    fn combination<const N: usize>(k: f64, terms: [(f64, &Herm3); N]) -> Herm3 {
        let mut out = Herm3 {
            d: [k; 3],
            u: [C64::ZERO; 3],
        };
        for (c, m) in terms {
            for i in 0..3 {
                out.d[i] += c * m.d[i];
                out.u[i] += m.u[i] * c;
            }
        }
        out
    }

    /// `self + y`.
    #[inline(always)]
    fn add(&self, y: &Herm3) -> Herm3 {
        Herm3 {
            d: std::array::from_fn(|i| self.d[i] + y.d[i]),
            u: std::array::from_fn(|i| self.u[i] + y.u[i]),
        }
    }

    /// `self · y` for a `y` that commutes with `self`, whose product is
    /// then Hermitian: only its diagonal's real parts and its upper
    /// couplings are formed.
    #[inline(always)]
    fn mul(&self, y: &Herm3) -> Herm3 {
        // Re(a·b̄), the real part of a product whose factors sit on either
        // side of the diagonal.
        let re = |a: C64, b: C64| a.re * b.re + a.im * b.im;
        let ([x0, x1, x2], [x01, x02, x12]) = (self.d, self.u);
        let ([y0, y1, y2], [y01, y02, y12]) = (y.d, y.u);
        Herm3 {
            d: [
                x0 * y0 + re(x01, y01) + re(x02, y02),
                re(x01, y01) + x1 * y1 + re(x12, y12),
                re(x02, y02) + re(x12, y12) + x2 * y2,
            ],
            u: [
                y01 * x0 + x01 * y1 + x02 * y12.conj(),
                y02 * x0 + x01 * y12 + x02 * y2,
                x01.conj() * y02 + y12 * x1 + x12 * y2,
            ],
        }
    }
}

/// `a · b` for row-major 3×3 operands.
#[inline(always)]
fn mul3(a: &[C64; 9], b: &[C64; 9]) -> [C64; 9] {
    let mut o = [C64::ZERO; 9];
    for r in 0..3 {
        let (a0, a1, a2) = (a[3 * r], a[3 * r + 1], a[3 * r + 2]);
        o[3 * r] = a0 * b[0] + a1 * b[3] + a2 * b[6];
        o[3 * r + 1] = a0 * b[1] + a1 * b[4] + a2 * b[7];
        o[3 * r + 2] = a0 * b[2] + a1 * b[5] + a2 * b[8];
    }
    o
}

/// `exp(−i·h·t)` of a row-major Hermitian 3×3 generator, of which only
/// the diagonal's real parts and the upper triangle are read, as
/// `cos B − i·sin B` for `B = h·t/2ˢ` on the degree-12 series and the
/// squaring count `s` of [`squarings_for`], then squared `s` times.
///
/// With `A = B²`, `A²` and `A³`, each part is Paterson–Stockmeyer in
/// `A`: `cos B = (c₀ + c₁A + c₂A²) + A³·(c₃ + c₄A + c₅A² + c₆A³)`, and
/// `sin B = B·[(s₀ + s₁A + s₂A²) + A³·(s₃ + s₄A + s₅A²)]`. Every factor
/// is a polynomial in `B`, so every product is of commuting Hermitian
/// matrices and is formed as its upper half ([`Herm3::mul`]): six such
/// products, each about a third of the real multiplications of a full
/// complex 3×3 product.
fn exp_hermitian3(h: &[C64; 9], t: f64) -> [C64; 9] {
    let (tau, squarings) = step_scaling(norm_sqr_sum(h), t);
    let b = Herm3 {
        d: [h[0].re * tau, h[4].re * tau, h[8].re * tau],
        u: [h[1] * tau, h[2] * tau, h[5] * tau],
    };
    let a = b.mul(&b);
    let a2 = a.mul(&a);
    let a3 = a2.mul(&a);
    let [c0, c1, c2, c3, c4, c5, c6] = COS;
    let cos = Herm3::combination(c0, [(c1, &a), (c2, &a2)])
        .add(&a3.mul(&Herm3::combination(c3, [(c4, &a), (c5, &a2), (c6, &a3)])));
    let [s0, s1, s2, s3, s4, s5] = SIN;
    let sin_over_b = Herm3::combination(s0, [(s1, &a), (s2, &a2)])
        .add(&a3.mul(&Herm3::combination(s3, [(s4, &a), (s5, &a2)])));
    let sin = b.mul(&sin_over_b);
    // U = cos B − i·sin B; below the diagonal both parts are conjugated.
    let mut u = [C64::ZERO; 9];
    for i in 0..3 {
        u[4 * i] = C64::new(cos.d[i], -sin.d[i]);
    }
    for (k, (r, c)) in [(0, 1), (0, 2), (1, 2)].into_iter().enumerate() {
        let (ck, sk) = (cos.u[k], sin.u[k]);
        u[3 * r + c] = ck + C64::new(sk.im, -sk.re);
        u[3 * c + r] = ck.conj() + C64::new(-sk.im, -sk.re);
    }
    for _ in 0..squarings {
        u = mul3(&u, &u);
    }
    u
}

/// Whether a row-major Hermitian 3×3 generator is a 2×2 block on indices
/// `{0, 1}` plus a decoupled scalar: its upper couplings to index 2 are
/// exactly zero, of either sign.
#[inline(always)]
fn is_split(h: &[C64; 9]) -> bool {
    h[2] == C64::ZERO && h[5] == C64::ZERO
}

/// `exp(−i·h·t)` of a Hermitian 3×3 generator for which [`is_split`]
/// holds, in closed form. With `m` the mean of the 2×2 block's diagonal,
/// `δ` half its difference and `ω = √(δ² + |h₀₁|²)` its eigenvalue
/// half-gap, the block's exponential is
/// `e^{−imt}·[cos(ωt)·I − i·(sin(ωt)/ω)·(H₂ − m·I)]` (`sin(ωt)/ω = t` at
/// `ω = 0`), and the |2⟩ scalar's is `cis(−h₂₂·t)`. Reads the diagonal's
/// real parts and `h₀₁`.
fn exp_split3(h: &[C64; 9], t: f64) -> [C64; 9] {
    let (m, delta, b) = (0.5 * (h[0].re + h[4].re), 0.5 * (h[0].re - h[4].re), h[1]);
    let omega = (delta * delta + b.norm_sqr()).sqrt();
    let (sin, cos) = (omega * t).sin_cos();
    // opclint: allow(float-literal-eq): exact zero test — sin(ωt)/ω is t only in the limit, and any ω > 0 divides exactly
    let sinc = if omega == 0.0 { t } else { sin / omega };
    let phase = C64::cis(-m * t);
    // −i·(sin(ωt)/ω), times e^{−imt}.
    let off = phase * C64::imag(-sinc);
    let o = C64::ZERO;
    [
        phase * C64::new(cos, -sinc * delta),
        off * b,
        o,
        off * b.conj(),
        phase * C64::new(cos, sinc * delta),
        o,
        o,
        o,
        C64::cis(-h[8].re * t),
    ]
}

/// `exp(−i·h·t)` of a row-major 3×3 Hermitian generator on stack arrays,
/// of which only the diagonal's real parts and the upper triangle are
/// read: in closed form when the block is a 2×2 block plus a decoupled
/// |2⟩ scalar (a zero drive sample of a transmon, or any block of a
/// CR-tone-only pair run), else as `cos B − i·sin B` on the degree-12
/// series (a drive ladder, or any other block). Each depends on the block
/// and `t` alone, so a block's step is the same whichever route or
/// caller asks for it.
pub fn unitary_exp3(h: &[C64; 9], t: f64) -> [C64; 9] {
    if is_split(h) {
        exp_split3(h, t)
    } else {
        exp_hermitian3(h, t)
    }
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
/// entirely on stack arrays. Same degree-12 Paterson–Stockmeyer evaluation
/// and scaling-and-squaring policy as
/// [`PropagatorScratch::unitary_exp_into`], so the result agrees with the
/// heap-matrix route to rounding.
pub fn unitary_exp9_into(h: &[C64; 81], t: f64, out: &mut [C64; 81]) {
    let (tau, squarings) = step_scaling(norm_sqr_sum(h), t);
    let factor = C64::imag(-tau);
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

    /// The blocks whose three rows of the slab `u` are all exactly zero,
    /// of either sign: bit `b` of the mask is block `b`.
    pub fn zero_blocks(self, u: &Slab9x4) -> u8 {
        let mut mask = 0;
        for b in 0..3 {
            if (0..3).all(|i| u.rows[self.index(b, i)] == Row4::ZERO) {
                mask |= 1 << b;
            }
        }
        mask
    }
}

/// Four columns of a 9×9 complex operand, a 9×4 slab, stored
/// structure-of-arrays: per row, the four real parts and then the four
/// imaginary parts. [`mul9_blocks_slab_into`] runs the four columns as
/// lanes, with the same operations in each lane, which LLVM maps onto
/// SSE2 register pairs at the baseline x86-64 target.
#[derive(Clone, Copy, Debug)]
pub struct Slab9x4 {
    rows: [Row4; 9],
}

/// One row of a [`Slab9x4`]: lane `c` is column `c`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Row4 {
    re: [f64; 4],
    im: [f64; 4],
}

impl Row4 {
    const ZERO: Row4 = Row4 {
        re: [0.0; 4],
        im: [0.0; 4],
    };

    /// `self += s·u` in every lane: the [`C64`] product and sum, in their
    /// order, so each lane's bits equal `*x += s * u[c]` on [`C64`]s.
    #[inline(always)]
    fn add_mul(&mut self, s: C64, u: &Row4) {
        for c in 0..4 {
            self.re[c] += s.re * u.re[c] - s.im * u.im[c];
            self.im[c] += s.re * u.im[c] + s.im * u.re[c];
        }
    }
}

impl Slab9x4 {
    /// The all-zero slab.
    pub const ZERO: Slab9x4 = Slab9x4 {
        rows: [Row4::ZERO; 9],
    };

    /// The slab of a row-major 9×4 array (`u[4·r + c]` is row `r`,
    /// column `c`).
    pub fn from_rows(u: &[C64; 36]) -> Self {
        Slab9x4 {
            rows: std::array::from_fn(|r| Row4 {
                re: std::array::from_fn(|c| u[4 * r + c].re),
                im: std::array::from_fn(|c| u[4 * r + c].im),
            }),
        }
    }

    /// The row-major 9×4 array of the slab, the inverse of
    /// [`Slab9x4::from_rows`].
    pub fn to_rows(&self) -> [C64; 36] {
        std::array::from_fn(|k| self.get(k / 4, k % 4))
    }

    /// Entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> C64 {
        C64::new(self.rows[r].re[c], self.rows[r].im[c])
    }
}

/// Writes `exp(-i·h·t)` of a Hermitian 9×9 generator that is
/// block-diagonal under some [`Blocks9`] split, given and returned as its
/// three 3×3 blocks: `h[b]` and `out[b]` are block `b` in row-major order.
/// Only the blocks in `mask` (bit `b` = block `b`) are exponentiated, each
/// by [`unitary_exp3`] on its own; the other blocks of `out` are left as
/// they are. The 54 entries outside the blocks are zero and are never
/// formed. Returns the mask of the blocks that took the closed-form
/// 2×2⊕1 route (as every block of a run with only the CR tone playing
/// does).
pub fn unitary_exp9_in_blocks_into(
    h: &[[C64; 9]; 3],
    t: f64,
    mask: u8,
    out: &mut [[C64; 9]; 3],
) -> u8 {
    let mut split = 0;
    for b in (0..3).filter(|&b| mask & 1 << b != 0) {
        out[b] = if is_split(&h[b]) {
            split |= 1 << b;
            exp_split3(&h[b], t)
        } else {
            exp_hermitian3(&h[b], t)
        };
    }
    split
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
/// written by [`unitary_exp9_in_blocks_into`]) and `u` is a 9×4 slab.
/// `zero` must be `blocks.zero_blocks(u)`, which the caller has already
/// formed. Block `b`'s rows of `out` are written when its input rows of
/// `u` are all zero, as `+0` without reading `step[b]`, or else when bit
/// `b` of `live` is set, as the product. Every other row of `out` is left
/// as it is.
///
/// Bit-identical on the rows it writes to [`mul9_slab_into`] (and so to
/// [`mul9_into`]) on the full block-diagonal matrix: each output row
/// accumulates its block's terms in ascending column order and skips zero
/// coefficients, which is what that product does once its own zero-skip
/// drops the off-block terms, and each of the four column lanes repeats
/// its [`C64`] operations. On zero input rows every term is `±0` and each
/// accumulator starts at `+0`, so that product writes `+0` too.
pub fn mul9_blocks_slab_into(
    step: &[[C64; 9]; 3],
    blocks: Blocks9,
    live: u8,
    zero: u8,
    u: &Slab9x4,
    out: &mut Slab9x4,
) {
    debug_assert_eq!(zero, blocks.zero_blocks(u), "stale zero-block mask");
    for (b, block) in step.iter().enumerate() {
        let rows: [usize; 3] = std::array::from_fn(|i| blocks.index(b, i));
        if zero & 1 << b != 0 {
            for r in rows {
                out.rows[r] = Row4::ZERO;
            }
            continue;
        }
        if live & 1 << b == 0 {
            continue;
        }
        let input = rows.map(|r| u.rows[r]);
        for (i, r) in rows.into_iter().enumerate() {
            let mut acc = Row4::ZERO;
            for (j, row) in input.iter().enumerate() {
                let sij = block[3 * i + j];
                if sij == C64::ZERO {
                    continue;
                }
                acc.add_mul(sij, row);
            }
            out.rows[r] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::unitary_exp;
    use std::f64::consts::PI;

    /// The degree-12 Paterson–Stockmeyer `exp` on 3×3 stack arrays that
    /// the 3×3 kernels replaced, kept as their reference: `M²` and `M³`,
    /// four Horner steps in `M³` from `c₁₂·I`, then `squarings` full
    /// products. `a` is the already-scaled generator.
    fn expm3(a: &[C64; 9], squarings: u32) -> [C64; 9] {
        let c = &INV_FACTORIAL;
        let m2 = mul3(a, a);
        let m3 = mul3(&m2, a);
        let mut sum = [C64::ZERO; 9];
        for i in 0..3 {
            sum[4 * i] = C64::real(c[12]);
        }
        for j in (0..4).rev() {
            sum = mul3(&sum, &m3);
            for i in 0..9 {
                sum[i] += a[i] * C64::real(c[3 * j + 1]) + m2[i] * C64::real(c[3 * j + 2]);
            }
            for i in 0..3 {
                sum[4 * i] += C64::real(c[3 * j]);
            }
        }
        for _ in 0..squarings {
            sum = mul3(&sum, &sum);
        }
        sum
    }

    /// `exp(−i·h·t)` by [`expm3`] under the shared scaling policy.
    fn reference_exp3(h: &[C64; 9], t: f64) -> [C64; 9] {
        let (tau, squarings) = step_scaling(norm_sqr_sum(h), t);
        expm3(&h.map(|z| z * C64::imag(-tau)), squarings)
    }

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
    /// when `blocks` is `None`. Off-block entries are exact zeros, and so,
    /// half the time, are the couplings between each block's indices 0
    /// and 2 (drive ladders).
    fn block_hermitian(blocks: Option<Blocks9>, next: &mut impl FnMut() -> f64) -> [C64; 81] {
        let mut h = [C64::ZERO; 81];
        for i in 0..9 {
            h[10 * i] = C64::real(4e9 * next());
        }
        if let Some(blocks) = blocks {
            let ladder = next() > 0.0;
            for b in 0..3 {
                for i in 0..3 {
                    for j in i + 1..3 {
                        let (r, c) = (blocks.index(b, i), blocks.index(b, j));
                        let z = if ladder && j == i + 2 {
                            signed_zero(next)
                        } else {
                            C64::new(2e9 * next(), 2e9 * next())
                        };
                        h[9 * r + c] = z;
                        h[9 * c + r] = z.conj();
                    }
                }
            }
        }
        h
    }

    #[test]
    fn block_route_matches_9x9_route() {
        // One sample of the pair integrator up to runs of thousands of
        // samples, so the squaring stage runs from 0 up to ≥ 10 times. The
        // slab kernels carry the qubit-subspace columns {0, 1, 3, 4}; the
        // reference is the full 9×9 route restricted to those columns.
        // The block route exponentiates each block on its own kernel and
        // norm, so it matches that route within `contract::BLOCK_VS_9X9`
        // times 2ˢ (s the 9×9 route's squaring count), not bit for bit.
        const DT: f64 = 2.0 / 9.0 * 1e-9;
        const COLS: [usize; 4] = [0, 1, 3, 4];
        let mut rng_state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let shapes = [Some(Blocks9::Strided), Some(Blocks9::Contiguous), None];
        let mut shapes_seen = std::collections::BTreeSet::new();
        for shape in shapes {
            // A dense starting operator, so the product sees every column.
            let mut u_full = [C64::ZERO; 81];
            for z in u_full.iter_mut() {
                *z = C64::new(next(), next());
            }
            let mut slab_full = [C64::ZERO; 36];
            for r in 0..9 {
                for (c, &col) in COLS.iter().enumerate() {
                    slab_full[4 * r + c] = u_full[9 * r + col];
                }
            }
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
                let squarings = step_scaling(norm_sqr_sum(&h), t).1;
                most_squarings = most_squarings.max(squarings);
                let bound = contract::BLOCK_VS_9X9 * contract::growth(squarings);
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
                shapes_seen.extend(h_blocks.each_ref().map(contract::Shape::of));
                let mut step = [[C64::ZERO; 9]; 3];
                let split = unitary_exp9_in_blocks_into(&h_blocks, t, 0b111, &mut step);
                let mut in_block = [false; 81];
                for (b, block) in step.iter().enumerate() {
                    assert_eq!(
                        split & 1 << b != 0,
                        contract::Shape::of(&h_blocks[b]) == contract::Shape::Split,
                        "{shape:?} run {run}: block {b}'s route"
                    );
                    for i in 0..3 {
                        for j in 0..3 {
                            let (r, c) = (blocks.index(b, i), blocks.index(b, j));
                            in_block[9 * r + c] = true;
                            let (got, want) = (block[3 * i + j], full[9 * r + c]);
                            assert!(
                                (got - want).abs() <= bound,
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
                // Any subset of the blocks writes the same bits and leaves
                // the other blocks alone: each block's step is its own.
                for mask in 0..8u8 {
                    let mut part = [[C64::new(f64::NAN, 7.0); 9]; 3];
                    unitary_exp9_in_blocks_into(&h_blocks, t, mask, &mut part);
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
                // The block product of the block route's step against the
                // full products of the 9×9 step, from the same slab: the
                // 9×9 slab product carries the full product's bits, the
                // block product the step's error times a slab row's norm.
                let mut next_full = [C64::ZERO; 81];
                mul9_into(&full, &u_full, &mut next_full);
                let mut next_block = Slab9x4::ZERO;
                let slab = Slab9x4::from_rows(&slab_full);
                let zero = blocks.zero_blocks(&slab);
                mul9_blocks_slab_into(&step, blocks, 0b111, zero, &slab, &mut next_block);
                let next_block = next_block.to_rows();
                let mut next_slab = [C64::ZERO; 36];
                mul9_slab_into(&full, &slab_full, &mut next_slab);
                for r in 0..9 {
                    for (c, &col) in COLS.iter().enumerate() {
                        let want = next_full[9 * r + col];
                        let got = next_slab[4 * r + c];
                        assert!(
                            got.re == want.re && got.im == want.im,
                            "{shape:?} run {run}: 9x9 slab entry ({r},{col}) {got:?} vs {want:?}"
                        );
                        let got = next_block[4 * r + c];
                        assert!(
                            (got - want).abs() <= 3.0 * bound,
                            "{shape:?} run {run}: block slab entry ({r},{col}) \
                             {got:?} vs {want:?}"
                        );
                    }
                }
                u_full = next_full;
                slab_full = next_slab;
            }
            assert!(most_squarings >= 10, "only {most_squarings} squarings");
        }
        assert_eq!(shapes_seen.len(), 3, "{shapes_seen:?}");
    }

    /// The bit patterns of a run of complex entries.
    fn bits(z: &[C64]) -> Vec<(u64, u64)> {
        z.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// `+0` or `−0` in each part, at random.
    fn signed_zero(next: &mut impl FnMut() -> f64) -> C64 {
        let zero = |x: f64| if x > 0.0 { 0.0 } else { -0.0 };
        C64::new(zero(next()), zero(next()))
    }

    #[test]
    fn split_route_matches_the_3x3_and_9x9_routes() {
        // Strided generators shaped like a CR-tone-only run: blocks 0 and
        // 1 a 2×2 block on local indices {0, 1} plus a decoupled scalar,
        // block 2 diagonal. The couplings to index 2 are zeros of either
        // sign, and so, in some cases, are the 2×2 off-diagonals and
        // diagonals. Runs of one sample up to thousands take 0 to ≥ 10
        // squarings. The closed form takes no squaring; every step entry
        // must lie within the contract's `SPLIT_VS_REFERENCE·2ˢ` (s the
        // 9×9 route's squaring count) of the degree-12 3×3 reference and
        // of the full 9×9 route, and the couplings to index 2 must be
        // exactly `+0`.
        const DT: f64 = 2.0 / 9.0 * 1e-9;
        let mut rng_state = 0x5851F42D4C957F2Du64;
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let blocks = Blocks9::Strided;
        let mut squarings_seen = std::collections::BTreeSet::new();
        for run in [1u32, 2, 3, 17, 160, 999, 1000, 4096] {
            let t = DT * f64::from(run);
            for case in 0..40 {
                // Half the cases at a tenth of the integrator's scale, so
                // single samples take no squaring.
                let scale = if case % 2 == 0 { 1e8 } else { 1e9 };
                let mut h = [[C64::ZERO; 9]; 3];
                for (b, hb) in h.iter_mut().enumerate() {
                    for i in 0..3 {
                        hb[4 * i] = if case % 7 == b {
                            signed_zero(&mut next)
                        } else {
                            C64::real(4.0 * scale * next())
                        };
                    }
                    let z = if b == 2 || case % 5 == b {
                        signed_zero(&mut next)
                    } else {
                        C64::new(2.0 * scale * next(), 2.0 * scale * next())
                    };
                    hb[1] = z;
                    hb[3] = z.conj();
                    for k in [2, 5, 6, 7] {
                        hb[k] = signed_zero(&mut next);
                    }
                }
                let mut split = [[C64::new(f64::NAN, 7.0); 9]; 3];
                let routed = unitary_exp9_in_blocks_into(&h, t, 0b111, &mut split);
                assert_eq!(routed, 0b111, "run {run} case {case}: every block splits");

                let mut full = [C64::ZERO; 81];
                for (b, hb) in h.iter().enumerate() {
                    for i in 0..3 {
                        for j in 0..3 {
                            full[9 * blocks.index(b, i) + blocks.index(b, j)] = hb[3 * i + j];
                        }
                    }
                }
                let squarings = step_scaling(norm_sqr_sum(&full), t).1;
                squarings_seen.insert(squarings);
                let bound = contract::SPLIT_VS_REFERENCE * contract::growth(squarings);
                let mut full_step = [C64::ZERO; 81];
                unitary_exp9_into(&full, t, &mut full_step);
                for (b, got) in split.iter().enumerate() {
                    let route3 = reference_exp3(&h[b], t);
                    for k in [2, 5, 6, 7] {
                        assert_eq!(
                            bits(&got[k..=k]),
                            bits(&[C64::ZERO]),
                            "run {run} case {case}"
                        );
                    }
                    for i in 0..3 {
                        for j in 0..3 {
                            let k = 3 * i + j;
                            let nine = full_step[9 * blocks.index(b, i) + blocks.index(b, j)];
                            for (route, want) in [("3×3", route3[k]), ("9×9", nine)] {
                                assert!(
                                    (got[k] - want).abs() <= bound,
                                    "run {run} case {case} block {b} ({i},{j}): \
                                     {:?} vs {route} {want:?}",
                                    got[k]
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(squarings_seen.contains(&0), "{squarings_seen:?}");
        assert!(
            squarings_seen.iter().any(|&s| s >= 10),
            "{squarings_seen:?}"
        );
    }

    #[test]
    fn soa_block_product_is_bit_identical_to_full_product() {
        // Every block's input rows are all zero (some as −0), zero but for
        // one row, or dense, under every live mask. Steps are random with
        // some zero entries, or shaped like a 2×2⊕1 step: couplings to
        // local index 2 zero of either sign. A written block must carry
        // the AoS product of the full block-diagonal matrix's bits in
        // every lane; any other row of `out` must keep what it held.
        let mut rng_state = 0x94D049BB133111EBu64;
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let sentinel = C64::new(f64::NAN, -3.0);
        for blocks in [Blocks9::Strided, Blocks9::Contiguous] {
            for case in 0..250 {
                let split_shaped = case % 2 == 1;
                let mut step = [[C64::ZERO; 9]; 3];
                for block in step.iter_mut() {
                    for (k, z) in block.iter_mut().enumerate() {
                        *z = if split_shaped && [2, 5, 6, 7].contains(&k) {
                            signed_zero(&mut next)
                        } else if next() > -0.3 {
                            C64::new(next(), next())
                        } else {
                            signed_zero(&mut next)
                        };
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
                            } else {
                                signed_zero(&mut next)
                            };
                        }
                    }
                }
                let slab = Slab9x4::from_rows(&u);
                assert_eq!(bits(&slab.to_rows()), bits(&u), "case {case}: round trip");
                assert_eq!(blocks.zero_blocks(&slab), zero, "case {case}");
                let mut want = [C64::ZERO; 36];
                mul9_slab_into(&full, &u, &mut want);
                for live in 0..8u8 {
                    let mut got = Slab9x4::from_rows(&[sentinel; 36]);
                    mul9_blocks_slab_into(&step, blocks, live, zero, &slab, &mut got);
                    let got = got.to_rows();
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

    /// The accuracy contract of the 3×3 block kernels, [`unitary_exp3`]
    /// and the blocks of [`unitary_exp9_in_blocks_into`]. The generators
    /// are Hermitian, of every block shape ([`Shape`]), over the window
    /// that every exponential of a lowered program falls in,
    /// `‖H·t‖_F ∈ [0.25, 2)`, and over long constant runs up to
    /// `‖H·t‖_F ≈ 2,000`. With `s` the squaring count that
    /// [`squarings_for`] gives the block, every bound grows as `2ˢ`, the
    /// factor by which `s` squarings amplify a step's error:
    /// - every entry of the series kernel lies within
    ///   [`SERIES_VS_REFERENCE`]`·2ˢ` of the degree-12 reference
    ///   [`expm3`], and every entry of the closed form within
    ///   [`SPLIT_VS_REFERENCE`]`·2ˢ` (the reference's own squaring error;
    ///   the closed form takes no squaring);
    /// - every entry lies within [`VS_EIGENDECOMPOSITION`]`·2ˢ` of the
    ///   eigendecomposition route [`unitary_exp`], as the reference's do;
    /// - `max |U†U − I|` exceeds the reference's own defect on the same
    ///   generator by at most four ulps of 1 per doubling, `4ε·2ˢ`.
    ///
    /// The pair integrator's tests hold its blocks to [`BLOCK_VS_9X9`]
    /// of the full 9×9 route.
    mod contract {
        use super::*;

        /// Entrywise bound of the series kernel against the degree-12
        /// reference, per `2ˢ`.
        const SERIES_VS_REFERENCE: f64 = 1e-15;
        /// Entrywise bound of the closed form against the degree-12
        /// reference, per `2ˢ`.
        pub(in super::super) const SPLIT_VS_REFERENCE: f64 = 2e-14;
        /// Entrywise bound of either kernel, and of the reference, against
        /// the eigendecomposition, per `2ˢ`.
        const VS_EIGENDECOMPOSITION: f64 = 2e-14;
        /// Entrywise bound of a block-route step against the full 9×9
        /// route's, per `2ˢ` of the 9×9 route.
        pub(in super::super) const BLOCK_VS_9X9: f64 = 4e-15;

        /// The structure of a Hermitian 3×3 block that the kernels see.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
        pub(in super::super) enum Shape {
            /// A 2×2 block on `{0, 1}` plus a decoupled scalar: the closed
            /// form.
            Split,
            /// A drive ladder: only the `0↔2` couplings are zero.
            Tri,
            /// Every coupling nonzero.
            Dense,
        }

        impl Shape {
            pub(in super::super) fn of(h: &[C64; 9]) -> Shape {
                if is_split(h) {
                    Shape::Split
                } else if h[2] == C64::ZERO {
                    Shape::Tri
                } else {
                    Shape::Dense
                }
            }
        }

        /// `2ˢ`, the growth of every bound with the squaring count `s`.
        pub(in super::super) fn growth(squarings: u32) -> f64 {
            f64::powi(2.0, squarings as i32)
        }

        /// One generated case: the generator, its time step, and the
        /// squaring count the series kernels take on it.
        struct Case {
            h: [C64; 9],
            t: f64,
            squarings: u32,
        }

        /// Generators of every shape at `‖H·t‖_F` log-uniform over the
        /// window `[0.25, 2)` (300 per shape) and over the long runs
        /// `[2, 2000]` (60 per shape), with time steps of 1 to 4,096
        /// samples. A quarter of them have equal diagonal entries (a
        /// degenerate 2×2 block when split), and a tenth of the split ones
        /// no coupling at all.
        fn cases() -> Vec<Case> {
            const DT: f64 = 2.0 / 9.0 * 1e-9;
            let mut rng_state = 0x3C6E_F372_FE94_F82Bu64;
            let mut next = || {
                rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (rng_state >> 11) as f64 / (1u64 << 53) as f64
            };
            let mut out = Vec::new();
            for shape in [Shape::Split, Shape::Tri, Shape::Dense] {
                for (lo, hi, count) in [(0.25f64, 2.0f64, 300), (2.0, 2000.0, 60)] {
                    for k in 0..count {
                        let norm = lo * (hi / lo).powf(next());
                        let t = DT * 4096f64.powf(next()).round().max(1.0);
                        let mut h = [C64::ZERO; 9];
                        let diag = next() - 0.5;
                        for i in 0..3 {
                            h[4 * i] = C64::real(if k % 4 == 0 { diag } else { next() - 0.5 });
                        }
                        for (r, c) in [(0, 1), (0, 2), (1, 2)] {
                            let zero = match shape {
                                Shape::Split => c == 2 || k % 10 == 1,
                                Shape::Tri => (r, c) == (0, 2),
                                Shape::Dense => false,
                            };
                            if !zero {
                                let z = C64::new(next() - 0.5, next() - 0.5);
                                h[3 * r + c] = z;
                                h[3 * c + r] = z.conj();
                            }
                        }
                        let scale = norm / (norm_sqr_sum(&h).sqrt() * t);
                        let h = h.map(|z| z * scale);
                        assert_eq!(Shape::of(&h), shape);
                        let squarings = step_scaling(norm_sqr_sum(&h), t).1;
                        out.push(Case { h, t, squarings });
                    }
                }
            }
            let most = out.iter().map(|c| c.squarings).max();
            assert!(most >= Some(12), "{most:?}");
            out
        }

        /// `max |a − b|` over the entries.
        fn max_diff(a: &[C64; 9], b: &[C64]) -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (*x - *y).abs())
                .fold(0.0, f64::max)
        }

        /// `max |U†U − I|` over the entries.
        fn defect(u: &[C64; 9]) -> f64 {
            let mut worst = 0.0f64;
            for i in 0..3 {
                for j in 0..3 {
                    let mut z = -C64::real(f64::from(u8::from(i == j)));
                    for k in 0..3 {
                        z += u[3 * k + i].conj() * u[3 * k + j];
                    }
                    worst = worst.max(z.abs());
                }
            }
            worst
        }

        #[test]
        fn kernels_stay_within_bound_of_the_degree12_reference() {
            for Case { h, t, squarings } in cases() {
                let shape = Shape::of(&h);
                let bound = match shape {
                    Shape::Split => SPLIT_VS_REFERENCE,
                    Shape::Tri | Shape::Dense => SERIES_VS_REFERENCE,
                } * growth(squarings);
                let d = max_diff(&unitary_exp3(&h, t), &reference_exp3(&h, t));
                assert!(d <= bound, "{shape:?} s {squarings}: {d:e} > {bound:e}");
            }
        }

        #[test]
        fn kernels_stay_within_bound_of_the_eigendecomposition() {
            for Case { h, t, squarings } in cases() {
                let shape = Shape::of(&h);
                let exact = unitary_exp(&CMat::from_fn(3, 3, |r, c| h[3 * r + c]), t);
                let bound = VS_EIGENDECOMPOSITION * growth(squarings);
                for (route, u) in [
                    ("kernel", unitary_exp3(&h, t)),
                    ("reference", reference_exp3(&h, t)),
                ] {
                    let d = max_diff(&u, exact.as_slice());
                    assert!(
                        d <= bound,
                        "{shape:?} s {squarings} {route}: {d:e} > {bound:e}"
                    );
                }
            }
        }

        #[test]
        fn kernels_are_unitary_to_the_reference_defect() {
            for Case { h, t, squarings } in cases() {
                let got = defect(&unitary_exp3(&h, t));
                let reference = defect(&reference_exp3(&h, t));
                let bound = reference + 4.0 * f64::EPSILON * growth(squarings);
                assert!(
                    got <= bound,
                    "{:?} s {squarings}: defect {got:e} vs reference {reference:e}",
                    Shape::of(&h)
                );
            }
        }
    }
}
