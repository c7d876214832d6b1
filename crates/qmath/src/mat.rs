//! Dense, row-major complex matrices.
//!
//! [`CMat`] is sized for quantum work: gate matrices (2×2 … 16×16), density
//! matrices up to a few dozen qubits' worth of 2ᴺ×2ᴺ entries, and the small
//! Hamiltonians integrated by the device simulator. Operations favour clarity
//! and numerical robustness over asymptotic cleverness.

use crate::complex::C64;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense complex matrix in row-major storage.
#[derive(Clone, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMat {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMat {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> C64) -> Self {
        let mut m = CMat::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Builds a matrix from nested row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths or the input is empty.
    pub fn from_rows(rows: &[&[C64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut m = CMat::zeros(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "ragged rows in matrix literal");
            for (c, &v) in row.iter().enumerate() {
                m[(r, c)] = v;
            }
        }
        m
    }

    /// Builds a matrix from real-valued nested row slices.
    pub fn from_real_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        CMat::from_fn(rows.len(), cols, |r, c| C64::real(rows[r][c]))
    }

    /// Builds a square diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[C64]) -> Self {
        let n = entries.len();
        let mut m = CMat::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns true for a square matrix.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw row-major entries.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutable raw row-major entries.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Entry-wise complex conjugate.
    pub fn conj(&self) -> CMat {
        CMat::from_fn(self.rows, self.cols, |r, c| self[(r, c)].conj())
    }

    /// Conjugate transpose `A†`.
    pub fn dagger(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, k: C64) -> CMat {
        CMat::from_fn(self.rows, self.cols, |r, c| self[(r, c)] * k)
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Kronecker (tensor) product `self ⊗ other`.
    pub fn kron(&self, other: &CMat) -> CMat {
        let (p, q) = (other.rows, other.cols);
        CMat::from_fn(self.rows * p, self.cols * q, |r, c| {
            self[(r / p, c / q)] * other[(r % p, c % q)]
        })
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn mul_vec(&self, v: &[C64]) -> Vec<C64> {
        let mut out = vec![C64::ZERO; self.rows];
        self.mul_vec_into(v, &mut out);
        out
    }

    /// Matrix-vector product into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn mul_vec_into(&self, v: &[C64], out: &mut [C64]) {
        assert_eq!(self.cols, v.len(), "matrix-vector dimension mismatch");
        assert_eq!(self.rows, out.len(), "output length mismatch");
        for (row, o) in self.data.chunks_exact(self.cols).zip(out.iter_mut()) {
            let mut acc = C64::ZERO;
            for (&m, &x) in row.iter().zip(v) {
                acc += m * x;
            }
            *o = acc;
        }
    }

    /// Matrix product into a caller-provided buffer (no allocation).
    ///
    /// `out` is overwritten and must not alias `self` or `rhs`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn mul_into(&self, rhs: &CMat, out: &mut CMat) {
        assert_eq!(
            self.cols, rhs.rows,
            "matrix product dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(out.rows, self.rows, "output row mismatch");
        assert_eq!(out.cols, rhs.cols, "output column mismatch");
        // Fully unrolled 3×3 kernel: the qutrit propagator spends its whole
        // inner loop here, and keeping both operands in registers roughly
        // halves the per-product cost versus the generic row loop.
        if self.rows == 3 && self.cols == 3 && rhs.cols == 3 {
            let a = &self.data[..9];
            let b = &rhs.data[..9];
            let o = &mut out.data[..9];
            for r in 0..3 {
                let (a0, a1, a2) = (a[3 * r], a[3 * r + 1], a[3 * r + 2]);
                o[3 * r] = a0 * b[0] + a1 * b[3] + a2 * b[6];
                o[3 * r + 1] = a0 * b[1] + a1 * b[4] + a2 * b[7];
                o[3 * r + 2] = a0 * b[2] + a1 * b[5] + a2 * b[8];
            }
            return;
        }
        // Slice-based row iteration: the zip bounds are provable, so the
        // inner loop compiles without bounds checks and vectorizes.
        for (out_row, a_row) in out
            .data
            .chunks_exact_mut(rhs.cols)
            .zip(self.data.chunks_exact(self.cols))
        {
            out_row.fill(C64::ZERO);
            for (&a, rhs_row) in a_row.iter().zip(rhs.data.chunks_exact(rhs.cols)) {
                if a == C64::ZERO {
                    continue;
                }
                for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * r;
                }
            }
        }
    }

    /// Overwrites `self` with the entries of `other` (no allocation).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn copy_from(&mut self, other: &CMat) {
        assert_eq!(self.rows, other.rows, "copy_from row mismatch");
        assert_eq!(self.cols, other.cols, "copy_from column mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Scales every entry in place.
    pub fn scale_assign(&mut self, k: C64) {
        for z in &mut self.data {
            *z *= k;
        }
    }

    /// `self += k · other`, entry-wise, in place.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add_scaled_assign(&mut self, other: &CMat, k: C64) {
        assert_eq!(self.rows, other.rows, "add_scaled_assign row mismatch");
        assert_eq!(self.cols, other.cols, "add_scaled_assign column mismatch");
        for (z, &o) in self.data.iter_mut().zip(&other.data) {
            *z += o * k;
        }
    }

    /// Zeroes every entry in place.
    pub fn set_zero(&mut self) {
        self.data.fill(C64::ZERO);
    }

    /// Overwrites `self` with the identity (square matrices only).
    pub fn set_identity(&mut self) {
        assert!(self.is_square(), "set_identity requires a square matrix");
        self.data.fill(C64::ZERO);
        for i in 0..self.rows {
            self.data[i * self.cols + i] = C64::ONE;
        }
    }

    /// Frobenius norm `√Σ|aᵢⱼ|²`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest entry-wise distance to `other`.
    pub fn max_abs_diff(&self, other: &CMat) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    /// Returns true when `‖A†A − I‖∞ ≤ tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let prod = &self.dagger() * self;
        prod.max_abs_diff(&CMat::identity(self.rows)) <= tol
    }

    /// Returns true when `‖A − A†‖∞ ≤ tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.is_square() && self.max_abs_diff(&self.dagger()) <= tol
    }

    /// Determinant by LU decomposition with partial pivoting.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square.
    pub fn det(&self) -> C64 {
        assert!(self.is_square(), "determinant of non-square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut det = C64::ONE;
        for k in 0..n {
            // Partial pivot: largest |entry| in column k at or below the diagonal.
            let (mut pivot_row, mut pivot_mag) = (k, a[(k, k)].abs());
            for r in (k + 1)..n {
                let mag = a[(r, k)].abs();
                if mag > pivot_mag {
                    pivot_row = r;
                    pivot_mag = mag;
                }
            }
            // opclint: allow(float-literal-eq): exact singularity test — a literally zero pivot column means det = 0
            if pivot_mag == 0.0 {
                return C64::ZERO;
            }
            if pivot_row != k {
                a.swap_rows(pivot_row, k);
                det = -det;
            }
            det *= a[(k, k)];
            for r in (k + 1)..n {
                let factor = a[(r, k)] / a[(k, k)];
                for c in k..n {
                    let sub = factor * a[(k, c)];
                    a[(r, c)] -= sub;
                }
            }
        }
        det
    }

    /// Solves `A x = b` by Gaussian elimination with partial pivoting.
    ///
    /// Returns `None` for singular (to working precision) systems.
    pub fn solve(&self, b: &[C64]) -> Option<Vec<C64>> {
        assert!(self.is_square(), "solve requires a square matrix");
        assert_eq!(self.rows, b.len(), "rhs length mismatch");
        let n = self.rows;
        let mut a = self.clone();
        let mut x = b.to_vec();
        for k in 0..n {
            let (mut pivot_row, mut pivot_mag) = (k, a[(k, k)].abs());
            for r in (k + 1)..n {
                let mag = a[(r, k)].abs();
                if mag > pivot_mag {
                    pivot_row = r;
                    pivot_mag = mag;
                }
            }
            if pivot_mag < 1e-300 {
                return None;
            }
            if pivot_row != k {
                a.swap_rows(pivot_row, k);
                x.swap(pivot_row, k);
            }
            for r in (k + 1)..n {
                let factor = a[(r, k)] / a[(k, k)];
                for c in k..n {
                    let sub = factor * a[(k, c)];
                    a[(r, c)] -= sub;
                }
                let sub = factor * x[k];
                x[r] -= sub;
            }
        }
        for k in (0..n).rev() {
            let mut acc = x[k];
            for c in (k + 1)..n {
                acc -= a[(k, c)] * x[c];
            }
            x[k] = acc / a[(k, k)];
        }
        Some(x)
    }

    /// Matrix inverse via column-by-column solves.
    ///
    /// Returns `None` for singular matrices.
    pub fn inverse(&self) -> Option<CMat> {
        assert!(self.is_square(), "inverse of non-square matrix");
        let n = self.rows;
        let mut inv = CMat::zeros(n, n);
        for c in 0..n {
            let mut e = vec![C64::ZERO; n];
            e[c] = C64::ONE;
            let col = self.solve(&e)?;
            for r in 0..n {
                inv[(r, c)] = col[r];
            }
        }
        Some(inv)
    }

    /// Swaps two rows in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }

    /// Distance to `other` ignoring a global phase difference:
    /// `min_φ ‖A − e^{iφ}B‖∞`, computed via phase alignment on the largest
    /// overlap.
    pub fn phase_invariant_diff(&self, other: &CMat) -> f64 {
        let overlap = (&self.dagger() * other).trace();
        if overlap.abs() < 1e-300 {
            return self.max_abs_diff(other);
        }
        let phase = C64::cis(-overlap.arg());
        self.max_abs_diff(&other.scale(phase))
    }
}

impl Index<(usize, usize)> for CMat {
    type Output = C64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        &mut self.data[r * self.cols + c]
    }
}

impl Add for CMat {
    type Output = CMat;
    fn add(self, rhs: CMat) -> CMat {
        &self + &rhs
    }
}

impl Add for &CMat {
    type Output = CMat;
    fn add(self, rhs: &CMat) -> CMat {
        assert_eq!(self.rows, rhs.rows);
        assert_eq!(self.cols, rhs.cols);
        CMat::from_fn(self.rows, self.cols, |r, c| self[(r, c)] + rhs[(r, c)])
    }
}

impl Sub for CMat {
    type Output = CMat;
    fn sub(self, rhs: CMat) -> CMat {
        &self - &rhs
    }
}

impl Sub for &CMat {
    type Output = CMat;
    fn sub(self, rhs: &CMat) -> CMat {
        assert_eq!(self.rows, rhs.rows);
        assert_eq!(self.cols, rhs.cols);
        CMat::from_fn(self.rows, self.cols, |r, c| self[(r, c)] - rhs[(r, c)])
    }
}

impl Neg for CMat {
    type Output = CMat;
    fn neg(self) -> CMat {
        self.scale(C64::real(-1.0))
    }
}

impl Mul for CMat {
    type Output = CMat;
    fn mul(self, rhs: CMat) -> CMat {
        &self * &rhs
    }
}

impl Mul for &CMat {
    type Output = CMat;
    fn mul(self, rhs: &CMat) -> CMat {
        let mut out = CMat::zeros(self.rows, rhs.cols);
        self.mul_into(rhs, &mut out);
        out
    }
}

impl fmt::Debug for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> CMat {
        CMat::from_real_rows(&[&[0.0, 1.0], &[1.0, 0.0]])
    }

    fn pauli_y() -> CMat {
        CMat::from_rows(&[&[C64::ZERO, C64::imag(-1.0)], &[C64::imag(1.0), C64::ZERO]])
    }

    fn pauli_z() -> CMat {
        CMat::from_real_rows(&[&[1.0, 0.0], &[0.0, -1.0]])
    }

    #[test]
    fn pauli_algebra() {
        let (x, y, z) = (pauli_x(), pauli_y(), pauli_z());
        // XY = iZ
        let xy = &x * &y;
        assert!(xy.max_abs_diff(&z.scale(C64::I)) < 1e-12);
        // X² = I
        assert!((&x * &x).max_abs_diff(&CMat::identity(2)) < 1e-12);
        // Tr(X) = 0, Tr(I) = 2
        assert!(x.trace().abs() < 1e-12);
        assert!((CMat::identity(2).trace() - C64::real(2.0)).abs() < 1e-12);
    }

    #[test]
    fn unitarity_and_hermiticity_checks() {
        assert!(pauli_x().is_unitary(1e-12));
        assert!(pauli_x().is_hermitian(1e-12));
        let skew = CMat::from_real_rows(&[&[1.0, 2.0], &[0.0, 1.0]]);
        assert!(!skew.is_unitary(1e-9));
        assert!(!skew.is_hermitian(1e-9));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let k = pauli_x().kron(&pauli_z());
        assert_eq!(k.rows(), 4);
        // (X⊗Z)[0,2] = X[0,1]·Z[0,0] = 1
        assert!(k[(0, 2)].approx_eq(C64::ONE, 1e-12));
        assert!(k[(1, 3)].approx_eq(C64::real(-1.0), 1e-12));
        assert!(k.is_unitary(1e-12));
    }

    #[test]
    fn kron_mixed_product_law() {
        let a = pauli_x();
        let b = pauli_y();
        let c = pauli_z();
        let d = CMat::identity(2);
        // (A⊗B)(C⊗D) = AC ⊗ BD
        let lhs = &a.kron(&b) * &c.kron(&d);
        let rhs = (&a * &c).kron(&(&b * &d));
        assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    #[test]
    fn determinant_and_inverse() {
        let m = CMat::from_rows(&[
            &[C64::new(2.0, 1.0), C64::new(0.0, -1.0)],
            &[C64::new(1.0, 0.0), C64::new(3.0, 2.0)],
        ]);
        let det = m.det();
        // det = (2+i)(3+2i) - (-i)(1) = 4+7i + i = 4 + 8i
        assert!(det.approx_eq(C64::new(4.0, 8.0), 1e-10));
        let inv = m.inverse().expect("invertible");
        assert!((&m * &inv).max_abs_diff(&CMat::identity(2)) < 1e-10);
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let m = CMat::from_real_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(m.det().abs() < 1e-12);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn solve_linear_system() {
        let a = CMat::from_real_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]);
        let x_true = [C64::real(1.0), C64::real(-2.0), C64::real(0.5)];
        let b = a.mul_vec(&x_true);
        let x = a.solve(&b).expect("solvable");
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!(xi.approx_eq(*ti, 1e-10));
        }
    }

    #[test]
    fn dagger_reverses_products() {
        let a = pauli_x();
        let b = pauli_y();
        let lhs = (&a * &b).dagger();
        let rhs = &b.dagger() * &a.dagger();
        assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    #[test]
    fn phase_invariant_diff_ignores_global_phase() {
        let u = pauli_y();
        let v = u.scale(C64::cis(0.9));
        assert!(u.phase_invariant_diff(&v) < 1e-12);
        assert!(u.max_abs_diff(&v) > 0.1);
    }

    #[test]
    fn mul_vec_matches_matrix_product() {
        let a = pauli_y();
        let v = [C64::new(0.6, 0.0), C64::new(0.0, 0.8)];
        let got = a.mul_vec(&v);
        assert!(got[0].approx_eq(C64::new(0.8, 0.0), 1e-12));
        assert!(got[1].approx_eq(C64::new(0.0, 0.6), 1e-12));
    }

    #[test]
    fn mul_into_matches_operator() {
        let a = pauli_x();
        let b = pauli_y();
        let expect = &a * &b;
        let mut out = CMat::zeros(2, 2);
        a.mul_into(&b, &mut out);
        assert!(out.max_abs_diff(&expect) < 1e-15);
        // Reuse of a dirty buffer must still give the same answer.
        a.mul_into(&b, &mut out);
        assert!(out.max_abs_diff(&expect) < 1e-15);
    }

    #[test]
    fn mul_vec_into_matches_mul_vec() {
        let a = pauli_y();
        let v = [C64::new(0.6, 0.0), C64::new(0.0, 0.8)];
        let mut out = [C64::ONE; 2];
        a.mul_vec_into(&v, &mut out);
        for (got, want) in out.iter().zip(a.mul_vec(&v)) {
            assert!(got.approx_eq(want, 1e-15));
        }
    }

    #[test]
    fn in_place_helpers() {
        let mut m = CMat::zeros(2, 2);
        m.set_identity();
        assert!(m.max_abs_diff(&CMat::identity(2)) < 1e-15);
        m.add_scaled_assign(&pauli_z(), C64::real(2.0));
        // I + 2Z = diag(3, -1).
        assert!(m[(0, 0)].approx_eq(C64::real(3.0), 1e-15));
        assert!(m[(1, 1)].approx_eq(C64::real(-1.0), 1e-15));
        m.scale_assign(C64::imag(1.0));
        assert!(m[(0, 0)].approx_eq(C64::imag(3.0), 1e-15));
        let snapshot = m.clone();
        m.set_zero();
        assert!(m.frobenius_norm() < 1e-15);
        m.copy_from(&snapshot);
        assert!(m.max_abs_diff(&snapshot) < 1e-15);
    }
}
