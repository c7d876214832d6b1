//! In-place, allocation-free, stride-based superoperator kernels.
//!
//! [`crate::embed`] lifts a k-dimensional operator to the full register
//! space and pays two dense O(d³) products per application. These kernels
//! act on the target subsystem's rows and columns directly with the same
//! digit/stride arithmetic [`crate::StateVector::apply_unitary`] uses, so a
//! k-dim gate on a d-dim register costs O(d²·k) (unitary conjugation) or
//! O(d²·k²) (Kraus channel via the channel superoperator) — an asymptotic
//! win over embed-and-matmul that grows with qubit count.
//!
//! [`KernelScratch`] owns every buffer the kernels need (gather rows,
//! block vectors, the channel superoperator, and a cache of
//! [`TargetIndex`] tables keyed by `(targets, dims)`). Reusing one scratch
//! across calls makes the steady state allocation-free: the executor
//! threads a single scratch through its whole per-block loop.
//!
//! `embed` remains the reference implementation; the kernels are
//! cross-checked against it property-test-style in
//! `tests/kernel_equivalence.rs`.

use quant_math::{CMat, C64};

/// Precomputed index tables for one `(targets, dims)` pair.
///
/// * `offsets[g]` — global index offset of gate-basis state `g` (target 0
///   is the gate's least-significant digit, as everywhere in this crate);
/// * `bases` — every global index whose target digits are all zero; adding
///   `offsets[g]` to a base enumerates one gate-subspace fibre.
#[derive(Clone, Debug)]
pub struct TargetIndex {
    gate_dim: usize,
    total: usize,
    offsets: Vec<usize>,
    bases: Vec<usize>,
    /// Length of the stride-1 runs in `bases`: the stride of the
    /// lowest-index target. Every subsystem below the lowest target is
    /// free, so consecutive base indices come in contiguous runs of this
    /// length — the chunked kernels turn each run into stride-1 slice
    /// arithmetic.
    run: usize,
}

impl TargetIndex {
    /// Builds the index tables.
    ///
    /// # Panics
    ///
    /// Panics when targets repeat or are out of range.
    pub fn new(targets: &[usize], dims: &[usize]) -> Self {
        for (i, &t) in targets.iter().enumerate() {
            assert!(t < dims.len(), "target {t} out of range");
            assert!(!targets[..i].contains(&t), "duplicate target {t}");
        }
        let mut strides = Vec::with_capacity(dims.len());
        let mut total = 1usize;
        for &d in dims {
            strides.push(total);
            total *= d;
        }
        let gate_dim: usize = targets.iter().map(|&t| dims[t]).product();

        let mut offsets = vec![0usize; gate_dim];
        for (g, off) in offsets.iter_mut().enumerate() {
            let mut rem = g;
            let mut o = 0usize;
            for &t in targets {
                o += (rem % dims[t]) * strides[t];
                rem /= dims[t];
            }
            *off = o;
        }

        // Enumerate base indices (every target digit zero) by expanding the
        // free digits in stride order instead of skip-scanning all `total`
        // indices with a division per target. Each expansion step appends
        // blocks whose offsets exceed every previously generated base, so
        // the list stays ascending — the same order the old scan produced.
        let mut bases = vec![0usize];
        bases.reserve(total / gate_dim.max(1));
        for (k, &d) in dims.iter().enumerate() {
            if targets.contains(&k) {
                continue;
            }
            let w = strides[k];
            let prev = bases.len();
            for digit in 1..d {
                let off = digit * w;
                for i in 0..prev {
                    let b = bases[i] + off;
                    bases.push(b);
                }
            }
        }

        let run = targets
            .iter()
            .map(|&t| strides[t])
            .min()
            .unwrap_or(total.max(1));

        TargetIndex {
            gate_dim,
            total,
            offsets,
            bases,
            run,
        }
    }

    /// The operator dimension these targets select.
    pub fn gate_dim(&self) -> usize {
        self.gate_dim
    }
}

/// One cached index table.
#[derive(Clone, Debug)]
struct IndexEntry {
    targets: Vec<usize>,
    dims: Vec<usize>,
    index: TargetIndex,
}

/// Reusable workspace for the stride kernels.
///
/// Buffers grow on demand and are never shrunk, so after the first
/// occurrence of each `(targets, dims)` pair every subsequent kernel call
/// performs zero heap allocations. Not thread-safe; use one per worker.
#[derive(Clone, Debug, Default)]
pub struct KernelScratch {
    indices: Vec<IndexEntry>,
    rows: Vec<C64>,
    block: Vec<C64>,
    block_out: Vec<C64>,
    superop: Vec<C64>,
}

impl KernelScratch {
    /// An empty scratch; buffers are sized lazily by the first calls.
    pub fn new() -> Self {
        KernelScratch::default()
    }

    /// Index-table cache position for `(targets, dims)`, building on miss.
    fn ensure_index(&mut self, targets: &[usize], dims: &[usize]) -> usize {
        if let Some(i) = self
            .indices
            .iter()
            .position(|e| e.targets == targets && e.dims == dims)
        {
            return i;
        }
        self.indices.push(IndexEntry {
            targets: targets.to_vec(),
            dims: dims.to_vec(),
            index: TargetIndex::new(targets, dims),
        });
        self.indices.len() - 1
    }

    /// `mat ← Û·mat` where `Û` is `op` embedded on `targets`: transforms
    /// the target digits of the *row* index. `mat` may have any number of
    /// columns (a density matrix, an accumulating circuit unitary, …).
    ///
    /// # Panics
    ///
    /// Panics on target/dimension mismatches.
    pub fn apply_left(&mut self, mat: &mut CMat, op: &CMat, targets: &[usize], dims: &[usize]) {
        let i = self.ensure_index(targets, dims);
        let idx = &self.indices[i].index;
        check_op(op, idx);
        assert_eq!(mat.rows(), idx.total, "matrix height mismatch");
        apply_left_rows(mat, op, idx, &mut self.rows);
    }

    /// `ρ ← Û·ρ·Û†` — the unitary-conjugation kernel, O(d²·k).
    pub fn apply_conjugate(
        &mut self,
        rho: &mut CMat,
        op: &CMat,
        targets: &[usize],
        dims: &[usize],
    ) {
        let i = self.ensure_index(targets, dims);
        let idx = &self.indices[i].index;
        check_op(op, idx);
        assert_eq!(rho.rows(), idx.total, "matrix height mismatch");
        assert_eq!(rho.cols(), idx.total, "matrix width mismatch");
        apply_left_rows(rho, op, idx, &mut self.rows);
        apply_right_dagger_rows(rho, op, idx, &mut self.block);
    }

    /// `ρ ← Σₖ K̂ₖ·ρ·K̂ₖ†` — the channel kernel, O(d²·k²), one pass over
    /// the Hermitian half of ρ.
    ///
    /// Builds the k²×k² channel superoperator `S[(g,h),(g',h')] =
    /// Σₖ Kₖ[g,g']·conj(Kₖ[h,h'])` once, then applies it to every k×k
    /// block of ρ selected by a (row-base, column-base) pair with row base
    /// ≤ column base. The mirrored block is written as the block's
    /// conjugate transpose; inside a diagonal block each lower entry is
    /// written as the conjugate of its upper one and each diagonal entry
    /// as its real part. Channels on one or two qubits (k = 2, 4) run
    /// unrolled bodies with the superoperator in a stack array and ρ read
    /// and written in place; every other k runs the generic
    /// gather/transform/scatter body. Each computed entry accumulates its
    /// k² terms in ascending `(g', h')` order, as the full-block loop did.
    ///
    /// Precondition: ρ is Hermitian. Only the blocks with row base ≤
    /// column base are read, so the result is the channel applied to the
    /// Hermitian matrix those blocks define, and it is exactly Hermitian:
    /// `ρ[i,j] == conj(ρ[j,i])` for every entry. The one caller is
    /// [`crate::DensityMatrix`], which builds ρ Hermitian and changes it
    /// only through CPTP updates.
    pub(crate) fn apply_kraus(
        &mut self,
        rho: &mut CMat,
        kraus: &[CMat],
        targets: &[usize],
        dims: &[usize],
    ) {
        let i = self.prepare_kraus(rho, kraus, targets, dims);
        let idx = &self.indices[i].index;
        let cols = rho.cols();
        let data = rho.as_mut_slice();
        match idx.gate_dim {
            2 => kraus_fixed::<2, 4>(data, cols, &self.superop, idx),
            4 => kraus_fixed::<4, 16>(data, cols, &self.superop, idx),
            _ => kraus_generic(
                data,
                cols,
                &self.superop,
                idx,
                &mut self.block,
                &mut self.block_out,
            ),
        }
    }

    /// The full-block channel loop [`KernelScratch::apply_kraus`]
    /// replaced: every (row-base, column-base) block through the
    /// superoperator, no Hermitian precondition. The kernel's test
    /// oracle.
    #[cfg(test)]
    pub(crate) fn apply_kraus_oracle(
        &mut self,
        rho: &mut CMat,
        kraus: &[CMat],
        targets: &[usize],
        dims: &[usize],
    ) {
        let i = self.prepare_kraus(rho, kraus, targets, dims);
        let idx = &self.indices[i].index;
        let k = idx.gate_dim;
        let k2 = k * k;
        self.block.resize(k2, C64::ZERO);
        self.block_out.resize(k2, C64::ZERO);
        let cols = rho.cols();
        let data = rho.as_mut_slice();
        for &rb in &idx.bases {
            for &cb in &idx.bases {
                for (g, &go) in idx.offsets.iter().enumerate() {
                    let row = &data[(rb + go) * cols..];
                    for (h, &ho) in idx.offsets.iter().enumerate() {
                        self.block[g * k + h] = row[cb + ho];
                    }
                }
                for (a, out) in self.block_out.iter_mut().enumerate() {
                    let srow = &self.superop[a * k2..][..k2];
                    let mut acc = C64::ZERO;
                    for (&s, &v) in srow.iter().zip(&self.block) {
                        if s == C64::ZERO {
                            continue;
                        }
                        acc += s * v;
                    }
                    *out = acc;
                }
                for (g, &go) in idx.offsets.iter().enumerate() {
                    let row = &mut data[(rb + go) * cols..];
                    for (h, &ho) in idx.offsets.iter().enumerate() {
                        row[cb + ho] = self.block_out[g * k + h];
                    }
                }
            }
        }
    }

    /// Checks a channel against ρ, writes its superoperator into
    /// `self.superop` and returns the index-table cache position.
    fn prepare_kraus(
        &mut self,
        rho: &CMat,
        kraus: &[CMat],
        targets: &[usize],
        dims: &[usize],
    ) -> usize {
        assert!(
            !kraus.is_empty(),
            "channel needs at least one Kraus operator"
        );
        let i = self.ensure_index(targets, dims);
        let idx = &self.indices[i].index;
        for op in kraus {
            check_op(op, idx);
        }
        assert_eq!(rho.rows(), idx.total, "matrix height mismatch");
        assert_eq!(rho.cols(), idx.total, "matrix width mismatch");

        let k = idx.gate_dim;
        let k2 = k * k;
        self.superop.resize(k2 * k2, C64::ZERO);
        self.superop.fill(C64::ZERO);
        for kr in kraus {
            for g in 0..k {
                for gp in 0..k {
                    let a = kr[(g, gp)];
                    if a == C64::ZERO {
                        continue;
                    }
                    for h in 0..k {
                        let row = &mut self.superop[(g * k + h) * k2..][..k2];
                        for hp in 0..k {
                            row[gp * k + hp] += a * kr[(h, hp)].conj();
                        }
                    }
                }
            }
        }
        i
    }

    /// `|ψ⟩ ← Û|ψ⟩` on a raw amplitude slice — the state-vector stride
    /// kernel, O(d·k) for a k-dim gate on a d-dim register.
    ///
    /// Gate-dimension 2 and 4 (1q/2q qubit gates, and fused blocks of
    /// one or two qubits) run specialized loops with the
    /// operator entries hoisted into locals, so the per-fibre body is
    /// branch-free and autovectorization-friendly. Larger fused blocks
    /// whose lowest target sits above enough free subsystems take the
    /// chunked pass (`sv_apply_blocked`): fibres are processed in
    /// contiguous stride-1 runs (gather run → dense AXPY rows → scatter
    /// run), which keeps the innermost loop over consecutive memory.
    /// Gate-dimension 8 and 16 (fused 3- and 4-qubit qubit blocks) have
    /// dedicated per-fibre loops for the `run = 1` layouts the chunked
    /// pass cannot help; everything else falls back to the generic
    /// gather/transform/scatter path.
    ///
    /// # Panics
    ///
    /// Panics on target/dimension mismatches.
    pub fn apply_state(&mut self, amps: &mut [C64], op: &CMat, targets: &[usize], dims: &[usize]) {
        let i = self.ensure_index(targets, dims);
        let idx = &self.indices[i].index;
        check_op(op, idx);
        assert_eq!(amps.len(), idx.total, "state length mismatch");
        match idx.gate_dim {
            2 => sv_apply_k2(amps, op, idx),
            4 => sv_apply_k4(amps, op, idx),
            d if d > 4 && idx.run >= 4 => sv_apply_blocked(amps, op, idx, &mut self.block),
            8 => sv_apply_k8(amps, op, idx),
            16 => sv_apply_k16(amps, op, idx),
            _ => sv_apply_generic(amps, op, idx, &mut self.block),
        }
    }

    /// `⟨ψ|Ô|ψ⟩` where `Ô` is `op` embedded on `targets` — O(d·k²),
    /// without cloning or transforming the state.
    pub fn expectation_state(
        &mut self,
        amps: &[C64],
        op: &CMat,
        targets: &[usize],
        dims: &[usize],
    ) -> C64 {
        let i = self.ensure_index(targets, dims);
        let idx = &self.indices[i].index;
        check_op(op, idx);
        assert_eq!(amps.len(), idx.total, "state length mismatch");
        let mut acc = C64::ZERO;
        for &base in &idx.bases {
            for (g, &go) in idx.offsets.iter().enumerate() {
                let ag = amps[base + go].conj();
                for (h, &ho) in idx.offsets.iter().enumerate() {
                    let o = op[(g, h)];
                    if o == C64::ZERO {
                        continue;
                    }
                    acc += ag * o * amps[base + ho];
                }
            }
        }
        acc
    }

    /// Writes the reduced density matrix of the listed targets (partial
    /// trace over everything else) into `rho` — `rho[g,h] = Σ_base
    /// ψ[base+off_g]·conj(ψ[base+off_h])`, O(d·k) memory traffic for a
    /// k-dim subspace of a d-dim register. `rho` must already be k×k; it
    /// is overwritten.
    ///
    /// The state need not be normalized; `Tr(rho)` equals `‖ψ‖²`. This is
    /// what lets the fused trajectory path weigh local Kraus branches
    /// against a small matrix instead of sweeping the full state per
    /// branch.
    pub fn reduced_density_state(
        &mut self,
        amps: &[C64],
        targets: &[usize],
        dims: &[usize],
        rho: &mut CMat,
    ) {
        let i = self.ensure_index(targets, dims);
        let idx = &self.indices[i].index;
        assert_eq!(amps.len(), idx.total, "state length mismatch");
        let k = idx.gate_dim;
        assert!(
            rho.rows() == k && rho.cols() == k,
            "reduced-density output must be {k}×{k}"
        );
        rho.set_zero();
        // Gather the k target amplitudes once per base, then accumulate
        // only the upper triangle: ρ is Hermitian, and `conj` / the
        // swapped-operand product are exact in IEEE arithmetic, so
        // mirroring reproduces the naive double loop bit-for-bit at half
        // the flops and one gather pass instead of k.
        self.block.clear();
        self.block.resize(k, C64::ZERO);
        for &base in &idx.bases {
            for (g, &go) in idx.offsets.iter().enumerate() {
                self.block[g] = amps[base + go];
            }
            for g in 0..k {
                let ag = self.block[g];
                for h in g..k {
                    rho[(g, h)] += ag * self.block[h].conj();
                }
            }
        }
        for g in 0..k {
            for h in 0..g {
                rho[(g, h)] = rho[(h, g)].conj();
            }
        }
    }

    /// `Tr(ρ·Ô)` where `Ô` is `op` embedded on `targets` — O(d·k).
    pub fn expectation(&mut self, rho: &CMat, op: &CMat, targets: &[usize], dims: &[usize]) -> C64 {
        let i = self.ensure_index(targets, dims);
        let idx = &self.indices[i].index;
        check_op(op, idx);
        assert_eq!(rho.rows(), idx.total, "matrix height mismatch");
        let cols = rho.cols();
        let data = rho.as_slice();
        let mut acc = C64::ZERO;
        for &base in &idx.bases {
            for (g, &go) in idx.offsets.iter().enumerate() {
                for (h, &ho) in idx.offsets.iter().enumerate() {
                    let o = op[(g, h)];
                    if o == C64::ZERO {
                        continue;
                    }
                    acc += data[(base + ho) * cols + base + go] * o;
                }
            }
        }
        acc
    }
}

fn check_op(op: &CMat, idx: &TargetIndex) {
    assert!(
        op.is_square() && op.rows() == idx.gate_dim,
        "operator dim mismatch"
    );
}

/// Row pass: for every base, gathers the k target rows into `rows` and
/// overwrites them with the operator-mixed combinations (AXPY over whole
/// rows, so the inner loop is contiguous and vectorizes).
fn apply_left_rows(mat: &mut CMat, op: &CMat, idx: &TargetIndex, rows: &mut Vec<C64>) {
    let k = idx.gate_dim;
    let cols = mat.cols();
    rows.resize(k * cols, C64::ZERO);
    let data = mat.as_mut_slice();
    for &base in &idx.bases {
        for (g, &off) in idx.offsets.iter().enumerate() {
            let src = &data[(base + off) * cols..][..cols];
            rows[g * cols..(g + 1) * cols].copy_from_slice(src);
        }
        for (g, &off) in idx.offsets.iter().enumerate() {
            let dst = &mut data[(base + off) * cols..][..cols];
            dst.fill(C64::ZERO);
            for (h, src) in rows.chunks_exact(cols).enumerate() {
                let coeff = op[(g, h)];
                if coeff == C64::ZERO {
                    continue;
                }
                for (o, &s) in dst.iter_mut().zip(src) {
                    *o += coeff * s;
                }
            }
        }
    }
}

/// Column pass: within each row, gathers the k target entries of every
/// column fibre and overwrites them with `Σ_h entry_h·conj(op[g,h])` —
/// right multiplication by the embedded `op†`.
fn apply_right_dagger_rows(mat: &mut CMat, op: &CMat, idx: &TargetIndex, gather: &mut Vec<C64>) {
    let k = idx.gate_dim;
    let cols = mat.cols();
    gather.resize(k, C64::ZERO);
    for row in mat.as_mut_slice().chunks_exact_mut(cols) {
        for &base in &idx.bases {
            for (slot, &off) in gather.iter_mut().zip(&idx.offsets) {
                *slot = row[base + off];
            }
            for (g, &off) in idx.offsets.iter().enumerate() {
                let mut acc = C64::ZERO;
                for (h, &v) in gather.iter().enumerate() {
                    let coeff = op[(g, h)];
                    if coeff == C64::ZERO {
                        continue;
                    }
                    acc += v * coeff.conj();
                }
                row[base + off] = acc;
            }
        }
    }
}

/// Channel body for gate dimension `K` (`KK = K²` block entries): the
/// superoperator in stack arrays, each block read from and written to ρ
/// in place. The superoperator is stored transposed and split into real
/// and imaginary parts, so the sweep over a block's outputs runs on
/// contiguous `f64` lanes; each output still takes its terms in
/// ascending `(g', h')` order as `acc + (s·v)`, with the complex product
/// formed as [`C64`]'s `Mul` forms it, so its bits are the scalar sum's.
/// Skipping a zero superoperator entry, as the generic body does,
/// changes no bit of a finite sum (`acc + ±0 = acc` for every `acc` it
/// can reach), so the branch-free sums here equal it.
fn kraus_fixed<const K: usize, const KK: usize>(
    data: &mut [C64],
    cols: usize,
    superop: &[C64],
    idx: &TargetIndex,
) {
    let mut s_re = [[0.0f64; KK]; KK];
    let mut s_im = [[0.0f64; KK]; KK];
    for (a, row) in superop.chunks_exact(KK).enumerate() {
        for (b, z) in row.iter().enumerate() {
            s_re[b][a] = z.re;
            s_im[b][a] = z.im;
        }
    }
    let off: [usize; K] = std::array::from_fn(|g| idx.offsets[g]);
    for (i, &rb) in idx.bases.iter().enumerate() {
        for &cb in &idx.bases[i..] {
            let mut re = [0.0f64; KK];
            let mut im = [0.0f64; KK];
            for (b, (sr, si)) in s_re.iter().zip(&s_im).enumerate() {
                let v = data[(rb + off[b / K]) * cols + cb + off[b % K]];
                for a in 0..KK {
                    re[a] += sr[a] * v.re - si[a] * v.im;
                    im[a] += sr[a] * v.im + si[a] * v.re;
                }
            }
            let out: [C64; KK] = std::array::from_fn(|a| C64::new(re[a], im[a]));
            store_hermitian_block(data, cols, rb, cb, &off, &out);
        }
    }
}

/// Channel body for any gate dimension: gather each block into `block`,
/// transform it into `block_out`, store it with its mirror.
fn kraus_generic(
    data: &mut [C64],
    cols: usize,
    superop: &[C64],
    idx: &TargetIndex,
    block: &mut Vec<C64>,
    block_out: &mut Vec<C64>,
) {
    let k = idx.gate_dim;
    let k2 = k * k;
    block.resize(k2, C64::ZERO);
    block_out.resize(k2, C64::ZERO);
    for (i, &rb) in idx.bases.iter().enumerate() {
        for &cb in &idx.bases[i..] {
            for (g, &go) in idx.offsets.iter().enumerate() {
                let row = &data[(rb + go) * cols..];
                for (h, &ho) in idx.offsets.iter().enumerate() {
                    block[g * k + h] = row[cb + ho];
                }
            }
            for (a, out) in block_out.iter_mut().enumerate() {
                let srow = &superop[a * k2..][..k2];
                let mut acc = C64::ZERO;
                for (&s, &v) in srow.iter().zip(block.iter()) {
                    if s == C64::ZERO {
                        continue;
                    }
                    acc += s * v;
                }
                *out = acc;
            }
            store_hermitian_block(data, cols, rb, cb, &idx.offsets, block_out);
        }
    }
}

/// Writes the transformed block `out` of the (row base `rb`, column base
/// `cb`) pair, `rb ≤ cb`, and its mirror: off the diagonal, the mirrored
/// block `(cb, rb)` as `out`'s conjugate transpose; on it (`rb == cb`),
/// the upper entries, their conjugates below and the real parts on the
/// diagonal, so ρ comes out exactly Hermitian.
#[inline(always)]
fn store_hermitian_block(
    data: &mut [C64],
    cols: usize,
    rb: usize,
    cb: usize,
    offsets: &[usize],
    out: &[C64],
) {
    let k = offsets.len();
    for (g, &go) in offsets.iter().enumerate() {
        for (h, &ho) in offsets.iter().enumerate() {
            let z = out[g * k + h];
            if rb != cb || g < h {
                data[(rb + go) * cols + cb + ho] = z;
                data[(cb + ho) * cols + rb + go] = z.conj();
            } else if g == h {
                data[(rb + go) * cols + rb + go] = C64::real(z.re);
            }
        }
    }
}

/// 2-dim state kernel: one two-point rotation per fibre, operator entries
/// in registers, no scratch traffic.
fn sv_apply_k2(amps: &mut [C64], op: &CMat, idx: &TargetIndex) {
    let off = idx.offsets[1];
    let (u00, u01, u10, u11) = (op[(0, 0)], op[(0, 1)], op[(1, 0)], op[(1, 1)]);
    for &base in &idx.bases {
        let a0 = amps[base];
        let a1 = amps[base + off];
        amps[base] = u00 * a0 + u01 * a1;
        amps[base + off] = u10 * a0 + u11 * a1;
    }
}

/// 4-dim state kernel: the 2q qubit gate, 4 gathered amplitudes and a
/// fully unrolled 4×4 transform per fibre.
fn sv_apply_k4(amps: &mut [C64], op: &CMat, idx: &TargetIndex) {
    let (o1, o2, o3) = (idx.offsets[1], idx.offsets[2], idx.offsets[3]);
    let mut u = [C64::ZERO; 16];
    for (r, row) in u.chunks_exact_mut(4).enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            *v = op[(r, c)];
        }
    }
    for &base in &idx.bases {
        let a = [
            amps[base],
            amps[base + o1],
            amps[base + o2],
            amps[base + o3],
        ];
        amps[base] = u[0] * a[0] + u[1] * a[1] + u[2] * a[2] + u[3] * a[3];
        amps[base + o1] = u[4] * a[0] + u[5] * a[1] + u[6] * a[2] + u[7] * a[3];
        amps[base + o2] = u[8] * a[0] + u[9] * a[1] + u[10] * a[2] + u[11] * a[3];
        amps[base + o3] = u[12] * a[0] + u[13] * a[1] + u[14] * a[2] + u[15] * a[3];
    }
}

/// 8-dim state kernel (fused 3-qubit block): gathered amplitudes and the
/// operator in fixed-size stack arrays, fully unrollable row loops.
fn sv_apply_k8(amps: &mut [C64], op: &CMat, idx: &TargetIndex) {
    let mut u = [C64::ZERO; 64];
    for (r, row) in u.chunks_exact_mut(8).enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            *v = op[(r, c)];
        }
    }
    let mut a = [C64::ZERO; 8];
    for &base in &idx.bases {
        for (slot, &off) in a.iter_mut().zip(&idx.offsets) {
            *slot = amps[base + off];
        }
        for (row, &off) in u.chunks_exact(8).zip(&idx.offsets) {
            let mut acc = C64::ZERO;
            for (&coeff, &v) in row.iter().zip(&a) {
                acc += coeff * v;
            }
            amps[base + off] = acc;
        }
    }
}

/// 16-dim state kernel (fused 4-qubit block): same shape as the 8-dim
/// loop with the operator staged into a dense stack array.
fn sv_apply_k16(amps: &mut [C64], op: &CMat, idx: &TargetIndex) {
    let mut u = [C64::ZERO; 256];
    for (r, row) in u.chunks_exact_mut(16).enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            *v = op[(r, c)];
        }
    }
    let mut a = [C64::ZERO; 16];
    for &base in &idx.bases {
        for (slot, &off) in a.iter_mut().zip(&idx.offsets) {
            *slot = amps[base + off];
        }
        for (row, &off) in u.chunks_exact(16).zip(&idx.offsets) {
            let mut acc = C64::ZERO;
            for (&coeff, &v) in row.iter().zip(&a) {
                acc += coeff * v;
            }
            amps[base + off] = acc;
        }
    }
}

/// Chunked state kernel for fused blocks: bases whose lowest target sits
/// above `run` free low subsystems come in contiguous stride-1 runs, so
/// each run is processed as whole slices — gather `k` runs, rebuild each
/// as an AXPY over the gathered runs, scatter back. The innermost loop
/// walks consecutive memory, which is what lets rustc autovectorize it.
fn sv_apply_blocked(amps: &mut [C64], op: &CMat, idx: &TargetIndex, gather: &mut Vec<C64>) {
    let k = idx.gate_dim;
    let run = idx.run;
    debug_assert_eq!(idx.bases.len() % run, 0, "bases must tile into runs");
    gather.resize(k * run, C64::ZERO);
    for chunk in idx.bases.chunks_exact(run) {
        let base = chunk[0];
        debug_assert_eq!(chunk[run - 1], base + run - 1, "run must be contiguous");
        for (g, &off) in idx.offsets.iter().enumerate() {
            gather[g * run..(g + 1) * run].copy_from_slice(&amps[base + off..][..run]);
        }
        for (g, &off) in idx.offsets.iter().enumerate() {
            let dst = &mut amps[base + off..][..run];
            dst.fill(C64::ZERO);
            for (h, src) in gather.chunks_exact(run).enumerate() {
                let coeff = op[(g, h)];
                if coeff == C64::ZERO {
                    continue;
                }
                for (o, &s) in dst.iter_mut().zip(src) {
                    *o += coeff * s;
                }
            }
        }
    }
}

/// Generic state kernel: gather the k fibre amplitudes into the scratch,
/// transform, scatter back.
fn sv_apply_generic(amps: &mut [C64], op: &CMat, idx: &TargetIndex, gather: &mut Vec<C64>) {
    let k = idx.gate_dim;
    gather.resize(k, C64::ZERO);
    for &base in &idx.bases {
        for (slot, &off) in gather.iter_mut().zip(&idx.offsets) {
            *slot = amps[base + off];
        }
        for (g, &off) in idx.offsets.iter().enumerate() {
            let mut acc = C64::ZERO;
            for (h, &v) in gather.iter().enumerate() {
                let coeff = op[(g, h)];
                if coeff == C64::ZERO {
                    continue;
                }
                acc += coeff * v;
            }
            amps[base + off] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    #[test]
    fn target_index_offsets_match_strides() {
        // dims [2,3,2]: strides 1, 2, 6.
        let idx = TargetIndex::new(&[1], &[2, 3, 2]);
        assert_eq!(idx.gate_dim(), 3);
        assert_eq!(idx.offsets, vec![0, 2, 4]);
        assert_eq!(idx.bases, vec![0, 1, 6, 7]);
        // Reversed two-qubit targets: gate digit 0 on subsystem 2.
        let idx = TargetIndex::new(&[2, 0], &[2, 3, 2]);
        assert_eq!(idx.gate_dim(), 4);
        assert_eq!(idx.offsets, vec![0, 6, 1, 7]);
        assert_eq!(idx.bases, vec![0, 2, 4]);
    }

    #[test]
    fn fused_block_kernels_match_embed_oracle() {
        // An 8-dim operator applied low (run = 1 → dedicated k8 loop) and
        // high (run = 4 → chunked blocked pass) on a 5-qubit register,
        // cross-checked against the dense oracle `embed(U)·ψ`.
        let op = gates::h().kron(&gates::ry(0.3)).kron(&gates::x());
        let mut base = crate::StateVector::zero_qubits(5);
        base.apply_unitary(&gates::h(), &[0]);
        base.apply_unitary(&gates::cnot(), &[0, 3]);
        base.apply_unitary(&gates::ry(0.9), &[4]);
        base.apply_unitary(&gates::cnot(), &[4, 1]);
        for targets in [[0usize, 1, 2], [2, 3, 4], [4, 2, 3]] {
            let mut fast = base.clone();
            let slow = crate::embed(&op, &targets, base.dims()).mul_vec(base.amplitudes());
            let mut scratch = KernelScratch::new();
            fast.apply_unitary_scratch(&op, &targets, &mut scratch);
            let diff = fast
                .amplitudes()
                .iter()
                .zip(&slow)
                .map(|(a, b)| (*a - *b).norm_sqr().sqrt())
                .fold(0.0f64, f64::max);
            assert!(diff < 1e-12, "targets {targets:?}: diff {diff}");
        }
    }

    #[test]
    fn reduced_density_state_matches_single_subsystem_route() {
        let mut psi = crate::StateVector::zero_qubits(3);
        psi.apply_unitary(&gates::h(), &[0]);
        psi.apply_unitary(&gates::cnot(), &[0, 2]);
        psi.apply_unitary(&gates::ry(0.4), &[1]);
        let mut scratch = KernelScratch::new();
        for q in 0..3 {
            let fast = psi.reduced_density_on(&[q], &mut scratch);
            let slow = psi.reduced_density(q);
            assert!(fast.max_abs_diff(&slow) < 1e-12, "qubit {q}");
        }
        // Two-subsystem reduction: trace equals the squared norm and the
        // Bell pair over {0,2} is maximally entangled.
        let rho = psi.reduced_density_on(&[0, 2], &mut scratch);
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
        assert!((rho[(0, 0)].re - 0.5).abs() < 1e-10);
        assert!((rho[(3, 3)].re - 0.5).abs() < 1e-10);
    }

    #[test]
    fn conjugate_matches_embed_route() {
        let dims = [2usize, 2, 2];
        let mut rho = crate::DensityMatrix::zero(&dims).matrix().clone();
        // Mix it up first so the test is not on a sparse corner.
        let mut scratch = KernelScratch::new();
        scratch.apply_conjugate(&mut rho, &gates::h(), &[0], &dims);
        scratch.apply_conjugate(&mut rho, &gates::cnot(), &[0, 2], &dims);
        let full = crate::embed(&gates::cnot(), &[0, 2], &dims);
        let mut expect = crate::DensityMatrix::zero(&dims).matrix().clone();
        let h_full = crate::embed(&gates::h(), &[0], &dims);
        expect = &(&h_full * &expect) * &h_full.dagger();
        expect = &(&full * &expect) * &full.dagger();
        assert!(rho.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn kraus_kernel_preserves_trace() {
        let dims = [2usize, 2];
        let mut scratch = KernelScratch::new();
        let mut rho = crate::DensityMatrix::zero(&dims).matrix().clone();
        scratch.apply_conjugate(&mut rho, &gates::h(), &[0], &dims);
        scratch.apply_conjugate(&mut rho, &gates::cnot(), &[0, 1], &dims);
        scratch.apply_kraus(&mut rho, &crate::channels::depolarizing(0.2), &[1], &dims);
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
    }

    mod hermitian_half {
        use super::*;
        use crate::channels;
        use quant_math::{eigh, normal, seeded, unitary_exp};
        use rand::rngs::StdRng;

        fn random_matrix(rng: &mut StdRng, n: usize) -> CMat {
            CMat::from_fn(n, n, |_, _| {
                C64::new(normal(rng, 0.0, 1.0), normal(rng, 0.0, 1.0))
            })
        }

        /// An exactly Hermitian ρ (not PSD: the kernel is linear): random
        /// upper entries, their conjugates below, a real diagonal.
        fn random_hermitian(rng: &mut StdRng, n: usize) -> CMat {
            let mut m = random_matrix(rng, n);
            for i in 0..n {
                m[(i, i)] = C64::real(m[(i, i)].re);
                for j in 0..i {
                    m[(i, j)] = m[(j, i)].conj();
                }
            }
            m
        }

        fn random_unitary(rng: &mut StdRng, n: usize) -> CMat {
            let a = random_matrix(rng, n);
            unitary_exp(&(&a + &a.dagger()).scale(C64::real(0.5)), 0.7)
        }

        /// `raw` whitened by `S^{-1/2}`, `S = Σ Aᵢ†Aᵢ`: a CPTP set.
        fn whitened(raw: Vec<CMat>) -> Vec<CMat> {
            let n = raw[0].rows();
            let mut s = CMat::zeros(n, n);
            for a in &raw {
                s = &s + &(&a.dagger() * a);
            }
            let eig = eigh(&s);
            let inv_sqrt: Vec<C64> = eig
                .values
                .iter()
                .map(|&l| C64::real(1.0 / l.max(1e-300).sqrt()))
                .collect();
            let s_inv_sqrt = &(&eig.vectors * &CMat::diag(&inv_sqrt)) * &eig.vectors.dagger();
            raw.iter().map(|a| a * &s_inv_sqrt).collect()
        }

        /// The executor's leakage completion: a contraction `B` plus one
        /// rank-1 operator per lost direction, depositing its weight on
        /// the basis state where that direction has the most support.
        fn contraction_with_deposits(rng: &mut StdRng, n: usize) -> Vec<CMat> {
            let (u, v) = (random_unitary(rng, n), random_unitary(rng, n));
            let keep: Vec<C64> = (0..n)
                .map(|_| C64::real((1.0 - 0.05 * normal(rng, 0.0, 1.0).abs()).max(0.5).sqrt()))
                .collect();
            let b = &(&(&u * &v) * &CMat::diag(&keep)) * &v.dagger();
            let m = &CMat::identity(n) - &(&b.dagger() * &b);
            let eig = eigh(&m);
            let mut kraus = vec![b];
            for (i, &lambda) in eig.values.iter().enumerate() {
                if lambda > 1e-14 {
                    let row: Vec<C64> = (0..n).map(|r| eig.vectors[(r, i)].conj()).collect();
                    let deposit = (0..n)
                        .max_by(|&a, &b| row[a].norm_sqr().total_cmp(&row[b].norm_sqr()))
                        .unwrap_or(0);
                    let mut k = CMat::zeros(n, n);
                    for (col, &vc) in row.iter().enumerate() {
                        k[(deposit, col)] = C64::real(lambda.sqrt()) * vc;
                    }
                    kraus.push(k);
                }
            }
            kraus
        }

        /// A CPTP set with exact zeros: amplitude damping, on a qubit or
        /// on each qubit of a pair; qutrit relaxation on a qutrit; a
        /// block-diagonal unitary otherwise.
        fn sparse_channel(rng: &mut StdRng, k: usize) -> Vec<CMat> {
            match k {
                2 => channels::amplitude_damping(0.3),
                3 => channels::qutrit_relaxation(0.2, 0.35),
                4 => {
                    let mut out = Vec::new();
                    for a in channels::amplitude_damping(0.2) {
                        for b in channels::phase_damping(0.4) {
                            out.push(a.kron(&b));
                        }
                    }
                    out
                }
                _ => {
                    let u = random_unitary(rng, 2);
                    vec![CMat::from_fn(k, k, |r, c| match (r < 2, c < 2) {
                        (true, true) => u[(r, c)],
                        (false, false) if r == c => C64::ONE,
                        _ => C64::ZERO,
                    })]
                }
            }
        }

        /// Every channel the property test applies on a `k`-dim target:
        /// random CPTP sets of 1–5 operators, one with exact zeros, one
        /// with rank-1 deposit operators.
        fn channels_for(rng: &mut StdRng, k: usize) -> Vec<Vec<CMat>> {
            let mut sets: Vec<Vec<CMat>> = (1..=5)
                .map(|ops| whitened((0..ops).map(|_| random_matrix(rng, k)).collect()))
                .collect();
            sets.push(sparse_channel(rng, k));
            sets.push(contraction_with_deposits(rng, k));
            sets
        }

        /// One and two targets: every single subsystem, and the first
        /// and last two, adjacent and not, in both orders.
        fn target_sets(n: usize) -> Vec<Vec<usize>> {
            let mut sets: Vec<Vec<usize>> = (0..n).map(|q| vec![q]).collect();
            if n >= 2 {
                for (a, b) in [(0, 1), (n - 2, n - 1), (0, n - 1), (n / 2, 0)] {
                    if a != b {
                        sets.push(vec![a, b]);
                        sets.push(vec![b, a]);
                    }
                }
            }
            sets
        }

        fn assert_exactly_hermitian(m: &CMat, what: &str) {
            for i in 0..m.rows() {
                for j in 0..m.cols() {
                    assert!(
                        m[(i, j)] == m[(j, i)].conj(),
                        "{what}: ρ[{i},{j}] = {:?} but ρ[{j},{i}] = {:?}",
                        m[(i, j)],
                        m[(j, i)]
                    );
                }
            }
        }

        #[test]
        fn half_kernel_matches_full_block_oracle() {
            let mut rng = seeded(0x4E41_4C46);
            let mut registers: Vec<Vec<usize>> = (1..=6).map(|n| vec![2; n]).collect();
            registers.push(vec![3, 2, 2]);
            let mut scratch = KernelScratch::new();
            let mut checked = 0;
            for dims in &registers {
                let total: usize = dims.iter().product();
                for targets in target_sets(dims.len()) {
                    let k: usize = targets.iter().map(|&t| dims[t]).product();
                    for kraus in channels_for(&mut rng, k) {
                        let rho = random_hermitian(&mut rng, total);
                        let mut fast = rho.clone();
                        let mut slow = rho.clone();
                        scratch.apply_kraus(&mut fast, &kraus, &targets, dims);
                        scratch.apply_kraus_oracle(&mut slow, &kraus, &targets, dims);
                        let diff = (&fast - &slow).frobenius_norm();
                        let what = format!("dims {dims:?} targets {targets:?} ops {}", kraus.len());
                        assert!(
                            diff <= 1e-13 * rho.frobenius_norm(),
                            "{what}: ‖Δ‖ = {diff:.3e}, ‖ρ‖ = {:.3e}",
                            rho.frobenius_norm()
                        );
                        assert_exactly_hermitian(&fast, &what);
                        checked += 1;
                    }
                }
            }
            assert!(checked > 300, "only {checked} cases ran");
        }

        #[test]
        fn unrolled_bodies_equal_the_generic_body_bit_for_bit() {
            let mut rng = seeded(0x0B0D);
            let dims = [2usize; 5];
            let mut scratch = KernelScratch::new();
            for targets in target_sets(dims.len()) {
                let k = 1 << targets.len();
                for kraus in channels_for(&mut rng, k) {
                    let rho = random_hermitian(&mut rng, 32);
                    let i = scratch.prepare_kraus(&rho, &kraus, &targets, &dims);
                    let idx = &scratch.indices[i].index;
                    let (mut fast, mut slow) = (rho.clone(), rho);
                    match k {
                        2 => kraus_fixed::<2, 4>(fast.as_mut_slice(), 32, &scratch.superop, idx),
                        _ => kraus_fixed::<4, 16>(fast.as_mut_slice(), 32, &scratch.superop, idx),
                    }
                    let (mut block, mut block_out) = (Vec::new(), Vec::new());
                    kraus_generic(
                        slow.as_mut_slice(),
                        32,
                        &scratch.superop,
                        idx,
                        &mut block,
                        &mut block_out,
                    );
                    let bits = |m: &CMat| -> Vec<(u64, u64)> {
                        m.as_slice()
                            .iter()
                            .map(|z| (z.re.to_bits(), z.im.to_bits()))
                            .collect()
                    };
                    assert_eq!(bits(&fast), bits(&slow), "targets {targets:?}");
                }
            }
        }

        #[test]
        fn density_matrix_stays_exactly_hermitian_over_a_long_program() {
            let mut rng = seeded(0x0200);
            let n = 5;
            let mut psi = crate::StateVector::zero_qubits(n);
            for q in 0..n {
                psi.apply_unitary(&random_unitary(&mut rng, 2), &[q]);
            }
            let mut rho = crate::DensityMatrix::from_state(&psi);
            let mut scratch = KernelScratch::new();
            for step in 0..200 {
                let a = step % n;
                let targets = match step % 3 {
                    0 => vec![a],
                    1 => vec![a, (a + 1) % n],
                    _ => vec![(a + 3) % n, a],
                };
                let k = 1 << targets.len();
                let kraus = if step % 7 == 0 {
                    contraction_with_deposits(&mut rng, k)
                } else {
                    let ops = 1 + step % 4;
                    whitened((0..ops).map(|_| random_matrix(&mut rng, k)).collect())
                };
                rho.apply_kraus_scratch(&kraus, &targets, &mut scratch);
                assert_exactly_hermitian(rho.matrix(), &format!("after channel {step}"));
            }
            assert!((rho.trace() - 1.0).abs() < 1e-9, "trace {}", rho.trace());
        }
    }

    #[test]
    fn expectation_matches_trace_route() {
        let dims = [2usize, 2];
        let mut scratch = KernelScratch::new();
        let mut rho = crate::DensityMatrix::zero(&dims).matrix().clone();
        scratch.apply_conjugate(&mut rho, &gates::ry(0.7), &[1], &dims);
        let fast = scratch.expectation(&rho, &gates::z(), &[1], &dims);
        let full = crate::embed(&gates::z(), &[1], &dims);
        let slow = (&rho * &full).trace();
        assert!((fast - slow).abs() < 1e-12);
    }
}
