//! Pulse-level integration of a coupled transmon pair under
//! cross-resonance drive.
//!
//! We use the effective-Hamiltonian model of Magesan & Gambetta
//! (arXiv:1804.04073), which the paper's own §5–6 analysis is phrased in:
//! driving the *control* qubit at the *target's* frequency produces
//!
//! ```text
//! H_eff(t)/ħ = 2π·a(t)·( zx/2·Z⊗X + ix/2·I⊗X + zi/2·Z⊗I ) + 2π·zz/4·Z⊗Z
//! ```
//!
//! with rates proportional to the control-channel amplitude `a(t)`. The
//! spurious IX and ZI terms are what forces the "echoed" CR construction
//! (two half pulses of opposite sign separated by an X on the control): the
//! echo flips the sign of every Z⊗·-conditioned term while the amplitude
//! sign flip restores ZX and cancels IX.
//!
//! The pair is integrated in the 9-dimensional two-qutrit space (index
//! `control + 3·target`): each qubit's drive channel sees its full
//! three-level ladder, and the CR terms act on the qubit subspace. Single-
//! qubit pulses on the pair's drive channels are integrated in the same
//! pass, so a complete CNOT pulse schedule — CR halves, echo X pulses,
//! target Rx90, virtual-Z frames — evolves as one two-qutrit propagator.
//! The integrator carries only that propagator's four qubit-subspace
//! columns, and of their nine rows only those that can still reach the
//! qubit block: a |2⟩ row is followed while a later pulse can carry it
//! back, so leakage paths are kept. [`PairFrameResult`] returns the 4×4
//! qubit block; the executor turns the leakage out of that block into a
//! Kraus completion.

use crate::params::{CrParams, TransmonParams, DT};
use quant_math::{
    mul9_blocks_slab_into, mul9_slab_into, unitary_exp9_in_blocks_into, unitary_exp9_into, Blocks9,
    CMat, PropagatorScratch, C64,
};
use quant_pulse::{Channel, Instruction, Schedule};
use quant_sim::gates;
use std::f64::consts::TAU;
use std::sync::OnceLock;

/// Result of integrating a two-qubit pulse schedule: the qubit block of
/// the propagator and the frames left on the drive channels. The 9×9
/// two-qutrit propagator itself is not kept; its leakage shows as the
/// block's shortfall from unitarity.
#[derive(Clone, Debug)]
pub struct PairFrameResult {
    /// 4×4 qubit-subspace block of the propagator, with the **control
    /// qubit as the least-significant digit** (matching
    /// [`quant_sim::gates::cr`]), excluding trailing frame corrections.
    /// Slightly sub-unitary when population leaks to the |2⟩ levels; the
    /// executor restores trace preservation with a Kraus completion.
    pub unitary: CMat,
    /// Leftover frame phase on the control qubit's drive channel.
    pub control_frame: f64,
    /// Leftover frame phase on the target qubit's drive channel.
    pub target_frame: f64,
    /// Total duration in `dt` samples.
    pub duration: u64,
}

impl PairFrameResult {
    /// The propagator with both leftover virtual-Z frames realized
    /// (`Rz(−φ)` on each qubit).
    pub fn corrected_unitary(&self) -> CMat {
        let rz_c = rz_phase(-self.control_frame);
        let rz_t = rz_phase(-self.target_frame);
        // Control is digit 0 (LSB) → kron(target_op, control_op).
        let corr = rz_t.kron(&rz_c);
        &corr * &self.unitary
    }
}

/// diag(1, e^{iθ}) — Rz(θ) up to global phase.
fn rz_phase(theta: f64) -> CMat {
    CMat::diag(&[C64::ONE, C64::cis(theta)])
}

/// Extracts the ZX rotation angle from a (possibly contaminated) CR
/// propagator (control = LSB): the X-rotation angles of the control-|0⟩ and
/// control-|1⟩ blocks differ by `2·θ_zx`.
pub fn extract_zx_angle(u: &CMat) -> f64 {
    let block_angle = |c: usize| -> f64 {
        let b00 = u[(c, c)];
        let b01 = u[(c, 2 + c)];
        // b ∝ Rx(θ): b01/b00 = −i·tan(θ/2).
        let r = b01 / b00;
        2.0 * (C64::I * r).re.atan()
    };
    (block_angle(0) - block_angle(1)) / 2.0
}

/// Extracts the residual control-Z angle φ of a propagator of the form
/// `Rz_c(φ)·CR(θ)` (the surviving ZI term of an echoed CR pulse).
pub fn extract_control_z(u: &CMat, theta: f64) -> f64 {
    let m = u * &gates::cr(theta).dagger();
    // M ≈ diag(1, e^{iφ}, 1, e^{iφ}) up to global phase (control = LSB).
    (m[(1, 1)] / m[(0, 0)]).arg()
}

/// Integrator for one directed, coupled pair.
#[derive(Clone, Debug)]
pub struct CrPair {
    control: TransmonParams,
    target: TransmonParams,
    cr: CrParams,
}

impl CrPair {
    /// Creates the integrator. `control` is the qubit that is physically
    /// driven on the control channel.
    pub fn new(control: TransmonParams, target: TransmonParams, cr: CrParams) -> Self {
        CrPair {
            control,
            target,
            cr,
        }
    }

    /// The CR parameters.
    pub fn cr_params(&self) -> &CrParams {
        &self.cr
    }

    /// The control qubit's transmon parameters.
    pub fn control_params(&self) -> &TransmonParams {
        &self.control
    }

    /// The target qubit's transmon parameters.
    pub fn target_params(&self) -> &TransmonParams {
        &self.target
    }

    /// Integrates a two-qubit schedule.
    ///
    /// * `control_drive` / `target_drive` — the drive channels of the two
    ///   qubits (resonant single-qubit pulses).
    /// * `cr_channel` — the control channel carrying CR pulses.
    ///
    /// Pulses are processed in start-time order; overlapping `Play`s on
    /// different channels are integrated jointly sample-by-sample. Runs of
    /// bitwise-identical drive samples — the flat top of a `GaussianSquare`
    /// CR pulse, delays, dead time between pulses — have a constant
    /// Hamiltonian, so the whole run is advanced with a single
    /// `exp(-i·H·m·dt)` (one scaling-and-squaring pass, `O(log m)` products)
    /// instead of `m` per-sample exponentials. Echoed-CR schedules are
    /// mostly flat top, which makes this the difference between the
    /// trajectory executor being integration-bound or not.
    ///
    /// Each run's step also follows the block structure of its generator.
    /// The ZX, IX and ZI terms, the static ZZ and the target drive are all
    /// diagonal in the control level, and the control drive is diagonal in
    /// the target level. So a run with the control drive silent splits into
    /// the blocks `{c, c+3, c+6}` (one per control level), and a run with
    /// only the control drive playing into `{3t, 3t+1, 3t+2}` (one per
    /// target level). Both assemble only the 27 in-block generator entries
    /// and advance as three 3×3 exponentials and a block-diagonal product
    /// ([`Blocks9`]). Only runs where all three channels play at once take
    /// the full 9×9 generator and exponential.
    ///
    /// Only the qubit block is returned, so only the four qubit-subspace
    /// input columns `{0, 1, 3, 4}` of the propagator are carried: a 9×4
    /// slab. Its rows are followed only while they can reach the qubit
    /// rows: a block whose output no later run reads is not exponentiated
    /// (after the last control pulse, say, the control's |2⟩ block), and
    /// neither is a block whose input rows are all exactly zero (the
    /// target's |2⟩ block before the first target pulse). The remaining
    /// blocks are exponentiated two at a time. Steps are memoized only for
    /// run keys (drive bits and length) that recur in the schedule. Every
    /// route is bit-identical to the same entries of the full 9×9 product,
    /// so neither the dispatch, the slab nor the skipped blocks change a
    /// result.
    pub fn integrate(
        &self,
        schedule: &Schedule,
        control_drive: Channel,
        target_drive: Channel,
        cr_channel: Channel,
    ) -> PairFrameResult {
        let raster = Raster::new(schedule, [control_drive, target_drive, cr_channel]);
        let slab = self.propagate_slab(&raster, QUBIT_COLUMNS);
        raster.result(CMat::from_fn(4, 4, |r, c| slab[4 * QUBIT_LEVELS[r] + c]))
    }

    /// The reference integrator: one exponential and one full 9×9 product
    /// per sample on heap matrices, with no constant-run compression.
    /// Bitwise-faithful to the original per-sample loop; kept as the
    /// baseline of the trajectory executor's reference route and of the
    /// equivalence tests (compressed runs regroup the floating-point
    /// products, so [`CrPair::integrate`] agrees only to integrator
    /// tolerance).
    pub fn integrate_ref(
        &self,
        schedule: &Schedule,
        control_drive: Channel,
        target_drive: Channel,
        cr_channel: Channel,
    ) -> PairFrameResult {
        let raster = Raster::new(schedule, [control_drive, target_drive, cr_channel]);
        raster.result(qubit_block_of(&self.propagate_ref(&raster)))
    }

    /// The drive-free Hamiltonian (anharmonicity of each qutrit plus the
    /// static ZZ), row-major in the 9-dim space.
    fn static_hamiltonian(&self) -> [C64; 81] {
        let mut h = [C64::ZERO; 81];
        for idx in 0..9usize {
            let (c, t) = (idx % 3, idx / 3);
            let mut e = 0.0;
            if c == 2 {
                e += TAU * self.control.alpha;
            }
            if t == 2 {
                e += TAU * self.target.alpha;
            }
            h[10 * idx] = C64::real(e);
        }
        let k = C64::real(TAU * self.cr.zz_static_hz / 4.0);
        for (z, &o) in h.iter_mut().zip(&generator_tables().zz) {
            *z += o * k;
        }
        h
    }

    /// The drive coefficients of the Hamiltonian for one drive triple
    /// `[control drive, target drive, CR tone]`, indexed like
    /// `Generators::drive` and added to the static part in that order.
    /// Silent channels contribute none.
    fn drive_coefficients(&self, drives: [C64; 3]) -> [Option<C64>; 9] {
        let [dc, dt, du] = drives;
        let om_c = TAU * self.control.rabi_hz_per_amp;
        let om_t = TAU * self.target.rabi_hz_per_amp;
        let om_u_x = TAU * self.cr.zx_hz_per_amp / 2.0;
        let om_u_ix = TAU * self.cr.ix_hz_per_amp / 2.0;
        let om_u_zi = TAU * self.cr.zi_hz_per_amp / 2.0;
        let coefficients = [
            om_c / 2.0 * dc.re,
            om_c / 2.0 * dc.im,
            om_t / 2.0 * dt.re,
            om_t / 2.0 * dt.im,
            om_u_x * du.re,
            om_u_x * du.im,
            om_u_ix * du.re,
            om_u_ix * du.im,
            // The ZI term is the control's own AC-Stark shift: it scales
            // with the drive *power envelope* (phase- and
            // sign-independent), which is exactly why the echo's X flip
            // refocuses it.
            om_u_zi * du.abs(),
        ];
        let mut terms = [None; 9];
        for (d, range) in [(dc, 0..2), (dt, 2..4), (du, 4..9)] {
            if d == C64::ZERO {
                continue;
            }
            for i in range {
                terms[i] = Some(C64::real(coefficients[i]));
            }
        }
        terms
    }

    /// The fast route: the propagator applied to the 9×4 slab `slab`
    /// ([`QUBIT_COLUMNS`] for the qubit-subspace columns of the
    /// propagator, `slab[4·r + c]` being entry `(r, QUBIT_LEVELS[c])`), on
    /// stack arrays, advancing each constant-drive run with one step. Only
    /// the rows `QUBIT_LEVELS` of the returned slab are meaningful: rows
    /// that cannot reach them are left stale.
    ///
    /// Three passes over the runs. The first finds them and gives a memo
    /// slot to each block-route run key (drive bits and length) that
    /// occurs at least twice: schedules repeat drive samples exactly (the
    /// echo X pulse plays twice, pulse edges rise and fall through
    /// mirrored values), and a step is a pure function of its key. The
    /// second walks backwards from the qubit rows `{0, 1, 3, 4}` the
    /// result reads and marks, per run, the blocks whose output can still
    /// reach them. The third propagates, exponentiating only the live
    /// blocks whose input rows are not all exactly zero; a slot fills the
    /// blocks it lacks on first need. Full 9×9 runs, which no lowered
    /// program contains, are not memoized.
    fn propagate_slab(&self, raster: &Raster, mut slab: [C64; 36]) -> [C64; 36] {
        let tables = generator_tables();
        let hs = self.static_hamiltonian();
        let (mut runs, slots) = Run::find(raster);
        mark_live_blocks(&mut runs);
        let mut next = [C64::ZERO; 36];
        let mut memo: Vec<BlockStep> = Vec::with_capacity(slots);
        for run in &runs {
            let t = DT * run.len as f64;
            let coefficients = || self.drive_coefficients(run.drives);
            let Some(split) = run.route else {
                let mut h = [C64::ZERO; 81];
                tables.full.assemble(&hs, &coefficients(), &mut h);
                let mut step = [C64::ZERO; 81];
                unitary_exp9_into(&h, t, &mut step);
                mul9_slab_into(&step, &slab, &mut next);
                std::mem::swap(&mut slab, &mut next);
                continue;
            };
            let mut fresh = BlockStep::EMPTY;
            let step = match run.slot {
                Some(s) => {
                    if s == memo.len() {
                        memo.push(BlockStep::EMPTY);
                    }
                    &mut memo[s]
                }
                None => &mut fresh,
            };
            let missing = run.live & !split.zero_blocks(&slab) & !step.have;
            if missing != 0 {
                let mut h = [[C64::ZERO; 9]; 3];
                tables
                    .blocks(split)
                    .assemble(&hs, &coefficients(), h.as_flattened_mut());
                unitary_exp9_in_blocks_into(&h, t, split, missing, &mut step.blocks);
                step.have |= missing;
                #[cfg(test)]
                tests::EXPONENTIALS.set(tests::EXPONENTIALS.get() + missing.count_ones() as usize);
            }
            mul9_blocks_slab_into(&step.blocks, split, run.live, &slab, &mut next);
            std::mem::swap(&mut slab, &mut next);
        }
        slab
    }

    /// The reference route: the full 9×9 propagator, one heap-matrix copy,
    /// a handful of AXPYs and one Taylor propagator per sample, with no
    /// heap allocation after warm-up.
    fn propagate_ref(&self, raster: &Raster) -> CMat {
        let gens = Generators::build();
        let mut h_static = CMat::zeros(9, 9);
        h_static
            .as_mut_slice()
            .copy_from_slice(&self.static_hamiltonian());
        let mut h = CMat::zeros(9, 9);
        let mut step = CMat::zeros(9, 9);
        let mut next = CMat::zeros(9, 9);
        let mut scratch = PropagatorScratch::new(9);
        let mut u = CMat::identity(9);
        let [drive_c, drive_t, drive_u] = &raster.drives;
        for k in 0..raster.total {
            h.copy_from(&h_static);
            let coefficients = self.drive_coefficients([drive_c[k], drive_t[k], drive_u[k]]);
            for (g, coefficient) in coefficients.into_iter().enumerate() {
                if let Some(coefficient) = coefficient {
                    h.add_scaled_assign(&gens.drive[g], coefficient);
                }
            }
            scratch.unitary_exp_into(&h, DT, &mut step);
            step.mul_into(&u, &mut next);
            std::mem::swap(&mut u, &mut next);
        }
        u
    }
}

/// The 9-space indices `control + 3·target` of the qubit subspace, in
/// qubit order (control = base-2 LSB): `{0, 1, 3, 4}`.
const QUBIT_LEVELS: [usize; 4] = [0, 1, 3, 4];

/// The columns `QUBIT_LEVELS` of the 9×9 identity, as a row-major 9×4 slab.
const QUBIT_COLUMNS: [C64; 36] = {
    let mut slab = [C64::ZERO; 36];
    let mut c = 0;
    while c < 4 {
        slab[4 * QUBIT_LEVELS[c] + c] = C64::ONE;
        c += 1;
    }
    slab
};

/// A pair schedule rasterized onto its three channels `[control drive,
/// target drive, CR tone]`: per-sample complex drives with every frame
/// phase applied, and each channel's frame phase left at the end.
struct Raster {
    drives: [Vec<C64>; 3],
    frames: [f64; 3],
    total: usize,
}

impl Raster {
    fn new(schedule: &Schedule, channels: [Channel; 3]) -> Self {
        let total = schedule.duration() as usize;
        let mut drives = [
            vec![C64::ZERO; total],
            vec![C64::ZERO; total],
            vec![C64::ZERO; total],
        ];
        let mut frames = [0.0; 3];
        for ti in schedule.instructions() {
            let ch = ti.instruction.channel();
            let Some(slot) = channels.iter().position(|&c| c == ch) else {
                continue;
            };
            match &ti.instruction {
                Instruction::ShiftPhase { phase, .. } => frames[slot] += phase,
                Instruction::Play { waveform, .. } => {
                    let rot = C64::cis(frames[slot]);
                    let buf = &mut drives[slot][ti.start as usize..];
                    for (d, &s) in buf.iter_mut().zip(waveform.samples()) {
                        *d += s * rot;
                    }
                }
                // Frequency shifts are not meaningful in the effective CR
                // model; delays/acquires just occupy time.
                _ => {}
            }
        }
        Raster {
            drives,
            frames,
            total,
        }
    }

    /// The result for the qubit block `unitary` of this schedule.
    fn result(&self, unitary: CMat) -> PairFrameResult {
        PairFrameResult {
            unitary,
            control_frame: self.frames[0],
            target_frame: self.frames[1],
            duration: self.total as u64,
        }
    }
}

/// The fixed generators of the pair Hamiltonian in the 9-dim space
/// (index `control + 3·target`), row-major.
struct Generators {
    /// The drive terms in the order [`CrPair::drive_coefficients`] indexes
    /// them: the control drive's two quadratures, the target drive's two,
    /// then the CR tone's ZX, ZY, IX, IY and ZI.
    drive: [CMat; 9],
    /// The static ZZ coupling.
    zz: CMat,
}

impl Generators {
    fn build() -> Self {
        let x = gates::x();
        let y = gates::y();
        let z = gates::z();
        let id = CMat::identity(2);
        // Qubit-subspace generators embedded into 9×9.
        let e9 = |m4: &CMat| lift_qubit_subspace(m4);
        // 3-level drive quadratures on each qutrit digit.
        let (xc, yc) = drive_quadratures_on(0);
        let (xt, yt) = drive_quadratures_on(1);
        Generators {
            drive: [
                xc,
                yc,
                xt,
                yt,
                e9(&x.kron(&z)),
                e9(&y.kron(&z)),
                e9(&x.kron(&id)),
                e9(&y.kron(&id)),
                e9(&id.kron(&z)),
            ],
            zz: e9(&z.kron(&z)),
        }
    }
}

/// [`Generators`] as the fast route reads them, built once per process
/// from the same heap matrices the reference route uses.
struct Tables {
    /// The static ZZ coupling, row-major.
    zz: [C64; 81],
    /// The 27 in-block entries of each block split, and all 81 entries.
    strided: Assembly,
    contiguous: Assembly,
    full: Assembly,
}

impl Tables {
    fn blocks(&self, split: Blocks9) -> &Assembly {
        match split {
            Blocks9::Strided => &self.strided,
            Blocks9::Contiguous => &self.contiguous,
        }
    }
}

fn generator_tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let gens = Generators::build();
        let mut zz = [C64::ZERO; 81];
        zz.copy_from_slice(gens.zz.as_slice());
        let in_blocks = |split: Blocks9| {
            let mut entries = Vec::with_capacity(27);
            for b in 0..3 {
                for i in 0..3 {
                    for j in 0..3 {
                        entries.push(9 * split.index(b, i) + split.index(b, j));
                    }
                }
            }
            Assembly::new(&gens.drive, entries)
        };
        Tables {
            zz,
            strided: in_blocks(Blocks9::Strided),
            contiguous: in_blocks(Blocks9::Contiguous),
            full: Assembly::new(&gens.drive, (0..81).collect()),
        }
    })
}

/// The generator entries one route assembles, in the order it stores
/// them, each with its nonzero drive-generator values.
struct Assembly {
    /// Per entry: its row-major 9-space index, and the end of its pairs in
    /// `terms` (each entry's pairs start where the previous one's end).
    entries: Vec<(usize, usize)>,
    /// `(term, value)` pairs, in term order within each entry.
    terms: Vec<(usize, C64)>,
}

impl Assembly {
    fn new(drive: &[CMat; 9], indices: Vec<usize>) -> Self {
        let mut terms = Vec::new();
        let entries = indices
            .into_iter()
            .map(|e| {
                for (g, m) in drive.iter().enumerate() {
                    let value = m.as_slice()[e];
                    if value != C64::ZERO {
                        terms.push((g, value));
                    }
                }
                (e, terms.len())
            })
            .collect();
        Assembly { entries, terms }
    }

    /// Writes each entry of the generator into `out`: the static part
    /// `hs`, plus value × coefficient for each playing term, added in term
    /// order. Leaving out the zero values is exact: their products are
    /// `±0`, and no accumulator is ever `−0` (each starts at `+0` or
    /// nonzero, and a round-to-nearest sum is `−0` only of two `−0`s), so
    /// adding them would change nothing.
    fn assemble(&self, hs: &[C64; 81], coefficients: &[Option<C64>; 9], out: &mut [C64]) {
        let mut start = 0;
        for (z, &(e, end)) in out.iter_mut().zip(&self.entries) {
            let mut h = hs[e];
            for &(g, value) in &self.terms[start..end] {
                if let Some(coefficient) = coefficients[g] {
                    h += value * coefficient;
                }
            }
            *z = h;
            start = end;
        }
    }
}

/// One constant-drive run of a rasterized schedule: flat pulse tops,
/// delays and dead time all have a constant Hamiltonian.
struct Run {
    drives: [C64; 3],
    len: usize,
    /// The split of the run's block-diagonal generator, or `None` when all
    /// three channels play and it takes the full 9×9 route. Every CR and
    /// target-drive term is diagonal in the control level, and the control
    /// drive is diagonal in the target level (see [`CrPair::integrate`]).
    route: Option<Blocks9>,
    /// On a block route, the blocks (bit `b` = block `b`) whose output
    /// rows can still reach the result.
    live: u8,
    /// The run's memo slot when it takes a block route and its key recurs,
    /// numbered in order of first occurrence.
    slot: Option<usize>,
}

impl Run {
    /// The runs of `raster` in time order, and the number of memo slots.
    fn find(raster: &Raster) -> (Vec<Run>, usize) {
        let [drive_c, drive_t, drive_u] = &raster.drives;
        let total = raster.total;
        let mut runs = Vec::new();
        let mut k = 0;
        while k < total {
            let drives = [drive_c[k], drive_t[k], drive_u[k]];
            let [dc, dt, du] = drives;
            let mut len = 1;
            while k + len < total
                && drive_c[k + len] == dc
                && drive_t[k + len] == dt
                && drive_u[k + len] == du
            {
                len += 1;
            }
            let route = if dc == C64::ZERO {
                Some(Blocks9::Strided)
            } else if dt == C64::ZERO && du == C64::ZERO {
                Some(Blocks9::Contiguous)
            } else {
                None
            };
            runs.push(Run {
                drives,
                len,
                route,
                live: 0,
                slot: None,
            });
            k += len;
        }
        // A step is a pure function of the drive bits and the run length,
        // so runs with equal keys share one. Sorting the keys groups them;
        // only a block-route key that recurs gets a slot.
        let mut keys: Vec<_> = (runs.iter().enumerate())
            .filter(|(_, r)| r.route.is_some())
            .map(|(i, r)| (r.key(), i))
            .collect();
        keys.sort_unstable();
        let mut recurring: Vec<_> = keys
            .chunk_by(|a, b| a.0 == b.0)
            .filter(|g| g.len() > 1)
            .collect();
        recurring.sort_unstable_by_key(|group| group[0].1);
        for (slot, group) in recurring.iter().enumerate() {
            for &(_, i) in *group {
                runs[i].slot = Some(slot);
            }
        }
        let slots = recurring.len();
        (runs, slots)
    }

    fn key(&self) -> ([u64; 6], usize) {
        let [dc, dt, du] = self.drives;
        let bits = [dc.re, dc.im, dt.re, dt.im, du.re, du.im].map(f64::to_bits);
        (bits, self.len)
    }
}

/// Marks the live blocks of each run, walking backwards from the qubit
/// rows `{0, 1, 3, 4}` the result reads: a block is live when any of its
/// rows is live after the run, and the rows live before the run are the
/// rows of its live blocks. A full 9×9 run reads every row.
fn mark_live_blocks(runs: &mut [Run]) {
    let mut live_rows: u16 = QUBIT_LEVELS.iter().fold(0, |m, &r| m | 1 << r);
    for run in runs.iter_mut().rev() {
        let Some(split) = run.route else {
            live_rows = 0x1ff;
            continue;
        };
        let mut before = 0;
        for b in 0..3 {
            let rows = (0..3).fold(0u16, |m, i| m | 1 << split.index(b, i));
            if live_rows & rows != 0 {
                run.live |= 1 << b;
                before |= rows;
            }
        }
        live_rows = before;
    }
}

/// A block-route step whose blocks in `have` (bit `b` = block `b`) are
/// exponentiated.
#[derive(Clone, Copy)]
struct BlockStep {
    have: u8,
    blocks: [[C64; 9]; 3],
}

impl BlockStep {
    const EMPTY: BlockStep = BlockStep {
        have: 0,
        blocks: [[C64::ZERO; 9]; 3],
    };
}

/// Lifts a 4×4 qubit-subspace operator (control = base-2 LSB) into the
/// 9×9 two-qutrit space (control = base-3 LSB), zero outside the subspace.
pub fn lift_qubit_subspace(m4: &CMat) -> CMat {
    let mut out = CMat::zeros(9, 9);
    for (r, &lr) in QUBIT_LEVELS.iter().enumerate() {
        for (c, &lc) in QUBIT_LEVELS.iter().enumerate() {
            out[(lr, lc)] = m4[(r, c)];
        }
    }
    out
}

/// The drive quadrature generators `(a† + a)` and `i(a† − a)`-style on one
/// qutrit digit (0 = control, 1 = target) of the 9-dim space, with ladder
/// elements 1, √2.
fn drive_quadratures_on(digit: usize) -> (CMat, CMat) {
    let mut a = CMat::zeros(3, 3);
    a[(0, 1)] = C64::ONE;
    a[(1, 2)] = C64::real(std::f64::consts::SQRT_2);
    let adag = a.dagger();
    // H_x = (a† + a), H_y couples with the imaginary part: for d = dx + i·dy,
    // H = (d·a† + d̄·a)/… → split: dx·(a†+a) + dy·i(a† − a).
    let hx3 = &adag + &a;
    let hy3 = (&adag - &a).scale(C64::imag(1.0));
    let id3 = CMat::identity(3);
    if digit == 0 {
        (id3.kron(&hx3), id3.kron(&hy3))
    } else {
        (hx3.kron(&id3), hy3.kron(&id3))
    }
}

/// Extracts the 4×4 qubit-subspace block of a 9×9 two-qutrit operator.
pub fn qubit_block_of(u9: &CMat) -> CMat {
    CMat::from_fn(4, 4, |r, c| u9[(QUBIT_LEVELS[r], QUBIT_LEVELS[c])])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::{calibrate, Calibration};
    use crate::device::DeviceModel;
    use quant_math::{mul9_into, seeded, unitary_exp};
    use quant_pulse::GaussianSquare;
    use std::cell::Cell;
    use std::f64::consts::FRAC_PI_2;

    thread_local! {
        /// The 3×3 exponentials the fast route has evaluated on this
        /// thread.
        pub(super) static EXPONENTIALS: Cell<usize> = const { Cell::new(0) };
    }

    fn pair() -> CrPair {
        CrPair::new(
            TransmonParams::almaden_like(),
            TransmonParams::almaden_like(),
            CrParams::almaden_like(),
        )
    }

    /// A CR flat-top pulse whose ZX area is θ (rad) for the given pair.
    fn cr_pulse(p: &CrPair, theta: f64, amp: f64) -> GaussianSquare {
        // θ = 2π·zx·amp·t → t = θ / (2π·zx·amp); subtract the edge area.
        let sigma = 20.0;
        let base = GaussianSquare {
            duration: 2 * ((4.0 * sigma) as u64),
            amp,
            sigma,
            width: 0,
        };
        let edge_area_dt = base.waveform("e").area().re; // in amp·dt
        let target_area_s = theta / (TAU * p.cr.zx_hz_per_amp * 1.0); // amp·s for unit... careful
        let target_area_dt = target_area_s / DT; // in amp·dt units (amp=1)
        let width = ((target_area_dt - edge_area_dt) / amp).max(0.0).round() as u64;
        GaussianSquare {
            duration: base.duration + width,
            amp,
            sigma,
            width,
        }
    }

    fn play(s: &mut Schedule, w: quant_pulse::Waveform, ch: Channel) {
        s.append(Instruction::Play {
            waveform: w,
            channel: ch,
        });
    }

    fn play_at(s: &mut Schedule, start: u64, w: quant_pulse::Waveform, ch: Channel) {
        s.insert(
            start,
            Instruction::Play {
                waveform: w,
                channel: ch,
            },
        );
    }

    #[test]
    fn plain_cr_pulse_has_spurious_terms() {
        // A single (un-echoed) CR pulse deviates from pure exp(-iθ/2 ZX)
        // because of the IX and ZI terms.
        let p = pair();
        let gs = cr_pulse(&p, FRAC_PI_2, 0.3);
        let mut s = Schedule::new("plain");
        play(&mut s, gs.waveform("cr"), Channel::Control(0));
        let r = p.integrate(
            &s,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        let ideal = gates::cr(FRAC_PI_2);
        assert!(
            r.unitary.phase_invariant_diff(&ideal) > 0.05,
            "spurious terms should be visible"
        );
    }

    /// Distance to `Rz_c(φ)·CR(θ)` minimized over the control-Z angle φ —
    /// the surviving ZI term of an echoed CR commutes with ZX and is
    /// absorbed by a virtual-Z in real calibrations.
    fn diff_up_to_control_z(u: &CMat, theta: f64) -> f64 {
        let mut best = f64::INFINITY;
        for k in 0..720 {
            let phi = k as f64 / 720.0 * std::f64::consts::TAU;
            let rz_c = CMat::identity(2).kron(&rz_phase(phi));
            let cand = &rz_c * &gates::cr(theta);
            best = best.min(u.phase_invariant_diff(&cand));
        }
        best
    }

    #[test]
    fn echoed_cr_cancels_ix_term() {
        // CR(θ/2)⁺ | X_c | CR(θ/2)⁻ | X_c  ≈  Rz_c(φ)·CR(θ): the echo
        // cancels IX; the surviving ZI is a pure control-Z.
        let p = pair();
        let theta = FRAC_PI_2;
        let amp = 0.3;
        let gs = cr_pulse(&p, theta / 2.0, amp);
        let xc = x_pulse(&p.control);
        let barrier = [Channel::Drive(0), Channel::Control(0)];

        let mut s = Schedule::new("echo");
        let steps: Vec<(quant_pulse::Waveform, Channel)> = vec![
            (gs.waveform("cr+"), Channel::Control(0)),
            (xc.clone(), Channel::Drive(0)),
            (gs.waveform("cr-").scaled(-1.0), Channel::Control(0)),
            (xc, Channel::Drive(0)),
        ];
        for (w, ch) in steps {
            s.append_after(
                Instruction::Play {
                    waveform: w,
                    channel: ch,
                },
                &barrier,
            );
        }
        let r = p.integrate(
            &s,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        let echoed = diff_up_to_control_z(&r.unitary, theta);

        // Compare with a single un-echoed pulse of the full area.
        let plain_gs = cr_pulse(&p, theta, amp);
        let mut plain = Schedule::new("plain");
        play(&mut plain, plain_gs.waveform("cr"), Channel::Control(0));
        let rp = p.integrate(
            &plain,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        let unechoed = diff_up_to_control_z(&rp.unitary, theta);

        assert!(
            echoed < 0.05,
            "echoed CR residual = {echoed} (unechoed {unechoed})"
        );
        assert!(
            echoed < unechoed * 0.5,
            "echo should beat no-echo: {echoed} vs {unechoed}"
        );
    }

    /// Resonant π pulse on a drive channel.
    fn x_pulse(q: &TransmonParams) -> quant_pulse::Waveform {
        let amp = 0.2;
        let sigma = 20.0_f64;
        let dur = (8.0 * sigma) as u64;
        let w = quant_pulse::Gaussian {
            duration: dur,
            amp,
            sigma,
        }
        .waveform("x");
        // Rescale to exact π area.
        let area_s = w.area().re * DT;
        let theta = TAU * q.rabi_hz_per_amp * area_s;
        w.scaled(std::f64::consts::PI / theta)
    }

    #[test]
    fn x_pulse_flips_control() {
        let p = pair();
        let mut s = Schedule::new("x");
        play(&mut s, x_pulse(&p.control), Channel::Drive(0));
        let r = p.integrate(
            &s,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        // X on control = kron(I_target, X_control). The helper pulse is
        // deliberately uncalibrated (no DRAG/detuning), so the 3-level
        // physics leaves a visible Stark phase error; calibrated pulses
        // are covered by the calibration tests.
        let expect = CMat::identity(2).kron(&gates::x());
        let diff = r.unitary.phase_invariant_diff(&expect);
        assert!(diff < 0.08, "control X diff = {diff}");
    }

    #[test]
    fn target_drive_rotates_target() {
        let p = pair();
        let mut s = Schedule::new("xt");
        play(&mut s, x_pulse(&p.target), Channel::Drive(1));
        let r = p.integrate(
            &s,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        let expect = gates::x().kron(&CMat::identity(2));
        // Uncalibrated helper pulse: see `x_pulse_flips_control`.
        assert!(r.unitary.phase_invariant_diff(&expect) < 0.08);
    }

    #[test]
    fn stretching_cr_scales_angle() {
        // Twice the flat-top area → twice the ZX angle.
        let p = pair();
        let amp = 0.25;
        let gs = cr_pulse(&p, 0.5, amp);
        let doubled = gs.stretched_area(2.0);
        let measure = |g: &GaussianSquare| -> f64 {
            let mut s = Schedule::new("cr");
            play(&mut s, g.waveform("w"), Channel::Control(0));
            let r = p.integrate(
                &s,
                Channel::Drive(0),
                Channel::Drive(1),
                Channel::Control(0),
            );
            extract_zx_angle(&r.unitary)
        };
        let theta1 = measure(&gs);
        let theta2 = measure(&doubled);
        assert!((theta1 - 0.5).abs() < 0.03, "θ₁ = {theta1}");
        assert!((theta2 - 1.0).abs() < 0.06, "θ₂ = {theta2}");
        assert!((theta2 / theta1 - 2.0).abs() < 0.05);
    }

    #[test]
    fn compressed_integration_matches_per_sample_reference() {
        // The echoed-CR schedule is the worst case the executor feeds the
        // integrator: long flat tops (compressed into single exponentials)
        // interleaved with Gaussian edges (stepped per sample). Fast and
        // reference routes must agree to integrator tolerance on every
        // level the qubit columns reach, not just the qubit block.
        let p = pair();
        let theta = FRAC_PI_2;
        let gs = cr_pulse(&p, theta / 2.0, 0.3);
        let xc = x_pulse(&p.control);
        let barrier = [Channel::Drive(0), Channel::Control(0)];
        let mut s = Schedule::new("echo");
        let steps: Vec<(quant_pulse::Waveform, Channel)> = vec![
            (gs.waveform("cr+"), Channel::Control(0)),
            (xc.clone(), Channel::Drive(0)),
            (gs.waveform("cr-").scaled(-1.0), Channel::Control(0)),
            (xc, Channel::Drive(0)),
        ];
        for (w, ch) in steps {
            s.append_after(
                Instruction::Play {
                    waveform: w,
                    channel: ch,
                },
                &barrier,
            );
        }
        assert_matches_reference(&p, &s);
    }

    /// Compressed vs per-sample integration of `s`, compared to integrator
    /// tolerance on the 4×4 qubit block (the fast route no longer computes
    /// the rows that cannot reach it), and bit for bit with the
    /// compressed-run oracle that carries the full 9×9 propagator.
    fn assert_matches_reference(p: &CrPair, s: &Schedule) {
        let chans = [Channel::Drive(0), Channel::Drive(1), Channel::Control(0)];
        let (fast, slow) = (
            p.integrate(s, chans[0], chans[1], chans[2]),
            p.integrate_ref(s, chans[0], chans[1], chans[2]),
        );
        let d = fast.unitary.max_abs_diff(&slow.unitary);
        assert!(
            d < 1e-9,
            "{}: compressed vs per-sample diff = {d:e}",
            s.name()
        );
        assert_eq!(fast.duration, slow.duration);
        assert_eq!(fast.control_frame, slow.control_frame);
        assert_eq!(fast.target_frame, slow.target_frame);
        assert_bit_identical_to_oracle(p, s, chans);
    }

    /// The oracle route: the same constant-drive runs applied to `u`, but
    /// the full 9×9 propagator, the dense generator (every playing term added to every
    /// entry) and the production 9×9 kernels `unitary_exp9_into` +
    /// `mul9_into` — no blocks, no slab, no liveness, no zero skip, no
    /// memo.
    fn propagate_oracle(p: &CrPair, raster: &Raster, mut u: [C64; 81]) -> [C64; 81] {
        let gens = Generators::build();
        let hs = p.static_hamiltonian();
        for run in Run::find(raster).0 {
            let coefficients = p.drive_coefficients(run.drives);
            let mut h = hs;
            for (e, z) in h.iter_mut().enumerate() {
                for (g, coefficient) in coefficients.iter().enumerate() {
                    if let Some(coefficient) = *coefficient {
                        *z += gens.drive[g].as_slice()[e] * coefficient;
                    }
                }
            }
            let mut step = [C64::ZERO; 81];
            unitary_exp9_into(&h, DT * run.len as f64, &mut step);
            let mut next = [C64::ZERO; 81];
            mul9_into(&step, &u, &mut next);
            u = next;
        }
        u
    }

    /// `integrate` against [`propagate_oracle`]'s qubit block, bit for bit.
    fn assert_bit_identical_to_oracle(p: &CrPair, s: &Schedule, chans: [Channel; 3]) {
        let fast = p.integrate(s, chans[0], chans[1], chans[2]);
        let mut identity = [C64::ZERO; 81];
        for i in 0..9 {
            identity[10 * i] = C64::ONE;
        }
        let oracle = propagate_oracle(p, &Raster::new(s, chans), identity);
        for (r, &lr) in QUBIT_LEVELS.iter().enumerate() {
            for (c, &lc) in QUBIT_LEVELS.iter().enumerate() {
                let (got, want) = (fast.unitary[(r, c)], oracle[9 * lr + lc]);
                assert!(
                    got.re.to_bits() == want.re.to_bits() && got.im.to_bits() == want.im.to_bits(),
                    "{}: entry ({r},{c}) {got:?} vs oracle {want:?}",
                    s.name()
                );
            }
        }
    }

    /// A calibrated two-qubit Almaden-like device, shared by the tests.
    fn calibrated() -> &'static (DeviceModel, Calibration) {
        static CAL: OnceLock<(DeviceModel, Calibration)> = OnceLock::new();
        CAL.get_or_init(|| {
            let mut rng = seeded(1);
            let device = DeviceModel::almaden_like(2, &mut rng);
            let calibration = calibrate(&device, &mut rng);
            (device, calibration)
        })
    }

    /// The calibrated CX on (0, 1) with the device's per-pulse amplitude
    /// jitter drawn from `seed`, as the density executor plays it: `X_c |
    /// CR− | X_c | CR+ | rx90_t`.
    fn jittered_cx(seed: u64) -> (CrPair, Schedule, [Channel; 3]) {
        let (device, cal) = calibrated();
        let cx = cal.cmd_def().get("cx", &[0, 1]).expect("calibrated cx");
        let s = crate::executor::jitter_schedule(cx, device.pulse_amp_jitter(), &mut seeded(seed));
        let chans = [
            Channel::Drive(0),
            Channel::Drive(1),
            device.control_channel(0, 1).expect("coupled pair"),
        ];
        (device.pair_cal(0, 1).expect("coupled pair"), s, chans)
    }

    #[test]
    fn calibrated_schedules_are_bit_identical_to_the_9x9_oracle() {
        for seed in 1..=4 {
            let (pair, s, chans) = jittered_cx(seed);
            assert_bit_identical_to_oracle(&pair, &s, chans);
        }
        let (device, cal) = calibrated();
        let (pair, _, chans) = jittered_cx(0);
        for theta in [-FRAC_PI_2, 0.7] {
            let s = cal
                .echoed_cr_schedule_cancelled(device, 0, 1, theta)
                .expect("coupled pair");
            assert_bit_identical_to_oracle(&pair, &s, chans);
        }
    }

    #[test]
    fn any_start_slab_is_bit_identical_to_the_9x9_oracle() {
        // From the identity, the |2⟩ rows of a block fill together (the
        // control drive fills rows 2 and 5 at once, the target drive rows
        // 6 and 7), so no block ever holds exactly one nonzero row there.
        // Starting slabs with every pattern of zero and nonzero |2⟩ rows
        // make the zero check meet each row on its own.
        let (cx_pair, cx, chans) = jittered_cx(3);
        let model = pair();
        let target_first = target_then_control(&model);
        let mut rng_state = 0xA0761D6478BD642Fu64;
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for (p, s) in [(&cx_pair, &cx), (&model, &target_first)] {
            let raster = Raster::new(s, chans);
            for pattern in 0..32 {
                let mut u = [C64::ZERO; 81];
                for (r, row) in u.chunks_mut(9).enumerate() {
                    let leak = [2, 5, 6, 7, 8].iter().position(|&l| l == r);
                    if leak.is_none_or(|k| pattern & 1 << k != 0) {
                        for z in row {
                            *z = C64::new(next(), next());
                        }
                    }
                }
                let slab = std::array::from_fn(|i| u[9 * (i / 4) + QUBIT_LEVELS[i % 4]]);
                let fast = p.propagate_slab(&raster, slab);
                let oracle = propagate_oracle(p, &raster, u);
                for &r in &QUBIT_LEVELS {
                    for (c, &lc) in QUBIT_LEVELS.iter().enumerate() {
                        let (got, want) = (fast[4 * r + c], oracle[9 * r + lc]);
                        assert!(
                            got.re.to_bits() == want.re.to_bits()
                                && got.im.to_bits() == want.im.to_bits(),
                            "{} pattern {pattern:05b}: ({r},{lc}) {got:?} vs {want:?}",
                            s.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn jittered_cx_exponentiates_only_live_nonzero_blocks() {
        // Every block of every memo miss would be 1926 exponentials; the
        // echo X pulses skip the target's still-zero |2⟩ block, and CR+
        // and rx90_t skip the control's |2⟩ block, which no later pulse
        // reads.
        let (pair, s, chans) = jittered_cx(7);
        EXPONENTIALS.set(0);
        pair.integrate(&s, chans[0], chans[1], chans[2]);
        let count = EXPONENTIALS.get();
        assert!(count <= 1365, "{count} 3×3 exponentials");
    }

    /// An uncalibrated X on the target, then one on the control.
    fn target_then_control(p: &CrPair) -> Schedule {
        let mut s = Schedule::new("target before control");
        play_at(&mut s, 0, x_pulse(&p.target), Channel::Drive(1));
        play_at(&mut s, 200, x_pulse(&p.control), Channel::Drive(0));
        s
    }

    #[test]
    fn simple_schedules_are_bit_identical_to_the_9x9_oracle() {
        let p = pair();
        let gs = cr_pulse(&p, FRAC_PI_2, 0.3);
        let target_first = target_then_control(&p);
        let mut cr_only = Schedule::new("cr only");
        play(&mut cr_only, gs.waveform("cr"), Channel::Control(0));
        let mut control_only = Schedule::new("control only");
        play(&mut control_only, x_pulse(&p.control), Channel::Drive(0));
        let empty = Schedule::new("empty");
        for s in [target_first, cr_only, control_only, empty] {
            assert_matches_reference(&p, &s);
        }
    }

    #[test]
    fn all_three_drives_at_once_match_per_sample_reference() {
        // The control drive overlapping both the target drive and the CR
        // tone is the only case that needs the full 9×9 generator; the
        // edges where fewer channels play take the block routes.
        let p = pair();
        let gs = cr_pulse(&p, FRAC_PI_2, 0.3);
        let mut s = Schedule::new("all three");
        play_at(&mut s, 0, gs.waveform("cr"), Channel::Control(0));
        play_at(&mut s, 40, x_pulse(&p.target), Channel::Drive(1));
        play_at(&mut s, 120, x_pulse(&p.control), Channel::Drive(0));
        assert!(gs.duration > 280, "CR pulse must cover both drives");
        assert_matches_reference(&p, &s);
    }

    #[test]
    fn cancellation_tone_matches_per_sample_reference() {
        // A target-drive tone under the CR pulse (the shape of an active
        // cancellation tone): the control drive is silent, so every run
        // takes the per-control-level blocks with both of their drives on.
        let p = pair();
        let gs = cr_pulse(&p, FRAC_PI_2, 0.3);
        let tone = GaussianSquare { amp: 0.02, ..gs };
        let mut s = Schedule::new("cancellation tone");
        play_at(&mut s, 0, gs.waveform("cr"), Channel::Control(0));
        play_at(
            &mut s,
            0,
            tone.waveform("tone").scaled(-1.0),
            Channel::Drive(1),
        );
        assert_matches_reference(&p, &s);
    }

    #[test]
    fn frame_phase_on_control_channel_rotates_cr_axis() {
        // ShiftPhase(π/2) on the CR channel turns ZX into ZY. Use a pure-ZX
        // pair to isolate the frame behaviour.
        let p = CrPair::new(
            TransmonParams::almaden_like(),
            TransmonParams::almaden_like(),
            CrParams::pure_zx(2.4e6),
        );
        let gs = cr_pulse(&p, FRAC_PI_2, 0.3);
        let mut s = Schedule::new("zy");
        s.append(Instruction::ShiftPhase {
            phase: FRAC_PI_2,
            channel: Channel::Control(0),
        });
        play(&mut s, gs.waveform("cr"), Channel::Control(0));
        let r = p.integrate(
            &s,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        // ZY generator: kron(y, z).
        let gen = gates::y().kron(&gates::z());
        let ideal = unitary_exp(&gen.scale(C64::real(0.5)), FRAC_PI_2);
        let d_zy = r.unitary.phase_invariant_diff(&ideal);
        assert!(d_zy < 0.02, "ZY diff = {d_zy}");
    }
}
