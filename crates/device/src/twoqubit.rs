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
//!
//! Each constant-drive run is advanced with one exponential of its
//! generator, split into the blocks its drives leave decoupled: three 3×3
//! blocks when one qubit's drive is silent, and, when only the CR tone
//! plays, three 2×2 blocks on the target's qubit levels plus decoupled
//! |2⟩ scalars ([`quant_math::unitary_exp9_in_blocks_into`]'s closed-form 2×2⊕1
//! route). The runs are read from the schedule's instructions without a
//! per-sample raster, and the executors' per-`Play` amplitude jitter is
//! applied as they are read (`CrPair::integrate_scaled`), so a jittered
//! block needs no copy of its schedule.

use crate::params::{CrParams, TransmonParams, DT};
use quant_math::{
    mul9_blocks_slab_into, mul9_slab_into, unitary_exp9_in_blocks_into, unitary_exp9_into, Blocks9,
    CMat, Slab9x4, C64,
};
use quant_pulse::{Channel, Instruction, Schedule};
use quant_sim::gates;
use std::cell::Cell;
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
    /// trajectory executor being integration-bound or not. The runs are
    /// read straight from the schedule's instructions, a chunk of samples
    /// at a time, into scratch this thread reuses for every block; no
    /// per-sample raster of the schedule is kept.
    ///
    /// Each run's step also follows the block structure of its generator.
    /// The ZX, IX and ZI terms, the static ZZ and the target drive are all
    /// diagonal in the control level, and the control drive is diagonal in
    /// the target level. So a run with the control drive silent splits into
    /// the blocks `{c, c+3, c+6}` (one per control level), and a run with
    /// only the control drive playing into `{3t, 3t+1, 3t+2}` (one per
    /// target level). Both assemble only the 27 in-block generator entries,
    /// from a term table filtered for the split and the channels that play,
    /// and advance as three 3×3 exponentials and a block-diagonal product
    /// ([`Blocks9`]). Each block is exponentiated on its own by
    /// [`quant_math::unitary_exp3`], which uses that it is Hermitian. When
    /// the CR tone plays alone, nothing couples a target |2⟩ level to the
    /// qubit levels: each control level's block is a 2×2 block plus a
    /// scalar, and takes the closed-form 2×2⊕1 exponential. Only runs
    /// where all three channels play at once take the full 9×9 generator
    /// and degree-12 exponential.
    ///
    /// Only the qubit block is returned, so only the four qubit-subspace
    /// input columns `{0, 1, 3, 4}` of the propagator are carried: a 9×4
    /// slab ([`Slab9x4`], whose four columns the block product runs as
    /// SIMD lanes). Its rows are followed only while they can reach the
    /// qubit rows: a block whose output no later run reads is not
    /// exponentiated (after the last control pulse, say, the control's
    /// |2⟩ block), and neither is a block whose input rows are all exactly
    /// zero (the target's |2⟩ block before the first target pulse). Steps
    /// are memoized only for run keys (drive bits and length) that recur
    /// in the schedule. A block's step depends on the block alone, and the
    /// block product is bit-identical to the same entries of the full 9×9
    /// product with that step, so neither the slab, the memo nor the
    /// skipped blocks change a result. The block steps differ from the
    /// full 9×9 exponential only within the propagator's accuracy
    /// contract (`quant_math::prop`).
    pub fn integrate(
        &self,
        schedule: &Schedule,
        control_drive: Channel,
        target_drive: Channel,
        cr_channel: Channel,
    ) -> PairFrameResult {
        self.integrate_scaled(schedule, None, [control_drive, target_drive, cr_channel])
    }

    /// [`CrPair::integrate`] on `channels` (`[control drive, target
    /// drive, CR tone]`), with every sample of the schedule's `k`-th
    /// `Play` scaled by `factors[k]` when given: the executors' per-`Play`
    /// amplitude jitter, applied as the runs are read instead of to a copy
    /// of the schedule. Bit-identical to integrating a copy whose waveforms
    /// are scaled by the same factors.
    pub(crate) fn integrate_scaled(
        &self,
        schedule: &Schedule,
        factors: Option<&[f64]>,
        channels: [Channel; 3],
    ) -> PairFrameResult {
        SCRATCH.with(|cell| {
            let mut scratch = cell.take();
            let plan = &mut scratch.plan;
            plan.read(schedule, factors, channels);
            let slab = self.propagate_slab(plan, &mut scratch.memo, QUBIT_COLUMNS);
            let result = PairFrameResult {
                unitary: CMat::from_fn(4, 4, |r, c| slab.get(QUBIT_LEVELS[r], c)),
                control_frame: plan.frames[0],
                target_frame: plan.frames[1],
                duration: plan.total as u64,
            };
            cell.set(scratch);
            result
        })
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
    /// `Generators::drive`, for the channels in `playing` (bit `ch` =
    /// channel `ch`). A silent channel's coefficients are left at 0: its
    /// terms are not in the table that reads them.
    fn drive_coefficients(&self, [dc, dt, du]: [C64; 3], playing: u8) -> [f64; 9] {
        let mut k = [0.0; 9];
        if playing & 1 != 0 {
            let om_c = TAU * self.control.rabi_hz_per_amp;
            k[0] = om_c / 2.0 * dc.re;
            k[1] = om_c / 2.0 * dc.im;
        }
        if playing & 2 != 0 {
            let om_t = TAU * self.target.rabi_hz_per_amp;
            k[2] = om_t / 2.0 * dt.re;
            k[3] = om_t / 2.0 * dt.im;
        }
        if playing & 4 != 0 {
            let om_u_x = TAU * self.cr.zx_hz_per_amp / 2.0;
            let om_u_ix = TAU * self.cr.ix_hz_per_amp / 2.0;
            let om_u_zi = TAU * self.cr.zi_hz_per_amp / 2.0;
            k[4] = om_u_x * du.re;
            k[5] = om_u_x * du.im;
            k[6] = om_u_ix * du.re;
            k[7] = om_u_ix * du.im;
            // The ZI term is the control's own AC-Stark shift: it scales
            // with the drive *power envelope* (phase- and
            // sign-independent), which is exactly why the echo's X flip
            // refocuses it.
            k[8] = om_u_zi * du.abs();
        }
        k
    }

    /// The propagator of `plan`'s runs applied to the 9×4 slab `slab`
    /// (`slab[4·r + c]` being entry `(r, QUBIT_LEVELS[c])`;
    /// [`QUBIT_COLUMNS`] for the qubit-subspace columns of the
    /// propagator), advancing each constant-drive run with one step. Only
    /// the rows `QUBIT_LEVELS` of the returned slab are meaningful: rows
    /// that cannot reach them are left stale.
    ///
    /// The plan ([`Plan::read`]) has found the runs, marked the blocks of
    /// each that can reach the result and given a memo slot to each
    /// block-route run key that recurs. This pass exponentiates only the
    /// live blocks whose input rows are not all exactly zero; a slot fills
    /// the blocks it lacks on first need, and a run without a slot reuses
    /// one scratch step. Each run checks the slab's zero blocks once and
    /// hands the mask to the block product, and the two slabs swap by
    /// reference. Full 9×9 runs, which no lowered program contains, are
    /// not memoized.
    fn propagate_slab(&self, plan: &Plan, memo: &mut Vec<BlockStep>, slab: [C64; 36]) -> Slab9x4 {
        let tables = generator_tables();
        let hs = self.static_hamiltonian();
        let hs_blocks = [Blocks9::Strided, Blocks9::Contiguous]
            .map(|split| in_block_entries(split).map(|block| block.map(|e| hs[e])));
        if memo.len() < plan.slots {
            memo.resize(plan.slots, BlockStep::EMPTY);
        }
        for step in &mut memo[..plan.slots] {
            step.have = 0;
        }
        let mut fresh = BlockStep::EMPTY;
        let mut slabs = [Slab9x4::from_rows(&slab), Slab9x4::ZERO];
        let [a, b] = &mut slabs;
        let (mut slab, mut next) = (a, b);
        for run in &plan.runs {
            let t = DT * run.len as f64;
            let coefficients = || self.drive_coefficients(run.drives, run.playing);
            let Some(split) = run.route else {
                let mut h = hs;
                tables.full(run.playing).add_terms(&coefficients(), &mut h);
                let mut step = [C64::ZERO; 81];
                unitary_exp9_into(&h, t, &mut step);
                let mut out = [C64::ZERO; 36];
                mul9_slab_into(&step, &slab.to_rows(), &mut out);
                *next = Slab9x4::from_rows(&out);
                std::mem::swap(&mut slab, &mut next);
                tally_run(81);
                continue;
            };
            let step = match run.slot {
                Run::NO_SLOT => {
                    fresh.have = 0;
                    &mut fresh
                }
                s => &mut memo[s as usize],
            };
            let zero = split.zero_blocks(slab);
            let needed = run.live & !zero;
            let missing = needed & !step.have;
            let mut small = 0;
            if missing != 0 {
                let mut h = hs_blocks[route_of(split)];
                (tables.blocks(split, run.playing))
                    .add_terms(&coefficients(), h.as_flattened_mut());
                small = unitary_exp9_in_blocks_into(&h, t, missing, &mut step.blocks);
                step.have |= missing;
            }
            tally(needed & !missing, missing, small);
            tally_run(if missing != 0 { 27 } else { 0 });
            mul9_blocks_slab_into(&step.blocks, split, run.live, zero, slab, next);
            std::mem::swap(&mut slab, &mut next);
        }
        *slab
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

thread_local! {
    /// The pair integrator's plan and memo, reused by every block this
    /// thread integrates (taken out while one is integrated).
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

/// Frees this thread's pair-integration scratch. The calibration tune-up
/// integrates its pair probes partly on the calling thread; it calls this
/// once they are done, so setup leaves no buffers resident there.
pub(crate) fn release_scratch() {
    drop(SCRATCH.take());
}

/// Scratch that [`CrPair::integrate_scaled`] refills for every block.
#[derive(Default)]
struct Scratch {
    plan: Plan,
    /// The memoized steps, by slot.
    memo: Vec<BlockStep>,
}

/// A pair schedule read onto its three channels `[control drive, target
/// drive, CR tone]`: its constant-drive runs in time order, with their
/// live blocks and memo slots, and each channel's frame phase left at the
/// end.
#[derive(Default)]
struct Plan {
    runs: Vec<Run>,
    /// The number of memo slots the runs use.
    slots: usize,
    frames: [f64; 3],
    /// The schedule's duration in samples.
    total: usize,
    /// Scratch for [`Plan::read`]: the `Play`s on the three channels, the
    /// times where one starts or ends, and the run-key table.
    plays: Vec<PlayWindow>,
    bounds: Vec<usize>,
    table: KeyTable,
}

/// One `Play` on a pair channel, as [`Plan::read`] walks it.
#[derive(Clone, Copy)]
struct PlayWindow {
    /// Its index in the schedule's instructions.
    instruction: usize,
    /// Its channel's position in `[control drive, target drive, CR tone]`.
    slot: usize,
    /// Its samples `[start, end)`, clipped to the schedule.
    start: usize,
    end: usize,
    /// Its jitter factor, when the block is jittered.
    factor: Option<f64>,
    /// `cis` of its channel's frame phase when it starts.
    rotation: C64,
}

/// Samples [`Plan::read`] forms at a time, per channel.
const CHUNK: usize = 64;

impl Plan {
    /// Reads `schedule` onto `channels`: each sample of its `k`-th `Play`
    /// (counted over every channel) is taken as `(s·factors[k])·cis(φ)`
    /// when `factors` is given and as `s·cis(φ)` when not (the two
    /// roundings of scaling a copy of the waveform and then rasterizing
    /// it), summed from `+0` over the `Play`s that cover it in instruction
    /// order. The samples are formed a chunk at a time and folded straight
    /// into runs of `==`-equal drive triples; a stretch that no `Play`
    /// covers is one silent run without being formed. Then numbers the
    /// memo slots and marks the live blocks.
    fn read(&mut self, schedule: &Schedule, factors: Option<&[f64]>, channels: [Channel; 3]) {
        let instructions = schedule.instructions();
        self.total = schedule.duration() as usize;
        self.frames = [0.0; 3];
        self.runs.clear();
        self.plays.clear();
        self.bounds.clear();
        self.bounds.extend([0, self.total]);
        let mut plays = 0;
        for (instruction, ti) in instructions.iter().enumerate() {
            let play = plays;
            if let Instruction::Play { .. } = ti.instruction {
                plays += 1;
            }
            let ch = ti.instruction.channel();
            let Some(slot) = channels.iter().position(|&c| c == ch) else {
                continue;
            };
            match &ti.instruction {
                Instruction::ShiftPhase { phase, .. } => self.frames[slot] += phase,
                Instruction::Play { waveform, .. } => {
                    let start = ti.start as usize;
                    let end = (start + waveform.samples().len()).min(self.total);
                    self.plays.push(PlayWindow {
                        instruction,
                        slot,
                        start,
                        end,
                        factor: factors.map(|f| f[play]),
                        rotation: C64::cis(self.frames[slot]),
                    });
                    self.bounds.extend([start, end]);
                }
                // Frequency shifts are not meaningful in the effective CR
                // model; delays/acquires just occupy time.
                _ => {}
            }
        }
        self.bounds.sort_unstable();
        self.bounds.dedup();
        let mut open: Option<([C64; 3], usize)> = None;
        let mut extend = |runs: &mut Vec<Run>, drives: [C64; 3], len: usize| match &mut open {
            Some((d, n)) if *d == drives => *n += len,
            _ => {
                if let Some((d, n)) = open.replace((drives, len)) {
                    Run::push(runs, d, n);
                }
            }
        };
        let mut samples = [[C64::ZERO; CHUNK]; 3];
        for w in 1..self.bounds.len() {
            let (lo, hi) = (self.bounds[w - 1], self.bounds[w]);
            // No bound falls inside [lo, hi), so the same Plays cover it all.
            if !self.plays.iter().any(|p| p.start <= lo && lo < p.end) {
                extend(&mut self.runs, [C64::ZERO; 3], hi - lo);
                continue;
            }
            for k in (lo..hi).step_by(CHUNK) {
                let n = CHUNK.min(hi - k);
                for channel in &mut samples {
                    channel[..n].fill(C64::ZERO);
                }
                for p in self.plays.iter().filter(|p| p.start <= k && k < p.end) {
                    let Instruction::Play { waveform, .. } =
                        &instructions[p.instruction].instruction
                    else {
                        continue;
                    };
                    let source = &waveform.samples()[k - p.start..][..n];
                    let out = samples[p.slot][..n].iter_mut().zip(source);
                    match p.factor {
                        Some(f) => out.for_each(|(d, &s)| *d += (s * f) * p.rotation),
                        None => out.for_each(|(d, &s)| *d += s * p.rotation),
                    }
                }
                let [c, t, u] = samples.each_ref().map(|channel| &channel[..n]);
                for ((&c, &t), &u) in c.iter().zip(t).zip(u) {
                    extend(&mut self.runs, [c, t, u], 1);
                }
            }
        }
        if let Some((d, n)) = open {
            Run::push(&mut self.runs, d, n);
        }
        self.slots = self.table.number_slots(&mut self.runs);
        mark_live_blocks(&mut self.runs);
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

/// [`Generators`] as the integrator reads them, built once per process.
struct Tables {
    /// The static ZZ coupling, row-major.
    zz: [C64; 81],
    /// Per route (strided blocks, contiguous blocks, full) and set of
    /// playing channels (bit `ch` = channel `ch`): the 27 in-block entries
    /// of the split, or all 81 entries, with the terms of those channels.
    assemblies: [[Assembly; 8]; 3],
}

impl Tables {
    fn blocks(&self, split: Blocks9, playing: u8) -> &Assembly {
        &self.assemblies[route_of(split)][usize::from(playing)]
    }

    fn full(&self, playing: u8) -> &Assembly {
        &self.assemblies[2][usize::from(playing)]
    }
}

/// The channel (bit `ch` = channel `ch` of `[control drive, target
/// drive, CR tone]`) of each drive term, indexed like `Generators::drive`.
const TERM_CHANNEL: [u8; 9] = [1, 1, 2, 2, 4, 4, 4, 4, 4];

/// The position of a block split in [`Tables::assemblies`].
fn route_of(split: Blocks9) -> usize {
    match split {
        Blocks9::Strided => 0,
        Blocks9::Contiguous => 1,
    }
}

/// The row-major 9-space indices of the entries inside `split`'s blocks,
/// block by block, each block row-major.
fn in_block_entries(split: Blocks9) -> [[usize; 9]; 3] {
    std::array::from_fn(|b| {
        std::array::from_fn(|k| 9 * split.index(b, k / 3) + split.index(b, k % 3))
    })
}

fn generator_tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let gens = Generators::build();
        let mut zz = [C64::ZERO; 81];
        zz.copy_from_slice(gens.zz.as_slice());
        let routes = [
            in_block_entries(Blocks9::Strided).as_flattened().to_vec(),
            in_block_entries(Blocks9::Contiguous)
                .as_flattened()
                .to_vec(),
            (0..81).collect(),
        ];
        Tables {
            zz,
            assemblies: routes.map(|entries| {
                std::array::from_fn(|playing| Assembly::new(&gens.drive, &entries, playing as u8))
            }),
        }
    })
}

/// The drive terms of the generator entries one route assembles, in the
/// order it stores them: the nonzero parts of the drive-generator values
/// of the channels that play.
struct Assembly {
    /// `(entry, term, part)` for each nonzero real part of a generator
    /// value, in term order within each entry.
    re: Vec<(usize, usize, f64)>,
    /// The same for each nonzero imaginary part.
    im: Vec<(usize, usize, f64)>,
}

impl Assembly {
    /// The terms of the entries `indices` (row-major 9-space indices) for
    /// the channels in `playing`.
    fn new(drive: &[CMat; 9], indices: &[usize], playing: u8) -> Self {
        let (mut re, mut im) = (Vec::new(), Vec::new());
        for (k, &e) in indices.iter().enumerate() {
            for (g, m) in drive.iter().enumerate() {
                let value = m.as_slice()[e];
                if playing & TERM_CHANNEL[g] == 0 {
                    continue;
                }
                for (part, parts) in [(value.re, &mut re), (value.im, &mut im)] {
                    // opclint: allow(float-literal-eq): exact zero test — a ±0 part adds nothing to a sum that is never −0
                    if part != 0.0 {
                        parts.push((k, g, part));
                    }
                }
            }
        }
        Assembly { re, im }
    }

    /// Adds value × coefficient for each term to `out`, which holds the
    /// static part of each entry, each part in term order. This is the
    /// complex sum `h += value · (coefficient + 0i)` over every term of
    /// every channel without its `±0` terms: the products of a zero value
    /// or of a silent channel's coefficient, and the parts of a product
    /// that a zero part of the value or of the coefficient makes. No
    /// accumulator is ever `−0` (each starts at `+0` or nonzero, and a
    /// round-to-nearest sum is `−0` only of two `−0`s), so adding a `±0`
    /// would change nothing.
    fn add_terms(&self, coefficients: &[f64; 9], out: &mut [C64]) {
        for &(k, g, part) in &self.re {
            out[k].re += part * coefficients[g];
        }
        for &(k, g, part) in &self.im {
            out[k].im += part * coefficients[g];
        }
    }
}

/// One constant-drive run of a pair schedule: flat pulse tops, delays and
/// dead time all have a constant Hamiltonian.
struct Run {
    drives: [C64; 3],
    /// The run's length in samples: at most [`Run::MAX_LEN`].
    len: u32,
    /// The channels that play (bit `ch` = channel `ch`): those whose drive
    /// is not exactly zero.
    playing: u8,
    /// The split of the run's block-diagonal generator, or `None` when all
    /// three channels play and it takes the full 9×9 route. Every CR and
    /// target-drive term is diagonal in the control level, and the control
    /// drive is diagonal in the target level (see [`CrPair::integrate`]).
    route: Option<Blocks9>,
    /// On a block route, the blocks (bit `b` = block `b`) whose output
    /// rows can still reach the result.
    live: u8,
    /// The run's memo slot when it takes a block route and its key recurs,
    /// numbered in order of first occurrence, else [`Run::NO_SLOT`].
    slot: u32,
}

impl Run {
    /// The [`Run::slot`] of a run without one.
    const NO_SLOT: u32 = u32::MAX;
    /// The longest run: a longer constant stretch is read as several
    /// runs. Lowered programs stay far below it (a CR half is at most
    /// `MAX_CR_HALF_SAMPLES` = 2²⁰ samples).
    const MAX_LEN: usize = u32::MAX as usize;

    fn new(drives: [C64; 3], len: u32) -> Self {
        let playing = (0..3).fold(0, |m, ch| m | u8::from(drives[ch] != C64::ZERO) << ch);
        let route = match playing {
            0b000 | 0b010 | 0b100 | 0b110 => Some(Blocks9::Strided),
            0b001 => Some(Blocks9::Contiguous),
            _ => None,
        };
        Run {
            drives,
            len,
            playing,
            route,
            live: 0,
            slot: Run::NO_SLOT,
        }
    }

    /// Appends a constant stretch of `len` samples to `runs`, as runs of
    /// at most [`Run::MAX_LEN`].
    fn push(runs: &mut Vec<Run>, drives: [C64; 3], mut len: usize) {
        while len > 0 {
            let n = len.min(Run::MAX_LEN);
            runs.push(Run::new(drives, n as u32));
            len -= n;
        }
    }

    fn key(&self) -> RunKey {
        let [dc, dt, du] = self.drives;
        let bits = [dc.re, dc.im, dt.re, dt.im, du.re, du.im].map(f64::to_bits);
        (bits, self.len)
    }
}

/// A run's memo key: its drive bits and its length.
type RunKey = ([u64; 6], u32);

/// Run keys numbered in order of first occurrence, with how often each
/// occurs: an open-addressing hash table (linear probing) over a `Vec` of
/// at least twice as many buckets as keys it will hold, so a probe always
/// ends at an empty bucket. Its `Vec`s are refilled for every schedule.
#[derive(Default)]
struct KeyTable {
    /// Per bucket: the number of the key stored there, or [`KeyTable::EMPTY`].
    buckets: Vec<usize>,
    /// The first run with each key, by number.
    first: Vec<usize>,
    /// The occurrences of each key, by number.
    counts: Vec<usize>,
    /// The memo slot of each key, by number: recurring keys only, the
    /// others [`Run::NO_SLOT`].
    slot_of: Vec<u32>,
}

impl KeyTable {
    const EMPTY: usize = usize::MAX;

    /// Gives each block-route run of `runs` whose key recurs a memo slot,
    /// numbering the distinct keys in one pass in order of first
    /// occurrence and then the recurring ones in the same order, and
    /// returns the number of slots. A step is a pure function of the
    /// drive bits and the run length, so runs with equal keys share one.
    fn number_slots(&mut self, runs: &mut [Run]) -> usize {
        self.buckets.clear();
        self.buckets
            .resize((2 * runs.len()).next_power_of_two(), Self::EMPTY);
        self.first.clear();
        self.counts.clear();
        // Each block-route run's key number, parked in its slot field.
        // Numbers stay below the number of runs, so below `NO_SLOT`: 2³²
        // runs would not fit in memory.
        for i in 0..runs.len() {
            if runs[i].route.is_some() {
                runs[i].slot = self.number(runs, i) as u32;
            }
        }
        let mut slots = 0;
        self.slot_of.clear();
        self.slot_of.extend(self.counts.iter().map(|&count| {
            if count > 1 {
                slots += 1;
                slots - 1
            } else {
                Run::NO_SLOT
            }
        }));
        for run in runs.iter_mut().filter(|run| run.slot != Run::NO_SLOT) {
            run.slot = self.slot_of[run.slot as usize];
        }
        slots as usize
    }

    /// The number of run `i`'s key, numbering it next if it is new, with
    /// its occurrence counted.
    fn number(&mut self, runs: &[Run], i: usize) -> usize {
        let key = runs[i].key();
        let mask = self.buckets.len() - 1;
        let mut b = Self::hash(&key) as usize & mask;
        loop {
            match self.buckets[b] {
                Self::EMPTY => {
                    self.buckets[b] = self.first.len();
                    self.first.push(i);
                    self.counts.push(1);
                    return self.first.len() - 1;
                }
                id if runs[self.first[id]].key() == key => {
                    self.counts[id] += 1;
                    return id;
                }
                _ => b = (b + 1) & mask,
            }
        }
    }

    /// A multiply–xorshift mix of every word of `key`, so the low bits the
    /// table indexes by depend on every bit of the drives.
    fn hash(&(bits, len): &RunKey) -> u64 {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut h = u64::from(len);
        for w in bits {
            h = (h ^ w).wrapping_mul(K);
            h ^= h >> 32;
        }
        (h ^ h >> 29).wrapping_mul(K) >> 16
    }
}

/// Marks the live blocks of each run, walking backwards from the qubit
/// rows `{0, 1, 3, 4}` the result reads: a block is live when any of its
/// rows is live after the run, and the rows live before the run are the
/// rows of its live blocks. A full 9×9 run reads every row.
fn mark_live_blocks(runs: &mut [Run]) {
    let rows_of = |split: Blocks9| -> [u16; 3] {
        std::array::from_fn(|b| (0..3).fold(0, |m, i| m | 1 << split.index(b, i)))
    };
    let block_rows = [rows_of(Blocks9::Strided), rows_of(Blocks9::Contiguous)];
    let mut live_rows: u16 = QUBIT_LEVELS.iter().fold(0, |m, &r| m | 1 << r);
    for run in runs.iter_mut().rev() {
        let Some(split) = run.route else {
            live_rows = 0x1ff;
            continue;
        };
        let mut before = 0;
        for (b, rows) in block_rows[route_of(split)].into_iter().enumerate() {
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

/// The block work `propagate_slab` has done on this thread (test builds).
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Work {
    /// Blocks exponentiated by the Hermitian `cos − i·sin` series.
    pub(crate) hermitian: usize,
    /// Blocks exponentiated by the closed-form 2×2⊕1 route.
    pub(crate) split: usize,
    /// Live, nonzero blocks a run took from its memo slot.
    pub(crate) memo_hits: usize,
    /// Slab products, one per run (block-diagonal or full).
    pub(crate) slab_products: usize,
    /// Generator entries assembled: 27 per block-route run that
    /// exponentiates, 81 per full run.
    pub(crate) entries_assembled: usize,
}

#[cfg(test)]
impl Work {
    /// Every block exponentiated, on either route.
    pub(crate) fn exponentials(&self) -> usize {
        self.hermitian + self.split
    }
}

#[cfg(test)]
thread_local! {
    pub(crate) static WORK: Cell<Work> = const {
        Cell::new(Work {
            hermitian: 0,
            split: 0,
            memo_hits: 0,
            slab_products: 0,
            entries_assembled: 0,
        })
    };
}

/// Counts one block-route run's work in [`WORK`]: the blocks it took from
/// its memo slot, the blocks it exponentiated, and which of those took the
/// 2×2⊕1 route. Does nothing outside test builds.
#[inline(always)]
fn tally(hits: u8, missing: u8, small: u8) {
    #[cfg(test)]
    WORK.with(|w| {
        let mut work = w.get();
        work.hermitian += (missing & !small).count_ones() as usize;
        work.split += small.count_ones() as usize;
        work.memo_hits += hits.count_ones() as usize;
        w.set(work);
    });
    #[cfg(not(test))]
    let _ = (hits, missing, small);
}

/// Counts one run's slab product and the generator `entries` it
/// assembled in [`WORK`]. Does nothing outside test builds.
#[inline(always)]
fn tally_run(entries: usize) {
    #[cfg(test)]
    WORK.with(|w| {
        let mut work = w.get();
        work.slab_products += 1;
        work.entries_assembled += entries;
        w.set(work);
    });
    #[cfg(not(test))]
    let _ = entries;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::{calibrate, Calibration};
    use crate::device::DeviceModel;
    use quant_math::{mul9_into, seeded, unitary_exp};
    use quant_pulse::GaussianSquare;
    use std::f64::consts::FRAC_PI_2;

    fn pair() -> CrPair {
        CrPair::new(
            TransmonParams::almaden_like(),
            TransmonParams::almaden_like(),
            CrParams::almaden_like(),
        )
    }

    /// A pair schedule rasterized onto its three channels `[control drive,
    /// target drive, CR tone]`: per-sample complex drives with every frame
    /// phase applied, and each channel's frame phase left at the end. The
    /// oracle of [`Plan::read`].
    struct Raster {
        drives: [Vec<C64>; 3],
        frames: [f64; 3],
        total: usize,
    }

    impl Raster {
        /// Rasterizes `schedule` onto `channels`, each sample of its `k`-th
        /// `Play` (counted over every channel) taken as
        /// `(s·factors[k])·cis(φ)` when `factors` is given and as
        /// `s·cis(φ)` when not.
        fn new(schedule: &Schedule, factors: Option<&[f64]>, channels: [Channel; 3]) -> Self {
            let total = schedule.duration() as usize;
            let mut drives = [
                vec![C64::ZERO; total],
                vec![C64::ZERO; total],
                vec![C64::ZERO; total],
            ];
            let mut frames = [0.0; 3];
            let mut plays = 0;
            for ti in schedule.instructions() {
                let play = plays;
                if let Instruction::Play { .. } = ti.instruction {
                    plays += 1;
                }
                let ch = ti.instruction.channel();
                let Some(slot) = channels.iter().position(|&c| c == ch) else {
                    continue;
                };
                match &ti.instruction {
                    Instruction::ShiftPhase { phase, .. } => frames[slot] += phase,
                    Instruction::Play { waveform, .. } => {
                        let rot = C64::cis(frames[slot]);
                        let buf = drives[slot][ti.start as usize..].iter_mut();
                        let samples = buf.zip(waveform.samples());
                        match factors {
                            Some(factors) => {
                                let f = factors[play];
                                for (d, &s) in samples {
                                    *d += (s * f) * rot;
                                }
                            }
                            None => {
                                for (d, &s) in samples {
                                    *d += s * rot;
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
            Raster {
                drives,
                frames,
                total,
            }
        }

        /// The constant-drive runs of the raster, each sample compared
        /// (`==`) with its run's first: the per-sample scan
        /// [`Plan::read`] replaced.
        fn runs(&self) -> Vec<([C64; 3], usize)> {
            let [drive_c, drive_t, drive_u] = &self.drives;
            let mut runs = Vec::new();
            let mut k = 0;
            while k < self.total {
                let drives = [drive_c[k], drive_t[k], drive_u[k]];
                let mut len = 1;
                while k + len < self.total
                    && [drive_c[k + len], drive_t[k + len], drive_u[k + len]] == drives
                {
                    len += 1;
                }
                runs.push((drives, len));
                k += len;
            }
            runs
        }
    }

    /// The plan `integrate_scaled` reads for `s`.
    fn plan_of(s: &Schedule, factors: Option<&[f64]>, chans: [Channel; 3]) -> Plan {
        let mut plan = Plan::default();
        plan.read(s, factors, chans);
        plan
    }

    /// The bits of a run list.
    fn run_bits(runs: impl IntoIterator<Item = ([C64; 3], usize)>) -> Vec<([u64; 6], usize)> {
        (runs.into_iter())
            .map(|(d, len)| (d.map(|z| [z.re.to_bits(), z.im.to_bits()]).concat(), len))
            .map(|(b, len)| (b.try_into().expect("six words"), len))
            .collect()
    }

    /// The drive coefficients as the run loop formed them before its
    /// term tables were filtered by channel: every term's coefficient as
    /// `x + 0i`, `None` for each term of a silent channel. The oracle of
    /// [`CrPair::drive_coefficients`] and [`Assembly::assemble`].
    fn oracle_coefficients(p: &CrPair, drives: [C64; 3]) -> [Option<C64>; 9] {
        let [dc, dt, du] = drives;
        let om_c = TAU * p.control.rabi_hz_per_amp;
        let om_t = TAU * p.target.rabi_hz_per_amp;
        let om_u_x = TAU * p.cr.zx_hz_per_amp / 2.0;
        let om_u_ix = TAU * p.cr.ix_hz_per_amp / 2.0;
        let om_u_zi = TAU * p.cr.zi_hz_per_amp / 2.0;
        let coefficients = [
            om_c / 2.0 * dc.re,
            om_c / 2.0 * dc.im,
            om_t / 2.0 * dt.re,
            om_t / 2.0 * dt.im,
            om_u_x * du.re,
            om_u_x * du.im,
            om_u_ix * du.re,
            om_u_ix * du.im,
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

    /// The generator entries `indices` as the unfiltered, `Option`-checked
    /// term table assembled them: the static part, plus value ×
    /// coefficient for each nonzero generator value whose channel plays.
    fn assemble_oracle(p: &CrPair, drives: [C64; 3], indices: &[usize]) -> Vec<C64> {
        let gens = Generators::build();
        let hs = p.static_hamiltonian();
        let coefficients = oracle_coefficients(p, drives);
        (indices.iter())
            .map(|&e| {
                let mut h = hs[e];
                for (g, m) in gens.drive.iter().enumerate() {
                    let value = m.as_slice()[e];
                    if value == C64::ZERO {
                        continue;
                    }
                    if let Some(coefficient) = coefficients[g] {
                        h += value * coefficient;
                    }
                }
                h
            })
            .collect()
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
        // interleaved with Gaussian edges (stepped per sample). It must
        // agree with per-sample integration to integrator tolerance on the
        // qubit block.
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
        assert_matches_reference(&p, &s, PAIR_CHANNELS);
    }

    /// The `[control drive, target drive, CR tone]` channels of [`pair`].
    const PAIR_CHANNELS: [Channel; 3] = [Channel::Drive(0), Channel::Drive(1), Channel::Control(0)];

    /// `integrate` on `s` against the per-sample oracle (every sample its
    /// own run) to integrator tolerance on the 4×4 qubit block (`integrate`
    /// does not compute the rows that cannot reach it), and within
    /// [`VS_9X9_ORACLE`] of the compressed-run oracle.
    fn assert_matches_reference(p: &CrPair, s: &Schedule, chans: [Channel; 3]) {
        let fast = p.integrate(s, chans[0], chans[1], chans[2]);
        let raster = Raster::new(s, None, chans);
        let [c, t, u] = &raster.drives;
        let per_sample = (0..raster.total).map(|k| ([c[k], t[k], u[k]], 1));
        let slow = propagate_oracle(p, per_sample, IDENTITY9);
        let mut d = 0.0f64;
        for (r, &lr) in QUBIT_LEVELS.iter().enumerate() {
            for (c, &lc) in QUBIT_LEVELS.iter().enumerate() {
                d = d.max((fast.unitary[(r, c)] - slow[9 * lr + lc]).abs());
            }
        }
        assert!(
            d < 1e-9,
            "{}: compressed vs per-sample diff = {d:e}",
            s.name()
        );
        assert_matches_oracle(p, s, chans);
    }

    const IDENTITY9: [C64; 81] = {
        let mut u = [C64::ZERO; 81];
        let mut i = 0;
        while i < 9 {
            u[10 * i] = C64::ONE;
            i += 1;
        }
        u
    };

    /// The oracle route: the constant-drive `runs` applied to `u`, with the
    /// full 9×9 propagator, the dense generator (every playing term added
    /// to every entry) and the production 9×9 kernels `unitary_exp9_into`
    /// and `mul9_into` — no blocks, no slab, no liveness, no zero skip, no
    /// memo.
    fn propagate_oracle(
        p: &CrPair,
        runs: impl Iterator<Item = ([C64; 3], usize)>,
        mut u: [C64; 81],
    ) -> [C64; 81] {
        let gens = Generators::build();
        let hs = p.static_hamiltonian();
        for (drives, len) in runs {
            let coefficients = oracle_coefficients(p, drives);
            let mut h = hs;
            for (e, z) in h.iter_mut().enumerate() {
                for (g, coefficient) in coefficients.iter().enumerate() {
                    if let Some(coefficient) = *coefficient {
                        *z += gens.drive[g].as_slice()[e] * coefficient;
                    }
                }
            }
            let mut step = [C64::ZERO; 81];
            unitary_exp9_into(&h, DT * len as f64, &mut step);
            let mut next = [C64::ZERO; 81];
            mul9_into(&step, &u, &mut next);
            u = next;
        }
        u
    }

    /// Entrywise bound of `integrate`'s qubit block against
    /// [`propagate_oracle`]'s over the same compressed runs. The block
    /// kernels differ from the oracle's 9×9 degree-12 exponential by the
    /// propagator contract's bounds per step (`quant_math::prop`), a few
    /// ulps times `2ˢ`; a block chains a few hundred such steps.
    const VS_9X9_ORACLE: f64 = 1e-12;

    /// `integrate` against [`propagate_oracle`]'s qubit block over the
    /// compressed runs, within [`VS_9X9_ORACLE`].
    fn assert_matches_oracle(p: &CrPair, s: &Schedule, chans: [Channel; 3]) {
        let fast = p.integrate(s, chans[0], chans[1], chans[2]);
        let oracle = propagate_oracle(p, Raster::new(s, None, chans).runs().into_iter(), IDENTITY9);
        for (r, &lr) in QUBIT_LEVELS.iter().enumerate() {
            for (c, &lc) in QUBIT_LEVELS.iter().enumerate() {
                let (got, want) = (fast.unitary[(r, c)], oracle[9 * lr + lc]);
                assert!(
                    (got - want).abs() <= VS_9X9_ORACLE,
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

    /// The oracle of the executors' pair jitter: a copy of `schedule`
    /// with every `Play`'s waveform scaled by its factor, drawn as
    /// [`pair_jitter`] draws it.
    fn jittered_copy(schedule: &Schedule, sigma: f64, rng: &mut impl rand::Rng) -> Schedule {
        if sigma == 0.0 {
            return schedule.clone();
        }
        let mut out = Schedule::new(schedule.name());
        for ti in schedule.instructions() {
            let instruction = match &ti.instruction {
                Instruction::Play { waveform, channel } => {
                    let peak = waveform.peak();
                    let w = if peak < 1e-12 {
                        waveform.clone()
                    } else {
                        let mut factor = 1.0 + quant_math::normal(rng, 0.0, sigma) / peak;
                        if matches!(channel, Channel::Control(_)) {
                            factor += quant_math::normal(rng, 0.0, 0.015);
                        }
                        waveform.scaled_same_name(factor.clamp(0.0, 1.0 / peak))
                    };
                    Instruction::Play {
                        waveform: w,
                        channel: *channel,
                    }
                }
                other => other.clone(),
            };
            out.insert(ti.start, instruction);
        }
        out
    }

    /// The calibrated CX on (0, 1) with the device's per-pulse amplitude
    /// jitter drawn from `seed`, as the density executor plays it: `X_c |
    /// CR− | X_c | CR+ | rx90_t`.
    fn jittered_cx(seed: u64) -> (CrPair, Schedule, [Channel; 3]) {
        let (device, cal) = calibrated();
        let cx = cal.cmd_def().get("cx", &[0, 1]).expect("calibrated cx");
        let s = jittered_copy(cx, device.pulse_amp_jitter(), &mut seeded(seed));
        let chans = [
            Channel::Drive(0),
            Channel::Drive(1),
            device.control_channel(0, 1).expect("coupled pair"),
        ];
        (device.pair_cal(0, 1).expect("coupled pair"), s, chans)
    }

    #[test]
    fn calibrated_schedules_match_the_9x9_oracle() {
        for seed in 1..=4 {
            let (pair, s, chans) = jittered_cx(seed);
            assert_matches_reference(&pair, &s, chans);
        }
        let (device, cal) = calibrated();
        let (pair, _, chans) = jittered_cx(0);
        for theta in [-FRAC_PI_2, 0.7] {
            let s = cal
                .echoed_cr_schedule_cancelled(device, 0, 1, theta)
                .expect("coupled pair");
            assert_matches_oracle(&pair, &s, chans);
        }
    }

    #[test]
    fn any_start_slab_matches_the_9x9_oracle() {
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
            let raster = Raster::new(s, None, chans);
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
                let fast = p.propagate_slab(&plan_of(s, None, chans), &mut Vec::new(), slab);
                let oracle = propagate_oracle(p, raster.runs().into_iter(), u);
                for &r in &QUBIT_LEVELS {
                    for (c, &lc) in QUBIT_LEVELS.iter().enumerate() {
                        let (got, want) = (fast.get(r, c), oracle[9 * r + lc]);
                        assert!(
                            (got - want).abs() <= VS_9X9_ORACLE,
                            "{} pattern {pattern:05b}: ({r},{lc}) {got:?} vs {want:?}",
                            s.name()
                        );
                    }
                }
            }
        }
    }

    /// The block work of one `integrate` of `s` on this thread.
    fn work_of(p: &CrPair, s: &Schedule, chans: [Channel; 3]) -> Work {
        WORK.set(Work::default());
        p.integrate(s, chans[0], chans[1], chans[2]);
        WORK.get()
    }

    #[test]
    fn jittered_cx_exponentiates_only_live_nonzero_blocks() {
        // Every block of every memo miss would be 1926 exponentials; the
        // echo X pulses skip the target's still-zero |2⟩ block, and CR+
        // and rx90_t skip the control's |2⟩ block, which no later pulse
        // reads. The CR-tone-only runs (the CR edges) take the 2×2⊕1
        // route, and the echo X pulses' mirrored edges hit the memo.
        let (pair, s, chans) = jittered_cx(7);
        let work = work_of(&pair, &s, chans);
        assert_eq!(
            work,
            Work {
                hermitian: 960,
                split: 405,
                memo_hits: 395,
                slab_products: 800,
                entries_assembled: 17334,
            },
            "jittered CX"
        );
        // An echoed CR(0.7) block with jitter drawn from the same seed.
        let (device, cal) = calibrated();
        let cr = cal
            .echoed_cr_schedule_cancelled(device, 0, 1, 0.7)
            .expect("coupled pair");
        let cr = jittered_copy(&cr, device.pulse_amp_jitter(), &mut seeded(7));
        let work = work_of(&pair, &cr, chans);
        assert_eq!(
            work,
            Work {
                hermitian: 320,
                split: 324,
                memo_hits: 316,
                slab_products: 480,
                entries_assembled: 8694,
            },
            "echoed CR(0.7)"
        );
    }

    /// Every two-qubit block of generated programs at several seeds, as
    /// `(pair, schedule, channels)`, over almaden-like widths 2–4: the
    /// `Cx`, `CxCancelled`, `Cr` and `CrCancelled` shapes, each behind
    /// its entry frame phases.
    fn generated_pair_blocks() -> Vec<(CrPair, Schedule, [Channel; 3])> {
        use crate::executor::testgen::random_program;
        use crate::executor::Block;
        let mut out = Vec::new();
        for n in 2..=4u32 {
            let mut rng = seeded(0x2B10 + u64::from(n));
            let device = DeviceModel::almaden_like(n as usize, &mut rng);
            let cal = calibrate(&device, &mut rng);
            for _ in 0..4 {
                let (program, _) = random_program(&device, &cal, n, 12, &mut rng);
                for block in program.blocks {
                    if let Block::Gate2Q {
                        control,
                        target,
                        schedule,
                    } = block
                    {
                        let pair = device.pair_exec(control, target).expect("coupled");
                        let u = device.control_channel(control, target).expect("coupled");
                        let chans = [Channel::Drive(control), Channel::Drive(target), u];
                        out.push((pair, schedule, chans));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn a_run_fits_in_a_cache_line() {
        // The plan's runs stay resident in every integrating thread's scratch.
        assert!(
            std::mem::size_of::<Run>() <= 64,
            "{}",
            std::mem::size_of::<Run>()
        );
    }

    #[test]
    fn a_stretch_longer_than_a_run_is_read_as_several() {
        let mut runs = Vec::new();
        let drives = [C64::ZERO, C64::real(0.5), C64::ZERO];
        Run::push(&mut runs, drives, 2 * Run::MAX_LEN + 3);
        let lens: Vec<u32> = runs.iter().map(|r| r.len).collect();
        assert_eq!(lens, [u32::MAX, u32::MAX, 3]);
        assert!(runs
            .iter()
            .all(|r| r.drives == drives && r.slot == Run::NO_SLOT));
    }

    /// The memo slots of `runs` as the sort-based plan numbered them:
    /// sort the block-route keys, keep the groups that recur, and number
    /// those in order of first occurrence.
    fn sorted_slots(runs: &[Run]) -> Vec<Option<usize>> {
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
        let mut slots = vec![None; runs.len()];
        for (slot, group) in recurring.iter().enumerate() {
            for &(_, i) in *group {
                slots[i] = Some(slot);
            }
        }
        slots
    }

    #[test]
    fn linear_run_plan_numbers_slots_as_the_sorted_plan() {
        let (device, cal) = calibrated();
        let sigma = device.pulse_amp_jitter();
        let mut schedules: Vec<_> = generated_pair_blocks()
            .into_iter()
            .map(|(_, s, chans)| (s, chans))
            .collect();
        for seed in 1..=4 {
            let (_, cx, chans) = jittered_cx(seed);
            schedules.push((cx, chans));
            for theta in [-FRAC_PI_2, 0.7] {
                let cr = cal
                    .echoed_cr_schedule_cancelled(device, 0, 1, theta)
                    .expect("coupled pair");
                schedules.push((jittered_copy(&cr, sigma, &mut seeded(seed)), chans));
                schedules.push((cr, chans));
            }
        }
        let mut recurring = 0;
        for (s, chans) in &schedules {
            let plan = plan_of(s, None, *chans);
            let linear: Vec<_> = (plan.runs.iter())
                .map(|r| (r.slot != Run::NO_SLOT).then_some(r.slot as usize))
                .collect();
            assert_eq!(linear, sorted_slots(&plan.runs), "{}", s.name());
            assert_eq!(
                plan.slots,
                linear.iter().flatten().max().map_or(0, |&m| m + 1)
            );
            recurring += plan.slots;
        }
        assert!(schedules.len() > 40 && recurring > 0, "{}", schedules.len());
    }

    /// Asserts that `plan` holds the runs, frames and duration of `raster`,
    /// bit for bit.
    fn assert_plan_reads_raster(plan: &Plan, raster: &Raster, what: &str) {
        assert_eq!(plan.total, raster.total, "{what}");
        assert_eq!(
            plan.frames.map(f64::to_bits),
            raster.frames.map(f64::to_bits),
            "{what}"
        );
        let runs = plan.runs.iter().map(|r| (r.drives, r.len as usize));
        assert_eq!(run_bits(runs), run_bits(raster.runs()), "{what}");
    }

    #[test]
    fn jitter_in_the_plan_equals_the_raster_of_a_jittered_copy() {
        // The factors the executors draw, applied while the runs are read,
        // against the raster of a copy whose waveforms carry them — from
        // the same RNG stream, bit for bit, at the device's jitter and at
        // one large enough that the 1/peak clamp binds.
        let (device, _) = calibrated();
        let mut blocks = 0;
        for (k, (_, s, chans)) in generated_pair_blocks().iter().enumerate() {
            for (seed, sigma) in [(1, device.pulse_amp_jitter()), (2, 0.3), (k as u64, 0.01)] {
                let factors = crate::executor::pair_jitter(s, sigma, &mut seeded(seed));
                let plan = plan_of(s, factors.as_deref(), *chans);
                let copy = jittered_copy(s, sigma, &mut seeded(seed));
                let what = format!("{} seed {seed}", s.name());
                assert_plan_reads_raster(&plan, &Raster::new(&copy, None, *chans), &what);
                blocks += 1;
            }
        }
        assert!(blocks > 100, "{blocks}");
    }

    #[test]
    fn plan_reads_the_runs_of_the_raster() {
        // Calibrated blocks, and schedules that stress the chunked read:
        // plays that overlap on one channel (their samples add), frame
        // shifts between plays, a play on a channel the pair does not
        // drive, dead time, runs that cross chunk boundaries, and the
        // empty schedule.
        let p = pair();
        let gs = cr_pulse(&p, FRAC_PI_2, 0.3);
        let mut overlapping = Schedule::new("overlapping plays on one channel");
        play_at(&mut overlapping, 0, gs.waveform("cr"), Channel::Control(0));
        play_at(
            &mut overlapping,
            3,
            x_pulse(&p.control),
            Channel::Control(0),
        );
        play_at(&mut overlapping, 150, x_pulse(&p.target), Channel::Drive(1));
        let mut shifted = Schedule::new("frame shifts");
        shifted.insert(
            0,
            Instruction::ShiftPhase {
                phase: 0.4,
                channel: Channel::Drive(0),
            },
        );
        play_at(&mut shifted, 10, x_pulse(&p.control), Channel::Drive(0));
        shifted.insert(
            300,
            Instruction::ShiftPhase {
                phase: -1.1,
                channel: Channel::Drive(0),
            },
        );
        play_at(&mut shifted, 300, x_pulse(&p.control), Channel::Drive(0));
        play_at(&mut shifted, 40, x_pulse(&p.target), Channel::Drive(5));
        shifted.insert(
            700,
            Instruction::Delay {
                duration: 129,
                channel: Channel::Drive(1),
            },
        );
        let mut schedules: Vec<_> = generated_pair_blocks()
            .into_iter()
            .map(|(_, s, chans)| (s, chans))
            .collect();
        for s in [
            overlapping,
            shifted,
            target_then_control(&p),
            Schedule::new("empty"),
        ] {
            schedules.push((s, PAIR_CHANNELS));
        }
        let (_, cx, chans) = jittered_cx(5);
        schedules.push((cx, chans));
        for (s, chans) in &schedules {
            let plan = plan_of(s, None, *chans);
            assert_plan_reads_raster(&plan, &Raster::new(s, None, *chans), s.name());
        }
        // One plan refilled for every schedule, as a thread's scratch is.
        let mut plan = Plan::default();
        for (s, chans) in schedules.iter().rev() {
            plan.read(s, None, *chans);
            assert_plan_reads_raster(&plan, &Raster::new(s, None, *chans), s.name());
            let fresh = plan_of(s, None, *chans);
            let slots = |p: &Plan| p.runs.iter().map(|r| (r.slot, r.live)).collect::<Vec<_>>();
            assert_eq!(slots(&plan), slots(&fresh), "{}", s.name());
        }
    }

    #[test]
    fn filtered_assembly_is_bit_identical_to_the_option_checked_table() {
        // Every route and every set of playing channels, at drives with
        // both quadratures, one quadrature zero (of either sign) or the
        // CR tone's amplitude negative, for the pair's own rates and for
        // rates with a zero term.
        let mut rng_state = 0x3C6E_F372_FE94_F82Bu64;
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut no_ix = CrParams::almaden_like();
        no_ix.ix_hz_per_amp = 0.0;
        let pairs = [
            pair(),
            CrPair::new(
                TransmonParams::armonk_like(),
                TransmonParams::almaden_like(),
                no_ix,
            ),
        ];
        let tables = generator_tables();
        let routes: [Vec<usize>; 3] = [
            in_block_entries(Blocks9::Strided).as_flattened().to_vec(),
            in_block_entries(Blocks9::Contiguous)
                .as_flattened()
                .to_vec(),
            (0..81).collect(),
        ];
        let mut cases = 0;
        for p in &pairs {
            let hs = p.static_hamiltonian();
            for case in 0..24 {
                for playing in 0..8u8 {
                    let drives: [C64; 3] = std::array::from_fn(|ch| {
                        if playing & 1 << ch == 0 {
                            return C64::ZERO;
                        }
                        let (re, im) = (next(), next());
                        match (case + ch) % 6 {
                            0 => C64::new(re, 0.0),
                            1 => C64::new(-0.0, im),
                            2 => C64::new(0.0, im),
                            3 => C64::new(re, -0.0),
                            _ => C64::new(re, im),
                        }
                    });
                    assert_eq!(Run::new(drives, 1).playing, playing);
                    let coefficients = p.drive_coefficients(drives, playing);
                    for (route, entries) in routes.iter().enumerate() {
                        let table = &tables.assemblies[route][usize::from(playing)];
                        let mut got: Vec<_> = entries.iter().map(|&e| hs[e]).collect();
                        table.add_terms(&coefficients, &mut got);
                        let want = assemble_oracle(p, drives, entries);
                        let bits = |z: &[C64]| -> Vec<_> {
                            z.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
                        };
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "route {route} playing {playing:03b}"
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 2 * 24 * 8 * 3);
    }

    /// An uncalibrated X on the target, then one on the control.
    fn target_then_control(p: &CrPair) -> Schedule {
        let mut s = Schedule::new("target before control");
        play_at(&mut s, 0, x_pulse(&p.target), Channel::Drive(1));
        play_at(&mut s, 200, x_pulse(&p.control), Channel::Drive(0));
        s
    }

    #[test]
    fn simple_schedules_match_the_9x9_oracle() {
        let p = pair();
        let gs = cr_pulse(&p, FRAC_PI_2, 0.3);
        let target_first = target_then_control(&p);
        let mut cr_only = Schedule::new("cr only");
        play(&mut cr_only, gs.waveform("cr"), Channel::Control(0));
        let mut control_only = Schedule::new("control only");
        play(&mut control_only, x_pulse(&p.control), Channel::Drive(0));
        let empty = Schedule::new("empty");
        for s in [target_first, cr_only, control_only, empty] {
            assert_matches_reference(&p, &s, PAIR_CHANNELS);
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
        assert_matches_reference(&p, &s, PAIR_CHANNELS);
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
        assert_matches_reference(&p, &s, PAIR_CHANNELS);
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
