//! Monte-Carlo (quantum-trajectory) execution of lowered programs.
//!
//! The density-matrix executor is exact but costs `O(4ⁿ)` memory — fine
//! through ~6 qubits, hopeless beyond. Trajectories trade variance for
//! scale: each run keeps a *state vector* (`O(2ⁿ)`), samples one Kraus
//! branch wherever the density executor would apply a channel, and the
//! ensemble over trajectories converges to the same distribution. This is
//! how the reproduction reaches Almaden-scale (20-qubit) registers the
//! paper ran its 11.4 M shots on.
//!
//! # Fast path: fused
//!
//! By default (`OPC_FUSION` unset or ≠ `0`) the executor hoists a
//! [`quant_sim::fusion::FusionPlan`] out of the trajectory fan-out: the
//! program's unitary stream (SPAM flips, 1q waveform gates, 2q CR
//! schedules) and its stochastic channel points (sampled thermal
//! relaxation) are planned into fused blocks of up to five qubits, built
//! once per program. Each trajectory then *replays* the plan: gates and
//! sampled Kraus branches fold into small (`≤ 32×32`) block accumulators,
//! channel branches are weighed against a per-block reduced density
//! matrix (`Tr(K†K·ρ_B)`, exact for local operators) instead of sweeping
//! the full state per branch, and the state is touched only when a block
//! closes — one blocked-kernel sweep per fused block instead of several
//! per gate and per channel stage. Normalization is folded into the
//! Kraus branches (`K/√p` like the reference path's per-stage
//! renormalize), so no separate normalize sweeps remain.
//!
//! The random-draw *sequence* of a fused trajectory is identical to the
//! unfused one — same draws, same order, at the same program points — so
//! sampled counts stay bit-identical in practice across
//! `OPC_FUSION=0/1`, across thread counts, and against the reference
//! path (branch weights agree to rounding, and a draw landing within one
//! ulp of a branch boundary is the same vanishing coincidence the
//! kernel-vs-reference contract already tolerates; CI pins it).
//!
//! # Unfused path
//!
//! `OPC_FUSION=0` restores the per-gate stride-kernel route: trajectories
//! fan over a [`ShotPool`] with one root `u64` and a
//! `stream_seed(root, index)` RNG stream per trajectory, so counts are
//! **bit-identical at any `OPC_THREADS`** (the same contract as the shot
//! engine and the calibration fan-out). Each worker reuses one
//! [`StateVector`] + [`KernelScratch`]; channel branches are weighed in
//! place (`KernelScratch::branch_weight`); and measurement outcomes are
//! drawn by binary search on a per-trajectory cumulative distribution.
//! [`TrajectoryExecutor::with_reference_path`] routes every state update
//! through the retained skip-scan reference kernels and every two-qubit
//! schedule through the per-sample reference integrator instead — the
//! cross-check (and the perfsuite baseline) for both fast paths; it
//! bypasses fusion entirely.

use crate::device::DeviceModel;
use crate::executor::{Block, ExecError, LoweredProgram, ShotPool};
use crate::params::DT;
use crate::transmon::DriveState;
use quant_math::{normal, seeded, stream_seed, CMat, C64};
use quant_pulse::{Channel, Instruction, Schedule, Waveform};
use quant_sim::fusion::{FusionPlan, OpDesc, Step, MAX_FUSED_WEIGHT};
use quant_sim::{channels, KernelScratch, StateVector};
use rand::Rng;

/// One runtime fused block: the accumulating operator on the block's
/// targets, plus the lazily captured reduced density used to weigh local
/// Kraus branches while the block is still pending.
#[derive(Clone, Debug)]
struct RtBlock {
    /// Global qubit indices (digit order), from the plan.
    targets: Vec<usize>,
    /// `[2; k]` — the block's subspace dims.
    dims: Vec<usize>,
    /// `[0, 1, …, k-1]` — every local digit, for whole-block folds.
    full: Vec<usize>,
    /// Accumulated pending operator (starts as identity).
    acc: CMat,
    /// Reduced density of `targets` with `acc` folded in; only
    /// meaningful while `rho_valid`.
    rho: CMat,
    rho_valid: bool,
    open: bool,
    /// Whether `acc` holds any pending content. Pending ops are not in
    /// general trace-preserving (Kraus branches, leaky sub-unitary
    /// gates), so a dirty block perturbs *other* blocks' marginals and
    /// must be flushed into the state before any foreign ρ capture.
    dirty: bool,
}

impl RtBlock {
    fn new(targets: &[usize]) -> Self {
        let k = targets.len();
        let w = 1usize << k;
        RtBlock {
            targets: targets.to_vec(),
            dims: vec![2; k],
            full: (0..k).collect(),
            acc: CMat::identity(w),
            rho: CMat::zeros(w, w),
            rho_valid: false,
            open: false,
            dirty: false,
        }
    }
}

/// Per-worker reusable state: one state vector, one kernel scratch, the
/// channel-weight and cumulative-distribution buffers, a memo of
/// thermal-relaxation stages keyed by `(qubit, duration)` for the
/// unfused path, and the runtime fused-block accumulators for the fused
/// path.
struct TrajWorker {
    psi: StateVector,
    scratch: KernelScratch,
    weights: Vec<f64>,
    cdf: Vec<f64>,
    relax: Vec<(usize, u64, Vec<Vec<CMat>>)>,
    blocks: Vec<RtBlock>,
    op_tmp: CMat,
}

impl TrajWorker {
    fn new(n: usize, fused: Option<&FusedProgram>) -> Self {
        let blocks = match fused {
            Some(fp) => fp
                .plan
                .blocks
                .iter()
                .map(|b| RtBlock::new(&b.targets))
                .collect(),
            None => Vec::new(),
        };
        TrajWorker {
            psi: StateVector::zero_qubits(n),
            scratch: KernelScratch::new(),
            weights: Vec::new(),
            cdf: Vec::new(),
            relax: Vec::new(),
            blocks,
            op_tmp: CMat::zeros(2, 2),
        }
    }

    /// Drops every open block's cached reduced density. Called whenever a
    /// block is applied to the state (close or merge): pending unitaries
    /// of *other* open blocks cannot change a disjoint block's marginals,
    /// but a closed block's application can, so the caches are rebuilt
    /// lazily from the updated state.
    fn invalidate_open_rho(&mut self) {
        for rt in &mut self.blocks {
            if rt.open {
                rt.rho_valid = false;
            }
        }
    }
}

/// Payload of one planned op — what the fused replay actually executes
/// (and where it spends its random draws) when the plan says `Fold`.
#[derive(Clone, Debug)]
enum TrajOp {
    /// Thermal SPAM: maybe fold an X flip.
    Spam,
    /// One 1q waveform: jitter draw, integrate, fold the 2×2.
    Wave { qubit: u32, wave: Waveform },
    /// One 2q CR schedule: jitter draws, integrate, fold the 4×4.
    Cr {
        control: u32,
        target: u32,
        schedule: Schedule,
    },
    /// Sampled thermal relaxation over an index into the hoisted
    /// relaxation tables: one categorical draw per stage.
    Relax { table: usize },
}

/// One hoisted relaxation channel: the Kraus stages for `(qubit,
/// samples)` of wall-clock plus each branch's precomputed `K†K` weight
/// operator.
#[derive(Clone, Debug)]
struct RelaxTable {
    qubit: usize,
    samples: u64,
    stages: Vec<Vec<CMat>>,
    weight_ops: Vec<Vec<CMat>>,
}

/// The per-program hoisted plan: op payloads (parallel to the fusion
/// pass's op indices), the fusion plan itself, and the deduplicated
/// relaxation tables. Built once per [`TrajectoryExecutor::try_run_pooled`]
/// call, shared read-only by every pool worker.
#[derive(Clone, Debug)]
struct FusedProgram {
    ops: Vec<TrajOp>,
    plan: FusionPlan,
    relax: Vec<RelaxTable>,
}

/// The trajectory executor.
#[derive(Clone, Debug)]
pub struct TrajectoryExecutor<'a> {
    device: &'a DeviceModel,
    trajectories: usize,
    reference: bool,
    fusion: bool,
}

impl<'a> TrajectoryExecutor<'a> {
    /// Creates an executor that averages over `trajectories` noise
    /// realizations. Gate fusion defaults to the `OPC_FUSION`
    /// environment knob (on unless `OPC_FUSION=0`); override it
    /// programmatically with [`TrajectoryExecutor::with_fusion`]. A zero
    /// count is reported by the run methods as
    /// [`ExecError::NoTrajectories`].
    pub fn new(device: &'a DeviceModel, trajectories: usize) -> Self {
        TrajectoryExecutor {
            device,
            trajectories,
            reference: false,
            fusion: crate::knobs::fusion(),
        }
    }

    /// Routes every state update through the reference (skip-scan)
    /// state-vector path instead of the stride kernels, and every two-qubit
    /// schedule through [`crate::twoqubit::CrPair::integrate_ref`] instead
    /// of the run-compressed integrator. Bypasses gate fusion entirely.
    /// Slow; used by the equivalence tests and as the perfsuite baseline.
    pub fn with_reference_path(mut self) -> Self {
        self.reference = true;
        self
    }

    /// Forces gate fusion on or off, overriding the `OPC_FUSION`
    /// environment default. Ignored on the reference path.
    pub fn with_fusion(mut self, fusion: bool) -> Self {
        self.fusion = fusion;
        self
    }

    /// Whether this executor will take the fused path.
    pub fn fusion_enabled(&self) -> bool {
        self.fusion && !self.reference
    }

    /// Runs the program, sampling `shots` measurement outcomes spread over
    /// the trajectories. Returns counts over the `2ⁿ` outcomes (readout
    /// error applied per shot).
    ///
    /// Draws exactly one `u64` root from `rng` and fans the trajectories
    /// over [`ShotPool::from_env`] on per-trajectory seed streams.
    ///
    /// # Panics
    ///
    /// Panics if the program addresses a pair the device topology does not
    /// couple; use [`TrajectoryExecutor::try_run`] to get the error as a
    /// value.
    pub fn run(&self, program: &LoweredProgram, shots: usize, rng: &mut impl Rng) -> Vec<u64> {
        match self.try_run(program, shots, rng) {
            Ok(counts) => counts,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the program, reporting a register that does not fit the device
    /// and topology mismatches as [`ExecError`] instead of panicking. Draws one `u64` root from `rng`; the pool
    /// size comes from `OPC_THREADS`.
    pub fn try_run(
        &self,
        program: &LoweredProgram,
        shots: usize,
        rng: &mut impl Rng,
    ) -> Result<Vec<u64>, ExecError> {
        let root = rng.gen::<u64>();
        self.try_run_pooled(program, shots, root, &ShotPool::from_env())
    }

    /// [`TrajectoryExecutor::try_run`] with an explicit root seed and pool.
    ///
    /// Trajectory `i` runs on `seeded(stream_seed(root, i))` and shots are
    /// split across trajectories by index (`shots/T` each, the first
    /// `shots % T` taking one extra), so the returned counts depend only on
    /// `(program, shots, root)` — never on the thread count. The fusion
    /// plan (when enabled) is likewise built once, before the fan-out,
    /// and replayed read-only by every worker.
    pub fn try_run_pooled(
        &self,
        program: &LoweredProgram,
        shots: usize,
        root: u64,
        pool: &ShotPool,
    ) -> Result<Vec<u64>, ExecError> {
        ExecError::check_width(program.num_qubits, self.device.num_qubits())?;
        if self.trajectories == 0 {
            return Err(ExecError::NoTrajectories);
        }
        let n = program.num_qubits as usize;
        let fused = if self.fusion_enabled() {
            Some(self.build_plan(program)?)
        } else {
            None
        };
        let trajectories = self.trajectories.min(shots.max(1));
        let base = shots / trajectories;
        let extra = shots % trajectories;
        let sampled = pool.map_indices_with(
            trajectories,
            || TrajWorker::new(n, fused.as_ref()),
            |w, i| -> Result<Vec<u32>, ExecError> {
                let take = base + usize::from(i < extra);
                if take == 0 {
                    return Ok(Vec::new());
                }
                let mut rng = seeded(stream_seed(root, i as u64));
                match &fused {
                    Some(fp) => self.evolve_fused(fp, w, &mut rng)?,
                    None => self.evolve(program, w, &mut rng)?,
                }
                // Per-trajectory cumulative distribution; outcomes are then
                // one uniform draw + binary search each instead of an
                // O(2ⁿ) categorical scan per shot. Sampling uses the
                // running total, so the state need not be normalized.
                w.cdf.clear();
                w.cdf.reserve(w.psi.dim());
                let mut acc = 0.0f64;
                for a in w.psi.amplitudes() {
                    acc += a.norm_sqr();
                    w.cdf.push(acc);
                }
                let total = acc;
                let top = w.psi.dim() - 1;
                let mut outcomes = Vec::with_capacity(take);
                for _ in 0..take {
                    let u = rng.gen::<f64>() * total;
                    let outcome = w.cdf.partition_point(|&c| c <= u).min(top);
                    outcomes.push(self.noisy_readout(outcome, n, &mut rng) as u32);
                }
                Ok(outcomes)
            },
        );
        // Reduce in trajectory-index order (u64 additions, so the total is
        // exact and thread-count independent either way).
        let mut counts = vec![0u64; 1 << n];
        for outcomes in sampled {
            for o in outcomes? {
                counts[o as usize] += 1;
            }
        }
        Ok(counts)
    }

    /// Builds the hoisted fusion plan for one program: walks the blocks
    /// in exactly the order [`TrajectoryExecutor::evolve`] does —
    /// emitting one op per random-draw site — then plans the fused
    /// blocks over that stream. Topology errors surface here, before any
    /// trajectory runs.
    fn build_plan(&self, program: &LoweredProgram) -> Result<FusedProgram, ExecError> {
        let n = program.num_qubits as usize;
        let mut ops: Vec<TrajOp> = Vec::new();
        let mut descs: Vec<OpDesc> = Vec::new();
        let mut relax: Vec<RelaxTable> = Vec::new();

        fn push_relax(
            device: &DeviceModel,
            ops: &mut Vec<TrajOp>,
            descs: &mut Vec<OpDesc>,
            relax: &mut Vec<RelaxTable>,
            qubit: usize,
            samples: u64,
        ) {
            let table = match relax
                .iter()
                .position(|t| t.qubit == qubit && t.samples == samples)
            {
                Some(pos) => pos,
                None => {
                    let p = device.qubit(qubit as u32);
                    let t = samples as f64 * DT;
                    let stages = channels::thermal_relaxation(t, p.t1, p.t2);
                    let weight_ops = stages
                        .iter()
                        .map(|stage| stage.iter().map(|k| &k.dagger() * k).collect())
                        .collect();
                    relax.push(RelaxTable {
                        qubit,
                        samples,
                        stages,
                        weight_ops,
                    });
                    relax.len() - 1
                }
            };
            ops.push(TrajOp::Relax { table });
            descs.push(OpDesc::local(qubit));
        }

        for q in 0..n {
            ops.push(TrajOp::Spam);
            descs.push(OpDesc::local(q));
        }
        let mut cursor = vec![0u64; n];
        for block in &program.blocks {
            match block {
                Block::Idle { qubit, duration } => {
                    let q = *qubit as usize;
                    push_relax(self.device, &mut ops, &mut descs, &mut relax, q, *duration);
                    cursor[q] += duration;
                }
                Block::Gate1Q { qubit, waveforms } => {
                    let q = *qubit as usize;
                    for wave in waveforms {
                        ops.push(TrajOp::Wave {
                            qubit: *qubit,
                            wave: wave.clone(),
                        });
                        descs.push(OpDesc::unitary(&[q]));
                        push_relax(
                            self.device,
                            &mut ops,
                            &mut descs,
                            &mut relax,
                            q,
                            wave.duration(),
                        );
                        cursor[q] += wave.duration();
                    }
                }
                Block::Gate2Q {
                    control,
                    target,
                    schedule,
                } => {
                    let (c, t) = (*control as usize, *target as usize);
                    // Validate topology up front so the per-trajectory
                    // replay cannot fail.
                    self.device
                        .pair_exec(*control, *target)
                        .ok_or(ExecError::UncoupledPair {
                            control: *control,
                            target: *target,
                        })?;
                    self.device.control_channel(*control, *target).ok_or(
                        ExecError::MissingControlChannel {
                            control: *control,
                            target: *target,
                        },
                    )?;
                    let start = cursor[c].max(cursor[t]);
                    for &q in &[c, t] {
                        let idle = start - cursor[q];
                        if idle > 0 {
                            push_relax(self.device, &mut ops, &mut descs, &mut relax, q, idle);
                        }
                        cursor[q] = start;
                    }
                    ops.push(TrajOp::Cr {
                        control: *control,
                        target: *target,
                        schedule: schedule.clone(),
                    });
                    descs.push(OpDesc::unitary(&[c, t]));
                    let dur = schedule.duration();
                    push_relax(self.device, &mut ops, &mut descs, &mut relax, c, dur);
                    push_relax(self.device, &mut ops, &mut descs, &mut relax, t, dur);
                    cursor[c] += dur;
                    cursor[t] += dur;
                }
            }
        }
        let end = cursor.iter().copied().max().unwrap_or(0);
        for (q, &at) in cursor.iter().enumerate().take(n) {
            let idle = end - at;
            if idle > 0 {
                push_relax(self.device, &mut ops, &mut descs, &mut relax, q, idle);
            }
        }

        let dims = vec![2usize; n];
        let plan = FusionPlan::build(&descs, &dims, MAX_FUSED_WEIGHT);
        Ok(FusedProgram { ops, plan, relax })
    }

    /// Replays the hoisted plan for one stochastic trajectory: folds
    /// gates and sampled Kraus branches into the runtime block
    /// accumulators, sweeps the state only at block closes.
    fn evolve_fused(
        &self,
        fp: &FusedProgram,
        w: &mut TrajWorker,
        rng: &mut impl Rng,
    ) -> Result<(), ExecError> {
        w.psi.reset_zero();
        let p_reset = self.device.reset_excited_prob();
        for step in &fp.plan.steps {
            match step {
                Step::Open { block } => {
                    let rt = &mut w.blocks[*block];
                    rt.acc.set_identity();
                    rt.rho_valid = false;
                    rt.open = true;
                    rt.dirty = false;
                }
                Step::Fold { op, block, local } => match &fp.ops[*op] {
                    TrajOp::Spam => {
                        if p_reset > 0.0 && rng.gen::<f64>() < p_reset {
                            let x = quant_sim::gates::x();
                            fold_op(w, *block, &x, local);
                        }
                    }
                    TrajOp::Wave { qubit, wave } => {
                        let wave = self.jittered(wave, rng);
                        let mut state = DriveState::default();
                        let u3x3 = self
                            .device
                            .transmon_exec(*qubit)
                            .integrate_play(&mut state, &wave);
                        let b = CMat::from_rows(&[
                            &[u3x3[(0, 0)], u3x3[(0, 1)]],
                            &[u3x3[(1, 0)], u3x3[(1, 1)]],
                        ]);
                        fold_op(w, *block, &b, local);
                    }
                    TrajOp::Cr {
                        control,
                        target,
                        schedule,
                    } => {
                        let pair = self.device.pair_exec(*control, *target).ok_or(
                            ExecError::UncoupledPair {
                                control: *control,
                                target: *target,
                            },
                        )?;
                        let u_ch = self.device.control_channel(*control, *target).ok_or(
                            ExecError::MissingControlChannel {
                                control: *control,
                                target: *target,
                            },
                        )?;
                        let schedule = self.jitter_schedule(schedule, rng);
                        let r = pair.integrate(
                            &schedule,
                            Channel::Drive(*control),
                            Channel::Drive(*target),
                            u_ch,
                        );
                        fold_op(w, *block, &r.unitary, local);
                    }
                    TrajOp::Relax { table } => {
                        let t = &fp.relax[*table];
                        for (stage, wops) in t.stages.iter().zip(&t.weight_ops) {
                            relax_stage_fused(w, *block, local[0], stage, wops, rng);
                        }
                    }
                },
                Step::Merge { from, into, local } => {
                    let (head, tail) = w.blocks.split_at_mut((*from).max(*into));
                    let (dst, src) = if from < into {
                        (&mut tail[0], &head[*from])
                    } else {
                        (&mut head[*into], &tail[0])
                    };
                    w.scratch
                        .apply_left(&mut dst.acc, &src.acc, local, &dst.dims);
                    let carried = w.blocks[*from].dirty;
                    w.blocks[*from].open = false;
                    w.blocks[*into].dirty |= carried;
                    w.invalidate_open_rho();
                }
                Step::Close { block } => {
                    let TrajWorker {
                        psi,
                        scratch,
                        blocks,
                        ..
                    } = w;
                    let rt = &mut blocks[*block];
                    psi.apply_unitary_scratch(&rt.acc, &rt.targets, scratch);
                    rt.open = false;
                    w.invalidate_open_rho();
                }
            }
        }
        Ok(())
    }

    /// Applies a (possibly sub-unitary) operator through the selected
    /// kernel path.
    fn apply(&self, w: &mut TrajWorker, op: &CMat, targets: &[usize]) {
        if self.reference {
            w.psi.apply_unitary_ref(op, targets);
        } else {
            w.psi.apply_unitary_scratch(op, targets, &mut w.scratch);
        }
    }

    /// Evolves one stochastic trajectory in the worker's reused state —
    /// the unfused route (`OPC_FUSION=0` or the reference path).
    fn evolve(
        &self,
        program: &LoweredProgram,
        w: &mut TrajWorker,
        rng: &mut impl Rng,
    ) -> Result<(), ExecError> {
        let n = program.num_qubits as usize;
        w.psi.reset_zero();
        // Thermal SPAM.
        let p_reset = self.device.reset_excited_prob();
        for q in 0..n {
            if p_reset > 0.0 && rng.gen::<f64>() < p_reset {
                self.apply(w, &quant_sim::gates::x(), &[q]);
            }
        }
        let mut cursor = vec![0u64; n];

        for block in &program.blocks {
            match block {
                Block::Idle { qubit, duration } => {
                    self.relax_sampled(w, *qubit as usize, *duration, rng);
                    cursor[*qubit as usize] += duration;
                }
                Block::Gate1Q { qubit, waveforms } => {
                    let q = *qubit as usize;
                    let transmon = self.device.transmon_exec(*qubit);
                    for wave in waveforms {
                        let wave = self.jittered(wave, rng);
                        let mut state = DriveState::default();
                        let u3x3 = transmon.integrate_play(&mut state, &wave);
                        let b = CMat::from_rows(&[
                            &[u3x3[(0, 0)], u3x3[(0, 1)]],
                            &[u3x3[(1, 0)], u3x3[(1, 1)]],
                        ]);
                        // Sub-unitary contraction: renormalize (leakage is
                        // tiny; the deposited-weight branch is negligible
                        // at trajectory resolution).
                        self.apply(w, &b, &[q]);
                        w.psi.normalize();
                        self.relax_sampled(w, q, wave.duration(), rng);
                        cursor[q] += wave.duration();
                    }
                }
                Block::Gate2Q {
                    control,
                    target,
                    schedule,
                } => {
                    let (c, t) = (*control as usize, *target as usize);
                    let start = cursor[c].max(cursor[t]);
                    for &q in &[c, t] {
                        let idle = start - cursor[q];
                        if idle > 0 {
                            self.relax_sampled(w, q, idle, rng);
                        }
                        cursor[q] = start;
                    }
                    let pair = self.device.pair_exec(*control, *target).ok_or(
                        ExecError::UncoupledPair {
                            control: *control,
                            target: *target,
                        },
                    )?;
                    let u_ch = self.device.control_channel(*control, *target).ok_or(
                        ExecError::MissingControlChannel {
                            control: *control,
                            target: *target,
                        },
                    )?;
                    let schedule = self.jitter_schedule(schedule, rng);
                    let r = if self.reference {
                        pair.integrate_ref(
                            &schedule,
                            Channel::Drive(*control),
                            Channel::Drive(*target),
                            u_ch,
                        )
                    } else {
                        pair.integrate(
                            &schedule,
                            Channel::Drive(*control),
                            Channel::Drive(*target),
                            u_ch,
                        )
                    };
                    self.apply(w, &r.unitary, &[c, t]);
                    w.psi.normalize();
                    let dur = schedule.duration();
                    self.relax_sampled(w, c, dur, rng);
                    self.relax_sampled(w, t, dur, rng);
                    cursor[c] += dur;
                    cursor[t] += dur;
                }
            }
        }
        let end = cursor.iter().copied().max().unwrap_or(0);
        for (q, &at) in cursor.iter().enumerate().take(n) {
            let idle = end - at;
            if idle > 0 {
                self.relax_sampled(w, q, idle, rng);
            }
        }
        Ok(())
    }

    /// Samples one branch of the thermal-relaxation channels for a qubit
    /// over `samples` of wall-clock time.
    ///
    /// Fast path: every branch of a stage is weighed in place
    /// (`‖Kψ‖²` via [`KernelScratch::branch_weight`]) and only the chosen
    /// operator is applied — no per-branch clone of the `O(2ⁿ)` state.
    /// Reference path: the original clone-per-branch route.
    fn relax_sampled(&self, w: &mut TrajWorker, qubit: usize, samples: u64, rng: &mut impl Rng) {
        let p = self.device.qubit(qubit as u32);
        let t = samples as f64 * DT;
        let TrajWorker {
            psi,
            scratch,
            weights,
            relax,
            ..
        } = w;
        let pos = match relax
            .iter()
            .position(|(q, s, _)| *q == qubit && *s == samples)
        {
            Some(pos) => pos,
            None => {
                relax.push((qubit, samples, channels::thermal_relaxation(t, p.t1, p.t2)));
                relax.len() - 1
            }
        };
        for stage in &relax[pos].2 {
            if self.reference {
                // Trial-apply every branch to a cloned state, then keep the
                // sampled one.
                let mut probs = Vec::with_capacity(stage.len());
                let mut branches = Vec::with_capacity(stage.len());
                for k in stage {
                    let mut trial = psi.clone();
                    let prob = trial.apply_kraus_branch_ref(k, &[qubit]);
                    probs.push(prob.max(0.0));
                    branches.push(trial);
                }
                let choice = quant_math::categorical(rng, &probs);
                let mut chosen = branches.swap_remove(choice);
                chosen.normalize();
                *psi = chosen;
            } else {
                weights.clear();
                for k in stage {
                    weights.push(
                        scratch
                            .branch_weight(psi.amplitudes(), k, &[qubit], psi.dims())
                            .max(0.0),
                    );
                }
                let choice = quant_math::categorical(rng, weights);
                psi.apply_unitary_scratch(&stage[choice], &[qubit], scratch);
                psi.normalize();
            }
        }
    }

    /// Classical readout error applied to a sampled outcome index.
    fn noisy_readout(&self, outcome: usize, n: usize, rng: &mut impl Rng) -> usize {
        let mut read = outcome;
        for q in 0..n {
            let r = self.device.readout(q as u32);
            let bit = (outcome >> q) & 1;
            let flip_prob = if bit == 0 { r.p1_given_0 } else { r.p0_given_1 };
            if rng.gen::<f64>() < flip_prob {
                read ^= 1 << q;
            }
        }
        read
    }

    fn jittered(&self, w: &quant_pulse::Waveform, rng: &mut impl Rng) -> quant_pulse::Waveform {
        let sigma = self.device.pulse_amp_jitter();
        let peak = w.peak();
        // opclint: allow(float-literal-eq): exact short-circuit — noiseless devices report a literal 0.0 jitter sigma
        if sigma == 0.0 || peak < 1e-12 {
            return w.clone();
        }
        let xi = normal(rng, 0.0, sigma);
        w.scaled((1.0 + xi / peak).clamp(0.0, 1.0 / peak))
    }

    fn jitter_schedule(&self, schedule: &Schedule, rng: &mut impl Rng) -> Schedule {
        let sigma = self.device.pulse_amp_jitter();
        // opclint: allow(float-literal-eq): exact short-circuit — noiseless devices report a literal 0.0 jitter sigma
        if sigma == 0.0 {
            return schedule.clone();
        }
        let mut out = Schedule::new(schedule.name());
        for ti in schedule.instructions() {
            let instruction = match &ti.instruction {
                Instruction::Play { waveform, channel } => Instruction::Play {
                    waveform: self.jittered(waveform, rng),
                    channel: *channel,
                },
                other => other.clone(),
            };
            out.insert(ti.start, instruction);
        }
        out
    }

    /// The underlying device.
    pub fn device(&self) -> &DeviceModel {
        self.device
    }
}

/// Folds `op` into block `block`'s accumulator at the given local digit
/// positions, keeping the cached reduced density in sync when present.
///
/// Any fold may be non-trace-preserving (Kraus branches outright; gate
/// blocks through qutrit leakage), which perturbs the marginals other
/// open blocks see — so every *other* open block's cached ρ is dropped
/// and rebuilt (behind a flush) on its next weight query.
fn fold_op(w: &mut TrajWorker, block: usize, op: &CMat, local: &[usize]) {
    let TrajWorker {
        scratch, blocks, ..
    } = w;
    for (j, other) in blocks.iter_mut().enumerate() {
        if j != block && other.open {
            other.rho_valid = false;
        }
    }
    let rt = &mut blocks[block];
    scratch.apply_left(&mut rt.acc, op, local, &rt.dims);
    rt.dirty = true;
    if rt.rho_valid {
        scratch.apply_conjugate(&mut rt.rho, op, local, &rt.dims);
    }
}

/// One fused relaxation stage: weigh every Kraus branch against the
/// block's reduced density (`Tr(K†K·ρ_B)` — exact for a local operator,
/// scale-invariant for the categorical draw), sample one, and fold the
/// chosen branch *renormalized* (`K/√p_rel`) into the accumulator — the
/// fused equivalent of the unfused path's apply-then-normalize.
///
/// The ρ capture is exact, not approximate: before (re)capturing, every
/// *other* open block with pending content is flushed into the state
/// (disjoint supports commute, so early application preserves program
/// order), and the querying block's own accumulator is conjugated on
/// top. The branch weights therefore match the unfused path's
/// `‖Kψ‖²` ratios to floating-point rounding, which is what keeps the
/// categorical draws — and hence the sampled counts — aligned across
/// the fused, unfused, and reference routes.
fn relax_stage_fused(
    w: &mut TrajWorker,
    block: usize,
    q_local: usize,
    stage: &[CMat],
    weight_ops: &[CMat],
    rng: &mut impl Rng,
) {
    let TrajWorker {
        psi,
        scratch,
        weights,
        blocks,
        op_tmp,
        ..
    } = w;
    // The sampled branch below is a fold; foreign cached marginals go
    // stale the same way they do in `fold_op`.
    for (j, other) in blocks.iter_mut().enumerate() {
        if j != block && other.open {
            other.rho_valid = false;
        }
    }
    if !blocks[block].rho_valid {
        // Flush every other dirty open block so the state carries all
        // pending foreign content; they stay open and keep accumulating
        // from identity.
        for (j, other) in blocks.iter_mut().enumerate() {
            if j != block && other.open && other.dirty {
                psi.apply_unitary_scratch(&other.acc, &other.targets, scratch);
                other.acc.set_identity();
                other.dirty = false;
            }
        }
        // Lazy capture: reduced density of the block's targets from the
        // applied state, then the pending accumulator folded on top.
        let rt = &mut blocks[block];
        scratch.reduced_density_state(psi.amplitudes(), &rt.targets, psi.dims(), &mut rt.rho);
        scratch.apply_conjugate(&mut rt.rho, &rt.acc, &rt.full, &rt.dims);
        rt.rho_valid = true;
    }
    let rt = &mut blocks[block];
    weights.clear();
    for wop in weight_ops {
        weights.push(
            scratch
                .expectation(&rt.rho, wop, &[q_local], &rt.dims)
                .re
                .max(0.0),
        );
    }
    let total: f64 = weights.iter().sum();
    let choice = quant_math::categorical(rng, weights);
    let rel = if total > 0.0 {
        weights[choice] / total
    } else {
        1.0
    };
    let scale = if rel > 1e-280 { 1.0 / rel.sqrt() } else { 1.0 };
    op_tmp.copy_from(&stage[choice]);
    op_tmp.scale_assign(C64::real(scale));
    let local = [q_local];
    scratch.apply_left(&mut rt.acc, op_tmp, &local, &rt.dims);
    scratch.apply_conjugate(&mut rt.rho, op_tmp, &local, &rt.dims);
    rt.dirty = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::calibrate;
    use crate::executor::PulseExecutor;
    use quant_math::seeded;

    #[test]
    fn zero_trajectories_is_an_error_not_a_panic() {
        let device = DeviceModel::almaden_like(2, &mut seeded(2));
        let program = LoweredProgram {
            num_qubits: 2,
            blocks: Vec::new(),
            schedule: Schedule::new("p"),
        };
        let exec = TrajectoryExecutor::new(&device, 0);
        assert_eq!(
            exec.try_run_pooled(&program, 100, 1, &ShotPool::serial()),
            Err(ExecError::NoTrajectories)
        );
        assert_eq!(
            exec.try_run(&program, 100, &mut seeded(3)),
            Err(ExecError::NoTrajectories)
        );
    }

    #[test]
    fn trajectories_match_density_matrix_on_bell_pair() {
        let mut rng = seeded(2);
        let device = DeviceModel::almaden_like(2, &mut rng);
        let cal = calibrate(&device, &mut rng);
        // Lower a Bell pair via the cmd_def directly (avoid a dependency on
        // the compiler crate here).
        // H via two rx90 pulses is compiler territory; use X on q0 and a
        // CNOT — |00⟩ → |01⟩ → |11⟩: a deterministic outcome with noise.
        let blocks = vec![
            Block::Gate1Q {
                qubit: 0,
                waveforms: vec![cal.qubit(0).rx180_waveform("x")],
            },
            Block::Gate2Q {
                control: 0,
                target: 1,
                schedule: cal.cmd_def().get("cx", &[0, 1]).unwrap().clone(),
            },
        ];
        let program = LoweredProgram {
            num_qubits: 2,
            blocks,
            schedule: Schedule::new("p"),
        };
        // Density-matrix reference.
        let exec = PulseExecutor::new(&device);
        let mut rng_a = seeded(5);
        let dm = exec.run(&program, &mut rng_a);
        // Trajectory ensemble (fused path).
        let traj = TrajectoryExecutor::new(&device, 96).with_fusion(true);
        let mut rng_b = seeded(6);
        let counts = traj.run(&program, 48_000, &mut rng_b);
        let total: u64 = counts.iter().sum();
        for (i, (&c, &p)) in counts.iter().zip(&dm.probabilities).enumerate() {
            let freq = c as f64 / total as f64;
            assert!(
                (freq - p).abs() < 0.04,
                "outcome {i}: trajectory {freq:.3} vs density {p:.3}"
            );
        }
    }

    #[test]
    fn fused_counts_match_unfused_counts_bit_identically() {
        let mut rng = seeded(11);
        let device = DeviceModel::almaden_like(3, &mut rng);
        let cal = calibrate(&device, &mut rng);
        let blocks = vec![
            Block::Gate1Q {
                qubit: 0,
                waveforms: vec![cal.qubit(0).rx180_waveform("x")],
            },
            Block::Gate2Q {
                control: 0,
                target: 1,
                schedule: cal.cmd_def().get("cx", &[0, 1]).unwrap().clone(),
            },
            Block::Gate2Q {
                control: 1,
                target: 2,
                schedule: cal.cmd_def().get("cx", &[1, 2]).unwrap().clone(),
            },
            Block::Idle {
                qubit: 0,
                duration: 2_000,
            },
        ];
        let program = LoweredProgram {
            num_qubits: 3,
            blocks,
            schedule: Schedule::new("ghz"),
        };
        let pool = ShotPool::from_env();
        for root in [3u64, 0xBEEF, 0x5EED] {
            let fused = TrajectoryExecutor::new(&device, 12)
                .with_fusion(true)
                .try_run_pooled(&program, 3_000, root, &pool)
                .unwrap();
            let unfused = TrajectoryExecutor::new(&device, 12)
                .with_fusion(false)
                .try_run_pooled(&program, 3_000, root, &pool)
                .unwrap();
            assert_eq!(fused, unfused, "root {root}");
        }
    }

    #[test]
    fn relaxation_sampling_decays_excited_state() {
        let mut rng = seeded(3);
        let device = DeviceModel::almaden_like(1, &mut rng);
        let traj = TrajectoryExecutor::new(&device, 256);
        // |1⟩ then a long idle (~0.7·T1): survival ≈ exp(−0.7) ≈ 0.5.
        let cal = calibrate(&device, &mut rng);
        let t1_samples = (device.qubit(0).t1 * 0.7 / DT) as u64;
        let program = LoweredProgram {
            num_qubits: 1,
            blocks: vec![
                Block::Gate1Q {
                    qubit: 0,
                    waveforms: vec![cal.qubit(0).rx180_waveform("x")],
                },
                Block::Idle {
                    qubit: 0,
                    duration: t1_samples,
                },
            ],
            schedule: Schedule::new("decay"),
        };
        let counts = traj.run(&program, 16_000, &mut rng);
        let p1 = counts[1] as f64 / 16_000.0;
        assert!(
            (p1 - 0.5_f64).abs() < 0.08,
            "survival after 0.7·T1 should be ≈0.5 (readout-adjusted): {p1}"
        );
    }
}
