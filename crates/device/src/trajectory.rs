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
//! # One timeline, three routes
//!
//! Before the fan-out, a run walks the program once into its timeline —
//! the same walk the density executor follows: a SPAM point per qubit,
//! each waveform, each pair (its topology resolved, so a bad pair is an
//! error before any trajectory runs), and each qubit's thermal relaxation
//! for exactly the wall-clock time it spends, with pairs starting as soon
//! as both qubits are free and every qubit waiting for the common
//! measurement. Every route replays that event list, and each event is a
//! fixed set of random-draw sites, so the draw *sequence* of a trajectory
//! is the same on every route. Trajectories fan over a [`ShotPool`] with
//! one root `u64` and a `stream_seed(root, index)` RNG stream per
//! trajectory, so counts are **bit-identical at any `OPC_THREADS`** (the
//! same contract as the shot engine and the calibration fan-out); each
//! worker reuses one [`StateVector`] + [`KernelScratch`], and measurement
//! outcomes are drawn by binary search on a per-trajectory cumulative
//! distribution.
//!
//! # Fast path: fused
//!
//! By default (`OPC_FUSION` unset or ≠ `0`) the executor hoists a
//! [`quant_sim::fusion::FusionPlan`] over the timeline: its unitary
//! stream (SPAM flips, 1q waveform gates, 2q CR schedules) and its
//! stochastic channel points (sampled thermal relaxation) are planned into
//! fused blocks of up to five qubits, once per program. Each trajectory
//! then *replays* the plan: gates and sampled Kraus branches fold into
//! small (`≤ 32×32`) block accumulators, channel branches are weighed
//! against a per-block reduced density matrix (`Tr(K†K·ρ_B)`, exact for
//! local operators) instead of sweeping the full state per branch, and the
//! state is touched only when a block closes — one blocked-kernel sweep per
//! fused block instead of several per gate and per channel stage.
//! Normalization is folded into the Kraus branches (`K/√p` like the
//! reference path's per-stage renormalize), so no separate normalize
//! sweeps remain.
//!
//! Branch weights agree with the unfused routes' to rounding, so sampled
//! counts stay bit-identical in practice across `OPC_FUSION=0/1`, across
//! thread counts, and against the reference path (a draw landing within
//! one ulp of a branch boundary is the same vanishing coincidence the
//! kernel-vs-reference contract already tolerates; CI pins it).
//!
//! # Unfused and reference routes
//!
//! `OPC_FUSION=0` replays the timeline one event at a time through the
//! stride kernels, weighing channel branches in place
//! (`KernelScratch::branch_weight`).
//! [`TrajectoryExecutor::with_reference_path`] replays the same events
//! through the retained skip-scan reference kernels and every two-qubit
//! schedule through the per-sample reference integrator instead — the
//! cross-check (and the perfsuite baseline) for both fast paths; it
//! bypasses fusion entirely.

use crate::device::DeviceModel;
use crate::executor::{jittered, qubit_block, ExecError, LoweredProgram, ShotPool};
use crate::params::DT;
use crate::timeline::{timeline, Event};
use crate::transmon::DriveState;
use crate::twoqubit::CrPair;
use quant_math::{seeded, stream_seed, CMat, C64};
use quant_pulse::{Channel, Instruction, Schedule, Waveform};
use quant_sim::fusion::{FusionPlan, OpDesc, Step, MAX_FUSED_WEIGHT};
use quant_sim::{channels, KernelScratch, StateVector};
use rand::Rng;
use std::borrow::Cow;

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
/// channel-weight and cumulative-distribution buffers, and the runtime
/// fused-block accumulators for the fused path.
struct TrajWorker {
    psi: StateVector,
    scratch: KernelScratch,
    weights: Vec<f64>,
    cdf: Vec<f64>,
    blocks: Vec<RtBlock>,
    op_tmp: CMat,
}

impl TrajWorker {
    fn new(n: usize, fusion: Option<&FusionPlan>) -> Self {
        let blocks = match fusion {
            Some(plan) => plan
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

/// One hoisted relaxation channel: the Kraus stages for one distinct
/// `(qubit, samples)` of the timeline, plus each branch's precomputed
/// `K†K` weight operator for the fused route.
#[derive(Clone, Debug)]
struct RelaxTable {
    qubit: usize,
    stages: Vec<Vec<CMat>>,
    weight_ops: Vec<Vec<CMat>>,
}

/// The per-program hoisted plan: the timeline's events, its relaxation
/// tables (indexed by [`Event::Relax`]), and on the fused route the fusion
/// plan over the events. Built once per
/// [`TrajectoryExecutor::try_run_pooled`] call, before the fan-out, and
/// shared read-only by every pool worker.
struct Plan<'p> {
    events: Vec<Event<'p>>,
    relax: Vec<RelaxTable>,
    fusion: Option<FusionPlan>,
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
    /// count is reported by [`TrajectoryExecutor::try_run_pooled`] as
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
    /// the trajectories, and returns counts over the `2ⁿ` outcomes
    /// (readout error applied per shot). A register that does not fit the
    /// device and topology mismatches are [`ExecError`]s, reported before
    /// any trajectory runs — also at zero shots.
    ///
    /// Trajectory `i` runs on `seeded(stream_seed(root, i))` and shots are
    /// split across trajectories by index (`shots/T` each, the first
    /// `shots % T` taking one extra), so the returned counts depend only on
    /// `(program, shots, root)` — never on the size of `pool`. The
    /// program's timeline (and, when fusion is enabled, the fusion plan
    /// over it) is built once, before the fan-out, and replayed read-only
    /// by every worker.
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
        let plan = self.plan(program)?;
        let trajectories = self.trajectories.min(shots.max(1));
        let base = shots / trajectories;
        let extra = shots % trajectories;
        let sampled = pool.map_indices_with(
            trajectories,
            || TrajWorker::new(n, plan.fusion.as_ref()),
            |w, i| {
                let take = base + usize::from(i < extra);
                if take == 0 {
                    return Vec::new();
                }
                let mut rng = seeded(stream_seed(root, i as u64));
                match &plan.fusion {
                    Some(fusion) => self.evolve_fused(&plan, fusion, w, &mut rng),
                    None => self.evolve(&plan, w, &mut rng),
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
                outcomes
            },
        );
        // Reduce in trajectory-index order (u64 additions, so the total is
        // exact and thread-count independent either way).
        let mut counts = vec![0u64; 1 << n];
        for o in sampled.into_iter().flatten() {
            counts[o as usize] += 1;
        }
        Ok(counts)
    }

    /// Hoists everything trajectories share: the program's timeline
    /// (topology errors surface here), one relaxation table per distinct
    /// `(qubit, duration)`, and on the fused route the fusion plan over the
    /// timeline's events — one op per random-draw site.
    fn plan<'p>(&self, program: &'p LoweredProgram) -> Result<Plan<'p>, ExecError> {
        let line = timeline(self.device, program, |event| event)?;
        let relax = line
            .relax
            .iter()
            .map(|&(qubit, samples)| {
                let p = self.device.qubit(qubit);
                let stages = channels::thermal_relaxation(samples as f64 * DT, p.t1, p.t2);
                let weight_ops = stages
                    .iter()
                    .map(|stage| stage.iter().map(|k| &k.dagger() * k).collect())
                    .collect();
                RelaxTable {
                    qubit: qubit as usize,
                    stages,
                    weight_ops,
                }
            })
            .collect();
        let fusion = self.fusion_enabled().then(|| {
            let descs: Vec<OpDesc> = line
                .events
                .iter()
                .map(|event| match event {
                    Event::Spam(q) => OpDesc::local(*q as usize),
                    Event::Relax(id) => OpDesc::local(line.relax[*id].0 as usize),
                    Event::Play { qubit, .. } => OpDesc::unitary(&[*qubit as usize]),
                    Event::Pair {
                        control, target, ..
                    } => OpDesc::unitary(&[*control as usize, *target as usize]),
                })
                .collect();
            let dims = vec![2usize; program.num_qubits as usize];
            FusionPlan::build(&descs, &dims, MAX_FUSED_WEIGHT)
        });
        Ok(Plan {
            events: line.events,
            relax,
            fusion,
        })
    }

    /// Replays the fusion plan for one stochastic trajectory: folds
    /// gates and sampled Kraus branches into the runtime block
    /// accumulators, sweeps the state only at block closes.
    fn evolve_fused(
        &self,
        plan: &Plan,
        fusion: &FusionPlan,
        w: &mut TrajWorker,
        rng: &mut impl Rng,
    ) {
        w.psi.reset_zero();
        let p_reset = self.device.reset_excited_prob();
        for step in &fusion.steps {
            match step {
                Step::Open { block } => {
                    let rt = &mut w.blocks[*block];
                    rt.acc.set_identity();
                    rt.rho_valid = false;
                    rt.open = true;
                    rt.dirty = false;
                }
                Step::Fold { op, block, local } => match &plan.events[*op] {
                    Event::Spam(_) => {
                        if p_reset > 0.0 && rng.gen::<f64>() < p_reset {
                            let x = quant_sim::gates::x();
                            fold_op(w, *block, &x, local);
                        }
                    }
                    Event::Play { qubit, waveform } => {
                        let b = self.play_block(*qubit, waveform, rng);
                        fold_op(w, *block, &b, local);
                    }
                    Event::Pair {
                        control,
                        target,
                        pair,
                        channel,
                        schedule,
                    } => {
                        let u = self.pair_unitary(*control, *target, pair, *channel, schedule, rng);
                        fold_op(w, *block, &u, local);
                    }
                    Event::Relax(id) => {
                        let t = &plan.relax[*id];
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

    /// Evolves one stochastic trajectory in the worker's reused state by
    /// replaying the timeline's events one by one — the unfused route
    /// (`OPC_FUSION=0` or the reference path).
    fn evolve(&self, plan: &Plan, w: &mut TrajWorker, rng: &mut impl Rng) {
        w.psi.reset_zero();
        let p_reset = self.device.reset_excited_prob();
        for event in &plan.events {
            match event {
                Event::Spam(q) => {
                    if p_reset > 0.0 && rng.gen::<f64>() < p_reset {
                        self.apply(w, &quant_sim::gates::x(), &[*q as usize]);
                    }
                }
                Event::Relax(id) => self.relax_sampled(w, &plan.relax[*id], rng),
                Event::Play { qubit, waveform } => {
                    let b = self.play_block(*qubit, waveform, rng);
                    // Sub-unitary contraction: renormalize (leakage is
                    // tiny; the deposited-weight branch is negligible at
                    // trajectory resolution).
                    self.apply(w, &b, &[*qubit as usize]);
                    w.psi.normalize();
                }
                Event::Pair {
                    control,
                    target,
                    pair,
                    channel,
                    schedule,
                } => {
                    let u = self.pair_unitary(*control, *target, pair, *channel, schedule, rng);
                    self.apply(w, &u, &[*control as usize, *target as usize]);
                    w.psi.normalize();
                }
            }
        }
    }

    /// One jittered single-qubit waveform's qubit block.
    fn play_block(&self, qubit: u32, waveform: &Waveform, rng: &mut impl Rng) -> CMat {
        let sigma = self.device.pulse_amp_jitter();
        let waveform = jittered(Cow::Borrowed(waveform), sigma, rng);
        let u3x3 = self
            .device
            .transmon_exec(qubit)
            .integrate_play(&mut DriveState::default(), &waveform);
        qubit_block(&u3x3)
    }

    /// One jittered two-qubit schedule's qubit-space propagator, through
    /// the per-sample reference integrator on the reference path.
    fn pair_unitary(
        &self,
        control: u32,
        target: u32,
        pair: &CrPair,
        channel: Channel,
        schedule: &Schedule,
        rng: &mut impl Rng,
    ) -> CMat {
        let schedule = self.jitter_schedule(schedule, rng);
        let (c_drive, t_drive) = (Channel::Drive(control), Channel::Drive(target));
        if self.reference {
            pair.integrate_ref(&schedule, c_drive, t_drive, channel)
                .unitary
        } else {
            pair.integrate(&schedule, c_drive, t_drive, channel).unitary
        }
    }

    /// Samples one branch of a hoisted thermal-relaxation channel.
    ///
    /// Fast path: every branch of a stage is weighed in place
    /// (`‖Kψ‖²` via [`KernelScratch::branch_weight`]) and only the chosen
    /// operator is applied — no per-branch clone of the `O(2ⁿ)` state.
    /// Reference path: the original clone-per-branch route.
    fn relax_sampled(&self, w: &mut TrajWorker, table: &RelaxTable, rng: &mut impl Rng) {
        let qubit = table.qubit;
        let TrajWorker {
            psi,
            scratch,
            weights,
            ..
        } = w;
        for stage in &table.stages {
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

    /// Returns a copy of a schedule with fresh amplitude jitter on every
    /// `Play`. Unlike the density executor's, it draws no CR
    /// calibration-transfer term.
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
                    waveform: jittered(Cow::Borrowed(waveform), sigma, rng).into_owned(),
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
    use crate::executor::{Block, PulseExecutor};

    #[test]
    fn zero_trajectories_is_an_error_not_a_panic() {
        let device = DeviceModel::almaden_like(2, &mut seeded(2));
        let program = LoweredProgram {
            num_qubits: 2,
            blocks: Vec::new(),
            schedule: Schedule::new("p"),
        };
        let exec = TrajectoryExecutor::new(&device, 0);
        for shots in [0, 100] {
            assert_eq!(
                exec.try_run_pooled(&program, shots, 1, &ShotPool::serial()),
                Err(ExecError::NoTrajectories)
            );
        }
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
        let counts = traj
            .try_run_pooled(&program, 48_000, seeded(6).gen(), &ShotPool::from_env())
            .unwrap();
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
        let counts = traj
            .try_run_pooled(&program, 16_000, rng.gen(), &ShotPool::from_env())
            .unwrap();
        let p1 = counts[1] as f64 / 16_000.0;
        assert!(
            (p1 - 0.5_f64).abs() < 0.08,
            "survival after 0.7·T1 should be ≈0.5 (readout-adjusted): {p1}"
        );
    }
}
