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
//! # One job, one set of pulses
//!
//! Before the fan-out, a run calls the density executor's own prepare and
//! integrate phases. Prepare walks the program once into its timeline: a
//! SPAM point per qubit, each waveform, each pair (its topology resolved,
//! so a bad pair is an error before any trajectory runs), and each qubit's
//! thermal relaxation for exactly the wall-clock time it spends, with
//! pairs starting as soon as both qubits are free and every qubit waiting
//! for the common measurement. The same walk draws every amplitude jitter
//! of the job from the caller's jitter RNG, once: jitter is a per-job
//! realization (no drift within a job), exactly as on the density
//! executor, so one jitter lane gives both executors the same channel.
//! Integrate then turns each pulse into its qubit-space propagator, once
//! per job, fanned out over the pool.
//!
//! # Two routes over one timeline
//!
//! Trajectories share those propagators read-only and keep only what is
//! stochastic per trajectory: SPAM flips, relaxation Kraus-branch
//! sampling, the state-vector sweeps and readout. A leaky (sub-unitary)
//! pulse block is applied and the state renormalized, where the density
//! executor deposits the leaked weight on a basis state. Both routes
//! replay the timeline's events, and each event is a fixed set of
//! random-draw sites, so the draw *sequence* of a trajectory is the same
//! on either route. Trajectories fan over a [`ShotPool`] with
//! one root `u64` and a `stream_seed(root, index)` RNG stream per
//! trajectory, so counts are **bit-identical at any `OPC_THREADS`** (the
//! same contract as the shot engine and the calibration fan-out); each
//! worker reuses one [`StateVector`] + [`KernelScratch`], and measurement
//! outcomes are drawn by binary search on a per-trajectory cumulative
//! distribution.
//!
//! # Fast route: fused
//!
//! The executor hoists a [`quant_sim::fusion::FusionPlan`] over the
//! timeline: its unitary stream (SPAM flips, 1q pulse blocks, 2q CR
//! propagators) and its stochastic channel points (sampled thermal
//! relaxation) are planned into fused blocks of up to five qubits, once
//! per program. Each trajectory then *replays* the plan: gates and sampled
//! Kraus branches fold into small (`≤ 32×32`) block accumulators, channel
//! branches are weighed against a per-block reduced density matrix
//! (`Tr(K†K·ρ_B)`, exact for local operators) instead of sweeping the full
//! state per branch, and the state is touched only when a block closes —
//! one blocked-kernel sweep per fused block instead of several per gate
//! and per channel stage. Normalization is folded into the Kraus branches
//! (`K/√p` like the reference route's per-stage renormalize), so no
//! separate normalize sweeps remain.
//!
//! Branch weights agree with the reference route's to rounding, so sampled
//! counts stay bit-identical in practice across thread counts and against
//! the reference route (a draw landing within one ulp of a branch boundary
//! is a vanishing coincidence; CI pins it).
//!
//! # Reference route
//!
//! [`TrajectoryExecutor::with_reference_path`] replays the same events one
//! at a time through the retained skip-scan reference kernels, samples
//! each channel by trial-applying every branch to a cloned state — the
//! cross-check (and the perfsuite baseline) for the fused route's kernels
//! and branch sampling; it bypasses fusion entirely. Both routes read the
//! same per-job propagators.

use crate::device::DeviceModel;
use crate::executor::{prepare, propagator, ExecError, LoweredProgram, ShotPool};
use crate::params::DT;
use crate::timeline::Event;
use quant_math::{seeded, stream_seed, CMat, C64};
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
/// channel-weight and cumulative-distribution buffers, and the runtime
/// fused-block accumulators for the fused route.
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

/// The per-job hoisted plan: the timeline's events, each pulse event's
/// propagator (by event index; `None` for SPAM and relaxation), its
/// relaxation tables (indexed by [`Event::Relax`]), and — except on the
/// reference route — the fusion plan over the events. Built once per
/// [`TrajectoryExecutor::try_run_pooled`] call, before the fan-out, and
/// shared read-only by every pool worker.
struct Plan<'p> {
    events: Vec<Event<'p>>,
    gates: Vec<Option<CMat>>,
    relax: Vec<RelaxTable>,
    fusion: Option<FusionPlan>,
}

/// The trajectory executor.
#[derive(Clone, Debug)]
pub struct TrajectoryExecutor<'a> {
    device: &'a DeviceModel,
    trajectories: usize,
    reference: bool,
}

impl<'a> TrajectoryExecutor<'a> {
    /// Creates an executor that averages over `trajectories` noise
    /// realizations on the fused route. A zero count is reported by
    /// [`TrajectoryExecutor::try_run_pooled`] as
    /// [`ExecError::NoTrajectories`].
    pub fn new(device: &'a DeviceModel, trajectories: usize) -> Self {
        TrajectoryExecutor {
            device,
            trajectories,
            reference: false,
        }
    }

    /// Routes every state update through the reference (skip-scan)
    /// state-vector path instead of the fused plan replay. Both routes
    /// read the same per-job propagators. Slow; used by the equivalence
    /// tests and as the perfsuite baseline.
    pub fn with_reference_path(mut self) -> Self {
        self.reference = true;
        self
    }

    /// Runs the program, sampling `shots` measurement outcomes spread over
    /// the trajectories, and returns counts over the `2ⁿ` outcomes
    /// (readout error applied per shot). A register that does not fit the
    /// device and topology mismatches are [`ExecError`]s, reported before
    /// any trajectory runs — also at zero shots.
    ///
    /// Every amplitude jitter of the job is drawn from `jitter`, once, as
    /// [`PulseExecutor::try_run_pooled`](crate::PulseExecutor::try_run_pooled)
    /// draws it: the same jitter RNG state gives both executors the same
    /// pulses. Each pulse is then integrated once, fanned out over `pool`.
    /// Trajectory `i` runs on `seeded(stream_seed(root, i))` and shots are
    /// split across trajectories by index (`shots/T` each, the first
    /// `shots % T` taking one extra), so the returned counts depend only on
    /// `(program, jitter, shots, root)` — never on the size of `pool`. The
    /// program's timeline, its propagators and (off the reference route)
    /// the fusion plan over it are built once, before the fan-out, and
    /// replayed read-only by every worker.
    pub fn try_run_pooled(
        &self,
        program: &LoweredProgram,
        jitter: &mut impl Rng,
        shots: usize,
        root: u64,
        pool: &ShotPool,
    ) -> Result<Vec<u64>, ExecError> {
        if self.trajectories == 0 {
            return Err(ExecError::NoTrajectories);
        }
        let plan = self.plan(program, jitter, pool)?;
        let n = program.num_qubits as usize;
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
                    None => self.evolve(&plan, &mut w.psi, &mut rng),
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

    /// Hoists everything trajectories share: the program's jittered
    /// timeline (register-width and topology errors surface here), each
    /// pulse's propagator integrated once over `pool`, one relaxation
    /// table per distinct `(qubit, duration)`, and off the reference route
    /// the fusion plan over the timeline's events — one op per random-draw
    /// site.
    fn plan<'p>(
        &self,
        program: &'p LoweredProgram,
        jitter: &mut impl Rng,
        pool: &ShotPool,
    ) -> Result<Plan<'p>, ExecError> {
        let device = self.device;
        let (line, cache) = prepare(device, program, true, jitter)?;
        let gates = pool.map_indices(line.events.len(), |i| {
            propagator(device, &line.events[i], cache)
        });
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
        let fusion = (!self.reference).then(|| {
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
            gates,
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
                    Event::Play { .. } | Event::Pair { .. } => {
                        if let Some(u) = &plan.gates[*op] {
                            fold_op(w, *block, u, local);
                        }
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

    /// Evolves one stochastic trajectory in the worker's reused state by
    /// replaying the timeline's events one by one through the reference
    /// kernels — the reference route.
    fn evolve(&self, plan: &Plan, psi: &mut StateVector, rng: &mut impl Rng) {
        psi.reset_zero();
        let p_reset = self.device.reset_excited_prob();
        for (event, gate) in plan.events.iter().zip(&plan.gates) {
            match (event, gate) {
                (Event::Spam(q), _) => {
                    if p_reset > 0.0 && rng.gen::<f64>() < p_reset {
                        psi.apply_unitary_ref(&quant_sim::gates::x(), &[*q as usize]);
                    }
                }
                (Event::Relax(id), _) => relax_sampled(psi, &plan.relax[*id], rng),
                // Sub-unitary contraction (leakage): renormalize.
                (Event::Play { qubit, .. }, Some(b)) => {
                    psi.apply_unitary_ref(b, &[*qubit as usize]);
                    psi.normalize();
                }
                (
                    Event::Pair {
                        control, target, ..
                    },
                    Some(u),
                ) => {
                    psi.apply_unitary_ref(u, &[*control as usize, *target as usize]);
                    psi.normalize();
                }
                (Event::Play { .. } | Event::Pair { .. }, None) => {}
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
}

/// Samples one branch per stage of a hoisted thermal-relaxation channel
/// on the reference route: trial-apply every branch to a cloned state,
/// then keep the sampled one, renormalized.
fn relax_sampled(psi: &mut StateVector, table: &RelaxTable, rng: &mut impl Rng) {
    for stage in &table.stages {
        let mut probs = Vec::with_capacity(stage.len());
        let mut branches = Vec::with_capacity(stage.len());
        for k in stage {
            let mut trial = psi.clone();
            let prob = trial.apply_kraus_branch_ref(k, &[table.qubit]);
            probs.push(prob.max(0.0));
            branches.push(trial);
        }
        let choice = quant_math::categorical(rng, &probs);
        let mut chosen = branches.swap_remove(choice);
        chosen.normalize();
        *psi = chosen;
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
/// fused equivalent of the reference route's apply-then-normalize.
///
/// The ρ capture is exact, not approximate: before (re)capturing, every
/// *other* open block with pending content is flushed into the state
/// (disjoint supports commute, so early application preserves program
/// order), and the querying block's own accumulator is conjugated on
/// top. The branch weights therefore match the reference route's
/// `‖Kψ‖²` ratios to floating-point rounding, which is what keeps the
/// categorical draws — and hence the sampled counts — aligned across
/// the fused and reference routes.
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
    use crate::twoqubit::EXPONENTIALS;
    use quant_pulse::Schedule;

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
                exec.try_run_pooled(&program, &mut seeded(1), shots, 1, &ShotPool::serial()),
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
        let dm = exec
            .try_run(&program, &mut seeded(5))
            .expect("program runs");
        // Trajectory ensemble (fused route) on the same jitter draws.
        let traj = TrajectoryExecutor::new(&device, 96);
        let counts = traj
            .try_run_pooled(
                &program,
                &mut seeded(5),
                48_000,
                seeded(6).gen(),
                &ShotPool::from_env(),
            )
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
    fn trajectories_do_not_integrate_pulses() {
        // Every pulse is integrated once per job, before the fan-out: the
        // 3×3 exponentials a serial job evaluates are the same at 1 and at
        // 16 trajectories, on either route.
        let mut rng = seeded(13);
        let device = DeviceModel::almaden_like(2, &mut rng);
        let cal = calibrate(&device, &mut rng);
        let program = LoweredProgram {
            num_qubits: 2,
            blocks: vec![
                Block::Gate1Q {
                    qubit: 0,
                    waveforms: vec![cal.qubit(0).rx180_waveform("x")],
                },
                Block::Gate2Q {
                    control: 0,
                    target: 1,
                    schedule: cal.cmd_def().get("cx", &[0, 1]).unwrap().clone(),
                },
            ],
            schedule: Schedule::new("p"),
        };
        for reference in [false, true] {
            let exponentials = |trajectories: usize| {
                let mut exec = TrajectoryExecutor::new(&device, trajectories);
                if reference {
                    exec = exec.with_reference_path();
                }
                let before = EXPONENTIALS.get();
                exec.try_run_pooled(&program, &mut seeded(5), 1_600, 9, &ShotPool::serial())
                    .unwrap();
                EXPONENTIALS.get() - before
            };
            let one = exponentials(1);
            assert!(one > 0, "the job integrates its CR pulse");
            assert_eq!(exponentials(16), one, "reference route: {reference}");
        }
    }

    #[test]
    fn fused_counts_match_reference_counts_bit_identically() {
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
                .try_run_pooled(&program, &mut seeded(root), 3_000, root, &pool)
                .unwrap();
            let reference = TrajectoryExecutor::new(&device, 12)
                .with_reference_path()
                .try_run_pooled(&program, &mut seeded(root), 3_000, root, &pool)
                .unwrap();
            assert_eq!(fused, reference, "root {root}");
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
        let root = rng.gen();
        let counts = traj
            .try_run_pooled(&program, &mut rng, 16_000, root, &ShotPool::from_env())
            .unwrap();
        let p1 = counts[1] as f64 / 16_000.0;
        assert!(
            (p1 - 0.5_f64).abs() < 0.08,
            "survival after 0.7·T1 should be ≈0.5 (readout-adjusted): {p1}"
        );
    }
}
