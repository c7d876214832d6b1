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
//! # Shared per job, stochastic per trajectory
//!
//! Trajectories share those propagators read-only and keep only what is
//! stochastic per trajectory: SPAM flips, relaxation Kraus-branch
//! sampling, the state-vector sweeps and readout. A leaky (sub-unitary)
//! pulse block is applied and the state renormalized, where the density
//! executor deposits the leaked weight on a basis state. Each event of
//! the timeline is a fixed set of random-draw sites. Trajectories fan
//! over a [`ShotPool`] with one root `u64` and a `stream_seed(root,
//! index)` RNG stream per trajectory, so counts are **bit-identical at
//! any `OPC_THREADS`** (the same contract as the shot engine and the
//! calibration fan-out); each worker reuses one [`StateVector`] +
//! [`KernelScratch`], and measurement outcomes are drawn by binary search
//! on a per-trajectory cumulative distribution.
//!
//! # Fused replay
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
//! (`K/√p`, the per-stage renormalize of an event-by-event replay), so no
//! separate normalize sweeps remain.
//!
//! # Oracle
//!
//! The test-only `oracle` module at the end of this file replays the same
//! timeline one event at a time, sampling each relaxation stage by
//! trial-applying every branch to a cloned state, through the same
//! prepare, integrate and sampling code. Its branch weights agree with the
//! fused replay's to rounding, so at a fixed root its counts equal the
//! fused counts bit for bit in practice (a draw landing within one ulp of
//! a branch boundary is a vanishing coincidence); the oracle tests pin
//! that over generated programs at any thread count.

use crate::device::DeviceModel;
use crate::executor::{prepare, propagator, ExecError, LoweredProgram, ShotPool};
use crate::params::DT;
use crate::timeline::Event;
use quant_math::{seeded, stream_seed, CMat, C64};
use quant_sim::fusion::{FusionPlan, OpDesc, Step, MAX_FUSED_WEIGHT};
use quant_sim::{channels, KernelScratch, StateVector};
use rand::rngs::StdRng;
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
/// fused-block accumulators.
struct TrajWorker {
    psi: StateVector,
    scratch: KernelScratch,
    weights: Vec<f64>,
    cdf: Vec<f64>,
    blocks: Vec<RtBlock>,
    op_tmp: CMat,
}

impl TrajWorker {
    fn new(n: usize, fusion: &FusionPlan) -> Self {
        TrajWorker {
            psi: StateVector::zero_qubits(n),
            scratch: KernelScratch::new(),
            weights: Vec::new(),
            cdf: Vec::new(),
            blocks: fusion
                .blocks
                .iter()
                .map(|b| RtBlock::new(&b.targets))
                .collect(),
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
/// `K†K` weight operator.
#[derive(Clone, Debug)]
struct RelaxTable {
    stages: Vec<Vec<CMat>>,
    weight_ops: Vec<Vec<CMat>>,
}

/// The per-job hoisted plan: the timeline's events, each pulse event's
/// propagator (by event index; `None` for SPAM and relaxation), its
/// relaxation tables (indexed by [`Event::Relax`]), and the fusion plan
/// over the events. Built once per [`TrajectoryExecutor::try_run_pooled`]
/// call, before the fan-out, and shared read-only by every pool worker.
struct Plan<'p> {
    events: Vec<Event<'p>>,
    gates: Vec<Option<CMat>>,
    relax: Vec<RelaxTable>,
    fusion: FusionPlan,
}

/// The trajectory executor.
#[derive(Clone, Debug)]
pub struct TrajectoryExecutor<'a> {
    device: &'a DeviceModel,
    trajectories: usize,
}

impl<'a> TrajectoryExecutor<'a> {
    /// Creates an executor that averages over `trajectories` noise
    /// realizations. A zero count is reported by
    /// [`TrajectoryExecutor::try_run_pooled`] as
    /// [`ExecError::NoTrajectories`].
    pub fn new(device: &'a DeviceModel, trajectories: usize) -> Self {
        TrajectoryExecutor {
            device,
            trajectories,
        }
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
    /// program's timeline, its propagators and the fusion plan over it are
    /// built once, before the fan-out, and replayed read-only by every
    /// worker.
    pub fn try_run_pooled(
        &self,
        program: &LoweredProgram,
        jitter: &mut impl Rng,
        shots: usize,
        root: u64,
        pool: &ShotPool,
    ) -> Result<Vec<u64>, ExecError> {
        self.sample(program, jitter, shots, root, pool, |plan, w, rng| {
            self.evolve_fused(plan, w, rng)
        })
    }

    /// The body of [`TrajectoryExecutor::try_run_pooled`], with `evolve`
    /// taking one trajectory's state from `|0…0⟩` through the plan (the
    /// fused replay; the oracle tests pass an event-by-event replay).
    fn sample(
        &self,
        program: &LoweredProgram,
        jitter: &mut impl Rng,
        shots: usize,
        root: u64,
        pool: &ShotPool,
        evolve: impl Fn(&Plan, &mut TrajWorker, &mut StdRng) + Sync,
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
            || TrajWorker::new(n, &plan.fusion),
            |w, i| {
                let take = base + usize::from(i < extra);
                if take == 0 {
                    return Vec::new();
                }
                let mut rng = seeded(stream_seed(root, i as u64));
                evolve(&plan, w, &mut rng);
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
    /// table per distinct `(qubit, duration)`, and the fusion plan over the
    /// timeline's events — one op per random-draw site.
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
                RelaxTable { stages, weight_ops }
            })
            .collect();
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
        let fusion = FusionPlan::build(&descs, &dims, MAX_FUSED_WEIGHT);
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
    fn evolve_fused(&self, plan: &Plan, w: &mut TrajWorker, rng: &mut impl Rng) {
        w.psi.reset_zero();
        let p_reset = self.device.reset_excited_prob();
        for step in &plan.fusion.steps {
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

/// Folds a gate `op` into block `block`'s accumulator at the given local
/// digit positions, keeping the block's cached reduced density in sync
/// when present.
///
/// A leaky pulse block is not trace-preserving, so it perturbs the
/// marginals other open blocks see, yet their cached densities are left
/// as they are: the timeline follows every pulse with a relaxation of one
/// of its qubits, and that fold ([`relax_stage_fused`]) drops them all
/// before any other block can weigh a branch. SPAM flips are unitary.
fn fold_op(w: &mut TrajWorker, block: usize, op: &CMat, local: &[usize]) {
    let TrajWorker {
        scratch, blocks, ..
    } = w;
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
/// fused equivalent of an event-by-event apply-then-normalize.
///
/// The ρ capture is exact, not approximate: before (re)capturing, every
/// *other* open block with pending content is flushed into the state
/// (disjoint supports commute, so early application preserves program
/// order), and the querying block's own accumulator is conjugated on
/// top. The branch weights therefore match an event-by-event replay's
/// `‖Kψ‖²` ratios to floating-point rounding, which is what keeps the
/// categorical draws — and hence the sampled counts — aligned with the
/// oracle's (see the module doc).
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
    // The sampled branch below is not trace-preserving, and neither was
    // the leaky pulse block this relaxation may follow ([`fold_op`]):
    // every foreign cached marginal is stale.
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
    #[cfg(test)]
    record_weights(weights);
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
thread_local! {
    /// While `Some`, each relaxation stage's branch weights, scaled to
    /// sum to 1, in draw order, as this thread's replays weigh them.
    static BRANCH_WEIGHTS: std::cell::RefCell<Option<Vec<Vec<f64>>>> =
        const { std::cell::RefCell::new(None) };
}

/// Appends one stage's branch weights to [`BRANCH_WEIGHTS`] when it is
/// recording.
#[cfg(test)]
fn record_weights(weights: &[f64]) {
    BRANCH_WEIGHTS.with_borrow_mut(|log| {
        if let Some(log) = log {
            let total: f64 = weights.iter().sum();
            log.push(weights.iter().map(|w| w / total).collect());
        }
    });
}

#[cfg(test)]
/// The trajectory executor's oracle: each trajectory replays the timeline
/// one event at a time on the full state vector — every pulse applied and
/// the state renormalized, every relaxation stage sampled by
/// trial-applying each Kraus branch to a cloned state and keeping the
/// drawn one, renormalized. It runs inside the production
/// [`TrajectoryExecutor::sample`], so prepare, integrate, the per-trajectory
/// seeds and the shot sampling are the executor's own; only the fused
/// replay is swapped out.
mod oracle {
    use super::*;
    use crate::calibration::calibrate;
    use crate::executor::testgen::{qaoa_line_program, random_program, ProgramBuilder};
    use crate::executor::Block;
    use crate::timeline::timeline;
    use crate::twoqubit::WORK;

    /// [`TrajectoryExecutor::try_run_pooled`] with the event-by-event
    /// replay in place of the fused one.
    fn run(
        exec: &TrajectoryExecutor,
        program: &LoweredProgram,
        jitter: &mut impl Rng,
        shots: usize,
        root: u64,
        pool: &ShotPool,
    ) -> Result<Vec<u64>, ExecError> {
        // The qubit of each relaxation id: the same walk, without jitter.
        let relax_qubits: Vec<usize> = timeline(exec.device, program, |_| ())
            .map(|line| line.relax.iter().map(|&(q, _)| q as usize).collect())
            .unwrap_or_default();
        exec.sample(program, jitter, shots, root, pool, |plan, w, rng| {
            evolve(exec, plan, &relax_qubits, w, rng)
        })
    }

    fn evolve(
        exec: &TrajectoryExecutor,
        plan: &Plan,
        relax_qubits: &[usize],
        w: &mut TrajWorker,
        rng: &mut StdRng,
    ) {
        let TrajWorker { psi, scratch, .. } = w;
        psi.reset_zero();
        let p_reset = exec.device.reset_excited_prob();
        for (event, gate) in plan.events.iter().zip(&plan.gates) {
            match (event, gate) {
                (Event::Spam(q), _) => {
                    if p_reset > 0.0 && rng.gen::<f64>() < p_reset {
                        psi.apply_unitary_scratch(&quant_sim::gates::x(), &[*q as usize], scratch);
                    }
                }
                (Event::Relax(id), _) => {
                    for stage in &plan.relax[*id].stages {
                        relax_sampled(psi, stage, relax_qubits[*id], scratch, rng);
                    }
                }
                // Sub-unitary contraction (leakage): renormalize.
                (Event::Play { qubit, .. }, Some(b)) => {
                    psi.apply_unitary_scratch(b, &[*qubit as usize], scratch);
                    psi.normalize();
                }
                (
                    Event::Pair {
                        control, target, ..
                    },
                    Some(u),
                ) => {
                    let targets = [*control as usize, *target as usize];
                    psi.apply_unitary_scratch(u, &targets, scratch);
                    psi.normalize();
                }
                (Event::Play { .. } | Event::Pair { .. }, None) => {}
            }
        }
    }

    /// Samples one branch of a relaxation stage on qubit `q`: trial-apply
    /// every branch to a cloned state, weigh each by `‖Kψ‖²`, then keep
    /// the drawn one, renormalized.
    fn relax_sampled(
        psi: &mut StateVector,
        stage: &[CMat],
        q: usize,
        scratch: &mut KernelScratch,
        rng: &mut StdRng,
    ) {
        let mut probs = Vec::with_capacity(stage.len());
        let mut branches = Vec::with_capacity(stage.len());
        for k in stage {
            let mut trial = psi.clone();
            trial.apply_unitary_scratch(k, &[q], scratch);
            let norm = trial.norm();
            probs.push((norm * norm).max(0.0));
            branches.push(trial);
        }
        record_weights(&probs);
        let choice = quant_math::categorical(rng, &probs);
        let mut chosen = branches.swap_remove(choice);
        chosen.normalize();
        *psi = chosen;
    }

    /// X on qubit 0, then a CNOT chain down the line: every 1Q, 2Q,
    /// relaxation and readout path runs.
    fn line_program(device: &DeviceModel, n: u32) -> LoweredProgram {
        let cal = calibrate(device, &mut seeded(42));
        let mut b = ProgramBuilder::new(device, &cal, n);
        b.plain(0, "rx180");
        for q in 0..n - 1 {
            b.cx(q, q + 1, false);
        }
        b.finish()
    }

    #[test]
    fn trajectories_do_not_integrate_pulses() {
        // Every pulse is integrated once per job, before the fan-out: the
        // block exponentials a serial job evaluates are the same at 1 and
        // at 16 trajectories, on the executor and on the oracle.
        let mut rng = seeded(13);
        let device = DeviceModel::almaden_like(2, &mut rng);
        let program = line_program(&device, 2);
        for oracle in [false, true] {
            let exponentials = |trajectories: usize| {
                let exec = TrajectoryExecutor::new(&device, trajectories);
                let (jitter, pool) = (&mut seeded(5), &ShotPool::serial());
                let before = WORK.get().exponentials();
                if oracle {
                    run(&exec, &program, jitter, 1_600, 9, pool).unwrap();
                } else {
                    exec.try_run_pooled(&program, jitter, 1_600, 9, pool)
                        .unwrap();
                }
                WORK.get().exponentials() - before
            };
            let one = exponentials(1);
            assert!(one > 0, "the job integrates its CR pulse");
            assert_eq!(exponentials(16), one, "oracle: {oracle}");
        }
    }

    #[test]
    fn fused_counts_match_reference_counts_bit_identically() {
        let mut rng = seeded(11);
        let device = DeviceModel::almaden_like(3, &mut rng);
        let mut program = line_program(&device, 3);
        program.blocks.push(Block::Idle {
            qubit: 0,
            duration: 2_000,
        });
        let pool = ShotPool::from_env();
        let exec = TrajectoryExecutor::new(&device, 12);
        for root in [3u64, 0xBEEF, 0x5EED] {
            let fused = exec
                .try_run_pooled(&program, &mut seeded(root), 3_000, root, &pool)
                .unwrap();
            let reference = run(&exec, &program, &mut seeded(root), 3_000, root, &pool).unwrap();
            assert_eq!(fused, reference, "root {root}");
        }
    }

    #[test]
    fn kernel_path_reproduces_reference_counts_bit_identically() {
        // The fast path reassociates float arithmetic two ways — fused
        // block kernels and branch weighing against a reduced density — so
        // amplitudes may differ from the oracle's at the ulp level. But
        // every stochastic draw consumes the same RNG stream in the same
        // order, so at a fixed root the sampled counts must be
        // bit-identical (an outcome flip would need a uniform draw within
        // ~1e-12 of a branch/cdf boundary).
        let device = DeviceModel::almaden_like(3, &mut seeded(23));
        let program = line_program(&device, 3);
        let exec = TrajectoryExecutor::new(&device, 6);
        for root in [1u64, 0xFEED, 0x5EED_CAFE] {
            let a = exec
                .try_run_pooled(&program, &mut seeded(root), 1500, root, &ShotPool::new(4))
                .unwrap();
            let b = run(
                &exec,
                &program,
                &mut seeded(root),
                1500,
                root,
                &ShotPool::new(1),
            )
            .unwrap();
            assert_eq!(a, b, "kernel swap changed the counts at root {root:#x}");
        }
    }

    #[test]
    fn fused_route_matches_reference_at_any_thread_count() {
        // At a fixed root, the fused plan replay and the oracle must return
        // the same counts, and the fused replay must not care how many
        // threads run it. The program mixes 1Q gates, a CNOT chain (block
        // growth + merge + close) and an explicit idle (a relaxation table
        // entry no gate emits).
        let device = DeviceModel::almaden_like(4, &mut seeded(47));
        let mut program = line_program(&device, 4);
        program.blocks.push(Block::Idle {
            qubit: 1,
            duration: 3_000,
        });
        let exec = TrajectoryExecutor::new(&device, 6);
        let shots = 1800;
        for root in [0x00DD_5EED_u64, 0xFACE] {
            let counts = |pool: &ShotPool| {
                exec.try_run_pooled(&program, &mut seeded(root), shots, root, pool)
                    .unwrap()
            };
            let fused = counts(&ShotPool::new(1));
            assert_eq!(fused.iter().sum::<u64>(), shots as u64);
            for threads in [2, 4] {
                assert_eq!(
                    counts(&ShotPool::new(threads)),
                    fused,
                    "{threads}-thread fused counts diverged at root {root:#x}"
                );
            }
            let reference = run(
                &exec,
                &program,
                &mut seeded(root),
                shots,
                root,
                &ShotPool::new(1),
            )
            .unwrap();
            assert_eq!(
                fused, reference,
                "fused counts diverged from the oracle at root {root:#x}"
            );
        }
    }

    #[test]
    fn oracle_reports_a_topology_error_at_any_shot_count() {
        // The error comes from the program, not from the sampling: a run
        // with zero shots still walks the whole program.
        let device = DeviceModel::almaden_like(3, &mut seeded(37));
        let mut program = line_program(&device, 3);
        if let Some(Block::Gate2Q { target, .. }) = program.blocks.get_mut(1) {
            *target = 2;
        }
        let want = ExecError::UncoupledPair {
            control: 0,
            target: 2,
        };
        let exec = TrajectoryExecutor::new(&device, 4);
        for shots in [0, 100] {
            let got = run(&exec, &program, &mut seeded(9), shots, 9, &ShotPool::new(1));
            assert_eq!(got, Err(want), "oracle at {shots} shots");
        }
    }

    #[test]
    fn textbook_qaoa_line_at_twelve_qubits_matches_the_oracle() {
        // Twelve qubits, past the density executor's reach: the textbook
        // QAOA layer, 8 trajectories and 1024 shots at jitter seed and
        // root 41.
        let mut rng = seeded(7_012);
        let device = DeviceModel::almaden_like(12, &mut rng);
        let cal = calibrate(&device, &mut rng);
        let program = qaoa_line_program(&device, &cal, 12, (0.7, 0.42));
        let exec = TrajectoryExecutor::new(&device, 8);
        let pool = ShotPool::from_env();
        let fused = exec
            .try_run_pooled(&program, &mut seeded(41), 1024, 41, &pool)
            .unwrap();
        let reference = run(&exec, &program, &mut seeded(41), 1024, 41, &pool).unwrap();
        assert_eq!(fused.iter().sum::<u64>(), 1024);
        assert_eq!(fused, reference, "fused counts diverged at n=12, root 41");
    }

    /// The branch weights `f` draws on this thread, per relaxation stage.
    fn weights_of(f: impl FnOnce()) -> Vec<Vec<f64>> {
        BRANCH_WEIGHTS.set(Some(Vec::new()));
        f();
        BRANCH_WEIGHTS.take().unwrap_or_default()
    }

    #[test]
    fn fused_branch_weights_match_the_oracle() {
        // Not the counts but every relaxation stage's branch weights: the
        // fused replay weighs a branch against a block's cached reduced
        // density, the oracle by trial-applying it to the whole state, and
        // the two must agree to rounding at every draw site. Generated
        // programs over widths 2–6 carry leaky pulse blocks (CX and CR(θ)
        // pairs leak ~1e-4 to |2⟩) and long idles, so a cached density
        // left stale by a fold elsewhere moves a weight far past rounding
        // even where it moves no draw: deleting `relax_stage_fused`'s
        // invalidation loop fails this test at a 2e-8 weight difference.
        let pool = ShotPool::serial();
        let mut sites = 0;
        for n in 2..=6u32 {
            let mut rng = seeded(0x3E1 + u64::from(n));
            let device = DeviceModel::almaden_like(n as usize, &mut rng);
            let cal = calibrate(&device, &mut rng);
            let exec = TrajectoryExecutor::new(&device, 3);
            for i in 0..4 {
                let blocks = rng.gen_range(6..6 + 4 * n as usize);
                let (program, shapes) = random_program(&device, &cal, n, blocks, &mut rng);
                let root = rng.gen::<u64>();
                let fused = weights_of(|| {
                    exec.try_run_pooled(&program, &mut seeded(root), 300, root, &pool)
                        .unwrap();
                });
                let oracle = weights_of(|| {
                    run(&exec, &program, &mut seeded(root), 300, root, &pool).unwrap();
                });
                assert_eq!(fused.len(), oracle.len(), "n={n} program {i} {shapes:?}");
                for (k, (a, b)) in fused.iter().zip(&oracle).enumerate() {
                    let d = a
                        .iter()
                        .zip(b)
                        .map(|(x, y)| (x - y).abs())
                        .fold(0.0, f64::max);
                    assert!(
                        a.len() == b.len() && d < 1e-10,
                        "n={n} program {i} site {k}: {a:?} vs oracle {b:?} {shapes:?}"
                    );
                }
                sites += fused.len();
            }
        }
        assert!(sites > 1000, "{sites} draw sites");
    }

    #[test]
    fn generated_programs_match_the_oracle() {
        // 66 generated programs over almaden-like widths 2–12, every block
        // shape lowering emits, 16 trajectories each. Enough trajectories,
        // shots and long idles that a stale or unflushed branch weight in
        // the fused replay moves a draw: deleting `relax_stage_fused`'s
        // invalidation loop, or flushing only some dirty blocks before a
        // capture, fails this test.
        let mut programs = 0;
        let pool = ShotPool::from_env();
        for n in 2..=12u32 {
            let mut rng = seeded(0x7A1 + u64::from(n));
            let device = DeviceModel::almaden_like(n as usize, &mut rng);
            let cal = calibrate(&device, &mut rng);
            let exec = TrajectoryExecutor::new(&device, 16);
            for i in 0..6 {
                let blocks = rng.gen_range(4..4 + 4 * n as usize);
                let (program, shapes) = random_program(&device, &cal, n, blocks, &mut rng);
                let root = rng.gen::<u64>();
                let fused = exec
                    .try_run_pooled(&program, &mut seeded(root), 1_600, root, &pool)
                    .unwrap();
                let reference =
                    run(&exec, &program, &mut seeded(root), 1_600, root, &pool).unwrap();
                assert_eq!(fused, reference, "n={n} program {i} {shapes:?}");
                programs += 1;
            }
        }
        assert!(programs >= 64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::calibrate;
    use crate::executor::{Block, PulseExecutor};
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
