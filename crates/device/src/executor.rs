//! The noisy pulse executor.
//!
//! Consumes a [`LoweredProgram`] — the compiler's output: a sequence of
//! per-gate schedule blocks with virtual-Z frames already resolved into the
//! waveforms — and evolves an n-qubit density matrix through it:
//!
//! * every pulse is integrated against the **drifted** execution-time
//!   device physics (coherent calibration error, §8.3 source 2),
//! * each `Play` gets a fresh additive amplitude jitter (control
//!   electronics noise — this is why one big pulse beats two small ones),
//! * thermal relaxation is applied per qubit for exactly the wall-clock
//!   time it spends, busy or idle (shorter schedules decohere less, §8.3
//!   source 1),
//! * single-qubit leakage out of the computational subspace is captured by
//!   a Kraus completion of the integrated qubit block (smaller amplitudes
//!   leak less, §8.3 source 3),
//! * the final distribution passes through the readout confusion model.
//!
//! A separate single-qutrit path ([`PulseExecutor::run_qutrit`]) evolves the
//! full 3-level density matrix and produces simulated IQ readout points for
//! the paper's §7 counter experiment.

use crate::cache::PulseCache;
use crate::device::DeviceModel;
use crate::params::DT;
use crate::readout;
use crate::timeline::{timeline, Event, Timeline};
use crate::transmon::DriveState;
use quant_math::{normal, CMat, C64};
use quant_pulse::{Channel, Instruction, Schedule, Waveform};
use quant_sim::{channels, DensityMatrix, KernelScratch};
use rand::Rng;
use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Execution failure: the lowered program asked the device for something
/// its topology cannot provide. Compilers targeting the device's coupling
/// map never produce these; hand-built programs (and future multi-backend
/// routing) get a descriptive error instead of a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// A two-qubit block names a (control, target) pair with no directed
    /// coupling edge on the device.
    UncoupledPair {
        /// Control qubit of the offending block.
        control: u32,
        /// Target qubit of the offending block.
        target: u32,
    },
    /// A coupled pair has no CR control channel — an inconsistent device
    /// topology (every coupling edge is supposed to carry one).
    MissingControlChannel {
        /// Control qubit of the offending block.
        control: u32,
        /// Target qubit of the offending block.
        target: u32,
    },
    /// The program's register is empty or wider than the device.
    RegisterWidth {
        /// Qubits the program declares.
        program: u32,
        /// Qubits the device has.
        device: usize,
    },
    /// A trajectory executor was asked to average over zero trajectories.
    NoTrajectories,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UncoupledPair { control, target } => write!(
                f,
                "qubits {control},{target} are not coupled on this device \
                 (no directed edge control={control} -> target={target})"
            ),
            ExecError::MissingControlChannel { control, target } => write!(
                f,
                "coupled pair {control},{target} has no CR control channel \
                 (inconsistent device topology)"
            ),
            ExecError::RegisterWidth { program, device } => write!(
                f,
                "program register of {program} qubit(s) does not fit a \
                 {device}-qubit device (needs 1..={device})"
            ),
            ExecError::NoTrajectories => write!(f, "trajectory count must be at least 1"),
        }
    }
}

impl std::error::Error for ExecError {}

/// One lowered block: a pulse-schedule fragment implementing one gate.
#[derive(Clone, Debug, PartialEq)]
pub enum Block {
    /// A single-qubit gate: waveforms played back-to-back on the qubit's
    /// drive channel (frames pre-resolved).
    Gate1Q {
        /// Target qubit.
        qubit: u32,
        /// Sequential waveforms.
        waveforms: Vec<quant_pulse::Waveform>,
    },
    /// A two-qubit gate: a schedule fragment over the pair's drive channels
    /// and their CR control channel (frames pre-resolved).
    Gate2Q {
        /// Control qubit.
        control: u32,
        /// Target qubit.
        target: u32,
        /// The fragment (times relative to block start).
        schedule: Schedule,
    },
    /// Explicit idling (NO-OP padding, as in Fig. 13's "optimized-slow").
    Idle {
        /// Idling qubit.
        qubit: u32,
        /// Duration in `dt`.
        duration: u64,
    },
}

impl Block {
    /// Duration of the block in `dt`.
    pub fn duration(&self) -> u64 {
        match self {
            Block::Gate1Q { waveforms, .. } => waveforms.iter().map(|w| w.duration()).sum(),
            Block::Gate2Q { schedule, .. } => schedule.duration(),
            Block::Idle { duration, .. } => *duration,
        }
    }

    /// Qubits the block acts on.
    pub fn qubits(&self) -> Vec<u32> {
        match self {
            Block::Gate1Q { qubit, .. } | Block::Idle { qubit, .. } => vec![*qubit],
            Block::Gate2Q {
                control, target, ..
            } => vec![*control, *target],
        }
    }
}

/// A compiled program ready for noisy execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoweredProgram {
    /// Number of qubits.
    pub num_qubits: u32,
    /// Gate blocks in program order.
    pub blocks: Vec<Block>,
    /// The full display schedule (for duration accounting and ASCII art).
    pub schedule: Schedule,
}

impl LoweredProgram {
    /// Total duration in `dt`, from the display schedule.
    pub fn duration(&self) -> u64 {
        self.schedule.duration()
    }

    /// Total number of pulses played.
    pub fn pulse_count(&self) -> usize {
        self.schedule.pulse_count()
    }
}

/// Result of a noisy execution.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// Outcome distribution over `2^n` basis states, *after* readout error.
    pub probabilities: Vec<f64>,
    /// The pre-readout (true) distribution.
    pub true_probabilities: Vec<f64>,
    /// Program duration in `dt`.
    pub duration: u64,
}

impl ExecOutcome {
    /// Samples measurement counts from the post-readout distribution, with
    /// one deterministic RNG stream per shot (`seeded(seed ^ shot_index)`),
    /// so the counts depend only on `(probabilities, seed, shots)`. This is
    /// the one way an outcome becomes counts; callers pass a
    /// [`quant_math::stream_seed`] lane as `seed`.
    pub fn sample_counts_deterministic(&self, seed: u64, shots: usize) -> Vec<u64> {
        let mut counts = vec![0u64; self.probabilities.len()];
        for shot in 0..shots {
            let mut rng = quant_math::seeded(seed ^ shot as u64);
            counts[quant_math::categorical(&mut rng, &self.probabilities)] += 1;
        }
        counts
    }
}

/// The executor.
#[derive(Clone, Debug)]
pub struct PulseExecutor<'a> {
    device: &'a DeviceModel,
    noisy: bool,
}

impl<'a> PulseExecutor<'a> {
    /// An executor with the full noise model.
    pub fn new(device: &'a DeviceModel) -> Self {
        PulseExecutor {
            device,
            noisy: true,
        }
    }

    /// An executor that integrates pulse physics but skips decoherence,
    /// jitter and readout error (for characterizing pure pulse effects).
    pub fn noiseless(device: &'a DeviceModel) -> Self {
        PulseExecutor {
            device,
            noisy: false,
        }
    }

    /// Runs a lowered program, reporting a register that does not fit the
    /// device and topology mismatches as [`ExecError`] instead of
    /// panicking. Serial: [`PulseExecutor::try_run_pooled`] on
    /// [`ShotPool::serial`].
    pub fn try_run(
        &self,
        program: &LoweredProgram,
        rng: &mut impl Rng,
    ) -> Result<ExecOutcome, ExecError> {
        self.try_run_pooled(program, rng, &ShotPool::serial())
    }

    /// Runs a lowered program with its pulse integrations fanned out over
    /// `pool`. The outcome is bit-identical at every thread count, and to
    /// [`PulseExecutor::try_run`], because the run has three phases and
    /// only the pure one is parallel:
    ///
    /// 1. **Prepare** (serial, program order): walk the program's
    ///    timeline — the one as-soon-as-possible alignment and
    ///    trailing-idle rule every executor follows — which resolves each
    ///    two-qubit block's CR pair and control channel (the first
    ///    topology error in program order is the one returned), and draw
    ///    every amplitude jitter from `rng` in the same pass, so the
    ///    random stream is consumed exactly as a one-pass loop would
    ///    consume it.
    /// 2. **Integrate** (parallel, pure): each pulse becomes its
    ///    propagator and then its Kraus channel. Jittered pulses never
    ///    repeat, so a run that draws jitter integrates directly and
    ///    leaves the [`PulseCache`] untouched; noiseless and
    ///    zero-jitter runs go through the cache, where replays hit.
    /// 3. **Evolve** (serial, program order): the density matrix takes
    ///    the timeline's events in order — each pulse's channel, and the
    ///    relaxation for each qubit's wall-clock time, composed once per
    ///    distinct `(qubit, duration)`. Each channel is one pass of the
    ///    channel kernel over the Hermitian half of ρ, with unrolled
    ///    bodies for one- and two-qubit channels
    ///    ([`DensityMatrix::apply_kraus_scratch`]), so ρ stays exactly
    ///    Hermitian.
    ///
    /// Phases 2 and 3 overlap ([`ShotPool::stream_indices_with`]): the
    /// calling thread evolves the density matrix through event `i` as soon
    /// as event `i`'s channel is ready, then drops the channel, and
    /// integrates the next unclaimed event itself while the next channel
    /// in order is still being integrated elsewhere. Evolution order and
    /// every floating-point operation are the same as running the phases
    /// back to back. Phases 1 and 2 are the functions the
    /// [`TrajectoryExecutor`](crate::TrajectoryExecutor) runs too.
    ///
    /// The compile service runs each job here on a pool sized from its
    /// core budget: the job's own worker plus the cores idle workers
    /// leave free, so a lone job fans out and a saturated service runs
    /// every job on one thread.
    pub fn try_run_pooled(
        &self,
        program: &LoweredProgram,
        rng: &mut impl Rng,
        pool: &ShotPool,
    ) -> Result<ExecOutcome, ExecError> {
        let device = self.device;
        let (line, cache) = prepare(device, program, self.noisy, rng)?;

        // One composed relaxation channel per distinct (qubit, duration),
        // none when decoherence is off.
        let relax: Vec<(usize, Option<Vec<CMat>>)> = line
            .relax
            .iter()
            .map(|&(q, samples)| {
                let p = device.qubit(q);
                let t = samples as f64 * DT;
                let channel = self
                    .noisy
                    .then(|| channels::thermal_relaxation_kraus(t, p.t1, p.t2));
                (q as usize, channel)
            })
            .collect();
        let flip = reset_flip(device, self.noisy);

        let n = program.num_qubits as usize;
        let mut rho = DensityMatrix::zero_qubits(n);
        let mut scratch = KernelScratch::new();
        let events = &line.events;
        pool.stream_indices_with(
            events.len(),
            || (),
            |(), i| {
                propagator(device, &events[i], cache)
                    .map_or_else(Vec::new, |b| contraction_kraus(&b))
            },
            |i, kraus| match &events[i] {
                Event::Spam(q) => {
                    if let Some(flip) = &flip {
                        rho.apply_kraus_scratch(flip, &[*q as usize], &mut scratch);
                    }
                }
                Event::Relax(id) => {
                    if let (q, Some(channel)) = &relax[*id] {
                        rho.apply_kraus_scratch(channel, &[*q], &mut scratch);
                    }
                }
                Event::Play { qubit, .. } => {
                    rho.apply_kraus_scratch(&kraus, &[*qubit as usize], &mut scratch);
                }
                Event::Pair {
                    control, target, ..
                } => {
                    let targets = [*control as usize, *target as usize];
                    rho.apply_kraus_scratch(&kraus, &targets, &mut scratch);
                }
            },
        );
        Ok(self.outcome(program.num_qubits, rho.probabilities(), line.end))
    }

    /// The outcome of a run on `num_qubits` qubits whose pre-readout
    /// distribution is `true_probabilities`: the readout confusion applied
    /// on top when the noise model is on.
    fn outcome(&self, num_qubits: u32, true_probabilities: Vec<f64>, duration: u64) -> ExecOutcome {
        let probabilities = if self.noisy {
            let readouts: Vec<_> = (0..num_qubits).map(|q| *self.device.readout(q)).collect();
            readout::apply_confusion(&true_probabilities, &readouts)
        } else {
            true_probabilities.clone()
        };
        ExecOutcome {
            probabilities,
            true_probabilities,
            duration,
        }
    }

    /// Runs a raw single-qutrit schedule (drive channel 0) on the 3-level
    /// density matrix, returning level populations and, optionally,
    /// sampled IQ points per shot.
    pub fn run_qutrit(&self, schedule: &Schedule, rng: &mut impl Rng) -> QutritOutcome {
        let transmon = self.device.transmon_exec(0);
        let p = *transmon.params();
        let mut rho = DensityMatrix::zero(&[3]);
        let mut scratch = KernelScratch::new();
        let mut state = DriveState::default();
        let mut cursor = 0u64;

        let relax3 = |rho: &mut DensityMatrix, samples: u64, scratch: &mut KernelScratch| {
            if !self.noisy || samples == 0 {
                return;
            }
            let t = samples as f64 * DT;
            // |2⟩ relaxes roughly twice as fast as |1⟩ in a transmon.
            let g10 = 1.0 - (-t / p.t1).exp();
            let g21 = 1.0 - (-t / (p.t1 / 2.0)).exp();
            rho.apply_kraus_scratch(&channels::qutrit_relaxation(g10, g21), &[0], scratch);
            let inv_tphi = (1.0 / p.t2 - 1.0 / (2.0 * p.t1)).max(0.0);
            let lambda = 1.0 - (-2.0 * t * inv_tphi).exp();
            rho.apply_kraus_scratch(&channels::qutrit_dephasing(lambda), &[0], scratch);
        };

        for ti in schedule.instructions() {
            if ti.instruction.channel() != Channel::Drive(0) {
                continue;
            }
            if ti.start > cursor {
                transmon.advance_idle(&mut state, ti.start - cursor);
                relax3(&mut rho, ti.start - cursor, &mut scratch);
                cursor = ti.start;
            }
            if transmon.apply_frame_instruction(&mut state, &ti.instruction) {
                continue;
            }
            match &ti.instruction {
                Instruction::Delay { duration, .. } => {
                    transmon.advance_idle(&mut state, *duration);
                    relax3(&mut rho, *duration, &mut scratch);
                    cursor += duration;
                }
                Instruction::Acquire { duration, .. } => {
                    cursor += duration;
                }
                Instruction::Play { waveform, .. } => {
                    let sigma = jitter_sigma(self.device, self.noisy);
                    let w = jittered(Cow::Borrowed(waveform), sigma, rng);
                    let u = transmon.integrate_play(&mut state, &w);
                    rho.apply_unitary_scratch(&u, &[0], &mut scratch);
                    relax3(&mut rho, w.duration(), &mut scratch);
                    cursor += w.duration();
                }
                // Consumed by `apply_frame_instruction` above.
                Instruction::ShiftPhase { .. }
                | Instruction::SetFrequency { .. }
                | Instruction::ShiftFrequency { .. } => {}
            }
        }

        QutritOutcome {
            populations: rho.probabilities(),
            duration: cursor,
        }
    }
}

/// Deterministic parallel fan-out engine for shots and sweep points.
///
/// Experiment suites are embarrassingly parallel in two directions: sweep
/// points (each θ of a rotation sweep, each RB sequence) and shots (count
/// sampling from an outcome distribution). `ShotPool` fans both across OS
/// threads with a determinism contract: **every job is keyed by its index
/// alone** — job `i` writes slot `i` and derives any randomness from a
/// per-index stream (`seeded(quant_math::stream_seed(seed, i))`) — so
/// results are bit-identical to a serial run at any thread count. A plain
/// `seeded(seed ^ i)` would give seeds that differ only in their low bits
/// the same set of streams.
///
/// The thread count comes from the `OPC_THREADS` environment variable when
/// constructed via [`ShotPool::from_env`] (unset or `0` → all available
/// cores), so production pools never outnumber the host's cores unless
/// asked to. A pool built with [`ShotPool::new`] fans out to exactly the
/// threads it is given (capped by the job count), the calling thread
/// being one of them: the determinism contract makes the count invisible
/// in the results, and a pool wider than the host only time-slices.
#[derive(Clone, Copy, Debug)]
pub struct ShotPool {
    threads: usize,
}

impl ShotPool {
    /// A pool with an explicit thread count (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        ShotPool {
            threads: threads.max(1),
        }
    }

    /// A single-threaded pool (identical results, no fan-out).
    pub fn serial() -> Self {
        ShotPool::new(1)
    }

    /// Thread count from `OPC_THREADS`, defaulting to the number of
    /// available cores.
    pub fn from_env() -> Self {
        let threads = crate::knobs::threads()
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        ShotPool::new(threads)
    }

    /// Worker threads this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `f(0), f(1), …, f(n-1)` across the pool and returns the
    /// results in index order. `f` must depend only on its index argument
    /// (derive randomness as
    /// `seeded(`[`quant_math::stream_seed`]`(seed, index))`); the output is
    /// then independent of the thread count.
    ///
    /// Scheduling is work-stealing: workers pull the next unclaimed index
    /// from a shared atomic counter, so unequal per-index costs (e.g. RB
    /// sequences of different lengths, qubits whose Newton solves take
    /// different numbers of probes) balance automatically instead of
    /// riding on whichever contiguous chunk they landed in. Slot `i` still
    /// receives `f(i)` whatever thread computed it, so the determinism
    /// contract is unchanged.
    pub fn map_indices<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_indices_with(n, || (), |(), i| f(i))
    }

    /// [`ShotPool::map_indices`] with **worker-local state**: `init()` runs
    /// once on each worker thread and the resulting value is threaded
    /// through every job that worker claims. Use it to reuse expensive
    /// per-worker buffers (a `StateVector`, a `KernelScratch`) across jobs
    /// without sharing them between threads.
    ///
    /// The determinism contract is unchanged — `f` must compute slot `i`
    /// from the index alone, treating the state strictly as scratch (its
    /// contents must never leak information from one index into another's
    /// result).
    pub fn map_indices_with<S, T, I, F>(&self, n: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        let mut out = Vec::with_capacity(n);
        self.stream_indices_with(n, init, f, |_, v| out.push(v));
        out
    }

    /// The pool's one fan-out engine: evaluates `f(state, i)` for every
    /// `i < n` across the pool, as [`ShotPool::map_indices_with`] does, and
    /// hands each result to `sink` **on the calling thread, in index
    /// order**, as soon as it and every result before it are ready. `sink`
    /// may therefore fold the results into serial state (a density matrix
    /// evolving through a program) while later indices are still being
    /// computed.
    ///
    /// The calling thread is one of the pool's workers. Whenever the next
    /// result in order is ready it goes to `sink` first; otherwise the
    /// caller claims the next unclaimed index itself; when there is
    /// neither, it blocks on the channel the other workers deliver to.
    /// Those are `threads − 1` scoped threads (fewer for short jobs), and
    /// they claim indices from a shared counter, so unequal per-index
    /// costs balance. A result that arrives early waits in a reorder
    /// buffer until its turn.
    ///
    /// A panic in `f` or `sink` is re-raised on the calling thread with its
    /// original payload once every worker has stopped; the call never
    /// hangs on a result a panicking worker will not deliver.
    pub fn stream_indices_with<S, T, I, F, K>(&self, n: usize, init: I, f: F, mut sink: K)
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
        K: FnMut(usize, T),
    {
        let threads = self.threads.min(n.max(1));
        let mut state = init();
        if threads <= 1 {
            for i in 0..n {
                sink(i, f(&mut state, i));
            }
            return;
        }
        // The next unclaimed index. It publishes no other data (results
        // travel through the channel), so `Relaxed` suffices.
        let next = AtomicUsize::new(0);
        let (init, f, next) = (&init, &f, &next);
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            let workers: Vec<_> = (1..threads)
                .map(|_| {
                    let tx = tx.clone();
                    scope.spawn(move || {
                        let mut state = init();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            // A closed channel means the caller is
                            // unwinding: stop claiming work.
                            if i >= n || tx.send((i, f(&mut state, i))).is_err() {
                                return;
                            }
                        }
                    })
                })
                .collect();
            // Only the workers hold senders now, so `recv` fails exactly
            // when every worker has stopped.
            drop(tx);
            let mut pending: Vec<Option<T>> = (0..n).map(|_| None).collect();
            let mut due = 0;
            while due < n {
                for (i, v) in rx.try_iter() {
                    pending[i] = Some(v);
                }
                if let Some(v) = pending[due].take() {
                    sink(due, v);
                    due += 1;
                    continue;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i < n {
                    pending[i] = Some(f(&mut state, i));
                    continue;
                }
                match rx.recv() {
                    Ok((i, v)) => pending[i] = Some(v),
                    // Every worker stopped with result `due` undelivered:
                    // one of them panicked, and joining re-raises it.
                    Err(_) => break,
                }
            }
            for worker in workers {
                if let Err(payload) = worker.join() {
                    // Re-raise a worker panic with its original payload
                    // instead of double-panicking on an opaque `Any`.
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    /// Parallel map over a slice, in index order.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.map_indices(items.len(), |i| f(i, &items[i]))
    }
}

/// Result of a qutrit schedule execution.
#[derive(Clone, Debug)]
pub struct QutritOutcome {
    /// Populations of |0⟩, |1⟩, |2⟩.
    pub populations: Vec<f64>,
    /// Duration in `dt`.
    pub duration: u64,
}

impl QutritOutcome {
    /// Samples per-shot IQ readout points for this outcome's distribution.
    pub fn sample_iq_shots(
        &self,
        device: &DeviceModel,
        rng: &mut impl Rng,
        shots: usize,
    ) -> Vec<((f64, f64), usize)> {
        let r = device.readout(0);
        (0..shots)
            .map(|_| {
                let level = quant_math::categorical(rng, &self.populations);
                (readout::sample_iq(r, level, rng), level)
            })
            .collect()
    }
}

/// Applies fresh additive amplitude jitter of `sigma` (1σ) to a waveform;
/// returns it untouched, drawing nothing, when `sigma` is 0 or the
/// waveform's peak is (near) zero. A jittered copy keeps the source's
/// shared name: nothing reads it, and the pulse cache, which keys on
/// samples anyway, only serves runs without jitter.
fn jittered<'a>(w: Cow<'a, Waveform>, sigma: f64, rng: &mut impl Rng) -> Cow<'a, Waveform> {
    // opclint: allow(float-literal-eq): exact short-circuit — noiseless devices report a literal 0.0 jitter sigma
    if sigma == 0.0 {
        return w;
    }
    let peak = w.peak();
    if peak < 1e-12 {
        return w;
    }
    // Additive amplitude noise ξ (absolute units) realized as a relative
    // factor 1 + ξ/peak — large pulses are relatively cleaner.
    let xi = normal(rng, 0.0, sigma);
    Cow::Owned(w.scaled_same_name((1.0 + xi / peak).clamp(0.0, 1.0 / peak)))
}

/// Draws fresh additive amplitude jitter of `sigma` (1σ) for every `Play`
/// of a two-qubit block, in program order: one real factor per `Play`,
/// which `CrPair::integrate_scaled` applies to the pulse's samples as it
/// rasterizes the block. `None`, drawing nothing, when `sigma` is 0. A
/// `Play` whose peak is (near) zero draws nothing and keeps the factor 1.
/// Every factor is clamped to `1/peak`, so no scaled sample leaves the
/// unit disc.
pub(crate) fn pair_jitter(schedule: &Schedule, sigma: f64, rng: &mut impl Rng) -> Option<Vec<f64>> {
    // opclint: allow(float-literal-eq): exact short-circuit — noiseless devices report a literal 0.0 jitter sigma
    if sigma == 0.0 {
        return None;
    }
    let mut factors = Vec::new();
    for ti in schedule.instructions() {
        let Instruction::Play { waveform, channel } = &ti.instruction else {
            continue;
        };
        let peak = waveform.peak();
        if peak < 1e-12 {
            factors.push(1.0);
            continue;
        }
        let mut factor = 1.0 + normal(rng, 0.0, sigma) / peak;
        // CR pulses additionally carry a calibration-transfer error: the
        // stretched pulse is derived from the 45° tune-up, and the
        // area→angle transfer on hardware is only good to ~1.5 % (cf. the
        // paper's Fig. 9 spread).
        if matches!(channel, Channel::Control(_)) {
            factor += normal(rng, 0.0, 0.015);
        }
        factors.push(factor.clamp(0.0, 1.0 / peak));
    }
    Some(factors)
}

/// Thermal SPAM: imperfect reset leaves residual |1⟩ population that
/// readout mitigation (a measurement-side correction) cannot remove. The
/// bit-flip channel each qubit takes at the start of a run, or `None` when
/// the noise model is off or the device resets perfectly.
fn reset_flip(device: &DeviceModel, noisy: bool) -> Option<Vec<CMat>> {
    let p_reset = device.reset_excited_prob();
    (noisy && p_reset > 0.0).then(|| {
        vec![
            CMat::identity(2).scale(C64::real((1.0 - p_reset).sqrt())),
            quant_sim::gates::x().scale(C64::real(p_reset.sqrt())),
        ]
    })
}

/// The per-pulse amplitude jitter (1σ) runs draw: the device's, or 0
/// when the noise model is off.
fn jitter_sigma(device: &DeviceModel, noisy: bool) -> f64 {
    if noisy {
        device.pulse_amp_jitter()
    } else {
        0.0
    }
}

/// Phase 1 of a run, for both executors: check the register width, walk
/// `program`'s timeline and draw every jitter of the job from `rng` in
/// program order — the one place jitter is drawn. Returns the timeline and
/// the pulse cache, which only runs that draw no jitter use: a jittered
/// pulse never repeats, so looking it up could only miss.
///
/// A single-qubit `Play` event carries a jittered copy of its waveform. A
/// two-qubit block copies nothing: its event borrows the program's
/// schedule and carries one jitter factor per `Play` ([`pair_jitter`]),
/// which integration applies as it rasterizes the block. The factors are
/// drawn from the same RNG calls, in the same order, as scaling a copy
/// would draw them, and the rasterized samples are the same bits.
pub(crate) fn prepare<'d, 'p>(
    device: &'d DeviceModel,
    program: &'p LoweredProgram,
    noisy: bool,
    rng: &mut impl Rng,
) -> Result<(Timeline<Event<'p>>, Option<&'d PulseCache>), ExecError> {
    let (width, device_width) = (program.num_qubits, device.num_qubits());
    if width == 0 || width as usize > device_width {
        return Err(ExecError::RegisterWidth {
            program: width,
            device: device_width,
        });
    }
    let sigma = jitter_sigma(device, noisy);
    let line = timeline(device, program, |event| match event {
        Event::Play { qubit, waveform } => Event::Play {
            qubit,
            waveform: jittered(waveform, sigma, rng),
        },
        Event::Pair {
            control,
            target,
            pair,
            channel,
            schedule,
            ..
        } => Event::Pair {
            control,
            target,
            pair,
            channel,
            schedule,
            factors: pair_jitter(schedule, sigma, rng),
        },
        other => other,
    })?;
    // opclint: allow(float-literal-eq): exact short-circuit — noiseless devices report a literal 0.0 jitter sigma
    let cache = (sigma == 0.0).then(|| device.pulse_cache());
    Ok((line, cache))
}

/// Phase 2 of a run, for both executors: one pulse event's qubit-space
/// propagator through `cache` when given (`None` for SPAM and relaxation).
/// Pure, so any thread may run it. Leftover virtual-Z frames are compiler
/// bookkeeping, baked into later pulses, so they are not realized; one
/// pending at the end is invisible to a computational-basis measurement.
/// The block is slightly sub-unitary (|2⟩ leakage).
pub(crate) fn propagator(
    device: &DeviceModel,
    event: &Event,
    cache: Option<&PulseCache>,
) -> Option<CMat> {
    match event {
        Event::Spam(_) | Event::Relax(_) => None,
        Event::Play { qubit, waveform } => {
            let transmon = device.transmon_exec(*qubit);
            let integrate = || transmon.integrate_play(&mut DriveState::default(), waveform);
            let u3x3 = match cache {
                Some(cache) => {
                    let key = crate::cache::single_play_key(
                        transmon.params(),
                        &DriveState::default(),
                        waveform,
                    );
                    cache.get_or_integrate(key, integrate)
                }
                None => integrate(),
            };
            Some(qubit_block(&u3x3))
        }
        Event::Pair {
            control,
            target,
            pair,
            channel,
            schedule,
            factors,
        } => {
            let (c_drive, t_drive) = (Channel::Drive(*control), Channel::Drive(*target));
            let channels = [c_drive, t_drive, *channel];
            let integrate = || {
                pair.integrate_scaled(schedule, factors.as_deref(), channels)
                    .unitary
            };
            Some(match cache.filter(|_| factors.is_none()) {
                Some(cache) => {
                    let key = crate::cache::pair_schedule_key(
                        pair.control_params(),
                        pair.target_params(),
                        pair.cr_params(),
                        schedule,
                        c_drive,
                        t_drive,
                        *channel,
                    );
                    cache.get_or_integrate(key, integrate)
                }
                None => integrate(),
            })
        }
    }
}

/// The (sub-unitary) qubit block of a single-qubit pulse's 3-level
/// propagator.
fn qubit_block(u3x3: &CMat) -> CMat {
    CMat::from_rows(&[&[u3x3[(0, 0)], u3x3[(0, 1)]], &[u3x3[(1, 0)], u3x3[(1, 1)]]])
}

/// Completes a sub-unitary contraction `B` (‖B†B‖ ≤ 1) into a CPTP Kraus
/// set. The lost weight of each contracted direction is deposited onto the
/// basis state where that direction has the most support — for leakage this
/// sends the weight to the state the leaked population would be read out
/// as.
fn contraction_kraus(b: &CMat) -> Vec<CMat> {
    let n = b.rows();
    // M = I − B†B is PSD with small eigenvalues (the leaked weight).
    let m = &CMat::identity(n) - &(&b.dagger() * b);
    let eig = quant_math::eigh(&m);
    let mut kraus = vec![b.clone()];
    for (i, &lambda) in eig.values.iter().enumerate() {
        if lambda > 1e-14 {
            let v: Vec<C64> = (0..n).map(|r| eig.vectors[(r, i)].conj()).collect();
            let deposit = v
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.norm_sqr().total_cmp(&b.1.norm_sqr()))
                .map(|(idx, _)| idx)
                .unwrap_or(0);
            let mut k = CMat::zeros(n, n);
            for (col, &vc) in v.iter().enumerate() {
                k[(deposit, col)] = C64::real(lambda.max(0.0).sqrt()) * vc;
            }
            kraus.push(k);
        }
    }
    kraus
}

#[cfg(test)]
/// A seeded generator of [`LoweredProgram`]s for the executors' oracle
/// tests.
///
/// Device unit tests cannot take programs from the compiler: a
/// dev-dependency on `pulse-compiler` links a second `quant_device`, whose
/// types do not match this crate's. So [`ProgramBuilder`] builds the
/// blocks that `Lowering::lower` (`crates/core/src/lower.rs`) emits
/// straight from a [`Calibration`]'s `cmd_def`, tracking a virtual-Z frame
/// per qubit the way lowering does. Each [`Shape`] stands for one
/// `lower.rs` site:
///
/// | Shape | `lower.rs` site |
/// |---|---|
/// | `Plain`: the `rx90` or `rx180` `cmd_def` buffer as is | a `U3` or `DirectX` pulse at frame 0 (`rotated` by `cis(0)`) |
/// | `U3`: two `rx90` plays, each under its frame phase | the `Gate::U3` arm: each rx90 is `rotated` into the frame, which then advances by the pulse's `(a, c)` correction |
/// | `DirectX`: one `rx180` play under its frame phase | the `Gate::DirectX` arm |
/// | `DirectRx`: `direct_rx_waveform(θ)` under its frame phase | the `Gate::DirectRx` arm (the rx180 buffer scaled by θ/π, then rotated) |
/// | `Cx`, `CxCancelled`: the `cx` or `cx_cancelled` entry behind entry phases, on a coupled pair in either direction | the `Gate::Cnot` arm through `enter_block` (`cx_cancelled` when `pop_cancellable_x` absorbed a leading DirectX) |
/// | `Cr`, `CrCancelled`: `echoed_cr_schedule{,_cancelled}(θ)` behind entry phases | the `Gate::Cr(θ)` arm through `cr_block` and `enter_block` |
/// | `Idle`: [`Block::Idle`] | not `lower` itself: callers append it (Fig. 13's optimized-slow padding), and `finish` renders it as a delay |
///
/// The display schedule is left empty: the executors never read it.
///
/// [`Calibration`]: crate::Calibration
pub(crate) mod testgen {
    use crate::calibration::Calibration;
    use crate::device::DeviceModel;
    use crate::executor::{Block, LoweredProgram};
    use quant_math::C64;
    use quant_pulse::{Channel, Instruction, Schedule, Waveform};
    use rand::Rng;
    use std::f64::consts::PI;

    /// The block shapes of the module table, in its order.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    pub(crate) enum Shape {
        Plain,
        U3,
        DirectX,
        DirectRx,
        Cx,
        CxCancelled,
        Cr,
        CrCancelled,
        Idle,
    }

    impl Shape {
        pub(crate) const ALL: [Shape; 9] = [
            Shape::Plain,
            Shape::U3,
            Shape::DirectX,
            Shape::DirectRx,
            Shape::Cx,
            Shape::CxCancelled,
            Shape::Cr,
            Shape::CrCancelled,
            Shape::Idle,
        ];
    }

    /// Appends lowered blocks to a program on the first `n` qubits of a
    /// device, keeping each qubit's virtual-Z frame as lowering does.
    pub(crate) struct ProgramBuilder<'a> {
        device: &'a DeviceModel,
        cal: &'a Calibration,
        frames: Vec<f64>,
        blocks: Vec<Block>,
    }

    impl<'a> ProgramBuilder<'a> {
        pub(crate) fn new(device: &'a DeviceModel, cal: &'a Calibration, n: u32) -> Self {
            ProgramBuilder {
                device,
                cal,
                frames: vec![0.0; n as usize],
                blocks: Vec::new(),
            }
        }

        /// The program built so far.
        pub(crate) fn finish(self) -> LoweredProgram {
            LoweredProgram {
                num_qubits: self.frames.len() as u32,
                blocks: self.blocks,
                schedule: Schedule::new("generated"),
            }
        }

        /// A virtual `Rz(λ)`: advances the frame, plays nothing.
        pub(crate) fn rz(&mut self, q: u32, lambda: f64) {
            self.frames[q as usize] += -lambda;
        }

        /// Qubit `q`'s `cmd_def` buffer for `gate` (`"rx90"` or
        /// `"rx180"`), played as is.
        pub(crate) fn plain(&mut self, q: u32, gate: &str) {
            let w = self.pulse(gate, q).clone();
            self.play(q, vec![w]);
        }

        /// `U3(θ, φ, λ) = Rz(φ+π)·Rx90·Rz(θ+π)·Rx90·Rz(λ)`.
        pub(crate) fn u3(&mut self, q: u32, theta: f64, phi: f64, lambda: f64) {
            let (a, c) = self.cal.qubit(q).rx90_phase;
            let rx90 = self.pulse("rx90", q);
            let frame = self.frames[q as usize] - lambda;
            let first = rotated(rx90, frame + c);
            let frame = frame + a + c - (theta + PI);
            let second = rotated(rx90, frame + c);
            self.frames[q as usize] = frame + a + c - (phi + PI);
            self.play(q, vec![first, second]);
        }

        /// One calibrated X pulse in the frame.
        pub(crate) fn direct_x(&mut self, q: u32) {
            let (a, c) = self.cal.qubit(q).rx180_phase;
            let w = rotated(self.pulse("rx180", q), self.frames[q as usize] + c);
            self.frames[q as usize] += a + c;
            self.play(q, vec![w]);
        }

        /// `DirectRx(θ)`: the rx180 pulse scaled by θ/π, in the frame.
        pub(crate) fn direct_rx(&mut self, q: u32, theta: f64) {
            let qcal = self.cal.qubit(q);
            let (a, c) = qcal.direct_rx_phase(theta);
            let w = qcal
                .direct_rx_waveform(theta, "rx")
                .scaled_complex(C64::cis(self.frames[q as usize] + c));
            self.frames[q as usize] += a + c;
            self.play(q, vec![w]);
        }

        /// The pair's `cx` (or `cx_cancelled`) `cmd_def` entry.
        pub(crate) fn cx(&mut self, control: u32, target: u32, cancelled: bool) {
            let name = if cancelled { "cx_cancelled" } else { "cx" };
            let entry = self
                .cal
                .cmd_def()
                .get(name, &[control, target])
                .expect("every coupled pair has both CNOT entries")
                .clone();
            self.enter_block(&entry, control, target);
        }

        /// The echoed `CR(θ)` block (without its leading X when
        /// `cancelled`).
        pub(crate) fn cr(&mut self, control: u32, target: u32, theta: f64, cancelled: bool) {
            let (cal, device) = (self.cal, self.device);
            let entry = if cancelled {
                cal.echoed_cr_schedule_cancelled(device, control, target, theta)
            } else {
                cal.echoed_cr_schedule(device, control, target, theta)
            }
            .expect("a coupled pair and |θ| ≤ π/2");
            self.enter_block(&entry, control, target);
        }

        /// An explicit idle.
        pub(crate) fn idle(&mut self, qubit: u32, duration: u64) {
            self.blocks.push(Block::Idle { qubit, duration });
        }

        fn pulse(&self, gate: &str, q: u32) -> &'a Waveform {
            self.cal
                .cmd_pulse(gate, q)
                .expect("the calibration covers every qubit")
        }

        fn play(&mut self, qubit: u32, waveforms: Vec<Waveform>) {
            self.blocks.push(Block::Gate1Q { qubit, waveforms });
        }

        /// Places a two-qubit entry behind the pair's entry frames (target
        /// drive, control drive, then the control channel in the target's
        /// frame) and advances both drives' frames by the entry's own
        /// phases, as lowering's `enter_block` does.
        fn enter_block(&mut self, entry: &Schedule, control: u32, target: u32) {
            let u_ch = self
                .device
                .control_channel(control, target)
                .expect("the pair is coupled");
            let (d_c, d_t) = (Channel::Drive(control), Channel::Drive(target));
            let (old_c, old_t) = (self.frames[control as usize], self.frames[target as usize]);
            let phases = [(d_t, old_t), (d_c, old_c), (u_ch, old_t)];
            let schedule = entry.behind_phases(phases.into_iter().filter(|(_, p)| *p != 0.0));
            for ti in entry.instructions() {
                if let Instruction::ShiftPhase { phase, channel } = ti.instruction {
                    if channel == d_c {
                        self.frames[control as usize] += phase;
                    } else if channel == d_t {
                        self.frames[target as usize] += phase;
                    }
                }
            }
            self.blocks.push(Block::Gate2Q {
                control,
                target,
                schedule,
            });
        }
    }

    /// `w` rotated into the frame `phase`, as lowering's `rotated` does.
    fn rotated(w: &Waveform, phase: f64) -> Waveform {
        let z = C64::cis(phase);
        w.mapped(w.name().to_owned(), |s| s * z)
    }

    /// A random program of `blocks` blocks on the first `n` qubits of
    /// `device`, drawn from `rng`, with each block's shape. Most gates
    /// follow a random virtual Z, so pulses play under varied frames.
    /// Two-qubit shapes need a coupled pair; on one qubit they become
    /// `U3`.
    pub(crate) fn random_program(
        device: &DeviceModel,
        cal: &Calibration,
        n: u32,
        blocks: usize,
        rng: &mut impl Rng,
    ) -> (LoweredProgram, Vec<Shape>) {
        let pairs: Vec<(u32, u32)> = device
            .edges()
            .iter()
            .filter(|e| e.control < n && e.target < n)
            .map(|e| (e.control, e.target))
            .collect();
        let mut b = ProgramBuilder::new(device, cal, n);
        let mut shapes = Vec::with_capacity(blocks);
        for _ in 0..blocks {
            let mut shape = Shape::ALL[rng.gen_range(0..Shape::ALL.len())];
            if pairs.is_empty() && (Shape::Cx..=Shape::CrCancelled).contains(&shape) {
                shape = Shape::U3;
            }
            let q = rng.gen_range(0..n);
            if rng.gen::<f64>() < 0.7 {
                b.rz(q, rng.gen_range(-PI..PI));
            }
            let (control, target) = match pairs.len() {
                0 => (q, q),
                k => pairs[rng.gen_range(0..k)],
            };
            let angle = rng.gen_range(-PI / 2.0..PI / 2.0);
            match shape {
                Shape::Plain => b.plain(q, if rng.gen::<bool>() { "rx90" } else { "rx180" }),
                Shape::U3 => b.u3(q, angle, rng.gen_range(-PI..PI), rng.gen_range(-PI..PI)),
                Shape::DirectX => b.direct_x(q),
                Shape::DirectRx => b.direct_rx(q, 2.0 * angle),
                Shape::Cx => b.cx(control, target, false),
                Shape::CxCancelled => b.cx(control, target, true),
                Shape::Cr => b.cr(control, target, angle, false),
                Shape::CrCancelled => b.cr(control, target, angle, true),
                // Short idles, and long ones (up to ~0.5·T1) whose
                // relaxation branches are likely enough that a wrong branch
                // weight shows in the sampled counts.
                Shape::Idle => {
                    let long = rng.gen::<bool>();
                    b.idle(
                        q,
                        rng.gen_range(if long { 20_000..200_000 } else { 1..4_000 }),
                    )
                }
            }
            shapes.push(shape);
        }
        (b.finish(), shapes)
    }

    /// The textbook-compiled (CNOT·Rz·CNOT) QAOA MAXCUT layer on the
    /// line graph over `n` qubits, at angles `(γ, β)`: H on every qubit,
    /// `CNOT·Rz(2γ)·CNOT` on each edge, then `Rx(2β)` on every qubit, each
    /// single-qubit gate a `U3`, as the standard flow lowers it.
    pub(crate) fn qaoa_line_program(
        device: &DeviceModel,
        cal: &Calibration,
        n: u32,
        (gamma, beta): (f64, f64),
    ) -> LoweredProgram {
        let mut b = ProgramBuilder::new(device, cal, n);
        for q in 0..n {
            b.u3(q, PI / 2.0, 0.0, PI);
        }
        for q in 0..n - 1 {
            b.cx(q, q + 1, false);
            b.rz(q + 1, 2.0 * gamma);
            b.cx(q, q + 1, false);
        }
        for q in 0..n {
            b.u3(q, 2.0 * beta, -PI / 2.0, PI / 2.0);
        }
        b.finish()
    }

    #[test]
    fn generated_programs_emit_every_shape() {
        use crate::calibration::calibrate;
        use quant_math::seeded;
        let mut rng = seeded(3);
        let device = DeviceModel::almaden_like(3, &mut rng);
        let cal = calibrate(&device, &mut rng);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..16 {
            let (program, shapes) = random_program(&device, &cal, 3, 12, &mut rng);
            assert_eq!(program.blocks.len(), shapes.len());
            seen.extend(shapes);
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), Shape::ALL.to_vec());
    }
}

#[cfg(test)]
/// The density executor's oracle: the same run with ρ as a dense matrix
/// and every channel applied as `Σₖ embed(Kₖ)·ρ·embed(Kₖ)†`, each
/// relaxation as the per-stage channels of
/// [`channels::thermal_relaxation`] instead of one composed channel —
/// float-for-float the executor before the stride kernels. It reuses the
/// production [`prepare`] and [`propagator`], so the kernels, the
/// coalesced relaxation and the pooled overlap are what the tests check.
mod oracle {
    use super::testgen::{random_program, ProgramBuilder};
    use super::*;
    use crate::calibration::calibrate;
    use quant_math::seeded;
    use quant_sim::embed;

    /// Runs `program` on `exec`'s device and noise model through the
    /// oracle, drawing jitter from `rng` as the executor does.
    fn run(
        exec: &PulseExecutor,
        program: &LoweredProgram,
        rng: &mut impl Rng,
    ) -> Result<ExecOutcome, ExecError> {
        let device = exec.device;
        let (line, cache) = prepare(device, program, exec.noisy, rng)?;
        let flip = reset_flip(device, exec.noisy);
        let dims = vec![2; program.num_qubits as usize];
        let mut rho = DensityMatrix::zero(&dims).matrix().clone();
        let mut apply = |kraus: &[CMat], targets: &[usize]| {
            let mut out = CMat::zeros(rho.rows(), rho.cols());
            for k in kraus {
                let full = embed(k, targets, &dims);
                out = &out + &(&(&full * &rho) * &full.dagger());
            }
            rho = out;
        };
        for event in &line.events {
            let pulse = || contraction_kraus(&propagator(device, event, cache).unwrap());
            match event {
                Event::Spam(q) => {
                    if let Some(flip) = &flip {
                        apply(flip, &[*q as usize]);
                    }
                }
                Event::Relax(id) => {
                    let (q, samples) = line.relax[*id];
                    if exec.noisy {
                        let (p, t) = (device.qubit(q), samples as f64 * DT);
                        for stage in channels::thermal_relaxation(t, p.t1, p.t2) {
                            apply(&stage, &[q as usize]);
                        }
                    }
                }
                Event::Play { qubit, .. } => apply(&pulse(), &[*qubit as usize]),
                Event::Pair {
                    control, target, ..
                } => apply(&pulse(), &[*control as usize, *target as usize]),
            }
        }
        let probabilities = (0..rho.rows()).map(|i| rho[(i, i)].re.max(0.0)).collect();
        Ok(exec.outcome(program.num_qubits, probabilities, line.end))
    }

    /// Runs `program` on the executor (pooled) and on the oracle with the
    /// same jitter seed, and asserts that the probabilities agree within
    /// 1e-12 and that `shots` sampled counts at `seed` are equal.
    fn assert_matches_oracle(
        exec: &PulseExecutor,
        program: &LoweredProgram,
        jitter: u64,
        (seed, shots): (u64, usize),
        what: &str,
    ) {
        let pool = ShotPool::from_env();
        let fast = exec
            .try_run_pooled(program, &mut seeded(jitter), &pool)
            .expect("program runs");
        let slow = run(exec, program, &mut seeded(jitter)).expect("program runs");
        for (a, b) in fast.probabilities.iter().zip(&slow.probabilities) {
            assert!(
                (a - b).abs() < 1e-12,
                "{what}: kernel path drifted: {a} vs {b}"
            );
        }
        assert_eq!(fast.duration, slow.duration, "{what}: duration");
        assert_eq!(
            fast.sample_counts_deterministic(seed, shots),
            slow.sample_counts_deterministic(seed, shots),
            "{what}: kernel swap changed the sampled counts"
        );
    }

    /// An X-then-CNOT program on a 2-qubit device (both the 1Q and the 2Q
    /// integration paths).
    fn bell_ish_program(device: &DeviceModel) -> LoweredProgram {
        let cal = calibrate(device, &mut seeded(42));
        let mut b = ProgramBuilder::new(device, &cal, 2);
        b.plain(0, "rx180");
        b.cx(0, 1, false);
        b.finish()
    }

    #[test]
    fn kernel_path_reproduces_reference_counts_bit_identically() {
        // The stride kernels and the coalesced relaxation reassociate float
        // arithmetic, so probabilities may differ from the embed route at
        // the ulp level — but the sampled counts (categorical draws at a
        // fixed seed) must be bit-identical, and the distributions must
        // agree to simulation accuracy.
        let device = DeviceModel::almaden_like(2, &mut seeded(23));
        let program = bell_ish_program(&device);
        let exec = PulseExecutor::new(&device);
        assert_matches_oracle(&exec, &program, 55, (0xFEED, 20_000), "bell-ish");
    }

    #[test]
    fn kernel_path_matches_reference_with_idles() {
        // Idle-heavy program: exercises the memoized coalesced relaxation
        // on repeated (qubit, duration) pairs against the per-stage oracle.
        let device = DeviceModel::almaden_like(2, &mut seeded(29));
        let mut program = bell_ish_program(&device);
        for _ in 0..3 {
            for qubit in [0, 1] {
                program.blocks.push(Block::Idle {
                    qubit,
                    duration: 4_800,
                });
            }
        }
        let exec = PulseExecutor::new(&device);
        assert_matches_oracle(&exec, &program, 61, (0xC0DE, 10_000), "idles");
    }

    #[test]
    fn generated_programs_match_the_oracle() {
        // 65 generated programs over almaden-like widths 2–6, every block
        // shape lowering emits; every fourth one also noiseless.
        let mut programs = 0;
        for n in 2..=6u32 {
            let mut rng = seeded(0x0DE5 + u64::from(n));
            let device = DeviceModel::almaden_like(n as usize, &mut rng);
            let cal = calibrate(&device, &mut rng);
            for i in 0..13u64 {
                let blocks = rng.gen_range(4..4 + 3 * n as usize);
                let (program, shapes) = random_program(&device, &cal, n, blocks, &mut rng);
                let what = format!("n={n} program {i} {shapes:?}");
                let jitter = rng.gen::<u64>();
                assert_matches_oracle(
                    &PulseExecutor::new(&device),
                    &program,
                    jitter,
                    (i, 4_000),
                    &what,
                );
                if i % 4 == 0 {
                    let exec = PulseExecutor::noiseless(&device);
                    assert_matches_oracle(&exec, &program, jitter, (i, 4_000), &what);
                }
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
    use quant_math::seeded;
    use quant_pulse::Gaussian;

    fn x_block(device: &DeviceModel, q: u32) -> Block {
        let mut rng = seeded(99);
        let cal = calibrate(device, &mut rng);
        Block::Gate1Q {
            qubit: q,
            waveforms: vec![cal.qubit(q).rx180_waveform("x")],
        }
    }

    #[test]
    fn jittered_copies_keep_the_source_name_and_scaled_samples() {
        let w = Gaussian {
            duration: 33,
            amp: 0.4,
            sigma: 8.0,
        }
        .waveform("g");
        let (mut rng, mut replay) = (seeded(5), seeded(5));
        let j = jittered(Cow::Borrowed(&w), 0.01, &mut rng);
        assert_eq!(j.name(), "g");
        let xi = normal(&mut replay, 0.0, 0.01);
        let want = w.scaled((1.0 + xi / w.peak()).clamp(0.0, 1.0 / w.peak()));
        let bits = |w: &Waveform| -> Vec<(u64, u64)> {
            w.samples()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        assert_eq!(bits(&j), bits(&want));
        assert_eq!(j.peak().to_bits(), want.peak().to_bits());
    }

    #[test]
    fn clamped_pair_jitter_keeps_every_sample_in_the_unit_disc() {
        // The factors scale samples during integration, where no
        // `Waveform` norm check sees them: every factor times its
        // waveform's recorded peak must stay within that check's
        // `|d| ≤ 1 + 1e-9`, at the device's jitter and at one large
        // enough that the clamp binds.
        let mut rng = seeded(17);
        let device = DeviceModel::almaden_like(3, &mut rng);
        let cal = calibrate(&device, &mut rng);
        let (mut plays, mut clamped) = (0, 0);
        for seed in 0..6u64 {
            let (program, _) = testgen::random_program(&device, &cal, 3, 16, &mut rng);
            for sigma in [device.pulse_amp_jitter(), 1.0] {
                let mut draws = seeded(seed);
                for block in &program.blocks {
                    let Block::Gate2Q { schedule, .. } = block else {
                        continue;
                    };
                    let factors = pair_jitter(schedule, sigma, &mut draws).expect("jitter");
                    let peaks =
                        schedule
                            .instructions()
                            .iter()
                            .filter_map(|ti| match &ti.instruction {
                                Instruction::Play { waveform, .. } => Some(waveform.peak()),
                                _ => None,
                            });
                    for (f, peak) in factors.iter().zip(peaks) {
                        assert!(f * peak <= 1.0 + 1e-9, "{f} × peak {peak}");
                        plays += 1;
                        clamped += usize::from(f * peak > 1.0 - 1e-12);
                    }
                }
            }
        }
        assert!(
            plays > 100 && clamped > 0,
            "{plays} plays, {clamped} clamped"
        );
    }

    #[test]
    fn ideal_execution_flips_qubit() {
        let device = DeviceModel::ideal(1);
        let block = x_block(&device, 0);
        let program = LoweredProgram {
            num_qubits: 1,
            blocks: vec![block],
            schedule: Schedule::new("x"),
        };
        let exec = PulseExecutor::noiseless(&device);
        let mut rng = seeded(1);
        let out = exec.try_run(&program, &mut rng).expect("program runs");
        assert!(out.probabilities[1] > 0.999, "p = {:?}", out.probabilities);
    }

    #[test]
    fn deterministic_sampler_sums_to_shots_within_binomial_bound_and_repeats() {
        let outcome = ExecOutcome {
            probabilities: vec![0.1, 0.2, 0.0, 0.7],
            true_probabilities: vec![0.1, 0.2, 0.0, 0.7],
            duration: 0,
        };
        let shots = 20_000;
        let seed = quant_math::stream_seed(3, 1);
        let counts = outcome.sample_counts_deterministic(seed, shots);
        assert_eq!(counts.iter().sum::<u64>(), shots as u64);
        assert_eq!(counts[2], 0, "a zero-probability outcome is never drawn");
        // Each count is Binomial(shots, p): its frequency lies within 5σ,
        // σ = √(p(1−p)/shots), except with probability ~6e-7 per outcome.
        for (&c, &p) in counts.iter().zip(&outcome.probabilities) {
            let freq = c as f64 / shots as f64;
            let bound = 5.0 * (p * (1.0 - p) / shots as f64).sqrt();
            assert!((freq - p).abs() <= bound, "freq {freq} vs p {p} (±{bound})");
        }
        assert_eq!(outcome.sample_counts_deterministic(seed, shots), counts);
        let other_lane = quant_math::stream_seed(3, 2);
        assert_ne!(
            outcome.sample_counts_deterministic(other_lane, shots),
            counts
        );
    }

    #[test]
    fn noisy_execution_shows_readout_error() {
        let mut rng = seeded(2);
        let device = DeviceModel::almaden_like(1, &mut rng);
        let block = x_block(&device, 0);
        let program = LoweredProgram {
            num_qubits: 1,
            blocks: vec![block],
            schedule: Schedule::new("x"),
        };
        let exec = PulseExecutor::new(&device);
        let out = exec.try_run(&program, &mut rng).expect("program runs");
        // True state is nearly |1⟩; readout drags ~5 % back to 0.
        assert!(out.true_probabilities[1] > 0.98);
        assert!(out.probabilities[1] < 0.98);
        assert!(out.probabilities[1] > 0.90);
    }

    #[test]
    fn idle_blocks_decohere() {
        let mut rng = seeded(3);
        let device = DeviceModel::almaden_like(1, &mut rng);
        let x = x_block(&device, 0);
        let short = LoweredProgram {
            num_qubits: 1,
            blocks: vec![x.clone()],
            schedule: Schedule::new("s"),
        };
        // Same gate followed by a long idle (~30 µs).
        let long = LoweredProgram {
            num_qubits: 1,
            blocks: vec![
                x,
                Block::Idle {
                    qubit: 0,
                    duration: 135_000,
                },
            ],
            schedule: Schedule::new("l"),
        };
        let exec = PulseExecutor::new(&device);
        let p_short = exec
            .try_run(&short, &mut rng)
            .expect("program runs")
            .true_probabilities[1];
        let p_long = exec
            .try_run(&long, &mut rng)
            .expect("program runs")
            .true_probabilities[1];
        assert!(
            p_long < p_short - 0.1,
            "idle should relax: {p_short} vs {p_long}"
        );
    }

    #[test]
    fn qubit_block_kraus_is_trace_preserving() {
        // A contracting block (leakage) must still give a valid channel.
        let device = DeviceModel::ideal(1);
        let t = device.transmon_cal(0);
        let w = Gaussian {
            duration: 48,
            amp: 0.9,
            sigma: 12.0,
        }
        .waveform("leaky");
        let mut state = DriveState::default();
        let u = t.integrate_play(&mut state, &w);
        let kraus = contraction_kraus(&qubit_block(&u));
        assert!(channels::is_trace_preserving(&kraus, 1e-9));
        assert!(kraus.len() >= 2, "leaky pulse should need completion ops");
    }

    #[test]
    fn two_qubit_block_executes_cnot() {
        let device = DeviceModel::ideal(2);
        let mut rng = seeded(4);
        let cal = calibrate(&device, &mut rng);
        let cx = cal.cmd_def().get("cx", &[0, 1]).unwrap().clone();
        let x0 = Block::Gate1Q {
            qubit: 0,
            waveforms: vec![cal.qubit(0).rx180_waveform("x")],
        };
        let program = LoweredProgram {
            num_qubits: 2,
            blocks: vec![
                x0,
                Block::Gate2Q {
                    control: 0,
                    target: 1,
                    schedule: cx,
                },
            ],
            schedule: Schedule::new("bell-ish"),
        };
        let exec = PulseExecutor::noiseless(&device);
        let out = exec.try_run(&program, &mut rng).expect("program runs");
        // |00⟩ → X on q0 → |01⟩(q0=1) → CNOT(0→1) → |11⟩ = index 3.
        assert!(out.probabilities[3] > 0.98, "p = {:?}", out.probabilities);
    }

    #[test]
    fn uncoupled_pair_is_a_described_error_not_a_panic() {
        let device = DeviceModel::ideal(3);
        let mut rng = seeded(7);
        let cal = calibrate(&device, &mut rng);
        let cx = cal.cmd_def().get("cx", &[0, 1]).unwrap().clone();
        // ideal(3) couples only adjacent pairs (both directions); 0 and 2
        // share no edge.
        let program = LoweredProgram {
            num_qubits: 3,
            blocks: vec![Block::Gate2Q {
                control: 0,
                target: 2,
                schedule: cx,
            }],
            schedule: Schedule::new("uncoupled"),
        };
        let exec = PulseExecutor::noiseless(&device);
        let err = exec.try_run(&program, &mut rng).unwrap_err();
        assert_eq!(
            err,
            ExecError::UncoupledPair {
                control: 0,
                target: 2
            }
        );
        assert!(err.to_string().contains("not coupled"), "{err}");
    }

    #[test]
    fn register_width_is_a_typed_error_on_both_executors() {
        let device = DeviceModel::ideal(2);
        let pulse = quant_pulse::Constant {
            duration: 16,
            amp: 0.1,
        }
        .waveform("p");
        // An empty register, and one whose third qubit the device lacks
        // (a block on it would index past the device's qubits).
        for (width, blocks) in [
            (0, vec![]),
            (
                3,
                vec![Block::Gate1Q {
                    qubit: 2,
                    waveforms: vec![pulse],
                }],
            ),
        ] {
            let program = LoweredProgram {
                num_qubits: width,
                blocks,
                schedule: Schedule::new("width"),
            };
            let want = ExecError::RegisterWidth {
                program: width,
                device: 2,
            };
            let density = PulseExecutor::noiseless(&device).try_run(&program, &mut seeded(1));
            assert_eq!(density.unwrap_err(), want);
            let trajectory = crate::TrajectoryExecutor::new(&device, 2).try_run_pooled(
                &program,
                &mut seeded(1),
                16,
                1,
                &ShotPool::serial(),
            );
            assert_eq!(trajectory.unwrap_err(), want);
            assert!(want.to_string().contains("2-qubit device"), "{want}");
        }
    }

    #[test]
    fn qutrit_run_increment() {
        // X01 pulse then an f12-shifted pulse: |0⟩ → |1⟩ → |2⟩.
        let device = DeviceModel::ideal(1);
        let mut rng = seeded(5);
        let cal = calibrate(&device, &mut rng);
        let p = device.qubit(0);
        let mut s = Schedule::new("q");
        s.append(Instruction::Play {
            waveform: cal.qubit(0).rx180_waveform("x01"),
            channel: Channel::Drive(0),
        });
        s.append(Instruction::ShiftFrequency {
            delta: p.alpha,
            channel: Channel::Drive(0),
        });
        // π pulse on 1↔2: matrix element √2 stronger.
        s.append(Instruction::Play {
            waveform: cal
                .qubit(0)
                .rx180
                .waveform("x12")
                .scaled(1.0 / std::f64::consts::SQRT_2),
            channel: Channel::Drive(0),
        });
        let exec = PulseExecutor::noiseless(&device);
        let out = exec.run_qutrit(&s, &mut rng);
        assert!(
            out.populations[2] > 0.95,
            "populations = {:?}",
            out.populations
        );
    }

    #[test]
    fn iq_sampling_separates_levels() {
        let mut rng = seeded(6);
        let device = DeviceModel::almaden_like(1, &mut rng);
        let outcome = QutritOutcome {
            populations: vec![1.0, 0.0, 0.0],
            duration: 0,
        };
        let shots = outcome.sample_iq_shots(&device, &mut rng, 500);
        assert_eq!(shots.len(), 500);
        let r = device.readout(0);
        let mean_i: f64 = shots.iter().map(|((i, _), _)| *i).sum::<f64>() / shots.len() as f64;
        assert!((mean_i - r.iq0.0).abs() < 0.1, "mean I = {mean_i}");
    }

    #[test]
    fn pool_spawns_the_threads_it_is_given_on_any_host() {
        // One `init()` per spawned worker: a 4-thread pool over 8 jobs
        // fans out to exactly 4 workers, whatever the host's core count.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let out = ShotPool::new(4).map_indices_with(
            8,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, i| i,
        );
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(inits.load(Ordering::Relaxed), 4);
    }

    fn mix(i: usize) -> u64 {
        (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
    }

    #[test]
    fn stream_delivers_in_order_and_matches_serial_at_any_thread_count() {
        use std::sync::{Condvar, Mutex};
        let caller = std::thread::current().id();
        for n in [0usize, 1, 3, 64] {
            let serial: Vec<u64> = (0..n).map(mix).collect();
            for threads in 1..=4 {
                // At n = 64 each spawned worker holds its first job until
                // the calling thread has finished a job with a higher
                // index: the caller then holds a result whose predecessor
                // is still out.
                let forced = n == 64;
                let caller_last = (Mutex::new(None::<usize>), Condvar::new());
                let job = |first: &mut bool, i: usize| {
                    let (last, finished) = &caller_last;
                    if forced && std::thread::current().id() == caller {
                        *last.lock().unwrap() = Some(i);
                        finished.notify_all();
                    } else if forced && std::mem::take(first) {
                        let guard = last.lock().unwrap();
                        drop(
                            finished
                                .wait_while(guard, |l| l.is_none_or(|l| l < i))
                                .unwrap(),
                        );
                    }
                    mix(i)
                };
                let pool = ShotPool::new(threads);
                // Indices as the sink saw them, asserted after the call: a
                // panicking sink would leave the held workers waiting.
                let mut order = Vec::new();
                let mut streamed = Vec::new();
                pool.stream_indices_with(
                    n,
                    || true,
                    job,
                    |i, v| {
                        order.push(i);
                        streamed.push(v);
                    },
                );
                assert!(
                    order.iter().copied().eq(0..n),
                    "n={n}, {threads} threads: {order:?}"
                );
                assert_eq!(streamed, serial, "n={n}, {threads} threads: stream");
                let mapped = pool.map_indices_with(n, || true, job);
                assert_eq!(mapped, serial, "n={n}, {threads} threads: map");
            }
        }
    }

    #[test]
    fn stream_reraises_a_panic_with_its_payload_and_never_hangs() {
        // (thread count, job that panics, sink index that panics)
        let cases = [
            (1, Some(5), None),
            (2, Some(0), None),
            (3, Some(63), None),
            (4, Some(17), None),
            (2, None, Some(9)),
            (4, None, Some(0)),
        ];
        for (threads, bad_job, bad_sink) in cases {
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let outcome = std::panic::catch_unwind(|| {
                    ShotPool::new(threads).stream_indices_with(
                        64,
                        || (),
                        |(), i| {
                            if Some(i) == bad_job {
                                std::panic::panic_any(format!("job {i}"));
                            }
                            mix(i)
                        },
                        |i, _| {
                            if Some(i) == bad_sink {
                                std::panic::panic_any(format!("sink {i}"));
                            }
                        },
                    )
                });
                let message = outcome
                    .err()
                    .and_then(|payload| payload.downcast_ref::<String>().cloned());
                let _ = tx.send(message);
            });
            let want = match (bad_job, bad_sink) {
                (Some(i), _) => format!("job {i}"),
                (_, i) => format!("sink {}", i.unwrap_or_default()),
            };
            let got = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("the caller hung after a panic");
            assert_eq!(got, Some(want), "{threads} threads");
        }
    }
}
