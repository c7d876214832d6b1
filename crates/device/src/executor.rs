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
use crate::timeline::{timeline, Event};
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

impl ExecError {
    /// Checks that a program's register fits the device: at least one
    /// qubit and no more than the device has.
    pub(crate) fn check_width(program: u32, device: usize) -> Result<(), ExecError> {
        if program == 0 || program as usize > device {
            return Err(ExecError::RegisterWidth { program, device });
        }
        Ok(())
    }
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
#[derive(Clone, Debug)]
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
#[derive(Clone, Debug, Default)]
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
    /// Samples measurement counts from the post-readout distribution.
    pub fn sample_counts(&self, rng: &mut impl Rng, shots: usize) -> Vec<u64> {
        quant_math::sample_counts(rng, &self.probabilities, shots)
    }

    /// Samples counts with one deterministic RNG stream per shot
    /// (`seeded(seed ^ shot_index)`). This is the serial reference for
    /// [`ShotPool::sample_counts`], which produces bit-identical counts at
    /// any thread count.
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
    reference: bool,
}

impl<'a> PulseExecutor<'a> {
    /// An executor with the full noise model.
    pub fn new(device: &'a DeviceModel) -> Self {
        PulseExecutor {
            device,
            noisy: true,
            reference: false,
        }
    }

    /// An executor that integrates pulse physics but skips decoherence,
    /// jitter and readout error (for characterizing pure pulse effects).
    pub fn noiseless(device: &'a DeviceModel) -> Self {
        PulseExecutor {
            device,
            noisy: false,
            reference: false,
        }
    }

    /// Switches density-matrix evolution to the embed-based reference
    /// route with per-stage (uncoalesced) relaxation — float-for-float the
    /// pre-kernel implementation. Slow; exists so tests can assert the
    /// fast path reproduces identical sampled counts.
    pub fn with_reference_path(mut self) -> Self {
        self.reference = true;
        self
    }

    /// Runs a lowered program and returns the outcome distribution.
    ///
    /// Panics if the program addresses a pair the device topology does
    /// not couple; use [`PulseExecutor::try_run`] to get the error as a
    /// value instead.
    pub fn run(&self, program: &LoweredProgram, rng: &mut impl Rng) -> ExecOutcome {
        match self.try_run(program, rng) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
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
    ///    distinct `(qubit, duration)`.
    ///
    /// Phases 2 and 3 overlap ([`ShotPool::stream_indices_with`]): the
    /// calling thread evolves the density matrix through event `i` as soon
    /// as event `i`'s channel is ready, then drops the channel, and
    /// integrates the next unclaimed event itself while the next channel
    /// in order is still being integrated elsewhere. Evolution order and
    /// every floating-point operation are the same as running the phases
    /// back to back.
    ///
    /// The compile service calls the serial [`PulseExecutor::try_run`]
    /// per job on purpose: its workers already occupy every core, and a
    /// nested fan-out would oversubscribe them.
    pub fn try_run_pooled(
        &self,
        program: &LoweredProgram,
        rng: &mut impl Rng,
        pool: &ShotPool,
    ) -> Result<ExecOutcome, ExecError> {
        let device = self.device;
        ExecError::check_width(program.num_qubits, device.num_qubits())?;
        let sigma = self.jitter_sigma();
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
            } if self.noisy => Event::Pair {
                control,
                target,
                pair,
                channel,
                schedule: Cow::Owned(jitter_schedule(&schedule, device.pulse_amp_jitter(), rng)),
            },
            other => other,
        })?;
        // A run that draws jitter never repeats a pulse: looking one up
        // could only miss, and storing it would only cost memory.
        // opclint: allow(float-literal-eq): exact short-circuit — noiseless devices report a literal 0.0 jitter sigma
        let cache = (sigma == 0.0).then(|| device.pulse_cache());

        // Relaxation stages per distinct (qubit, duration): one composed
        // channel on the kernel path, the per-stage channels on the
        // reference path (float-identical to the pre-kernel route), none
        // when decoherence is off.
        let relax: Vec<(usize, Vec<Vec<CMat>>)> = line
            .relax
            .iter()
            .map(|&(q, samples)| {
                let p = device.qubit(q);
                let t = samples as f64 * DT;
                let stages = if !self.noisy {
                    Vec::new()
                } else if self.reference {
                    channels::thermal_relaxation(t, p.t1, p.t2)
                } else {
                    vec![channels::thermal_relaxation_kraus(t, p.t1, p.t2)]
                };
                (q as usize, stages)
            })
            .collect();
        // Thermal SPAM: imperfect reset leaves residual |1⟩ population that
        // readout mitigation (a measurement-side correction) cannot remove.
        let p_reset = device.reset_excited_prob();
        let flip = (self.noisy && p_reset > 0.0).then(|| {
            vec![
                CMat::identity(2).scale(C64::real((1.0 - p_reset).sqrt())),
                quant_sim::gates::x().scale(C64::real(p_reset.sqrt())),
            ]
        });

        let n = program.num_qubits as usize;
        let mut rho = DensityMatrix::zero_qubits(n);
        let mut scratch = KernelScratch::new();
        let events = &line.events;
        pool.stream_indices_with(
            events.len(),
            || (),
            |(), i| integrate(device, &events[i], cache),
            |i, kraus| match &events[i] {
                Event::Spam(q) => {
                    if let Some(flip) = &flip {
                        self.apply_kraus(&mut rho, flip, &[*q as usize], &mut scratch);
                    }
                }
                Event::Relax(id) => {
                    let (q, stages) = &relax[*id];
                    for stage in stages {
                        self.apply_kraus(&mut rho, stage, &[*q], &mut scratch);
                    }
                }
                Event::Play { qubit, .. } => {
                    self.apply_kraus(&mut rho, &kraus, &[*qubit as usize], &mut scratch);
                }
                Event::Pair {
                    control, target, ..
                } => {
                    let targets = [*control as usize, *target as usize];
                    self.apply_kraus(&mut rho, &kraus, &targets, &mut scratch);
                }
            },
        );

        let true_probabilities = rho.probabilities();
        let probabilities = if self.noisy {
            let readouts: Vec<_> = (0..n as u32).map(|q| *device.readout(q)).collect();
            readout::apply_confusion(&true_probabilities, &readouts)
        } else {
            true_probabilities.clone()
        };
        Ok(ExecOutcome {
            probabilities,
            true_probabilities,
            duration: line.end,
        })
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
                    let w = jittered(Cow::Borrowed(waveform), self.jitter_sigma(), rng);
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

    /// The per-pulse amplitude jitter (1σ) runs draw: the device's, or 0
    /// when the noise model is off.
    fn jitter_sigma(&self) -> f64 {
        if self.noisy {
            self.device.pulse_amp_jitter()
        } else {
            0.0
        }
    }

    /// Applies a Kraus channel via the stride kernel and the shared
    /// scratch, or via the embed reference when the reference path is on.
    fn apply_kraus(
        &self,
        rho: &mut DensityMatrix,
        kraus: &[CMat],
        targets: &[usize],
        scratch: &mut KernelScratch,
    ) {
        if self.reference {
            rho.apply_kraus_ref(kraus, targets);
        } else {
            rho.apply_kraus_scratch(kraus, targets, scratch);
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
/// per-index stream (`seeded(seed ^ i)`) — so results are bit-identical to
/// a serial run at any thread count.
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
    /// (derive randomness as `seeded(seed ^ index)`); the output is then
    /// independent of the thread count.
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

    /// Samples `shots` measurement outcomes from `probabilities` using one
    /// deterministic RNG stream per shot (`seeded(seed ^ shot_index)`), and
    /// returns the per-outcome counts. Counts are u64 sums of independent
    /// per-shot draws, so the result is bit-identical at any thread count
    /// (and to [`ExecOutcome::sample_counts_deterministic`]).
    pub fn sample_counts(&self, probabilities: &[f64], shots: usize, seed: u64) -> Vec<u64> {
        // A single categorical draw is tens of nanoseconds; below a few
        // tens of thousands of shots per worker, thread spawn + join costs
        // more than the sampling itself (the fig04 suite regressed to
        // 0.9× when its 10 k-shot jobs were split across 2 threads). Cap
        // the fan-out so every worker has enough draws to amortize.
        const MIN_SHOTS_PER_WORKER: usize = 16_384;
        let bins = probabilities.len();
        let threads = self
            .threads
            .min(shots.max(1))
            .min((shots / MIN_SHOTS_PER_WORKER).max(1));
        let chunk = shots.div_ceil(threads.max(1)).max(1);
        let ranges: Vec<(usize, usize)> = (0..shots)
            .step_by(chunk)
            .map(|start| (start, (start + chunk).min(shots)))
            .collect();
        let partials = self.map(&ranges, |_, &(start, end)| {
            let mut counts = vec![0u64; bins];
            for shot in start..end {
                let mut rng = quant_math::seeded(seed ^ shot as u64);
                counts[quant_math::categorical(&mut rng, probabilities)] += 1;
            }
            counts
        });
        let mut total = vec![0u64; bins];
        for part in partials {
            for (t, p) in total.iter_mut().zip(part) {
                *t += p;
            }
        }
        total
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
/// waveform's peak is (near) zero.
pub(crate) fn jittered<'a>(
    w: Cow<'a, Waveform>,
    sigma: f64,
    rng: &mut impl Rng,
) -> Cow<'a, Waveform> {
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
    Cow::Owned(w.scaled((1.0 + xi / peak).clamp(0.0, 1.0 / peak)))
}

/// Returns a copy of a schedule with fresh additive amplitude jitter on
/// every `Play`.
pub(crate) fn jitter_schedule(schedule: &Schedule, sigma: f64, rng: &mut impl Rng) -> Schedule {
    // opclint: allow(float-literal-eq): exact short-circuit — noiseless devices report a literal 0.0 jitter sigma
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
                    let mut factor = 1.0 + normal(rng, 0.0, sigma) / peak;
                    // CR pulses additionally carry a calibration-transfer
                    // error: the stretched pulse is derived from the 45°
                    // tune-up, and the area→angle transfer on hardware is
                    // only good to ~1.5 % (cf. the paper's Fig. 9 spread).
                    if matches!(channel, Channel::Control(_)) {
                        factor += normal(rng, 0.0, 0.015);
                    }
                    waveform.scaled(factor.clamp(0.0, 1.0 / peak))
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

/// Phase 2 of [`PulseExecutor::try_run_pooled`]: one event's Kraus
/// channel (empty for SPAM and relaxation, which phase 3 applies), through
/// `cache` when given. Pure, so any thread may run it.
fn integrate(device: &DeviceModel, event: &Event, cache: Option<&PulseCache>) -> Vec<CMat> {
    match event {
        Event::Spam(_) | Event::Relax(_) => Vec::new(),
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
            contraction_kraus(&qubit_block(&u3x3))
        }
        Event::Pair {
            control,
            target,
            pair,
            channel,
            schedule,
        } => {
            let (c_drive, t_drive) = (Channel::Drive(*control), Channel::Drive(*target));
            let integrate = || pair.integrate(schedule, c_drive, t_drive, *channel).unitary;
            let unitary = match cache {
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
            };
            // The raw propagator is what physically happened; leftover
            // virtual-Z frames are compiler bookkeeping (baked into
            // *subsequent* pulses by the lowering pass) and must not be
            // realized here. Any frame pending at the end of the program
            // is a pure Z rotation, which a computational-basis measurement
            // cannot see. The qubit block is slightly sub-unitary (|2⟩
            // leakage); complete it to a CPTP channel.
            contraction_kraus(&unitary)
        }
    }
}

/// The (sub-unitary) qubit block of a single-qubit pulse's 3-level
/// propagator.
pub(crate) fn qubit_block(u3x3: &CMat) -> CMat {
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
        let out = exec.run(&program, &mut rng);
        assert!(out.probabilities[1] > 0.999, "p = {:?}", out.probabilities);
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
        let out = exec.run(&program, &mut rng);
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
        let p_short = exec.run(&short, &mut rng).true_probabilities[1];
        let p_long = exec.run(&long, &mut rng).true_probabilities[1];
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
        let out = exec.run(&program, &mut rng);
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
