//! Closed-loop workloads: one client thread sends the next job when the
//! previous one returns.
//!
//! Every job runs either through the production entry points
//! (`qasm::parse`, `compile_circuit`, `execute_compiled`) or, in the
//! traced run, through each layer's public functions in the same order
//! and with the same stream seeds, so both paths must produce the same
//! checksum bit for bit.

use crate::inputs::{round_jobs, Backend, Job, Payload, Sizes, Workload};
use crate::stats::{fnv, FNV_OFFSET};
use crate::trace::Tracer;
use pulse_compiler::{
    baseline_optimize, optimize, route, to_basis, BasisKind, CompileMode, CouplingMap,
    LowerOptions, Lowering,
};
use quant_char::{counts_to_distribution, hellinger_fidelity};
use quant_circuit::{qasm, Circuit};
use quant_corpus::pipeline::{compile_circuit, execute_compiled, PipelineConfig};
use quant_device::{Block, DriveState, LoweredProgram, PulseExecutor, ShotPool};
use quant_math::{seeded, stream_seed};
use quant_pulse::Channel;
use std::time::Instant;

/// Widest register the density executor takes (the pipeline default).
/// Every executed job fits it, so the trajectory executor never runs.
pub const DENSITY_MAX_QUBITS: u32 = 6;
/// Lowest Hellinger fidelity accepted between noiseless pulse execution
/// and the gate-level distribution (the circuits the check admits scored
/// 0.987 or more when the benchmark was introduced).
pub const TRANSLATION_MIN_FIDELITY: f64 = 0.98;
/// Most two-qubit gates a circuit of the translation check may have.
/// Noiseless pulses still carry the device model's coherent error (CR
/// leakage, ZZ), about 0.1% per two-qubit gate: a 1-bit ripple adder
/// (17 of them, 6 SWAPs after routing) reaches only 0.89–0.97, which is
/// physics, not a translation bug.
pub const TRANSLATION_MAX_TWO_QUBIT: usize = 12;

/// What one job produced.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outcome {
    /// Fold of every deterministic output (schedule and counts).
    pub checksum: u64,
    /// Schedule duration in `dt`.
    pub duration_dt: u64,
    /// Hellinger fidelity against the routed ideal, for executed jobs.
    pub fidelity: Option<f64>,
}

/// Folds one job's deterministic outputs into an [`Outcome`].
pub fn outcome(
    duration_dt: u64,
    pulses: usize,
    swaps: usize,
    counts: Option<&[u64]>,
    fidelity: Option<f64>,
) -> Outcome {
    let mut h = fnv(FNV_OFFSET, duration_dt);
    h = fnv(h, pulses as u64);
    h = fnv(h, swaps as u64);
    for &c in counts.unwrap_or(&[]) {
        h = fnv(h, c);
    }
    h = fnv(h, fidelity.map_or(u64::MAX, f64::to_bits));
    Outcome {
        checksum: h,
        duration_dt,
        fidelity,
    }
}

fn pipeline_config(job: &Job, sizes: &Sizes) -> PipelineConfig {
    PipelineConfig {
        mode: job.mode,
        shots: sizes.density_shots,
        seed: job.seed,
        noisy: true,
        density_max_qubits: DENSITY_MAX_QUBITS,
        ..PipelineConfig::default()
    }
}

/// Runs one job through the production entry points.
pub fn run_job(
    backends: &[Backend],
    job: &Job,
    sizes: &Sizes,
    pool: &ShotPool,
) -> Result<Outcome, String> {
    let b = backends.get(job.backend).ok_or("job names no backend")?;
    let parsed;
    let circuit = match &job.payload {
        Payload::Qasm(text) => {
            parsed = qasm::parse(text).map_err(|e| format!("parse: {e}"))?;
            &parsed
        }
        Payload::Ir(c) => c,
    };
    let cc =
        compile_circuit(&b.device, &b.calibration, circuit, job.mode).map_err(|e| e.to_string())?;
    let (duration, pulses, swaps) = (
        cc.compiled.duration(),
        cc.compiled.pulse_count(),
        cc.routed.swaps_inserted,
    );
    if !job.execute {
        return Ok(outcome(duration, pulses, swaps, None, None));
    }
    let config = pipeline_config(job, sizes);
    let (_, counts) = execute_compiled(&b.device, &cc, &config, pool).map_err(|e| e.to_string())?;
    let ideal = cc.routed.circuit.output_distribution();
    let fidelity = hellinger_fidelity(&ideal, &counts_to_distribution(&counts));
    Ok(outcome(
        duration,
        pulses,
        swaps,
        Some(&counts),
        Some(fidelity),
    ))
}

/// Work counters gathered at the traced layer boundaries.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Operations produced by the QASM parser.
    pub parsed_ops: u64,
    /// SWAPs routing inserted.
    pub swaps: u64,
    /// Operations entering the transpiler passes.
    pub passes_in: u64,
    /// Operations leaving them (assembly stage).
    pub passes_out: u64,
    /// Basis-gate operations after translation.
    pub translate_out: u64,
    /// Pulses lowered.
    pub pulses: u64,
    /// Total lowered schedule duration in `dt`.
    pub duration_dt: u64,
    /// Static-verification findings (must stay 0).
    pub findings: u64,
}

/// A lowered program kept for the integration replay.
pub struct Executed {
    /// Backend it ran on.
    pub backend: usize,
    /// The program.
    pub program: LoweredProgram,
}

/// `Compiler::compile` taken apart: transpiler passes, basis
/// translation, lowering and static verification, one span each under
/// `parent`. Verification runs here as its own layer; the traced child
/// process disables the copy inside lowering so it is not done twice.
pub fn traced_compile(
    tracer: &mut Tracer,
    request: u64,
    parent: usize,
    b: &Backend,
    circuit: &Circuit,
    mode: CompileMode,
    counters: &mut Counters,
) -> Result<LoweredProgram, String> {
    let parent = Some(parent);
    let (kind, options) = match mode {
        CompileMode::Standard => (BasisKind::Standard, LowerOptions::default()),
        CompileMode::Optimized => (
            BasisKind::Augmented,
            LowerOptions {
                pulse_cancellation: true,
            },
        ),
    };
    let assembly = tracer.span(request, "passes", parent, || match mode {
        CompileMode::Standard => baseline_optimize(circuit),
        CompileMode::Optimized => optimize(circuit),
    });
    counters.passes_in += circuit.len() as u64;
    counters.passes_out += assembly.len() as u64;
    let basis = tracer.span(request, "translate", parent, || to_basis(&assembly, kind));
    counters.translate_out += basis.len() as u64;
    let lowering = Lowering::new(&b.device, &b.calibration, options);
    let program = tracer
        .span(request, "lower", parent, || lowering.lower(&basis))
        .map_err(|e| format!("lower: {e}"))?;
    let findings = tracer.span(request, "verify", parent, || {
        quant_pulse::verify(&program.schedule, &b.device.verify_spec())
    });
    counters.findings += findings.len() as u64;
    if !findings.is_empty() {
        return Err(format!("verify: {} finding(s)", findings.len()));
    }
    counters.pulses += program.pulse_count() as u64;
    counters.duration_dt += program.duration();
    Ok(program)
}

/// Runs one job through each layer's public functions, recording a span
/// per layer under a request span.
pub fn traced_job(
    tracer: &mut Tracer,
    request: u64,
    backends: &[Backend],
    job: &Job,
    sizes: &Sizes,
    counters: &mut Counters,
    executed: &mut Vec<Executed>,
) -> Result<Outcome, String> {
    let b = backends.get(job.backend).ok_or("job names no backend")?;
    let root = tracer.open(request, "request", None);
    let parent = Some(root);
    let parsed;
    let circuit: &Circuit = match &job.payload {
        Payload::Qasm(text) => {
            parsed = tracer
                .span(request, "parse", parent, || qasm::parse(text))
                .map_err(|e| format!("parse: {e}"))?;
            counters.parsed_ops += parsed.len() as u64;
            &parsed
        }
        Payload::Ir(c) => c,
    };
    let map = CouplingMap::linear(b.device.num_qubits() as u32);
    let routed = tracer
        .span(request, "route", parent, || route(circuit, &map))
        .map_err(|e| format!("route: {e}"))?;
    counters.swaps += routed.swaps_inserted as u64;
    let program = traced_compile(
        tracer,
        request,
        root,
        b,
        &routed.circuit,
        job.mode,
        counters,
    )?;
    let (duration, pulses) = (program.duration(), program.pulse_count());
    if !job.execute {
        tracer.close(root);
        return Ok(outcome(duration, pulses, routed.swaps_inserted, None, None));
    }
    if routed.circuit.num_qubits() > DENSITY_MAX_QUBITS {
        return Err("wider than the density executor takes".into());
    }
    let out = tracer
        .span(request, "density", parent, || {
            PulseExecutor::new(&b.device).try_run(&program, &mut seeded(stream_seed(job.seed, 0)))
        })
        .map_err(|e| format!("execute: {e}"))?;
    let counts = tracer.span(request, "sample", parent, || {
        out.sample_counts_deterministic(stream_seed(job.seed, 1), sizes.density_shots)
    });
    let fidelity = tracer.span(request, "score", parent, || {
        hellinger_fidelity(
            &routed.circuit.output_distribution(),
            &counts_to_distribution(&counts),
        )
    });
    tracer.close(root);
    executed.push(Executed {
        backend: job.backend,
        program,
    });
    Ok(outcome(
        duration,
        pulses,
        routed.swaps_inserted,
        Some(&counts),
        Some(fidelity),
    ))
}

/// Integrates every block of `e` once, noiselessly, and returns the
/// elapsed seconds: an estimate of the share of execution spent in pulse
/// integration. Runs outside the request spans.
pub fn integrate_estimate(backends: &[Backend], e: &Executed) -> Result<f64, String> {
    let b = backends.get(e.backend).ok_or("program names no backend")?;
    // opclint: allow(nondeterminism): benchmark timing of the integration replay
    let t0 = Instant::now();
    for block in &e.program.blocks {
        match block {
            Block::Gate1Q { qubit, waveforms } => {
                let transmon = b.device.transmon_exec(*qubit);
                for w in waveforms {
                    std::hint::black_box(transmon.integrate_play(&mut DriveState::default(), w));
                }
            }
            Block::Gate2Q {
                control,
                target,
                schedule,
            } => {
                let pair = b
                    .device
                    .pair_exec(*control, *target)
                    .ok_or("uncoupled pair in a verified program")?;
                let u_ch = b
                    .device
                    .control_channel(*control, *target)
                    .ok_or("pair without a control channel")?;
                std::hint::black_box(pair.integrate(
                    schedule,
                    Channel::Drive(*control),
                    Channel::Drive(*target),
                    u_ch,
                ));
            }
            Block::Idle { .. } => {}
        }
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// The measured part of a closed-loop run.
#[derive(Debug, Default)]
pub struct ClosedRun {
    /// Per cell of the round (a circuit slot in one flow), its fastest
    /// latency over the run's rounds.
    pub best_ms: Vec<f64>,
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs that returned an error.
    pub failed: usize,
    /// Fold of every job's checksum, in order.
    pub checksum: u64,
    /// Wall time of the measured loop.
    pub wall_s: f64,
    /// Round-0 fidelities of the standard flow.
    pub fidelity_std: Vec<f64>,
    /// Round-0 fidelities of the optimized flow.
    pub fidelity_opt: Vec<f64>,
    /// First error message, if any job failed.
    pub first_error: Option<String>,
    /// The first job and its outcome (the determinism gate reruns it).
    pub first: Option<(Job, Outcome)>,
}

/// Folds round 0's outcomes into per-flow fidelities.
fn round0_summary(run: &mut ClosedRun, jobs: &[Job], outcomes: &[Option<Outcome>]) {
    for (job, out) in jobs.iter().zip(outcomes) {
        if let Some(f) = out.and_then(|o| o.fidelity) {
            match job.mode {
                CompileMode::Standard => run.fidelity_std.push(f),
                CompileMode::Optimized => run.fidelity_opt.push(f),
            }
        }
    }
}

/// Circuits whose two flows feed the duration ratio.
pub const RATIO_PAIRS: usize = 64;

/// Gate-level over pulse-level schedule duration for the circuits of the
/// first rounds (at least [`RATIO_PAIRS`] of them), compiled through the
/// production path outside the measured window. A function of the seed
/// alone, and averaged over enough circuits that it hardly moves with it.
pub fn duration_ratios(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    backends: &[Backend],
) -> Result<Vec<f64>, String> {
    let mut ratios = Vec::new();
    for round in 0u64.. {
        if ratios.len() >= RATIO_PAIRS {
            break;
        }
        let jobs = round_jobs(workload, sizes, seed, round, 0);
        let pairs = jobs.iter().map(|j| j.pair + 1).max().unwrap_or(0);
        let mut durations = vec![(0u64, 0u64); pairs];
        for job in &jobs {
            let b = backends.get(job.backend).ok_or("job names no backend")?;
            let parsed;
            let circuit = match &job.payload {
                Payload::Qasm(text) => {
                    parsed = qasm::parse(text).map_err(|e| format!("parse: {e}"))?;
                    &parsed
                }
                Payload::Ir(c) => c,
            };
            let cc = compile_circuit(&b.device, &b.calibration, circuit, job.mode)
                .map_err(|e| e.to_string())?;
            match job.mode {
                CompileMode::Standard => durations[job.pair].0 = cc.compiled.duration(),
                CompileMode::Optimized => durations[job.pair].1 = cc.compiled.duration(),
            }
        }
        ratios.extend(
            durations
                .into_iter()
                .filter(|&(s, o)| s > 0 && o > 0)
                .map(|(s, o)| s as f64 / o as f64),
        );
    }
    Ok(ratios)
}

/// Runs `rounds` rounds of `workload`, calling `step` for each job (the
/// production or the traced path).
///
/// Latency is kept per cell as the fastest over the rounds. The VM the
/// benchmark runs on shares its cores with other tenants, whose load
/// slows stretches of a run by up to 40 %; interference only adds time,
/// and every round holds the same cells, so each cell's fastest instance
/// is the steadiest estimate of what the code itself costs.
pub fn measure(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    rounds: u64,
    mut step: impl FnMut(u64, &Job) -> Result<Outcome, String>,
) -> ClosedRun {
    let mut run = ClosedRun {
        checksum: FNV_OFFSET,
        ..ClosedRun::default()
    };
    // opclint: allow(nondeterminism): benchmark wall clock around the measured loop
    let start = Instant::now();
    let mut index = 0u64;
    for round in 0..rounds {
        let jobs = round_jobs(workload, sizes, seed, round, index);
        let mut outcomes = Vec::with_capacity(jobs.len());
        run.best_ms.resize(jobs.len(), f64::INFINITY);
        for job in &jobs {
            // opclint: allow(nondeterminism): per-job latency clock
            let t0 = Instant::now();
            let result = step(index, job);
            let cell = 2 * job.pair + usize::from(job.mode == CompileMode::Optimized);
            if let Some(best) = run.best_ms.get_mut(cell) {
                *best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            run.attempted += 1;
            index += 1;
            match &result {
                Ok(out) => {
                    run.checksum = fnv(run.checksum, out.checksum);
                    if run.first.is_none() {
                        run.first = Some((job.clone(), *out));
                    }
                }
                Err(e) => {
                    run.failed += 1;
                    run.checksum = fnv(run.checksum, u64::MAX);
                    run.first_error.get_or_insert_with(|| e.clone());
                }
            }
            outcomes.push(result.ok());
        }
        if round == 0 {
            round0_summary(&mut run, &jobs, &outcomes);
        }
    }
    run.wall_s = start.elapsed().as_secs_f64();
    run
}

/// Checks that noiseless pulse execution of `logical`, compiled on `b`
/// after routing onto a line of its own width, reproduces the logical
/// circuit's gate-level distribution (permuted by the final layout).
/// Returns the Hellinger fidelity.
pub fn translation_fidelity(
    b: &Backend,
    logical: &Circuit,
    mode: CompileMode,
) -> Result<f64, String> {
    let n = logical.num_qubits();
    let routed = route(logical, &CouplingMap::linear(n)).map_err(|e| format!("route: {e}"))?;
    let compiled = pulse_compiler::Compiler::new(&b.device, &b.calibration, mode)
        .compile(&routed.circuit)
        .map_err(|e| format!("compile: {e}"))?;
    let out = PulseExecutor::noiseless(&b.device)
        .try_run(&compiled.program, &mut seeded(1))
        .map_err(|e| format!("execute: {e}"))?;
    let ideal = logical.output_distribution();
    let mut permuted = vec![0.0; ideal.len()];
    for (index, &p) in ideal.iter().enumerate() {
        let mut physical = 0usize;
        for (lq, &pq) in routed.final_layout.iter().enumerate() {
            if (index >> lq) & 1 == 1 {
                physical |= 1 << pq;
            }
        }
        permuted[physical] += p;
    }
    Ok(hellinger_fidelity(&permuted, &out.probabilities))
}
