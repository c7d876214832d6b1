//! Performance suite: wall-clock timing of compile+execute workloads.
//!
//! ```text
//! cargo run --release -p repro-bench --bin perfsuite [-- --smoke]
//! ```
//!
//! Times a figure-4-class single-gate workload and a reduced-shot
//! figure-13 workload (serial and pooled), the device tune-up itself
//! (cold at 1 and N threads, plus a warm snapshot load), the
//! density-matrix stride kernels against their embed-based reference on
//! 2–6 qubit registers, the trajectory executor on 8–20-qubit QAOA layers
//! past the `O(4ⁿ)` density wall (`trajectory_n{n}_reference`, the
//! retained serial reference route, vs `trajectory_n{n}_fused`, the fused
//! plan-replay route at 1 and N threads — with a fatal fused-vs-reference
//! count-checksum gate at a fixed root), the 20-qubit QAOA headline on the
//! fused route (`qaoa20_trajectory_fused`), the propagator hot loop
//! (eigendecomposition reference vs the Taylor scratch used by the
//! integrators), the pair integrator's block exponential (two blocks on
//! two lanes, `block_exp_two_lane`, vs the scalar kernel twice,
//! `block_exp_scalar_x2`), a θ-sweep with the pulse cache off vs on, the
//! pair integrator alone on jittered calibrated CX schedules
//! (`pair_integrate_jittered_cx`), and the
//! generated benchmark corpus end-to-end on both pools with a fatal
//! cross-pool checksum check (`corpus_full`, plus per-family
//! `corpus_<family>` rows whose `speedup` is the gate-over-pulse
//! schedule-duration ratio). Results — `workload`, `threads`, `wall_ms`,
//! `shots_per_s`, `speedup` (vs the workload's own baseline row) — are
//! written to `BENCH_7.json`.
//!
//! Pooled workloads are recorded at 1 thread *and* at a scaling thread
//! count: `OPC_THREADS` (default: every core), or 2 when that resolves to
//! a single thread on a multi-core host. A 1-CPU host has no scaling
//! pool — a wider one would only time-slice — so its N-thread rows print
//! `skipped (1 CPU)` and are not written. The determinism tests guarantee
//! the numbers themselves are identical at any thread count.
//!
//! Every `Setup` a figure row needs is constructed once before timing, so
//! the calibration snapshot store is warm and the figure rows measure
//! compile+execute — the tune-up wall has its own dedicated rows
//! (`fig12_setup_calibration`, timed with the snapshot store disabled, and
//! `calibration_warm_load`, timed against a freshly persisted store).
//!
//! `--smoke` runs every workload at tiny sizes and writes
//! `BENCH_smoke.json` — a CI-speed check that the suite runs end-to-end
//! and emits valid JSON, not a measurement.

use pulse_compiler::{CompileMode, Compiler};
use quant_char::rb_sequence;
use quant_circuit::Circuit;
use quant_device::{
    CalStore, Calibration, CalibrationOptions, DeviceModel, LoweredProgram, ProbeCache,
    PulseExecutor, ShotPool, TrajectoryExecutor, DT,
};
use quant_math::{
    normal, seeded, unitary_exp, unitary_exp9_in_blocks_into, Blocks9, CMat, PropagatorScratch, C64,
};
use quant_pulse::{Channel, Instruction, Schedule};
use quant_sim::{channels, gates, DensityMatrix, KernelScratch};
use rand::Rng;
use repro_bench::{json, qaoa_line_circuit, timing::time_best, Setup};
use std::sync::Arc;
use std::time::Instant;

struct Entry {
    workload: String,
    threads: usize,
    wall_ms: f64,
    shots_per_s: f64,
    speedup: f64,
    /// Extra numeric fields some workloads report (e.g. the service rows'
    /// latency percentiles); emitted verbatim into the JSON object.
    extra: Vec<(&'static str, f64)>,
}

fn record(
    entries: &mut Vec<Entry>,
    workload: impl Into<String>,
    threads: usize,
    wall_ms: f64,
    shots: usize,
    baseline_ms: f64,
) {
    let entry = Entry {
        workload: workload.into(),
        threads,
        wall_ms,
        shots_per_s: shots as f64 / (wall_ms / 1e3),
        speedup: baseline_ms / wall_ms,
        extra: Vec::new(),
    };
    println!(
        "{:<28} threads={:<2} {:>10.1} ms {:>12.0} shots/s {:>6.2}x",
        entry.workload, entry.threads, entry.wall_ms, entry.shots_per_s, entry.speedup
    );
    entries.push(entry);
}

/// Figure-4 class: compile the X gate both ways and execute noiselessly,
/// `reps` times. One compile+execute+sample pass is sub-millisecond now
/// that the tune-up loads from the snapshot store, so the repetition count
/// is what lifts the row above the timer's noise floor.
fn fig04_workload(pool: &ShotPool, shots: usize, reps: usize) -> usize {
    let setup = Setup::almaden(1, 404);
    let mut c = Circuit::new(1);
    c.x(0);
    for _ in 0..reps {
        for mode in [CompileMode::Standard, CompileMode::Optimized] {
            let compiled = Compiler::new(&setup.device, &setup.calibration, mode)
                .compile(&c)
                .unwrap();
            let exec = PulseExecutor::noiseless(&setup.device);
            let out = exec.run(&compiled.program, &mut seeded(1));
            std::hint::black_box(pool.sample_counts(&out.probabilities, shots, 404));
        }
    }
    reps * 2 * shots
}

/// Figure-13 class at reduced shots: RB cells through both compile modes.
fn fig13_workload(pool: &ShotPool, shots: usize) -> usize {
    let setup = Setup::armonk(1313);
    let lengths = [20usize, 40, 60];
    let randomizations = 2;
    let exec = PulseExecutor::new(&setup.device);
    for mode in [CompileMode::Standard, CompileMode::Optimized] {
        let cells = pool.map_indices(lengths.len() * randomizations, |j| {
            let k = lengths[j / randomizations];
            let r = j % randomizations;
            let mut rng = seeded(5000 + (k * 31 + r) as u64);
            let c = rb_sequence(k, &mut rng);
            let program = Compiler::new(&setup.device, &setup.calibration, mode)
                .compile(&c)
                .unwrap()
                .program;
            let out = exec.run(&program, &mut rng);
            out.sample_counts(&mut rng, shots)[0]
        });
        std::hint::black_box(cells);
    }
    lengths.len() * randomizations * 2 * shots
}

/// The executor hot loop in miniature: per round, a 1-qubit Kraus channel
/// on every qubit, a 2-qubit gate on every adjacent pair, and a coalesced
/// thermal-relaxation channel on every qubit — via the stride kernels or
/// the embed-based reference. Returns the number of operator applications.
fn density_kernel_workload(n: usize, reference: bool, rounds: usize) -> usize {
    let dims = vec![2usize; n];
    let mut rho = DensityMatrix::zero(&dims);
    let mut scratch = KernelScratch::new();
    let gate1 = channels::amplitude_damping(0.003);
    let gate2 = gates::cnot();
    let relax = channels::thermal_relaxation_kraus(50e-9, 80e-6, 70e-6);
    let mut ops = 0usize;
    for round in 0..rounds {
        for q in 0..n {
            if reference {
                rho.apply_kraus_ref(&gate1, &[q]);
            } else {
                rho.apply_kraus_scratch(&gate1, &[q], &mut scratch);
            }
        }
        for q in 0..n - 1 {
            let pair = if round % 2 == 0 {
                [q, q + 1]
            } else {
                [q + 1, q]
            };
            if reference {
                rho.apply_unitary_ref(&gate2, &pair);
            } else {
                rho.apply_unitary_scratch(&gate2, &pair, &mut scratch);
            }
        }
        for q in 0..n {
            if reference {
                rho.apply_kraus_ref(&relax, &[q]);
            } else {
                rho.apply_kraus_scratch(&relax, &[q], &mut scratch);
            }
        }
        ops += 3 * n - 1;
    }
    std::hint::black_box(rho.trace());
    ops
}

/// The trajectory executor on a textbook-compiled (CNOT·Rz·CNOT) QAOA
/// line-graph layer: `trajectories` stochastic state-vector runs with
/// `shots` outcomes spread across them — the workload class the `O(4ⁿ)`
/// density wall keeps away from the density-matrix executor.
#[derive(Clone, Copy, PartialEq)]
enum TrajRoute {
    /// Retained reference route: skip-scan kernels, per-sample pulse
    /// integration, clone-per-branch channel sampling and an `O(2ⁿ)`
    /// categorical scan per shot.
    Reference,
    /// Gate-fusion plan-replay route: fused block kernels, run-compressed
    /// pair integration, branch weighing against block reduced densities
    /// and binary-search sampling on a per-trajectory cumulative
    /// distribution.
    Fused,
}

/// Runs the workload once and returns the counts (fixed root 41, so both
/// routes must agree bit-for-bit; the checksum gate asserts it).
fn trajectory_counts(
    program: &LoweredProgram,
    device: &DeviceModel,
    trajectories: usize,
    shots: usize,
    route: TrajRoute,
    pool: &ShotPool,
) -> Vec<u64> {
    let exec = TrajectoryExecutor::new(device, trajectories);
    let exec = match route {
        TrajRoute::Reference => exec.with_reference_path(),
        TrajRoute::Fused => exec,
    };
    match exec.try_run_pooled(program, shots, 41, pool) {
        Ok(counts) => counts,
        Err(e) => die(format_args!("trajectory workload failed: {e}")),
    }
}

/// The pool for the N-thread rows: `OPC_THREADS` (default: every core),
/// or 2 threads when that resolves to one on a multi-core host. `None` on
/// a 1-CPU host, where a wider pool would only time-slice.
fn scaling_pool() -> Option<ShotPool> {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    (host > 1).then(|| {
        let pool = ShotPool::from_env();
        if pool.threads() > 1 {
            pool
        } else {
            ShotPool::new(2)
        }
    })
}

/// Times `work` on the scaling pool (best of `best`) and records it as an
/// N-thread row, or says why there is none.
fn record_scaled(
    entries: &mut Vec<Entry>,
    workload: impl Into<String>,
    pool: Option<&ShotPool>,
    best: u32,
    baseline_ms: f64,
    mut work: impl FnMut(&ShotPool) -> usize,
) {
    let workload = workload.into();
    match pool {
        Some(pool) => {
            let (n, ms) = time_best(best, || work(pool));
            record(entries, workload, pool.threads(), ms, n, baseline_ms);
        }
        None => println!("{workload:<28} threads=N  skipped (1 CPU)"),
    }
}

/// Reports a fatal workload error and exits nonzero — a benchmark binary
/// has no caller to hand a `Result` to, and a clean diagnostic beats a
/// panic backtrace.
fn die(msg: std::fmt::Arguments<'_>) -> ! {
    eprintln!("perfsuite: {msg}");
    std::process::exit(1);
}

/// Compiles the fixed-angle QAOA layer for the trajectory rows. The angles
/// are held constant (instead of `solve_p1`-optimized) so the setup stays
/// polynomial at 12–20 qubits; Standard mode keeps the echoed-CR `cx`
/// schedules the paper's Fig. 2 flow lowers to.
fn trajectory_program(setup: &Setup, n: usize, mode: CompileMode) -> LoweredProgram {
    let circuit = qaoa_line_circuit(n, Some((0.7, 0.42)));
    match Compiler::new(&setup.device, &setup.calibration, mode).compile(&circuit) {
        Ok(compiled) => compiled.program,
        Err(e) => die(format_args!("compile QAOA-{n} layer failed: {e:?}")),
    }
}

/// The per-sample propagator hot loop, via the eigendecomposition
/// reference or the allocation-free Taylor scratch the integrators use.
fn propagator_workload(taylor: bool, samples: usize) {
    // A transmon-like 3×3 drive Hamiltonian at the integrator's step norm.
    let mut h = CMat::zeros(3, 3);
    h[(0, 1)] = C64::new(0.9e9, 0.2e9);
    h[(1, 0)] = C64::new(0.9e9, -0.2e9);
    h[(1, 2)] = C64::new(1.2e9, -0.3e9);
    h[(2, 1)] = C64::new(1.2e9, 0.3e9);
    h[(2, 2)] = C64::real(-2.0e9);
    let mut scratch = PropagatorScratch::new(3);
    let mut out = CMat::zeros(3, 3);
    let mut acc = C64::ZERO;
    for k in 0..samples {
        let t = DT * (1.0 + (k % 7) as f64 * 1e-3);
        if taylor {
            scratch.unitary_exp_into(&h, t, &mut out);
            acc += out.trace();
        } else {
            acc += unitary_exp(&h, t).trace();
        }
    }
    std::hint::black_box(acc);
}

/// The pair integrator's block exponential on two blocks of a CR-like
/// generator: one masked call that runs them on two lanes, or two
/// single-block calls that run the scalar kernel once each.
fn block_exp_workload(two_lane: bool, steps: usize) {
    let mut h = [[C64::ZERO; 9]; 3];
    for (b, block) in h.iter_mut().enumerate() {
        let stark = -2.0e9 * b as f64;
        block[0] = C64::real(0.3e9 + stark);
        block[4] = C64::real(-0.3e9 + stark);
        block[8] = C64::real(-1.9e9 + stark);
        for (i, j, z) in [
            (0, 1, C64::new(0.4e9, 0.1e9)),
            (1, 2, C64::new(0.55e9, -0.2e9)),
        ] {
            block[3 * i + j] = z;
            block[3 * j + i] = z.conj();
        }
    }
    let mut out = [[C64::ZERO; 9]; 3];
    let mut acc = C64::ZERO;
    for k in 0..steps {
        // Runs of 1–16 samples: 0 to 3 squarings, as on pulse edges.
        let t = DT * (1 + k % 16) as f64;
        if two_lane {
            unitary_exp9_in_blocks_into(&h, t, Blocks9::Strided, 0b011, &mut out);
        } else {
            for mask in [0b001, 0b010] {
                unitary_exp9_in_blocks_into(&h, t, Blocks9::Strided, mask, &mut out);
            }
        }
        acc += out[0][0] + out[1][4];
    }
    std::hint::black_box(acc);
}

/// `n` copies of the calibrated CX on (0, 1), each `Play` scaled by a
/// fresh amplitude factor drawn like the device's per-pulse jitter, so
/// no two copies share a pulse.
fn jittered_cx_schedules(setup: &Setup, n: usize) -> Vec<Schedule> {
    let cx = match setup.calibration.cmd_def().get("cx", &[0, 1]) {
        Some(cx) => cx,
        None => die(format_args!("the calibration has no cx on (0, 1)")),
    };
    let sigma = setup.device.pulse_amp_jitter();
    let mut rng = seeded(507);
    (0..n)
        .map(|_| {
            let mut s = Schedule::new(cx.name());
            for ti in cx.instructions() {
                let instruction = match &ti.instruction {
                    Instruction::Play { waveform, channel } => Instruction::Play {
                        waveform: waveform
                            .scaled(1.0 + normal(&mut rng, 0.0, sigma) / waveform.peak()),
                        channel: *channel,
                    },
                    other => other.clone(),
                };
                s.insert(ti.start, instruction);
            }
            s
        })
        .collect()
}

/// Integrates each schedule once on the (0, 1) pair.
fn pair_integrate_workload(setup: &Setup, schedules: &[Schedule]) -> usize {
    let (Some(pair), Some(u_ch)) = (
        setup.device.pair_cal(0, 1),
        setup.device.control_channel(0, 1),
    ) else {
        die(format_args!("the device has no coupled pair (0, 1)"))
    };
    let mut acc = C64::ZERO;
    for s in schedules {
        acc += pair
            .integrate(s, Channel::Drive(0), Channel::Drive(1), u_ch)
            .unitary[(0, 0)];
    }
    std::hint::black_box(acc);
    schedules.len()
}

/// An Rx(θ) sweep repeated `repeats` times on precompiled programs; with
/// the cache on, every pulse after the first sweep is a lookup instead of
/// an integration.
fn theta_sweep_workload(
    setup: &Setup,
    programs: &[quant_device::LoweredProgram],
    repeats: usize,
    cache: bool,
    shots: usize,
) -> usize {
    setup.device.pulse_cache().set_enabled(cache);
    setup.device.pulse_cache().invalidate();
    let exec = PulseExecutor::noiseless(&setup.device);
    for _ in 0..repeats {
        for (i, program) in programs.iter().enumerate() {
            let out = exec.run(program, &mut seeded(505 ^ i as u64));
            std::hint::black_box(out.sample_counts_deterministic(505 ^ i as u64, shots));
        }
    }
    setup.device.pulse_cache().set_enabled(true);
    repeats * programs.len() * shots
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut entries = Vec::new();
    let pool = scaling_pool();
    let pool = pool.as_ref();
    let serial = ShotPool::serial();
    println!(
        "perfsuite{} — compile+execute wall clock (scaling rows {})\n",
        if smoke { " [smoke]" } else { "" },
        match pool {
            Some(pool) => format!("at {} thread(s)", pool.threads()),
            None => "skipped (1 CPU)".to_string(),
        }
    );

    // fig04-class, serial then pooled. Best-of-3: the workload is a few
    // hundred milliseconds of compile+sample, where single draws swing
    // enough on a shared VM to misstate a ~1.0× ratio as a regression.
    let shots4 = if smoke { 200 } else { 10_000 };
    let reps4 = if smoke { 2 } else { 100 };
    let best4 = if smoke { 1 } else { 3 };
    std::hint::black_box(Setup::almaden(1, 404)); // warm the snapshot store
    let (n, serial_ms) = time_best(best4, || fig04_workload(&serial, shots4, reps4));
    record(
        &mut entries,
        "fig04_compile_execute",
        1,
        serial_ms,
        n,
        serial_ms,
    );
    record_scaled(
        &mut entries,
        "fig04_compile_execute",
        pool,
        best4,
        serial_ms,
        |pool| fig04_workload(pool, shots4, reps4),
    );

    // The tune-up wall itself: the device calibrations of the paper's
    // Fig. 12 classes (H₂ UCC at 2 qubits, QAOA at 4, water Trotter at 2;
    // same seeds, same RNG draw order as `Setup::almaden`), timed **cold**
    // — snapshot store disabled — serial and fanned out, then **warm** —
    // loaded back from a freshly persisted store. The speedup column of
    // the warm row is warm-load vs cold-serial.
    let widths = [2usize, 4, 2];
    let cold_setups = |pool: &ShotPool, store: &CalStore| {
        for (i, n) in widths.iter().enumerate() {
            let mut rng = seeded(1000 + i as u64);
            let device = DeviceModel::almaden_like(*n, &mut rng);
            let root = rng.gen::<u64>();
            std::hint::black_box(Calibration::run_seeded_with(
                &device,
                &CalibrationOptions::default(),
                root,
                store,
                pool,
                &ProbeCache::with_enabled(true),
            ));
        }
        widths.len()
    };
    let disabled = CalStore::disabled();
    let best_cold = if smoke { 1 } else { 2 };
    let (n, cold_serial_ms) = time_best(best_cold, || cold_setups(&serial, &disabled));
    record(
        &mut entries,
        "fig12_setup_calibration",
        1,
        cold_serial_ms,
        n,
        cold_serial_ms,
    );
    record_scaled(
        &mut entries,
        "fig12_setup_calibration",
        pool,
        best_cold,
        cold_serial_ms,
        |pool| cold_setups(pool, &disabled),
    );
    let warm_dir = std::env::temp_dir().join(format!("opc-cal-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&warm_dir);
    let warm_store = CalStore::at(&warm_dir);
    cold_setups(&serial, &warm_store); // persist the three snapshots
    let (n, warm_ms) = time_best(if smoke { 1 } else { 5 }, || {
        cold_setups(&serial, &warm_store)
    });
    record(
        &mut entries,
        "calibration_warm_load",
        1,
        warm_ms,
        n,
        cold_serial_ms,
    );
    let _ = std::fs::remove_dir_all(&warm_dir);

    // fig13-class, reduced shots, serial then pooled.
    let shots13 = if smoke { 50 } else { 2000 };
    std::hint::black_box(Setup::armonk(1313)); // warm the snapshot store
    let best13 = if smoke { 1 } else { 3 };
    let (n, serial_ms) = time_best(best13, || fig13_workload(&serial, shots13));
    record(&mut entries, "fig13_reduced", 1, serial_ms, n, serial_ms);
    record_scaled(
        &mut entries,
        "fig13_reduced",
        pool,
        best13,
        serial_ms,
        |pool| fig13_workload(pool, shots13),
    );

    // Density-matrix stride kernels vs the embed reference, on growing
    // registers. Rounds shrink with n so the reference side stays
    // tractable (its per-op cost grows as the cube of the dimension).
    for n in 2..=6usize {
        let rounds = if smoke {
            1
        } else {
            600 >> (2 * (n - 2)).min(9)
        };
        let rounds = rounds.max(1);
        let (ops, ref_ms) = time_best(if smoke { 1 } else { 3 }, || {
            density_kernel_workload(n, true, rounds)
        });
        record(
            &mut entries,
            format!("density_n{n}_embed_ref"),
            1,
            ref_ms,
            ops,
            ref_ms,
        );
        let (ops, ms) = time_best(if smoke { 1 } else { 3 }, || {
            density_kernel_workload(n, false, rounds)
        });
        record(
            &mut entries,
            format!("density_n{n}_stride"),
            1,
            ms,
            ops,
            ref_ms,
        );
    }

    // Trajectory scaling past the density wall: the same QAOA layer from
    // 8 to 20 qubits (a 20-qubit density matrix would need 2⁴⁰ complex
    // entries — 16 TiB). The reference route is timed serially; the fused
    // route at 1 thread and at the scaling pool. The determinism tests
    // guarantee all three rows produce bit-identical counts, so the ratio
    // is pure execution cost. Once per suite (n = 12 full, the smoke size
    // in smoke mode) the two serial runs' counts are gated against each
    // other at the fixed root — checksum divergence is fatal, not a slow
    // row. (The determinism test suite pins the contract at every size
    // class.)
    let traj_sizes: &[(usize, usize, usize)] = if smoke {
        &[(3, 2, 50)]
    } else {
        &[(8, 8, 1024), (12, 8, 1024), (16, 4, 512), (20, 2, 128)]
    };
    for &(n, trajectories, shots) in traj_sizes {
        let setup = Setup::almaden(n, 7_000 + n as u64);
        let program = trajectory_program(&setup, n, CompileMode::Standard);
        let run = |route, pool: &ShotPool| {
            trajectory_counts(&program, &setup.device, trajectories, shots, route, pool)
        };
        let best = if smoke || n >= 16 { 1 } else { 2 };
        let (reference, reference_ms) = time_best(best, || run(TrajRoute::Reference, &serial));
        record(
            &mut entries,
            format!("trajectory_n{n}_reference"),
            1,
            reference_ms,
            shots,
            reference_ms,
        );
        let (fused, ms) = time_best(best, || run(TrajRoute::Fused, &serial));
        record(
            &mut entries,
            format!("trajectory_n{n}_fused"),
            1,
            ms,
            shots,
            reference_ms,
        );
        if n == 12 || smoke {
            let (a, b) = (
                quant_corpus::report::counts_checksum(&fused),
                quant_corpus::report::counts_checksum(&reference),
            );
            if a != b {
                die(format_args!(
                    "fused counts diverged from the reference path at n={n}, \
                     root 41 ({a:016x} vs {b:016x})"
                ));
            }
        }
        record_scaled(
            &mut entries,
            format!("trajectory_n{n}_fused"),
            pool,
            best,
            reference_ms,
            |pool| {
                std::hint::black_box(run(TrajRoute::Fused, pool));
                shots
            },
        );
    }

    // The paper-class 20-qubit workload end to end: the optimized-flow
    // QAOA MAXCUT layer at Almaden scale, a trajectory ensemble deep
    // enough to sample from, on the fused route at 1 thread and at the
    // scaling pool.
    if !smoke {
        let setup = Setup::almaden(20, 7_020);
        let program = trajectory_program(&setup, 20, CompileMode::Optimized);
        let run = |pool: &ShotPool| {
            let counts =
                trajectory_counts(&program, &setup.device, 8, 2048, TrajRoute::Fused, pool);
            std::hint::black_box(counts);
            2048
        };
        let (s, serial_ms) = time_best(1, || run(&serial));
        record(
            &mut entries,
            "qaoa20_trajectory_fused",
            1,
            serial_ms,
            s,
            serial_ms,
        );
        record_scaled(
            &mut entries,
            "qaoa20_trajectory_fused",
            pool,
            1,
            serial_ms,
            run,
        );
    }

    // Propagator hot loop: eigendecomposition reference vs Taylor scratch.
    // Best-of-5 on both sides — single runs swing ~25 % on a shared VM and
    // a single noisy draw would misstate the hot-loop ratio.
    let samples = if smoke { 2_000 } else { 200_000 };
    let best_of = if smoke { 1 } else { 5 };
    let (_, eigh_ms) = time_best(best_of, || propagator_workload(false, samples));
    record(
        &mut entries,
        "propagator_eigh_reference",
        1,
        eigh_ms,
        samples,
        eigh_ms,
    );
    let (_, taylor_ms) = time_best(best_of, || propagator_workload(true, samples));
    record(
        &mut entries,
        "propagator_taylor_scratch",
        1,
        taylor_ms,
        samples,
        eigh_ms,
    );

    // The pair integrator's block exponential: two blocks on two lanes vs
    // the scalar kernel twice. Best-of-5, as for the propagator rows.
    let steps = if smoke { 2_000 } else { 200_000 };
    let (_, scalar_ms) = time_best(best_of, || block_exp_workload(false, steps));
    record(
        &mut entries,
        "block_exp_scalar_x2",
        1,
        scalar_ms,
        2 * steps,
        scalar_ms,
    );
    let (_, lanes_ms) = time_best(best_of, || block_exp_workload(true, steps));
    record(
        &mut entries,
        "block_exp_two_lane",
        1,
        lanes_ms,
        2 * steps,
        scalar_ms,
    );

    // Pulse cache: repeated θ sweeps, cache off vs on. The 1-qubit
    // DirectRx sweep bounds the cache's win by the non-integration
    // overhead; the 2-qubit Rx(θ)+CNOT sweep is fig12-class — the
    // echoed-CR pair integration (mostly 3×3 blocks of the two-qutrit
    // generator) dominates, so memoizing it is the headline.
    let shots_sweep = if smoke { 100 } else { 1000 };
    let points = if smoke { 5 } else { 41 };
    let setup = Setup::almaden(1, 505);
    let programs: Vec<_> = (1..=points)
        .map(|k| {
            let mut c = Circuit::new(1);
            c.rx(0, k as f64 / points as f64 * std::f64::consts::PI);
            Compiler::new(&setup.device, &setup.calibration, CompileMode::Optimized)
                .compile(&c)
                .unwrap()
                .program
        })
        .collect();
    let repeats = if smoke { 2 } else { 12 };
    let (n, off_ms) = time_best(if smoke { 1 } else { 3 }, || {
        theta_sweep_workload(&setup, &programs, repeats, false, shots_sweep)
    });
    record(
        &mut entries,
        "theta_sweep_1q_cache_off",
        1,
        off_ms,
        n,
        off_ms,
    );
    let (n, ms) = time_best(if smoke { 1 } else { 3 }, || {
        theta_sweep_workload(&setup, &programs, repeats, true, shots_sweep)
    });
    record(&mut entries, "theta_sweep_1q_cache_on", 1, ms, n, off_ms);

    let setup2 = Setup::almaden(2, 506);
    let programs2: Vec<_> = (1..=points)
        .map(|k| {
            let mut c = Circuit::new(2);
            c.rx(0, k as f64 / points as f64 * std::f64::consts::PI);
            c.cnot(0, 1);
            Compiler::new(&setup2.device, &setup2.calibration, CompileMode::Optimized)
                .compile(&c)
                .unwrap()
                .program
        })
        .collect();
    let repeats2 = if smoke { 1 } else { 8 };
    let (n, off_ms) = time_best(if smoke { 1 } else { 2 }, || {
        theta_sweep_workload(&setup2, &programs2, repeats2, false, shots_sweep)
    });
    record(
        &mut entries,
        "theta_sweep_2q_cache_off",
        1,
        off_ms,
        n,
        off_ms,
    );
    let (n, ms) = time_best(if smoke { 1 } else { 2 }, || {
        theta_sweep_workload(&setup2, &programs2, repeats2, true, shots_sweep)
    });
    record(&mut entries, "theta_sweep_2q_cache_on", 1, ms, n, off_ms);

    // The pair integrator alone on jittered calibrated CX schedules, as
    // the density executor feeds it (`shots_per_s` counts schedules).
    let cx_schedules = jittered_cx_schedules(&setup2, if smoke { 4 } else { 200 });
    let (n, ms) = time_best(if smoke { 1 } else { 3 }, || {
        pair_integrate_workload(&setup2, &cx_schedules)
    });
    record(&mut entries, "pair_integrate_jittered_cx", 1, ms, n, ms);

    // The generated benchmark corpus, compiled gate-level vs pulse-level
    // and executed end-to-end through `quant_corpus::run_corpus` — once on
    // the serial pool, once on the scaling pool (when the host has one),
    // with a fatal cross-pool checksum check. The per-family
    // rows carry the paper's headline claim: `speedup` there is the
    // gate-over-pulse schedule-duration ratio, not a wall-clock ratio.
    {
        use quant_corpus::{run_corpus, CorpusOptions, Tier};
        let tier = if smoke { Tier::Smoke } else { Tier::Full };
        let corpus_shots = if smoke { 256 } else { 2048 };
        let clock_origin = Instant::now();
        let options = CorpusOptions {
            tier,
            shots: corpus_shots,
            clock: Some(Arc::new(move || clock_origin.elapsed().as_millis() as u64)),
            ..CorpusOptions::default()
        };
        let name = if smoke { "corpus_smoke" } else { "corpus_full" };
        let run = |pool: &ShotPool, label: &str| {
            let t = Instant::now();
            match run_corpus(&options, pool) {
                Ok(report) => (report, t.elapsed().as_secs_f64() * 1e3),
                Err(e) => die(format_args!("corpus run ({label}): {e}")),
            }
        };
        let (serial_report, corpus_serial_ms) = run(&serial, "serial");
        let total_shots = serial_report.circuits.len() * 2 * corpus_shots;
        record(
            &mut entries,
            name,
            1,
            corpus_serial_ms,
            total_shots,
            corpus_serial_ms,
        );
        let (report, threads, corpus_pooled_ms) = match pool {
            Some(pool) => {
                let (report, ms) = run(pool, "pooled");
                let (expected, checksum) = (serial_report.checksum(), report.checksum());
                if expected != checksum {
                    die(format_args!(
                        "corpus results diverged across pools \
                         ({expected:016x} vs {checksum:016x})"
                    ));
                }
                record(
                    &mut entries,
                    name,
                    pool.threads(),
                    ms,
                    total_shots,
                    corpus_serial_ms,
                );
                (report, pool.threads(), ms)
            }
            None => {
                println!("{name:<28} threads=N  skipped (1 CPU)");
                (serial_report, 1, corpus_serial_ms)
            }
        };
        let checksum = report.checksum();
        for summary in report.family_summaries() {
            // Compile wall clock summed over the family's circuits (both
            // flows), from the clock injected above.
            let compile_ms: u64 = report
                .circuits
                .iter()
                .filter(|c| c.family == summary.family)
                .map(|c| c.standard.wall_ms.unwrap_or(0) + c.optimized.wall_ms.unwrap_or(0))
                .sum();
            let entry = Entry {
                workload: format!("corpus_{}", summary.family),
                threads,
                wall_ms: compile_ms as f64,
                shots_per_s: summary.circuits as f64 * 2.0 * corpus_shots as f64
                    / (corpus_pooled_ms / 1e3),
                speedup: 1.0 / summary.mean_duration_ratio,
                extra: vec![
                    ("mean_duration_ratio", summary.mean_duration_ratio),
                    ("mean_fid_std", summary.mean_fidelity_standard),
                    ("mean_fid_opt", summary.mean_fidelity_optimized),
                ],
            };
            println!(
                "{:<28} threads={:<2} {:>10.1} ms   dur ratio {:.3}   fid {:.4} → {:.4}",
                entry.workload,
                entry.threads,
                entry.wall_ms,
                summary.mean_duration_ratio,
                summary.mean_fidelity_standard,
                summary.mean_fidelity_optimized
            );
            entries.push(entry);
        }
        println!(
            "{:<28}            pulse wins duration on {}/{} families (checksum {checksum:016x})",
            "",
            report.families_where_pulse_wins(),
            report.family_summaries().len()
        );
    }

    let items: Vec<json::Json> = entries
        .iter()
        .map(|e| {
            let mut fields = vec![
                ("workload", json::string(&e.workload)),
                ("threads", json::number(e.threads as f64)),
                ("wall_ms", json::number(e.wall_ms)),
                ("shots_per_s", json::number(e.shots_per_s)),
                ("speedup", json::number(e.speedup)),
            ];
            for &(name, value) in &e.extra {
                fields.push((name, json::number(value)));
            }
            json::object(fields)
        })
        .collect();
    let path = if smoke {
        "BENCH_smoke.json"
    } else {
        "BENCH_7.json"
    };
    match std::fs::write(path, json::array(items).pretty()) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}
