//! Workload definitions: devices, and the inputs each workload sends.
//!
//! `--seed` drives only the generated inputs (circuit parameters, round
//! order, service arrival times and repeats). Devices and their
//! calibrations come from fixed seeds, so every seed measures the same
//! machine.
//!
//! Closed-loop workloads are organised in *rounds*: a round is a fixed
//! list of (circuit family, width, compile mode) cells whose parameters
//! are redrawn for each round and whose order is shuffled. A run measures
//! a fixed number of whole rounds (see [`rounds_for`]), so every run does
//! the same work: the mix of cheap and expensive jobs, the job count and
//! the memory the caches hold do not depend on how fast the machine was.

use pulse_compiler::CompileMode;
use quant_algos::{molecules, trotter, vqe, LineGraph};
use quant_circuit::{qasm, Circuit};
use quant_corpus::generators as corpus;
use quant_device::{CalStore, Calibration, CalibrationOptions, DeviceModel, ProbeCache, ShotPool};
use quant_math::{seeded, stream_seed};
use rand::Rng;

/// Seed of every device's physics and calibration root.
pub const DEVICE_SEED: u64 = 7;
/// Salt separating execution seeds from parameter draws.
const EXEC_SALT: u64 = 0x0e8e_c5a1_7000_0001;

/// The three workloads.
///
/// There is no trajectory-executor workload: its 18-qubit jobs take
/// 0.4–1 s each, and on the shared 2-core VM the benchmark was sized on,
/// identical jobs ran up to 1.9× slower for minutes at a stretch. No
/// estimator over a run of seconds holds such jobs within a 25 % bound
/// (ten runs spread by 18–27 %), whereas the millisecond jobs of the
/// workloads below each find quiet moments within a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, compile only, QASM text in.
    CompileCorpus,
    /// Closed loop, noisy compile + density execute + sample + score.
    Fig12Density,
    /// Open loop into `CompileService` over a fixed rate ladder.
    ServiceOpenLoop,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::CompileCorpus,
        Workload::Fig12Density,
        Workload::ServiceOpenLoop,
    ];

    /// Name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileCorpus => "compile_corpus",
            Workload::Fig12Density => "fig12_density",
            Workload::ServiceOpenLoop => "service_open_loop",
        }
    }

    /// Parses [`Workload::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Whole rounds a closed-loop run of `seconds` measures: `seconds` times
/// the rounds per second the workload completed on the commit that
/// introduced the benchmark (2-core x86-64 VM), frozen so that later
/// commits do the same work. At least one.
pub fn rounds_for(workload: Workload, seconds: f64) -> u64 {
    let rounds_per_s = match workload {
        Workload::CompileCorpus => 2.0,
        Workload::Fig12Density => 0.8,
        Workload::ServiceOpenLoop => 0.0,
    };
    ((seconds * rounds_per_s).round() as u64).max(1)
}

/// Input sizes: the measured configuration, or a toy one for the smoke
/// test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's frozen sizes.
    Full,
    /// Tiny sizes that exercise every path in seconds.
    #[cfg(test)]
    Toy,
}

/// Sizes that depend on the scale.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Width of the single device compile_corpus targets.
    pub compile_device: usize,
    /// Widest corpus circuit compile_corpus draws.
    pub compile_max_width: u32,
    /// Widest fig12_density circuit (and device).
    pub density_max_width: u32,
    /// Widest service circuit (and device).
    pub service_max_width: u32,
    /// Shots per density job.
    pub density_shots: usize,
    /// Shots per service request.
    pub service_shots: usize,
    /// Times setup is repeated; `setup_s` is the median.
    pub setup_reps: usize,
}

impl Sizes {
    /// The sizes for `scale`.
    pub fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Sizes {
                compile_device: 10,
                compile_max_width: 10,
                density_max_width: 6,
                service_max_width: 4,
                density_shots: 2048,
                service_shots: 1024,
                setup_reps: 3,
            },
            #[cfg(test)]
            Scale::Toy => Sizes {
                compile_device: 4,
                compile_max_width: 4,
                density_max_width: 3,
                service_max_width: 3,
                density_shots: 256,
                service_shots: 256,
                setup_reps: 1,
            },
        }
    }
}

/// One calibrated device.
pub struct Backend {
    /// The device physics.
    pub device: DeviceModel,
    /// Its cold calibration.
    pub calibration: Calibration,
}

/// Builds and cold-calibrates the fixed-seed Almaden-like line of
/// `width` qubits (the snapshot store is bypassed, so the tune-up always
/// runs).
pub fn calibrate(width: usize, pool: &ShotPool, probes: &ProbeCache) -> Backend {
    let mut rng = seeded(stream_seed(DEVICE_SEED, width as u64));
    let device = DeviceModel::almaden_like(width, &mut rng);
    let root = rng.gen::<u64>();
    let calibration = Calibration::run_seeded_with(
        &device,
        &CalibrationOptions::default(),
        root,
        &CalStore::disabled(),
        pool,
        probes,
    );
    Backend {
        device,
        calibration,
    }
}

/// Device widths a closed-loop workload calibrates during setup.
pub fn backend_widths(workload: Workload, sizes: &Sizes) -> Vec<usize> {
    match workload {
        Workload::CompileCorpus => vec![sizes.compile_device],
        Workload::Fig12Density => (2..=sizes.density_max_width as usize).collect(),
        Workload::ServiceOpenLoop => Vec::new(),
    }
}

/// A job's program, as the client sends it.
#[derive(Clone, Debug)]
pub enum Payload {
    /// OpenQASM 2.0 text (parsed by the job).
    Qasm(String),
    /// Circuit IR.
    Ir(Circuit),
}

/// One closed-loop job.
#[derive(Clone, Debug)]
pub struct Job {
    /// Index into the workload's backends.
    pub backend: usize,
    /// The logical program.
    pub payload: Payload,
    /// Compile flow.
    pub mode: CompileMode,
    /// Whether the job executes (false: compile only).
    pub execute: bool,
    /// Pipeline seed (jitter, sampling, trajectory streams).
    pub seed: u64,
    /// Circuit instance within the round; its two modes share it.
    pub pair: usize,
}

// Angles are drawn from narrow bands: a stretched CR pulse's length, and
// with it the cost of integrating it, grows with its angle, so wide
// bands would make each seed a different amount of work.

/// QAOA line with angles drawn around the corpus' fixed ones.
fn qaoa(n: u32, p: usize, rng: &mut impl Rng) -> Circuit {
    let params: Vec<(f64, f64)> = (0..p)
        .map(|_| (rng.gen_range(0.6..0.8), rng.gen_range(0.35..0.5)))
        .collect();
    LineGraph::new(n as usize).qaoa_circuit(&params)
}

/// UCC ansatz at a seeded angle near the molecules' optima.
fn ucc(rng: &mut impl Rng) -> Circuit {
    vqe::ucc_ansatz(rng.gen_range(0.1..0.3))
}

/// `steps` Trotter steps of a molecule's dynamics for a seeded time (the
/// paper's benchmark uses six).
fn dynamics(molecule: &quant_algos::Molecule, steps: usize, rng: &mut impl Rng) -> Circuit {
    trotter::trotter_circuit(&molecule.hamiltonian, rng.gen_range(1.0..1.5), steps)
}

/// The logical circuits of one round of `workload` (before modes and
/// order): `(backend index, circuit)`.
fn round_circuits(workload: Workload, sizes: &Sizes, rng: &mut impl Rng) -> Vec<(usize, Circuit)> {
    let mut out = Vec::new();
    match workload {
        Workload::CompileCorpus => {
            for w in 2..=sizes.compile_max_width {
                out.push(corpus::qft(w));
                out.push(corpus::random_clifford(w, w + 2, rng.gen()));
                out.push(qaoa(w, 1, rng));
                out.push(qaoa(w, 2, rng));
                out.push(corpus::vqe_line(w, 2, rng.gen()));
                if w >= 4 && w % 2 == 0 {
                    let bits = (w - 2) / 2;
                    let a = rng.gen_range(0..1u64 << bits);
                    let b = rng.gen_range(0..1u64 << bits);
                    out.push(corpus::ripple_adder(bits, a, b));
                }
            }
            out.into_iter().map(|c| (0, c)).collect()
        }
        Workload::Fig12Density => {
            // Backend i has width i + 2.
            // The H2 and LiH UCC circuits differ only in their angle.
            out.push(ucc(rng));
            out.push(ucc(rng));
            for m in [molecules::methane(), molecules::water()] {
                out.push(dynamics(&m, 6, rng));
            }
            for w in 3..=sizes.density_max_width {
                out.push(qaoa(w, 1, rng));
                out.push(corpus::random_clifford(w, w + 2, rng.gen()));
                out.push(corpus::vqe_line(w, 1, rng.gen()));
                // QFT-6 alone would cost a quarter of a round.
                if w <= 5 {
                    out.push(corpus::qft(w));
                }
            }
            out.into_iter()
                .map(|c| (c.num_qubits() as usize - 2, c))
                .collect()
        }
        Workload::ServiceOpenLoop => Vec::new(),
    }
}

/// Round `round` of a closed-loop workload; `first_index` is the global
/// index of its first job (execution seeds are per global index, so no
/// two jobs of a run replay the same noise).
pub fn round_jobs(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    round: u64,
    first_index: u64,
) -> Vec<Job> {
    let mut rng = seeded(stream_seed(seed, round));
    let circuits = round_circuits(workload, sizes, &mut rng);
    let execute = workload != Workload::CompileCorpus;
    let mut jobs = Vec::with_capacity(2 * circuits.len());
    for (pair, (backend, circuit)) in circuits.into_iter().enumerate() {
        for mode in [CompileMode::Standard, CompileMode::Optimized] {
            let payload = if execute {
                Payload::Ir(circuit.clone())
            } else {
                Payload::Qasm(qasm::print(&circuit))
            };
            jobs.push(Job {
                backend,
                payload,
                mode,
                execute,
                seed: 0,
                pair,
            });
        }
    }
    // Fisher–Yates with the round's own stream.
    for i in (1..jobs.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        jobs.swap(i, j);
    }
    for (k, job) in jobs.iter_mut().enumerate() {
        job.seed = stream_seed(seed ^ EXEC_SALT, first_index + k as u64);
    }
    jobs
}

/// The `kind`-th circuit of a fixed cycle of nearest-neighbour
/// fig12-class circuits (the service does not route), over four classes
/// and widths 2..=`max_width`, with seeded parameters.
pub fn service_circuit(kind: u64, max_width: u32, rng: &mut impl Rng) -> Circuit {
    let widths = max_width.saturating_sub(2) as u64 + 1;
    let w = 2 + (kind / 4 % widths) as u32;
    match kind % 4 {
        0 if w == 2 => ucc(rng),
        // Two steps: six would make these few requests a tail of their
        // own, several times slower than every other request.
        1 if w == 2 => dynamics(&molecules::water(), 2, rng),
        0 | 1 => qaoa(w, 1, rng),
        2 => corpus::vqe_line(w, 1, rng.gen()),
        // Fixed structure: a random Clifford's cost would vary with the
        // seed, and these requests set the latency tail.
        _ => qaoa(w, 2, rng),
    }
}
