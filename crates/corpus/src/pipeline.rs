//! The one path from a circuit to counts: a parsed or built circuit →
//! routing → gate/pulse compilation → simulated execution → counts and
//! fidelity.
//!
//! Every caller outside the compile service runs on this spine: `opc
//! compile` and bare `opc`, the corpus platform in [`crate::report`], the
//! experiment harness (`repro-bench`'s `compare_flows` and the figure
//! binaries) and the examples. One function owns the route → compile →
//! execute → score sequence, so those callers cannot drift.
//!
//! Everything is deterministic from `(device, calibration, circuit,
//! config)`: jitter, sampling, and trajectory roots are lanes 0, 1 and 2
//! of the config seed via [`quant_math::stream_seed`]. Lane 0 feeds
//! whichever executor runs: both draw the job's pulse jitter from it in
//! the same prepare phase, so a circuit sees the same jittered pulses on
//! either executor. Narrow registers go through
//! [`PulseExecutor::try_run_pooled`] (pulse integration fans out, jitter
//! and evolution stay in program order), whose distribution is sampled
//! on lane 1 with [`ExecOutcome::sample_counts_deterministic`], the one
//! shot sampler. Wide ones go through
//! [`TrajectoryExecutor::try_run_pooled`] with lane 2 as its trajectory
//! root, so counts are bit-identical at any `OPC_THREADS`.
//!
//! [`ExecOutcome::sample_counts_deterministic`]: quant_device::ExecOutcome::sample_counts_deterministic

use pulse_compiler::{route, CompileMode, Compiled, Compiler, CouplingMap, LowerError, RouteError};
use quant_char::{counts_to_distribution, hellinger_fidelity};
use quant_circuit::Circuit;
use quant_device::{
    Calibration, DeviceModel, ExecError, PulseExecutor, ShotPool, TrajectoryExecutor,
};
use quant_math::{seeded, stream_seed};

/// Any failure along the pipeline, tagged by stage.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// Routing failed (circuit wider than the device, or disconnected).
    Route(RouteError),
    /// Lowering to pulses failed.
    Lower(LowerError),
    /// Execution failed (topology mismatch).
    Exec(ExecError),
    /// The configuration asks for zero shots or zero trajectories.
    Config(&'static str),
    /// The circuit declares no qubits, so there is nothing to measure.
    NoQubits,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Route(e) => write!(f, "route: {e}"),
            PipelineError::Lower(e) => write!(f, "lower: {e}"),
            PipelineError::Exec(e) => write!(f, "execute: {e}"),
            PipelineError::Config(msg) => write!(f, "config: {msg}"),
            PipelineError::NoQubits => write!(f, "circuit has no qubits"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<RouteError> for PipelineError {
    fn from(e: RouteError) -> Self {
        PipelineError::Route(e)
    }
}

impl From<LowerError> for PipelineError {
    fn from(e: LowerError) -> Self {
        PipelineError::Lower(e)
    }
}

impl From<ExecError> for PipelineError {
    fn from(e: ExecError) -> Self {
        PipelineError::Exec(e)
    }
}

/// Which simulation backend executed the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Full density-matrix evolution (exact noise, O(4ⁿ); small registers).
    Density,
    /// Stochastic state-vector trajectories (wide registers).
    Trajectory,
}

impl ExecutorKind {
    /// Stable lower-case name used in reports and golden files.
    pub fn name(&self) -> &'static str {
        match self {
            ExecutorKind::Density => "density",
            ExecutorKind::Trajectory => "trajectory",
        }
    }
}

/// Pipeline knobs.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Gate-level (`Standard`) vs pulse-level (`Optimized`) compilation.
    pub mode: CompileMode,
    /// Measurement shots to sample.
    pub shots: usize,
    /// Root seed; the jitter lane (0, shared by both executors), the
    /// sampling lane (1) and the trajectory root (2) are derived from it
    /// with [`stream_seed`].
    pub seed: u64,
    /// Apply the device noise model (density path only; trajectories are
    /// inherently noisy).
    pub noisy: bool,
    /// Widest register the density path will take; wider programs run as
    /// trajectories. O(4ⁿ) memory makes 6 the practical ceiling.
    pub density_max_qubits: u32,
    /// Trajectory count for the wide path.
    pub trajectories: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            mode: CompileMode::Optimized,
            shots: 2048,
            seed: 7,
            noisy: true,
            density_max_qubits: 6,
            trajectories: 16,
        }
    }
}

/// The result of one pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineRun {
    /// The mode that produced this run.
    pub mode: CompileMode,
    /// SWAPs routing inserted on the linear coupling map.
    pub swaps_inserted: usize,
    /// Depth of the routed physical circuit.
    pub routed_depth: usize,
    /// Two-qubit gate count of the routed circuit.
    pub two_qubit_gates: usize,
    /// Every compilation stage (assembly, basis circuit, pulse program).
    pub compiled: Compiled,
    /// Total schedule duration in `dt` units.
    pub duration_dt: u64,
    /// Total pulses played.
    pub pulse_count: usize,
    /// Which backend executed it.
    pub executor: ExecutorKind,
    /// Measured counts over the `2ⁿ` outcomes.
    pub counts: Vec<u64>,
    /// The routed circuit's ideal (noise-free) outcome distribution.
    pub ideal: Vec<f64>,
    /// Hellinger fidelity of the measured counts against `ideal`.
    pub fidelity: f64,
}

/// The compile half of the pipeline: a routed physical circuit plus its
/// pulse program. Produced by [`compile_circuit`], consumed by
/// [`execute_compiled`] — split so callers (the corpus report) can put a
/// wall-clock around compilation alone.
#[derive(Clone, Debug)]
pub struct CompiledCircuit {
    /// The routed physical circuit and layout.
    pub routed: pulse_compiler::Routed,
    /// Every compilation stage (assembly, basis circuit, pulse program).
    pub compiled: Compiled,
}

/// Routes a logical circuit onto the device's linear chain (the
/// Almaden-like model couples neighbors only) and compiles it to pulses.
/// A circuit with no qubits is rejected before routing, which would
/// otherwise widen it to an idle program as wide as the device.
pub fn compile_circuit(
    device: &DeviceModel,
    calibration: &Calibration,
    circuit: &Circuit,
    mode: CompileMode,
) -> Result<CompiledCircuit, PipelineError> {
    if circuit.num_qubits() == 0 {
        return Err(PipelineError::NoQubits);
    }
    let map = CouplingMap::linear(device.num_qubits() as u32);
    let routed = route(circuit, &map)?;
    let compiler = Compiler::new(device, calibration, mode);
    let compiled = compiler.compile(&routed.circuit)?;
    Ok(CompiledCircuit { routed, compiled })
}

/// Executes a compiled circuit and returns its counts. Registers up to
/// `config.density_max_qubits` wide go through exact density-matrix
/// evolution with pool-parallel pulse integration; wider ones through
/// pool-parallel fused trajectories with an explicit root seed. Both
/// draw their pulse jitter from lane 0. Zero shots or zero trajectories
/// are rejected before any work.
pub fn execute_compiled(
    device: &DeviceModel,
    cc: &CompiledCircuit,
    config: &PipelineConfig,
    pool: &ShotPool,
) -> Result<(ExecutorKind, Vec<u64>), PipelineError> {
    if config.shots == 0 {
        return Err(PipelineError::Config("shots must be at least 1"));
    }
    if config.trajectories == 0 {
        return Err(PipelineError::Config("trajectories must be at least 1"));
    }
    let compiled = &cc.compiled;
    let width = cc.routed.circuit.num_qubits();
    let mut jitter = seeded(stream_seed(config.seed, 0));
    if width <= config.density_max_qubits {
        let exec = if config.noisy {
            PulseExecutor::new(device)
        } else {
            PulseExecutor::noiseless(device)
        };
        let outcome = exec.try_run_pooled(&compiled.program, &mut jitter, pool)?;
        let counts = outcome.sample_counts_deterministic(stream_seed(config.seed, 1), config.shots);
        Ok((ExecutorKind::Density, counts))
    } else {
        let exec = TrajectoryExecutor::new(device, config.trajectories);
        let counts = exec.try_run_pooled(
            &compiled.program,
            &mut jitter,
            config.shots,
            stream_seed(config.seed, 2),
            pool,
        )?;
        Ok((ExecutorKind::Trajectory, counts))
    }
}

/// Runs a logical circuit through route → compile → execute → score.
pub fn run_circuit(
    device: &DeviceModel,
    calibration: &Calibration,
    circuit: &Circuit,
    config: &PipelineConfig,
    pool: &ShotPool,
) -> Result<PipelineRun, PipelineError> {
    let cc = compile_circuit(device, calibration, circuit, config.mode)?;
    let (executor, counts) = execute_compiled(device, &cc, config, pool)?;
    let ideal = cc.routed.circuit.output_distribution();
    let fidelity = hellinger_fidelity(&ideal, &counts_to_distribution(&counts));
    let CompiledCircuit { routed, compiled } = cc;
    Ok(PipelineRun {
        mode: config.mode,
        swaps_inserted: routed.swaps_inserted,
        routed_depth: routed.circuit.depth(),
        two_qubit_gates: routed.circuit.two_qubit_count(),
        duration_dt: compiled.duration(),
        pulse_count: compiled.pulse_count(),
        compiled,
        executor,
        counts,
        ideal,
        fidelity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant_device::calibrate;

    fn setup(n: usize) -> (DeviceModel, Calibration) {
        let mut rng = seeded(71);
        let device = DeviceModel::almaden_like(n, &mut rng);
        let calibration = calibrate(&device, &mut rng);
        (device, calibration)
    }

    #[test]
    fn bell_pipeline_end_to_end() {
        let (device, calibration) = setup(2);
        let src = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n";
        let circuit = quant_circuit::qasm::parse(src).expect("bell parses");
        let cfg = PipelineConfig::default();
        let run = run_circuit(&device, &calibration, &circuit, &cfg, &ShotPool::serial())
            .expect("bell pipeline");
        assert_eq!(run.executor, ExecutorKind::Density);
        assert_eq!(run.counts.iter().sum::<u64>(), cfg.shots as u64);
        assert!(run.duration_dt > 0 && run.pulse_count > 0);
        assert!(run.fidelity > 0.8, "bell fidelity {}", run.fidelity);
        // A Bell state is (|00⟩ + |11⟩)/√2: the diagonal outcomes dominate.
        assert!(run.counts[0] + run.counts[3] > run.counts[1] + run.counts[2]);
    }

    #[test]
    fn optimized_flow_is_shorter() {
        let (device, calibration) = setup(3);
        let circuit = crate::generators::qaoa_line(3, 1);
        let std_cfg = PipelineConfig {
            mode: CompileMode::Standard,
            ..PipelineConfig::default()
        };
        let opt_cfg = PipelineConfig::default();
        let pool = ShotPool::serial();
        let s = run_circuit(&device, &calibration, &circuit, &std_cfg, &pool).expect("standard");
        let o = run_circuit(&device, &calibration, &circuit, &opt_cfg, &pool).expect("optimized");
        assert!(
            o.duration_dt < s.duration_dt,
            "optimized {} dt not shorter than standard {} dt",
            o.duration_dt,
            s.duration_dt
        );
    }

    #[test]
    fn zero_shots_or_trajectories_is_a_config_error() {
        let (device, calibration) = setup(2);
        let circuit = crate::generators::qft(2);
        for config in [
            PipelineConfig {
                shots: 0,
                ..PipelineConfig::default()
            },
            PipelineConfig {
                trajectories: 0,
                ..PipelineConfig::default()
            },
        ] {
            let err = run_circuit(
                &device,
                &calibration,
                &circuit,
                &config,
                &ShotPool::serial(),
            )
            .expect_err("nothing to sample");
            assert!(matches!(err, PipelineError::Config(_)), "{err}");
        }
    }

    #[test]
    fn empty_register_is_rejected_before_routing() {
        let (device, calibration) = setup(2);
        let empty = Circuit::new(0);
        for mode in [CompileMode::Standard, CompileMode::Optimized] {
            let err = compile_circuit(&device, &calibration, &empty, mode)
                .expect_err("nothing to measure");
            assert_eq!(err, PipelineError::NoQubits);
        }
        let err = run_circuit(
            &device,
            &calibration,
            &empty,
            &PipelineConfig::default(),
            &ShotPool::serial(),
        )
        .expect_err("nothing to measure");
        assert_eq!(err, PipelineError::NoQubits);
        assert_eq!(err.to_string(), "circuit has no qubits");
    }

    #[test]
    fn too_wide_circuit_is_a_route_error() {
        let (device, calibration) = setup(2);
        let circuit = crate::generators::qft(4);
        let err = run_circuit(
            &device,
            &calibration,
            &circuit,
            &PipelineConfig::default(),
            &ShotPool::serial(),
        )
        .expect_err("4 logical on 2 physical must fail");
        assert!(matches!(
            err,
            PipelineError::Route(RouteError::TooWide { .. })
        ));
    }
}
