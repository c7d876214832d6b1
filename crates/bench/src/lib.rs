//! Shared harness for the experiment binaries.
//!
//! Every binary in this crate regenerates one of the paper's tables or
//! figures (see DESIGN.md §3 for the index). This library provides the
//! common setup — an Almaden-like device with its daily calibration — and
//! the standard run path: compile (standard or optimized), execute with
//! the full noise model, sample shots, mitigate readout, compare to ideal.
//! A circuit the device cannot run comes back as a [`PipelineError`].

use pulse_compiler::{CompileMode, Compiler};
use quant_algos::LineGraph;
use quant_char::{counts_to_distribution, hellinger_distance, Mitigator};
use quant_circuit::Circuit;
use quant_corpus::PipelineError;
use quant_device::{
    calibrate, Calibration, DeviceModel, PulseExecutor, ShotPool, TrajectoryExecutor,
};
use quant_math::seeded;
use rand::rngs::StdRng;
use rand::Rng;

pub mod json;
pub mod timing;

/// A calibrated simulated backend.
pub struct Setup {
    /// The device model.
    pub device: DeviceModel,
    /// The daily calibration.
    pub calibration: Calibration,
}

impl Setup {
    /// Almaden-like chain of `n` qubits with a fixed seed.
    pub fn almaden(n: usize, seed: u64) -> Self {
        let mut rng = seeded(seed);
        let device = DeviceModel::almaden_like(n, &mut rng);
        let calibration = calibrate(&device, &mut rng);
        Setup {
            device,
            calibration,
        }
    }

    /// Armonk-like single qubit.
    pub fn armonk(seed: u64) -> Self {
        let mut rng = seeded(seed);
        let device = DeviceModel::armonk_like(&mut rng);
        let calibration = calibrate(&device, &mut rng);
        Setup {
            device,
            calibration,
        }
    }

    /// A drift-free, readout-perfect device (pulse physics only).
    pub fn ideal(n: usize, seed: u64) -> Self {
        let device = DeviceModel::ideal(n);
        let mut rng = seeded(seed);
        let calibration = calibrate(&device, &mut rng);
        Setup {
            device,
            calibration,
        }
    }

    /// The readout mitigator as the paper built it: confusion parameters
    /// *estimated* from finite-shot calibration runs (here 2048 shots per
    /// basis state) **hours before the job ran** — so the correction is
    /// imperfect both statistically and because readout drifts between the
    /// mitigation calibration and the run.
    pub fn mitigator(&self, n: usize) -> Mitigator {
        let cal_shots = 2048;
        let readout_drift = 0.008; // absolute drift of assignment errors
        let mut rng = seeded(0xC0FFEE);
        let mut est = |p: f64| -> f64 {
            let sigma = (p * (1.0 - p) / cal_shots as f64).sqrt();
            (p + quant_math::normal(&mut rng, 0.0, sigma)
                + quant_math::normal(&mut rng, 0.0, readout_drift))
            .clamp(1e-4, 0.5)
        };
        let mut e0 = Vec::new();
        let mut e1 = Vec::new();
        for q in 0..n as u32 {
            e0.push(est(self.device.readout(q).p1_given_0));
            e1.push(est(self.device.readout(q).p0_given_1));
        }
        Mitigator::from_calibration(&e0, &e1)
    }
}

/// The depth-1 line-graph MAXCUT QAOA circuit shared by the perfsuite
/// trajectory rows and the `extra_qaoa_scaling` experiment.
///
/// With `angles = None` the `(γ, β)` pair is optimized on the ideal
/// simulator ([`LineGraph::solve_p1`] — an exponential-cost state-vector
/// search, tractable through ~8 qubits); fixed angles keep the 12–20-qubit
/// perfsuite workloads off the solve, whose quality is irrelevant to a
/// wall-clock row.
pub fn qaoa_line_circuit(n: usize, angles: Option<(f64, f64)>) -> Circuit {
    let g = LineGraph::new(n);
    let angles = angles.unwrap_or_else(|| g.solve_p1().0);
    g.qaoa_circuit(&[angles])
}

/// Builds a mitigator the fully empirical way: prepare each single-qubit
/// basis state through the compiler (|1⟩ via an X gate), run it on the
/// noisy executor, and estimate the per-qubit confusion probabilities from
/// the measured counts — the actual protocol behind the paper's
/// measurement-error mitigation, SPAM contamination included.
pub fn measured_mitigator(
    setup: &Setup,
    n: usize,
    cal_shots: usize,
    rng: &mut StdRng,
) -> Result<Mitigator, PipelineError> {
    let exec = PulseExecutor::new(&setup.device);
    let mut e0 = Vec::with_capacity(n);
    let mut e1 = Vec::with_capacity(n);
    for q in 0..n as u32 {
        // Prepared |0⟩: an empty program.
        let idle = Compiler::new(&setup.device, &setup.calibration, CompileMode::Optimized)
            .compile(&Circuit::new(n as u32))?;
        let out = exec.try_run(&idle.program, rng)?;
        let counts = out.sample_counts(rng, cal_shots);
        let ones: u64 = counts
            .iter()
            .enumerate()
            .filter(|(idx, _)| (idx >> q) & 1 == 1)
            .map(|(_, &c)| c)
            .sum();
        e0.push((ones as f64 / cal_shots as f64).clamp(1e-4, 0.5));

        // Prepared |1⟩ on qubit q.
        let mut c = Circuit::new(n as u32);
        c.x(q);
        let prep =
            Compiler::new(&setup.device, &setup.calibration, CompileMode::Optimized).compile(&c)?;
        let out = exec.try_run(&prep.program, rng)?;
        let counts = out.sample_counts(rng, cal_shots);
        let zeros: u64 = counts
            .iter()
            .enumerate()
            .filter(|(idx, _)| (idx >> q) & 1 == 0)
            .map(|(_, &c)| c)
            .sum();
        e1.push((zeros as f64 / cal_shots as f64).clamp(1e-4, 0.5));
    }
    Ok(Mitigator::from_calibration(&e0, &e1))
}

/// Result of one compiled, noisy, mitigated run.
pub struct RunResult {
    /// Mitigated empirical distribution.
    pub distribution: Vec<f64>,
    /// Schedule duration in `dt`.
    pub duration: u64,
    /// Pulses played.
    pub pulse_count: usize,
}

/// Compiles and runs a circuit with the full noise model, sampling `shots`
/// and applying readout mitigation.
pub fn run_noisy(
    setup: &Setup,
    circuit: &Circuit,
    mode: CompileMode,
    shots: usize,
    rng: &mut StdRng,
) -> Result<RunResult, PipelineError> {
    let compiled = Compiler::new(&setup.device, &setup.calibration, mode).compile(circuit)?;
    let out = PulseExecutor::new(&setup.device).try_run(&compiled.program, rng)?;
    let counts = out.sample_counts(rng, shots);
    let measured = counts_to_distribution(&counts);
    let mitigated = setup
        .mitigator(circuit.num_qubits() as usize)
        .mitigate(&measured);
    Ok(RunResult {
        distribution: mitigated,
        duration: compiled.duration(),
        pulse_count: compiled.pulse_count(),
    })
}

/// Standard-vs-optimized comparison on one benchmark circuit.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Hellinger error of the standard flow.
    pub error_standard: f64,
    /// Hellinger error of the optimized flow.
    pub error_optimized: f64,
    /// Duration (dt) of the standard schedule.
    pub duration_standard: u64,
    /// Duration (dt) of the optimized schedule.
    pub duration_optimized: u64,
}

impl Comparison {
    /// Error-reduction factor (standard / optimized).
    pub fn error_reduction(&self) -> f64 {
        self.error_standard / self.error_optimized
    }

    /// Speedup factor.
    pub fn speedup(&self) -> f64 {
        self.duration_standard as f64 / self.duration_optimized as f64
    }
}

/// `run_noisy` for registers past the density wall: compiles and runs the
/// circuit through the stochastic trajectory executor's fused route,
/// samples `shots` with readout noise, and applies the same mitigation.
/// The counts depend only on `(program, shots, root)` — never on `pool`.
pub fn run_noisy_trajectory(
    setup: &Setup,
    circuit: &Circuit,
    mode: CompileMode,
    trajectories: usize,
    shots: usize,
    root: u64,
    pool: &ShotPool,
) -> Result<RunResult, PipelineError> {
    let compiled = Compiler::new(&setup.device, &setup.calibration, mode).compile(circuit)?;
    let counts = TrajectoryExecutor::new(&setup.device, trajectories).try_run_pooled(
        &compiled.program,
        shots,
        root,
        pool,
    )?;
    let measured = counts_to_distribution(&counts);
    let mitigated = setup
        .mitigator(circuit.num_qubits() as usize)
        .mitigate(&measured);
    Ok(RunResult {
        distribution: mitigated,
        duration: compiled.duration(),
        pulse_count: compiled.pulse_count(),
    })
}

/// Runs a benchmark circuit through both flows and scores each against the
/// ideal distribution.
pub fn compare_flows(
    setup: &Setup,
    circuit: &Circuit,
    shots: usize,
    seed: u64,
) -> Result<Comparison, PipelineError> {
    let ideal = circuit.output_distribution();
    let mut rng = seeded(seed);
    let std = run_noisy(setup, circuit, CompileMode::Standard, shots, &mut rng)?;
    let opt = run_noisy(setup, circuit, CompileMode::Optimized, shots, &mut rng)?;
    Ok(Comparison {
        error_standard: hellinger_distance(&ideal, &std.distribution),
        error_optimized: hellinger_distance(&ideal, &opt.distribution),
        duration_standard: std.duration,
        duration_optimized: opt.duration,
    })
}

/// `compare_flows` for wide registers: both flows run through the
/// trajectory executor on the same root, so the standard-vs-optimized
/// comparison reaches the 10–16-qubit linear topologies the exact density
/// path cannot hold.
pub fn compare_flows_trajectory(
    setup: &Setup,
    circuit: &Circuit,
    trajectories: usize,
    shots: usize,
    root: u64,
    pool: &ShotPool,
) -> Result<Comparison, PipelineError> {
    let ideal = circuit.output_distribution();
    let std = run_noisy_trajectory(
        setup,
        circuit,
        CompileMode::Standard,
        trajectories,
        shots,
        root,
        pool,
    )?;
    let opt = run_noisy_trajectory(
        setup,
        circuit,
        CompileMode::Optimized,
        trajectories,
        shots,
        root.wrapping_add(1),
        pool,
    )?;
    Ok(Comparison {
        error_standard: hellinger_distance(&ideal, &std.distribution),
        error_optimized: hellinger_distance(&ideal, &opt.distribution),
        duration_standard: std.duration,
        duration_optimized: opt.duration,
    })
}

/// Estimates P(qubit = 0) from a distribution for one qubit index.
pub fn p0_of_qubit(probs: &[f64], qubit: usize) -> f64 {
    probs
        .iter()
        .enumerate()
        .filter(|(idx, _)| (idx >> qubit) & 1 == 0)
        .map(|(_, &p)| p)
        .sum()
}

/// Adds binomial sampling noise to a probability given a shot count.
pub fn shot_noise(p: f64, shots: usize, rng: &mut impl Rng) -> f64 {
    let sigma = (p.clamp(0.0, 1.0) * (1.0 - p.clamp(0.0, 1.0)) / shots as f64).sqrt();
    (p + quant_math::normal(rng, 0.0, sigma)).clamp(0.0, 1.0)
}

/// A named experiment record for machine-readable result dumps.
#[derive(Clone, Debug)]
pub struct ExperimentRecord {
    /// Benchmark/experiment name.
    pub name: String,
    /// The standard-vs-optimized comparison.
    pub comparison: Comparison,
}

/// Writes experiment records as pretty JSON next to the text outputs.
pub fn write_json(path: &str, records: &[ExperimentRecord]) -> std::io::Result<()> {
    let items: Vec<json::Json> = records
        .iter()
        .map(|r| {
            json::object([
                ("name", json::string(&r.name)),
                (
                    "comparison",
                    json::object([
                        ("error_standard", json::number(r.comparison.error_standard)),
                        (
                            "error_optimized",
                            json::number(r.comparison.error_optimized),
                        ),
                        (
                            "duration_standard",
                            json::number(r.comparison.duration_standard as f64),
                        ),
                        (
                            "duration_optimized",
                            json::number(r.comparison.duration_optimized as f64),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    std::fs::write(path, json::array(items).pretty())
}

/// Renders a simple ASCII series plot (one row per sample).
pub fn ascii_series(title: &str, xs: &[f64], ys: &[f64], y_range: (f64, f64)) -> String {
    let mut out = format!("{title}\n");
    let width = 60usize;
    for (x, y) in xs.iter().zip(ys) {
        let frac = ((y - y_range.0) / (y_range.1 - y_range.0)).clamp(0.0, 1.0);
        let pos = (frac * (width - 1) as f64).round() as usize;
        let mut row = vec![b' '; width];
        row[pos] = b'*';
        out.push_str(&format!(
            "{x:>8.3} |{}| {y:.4}\n",
            String::from_utf8_lossy(&row)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_compiler::LowerError;
    use quant_device::ExecError;

    #[test]
    fn p0_extraction() {
        // 2-qubit distribution: p(q0=0) = p[0] + p[2].
        let probs = [0.1, 0.2, 0.3, 0.4];
        assert!((p0_of_qubit(&probs, 0) - 0.4).abs() < 1e-12);
        assert!((p0_of_qubit(&probs, 1) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn measured_mitigator_estimates_confusion() {
        let setup = Setup::almaden(1, 9090);
        let mut rng = seeded(91);
        let m = measured_mitigator(&setup, 1, 8000, &mut rng).expect("one-qubit mitigator");
        // Forward-applying the estimated confusion to a pure |0⟩ should
        // land near the device's true readout error (plus SPAM).
        let noisy = m.apply_forward(&[1.0, 0.0]);
        let truth = setup.device.readout(0).p1_given_0 + setup.device.reset_excited_prob();
        assert!(
            (noisy[1] - truth).abs() < 0.02,
            "estimated {:.4} vs true-ish {truth:.4}",
            noisy[1]
        );
    }

    #[test]
    fn circuits_the_device_cannot_run_are_errors() {
        // Wider than the device: lowering has no pulses for qubit 2. An
        // empty register: the executors have nothing to measure.
        let setup = Setup::almaden(2, 9191);
        let mut wide = Circuit::new(3);
        wide.x(2);
        let wide_err = LowerError::RegisterWidth {
            circuit: 3,
            device: 2,
        };
        let empty_err = ExecError::RegisterWidth {
            program: 0,
            device: 2,
        };
        let cases = [
            (wide, PipelineError::Lower(wide_err)),
            (Circuit::new(0), PipelineError::Exec(empty_err)),
        ];
        for (circuit, want) in &cases {
            for mode in [CompileMode::Standard, CompileMode::Optimized] {
                let density = run_noisy(&setup, circuit, mode, 100, &mut seeded(1));
                let pool = ShotPool::serial();
                let trajectory = run_noisy_trajectory(&setup, circuit, mode, 2, 100, 1, &pool);
                assert_eq!(density.err().as_ref(), Some(want));
                assert_eq!(trajectory.err().as_ref(), Some(want));
            }
        }
    }

    #[test]
    fn comparison_math() {
        let c = Comparison {
            error_standard: 0.3,
            error_optimized: 0.15,
            duration_standard: 2000,
            duration_optimized: 1000,
        };
        assert!((c.error_reduction() - 2.0).abs() < 1e-12);
        assert!((c.speedup() - 2.0).abs() < 1e-12);
    }
}
