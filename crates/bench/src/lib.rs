//! Shared harness for the experiment binaries.
//!
//! Every binary in this crate regenerates one of the paper's tables or
//! figures (see DESIGN.md §3 for the index). This library provides the
//! common setup — an Almaden-like device with its daily calibration — and
//! one run function, [`compare_flows`]: both compilation flows of a
//! circuit through [`quant_corpus::run_circuit`] (route, compile, execute
//! with the full noise model, sample on the pipeline's seed lanes), then
//! readout mitigation and a score against the ideal distribution. Readout
//! mitigation is the harness's own step; everything up to the counts is
//! the pipeline's. A circuit the device cannot run comes back as a
//! [`PipelineError`].

use pulse_compiler::CompileMode;
use quant_algos::LineGraph;
use quant_char::{counts_to_distribution, hellinger_distance, Mitigator};
use quant_circuit::Circuit;
use quant_corpus::{run_circuit, PipelineConfig, PipelineError};
use quant_device::{calibrate, Calibration, DeviceModel, ShotPool};
use quant_math::seeded;
use rand::Rng;

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

/// The depth-1 line-graph MAXCUT QAOA circuit shared by Fig. 12's
/// 12-qubit trajectory row and the `extra_qaoa_scaling` experiment.
///
/// With `angles = None` the `(γ, β)` pair is optimized on the ideal
/// simulator ([`LineGraph::solve_p1`] — an exponential-cost state-vector
/// search, tractable through ~8 qubits); fixed angles keep wider circuits
/// off that solve.
pub fn qaoa_line_circuit(n: usize, angles: Option<(f64, f64)>) -> Circuit {
    let g = LineGraph::new(n);
    let angles = angles.unwrap_or_else(|| g.solve_p1().0);
    g.qaoa_circuit(&[angles])
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
    /// The readout-mitigated distributions, standard then optimized.
    pub mitigated: [Vec<f64>; 2],
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

/// Runs `circuit` through the pipeline in both flows, mitigates each
/// flow's readout with [`Setup::mitigator`] and scores it against the
/// routed circuit's ideal distribution. Both flows run on `config`'s seed,
/// shots and executor choice (`config.mode` is ignored): registers wider
/// than `config.density_max_qubits` run as `config.trajectories`
/// trajectories.
pub fn compare_flows(
    setup: &Setup,
    circuit: &Circuit,
    config: &PipelineConfig,
    pool: &ShotPool,
) -> Result<Comparison, PipelineError> {
    let flow = |mode| {
        let config = PipelineConfig {
            mode,
            ..config.clone()
        };
        let run = run_circuit(&setup.device, &setup.calibration, circuit, &config, pool)?;
        // Routing widens the register to the device's, and so do the counts.
        let mitigated = setup
            .mitigator(run.compiled.program.num_qubits as usize)
            .mitigate(&counts_to_distribution(&run.counts));
        Ok::<_, PipelineError>((
            hellinger_distance(&run.ideal, &mitigated),
            run.duration_dt,
            mitigated,
        ))
    };
    let (error_standard, duration_standard, standard) = flow(CompileMode::Standard)?;
    let (error_optimized, duration_optimized, optimized) = flow(CompileMode::Optimized)?;
    Ok(Comparison {
        error_standard,
        error_optimized,
        duration_standard,
        duration_optimized,
        mitigated: [standard, optimized],
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

/// Writes experiment records as pretty JSON next to the text outputs
/// (hand-rolled, as `quant_corpus`'s report is; no serde in-tree).
pub fn write_json(path: &str, records: &[ExperimentRecord]) -> std::io::Result<()> {
    let items: Vec<String> = records
        .iter()
        .map(|r| {
            let c = &r.comparison;
            format!(
                "  {{\n    \"name\": \"{}\",\n    \"comparison\": {{\n      \
                 \"error_standard\": {},\n      \"error_optimized\": {},\n      \
                 \"duration_standard\": {},\n      \"duration_optimized\": {}\n    }}\n  }}",
                r.name,
                c.error_standard,
                c.error_optimized,
                c.duration_standard,
                c.duration_optimized
            )
        })
        .collect();
    std::fs::write(path, format!("[\n{}\n]\n", items.join(",\n")))
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
    use pulse_compiler::RouteError;

    #[test]
    fn p0_extraction() {
        // 2-qubit distribution: p(q0=0) = p[0] + p[2].
        let probs = [0.1, 0.2, 0.3, 0.4];
        assert!((p0_of_qubit(&probs, 0) - 0.4).abs() < 1e-12);
        assert!((p0_of_qubit(&probs, 1) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn circuits_the_device_cannot_run_are_errors() {
        // Wider than the device: routing refuses it. An empty register:
        // the pipeline has nothing to measure. Both before any execution,
        // on either executor.
        let setup = Setup::almaden(2, 9191);
        let mut wide = Circuit::new(3);
        wide.x(2);
        let wide_err = RouteError::TooWide {
            logical: 3,
            physical: 2,
        };
        let cases = [
            (wide, PipelineError::Route(wide_err)),
            (Circuit::new(0), PipelineError::NoQubits),
        ];
        for (circuit, want) in &cases {
            for density_max_qubits in [6, 0] {
                let config = PipelineConfig {
                    shots: 100,
                    trajectories: 2,
                    density_max_qubits,
                    ..PipelineConfig::default()
                };
                let got = compare_flows(&setup, circuit, &config, &ShotPool::serial());
                assert_eq!(got.err().as_ref(), Some(want));
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
            mitigated: Default::default(),
        };
        assert!((c.error_reduction() - 2.0).abs() < 1e-12);
        assert!((c.speedup() - 2.0).abs() < 1e-12);
    }
}
