//! Figure 10: ZZ-interaction state fidelity — standard (CNOT·Rz·CNOT) vs
//! optimized (H·CR(θ)·H), for θ = 0°, 4.5°, …, 90° (21 points × 2 flows ×
//! 2000 shots = 84 k shots in the paper).
//!
//! Paper: mean fidelities 98.4 % (standard) vs 99.0 % (optimized) — a 60 %
//! error reduction for the single most common two-qubit primitive.

use quant_char::hellinger_fidelity;
use quant_circuit::Circuit;
use quant_corpus::{PipelineConfig, PipelineError};
use quant_device::ShotPool;
use repro_bench::{compare_flows, Setup};

fn main() -> Result<(), PipelineError> {
    let setup = Setup::almaden(2, 1010);
    let shots = 2000;
    let pool = ShotPool::from_env();

    println!(
        "Figure 10 — ZZ(θ) state fidelity, standard vs optimized ({} points)\n",
        21
    );
    println!("{:>8} {:>10} {:>10}", "θ (deg)", "std fid.", "opt fid.");

    let mut mean = [0.0_f64; 2];
    for i in 0..21 {
        let theta = i as f64 * 4.5_f64.to_radians();
        // Benchmark circuit: prepare |++⟩, apply the interaction, rotate
        // back — sensitive to both the angle and the phases.
        let mut c = Circuit::new(2);
        c.h(0).h(1).zz(0, 1, theta).h(0).h(1);
        let ideal = c.output_distribution();
        let config = PipelineConfig {
            shots,
            seed: 84_000 + i,
            ..PipelineConfig::default()
        };
        let cmp = compare_flows(&setup, &c, &config, &pool)?;
        let mut fids = [0.0; 2];
        for (m, mitigated) in cmp.mitigated.iter().enumerate() {
            fids[m] = hellinger_fidelity(&ideal, mitigated);
            mean[m] += fids[m] / 21.0;
        }
        println!(
            "{:>8.1} {:>9.2}% {:>9.2}%",
            theta.to_degrees(),
            100.0 * fids[0],
            100.0 * fids[1]
        );
    }
    let err_std = 1.0 - mean[0];
    let err_opt = 1.0 - mean[1];
    println!(
        "\nmean fidelity: standard {:.2}%  optimized {:.2}%",
        100.0 * mean[0],
        100.0 * mean[1]
    );
    println!(
        "error reduction: {:.0}% (paper: 60%; fidelities 98.4% vs 99.0%)",
        100.0 * (1.0 - err_opt / err_std)
    );
    Ok(())
}
