//! QAOA-MAXCUT on a 5-vertex line graph: the workload where the paper's
//! ZZ-interaction optimization pays off most (its largest Fig. 12 gain).
//!
//! The program is written the "textbook" way — each cost edge as
//! CNOT·Rz·CNOT — and the optimized compiler's passes rediscover the ZZ
//! interactions automatically (write-once, target-all).
//!
//! ```text
//! cargo run --release --example qaoa_maxcut
//! ```

use openpulse_repro::algorithms::LineGraph;
use openpulse_repro::characterization::counts_to_distribution;
use openpulse_repro::compiler::CompileMode;
use openpulse_repro::corpus::{run_circuit, PipelineConfig};
use openpulse_repro::device::{calibrate, DeviceModel, ShotPool, DT};
use openpulse_repro::math::seeded;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = LineGraph::new(5);
    let ((gamma, beta), ideal_cut) = g.solve_p1();
    println!("QAOA p=1 MAXCUT on the 5-vertex line graph");
    println!("  optimal (γ, β) = ({gamma:.4}, {beta:.4})");
    println!(
        "  ideal expected cut = {ideal_cut:.3} of max {}\n",
        g.max_cut()
    );

    let circuit = g.qaoa_circuit(&[(gamma, beta)]);
    println!(
        "textbook circuit: {} CNOTs, {} 1q gates",
        circuit.count_gate("cx"),
        circuit.len() - circuit.count_gate("cx")
    );

    let mut rng = seeded(23);
    let device = DeviceModel::almaden_like(5, &mut rng);
    let calibration = calibrate(&device, &mut rng);

    for mode in [CompileMode::Standard, CompileMode::Optimized] {
        let config = PipelineConfig {
            mode,
            shots: 8000,
            seed: 23,
            ..PipelineConfig::default()
        };
        let run = run_circuit(
            &device,
            &calibration,
            &circuit,
            &config,
            &ShotPool::from_env(),
        )?;
        let compiled = &run.compiled;
        let cut = g.expected_cut(&counts_to_distribution(&run.counts));
        println!(
            "\n{mode:?} flow:\n  ZZ interactions detected: {}\n  schedule: {} pulses, {:.2} µs\n  measured expected cut: {cut:.3} (ideal {ideal_cut:.3})",
            compiled.assembly.count_gate("zz"),
            compiled.pulse_count(),
            compiled.duration() as f64 * DT * 1e6,
        );
    }
    Ok(())
}
