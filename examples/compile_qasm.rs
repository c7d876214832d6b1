//! Compile an OpenQASM program through the full flow — the "write once,
//! target all" story: the input is textbook assembly text; the optimized
//! compiler rediscovers its ZZ interactions and lowers them to stretched
//! CR pulses without the author knowing any device physics.
//!
//! ```text
//! cargo run --release --example compile_qasm
//! ```

use openpulse_repro::circuit::qasm;
use openpulse_repro::compiler::CompileMode;
use openpulse_repro::corpus::{run_circuit, PipelineConfig};
use openpulse_repro::device::{calibrate, DeviceModel, ShotPool, DT};
use openpulse_repro::math::seeded;

const PROGRAM: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
// prepare |+++>
h q[0];
h q[1];
h q[2];
// a textbook Ising layer: CNOT-Rz-CNOT per edge
cx q[0], q[1];
rz(pi/3) q[1];
cx q[0], q[1];
cx q[1], q[2];
rz(pi/3) q[2];
cx q[1], q[2];
// mixer
rx(pi/4) q[0];
rx(pi/4) q[1];
rx(pi/4) q[2];
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = qasm::parse(PROGRAM)?;
    println!("parsed {} operations from QASM\n", circuit.len());

    let mut rng = seeded(2718);
    let device = DeviceModel::almaden_like(3, &mut rng);
    let calibration = calibrate(&device, &mut rng);

    for mode in [CompileMode::Standard, CompileMode::Optimized] {
        let config = PipelineConfig {
            mode,
            shots: 4000,
            seed: 2718,
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
        println!("==== {mode:?} ====");
        println!(
            "assembly after passes ({} ops, {} ZZ detected):",
            compiled.assembly.len(),
            compiled.assembly.count_gate("zz")
        );
        println!("{}", qasm::print(&compiled.assembly));
        println!(
            "schedule: {} pulses, {} dt ({:.2} µs)\n",
            compiled.pulse_count(),
            compiled.duration(),
            compiled.duration() as f64 * DT * 1e6
        );
        println!("counts (4000 shots): {:?}\n", run.counts);
    }
    Ok(())
}
