//! Compile an OpenQASM program through the full flow — the "write once,
//! target all" story: the input is textbook assembly text; the optimized
//! compiler rediscovers its ZZ interactions and lowers them to stretched
//! CR pulses without the author knowing any device physics.
//!
//! ```text
//! cargo run --release --example compile_qasm
//! ```

use openpulse_repro::circuit::qasm;
use openpulse_repro::compiler::{CompileMode, Compiler};
use openpulse_repro::device::{calibrate, DeviceModel, PulseExecutor, DT};
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
        let compiled = Compiler::new(&device, &calibration, mode).compile(&circuit)?;
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
        let exec = PulseExecutor::new(&device);
        let out = exec.try_run(&compiled.program, &mut rng)?;
        let counts = out.sample_counts(&mut rng, 4000);
        println!("counts (4000 shots): {counts:?}\n");
    }
    Ok(())
}
