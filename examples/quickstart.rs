//! Quickstart: compile a Bell-pair circuit through all four stages of the
//! paper's Figure 1 / Table 1 flow — program, assembly, basis gates, pulse
//! schedule — in both the standard and the pulse-optimized mode, then run
//! it on the simulated Almaden backend.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use openpulse_repro::circuit::Circuit;
use openpulse_repro::compiler::{CompileMode, Compiler};
use openpulse_repro::device::{calibrate, DeviceModel, PulseExecutor};
use openpulse_repro::math::seeded;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A simulated 2-qubit Almaden-like device, freshly calibrated (the
    //    Rabi / DRAG / CR tune-ups run against the simulated physics).
    let mut rng = seeded(7);
    let device = DeviceModel::almaden_like(2, &mut rng);
    let calibration = calibrate(&device, &mut rng);
    println!(
        "calibrated device: {} cmd_def entries ({:?})\n",
        calibration.cmd_def().len(),
        calibration.cmd_def().gate_names()
    );

    // 2. PROGRAM stage: hardware-agnostic user code.
    let mut bell = Circuit::new(2);
    bell.h(0).cnot(0, 1);
    println!("program:\n{bell}\n");

    for mode in [CompileMode::Standard, CompileMode::Optimized] {
        let compiled = Compiler::new(&device, &calibration, mode).compile(&bell)?;

        println!("==== {mode:?} flow ====");
        // 3. ASSEMBLY stage (after transpiler passes).
        println!("assembly:\n{}", compiled.assembly);
        // 4. BASIS GATES stage.
        println!("basis gates:\n{}", compiled.basis);
        // 5. PULSE SCHEDULE stage.
        println!(
            "pulse schedule: {} pulses, {} dt ({:.1} ns)",
            compiled.pulse_count(),
            compiled.duration(),
            compiled.duration() as f64 * openpulse_repro::device::DT * 1e9,
        );
        println!("{}", compiled.program.schedule.ascii_art(64));

        // Execute with the full noise model and print the distribution.
        let exec = PulseExecutor::new(&device);
        let out = exec.try_run(&compiled.program, &mut rng)?;
        let counts = out.sample_counts(&mut rng, 4000);
        println!("measured counts over 4000 shots: {counts:?}");
        println!("(ideal Bell pair: ~2000 each on |00⟩ and |11⟩, ~0 elsewhere)\n");
    }
    Ok(())
}
