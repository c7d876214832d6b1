//! Quickstart: compile a Bell-pair circuit through all four stages of the
//! paper's Figure 1 / Table 1 flow — program, assembly, basis gates, pulse
//! schedule — in both the standard and the pulse-optimized mode, then run
//! it on the simulated Almaden backend, all through the one pipeline
//! (`corpus::run_circuit`: route, compile, execute, sample).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use openpulse_repro::circuit::Circuit;
use openpulse_repro::compiler::CompileMode;
use openpulse_repro::corpus::{run_circuit, PipelineConfig};
use openpulse_repro::device::{calibrate, DeviceModel, ShotPool};
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
        // Route, compile, then execute with the full noise model and
        // sample 4000 shots on the config seed's lanes.
        let config = PipelineConfig {
            mode,
            shots: 4000,
            seed: 7,
            ..PipelineConfig::default()
        };
        let run = run_circuit(&device, &calibration, &bell, &config, &ShotPool::from_env())?;
        let compiled = &run.compiled;

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

        println!("measured counts over 4000 shots: {:?}", run.counts);
        println!("(ideal Bell pair: ~2000 each on |00⟩ and |11⟩, ~0 elsewhere)\n");
    }
    Ok(())
}
