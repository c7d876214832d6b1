//! Figure 4: pulse schedules for the X gate — standard (two Rx90 pulses)
//! versus DirectX (one Rx180 pulse).
//!
//! Paper: standard X = 71.1 ns (320 dt), DirectX = 35.6 ns (160 dt); both
//! schedules have the same absolute area under the curve.

use pulse_compiler::{CompileMode, Compiler, LowerError};
use quant_circuit::Circuit;
use quant_device::DT;
use quant_pulse::Instruction;
use repro_bench::Setup;

fn abs_area(program: &quant_device::LoweredProgram) -> f64 {
    program
        .schedule
        .instructions()
        .iter()
        .filter_map(|ti| match &ti.instruction {
            Instruction::Play { waveform, .. } => Some(waveform.abs_area()),
            _ => None,
        })
        .sum()
}

fn main() -> Result<(), LowerError> {
    let setup = Setup::almaden(1, 404);
    let mut c = Circuit::new(1);
    c.x(0);

    println!("Figure 4 — X-gate pulse schedules (standard vs DirectX)\n");
    for (label, mode) in [
        ("standard (U3 → 2×Rx90)", CompileMode::Standard),
        ("DirectX  (1×Rx180)", CompileMode::Optimized),
    ] {
        let compiled = Compiler::new(&setup.device, &setup.calibration, mode).compile(&c)?;
        let dur_dt = compiled.duration();
        let dur_ns = dur_dt as f64 * DT * 1e9;
        println!(
            "{label}\n  pulses: {}   duration: {dur_dt} dt = {dur_ns:.1} ns   |area|: {:.2} amp·dt",
            compiled.pulse_count(),
            abs_area(&compiled.program)
        );
        println!("{}", compiled.program.schedule.ascii_art(64));
    }
    println!("paper reference: 320 dt (71.1 ns) vs 160 dt (35.6 ns), equal areas");
    Ok(())
}
