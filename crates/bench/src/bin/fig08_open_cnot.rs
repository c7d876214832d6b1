//! Figure 8: open-CNOT pulse schedules — standard vs cross-gate pulse
//! cancellation (Optimization 2).
//!
//! Paper: cancellation reduces the schedule from 1984 dt to 1504 dt (24 %)
//! and nudges success probability from 87.1(9) % to 87.3(9) % over 16 k
//! shots.

use pulse_compiler::CompileMode;
use quant_circuit::{Circuit, Gate};
use quant_corpus::{run_circuit, PipelineConfig, PipelineError};
use quant_device::{ShotPool, DT};
use repro_bench::Setup;

fn main() -> Result<(), PipelineError> {
    let setup = Setup::almaden(2, 808);
    let shots = 16_000;
    let mut c = Circuit::new(2);
    c.push(Gate::OpenCnot, &[0, 1]);
    // Ideal: control |0⟩ → target flips → outcome index 2 (q1 = 1).
    let target_index = 2;

    println!("Figure 8 — open-CNOT: standard vs pulse-cancelled ({shots} shots)\n");
    let mut durations = Vec::new();
    let pool = ShotPool::from_env();
    for (label, mode) in [
        ("standard", CompileMode::Standard),
        ("optimized (X-pulse cancellation)", CompileMode::Optimized),
    ] {
        let config = PipelineConfig {
            mode,
            shots,
            seed: 9_911,
            ..PipelineConfig::default()
        };
        let run = run_circuit(&setup.device, &setup.calibration, &c, &config, &pool)?;
        let compiled = run.compiled;
        let success = run.counts[target_index] as f64 / shots as f64;
        let sigma = (success * (1.0 - success) / shots as f64).sqrt();
        durations.push(compiled.duration());
        println!(
            "{label}\n  duration: {} dt ({:.0} ns)   pulses: {}   success: {:.2}({:.0})%",
            compiled.duration(),
            compiled.duration() as f64 * DT * 1e9,
            compiled.pulse_count(),
            100.0 * success,
            1000.0 * sigma
        );
        println!("{}", compiled.program.schedule.ascii_art(64));
    }
    let reduction = 100.0 * (1.0 - durations[1] as f64 / durations[0] as f64);
    println!("duration reduction: {reduction:.0}%");
    println!("paper reference   : 24% (1984 dt → 1504 dt); success 87.1% → 87.3%");
    Ok(())
}
