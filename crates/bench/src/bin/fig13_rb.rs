//! Figure 13: randomized-benchmarking-style decomposition of the fidelity
//! gain (paper §8.3), on the Armonk-like single-qubit device.
//!
//! Three variants per sequence length K = 2…25 (5 randomizations each):
//! * **standard** — two-pulse U3 compilation;
//! * **optimized** — DirectRx single-pulse compilation;
//! * **optimized-slow** — DirectRx pulses padded with idle to match the
//!   standard duration, isolating the shorter-pulse contribution.
//!
//! Paper: gate fidelities f = 99.82 % / 99.87 % / 99.83 %, implying ~70 %
//! of the improvement comes from shorter pulses.

use pulse_compiler::{CompileMode, Compiler, LowerError};
use quant_char::{rb_sequence, RbData};
use quant_circuit::Circuit;
use quant_corpus::PipelineError;
use quant_device::{Block, LoweredProgram, PulseExecutor, ShotPool};
use quant_math::{seeded, stream_seed};
use repro_bench::Setup;

#[derive(Clone, Copy, PartialEq)]
enum Variant {
    Standard,
    Optimized,
    OptimizedSlow,
}

fn compile_variant(setup: &Setup, c: &Circuit, v: Variant) -> Result<LoweredProgram, LowerError> {
    let mode = match v {
        Variant::Standard => CompileMode::Standard,
        _ => CompileMode::Optimized,
    };
    let compiled = Compiler::new(&setup.device, &setup.calibration, mode).compile(c)?;
    let mut program = compiled.program;
    if v == Variant::OptimizedSlow {
        // NO-OP idle after every gate so the total matches the standard
        // duration (each optimized 1q gate is one pulse shorter).
        let std_dur = Compiler::new(&setup.device, &setup.calibration, CompileMode::Standard)
            .compile(c)?
            .duration();
        let deficit = std_dur.saturating_sub(program.duration());
        if deficit > 0 {
            program.blocks.push(Block::Idle {
                qubit: 0,
                duration: deficit,
            });
        }
    }
    Ok(program)
}

fn main() -> Result<(), PipelineError> {
    let setup = Setup::armonk(1313);
    let shots = 8000;
    let randomizations = 6;
    // The paper swept K = 2…25 with per-gate error ~1.8e-3; our simulated
    // Armonk's gates are ~4x cleaner, so we extend the sweep to keep the
    // total decay depth comparable.
    let lengths: Vec<usize> = (1..=20).map(|i| 20 * i).collect();
    let exec = PulseExecutor::new(&setup.device);

    println!("Figure 13 — RB-style decay on the Armonk-like device");
    println!(
        "({} lengths × {randomizations} randomizations × 3 variants × {shots} shots)\n",
        lengths.len()
    );

    // Every (length, randomization) cell derives its RNG from its own
    // seed, so the grid fans across the pool with results identical to
    // the serial sweep.
    let pool = ShotPool::from_env();
    let mut fits = Vec::new();
    for (name, variant) in [
        ("optimized", Variant::Optimized),
        ("optimized-slow", Variant::OptimizedSlow),
        ("standard", Variant::Standard),
    ] {
        let cells = pool.map_indices(lengths.len() * randomizations, |j| {
            let k = lengths[j / randomizations];
            let r = j % randomizations;
            let seed = 5000 + (k * 31 + r) as u64;
            let mut rng = seeded(seed);
            let c = rb_sequence(k, &mut rng);
            let program = compile_variant(&setup, &c, variant)?;
            let out = exec.try_run(&program, &mut rng)?;
            let counts = out.sample_counts_deterministic(stream_seed(seed, 1), shots);
            Ok(counts[0] as f64 / shots as f64)
        });
        let cells = cells
            .into_iter()
            .collect::<Result<Vec<f64>, PipelineError>>()?;
        let survival: Vec<f64> = cells
            .chunks(randomizations)
            .map(|c| c.iter().sum::<f64>() / randomizations as f64)
            .collect();
        let data = RbData {
            lengths: lengths.clone(),
            survival,
        };
        let fit = data.fit();
        println!(
            "{name:<15} f = {:.4}%   a = {:.3}  b = {:.3}",
            100.0 * fit.f,
            fit.a,
            fit.b
        );
        fits.push((name, fit.f));
    }

    let f_opt = fits[0].1;
    let f_slow = fits[1].1;
    let f_std = fits[2].1;
    let total_gain = f_opt - f_std;
    if total_gain > 0.0 {
        let from_speed = (f_opt - f_slow) / total_gain;
        println!(
            "\nshorter pulses account for {:.0}% of the fidelity gain",
            100.0 * from_speed
        );
    } else {
        println!("\n(no net gain measured — see EXPERIMENTS.md discussion)");
    }
    println!("paper reference: f = 99.87% / 99.83% / 99.82%; ~70% from shorter pulses");
    Ok(())
}
