//! Extension experiment: interleaved randomized benchmarking of the X
//! gate under both compilation flows.
//!
//! The paper's §4.1 claims DirectX is "twice as fast … and has 2× lower
//! error, as measured through quantum state tomography". Interleaved RB
//! (Magesan et al.) isolates exactly the interleaved gate's fidelity, so
//! this binary measures the per-X-gate error of the two-pulse standard X
//! versus the single-pulse DirectX directly.
//!
//! ```text
//! cargo run --release -p repro-bench --bin extra_directx_irb
//! ```

use pulse_compiler::CompileMode;
use quant_char::{interleaved_gate_fidelity, interleaved_rb_sequence, rb_sequence, RbData};
use quant_circuit::Gate;
use quant_corpus::{run_circuit, PipelineConfig, PipelineError};
use quant_device::ShotPool;
use quant_math::seeded;
use repro_bench::Setup;

fn decay(
    setup: &Setup,
    mode: CompileMode,
    interleave: Option<Gate>,
    lengths: &[usize],
    randomizations: usize,
    shots: usize,
    pool: &ShotPool,
) -> Result<f64, PipelineError> {
    let mut survival_means = Vec::new();
    for &k in lengths {
        let mut total = 0.0;
        for r in 0..randomizations {
            // One seed per sequence: it draws the Cliffords, then roots the
            // pipeline's jitter and sampling lanes.
            let seed = 77_000 + (k * 131 + r) as u64;
            let mut rng = seeded(seed);
            let c = match interleave {
                Some(g) => interleaved_rb_sequence(k, g, &mut rng),
                None => rb_sequence(k, &mut rng),
            };
            let config = PipelineConfig {
                mode,
                shots,
                seed,
                ..PipelineConfig::default()
            };
            let run = run_circuit(&setup.device, &setup.calibration, &c, &config, pool)?;
            total += run.counts[0] as f64 / shots as f64;
        }
        survival_means.push(total / randomizations as f64);
    }
    let data = RbData {
        lengths: lengths.to_vec(),
        survival: survival_means,
    };
    Ok(data.fit().f)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let setup = Setup::armonk(4242);
    let lengths: Vec<usize> = (1..=15).map(|i| 15 * i).collect();
    let randomizations = 5;
    let shots = 4000;
    let pool = ShotPool::from_env();

    println!("Interleaved RB of the X gate: standard (2 pulses) vs DirectX (1 pulse)");
    println!(
        "({} lengths to K = {}, {randomizations} randomizations, {shots} shots)\n",
        lengths.len(),
        lengths.last().ok_or("no sequence lengths")?
    );

    let mut gate_errors = Vec::new();
    for (label, mode) in [
        ("standard", CompileMode::Standard),
        ("optimized", CompileMode::Optimized),
    ] {
        let f_ref = decay(&setup, mode, None, &lengths, randomizations, shots, &pool)?;
        let f_int = decay(
            &setup,
            mode,
            Some(Gate::X),
            &lengths,
            randomizations,
            shots,
            &pool,
        )?;
        let f_gate = interleaved_gate_fidelity(f_ref, f_int);
        gate_errors.push(1.0 - f_gate);
        println!(
            "{label:<10} reference f = {:.4}%   interleaved f = {:.4}%   X-gate error = {:.4}%",
            100.0 * f_ref,
            100.0 * f_int,
            100.0 * (1.0 - f_gate)
        );
    }
    if gate_errors[1] > 0.0 {
        println!(
            "\nDirectX error is {:.1}x lower than the standard two-pulse X",
            gate_errors[0] / gate_errors[1]
        );
    }
    println!("paper reference: \"twice as fast … and 2x lower error\" (§4.1)");
    Ok(())
}
