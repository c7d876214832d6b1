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

use pulse_compiler::{CompileMode, Compiler};
use quant_char::{interleaved_gate_fidelity, interleaved_rb_sequence, rb_sequence, RbData};
use quant_circuit::{Circuit, Gate};
use quant_corpus::PipelineError;
use quant_device::PulseExecutor;
use quant_math::seeded;
use repro_bench::Setup;

fn survival(
    setup: &Setup,
    circuit: &Circuit,
    mode: CompileMode,
    shots: usize,
    rng: &mut rand::rngs::StdRng,
) -> Result<f64, PipelineError> {
    let compiled = Compiler::new(&setup.device, &setup.calibration, mode).compile(circuit)?;
    let out = PulseExecutor::new(&setup.device).try_run(&compiled.program, rng)?;
    let counts = out.sample_counts(rng, shots);
    Ok(counts[0] as f64 / shots as f64)
}

fn decay(
    setup: &Setup,
    mode: CompileMode,
    interleave: Option<Gate>,
    lengths: &[usize],
    randomizations: usize,
    shots: usize,
) -> Result<f64, PipelineError> {
    let mut survival_means = Vec::new();
    for &k in lengths {
        let mut total = 0.0;
        for r in 0..randomizations {
            let mut rng = seeded(77_000 + (k * 131 + r) as u64);
            let c = match interleave {
                Some(g) => interleaved_rb_sequence(k, g, &mut rng),
                None => rb_sequence(k, &mut rng),
            };
            total += survival(setup, &c, mode, shots, &mut rng)?;
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
        let f_ref = decay(&setup, mode, None, &lengths, randomizations, shots)?;
        let f_int = decay(&setup, mode, Some(Gate::X), &lengths, randomizations, shots)?;
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
