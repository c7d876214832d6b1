//! Figure 5: fidelity of Rx(θ) rotations — standard gate compilation (two
//! Rx90 pulses) vs optimized pulse compilation (one scaled pulse).
//!
//! Paper: the direct pulse path is 2× faster and shows ~16 % lower error
//! on average, with less jitter across θ.

use pulse_compiler::{CompileMode, Compiler};
use quant_char::tomography::{bloch_from_p0, Axis, BlochVector};
use quant_circuit::Circuit;
use quant_corpus::PipelineError;
use quant_device::{PulseExecutor, ShotPool};
use quant_math::seeded;
use repro_bench::{p0_of_qubit, shot_noise, Setup};
use std::f64::consts::PI;

/// Noisy tomography of the state produced by compiling `prep` in `mode`.
fn tomograph(
    setup: &Setup,
    prep: &Circuit,
    mode: CompileMode,
    shots: usize,
    seed: u64,
) -> Result<BlochVector, PipelineError> {
    let mut rng = seeded(seed);
    let mut p0 = [0.0; 3];
    for (i, axis) in Axis::all().iter().enumerate() {
        let mut c = prep.clone();
        axis.append_rotation(&mut c, 0);
        let compiled = Compiler::new(&setup.device, &setup.calibration, mode).compile(&c)?;
        let out = PulseExecutor::new(&setup.device).try_run(&compiled.program, &mut rng)?;
        let mitigated = setup.mitigator(1).mitigate(&out.probabilities);
        p0[i] = shot_noise(p0_of_qubit(&mitigated, 0), shots, &mut rng);
    }
    Ok(bloch_from_p0(p0))
}

fn main() -> Result<(), PipelineError> {
    let setup = Setup::almaden(1, 505);
    let shots = 1000;
    let mut sum_err = [0.0_f64; 2];
    let mut durations = [0u64; 2];

    println!("Figure 5 — Rx(θ) fidelity, standard vs DirectRx (1000 shots/axis)\n");
    println!(
        "{:>7} {:>12} {:>12} {:>12}",
        "θ (deg)", "std infid.", "direct infid.", "winner"
    );
    // Sweep points carry per-index seeds, so the θ sweep fans across the
    // pool with results identical to the serial loop.
    let pool = ShotPool::from_env();
    let points = pool.map_indices(20, |i| {
        let k = i as u64 + 1;
        let theta = (i + 1) as f64 / 20.0 * PI;
        let mut prep = Circuit::new(1);
        prep.rx(0, theta);
        // Ideal Bloch vector of Rx(θ)|0⟩.
        let ideal = BlochVector {
            x: 0.0,
            y: -theta.sin(),
            z: theta.cos(),
        };
        let mut errs = [0.0; 2];
        let mut durs = [0u64; 2];
        for (m, mode) in [CompileMode::Standard, CompileMode::Optimized]
            .into_iter()
            .enumerate()
        {
            let b = tomograph(&setup, &prep, mode, shots, 7_000 + 10 * k + m as u64)?;
            errs[m] = 1.0 - b.fidelity(&ideal).clamp(0.0, 1.0);
            let compiled = Compiler::new(&setup.device, &setup.calibration, mode).compile(&prep)?;
            durs[m] = compiled.duration();
        }
        Ok::<_, PipelineError>((theta, errs, durs))
    });
    let mut n = 0;
    for point in points {
        let (theta, errs, durs) = point?;
        sum_err[0] += errs[0];
        sum_err[1] += errs[1];
        durations = durs;
        n += 1;
        println!(
            "{:>7.1} {:>11.4}% {:>11.4}% {:>12}",
            theta.to_degrees(),
            100.0 * errs[0],
            100.0 * errs[1],
            if errs[1] < errs[0] {
                "direct"
            } else {
                "standard"
            }
        );
    }
    let mean_std = sum_err[0] / n as f64;
    let mean_dir = sum_err[1] / n as f64;
    println!(
        "\nmean infidelity: standard {:.4}%  direct {:.4}%  → {:.0}% lower error",
        100.0 * mean_std,
        100.0 * mean_dir,
        100.0 * (1.0 - mean_dir / mean_std)
    );
    println!(
        "rotation pulse duration: standard {} dt vs direct {} dt ({}x faster)",
        durations[0],
        durations[1],
        durations[0] as f64 / durations[1] as f64
    );
    println!("paper reference: 16% lower error on average, 2x faster");
    Ok(())
}
