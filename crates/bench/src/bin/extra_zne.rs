//! Extension experiment: pulse-stretch zero-noise extrapolation.
//!
//! The paper cites Garmon et al. (its ref. \[8\]) as the one prior use of
//! OpenPulse: *noise extrapolation*. The technique is pure pulse
//! arithmetic — stretch every pulse by λ ≥ 1 (recalibrating amplitudes so
//! the gates stay correct), measure an observable at several λ, and
//! Richardson-extrapolate to the zero-noise point λ → 0. Our calibration
//! already parameterizes pulse durations, so the whole experiment drops
//! out of existing machinery.
//!
//! Observable: the H₂ VQE energy at the optimal ansatz angle.
//!
//! ```text
//! cargo run --release -p repro-bench --bin extra_zne
//! ```

use quant_algos::{group_commuting, molecules, vqe};
use quant_char::{counts_to_distribution, Mitigator};
use quant_corpus::{run_circuit, PipelineConfig, PipelineError};
use quant_device::{Calibration, CalibrationOptions, DeviceModel, ShotPool};
use quant_math::{linear_least_squares, seeded, stream_seed};

/// Measures ⟨H⟩ with everything stretched by λ.
fn energy_at_stretch(
    device: &DeviceModel,
    lambda: f64,
    theta: f64,
    shots: usize,
    seed: u64,
) -> Result<f64, PipelineError> {
    // Recalibrate with stretched single-qubit pulses; CR pulses stretch
    // through their σ and the re-solved flat-top width.
    let base = CalibrationOptions::default();
    let opts = CalibrationOptions {
        pulse_duration: (base.pulse_duration as f64 * lambda).round() as u64,
        pulse_sigma: base.pulse_sigma * lambda,
        cr_sigma: base.cr_sigma * lambda,
        cr_amp: base.cr_amp / lambda, // slower CR rate → longer flat top
        ..base
    };
    let calibration = Calibration::run(device, &opts, &mut seeded(seed));
    // Readout mitigation (λ-independent, as in any real ZNE experiment —
    // extrapolation only removes noise that scales with the stretch).
    let mitigator = Mitigator::from_calibration(
        &[device.readout(0).p1_given_0, device.readout(1).p1_given_0],
        &[device.readout(0).p0_given_1, device.readout(1).p0_given_1],
    );

    let h = molecules::h2().hamiltonian;
    let identity: f64 = h
        .terms()
        .iter()
        .filter(|t| t.support().is_empty())
        .map(|t| t.coeff)
        .sum();
    let mut energy = identity;
    for (g, group) in group_commuting(&h).iter().enumerate() {
        let mut c = vqe::ucc_ansatz(theta);
        group.append_measurement_basis(&mut c);
        let config = PipelineConfig {
            shots,
            seed: stream_seed(seed, g as u64),
            ..PipelineConfig::default()
        };
        let run = run_circuit(device, &calibration, &c, &config, &ShotPool::from_env())?;
        let probs = mitigator.mitigate(&counts_to_distribution(&run.counts));
        energy += group.expectation_from_distribution(&probs);
    }
    Ok(energy)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = seeded(777);
    let device = DeviceModel::almaden_like(2, &mut rng);
    let h = molecules::h2().hamiltonian;
    let solved = vqe::solve(&h);
    let exact = h.ground_energy();
    let shots = 60_000;

    println!("Zero-noise extrapolation by pulse stretching (H2 VQE energy)\n");
    println!("exact ground energy: {exact:+.5} Ha\n");
    println!("{:>8} {:>14} {:>12}", "λ", "E(λ) [Ha]", "error [mHa]");

    let lambdas = [1.0, 1.5, 2.0, 2.5, 3.0];
    let mut energies = Vec::new();
    for &lambda in lambdas.iter() {
        // Same seed at every λ: the calibration residuals represent one
        // device state, and only the stretch varies.
        let e = energy_at_stretch(&device, lambda, solved.theta, shots, 9_000)?;
        energies.push(e);
        println!("{lambda:>8.2} {e:>+14.5} {:>+12.2}", 1000.0 * (e - exact));
    }

    // Richardson (linear) extrapolation to λ = 0.
    let design: Vec<Vec<f64>> = lambdas.iter().map(|&l| vec![l, 1.0]).collect();
    let beta = linear_least_squares(&design, &energies).ok_or("singular extrapolation fit")?;
    let extrapolated = beta[1];
    println!(
        "\nlinear extrapolation to λ = 0: {extrapolated:+.5} Ha ({:+.2} mHa from exact)",
        1000.0 * (extrapolated - exact)
    );
    println!(
        "raw λ = 1 error was {:+.2} mHa; the extrapolation removes the \
         duration-scaled (decoherence) component. The remainder is the \
         λ-independent floor — SPAM and coherent calibration error — which \
         no stretch-based extrapolation can see.",
        1000.0 * (energies[0] - exact)
    );
    Ok(())
}
