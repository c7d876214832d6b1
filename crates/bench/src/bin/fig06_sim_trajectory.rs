//! Figure 6: *simulated* DirectRx(θ) trajectories.
//!
//! The calibrated X pulse is scaled down by 0/40, 1/40, …, 40/40 and the
//! final state's Bloch vector is computed noiselessly (no phase
//! correction applied — this experiment *characterizes* the dephasing the
//! correction will later cancel). The paper's observation: the trajectory
//! deviates slightly from the X = 0 meridian with a sinusoidal pattern,
//! vanishing at exactly 0°, 90° and 180°.

use quant_math::C64;
use quant_sim::StateVector;
use repro_bench::{ascii_series, Setup};

/// Bloch components at or below this are read as zero: at 180° what is
/// left is the tune-up's residual (~1e-11), whose sign is rounding noise
/// and would otherwise read as a zero crossing.
const NOISE_FLOOR: f64 = 1e-7;

fn main() {
    let setup = Setup::ideal(1, 606);
    let transmon = setup.device.transmon_cal(0);
    let base = setup.calibration.qubit(0).rx180_waveform("x");

    println!("Figure 6 — simulated DirectRx(θ): Bloch components of scaled X pulses\n");
    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>11}",
        "scale", "⟨X⟩", "⟨Y⟩", "⟨Z⟩", "X-deviation"
    );
    let mut scales = Vec::new();
    let mut xs = Vec::new();
    let mut max_dev = 0.0_f64;
    for i in 0..=40 {
        let s = i as f64 / 40.0;
        let (x, y, z) = if i == 0 {
            (0.0, 0.0, 1.0)
        } else {
            let u = transmon.integrate_waveform(&base.scaled(s)).unitary;
            let amps: Vec<C64> = (0..3).map(|r| u[(r, 0)]).collect();
            let psi = StateVector::from_amplitudes(&[3], amps);
            let (x, y, z) = psi.bloch(0);
            let floor = |v: f64| if v.abs() <= NOISE_FLOOR { 0.0 } else { v };
            (floor(x), floor(y), floor(z))
        };
        println!("{s:>6.3} {x:>9.5} {y:>9.5} {z:>9.5} {x:>11.5}");
        scales.push(s * 180.0);
        xs.push(x);
        max_dev = max_dev.max(x.abs());
    }
    let range = max_dev.max(1e-4);
    println!(
        "\n{}",
        ascii_series(
            "X-deviation from the meridian vs θ (degrees):",
            &scales,
            &xs,
            (-range, range)
        )
    );
    // Count sign changes — a sinusoidal pattern crosses zero in the middle.
    let crossings = xs
        .windows(2)
        .filter(|w| w[0].signum() != w[1].signum() && w[0].abs() > NOISE_FLOOR)
        .count();
    println!("max |X-deviation| = {max_dev:.5}, zero crossings: {crossings}");
    println!("paper reference: small sinusoidal deviation, zero at 0°/90°/180°");
}
