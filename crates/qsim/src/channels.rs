//! Standard Kraus channels for the noise model.
//!
//! The device simulator composes these per scheduled pulse: thermal
//! relaxation scaled by pulse duration (§8.3 source 1 — shorter pulses
//! decohere less), a coherent error channel carrying residual calibration
//! error (source 2), and a leakage channel whose strength grows with pulse
//! amplitude (source 3).

use quant_math::{CMat, C64};

/// Amplitude damping with decay probability `gamma`: |1⟩ relaxes to |0⟩.
pub fn amplitude_damping(gamma: f64) -> Vec<CMat> {
    assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0, 1]");
    let k0 = CMat::from_real_rows(&[&[1.0, 0.0], &[0.0, (1.0 - gamma).sqrt()]]);
    let k1 = CMat::from_real_rows(&[&[0.0, gamma.sqrt()], &[0.0, 0.0]]);
    vec![k0, k1]
}

/// Phase damping with dephasing probability `lambda`.
pub fn phase_damping(lambda: f64) -> Vec<CMat> {
    assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0, 1]");
    let k0 = CMat::from_real_rows(&[&[1.0, 0.0], &[0.0, (1.0 - lambda).sqrt()]]);
    let k1 = CMat::from_real_rows(&[&[0.0, 0.0], &[0.0, lambda.sqrt()]]);
    vec![k0, k1]
}

/// Single-qubit depolarizing channel with error probability `p`.
pub fn depolarizing(p: f64) -> Vec<CMat> {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
    let x = CMat::from_real_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
    let y = CMat::from_rows(&[&[C64::ZERO, C64::imag(-1.0)], &[C64::imag(1.0), C64::ZERO]]);
    let z = CMat::from_real_rows(&[&[1.0, 0.0], &[0.0, -1.0]]);
    vec![
        CMat::identity(2).scale(C64::real((1.0 - 3.0 * p / 4.0).sqrt())),
        x.scale(C64::real((p / 4.0).sqrt())),
        y.scale(C64::real((p / 4.0).sqrt())),
        z.scale(C64::real((p / 4.0).sqrt())),
    ]
}

/// Thermal relaxation over duration `t` (same units as `t1`, `t2`):
/// amplitude damping at rate `1/T1` composed with pure dephasing so the
/// total coherence decay matches `1/T2`.
///
/// Requires the physical condition `T2 ≤ 2·T1`.
pub fn thermal_relaxation(t: f64, t1: f64, t2: f64) -> Vec<Vec<CMat>> {
    assert!(t >= 0.0 && t1 > 0.0 && t2 > 0.0, "times must be positive");
    assert!(t2 <= 2.0 * t1 + 1e-9, "unphysical T2 > 2·T1");
    let gamma = 1.0 - (-t / t1).exp();
    // Pure-dephasing rate: 1/Tφ = 1/T2 − 1/(2T1).
    let inv_tphi = (1.0 / t2 - 1.0 / (2.0 * t1)).max(0.0);
    let lambda = 1.0 - (-2.0 * t * inv_tphi).exp();
    vec![amplitude_damping(gamma), phase_damping(lambda)]
}

/// Composes sequential Kraus channels into one equivalent channel:
/// applying `stages[0]` then `stages[1]` … equals applying the returned
/// set once (`K = Kₙ···K₁` over every stage-operator choice). Products
/// that are exactly zero carry no weight and are dropped.
pub fn compose(stages: &[Vec<CMat>]) -> Vec<CMat> {
    assert!(!stages.is_empty(), "need at least one stage");
    let mut acc = stages[0].clone();
    for stage in &stages[1..] {
        let mut next = Vec::with_capacity(acc.len() * stage.len());
        for later in stage {
            for earlier in &acc {
                let product = later * earlier;
                if product.as_slice().iter().any(|z| *z != C64::ZERO) {
                    next.push(product);
                }
            }
        }
        assert!(!next.is_empty(), "composed channel lost all weight");
        acc = next;
    }
    acc
}

/// [`thermal_relaxation`] composed into a single Kraus set — one channel
/// application per (qubit, duration) instead of one per stage. The hot
/// executor path memoizes this per distinct duration.
pub fn thermal_relaxation_kraus(t: f64, t1: f64, t2: f64) -> Vec<CMat> {
    compose(&thermal_relaxation(t, t1, t2))
}

/// A purely coherent error channel: the single Kraus operator `U`.
pub fn coherent(u: CMat) -> Vec<CMat> {
    debug_assert!(u.is_unitary(1e-8), "coherent error must be unitary");
    vec![u]
}

/// Qutrit relaxation ladder: |2⟩→|1⟩ with probability `g21` and |1⟩→|0⟩
/// with probability `g10`, in one step (sequential two-level amplitude
/// damping on each rung).
pub fn qutrit_relaxation(g10: f64, g21: f64) -> Vec<CMat> {
    assert!((0.0..=1.0).contains(&g10) && (0.0..=1.0).contains(&g21));
    // Kraus set for the two independent decay processes combined:
    // K0 = diag(1, √(1-g10), √(1-g21)), K1 = √g10 |0⟩⟨1|, K2 = √g21 |1⟩⟨2|.
    let k0 = CMat::diag(&[
        C64::ONE,
        C64::real((1.0 - g10).sqrt()),
        C64::real((1.0 - g21).sqrt()),
    ]);
    let mut k1 = CMat::zeros(3, 3);
    k1[(0, 1)] = C64::real(g10.sqrt());
    let mut k2 = CMat::zeros(3, 3);
    k2[(1, 2)] = C64::real(g21.sqrt());
    vec![k0, k1, k2]
}

/// Qutrit dephasing: phase damping on both the 0–1 and 0–2 coherences.
pub fn qutrit_dephasing(lambda: f64) -> Vec<CMat> {
    assert!((0.0..=1.0).contains(&lambda));
    let keep = (1.0 - lambda).sqrt();
    let k0 = CMat::diag(&[C64::ONE, C64::real(keep), C64::real(keep)]);
    let mut k1 = CMat::zeros(3, 3);
    k1[(1, 1)] = C64::real(lambda.sqrt());
    let mut k2 = CMat::zeros(3, 3);
    k2[(2, 2)] = C64::real(lambda.sqrt());
    vec![k0, k1, k2]
}

/// Verifies the Kraus completeness relation `Σ K†K = I` to tolerance.
pub fn is_trace_preserving(kraus: &[CMat], tol: f64) -> bool {
    if kraus.is_empty() {
        return false;
    }
    let n = kraus[0].rows();
    let mut sum = CMat::zeros(n, n);
    for k in kraus {
        sum = &sum + &(&k.dagger() * k);
    }
    sum.max_abs_diff(&CMat::identity(n)) <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_channels_trace_preserving() {
        assert!(is_trace_preserving(&amplitude_damping(0.3), 1e-10));
        assert!(is_trace_preserving(&phase_damping(0.7), 1e-10));
        assert!(is_trace_preserving(&depolarizing(0.25), 1e-10));
        assert!(is_trace_preserving(&qutrit_relaxation(0.2, 0.4), 1e-10));
        assert!(is_trace_preserving(&qutrit_dephasing(0.5), 1e-10));
        for stage in thermal_relaxation(10.0, 94_000.0, 88_000.0) {
            assert!(is_trace_preserving(&stage, 1e-10));
        }
    }

    #[test]
    fn thermal_relaxation_limits() {
        // t = 0 → identity channel.
        let stages = thermal_relaxation(0.0, 100.0, 80.0);
        for stage in &stages {
            // First Kraus op should be I, others zero.
            assert!(stage[0].max_abs_diff(&CMat::identity(2)) < 1e-10);
        }
        // Very long t → gamma ≈ 1.
        let stages = thermal_relaxation(1e6, 100.0, 80.0);
        assert!((stages[0][1][(0, 1)].re - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "unphysical")]
    fn rejects_t2_beyond_twice_t1() {
        thermal_relaxation(1.0, 10.0, 25.0);
    }

    #[test]
    fn composed_thermal_relaxation_matches_stages() {
        use crate::gates;
        use crate::DensityMatrix;
        let (t, t1, t2) = (37.0, 94_000.0, 71_000.0);
        let composed = thermal_relaxation_kraus(t, t1, t2);
        assert!(is_trace_preserving(&composed, 1e-10));
        // Same state through per-stage and composed application.
        let mut staged = DensityMatrix::zero_qubits(2);
        staged.apply_unitary(&gates::h(), &[0]);
        staged.apply_unitary(&gates::cnot(), &[0, 1]);
        let mut one_shot = staged.clone();
        for stage in thermal_relaxation(t, t1, t2) {
            staged.apply_kraus(&stage, &[1]);
        }
        one_shot.apply_kraus(&composed, &[1]);
        assert!(staged.matrix().max_abs_diff(one_shot.matrix()) < 1e-12);
    }

    #[test]
    fn compose_drops_zero_products() {
        // t = 0 amplitude damping has an all-zero K1; the composition of
        // two identity-like stages must not keep 2×2 = 4 operators.
        let stages = thermal_relaxation(0.0, 100.0, 80.0);
        let composed = compose(&stages);
        assert_eq!(composed.len(), 1, "zero-weight products must be dropped");
        assert!(composed[0].max_abs_diff(&CMat::identity(2)) < 1e-12);
    }

    #[test]
    fn depolarizing_extremes() {
        // p = 0 → only the identity Kraus op has weight.
        let k = depolarizing(0.0);
        assert!(k[0].max_abs_diff(&CMat::identity(2)) < 1e-12);
        assert!(k[1].frobenius_norm() < 1e-12);
    }
}
