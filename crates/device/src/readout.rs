//! Measurement: confusion-matrix readout error and IQ-plane simulation.
//!
//! Qubit measurements pass the true outcome distribution through each
//! qubit's asymmetric confusion matrix (Almaden's mean 3.8 % assignment
//! error, biased towards reading 0 by relaxation during the measurement
//! window). Qutrit experiments additionally get simulated readout-resonator
//! IQ points — Gaussian clouds per level, as in the paper's Fig. 11 left
//! panel — which the characterization crate's linear discriminant
//! classifies.

use crate::params::ReadoutParams;
use quant_math::normal;
use rand::Rng;

/// Passes a distribution over `2^n` outcomes through per-qubit confusion
/// matrices. `probs[i]`'s bit `q` (little-endian) is qubit `q`'s outcome.
pub fn apply_confusion(probs: &[f64], readouts: &[ReadoutParams]) -> Vec<f64> {
    let n = readouts.len();
    assert_eq!(probs.len(), 1 << n, "distribution size mismatch");
    let mut current = probs.to_vec();
    for (q, r) in readouts.iter().enumerate() {
        let m = r.confusion();
        let mut next = vec![0.0; current.len()];
        for (i, &p) in current.iter().enumerate() {
            // opclint: allow(float-literal-eq): exact skip — entries still at their initialized 0.0 carry no probability mass
            if p == 0.0 {
                continue;
            }
            let bit = (i >> q) & 1;
            for (measured, row) in m.iter().enumerate() {
                let j = (i & !(1 << q)) | (measured << q);
                next[j] += p * row[bit];
            }
        }
        current = next;
    }
    current
}

/// Samples one IQ point from the cloud of a given level.
pub fn sample_iq(r: &ReadoutParams, level: usize, rng: &mut impl Rng) -> (f64, f64) {
    let c = match level {
        0 => r.iq0,
        1 => r.iq1,
        2 => r.iq2,
        _ => panic!("IQ model supports levels 0–2, got {level}"),
    };
    (normal(rng, c.0, r.iq_sigma), normal(rng, c.1, r.iq_sigma))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-centroid classification (equal isotropic covariance ⇒ identical
    /// to the pooled-covariance LDA decision rule).
    fn classify_nearest(p: (f64, f64), centroids: &[(f64, f64)]) -> usize {
        let mut best = (0, f64::INFINITY);
        for (k, &c) in centroids.iter().enumerate() {
            let d = (p.0 - c.0).powi(2) + (p.1 - c.1).powi(2);
            if d < best.1 {
                best = (k, d);
            }
        }
        best.0
    }

    fn readout() -> ReadoutParams {
        ReadoutParams::almaden_like()
    }

    #[test]
    fn confusion_preserves_total_probability() {
        let probs = vec![0.1, 0.2, 0.3, 0.4];
        let out = apply_confusion(&probs, &[readout(), readout()]);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn confusion_mixes_towards_bias() {
        // A pure |11⟩ state should leak weight towards |01⟩/|10⟩/|00⟩,
        // more than a pure |00⟩ leaks upward (p0_given_1 > p1_given_0).
        let pure11 = apply_confusion(&[0.0, 0.0, 0.0, 1.0], &[readout(), readout()]);
        let pure00 = apply_confusion(&[1.0, 0.0, 0.0, 0.0], &[readout(), readout()]);
        assert!(pure11[3] < 1.0 && pure11[3] > 0.85);
        assert!(pure00[0] > pure11[3], "readout is biased towards 0");
    }

    #[test]
    fn confusion_identity_when_perfect() {
        let perfect = ReadoutParams {
            p1_given_0: 0.0,
            p0_given_1: 0.0,
            ..readout()
        };
        let probs = vec![0.25, 0.25, 0.25, 0.25];
        let out = apply_confusion(&probs, &[perfect, perfect]);
        for (a, b) in probs.iter().zip(&out) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn iq_clouds_are_separable() {
        // Nearest-centroid assignment of sampled IQ points recovers each
        // level more than 90 % of the time.
        let r = readout();
        let mut rng = quant_math::seeded(21);
        let centroids = [r.iq0, r.iq1, r.iq2];
        for level in 0..3 {
            let hits = (0..20_000)
                .filter(|_| classify_nearest(sample_iq(&r, level, &mut rng), &centroids) == level)
                .count();
            let fidelity = hits as f64 / 20_000.0;
            assert!(
                fidelity > 0.9,
                "level {level} assignment fidelity {fidelity}"
            );
        }
    }

    #[test]
    fn classify_nearest_basics() {
        let cents = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)];
        assert_eq!(classify_nearest((0.1, 0.1), &cents), 0);
        assert_eq!(classify_nearest((1.9, -0.2), &cents), 1);
        assert_eq!(classify_nearest((0.2, 1.8), &cents), 2);
    }
}
