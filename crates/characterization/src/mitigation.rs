//! Measurement-error mitigation by calibration-matrix inversion.
//!
//! The paper corrects biased readout (§2.4) with the classical
//! post-processing of Maciejewski et al. / Chen et al.: measure the
//! confusion matrix by preparing each basis state, then apply its inverse
//! to measured distributions (with clipping back onto the simplex).

use quant_math::CMat;

/// A measurement-error mitigator for `n` qubits with a tensor-product
/// confusion model.
#[derive(Clone, Debug)]
pub struct Mitigator {
    /// Per-qubit confusion matrices `M[measured][prepared]`.
    per_qubit: Vec<[[f64; 2]; 2]>,
}

impl Mitigator {
    /// Builds a mitigator from per-qubit confusion matrices.
    pub fn new(per_qubit: Vec<[[f64; 2]; 2]>) -> Self {
        for m in &per_qubit {
            for (&m0, &m1) in m[0].iter().zip(&m[1]) {
                assert!(
                    (m0 + m1 - 1.0).abs() < 1e-9,
                    "confusion matrix columns must sum to 1"
                );
            }
        }
        Mitigator { per_qubit }
    }

    /// Estimates per-qubit confusion matrices from calibration runs: for
    /// each qubit, the measured P(1 | prepared 0) and P(0 | prepared 1).
    pub fn from_calibration(p1_given_0: &[f64], p0_given_1: &[f64]) -> Self {
        assert_eq!(p1_given_0.len(), p0_given_1.len());
        let per_qubit = p1_given_0
            .iter()
            .zip(p0_given_1)
            .map(|(&e0, &e1)| [[1.0 - e0, e1], [e0, 1.0 - e1]])
            .collect();
        Mitigator::new(per_qubit)
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.per_qubit.len()
    }

    /// Mitigates a measured distribution: applies each per-qubit inverse
    /// and projects back onto the probability simplex (clip + renormalize).
    pub fn mitigate(&self, measured: &[f64]) -> Vec<f64> {
        let n = self.num_qubits();
        assert_eq!(measured.len(), 1 << n, "distribution size mismatch");
        let mut cur = measured.to_vec();
        for (q, m) in self.per_qubit.iter().enumerate() {
            let mat = CMat::from_real_rows(&[&[m[0][0], m[0][1]], &[m[1][0], m[1][1]]]);
            let inv = mat.inverse().expect("confusion matrix must be invertible");
            let mut next = vec![0.0; cur.len()];
            for (i, &p) in cur.iter().enumerate() {
                let bit = (i >> q) & 1;
                for prepared in 0..2 {
                    let j = (i & !(1 << q)) | (prepared << q);
                    next[j] += p * inv[(prepared, bit)].re;
                }
            }
            cur = next;
        }
        // Project to the simplex.
        let mut clipped: Vec<f64> = cur.into_iter().map(|p| p.max(0.0)).collect();
        let total: f64 = clipped.iter().sum();
        if total > 0.0 {
            for p in &mut clipped {
                *p /= total;
            }
        }
        clipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Applies the *forward* confusion model of `m` to an ideal
    /// distribution.
    fn apply_forward(m: &Mitigator, probs: &[f64]) -> Vec<f64> {
        let n = m.num_qubits();
        assert_eq!(probs.len(), 1 << n);
        let mut cur = probs.to_vec();
        for (q, conf) in m.per_qubit.iter().enumerate() {
            let mut next = vec![0.0; cur.len()];
            for (i, &p) in cur.iter().enumerate() {
                let bit = (i >> q) & 1;
                for (meas, row) in conf.iter().enumerate() {
                    let j = (i & !(1 << q)) | (meas << q);
                    next[j] += p * row[bit];
                }
            }
            cur = next;
        }
        cur
    }

    fn mitigator2() -> Mitigator {
        Mitigator::from_calibration(&[0.02, 0.03], &[0.06, 0.05])
    }

    #[test]
    fn forward_then_mitigate_recovers_ideal() {
        let m = mitigator2();
        let ideal = [0.5, 0.0, 0.0, 0.5];
        let noisy = apply_forward(&m, &ideal);
        assert!(noisy[0] < 0.5, "forward model must mix");
        let recovered = m.mitigate(&noisy);
        for (a, b) in ideal.iter().zip(&recovered) {
            assert!((a - b).abs() < 1e-9, "{recovered:?}");
        }
    }

    #[test]
    fn mitigation_output_is_a_distribution() {
        let m = mitigator2();
        // A noisy empirical distribution (not exactly in the model's
        // image) still maps to a valid distribution.
        let measured = [0.47, 0.04, 0.03, 0.46];
        let out = m.mitigate(&measured);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(out.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn mitigation_reduces_hellinger_error() {
        let m = mitigator2();
        let ideal = [0.125, 0.375, 0.375, 0.125];
        let noisy = apply_forward(&m, &ideal);
        let h_before = crate::metrics::hellinger_distance(&ideal, &noisy);
        let h_after = crate::metrics::hellinger_distance(&ideal, &m.mitigate(&noisy));
        assert!(h_after < h_before * 0.05, "{h_before} → {h_after}");
    }

    #[test]
    #[should_panic(expected = "columns must sum")]
    fn rejects_invalid_confusion() {
        Mitigator::new(vec![[[0.9, 0.0], [0.2, 1.0]]]);
    }
}
