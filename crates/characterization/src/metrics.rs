//! Distribution distances — the paper's top-level error metrics.
//!
//! The paper argues (§8.1) for **Hellinger distance** between the measured
//! and ideal outcome distributions as the right figure of merit for
//! near-term algorithms, rather than probability-of-success.

/// Hellinger distance
/// `H(p, q) = √(½·Σ (√pᵢ − √qᵢ)²)` ∈ [0, 1].
pub fn hellinger_distance(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    let s: f64 = p
        .iter()
        .zip(q)
        .map(|(a, b)| (a.max(0.0).sqrt() - b.max(0.0).sqrt()).powi(2))
        .sum();
    (s / 2.0).sqrt()
}

/// Hellinger fidelity `(1 − H²)²` — the complement metric quoted in the
/// paper's Fig. 10.
pub fn hellinger_fidelity(p: &[f64], q: &[f64]) -> f64 {
    let h2 = hellinger_distance(p, q).powi(2);
    (1.0 - h2).powi(2)
}

/// Normalizes counts into a probability distribution.
pub fn counts_to_distribution(counts: &[u64]) -> Vec<f64> {
    let total: u64 = counts.iter().sum();
    assert!(total > 0, "empty counts");
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_have_zero_distance() {
        let p = [0.25, 0.75];
        assert!(hellinger_distance(&p, &p) < 1e-12);
        assert!((hellinger_fidelity(&p, &p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn antipodal_distributions_have_distance_one() {
        let p = [1.0, 0.0];
        let q = [0.0, 1.0];
        assert!((hellinger_distance(&p, &q) - 1.0).abs() < 1e-12);
        assert!(hellinger_fidelity(&p, &q) < 1e-12);
    }

    #[test]
    fn hellinger_is_symmetric_and_bounded() {
        let p = [0.5, 0.3, 0.2, 0.0];
        let q = [0.1, 0.1, 0.4, 0.4];
        let h = hellinger_distance(&p, &q);
        assert!((h - hellinger_distance(&q, &p)).abs() < 1e-15);
        assert!((0.0..=1.0).contains(&h));
    }

    #[test]
    fn counts_normalize() {
        let d = counts_to_distribution(&[250, 750]);
        assert!((d[0] - 0.25).abs() < 1e-12);
        assert!((d[1] - 0.75).abs() < 1e-12);
    }
}
