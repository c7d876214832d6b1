//! Seeded randomness helpers shared across the workspace.
//!
//! Every stochastic component (shot sampling, calibration drift, RB sequence
//! generation) takes an explicit RNG so experiments are reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a deterministic RNG from a 64-bit seed.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives the seed of an independent per-task RNG stream from a root seed
/// and a task index.
///
/// Parallel fan-outs (per-qubit calibration tasks, sweep points) give every
/// task its own stream, `seeded(stream_seed(root, index))`, so results are
/// bit-identical at any thread count: the stream a task draws from depends
/// only on its index, never on which worker ran it or in what order. The
/// mixing is a SplitMix64 finalizer over `root ^ index·φ64` (the 64-bit
/// golden-ratio increment), so adjacent indices — which differ in a couple
/// of low bits — land on statistically unrelated seeds instead of the
/// correlated key-space a plain `root ^ index` would produce.
pub fn stream_seed(root: u64, index: u64) -> u64 {
    let mut z = root ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws one sample from a normal distribution `N(mu, sigma²)` with the
/// Box–Muller transform (we avoid the `rand_distr` dependency).
pub fn normal(rng: &mut impl Rng, mu: f64, sigma: f64) -> f64 {
    // Rejection-free polar Box–Muller.
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            let factor = (-2.0 * s.ln() / s).sqrt();
            return mu + sigma * u * factor;
        }
    }
}

/// Draws one sample from an index-weighted categorical distribution.
///
/// `weights` need not be normalized but must be non-negative with a positive
/// sum.
pub fn categorical(rng: &mut impl Rng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(
        total > 0.0 && total.is_finite(),
        "categorical weights must have positive finite sum (got {total})"
    );
    let mut draw = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if draw < w {
            return i;
        }
        draw -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..10 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn stream_seeds_are_deterministic_and_spread() {
        assert_eq!(stream_seed(42, 3), stream_seed(42, 3));
        // Adjacent indices and adjacent roots must land far apart — the
        // finalizer avalanches, so no two of these collide.
        let mut seen = std::collections::HashSet::new();
        for root in [0u64, 1, 42, u64::MAX] {
            for index in 0..32u64 {
                assert!(seen.insert(stream_seed(root, index)));
            }
        }
        // Streams from adjacent indices are unrelated, not shifted copies.
        let mut a = seeded(stream_seed(7, 0));
        let mut b = seeded(stream_seed(7, 1));
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn normal_moments() {
        let mut rng = seeded(7);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 9.0).abs() < 0.3, "var = {var}");
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = seeded(11);
        let weights = [1.0, 3.0, 0.0, 6.0];
        let mut counts = [0u64; 4];
        for _ in 0..100_000 {
            counts[categorical(&mut rng, &weights)] += 1;
        }
        assert_eq!(counts[2], 0);
        let ratio = counts[3] as f64 / counts[1] as f64;
        assert!((ratio - 2.0).abs() < 0.1, "ratio = {ratio}");
    }

    #[test]
    #[should_panic(expected = "positive finite sum")]
    fn categorical_rejects_zero_weights() {
        let mut rng = seeded(1);
        categorical(&mut rng, &[0.0, 0.0]);
    }
}
