//! Order statistics and checksums shared by every workload.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts a copy of `values` ascending (total order, so NaN cannot panic).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Interquartile range with the first and third quartiles taken as
/// Python's `statistics.quantiles(values, n=4)` gives them (the
/// "exclusive" method), so spreads printed here match ones computed with
/// Python's `statistics` module. `None` below two samples.
pub fn iqr(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let quartile = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(quartile(3) - quartile(1))
}

/// Geometric mean of positive values (`None` when empty).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a fold of one `u64` word (the same hash the corpus checksums use).
pub fn fnv(h: u64, word: u64) -> u64 {
    let mut h = h;
    for byte in word.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        // Ten samples: p95 rounds up to the tenth.
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&w, 95.0), Some(10.0));
        assert_eq!(percentile(&w, 50.0), Some(5.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr(&v).unwrap_or(f64::NAN) - 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert!((iqr(&[3.0, 1.0, 4.0, 1.0, 5.0]).unwrap_or(f64::NAN) - 3.5).abs() < 1e-12);
        // statistics.quantiles([2, 8], n=4) == [0.5, 5.0, 9.5]
        assert!((iqr(&[2.0, 8.0]).unwrap_or(f64::NAN) - 9.0).abs() < 1e-12);
        assert_eq!(iqr(&[1.0]), None);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert!((geomean(&[1.0, 4.0]).unwrap_or(f64::NAN) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
    }
}
