//! Plain wall-clock timing for the perf suite.

use std::time::Instant;

/// Times one run of `f`, returning (result, wall-clock milliseconds).
fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Times `runs` runs of `f` (at least one), returning the last result and
/// the fastest wall-clock (milliseconds). The minimum is the standard
/// noise-robust statistic on shared/virtualized machines, where the mean
/// absorbs scheduler interference.
pub fn time_best<T>(runs: u32, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut out, mut best) = time_once(&mut f);
    for _ in 1..runs {
        let (v, ms) = time_once(&mut f);
        best = best.min(ms);
        out = v;
    }
    (out, best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_returns_result() {
        let (v, ms) = time_once(|| 42);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }
}
