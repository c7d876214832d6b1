//! The waveform norm check and peak against a `hypot`-per-sample oracle.
//!
//! `Waveform::new` skips `hypot` for every sample whose `re² + im²` is at
//! most 1 and takes it only for the samples near the largest. This suite
//! pins that shortcut to the full pass it replaces: the same
//! `peak().to_bits()` for every accepted envelope, and for a rejected one
//! the same panic — same sample index, same message. The cases aim at the
//! edges of the argument: samples within a few ulp of `|d| = 1` and of
//! `1 + 1e-9`, equal magnitudes at different phases, long flat tops, zero,
//! tiny and subnormal envelopes, NaN and ±inf.

use quant_math::{seeded, C64};
use quant_pulse::{Constant, GaussianSquare, Waveform};
use rand::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// The check as a full pass: `hypot` on every sample, in index order.
fn oracle(name: &str, samples: &[C64]) -> Result<u64, String> {
    let mut peak = 0.0_f64;
    for (i, s) in samples.iter().enumerate() {
        let a = s.abs();
        if a > 1.0 + 1e-9 || a.is_nan() {
            return Err(format!(
                "waveform '{name}' sample {i} violates |d(t)| ≤ 1: {a}"
            ));
        }
        peak = peak.max(a);
    }
    Ok(peak.to_bits())
}

/// `Waveform::new`'s peak bits, or its panic message.
fn actual(name: &str, samples: &[C64]) -> Result<u64, String> {
    quiet_check_panics();
    catch_unwind(AssertUnwindSafe(|| {
        Waveform::new(name, samples.to_vec()).peak().to_bits()
    }))
    .map_err(|payload| match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(_) => "non-string panic payload".to_string(),
    })
}

/// Keeps the expected norm-check panics out of the test output; every
/// other panic still reaches the default hook.
fn quiet_check_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let ours = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("waveform 'case' sample "));
            if !ours {
                default(info);
            }
        }));
    });
}

fn assert_matches(samples: &[C64], what: &str) -> Result<u64, String> {
    let want = oracle("case", samples);
    let got = actual("case", samples);
    assert_eq!(got, want, "{what}: {} samples", samples.len());
    got
}

/// `x` moved by `k` ulp (toward +inf for k > 0).
fn ulps(x: f64, k: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + k) as u64)
}

#[test]
fn random_envelopes_match_the_full_pass() {
    let mut rng = seeded(0x5eed_0001);
    for case in 0..400 {
        let n = rng.gen_range(1usize..300);
        let radius = rng.gen_range(0.0..1.0);
        let samples: Vec<C64> = (0..n)
            .map(|_| {
                let r = radius * rng.gen_range(0.0..1.0);
                C64::from_polar(r, rng.gen_range(-3.2..3.2))
            })
            .collect();
        assert!(assert_matches(&samples, &format!("random case {case}")).is_ok());
    }
}

#[test]
fn samples_at_the_unit_circle_and_the_bound_match_the_full_pass() {
    let mut rng = seeded(0x5eed_0002);
    let bound = 1.0 + 1e-9;
    let mut rejected = 0;
    for radius in [1.0, bound] {
        for k in -4..=4 {
            let r = ulps(radius, k);
            // Axis-aligned, where `re² + im²` is one rounded square.
            for s in [
                C64::real(r),
                C64::real(-r),
                C64::new(0.0, r),
                C64::new(-0.0, -r),
            ] {
                let samples = vec![C64::real(0.5), s, C64::real(0.25)];
                rejected += assert_matches(&samples, &format!("axis r={r:e}")).is_err() as usize;
            }
            // Off-axis at random phases, where both squares round.
            for _ in 0..64 {
                let s = C64::from_polar(r, rng.gen_range(-3.2..3.2));
                let samples = vec![C64::real(0.1), s, s.conj(), C64::ZERO];
                rejected += assert_matches(&samples, &format!("polar r={r:e}")).is_err() as usize;
            }
        }
    }
    // The cases straddle the bound: both outcomes are exercised.
    assert!(rejected > 0, "no case beyond 1 + 1e-9");
}

#[test]
fn equal_magnitudes_at_different_phases_keep_the_exact_peak() {
    let mut rng = seeded(0x5eed_0003);
    for case in 0..200 {
        let r = rng.gen_range(0.0..1.0);
        let n = rng.gen_range(2usize..64);
        let samples: Vec<C64> = (0..n)
            .map(|_| C64::from_polar(r, rng.gen_range(-3.2..3.2)))
            .collect();
        assert!(assert_matches(&samples, &format!("phase case {case}")).is_ok());
        // And a few ulp apart in magnitude.
        let samples: Vec<C64> = (0..n)
            .map(|k| C64::from_polar(ulps(r, k as i64 % 5 - 2), 0.37 * k as f64))
            .collect();
        assert!(assert_matches(&samples, &format!("ulp case {case}")).is_ok());
    }
}

#[test]
fn long_flat_tops_keep_the_exact_peak() {
    let mut rng = seeded(0x5eed_0004);
    for case in 0..40 {
        let sigma = rng.gen_range(4.0..24.0);
        let width = rng.gen_range(0u64..20_000);
        let pulse = GaussianSquare {
            duration: (8.0 * sigma) as u64 + width,
            amp: rng.gen_range(-1.0..1.0),
            sigma,
            width,
        };
        let w = pulse.waveform("w");
        assert!(assert_matches(w.samples(), &format!("flat-top case {case}")).is_ok());
        let rotated = w.scaled_complex(C64::cis(rng.gen_range(-3.2..3.2)));
        assert!(assert_matches(rotated.samples(), &format!("rotated case {case}")).is_ok());
    }
    let constant = Constant {
        duration: 50_000,
        amp: 1.0,
    };
    assert!(assert_matches(constant.waveform("c").samples(), "unit constant").is_ok());
}

#[test]
fn zero_tiny_and_subnormal_envelopes_keep_the_exact_peak() {
    let tiny = [
        1e-150,
        1.5e-154,
        1e-160,
        f64::MIN_POSITIVE,
        1e-310,
        f64::from_bits(1),
        0.0,
        -0.0,
    ];
    assert_eq!(assert_matches(&[], "empty"), Ok(0.0_f64.to_bits()));
    assert_eq!(
        assert_matches(&[C64::ZERO; 64], "all zero"),
        Ok(0.0_f64.to_bits())
    );
    for &a in &tiny {
        for &b in &tiny {
            let samples = vec![C64::new(a, b), C64::new(b, -a), C64::real(a), C64::ZERO];
            let got = assert_matches(&samples, &format!("tiny ({a:e}, {b:e})"));
            // A nonzero tiny envelope has a nonzero peak.
            if a != 0.0 || b != 0.0 {
                assert_ne!(got, Ok(0.0_f64.to_bits()), "({a:e}, {b:e})");
            }
        }
    }
    // Tiny samples beside a normal maximum, and a normal maximum whose
    // square is barely normal.
    let mut rng = seeded(0x5eed_0005);
    for case in 0..200 {
        let scale = [1e-3, 1e-100, 1.5e-154, 1e-153][case % 4];
        let samples: Vec<C64> = (0..32)
            .map(|_| {
                let t = tiny[rng.gen_range(0usize..tiny.len())];
                if rng.gen_range(0.0..1.0) < 0.5 {
                    C64::new(t, -t)
                } else {
                    C64::from_polar(scale * rng.gen_range(0.5..1.0), rng.gen_range(-3.2..3.2))
                }
            })
            .collect();
        assert!(assert_matches(&samples, &format!("mixed case {case}")).is_ok());
    }
    // Near-equal magnitudes whose squares are subnormal: each square rounds
    // to a multiple of 2⁻¹⁰⁷⁴, so `re² + im²` can rank two samples
    // opposite to their `hypot`s.
    for case in 0..400 {
        let r = [1e-161, 3e-162, 2e-162, 1e-162][case % 4];
        let samples: Vec<C64> = (0..16)
            .map(|_| C64::from_polar(r * rng.gen_range(0.9..1.0), rng.gen_range(-3.2..3.2)))
            .collect();
        assert!(assert_matches(&samples, &format!("subnormal-square case {case}")).is_ok());
    }
}

#[test]
fn nan_and_inf_panic_like_the_full_pass() {
    let bad = [
        C64::new(f64::NAN, 0.0),
        C64::new(0.0, f64::NAN),
        C64::new(f64::INFINITY, 0.0),
        C64::new(0.0, f64::NEG_INFINITY),
        C64::new(f64::INFINITY, f64::NAN),
        C64::new(1e200, 0.0),
        C64::new(1.0, 1.0),
    ];
    for s in bad {
        for at in [0usize, 3, 9] {
            let mut samples = vec![C64::real(0.3); 10];
            samples[at] = s;
            // A later offender never wins over an earlier one.
            samples.push(C64::real(2.0));
            let got = assert_matches(&samples, &format!("{s:?} at {at}"));
            let message = got.expect_err("must panic");
            assert!(
                message.contains(&format!("sample {at} violates")),
                "{message}"
            );
        }
    }
}
