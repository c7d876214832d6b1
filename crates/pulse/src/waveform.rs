//! Pulse envelopes.
//!
//! A [`Waveform`] is a named sequence of complex samples, one per `dt`
//! (0.22 ns on Almaden's AWG), norm-bounded by 1. Parametric shapes —
//! [`Gaussian`], [`Drag`], [`GaussianSquare`], [`Constant`] — render to
//! waveforms and support the two pulse transformations the paper's compiler
//! is built on:
//!
//! * **amplitude scaling** (Optimization 1: `DirectRx(θ)` downscales the
//!   calibrated `Rx(180°)` DRAG pulse by `θ/180°`), and
//! * **horizontal stretching** (Optimization 3: `CR(θ)` stretches the
//!   flat-top of the calibrated echoed-CR GaussianSquare).

use quant_math::{fnv1a, C64, FNV_OFFSET};
use std::sync::Arc;

/// A sampled complex envelope.
///
/// The samples live in a shared immutable buffer and the name in a shared
/// string, so `clone()` and [`Waveform::renamed`] are O(1) and copy neither;
/// every transform renders a fresh buffer. The peak `max |d|` is recorded
/// at construction, where the norm bound is enforced, so
/// [`Waveform::peak`] is O(1) as well.
#[derive(Clone, Debug, PartialEq)]
pub struct Waveform {
    name: Arc<str>,
    samples: Arc<[C64]>,
    peak: f64,
}

impl Waveform {
    /// Creates a waveform from raw samples.
    ///
    /// # Panics
    ///
    /// Panics if any sample has modulus greater than 1 + 1e-9 (the AWG's
    /// norm constraint `|d_j(t)| ≤ 1`).
    pub fn new(name: impl Into<Arc<str>>, samples: Vec<C64>) -> Self {
        Waveform::from_buffer(name.into(), samples.into())
    }

    /// Creates a waveform over an already-rendered buffer: the render and
    /// scale paths collect straight into an `Arc<[C64]>` and land here.
    ///
    /// The check and the peak are exact without a `hypot` per sample:
    ///
    /// * **Norm bound.** A sample whose computed `re² + im²` is at most 1
    ///   has a true `|d|²` at most a few ulp above 1, so its `hypot`
    ///   (accurate to an ulp) cannot exceed `1 + 1e-9` under any rounding. Only the
    ///   other samples — including NaN and ±inf, whose `re² + im²` is not
    ///   `≤ 1` — take the `hypot` assert, in index order, so the first
    ///   offending sample panics with the same message as a full pass.
    /// * **Peak.** Computed `re² + im²` and `hypot` are each within a few
    ///   ulp of the true `|d|²` and `|d|`, so the sample with the largest
    ///   `hypot` has `re² + im²` within a few ulp of the largest one. The
    ///   peak is the largest `hypot` among samples within a relative
    ///   `1e-12` of that maximum — a set that always holds it, so the bits
    ///   equal a full pass's. A run of bit-equal samples (a flat top) costs
    ///   one `hypot`.
    /// * **Tiny samples.** The relative-error argument needs the squares to
    ///   stay in the normal range (a subnormal square loses relative
    ///   precision, and `re²` of a tiny sample underflows to 0). When the
    ///   largest `re² + im²` is below [`f64::MIN_POSITIVE`], the peak falls
    ///   back to a `hypot` over every sample. When it is normal, an
    ///   underflow's absolute error (≤ 2⁻¹⁰⁷⁴ per operation) is far below
    ///   the `1e-12 · max` margin.
    ///
    /// # Panics
    ///
    /// As [`Waveform::new`].
    fn from_buffer(name: Arc<str>, samples: Arc<[C64]>) -> Self {
        let mut max_n2 = 0.0_f64;
        for (i, s) in samples.iter().enumerate() {
            let n2 = s.norm_sqr();
            if n2 > 1.0 || n2.is_nan() {
                let a = s.abs();
                assert!(
                    a <= 1.0 + 1e-9,
                    "waveform '{name}' sample {i} violates |d(t)| ≤ 1: {a}"
                );
            }
            max_n2 = max_n2.max(n2);
        }
        let peak = if max_n2 >= f64::MIN_POSITIVE {
            let floor = max_n2 * (1.0 - 1e-12);
            let mut peak = 0.0_f64;
            let mut prev: Option<C64> = None;
            for &s in samples.iter() {
                let repeat = prev.is_some_and(|p| {
                    p.re.to_bits() == s.re.to_bits() && p.im.to_bits() == s.im.to_bits()
                });
                if !repeat && s.norm_sqr() >= floor {
                    peak = peak.max(s.abs());
                }
                prev = Some(s);
            }
            peak
        } else {
            samples.iter().fold(0.0_f64, |peak, s| peak.max(s.abs()))
        };
        Waveform {
            name,
            samples,
            peak,
        }
    }

    /// The same envelope under another name, sharing the sample buffer.
    pub fn renamed(&self, name: impl Into<Arc<str>>) -> Waveform {
        Waveform {
            name: name.into(),
            samples: Arc::clone(&self.samples),
            peak: self.peak,
        }
    }

    /// Whether `other` reads the very same sample buffer (not merely equal
    /// samples): true for a clone or a [`Waveform::renamed`] of `self`.
    pub fn shares_samples(&self, other: &Waveform) -> bool {
        Arc::ptr_eq(&self.samples, &other.samples)
    }

    /// Waveform name (for display and cmd_def bookkeeping).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The complex samples.
    pub fn samples(&self) -> &[C64] {
        &self.samples
    }

    /// Duration in `dt` units (number of samples).
    pub fn duration(&self) -> u64 {
        self.samples.len() as u64
    }

    /// A 64-bit FNV-1a content hash over the exact sample bits (length
    /// included, name excluded — the name is display bookkeeping and never
    /// enters the physics).
    ///
    /// Two waveforms with equal hashes integrate identically except for a
    /// hash collision, whose probability over `n` distinct waveforms is
    /// ≈ n²/2⁶⁵ (~10⁻¹³ for the few thousand probe pulses of a device
    /// calibration). Callers that cannot tolerate even that (the executor's
    /// pulse-cache keys) fold the full sample bits instead; the calibration
    /// probe cache uses this hash for compact keys.
    pub fn content_hash64(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, self.samples.len() as u64);
        for s in self.samples.iter() {
            h = fnv1a(h, s.re.to_bits());
            h = fnv1a(h, s.im.to_bits());
        }
        h
    }

    /// Complex area under the envelope, `Σ samples` (in `dt` units).
    ///
    /// To first order this determines the rotation angle a resonant pulse
    /// applies — the quantity Fig. 4 equates between the standard and direct
    /// X-gate schedules.
    pub fn area(&self) -> C64 {
        self.samples.iter().copied().sum()
    }

    /// Absolute area `Σ|samples|`.
    pub fn abs_area(&self) -> f64 {
        self.samples.iter().map(|s| s.abs()).sum()
    }

    /// Peak amplitude `max |samples|` (0 for an empty waveform), recorded
    /// at construction.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Returns a waveform named `name` whose samples are `f` of this one's,
    /// in one buffer and one norm-check pass. A chain of transforms written
    /// as one `f` (say `|s| (s * k) * z`) gives the samples the chained
    /// calls would, without their intermediate buffers.
    pub fn mapped(&self, name: impl Into<Arc<str>>, f: impl FnMut(C64) -> C64) -> Waveform {
        Waveform::from_buffer(name.into(), self.samples.iter().copied().map(f).collect())
    }

    /// Returns a copy with every sample multiplied by a real factor
    /// (vertical/amplitude scaling).
    pub fn scaled(&self, factor: f64) -> Waveform {
        self.mapped(format!("{}*{factor:.4}", self.name), |s| s * factor)
    }

    /// [`Waveform::scaled`] under this waveform's own name, shared rather
    /// than formatted: for transient copies, such as a run's jittered
    /// pulses, whose name nobody reads.
    pub fn scaled_same_name(&self, factor: f64) -> Waveform {
        self.mapped(Arc::clone(&self.name), |s| s * factor)
    }

    /// Returns a copy with every sample multiplied by a complex factor
    /// (amplitude scaling plus a phase rotation).
    pub fn scaled_complex(&self, factor: C64) -> Waveform {
        self.mapped(format!("{}*z", self.name), |s| s * factor)
    }

    /// Returns the time-reversed, conjugated waveform (the "echo" partner).
    pub fn reversed_conj(&self) -> Waveform {
        Waveform::from_buffer(
            format!("{}_rev", self.name).into(),
            self.samples.iter().rev().map(|s| s.conj()).collect(),
        )
    }
}

/// A Gaussian envelope `amp · exp(−(t−μ)²/2σ²)`, centred in its duration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gaussian {
    /// Duration in `dt` samples.
    pub duration: u64,
    /// Peak complex amplitude (|amp| ≤ 1).
    pub amp: f64,
    /// Standard deviation in `dt` samples.
    pub sigma: f64,
}

impl Gaussian {
    /// Renders to samples.
    ///
    /// The envelope is *lifted* (edge value subtracted and rescaled, as in
    /// Qiskit's `Gaussian`), so the pulse starts and ends at exactly zero —
    /// otherwise the truncation step itself causes spectral leakage no DRAG
    /// correction can remove.
    pub fn waveform(&self, name: impl Into<Arc<str>>) -> Waveform {
        let mu = (self.duration as f64 - 1.0) / 2.0;
        let s2 = 2.0 * self.sigma * self.sigma;
        let edge = {
            let d = -1.0 - mu;
            (-d * d / s2).exp()
        };
        let samples = (0..self.duration)
            .map(|t| {
                let dt = t as f64 - mu;
                let g = (-dt * dt / s2).exp();
                C64::real(self.amp * (g - edge) / (1.0 - edge))
            })
            .collect();
        Waveform::from_buffer(name.into(), samples)
    }
}

/// A DRAG envelope: Gaussian with a derivative-weighted imaginary component
/// `−i·β·dG/dt`, which cancels leakage to the |2⟩ level (Motzoi et al.).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Drag {
    /// Duration in `dt` samples.
    pub duration: u64,
    /// Peak amplitude.
    pub amp: f64,
    /// Gaussian width in `dt` samples.
    pub sigma: f64,
    /// DRAG coefficient β (units of `dt`).
    pub beta: f64,
}

impl Drag {
    /// Renders to samples (lifted, like [`Gaussian`]). The imaginary part is
    /// `β · d/dt` of the *lifted* real part, so it also vanishes at the
    /// edges.
    pub fn waveform(&self, name: impl Into<Arc<str>>) -> Waveform {
        self.waveform_detuned(name, 0.0)
    }

    /// Renders with a baked-in carrier detuning of `rad_per_sample` radians
    /// per `dt` (the AC-Stark compensation offset calibrated alongside the
    /// pulse amplitude). The samples are multiplied by
    /// `e^{-i·rad_per_sample·k}`, matching the device integrator's
    /// `ShiftFrequency` sign convention.
    pub fn waveform_detuned(&self, name: impl Into<Arc<str>>, rad_per_sample: f64) -> Waveform {
        let mu = (self.duration as f64 - 1.0) / 2.0;
        let s2 = self.sigma * self.sigma;
        let edge = {
            let d = -1.0 - mu;
            (-d * d / (2.0 * s2)).exp()
        };
        let samples = (0..self.duration)
            .map(|t| {
                let dt = t as f64 - mu;
                let g0 = (-dt * dt / (2.0 * s2)).exp();
                let g = self.amp * (g0 - edge) / (1.0 - edge);
                let dg = self.amp * (-dt / s2 * g0) / (1.0 - edge);
                C64::new(g, self.beta * dg) * C64::cis(-rad_per_sample * t as f64)
            })
            .collect();
        Waveform::from_buffer(name.into(), samples)
    }
}

/// A flat-top pulse with Gaussian rise/fall: the shape of cross-resonance
/// drive pulses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaussianSquare {
    /// Total duration in `dt` samples.
    pub duration: u64,
    /// Flat-top amplitude.
    pub amp: f64,
    /// Gaussian edge width in `dt` samples.
    pub sigma: f64,
    /// Flat-top width in `dt` samples (`width ≤ duration`).
    pub width: u64,
}

impl GaussianSquare {
    /// Renders to samples.
    ///
    /// # Panics
    ///
    /// Panics when `width > duration`.
    pub fn waveform(&self, name: impl Into<Arc<str>>) -> Waveform {
        assert!(self.width <= self.duration, "flat-top wider than pulse");
        let ramp = (self.duration - self.width) as f64 / 2.0;
        let rise_end = ramp;
        let fall_start = ramp + self.width as f64;
        let s2 = self.sigma * self.sigma;
        // Lifted edges (see `Gaussian::waveform`).
        let edge = (-(ramp + 1.0) * (ramp + 1.0) / (2.0 * s2)).exp();
        let lift = |g: f64| (g - edge) / (1.0 - edge);
        let samples = (0..self.duration)
            .map(|t| {
                let t = t as f64;
                let v = if t < rise_end {
                    let d = t - rise_end;
                    self.amp * lift((-d * d / (2.0 * s2)).exp())
                } else if t < fall_start {
                    self.amp
                } else {
                    let d = t - fall_start;
                    self.amp * lift((-d * d / (2.0 * s2)).exp())
                };
                C64::real(v)
            })
            .collect();
        Waveform::from_buffer(name.into(), samples)
    }

    /// Horizontal stretch: returns a pulse whose *flat-top* is scaled so
    /// the total area is `factor` times the original — the paper's
    /// mechanism for building `CR(θ)` from the calibrated `CR(90°)` pulse.
    ///
    /// The Gaussian edges are preserved; only the width changes. `factor`
    /// may be < 1 (compression) as long as the resulting width is
    /// non-negative. Renders the edges to measure their area; a caller
    /// that stretches one pulse many times keeps its [`GaussianSquare::edges`].
    pub fn stretched_area(&self, factor: f64) -> GaussianSquare {
        self.edges().stretched_area(factor)
    }

    /// The Gaussian ramps of this pulse, rendered once: they do not depend
    /// on the flat-top width, so every stretch of the pulse shares them.
    pub fn edges(&self) -> FlatTopEdges {
        let no_top = GaussianSquare {
            width: 0,
            duration: self.duration - self.width,
            ..*self
        };
        let render = no_top.waveform("edges");
        // `waveform`'s rise is every `t < ramp`, the rest is the fall.
        let ramp = no_top.duration as f64 / 2.0;
        FlatTopEdges {
            pulse: *self,
            rise: (0..no_top.duration)
                .take_while(|&t| (t as f64) < ramp)
                .count(),
            area: render.area().re,
            ramps: render.samples().iter().map(|s| s.re).collect(),
        }
    }
}

/// The two Gaussian ramps of a [`GaussianSquare`], rendered once
/// ([`GaussianSquare::edges`]), for stretching its flat top repeatedly —
/// the `CR(θ)` halves of one calibrated pair — without re-rendering them.
///
/// A stretch keeps `duration − width`, σ and the amplitude, so its ramp
/// offsets `t − ramp` (rise) and `t − (ramp + width)` (fall) take the same
/// values as the flat-top-free render's; both are exact in `f64` (integers
/// and halves far below 2⁵³), so every ramp sample is bit-equal to the one
/// [`GaussianSquare::waveform`] computes for the stretched pulse.
#[derive(Clone, Debug, PartialEq)]
pub struct FlatTopEdges {
    pulse: GaussianSquare,
    /// The flat-top-free render's samples (all real): the rise, then the
    /// fall.
    ramps: Arc<[f64]>,
    /// How many of `ramps` come before the flat top.
    rise: usize,
    /// `Σ ramps`, summed as [`Waveform::area`] sums them.
    area: f64,
}

impl FlatTopEdges {
    /// [`GaussianSquare::stretched_area`] of the pulse these edges belong
    /// to, from the stored edge area.
    pub fn stretched_area(&self, factor: f64) -> GaussianSquare {
        assert!(factor >= 0.0, "stretch factor must be non-negative");
        let p = &self.pulse;
        let edge_area = self.area;
        let total = edge_area + p.width as f64 * p.amp;
        let target = total * factor;
        if target < edge_area {
            // The requested area is below what the Gaussian edges alone
            // carry: shrink vertically instead (small-angle CR pulses).
            return GaussianSquare {
                duration: p.duration - p.width,
                width: 0,
                amp: p.amp * target / edge_area,
                ..*p
            };
        }
        let new_width = ((target - edge_area) / p.amp).round().max(0.0) as u64;
        GaussianSquare {
            duration: p.duration - p.width + new_width,
            width: new_width,
            ..*p
        }
    }

    /// `pulse.waveform(name).scaled(f)` for each `f` of `factors`: the
    /// same samples, peaks and names. When `pulse` has these ramps (the
    /// same amplitude, σ and `duration − width`, as every stretch but a
    /// small-angle one does), each waveform is written straight from the
    /// stored ramps, one buffer per factor; otherwise `pulse` is rendered
    /// once and scaled.
    pub fn render_scaled<const N: usize>(
        &self,
        pulse: &GaussianSquare,
        name: &str,
        factors: [f64; N],
    ) -> [Waveform; N] {
        let p = &self.pulse;
        let same_ramps = pulse.amp.to_bits() == p.amp.to_bits()
            && pulse.sigma.to_bits() == p.sigma.to_bits()
            && pulse.duration.checked_sub(pulse.width) == Some(p.duration - p.width);
        if !same_ramps {
            let render = pulse.waveform(name);
            return factors.map(|f| render.scaled(f));
        }
        let (rise, fall) = self.ramps.split_at(self.rise);
        factors.map(|f| {
            let samples = rise
                .iter()
                .copied()
                .chain(std::iter::repeat_n(pulse.amp, pulse.width as usize))
                .chain(fall.iter().copied())
                .map(|v| C64::real(v) * f)
                .collect();
            Waveform::from_buffer(format!("{name}*{f:.4}").into(), samples)
        })
    }
}

/// A constant (square) envelope.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Constant {
    /// Duration in `dt` samples.
    pub duration: u64,
    /// Complex amplitude.
    pub amp: f64,
}

impl Constant {
    /// Renders to samples.
    pub fn waveform(&self, name: impl Into<Arc<str>>) -> Waveform {
        Waveform::from_buffer(
            name.into(),
            std::iter::repeat_n(C64::real(self.amp), self.duration as usize).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_value_is_pinned() {
        let w = Gaussian {
            duration: 32,
            amp: 0.25,
            sigma: 8.0,
        }
        .waveform("g");
        assert_eq!(w.content_hash64(), 0x42d3_eab7_c464_7c39);
    }

    #[test]
    fn gaussian_symmetry_and_peak() {
        let g = Gaussian {
            duration: 160,
            amp: 0.2,
            sigma: 40.0,
        };
        let w = g.waveform("g");
        assert_eq!(w.duration(), 160);
        // The centre falls between two samples, so the peak is marginally
        // below the nominal amplitude.
        assert!((w.peak() - 0.2).abs() < 1e-4);
        // Symmetric about the centre.
        let s = w.samples();
        for i in 0..80 {
            assert!((s[i].re - s[159 - i].re).abs() < 1e-12);
        }
    }

    #[test]
    fn content_hash_tracks_samples_not_name() {
        let g = Gaussian {
            duration: 64,
            amp: 0.3,
            sigma: 16.0,
        };
        let a = g.waveform("a");
        let b = g.waveform("some-other-name");
        assert_eq!(a.content_hash64(), b.content_hash64());
        // A one-ulp sample change must change the hash.
        let mut samples = a.samples().to_vec();
        samples[10].re = f64::from_bits(samples[10].re.to_bits() + 1);
        let c = Waveform::new("a", samples);
        assert_ne!(a.content_hash64(), c.content_hash64());
        // Truncation changes the length word even if all samples match.
        let d = Waveform::new("a", a.samples()[..32].to_vec());
        assert_ne!(a.content_hash64(), d.content_hash64());
    }

    #[test]
    fn amplitude_scaling_scales_area_linearly() {
        let g = Gaussian {
            duration: 160,
            amp: 0.4,
            sigma: 40.0,
        };
        let w = g.waveform("g");
        let half = w.scaled(0.5);
        assert!((half.area().re - w.area().re * 0.5).abs() < 1e-9);
        assert!((half.peak() - 0.2).abs() < 1e-4);
    }

    #[test]
    fn drag_has_odd_imaginary_part() {
        let d = Drag {
            duration: 160,
            amp: 0.2,
            sigma: 40.0,
            beta: 1.5,
        };
        let w = d.waveform("drag");
        let s = w.samples();
        // Imag part is the derivative: antisymmetric about the centre.
        for i in 0..80 {
            assert!((s[i].im + s[159 - i].im).abs() < 1e-9);
        }
        // Total imaginary area ≈ 0.
        assert!(w.area().im.abs() < 1e-9);
    }

    #[test]
    fn gaussian_square_flat_top() {
        let gs = GaussianSquare {
            duration: 400,
            amp: 0.3,
            sigma: 20.0,
            width: 240,
        };
        let w = gs.waveform("cr");
        // Middle samples sit at the flat-top amplitude.
        assert!((w.samples()[200].re - 0.3).abs() < 1e-12);
        assert!((w.peak() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn stretched_area_hits_target_factor() {
        let gs = GaussianSquare {
            duration: 400,
            amp: 0.3,
            sigma: 20.0,
            width: 240,
        };
        let orig_area = gs.waveform("a").area().re;
        for factor in [0.25, 0.5, 1.0, 1.5, 2.0] {
            let stretched = gs.stretched_area(factor);
            let area = stretched.waveform("b").area().re;
            assert!(
                (area - orig_area * factor).abs() < gs.amp * 1.0,
                "factor {factor}: area {area} vs target {}",
                orig_area * factor
            );
        }
    }

    #[test]
    fn stretch_changes_duration_not_amplitude() {
        let gs = GaussianSquare {
            duration: 400,
            amp: 0.3,
            sigma: 20.0,
            width: 240,
        };
        let half = gs.stretched_area(0.5);
        assert!(half.duration < gs.duration);
        assert_eq!(half.amp, gs.amp);
        let double = gs.stretched_area(2.0);
        assert!(double.duration > gs.duration);
    }

    #[test]
    #[should_panic(expected = "violates")]
    fn waveform_rejects_overdriven_samples() {
        Waveform::new("bad", vec![C64::real(1.5)]);
    }

    #[test]
    fn reversed_conj_round_trip() {
        let d = Drag {
            duration: 64,
            amp: 0.5,
            sigma: 16.0,
            beta: 0.7,
        };
        let w = d.waveform("w");
        let back = w.reversed_conj().reversed_conj();
        for (a, b) in w.samples().iter().zip(back.samples()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn constant_area() {
        let c = Constant {
            duration: 35,
            amp: 0.44,
        };
        let w = c.waveform("c");
        assert!((w.area().re - 35.0 * 0.44).abs() < 1e-9);
    }

    #[test]
    fn shares_samples_tracks_the_buffer_not_the_values() {
        let w = Constant {
            duration: 8,
            amp: 0.2,
        }
        .waveform("c");
        assert!(w.shares_samples(&w.clone()));
        assert!(w.shares_samples(&w.renamed("other")));
        // Equal samples in a fresh buffer are not shared.
        let copy = w.scaled(1.0);
        assert_eq!(copy.samples(), w.samples());
        assert!(!w.shares_samples(&copy));
    }
}
