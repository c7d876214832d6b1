//! Physical device parameters and presets.
//!
//! The presets mirror the published figures for the two IBM devices the
//! paper ran on: **Almaden** (20 transmons; mean T1 = 94 µs, T2 = 88 µs,
//! single-qubit error 0.14 %, CNOT error 1.78 %, readout error 3.8 %,
//! dt = 0.22 ns) and **Armonk** (single qubit, used for the Fig. 13
//! randomized-benchmarking experiment).

/// AWG sample period in seconds (4.5 GS/s, as on Almaden).
pub const DT: f64 = 0.222e-9;

/// Physical parameters of one transmon qubit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransmonParams {
    /// |0⟩→|1⟩ transition frequency in Hz (≈ 5 GHz).
    pub f01: f64,
    /// Anharmonicity α = f12 − f01 in Hz (≈ −330 MHz).
    pub alpha: f64,
    /// Rabi rate per unit drive amplitude, in Hz. A resonant pulse of
    /// amplitude `a` rotates at `2π · rabi_hz_per_amp · a` rad/s.
    pub rabi_hz_per_amp: f64,
    /// Energy-relaxation time T1 in seconds.
    pub t1: f64,
    /// Dephasing time T2 in seconds (T2 ≤ 2·T1).
    pub t2: f64,
}

impl TransmonParams {
    /// Almaden-like qubit.
    pub fn almaden_like() -> Self {
        TransmonParams {
            f01: 4.97e9,
            alpha: -330.0e6,
            rabi_hz_per_amp: 1.1e8,
            t1: 94e-6,
            t2: 88e-6,
        }
    }

    /// Armonk-like qubit (single-qubit OpenPulse device).
    pub fn armonk_like() -> Self {
        TransmonParams {
            f01: 4.974e9,
            alpha: -348.0e6,
            rabi_hz_per_amp: 1.25e8,
            t1: 140e-6,
            t2: 70e-6,
        }
    }

    /// The |1⟩→|2⟩ transition frequency `f12 = f01 + α`.
    pub fn f12(&self) -> f64 {
        self.f01 + self.alpha
    }

    /// The two-photon |0⟩→|2⟩ half-frequency `f02/2 = f01 + α/2`.
    pub fn f02_half(&self) -> f64 {
        self.f01 + self.alpha / 2.0
    }

    /// The parameter struct folded bit-exactly into key words, for
    /// content-addressed caches and calibration-snapshot hashing. Any
    /// change to any field — even one ulp — changes the words.
    pub fn key_words(&self) -> [u64; 5] {
        [
            self.f01.to_bits(),
            self.alpha.to_bits(),
            self.rabi_hz_per_amp.to_bits(),
            self.t1.to_bits(),
            self.t2.to_bits(),
        ]
    }
}

/// Effective cross-resonance interaction parameters for a coupled pair
/// (Magesan & Gambetta model): driving the control qubit at the target's
/// frequency produces ZX, IX and ZI terms proportional to drive amplitude.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrParams {
    /// ZX rate per unit control-channel amplitude, in Hz.
    pub zx_hz_per_amp: f64,
    /// Spurious IX rate per unit amplitude, in Hz (cancelled by the echo).
    pub ix_hz_per_amp: f64,
    /// Spurious ZI rate per unit amplitude, in Hz (cancelled by the echo).
    pub zi_hz_per_amp: f64,
    /// Static ZZ rate in Hz (always on, small).
    pub zz_static_hz: f64,
}

impl CrParams {
    /// Almaden-like CR interaction.
    ///
    /// The raw IX term on hardware is comparable to ZX, but IBM's
    /// "active cancellation" tone on the target drive removes most of it
    /// within each pulse (Sheldon et al. 2016); the echo then cleans the
    /// residual. The values here are those post-cancellation residuals.
    pub fn almaden_like() -> Self {
        CrParams {
            zx_hz_per_amp: 2.4e6,
            ix_hz_per_amp: 0.5e6,
            zi_hz_per_amp: 0.4e6,
            zz_static_hz: 0.02e6,
        }
    }

    /// An idealized CR interaction with no spurious terms (for tests that
    /// isolate the ZX physics).
    pub fn pure_zx(zx_hz_per_amp: f64) -> Self {
        CrParams {
            zx_hz_per_amp,
            ix_hz_per_amp: 0.0,
            zi_hz_per_amp: 0.0,
            zz_static_hz: 0.0,
        }
    }

    /// Bit-exact key words (see [`TransmonParams::key_words`]).
    pub fn key_words(&self) -> [u64; 4] {
        [
            self.zx_hz_per_amp.to_bits(),
            self.ix_hz_per_amp.to_bits(),
            self.zi_hz_per_amp.to_bits(),
            self.zz_static_hz.to_bits(),
        ]
    }
}

/// Readout (measurement) error model for one qubit: an asymmetric
/// confusion matrix plus the IQ-plane cloud geometry used for qutrit
/// discrimination.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReadoutParams {
    /// P(read 1 | prepared 0).
    pub p1_given_0: f64,
    /// P(read 0 | prepared 1).
    pub p0_given_1: f64,
    /// IQ-plane centroid of the |0⟩ cloud.
    pub iq0: (f64, f64),
    /// IQ-plane centroid of the |1⟩ cloud.
    pub iq1: (f64, f64),
    /// IQ-plane centroid of the |2⟩ cloud.
    pub iq2: (f64, f64),
    /// Isotropic standard deviation of each IQ cloud.
    pub iq_sigma: f64,
}

impl ReadoutParams {
    /// Almaden-like readout: 3.8 % mean error, biased towards reading 0
    /// (relaxation during measurement).
    pub fn almaden_like() -> Self {
        ReadoutParams {
            p1_given_0: 0.021,
            p0_given_1: 0.055,
            iq0: (-1.0, -0.4),
            iq1: (1.0, -0.4),
            iq2: (0.15, 1.2),
            iq_sigma: 0.38,
        }
    }

    /// 2×2 confusion matrix `M[measured][prepared]`.
    pub fn confusion(&self) -> [[f64; 2]; 2] {
        [
            [1.0 - self.p1_given_0, self.p0_given_1],
            [self.p1_given_0, 1.0 - self.p0_given_1],
        ]
    }
}

/// Calibration-quality model: how precisely the daily tune-up lands on the
/// true device parameters, and how fast the device drifts afterwards.
///
/// These two knobs drive §8.3's fidelity-source decomposition: residual
/// amplitude error makes each *calibrated pulse application* carry a
/// coherent over/under-rotation, so the standard two-pulse U3 squares the
/// impact while `DirectRx` pays it once.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftParams {
    /// Relative 1σ error of the calibrated π-pulse amplitude right after
    /// calibration.
    pub cal_amp_sigma: f64,
    /// Relative 1σ amplitude drift accumulated per hour since calibration.
    pub drift_per_hour: f64,
    /// Hours elapsed since the last daily calibration (the paper's jobs ran
    /// around the clock with varying elapsed time; 0–24 h).
    pub hours_since_cal: f64,
}

impl DriftParams {
    /// Almaden-like drift.
    pub fn almaden_like() -> Self {
        DriftParams {
            cal_amp_sigma: 0.003,
            drift_per_hour: 0.0012,
            hours_since_cal: 8.0,
        }
    }

    /// A perfectly calibrated, drift-free device (for noiseless tiers).
    pub fn ideal() -> Self {
        DriftParams {
            cal_amp_sigma: 0.0,
            drift_per_hour: 0.0,
            hours_since_cal: 0.0,
        }
    }

    /// Bit-exact key words (see [`TransmonParams::key_words`]).
    pub fn key_words(&self) -> [u64; 3] {
        [
            self.cal_amp_sigma.to_bits(),
            self.drift_per_hour.to_bits(),
            self.hours_since_cal.to_bits(),
        ]
    }

    /// Total relative amplitude-error 1σ at execution time.
    pub fn total_sigma(&self) -> f64 {
        (self.cal_amp_sigma.powi(2) + (self.drift_per_hour * self.hours_since_cal.sqrt()).powi(2))
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_frequencies() {
        let q = TransmonParams::almaden_like();
        assert!(q.f12() < q.f01, "negative anharmonicity lowers f12");
        assert!((q.f02_half() - (q.f01 + q.f12()) / 2.0).abs() < 1.0);
    }

    #[test]
    fn confusion_matrix_columns_sum_to_one() {
        let r = ReadoutParams::almaden_like();
        let m = r.confusion();
        assert!((m[0][0] + m[1][0] - 1.0).abs() < 1e-12);
        assert!((m[0][1] + m[1][1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn drift_grows_with_time() {
        let mut d = DriftParams::almaden_like();
        let fresh = DriftParams {
            hours_since_cal: 0.0,
            ..d
        };
        d.hours_since_cal = 23.0;
        assert!(d.total_sigma() > fresh.total_sigma());
        assert!(DriftParams::ideal().total_sigma() == 0.0);
    }

    #[test]
    fn coherence_times_physical() {
        for q in [
            TransmonParams::almaden_like(),
            TransmonParams::armonk_like(),
        ] {
            assert!(q.t2 <= 2.0 * q.t1);
            assert!(q.t1 > 0.0);
        }
    }
}
