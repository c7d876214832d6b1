//! The simulated backend: qubits, coupling map, noise and drift.
//!
//! [`DeviceModel`] is the stand-in for IBM's Almaden/Armonk hardware. It
//! owns the *true* physical parameters (which the calibration experiments
//! estimate with finite precision) and the *drifted* parameters in effect
//! at execution time (the paper's jobs ran up to 24 h after the daily
//! calibration). The gap between calibrated pulses and drifted physics is
//! what produces §8.3's "calibration error susceptibility".

use crate::cache::PulseCache;
use crate::params::{CrParams, DriftParams, ReadoutParams, TransmonParams};
use crate::transmon::Transmon;
use crate::twoqubit::CrPair;
use quant_math::normal;
use quant_pulse::{Channel, VerifySpec};
use rand::Rng;
use std::sync::Arc;

/// A directed coupled pair with its CR interaction strengths.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CouplingEdge {
    /// Control qubit (physically driven at the target's frequency).
    pub control: u32,
    /// Target qubit.
    pub target: u32,
    /// Effective CR interaction parameters.
    pub cr: CrParams,
}

/// The simulated device.
#[derive(Clone, Debug)]
pub struct DeviceModel {
    qubits: Vec<TransmonParams>,
    edges: Vec<CouplingEdge>,
    readout: Vec<ReadoutParams>,
    drift: DriftParams,
    /// Execution-time multiplicative drift of each qubit's Rabi rate
    /// (1 + ε); the calibration saw a rate of exactly `qubits[q]`.
    rabi_drift: Vec<f64>,
    /// Execution-time multiplicative drift of each edge's ZX rate.
    zx_drift: Vec<f64>,
    /// 1σ of the per-pulse-application additive amplitude jitter (control
    /// electronics noise floor, in absolute amplitude units).
    pulse_amp_jitter: f64,
    /// Residual excited-state population after reset (thermal SPAM error).
    reset_excited_prob: f64,
    /// Memo table for integrated pulse propagators. Shared (not deep-
    /// copied) across clones; keys are content-addressed over the drifted
    /// physics, so sharing can only trade hits for misses, never
    /// correctness.
    pulse_cache: Arc<PulseCache>,
}

impl DeviceModel {
    /// Builds an Almaden-like linear chain of `n` qubits with directed CR
    /// edges `(i → i+1)` and `(i+1 → i)`, small seeded parameter spread,
    /// and execution-time drift drawn from [`DriftParams::almaden_like`].
    pub fn almaden_like(n: usize, rng: &mut impl Rng) -> Self {
        assert!(n >= 1, "device needs at least one qubit");
        let base = TransmonParams::almaden_like();
        let qubits: Vec<TransmonParams> = (0..n)
            .map(|_| {
                let t1 = (base.t1 * (1.0 + normal(rng, 0.0, 0.15))).max(20e-6);
                TransmonParams {
                    f01: base.f01 + normal(rng, 0.0, 40e6),
                    alpha: base.alpha + normal(rng, 0.0, 5e6),
                    rabi_hz_per_amp: base.rabi_hz_per_amp * (1.0 + normal(rng, 0.0, 0.03)),
                    t1,
                    t2: (base.t2 * (1.0 + normal(rng, 0.0, 0.15))).clamp(10e-6, 2.0 * t1),
                }
            })
            .collect();
        let cr_base = CrParams::almaden_like();
        let mut edges = Vec::new();
        for i in 0..n.saturating_sub(1) {
            for (c, t) in [(i as u32, i as u32 + 1), (i as u32 + 1, i as u32)] {
                edges.push(CouplingEdge {
                    control: c,
                    target: t,
                    cr: CrParams {
                        zx_hz_per_amp: cr_base.zx_hz_per_amp * (1.0 + normal(rng, 0.0, 0.05)),
                        ..cr_base
                    },
                });
            }
        }
        let readout = vec![ReadoutParams::almaden_like(); n];
        let drift = DriftParams::almaden_like();
        let mut model = DeviceModel {
            qubits,
            edges,
            readout,
            drift,
            rabi_drift: vec![1.0; n],
            zx_drift: Vec::new(),
            pulse_amp_jitter: 6.0e-4,
            reset_excited_prob: 0.012,
            pulse_cache: Arc::new(PulseCache::new()),
        };
        model.zx_drift = vec![1.0; model.edges.len()];
        model.redraw_drift(rng);
        model
    }

    /// Single-qubit Armonk-like device.
    pub fn armonk_like(rng: &mut impl Rng) -> Self {
        let mut m = DeviceModel {
            qubits: vec![TransmonParams::armonk_like()],
            edges: Vec::new(),
            readout: vec![ReadoutParams::almaden_like()],
            drift: DriftParams::almaden_like(),
            rabi_drift: vec![1.0],
            zx_drift: Vec::new(),
            pulse_amp_jitter: 6.0e-4,
            reset_excited_prob: 0.012,
            pulse_cache: Arc::new(PulseCache::new()),
        };
        m.redraw_drift(rng);
        m
    }

    /// A noiseless device: no drift, no jitter, no decoherence (T1/T2 set
    /// astronomically long), perfect readout. Pulse physics (leakage,
    /// spurious CR terms) remains.
    pub fn ideal(n: usize) -> Self {
        let base = TransmonParams {
            t1: 1.0,
            t2: 1.0,
            ..TransmonParams::almaden_like()
        };
        let cr = CrParams::almaden_like();
        let mut edges = Vec::new();
        for i in 0..n.saturating_sub(1) {
            for (c, t) in [(i as u32, i as u32 + 1), (i as u32 + 1, i as u32)] {
                edges.push(CouplingEdge {
                    control: c,
                    target: t,
                    cr,
                });
            }
        }
        let zx_len = edges.len();
        DeviceModel {
            qubits: vec![base; n],
            edges,
            readout: vec![
                ReadoutParams {
                    p1_given_0: 0.0,
                    p0_given_1: 0.0,
                    ..ReadoutParams::almaden_like()
                };
                n
            ],
            drift: DriftParams::ideal(),
            rabi_drift: vec![1.0; n],
            zx_drift: vec![1.0; zx_len],
            pulse_amp_jitter: 0.0,
            reset_excited_prob: 0.0,
            pulse_cache: Arc::new(PulseCache::new()),
        }
    }

    /// Redraws the execution-time drift multipliers (a new "job" some hours
    /// after calibration).
    pub fn redraw_drift(&mut self, rng: &mut impl Rng) {
        let sigma = self.drift.total_sigma();
        for d in &mut self.rabi_drift {
            *d = 1.0 + normal(rng, 0.0, sigma);
        }
        for d in &mut self.zx_drift {
            *d = 1.0 + normal(rng, 0.0, sigma);
        }
        // The drifted physics just changed: retire every memoized
        // propagator (their keys embed the old parameter bits and can
        // never be looked up again).
        self.pulse_cache.invalidate();
    }

    /// Overrides the drift model (e.g. for ablation benches).
    pub fn set_drift(&mut self, drift: DriftParams, rng: &mut impl Rng) {
        self.drift = drift;
        self.redraw_drift(rng);
    }

    /// Overrides the per-pulse additive amplitude jitter.
    pub fn set_pulse_amp_jitter(&mut self, jitter: f64) {
        self.pulse_amp_jitter = jitter;
    }

    /// The device's pulse-propagator memo table.
    pub fn pulse_cache(&self) -> &PulseCache {
        &self.pulse_cache
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Calibration-time parameters of qubit `q`.
    pub fn qubit(&self, q: u32) -> &TransmonParams {
        &self.qubits[q as usize]
    }

    /// Readout model of qubit `q`.
    pub fn readout(&self, q: u32) -> &ReadoutParams {
        &self.readout[q as usize]
    }

    /// Drift model.
    pub fn drift(&self) -> &DriftParams {
        &self.drift
    }

    /// Per-pulse additive amplitude jitter (1σ).
    pub fn pulse_amp_jitter(&self) -> f64 {
        self.pulse_amp_jitter
    }

    /// Residual excited-state population after reset (thermal SPAM error).
    pub fn reset_excited_prob(&self) -> f64 {
        self.reset_excited_prob
    }

    /// Overrides the reset (SPAM) error.
    pub fn set_reset_excited_prob(&mut self, p: f64) {
        self.reset_excited_prob = p;
    }

    /// All directed coupling edges.
    pub fn edges(&self) -> &[CouplingEdge] {
        &self.edges
    }

    /// The control channel carrying CR pulses for the directed pair
    /// `(control, target)`, if they are coupled.
    pub fn control_channel(&self, control: u32, target: u32) -> Option<Channel> {
        self.edges
            .iter()
            .position(|e| e.control == control && e.target == target)
            .map(|k| Channel::Control(k as u32))
    }

    /// The static-verification envelope for schedules compiled against
    /// this device: qubit count, coupled control pairs, full-scale
    /// amplitude, and a generous local-oscillator band around the qubit
    /// spectrum (wide enough for the qudit-addressing shifts to f12 and
    /// f02/2, tight enough to catch order-of-magnitude mistakes).
    pub fn verify_spec(&self) -> VerifySpec {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for q in &self.qubits {
            // alpha is negative, so f12 = f01 + alpha sits below f01.
            lo = lo.min(q.f01 + q.alpha.min(0.0));
            hi = hi.max(q.f01 + q.alpha.max(0.0));
        }
        let margin = 0.5e9;
        if !(lo.is_finite() && hi.is_finite()) {
            (lo, hi) = (margin, margin);
        }
        VerifySpec {
            num_qubits: self.qubits.len() as u32,
            control_pairs: self.edges.iter().map(|e| (e.control, e.target)).collect(),
            max_amp: 1.0,
            freq_band: (lo - margin, hi + margin),
            max_freq_shift: 1.0e9,
            align_dt: 1,
        }
    }

    /// Integrator for qubit `q` with **calibration-time** parameters (what
    /// the daily tune-up measures against).
    pub fn transmon_cal(&self, q: u32) -> Transmon {
        Transmon::new(self.qubits[q as usize])
    }

    /// Integrator for qubit `q` with **execution-time (drifted)**
    /// parameters.
    pub fn transmon_exec(&self, q: u32) -> Transmon {
        let mut p = self.qubits[q as usize];
        p.rabi_hz_per_amp *= self.rabi_drift[q as usize];
        Transmon::new(p)
    }

    /// CR-pair integrator for the directed pair, calibration-time.
    pub fn pair_cal(&self, control: u32, target: u32) -> Option<CrPair> {
        self.edges
            .iter()
            .find(|e| e.control == control && e.target == target)
            .map(|e| {
                CrPair::new(
                    self.qubits[e.control as usize],
                    self.qubits[e.target as usize],
                    e.cr,
                )
            })
    }

    /// CR-pair integrator for the directed pair, execution-time (drifted).
    pub fn pair_exec(&self, control: u32, target: u32) -> Option<CrPair> {
        let idx = self
            .edges
            .iter()
            .position(|e| e.control == control && e.target == target)?;
        let e = &self.edges[idx];
        let mut control_p = self.qubits[e.control as usize];
        control_p.rabi_hz_per_amp *= self.rabi_drift[e.control as usize];
        let mut target_p = self.qubits[e.target as usize];
        target_p.rabi_hz_per_amp *= self.rabi_drift[e.target as usize];
        let mut cr = e.cr;
        cr.zx_hz_per_amp *= self.zx_drift[idx];
        Some(CrPair::new(control_p, target_p, cr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant_math::seeded;

    #[test]
    fn almaden_topology() {
        let mut rng = seeded(1);
        let d = DeviceModel::almaden_like(5, &mut rng);
        assert_eq!(d.num_qubits(), 5);
        assert_eq!(d.edges().len(), 8); // 4 undirected links × 2 directions
        assert!(d.control_channel(0, 1).is_some());
        assert!(d.control_channel(1, 0).is_some());
        assert!(d.control_channel(0, 2).is_none());
        assert_eq!(d.control_channel(2, 3), Some(Channel::Control(4)));
    }

    #[test]
    fn parameter_spread_is_small_but_nonzero() {
        let mut rng = seeded(2);
        let d = DeviceModel::almaden_like(4, &mut rng);
        let f0: Vec<f64> = (0..4).map(|q| d.qubit(q).f01).collect();
        assert!(f0.windows(2).any(|w| (w[0] - w[1]).abs() > 1e3));
        for q in 0..4 {
            let p = d.qubit(q);
            assert!(p.t2 <= 2.0 * p.t1 + 1e-12);
            assert!((p.f01 - 4.97e9).abs() < 0.5e9);
        }
    }

    #[test]
    fn drift_changes_exec_params() {
        let mut rng = seeded(3);
        let d = DeviceModel::almaden_like(2, &mut rng);
        let cal = d.transmon_cal(0).params().rabi_hz_per_amp;
        let exec = d.transmon_exec(0).params().rabi_hz_per_amp;
        assert!(cal != exec, "drift should perturb the Rabi rate");
        assert!((exec / cal - 1.0).abs() < 0.05, "drift should be small");
    }

    #[test]
    fn ideal_device_has_no_drift_or_jitter() {
        let d = DeviceModel::ideal(3);
        assert_eq!(
            d.transmon_cal(1).params().rabi_hz_per_amp,
            d.transmon_exec(1).params().rabi_hz_per_amp
        );
        assert_eq!(d.pulse_amp_jitter(), 0.0);
        assert_eq!(d.readout(0).p1_given_0, 0.0);
    }

    #[test]
    fn armonk_is_single_qubit() {
        let mut rng = seeded(4);
        let d = DeviceModel::armonk_like(&mut rng);
        assert_eq!(d.num_qubits(), 1);
        assert!(d.edges().is_empty());
    }
}
