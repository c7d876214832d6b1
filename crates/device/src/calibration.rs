//! Daily calibration experiments.
//!
//! This module reproduces the tune-up loop the paper's approach is
//! bootstrapped from (§2.3): a Rabi amplitude sweep fixes the `Rx(90°)` and
//! `Rx(180°)` pulse amplitudes, a DRAG sweep fixes the leakage-cancelling β,
//! and the CNOT tune-up finds the echoed-CR flat-top width — which, as the
//! paper notes, calibrates the single-pulse `Rx(180°)` "for free" because
//! the echo needs it.
//!
//! The output is a [`Calibration`] holding the pulse parameters plus a
//! populated [`CmdDef`] with the backend-reported primitives: `rx90`,
//! `rx180`, `cx` (and its cancelled-leading-X form `cx_cancelled`), and
//! `measure`. The paper's compiler reads these entries to build its
//! augmented basis gates; lowering plays their rendered pulses directly.

use crate::cache::{probe_key, quantize_probe, ProbeCache};
use crate::device::DeviceModel;
use crate::executor::ShotPool;
use crate::params::DT;
use crate::snapshot::{snapshot_key, CalStore};
use crate::transmon::FrameResult;
use crate::twoqubit::{extract_control_z, extract_zx_angle};
use quant_math::{fit_cosine, normal, seeded, stream_seed, CMat};
use quant_pulse::{
    Channel, CmdDef, CmdKey, Drag, FlatTopEdges, GaussianSquare, Instruction, Schedule, Waveform,
};
use rand::Rng;
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI, TAU};
use std::sync::Arc;

/// Calibrated single-qubit pulses.
#[derive(Clone, Debug, PartialEq)]
pub struct QubitCalibration {
    /// The π/2 DRAG pulse (the standard basis-gate workhorse).
    pub rx90: Drag,
    /// The π DRAG pulse — calibrated as a side effect of the CNOT tune-up
    /// and exploited by the paper's DirectX/DirectRx gates.
    pub rx180: Drag,
    /// Virtual-Z phase wrapper `(after, before)` making the rx90 pulse act
    /// as a pure X rotation: `Rz(−after)·U_pulse·Rz(−before) = Rx(π/2)`.
    /// Measured by tomography of the calibrated pulse (the paper's §4.4
    /// empirical phase correction); realized with free `ShiftPhase`s.
    pub rx90_phase: (f64, f64),
    /// Same for the rx180 pulse.
    pub rx180_phase: (f64, f64),
    /// AC-Stark-compensating carrier detuning of the rx90 pulse, in
    /// radians per `dt` sample (baked into the rendered waveform).
    pub rx90_detuning: f64,
    /// Same for the rx180 pulse.
    pub rx180_detuning: f64,
    /// The Fig.-7 characterization table for `DirectRx(θ)`: for each
    /// amplitude scale `s = θ/π ∈ [0, 1]` of the rx180 pulse, the measured
    /// ZXZ phase corrections `(a, c)`. The deviations are θ-dependent
    /// (sinusoidal in the paper's data) because the Stark compensation is
    /// calibrated at full amplitude.
    pub direct_rx_table: Vec<(f64, f64, f64)>,
}

impl QubitCalibration {
    /// The scaled `DirectRx(θ)` waveform (paper §4.2): the calibrated
    /// rx180 pulse with amplitude scaled by `θ/π`. Negative θ flips the
    /// drive sign.
    pub fn direct_rx_waveform(
        &self,
        theta: f64,
        name: impl Into<Arc<str>>,
    ) -> quant_pulse::Waveform {
        self.rx180_waveform(name)
            .scaled(theta / std::f64::consts::PI)
    }

    /// The empirical phase correction `(a, c)` for `DirectRx(θ)`,
    /// interpolated from the characterization table. By the exact symmetry
    /// `U(−s) = Z·U(s)·Z`, negative angles reuse the |θ| entry.
    pub fn direct_rx_phase(&self, theta: f64) -> (f64, f64) {
        let s = (theta.abs() / std::f64::consts::PI).clamp(0.0, 1.0);
        let table = &self.direct_rx_table;
        if table.is_empty() {
            return (0.0, 0.0);
        }
        // Find the first entry at or above `s` (a linear scan over the 41
        // entries) and interpolate linearly from the one below it.
        let mut hi = table
            .iter()
            .position(|&(scale, _, _)| scale >= s)
            .unwrap_or(table.len() - 1);
        if hi == 0 {
            hi = 1.min(table.len() - 1);
        }
        let lo = hi.saturating_sub(1);
        let (s0, a0, c0) = table[lo];
        let (s1, a1, c1) = table[hi];
        let w = if (s1 - s0).abs() < 1e-12 {
            0.0
        } else {
            (s - s0) / (s1 - s0)
        };
        (a0 + w * (a1 - a0), c0 + w * (c1 - c0))
    }

    /// The rendered rx90 waveform (detuning baked in).
    pub fn rx90_waveform(&self, name: impl Into<Arc<str>>) -> quant_pulse::Waveform {
        self.rx90.waveform_detuned(name, self.rx90_detuning)
    }

    /// The rendered rx180 waveform (detuning baked in).
    pub fn rx180_waveform(&self, name: impl Into<Arc<str>>) -> quant_pulse::Waveform {
        self.rx180.waveform_detuned(name, self.rx180_detuning)
    }

    /// Appends the phase-corrected rx90 pulse to a schedule on `channel`,
    /// after the given barrier channels.
    pub fn append_rx90(&self, s: &mut Schedule, channel: Channel, barrier: &[Channel], name: &str) {
        append_corrected(
            s,
            self.rx90_waveform(name),
            self.rx90_phase,
            channel,
            barrier,
        );
    }

    /// Appends the phase-corrected rx180 pulse to a schedule on `channel`.
    fn append_rx180(&self, s: &mut Schedule, channel: Channel, barrier: &[Channel], name: &str) {
        append_corrected(
            s,
            self.rx180_waveform(name),
            self.rx180_phase,
            channel,
            barrier,
        );
    }
}

/// Appends `ShiftPhase(before) | Play | ShiftPhase(after)`; with the
/// integrator's frame semantics this realizes `Rz(−a)·U·Rz(−c)`.
fn append_corrected(
    s: &mut Schedule,
    waveform: quant_pulse::Waveform,
    (a, c): (f64, f64),
    channel: Channel,
    barrier: &[Channel],
) {
    s.append_after(Instruction::ShiftPhase { phase: c, channel }, barrier);
    s.append_after(Instruction::Play { waveform, channel }, barrier);
    s.append(Instruction::ShiftPhase { phase: a, channel });
}

/// Calibrated pulses for one directed coupled pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairCalibration {
    /// Control qubit.
    pub control: u32,
    /// Target qubit.
    pub target: u32,
    /// The half-echo CR pulse producing a 45° ZX rotation at positive
    /// amplitude.
    pub cr45: GaussianSquare,
    /// Residual control-Z angle of the echoed CR(−90°) block (from the
    /// surviving ZI term), compensated by a virtual-Z in the CNOT schedule.
    pub zi_residual: f64,
}

/// The longest CR half pulse an echoed `CR(θ)` block may render, in `dt`
/// samples (2²⁰ samples, ≈ 231 µs and 16 MiB).
/// [`Calibration::echoed_cr_schedule`] checks `max(1, |θ|/90°)` times the
/// calibrated 45° half's duration — an upper bound on each stretched half —
/// against it before rendering anything, so an absurd angle is an
/// [`EchoError::TooLong`], not an allocation that aborts the process. Every
/// corpus program sits far below it.
pub const MAX_CR_HALF_SAMPLES: u64 = 1 << 20;

/// Why [`Calibration::echoed_cr_schedule`] built no block.
#[derive(Clone, Debug, PartialEq)]
pub enum EchoError {
    /// The pair has no CR calibration or no control channel.
    Uncoupled,
    /// The stretched halves could exceed [`MAX_CR_HALF_SAMPLES`], or θ is
    /// NaN. Carries θ.
    TooLong(f64),
}

/// The names lowering gives one qubit's `cmd_def` pulses once rotated into
/// a virtual-Z frame ([`Waveform::scaled_complex`]'s `*z` suffix), built
/// with the `cmd_def` so that no gate formats one.
#[derive(Clone, Debug, PartialEq)]
pub struct RotatedNames {
    /// `rx90_d{q}*z`: each rx90 pulse of a `U3`.
    pub rx90: Arc<str>,
    /// `x_d{q}*z`: the rx180 pulse played as a `DirectX`.
    pub x: Arc<str>,
}

/// The result of a full device calibration.
///
/// Equality is bit-exact over every calibrated parameter (and what is
/// derived from them with `cmd_def`), which is what the determinism and
/// snapshot round-trip tests assert.
#[derive(Clone, Debug, PartialEq)]
pub struct Calibration {
    qubits: Vec<QubitCalibration>,
    pairs: Vec<PairCalibration>,
    cmd_def: CmdDef,
    /// Derived with `cmd_def`: each pair's rendered CR ramps, indexed as
    /// `pairs`, which every `CR(θ)` stretch of the pair shares.
    cr_edges: Vec<FlatTopEdges>,
    /// Derived with `cmd_def`, indexed by qubit.
    rotated_names: Vec<RotatedNames>,
    measure_duration: u64,
}

/// Options controlling calibration fidelity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CalibrationOptions {
    /// Shots per Rabi/DRAG sweep point (finite shots → fit error).
    pub shots: usize,
    /// Rabi/DRAG pulse template duration in `dt`.
    pub pulse_duration: u64,
    /// Rabi/DRAG pulse template σ in `dt`.
    pub pulse_sigma: f64,
    /// CR pulse amplitude.
    pub cr_amp: f64,
    /// CR pulse edge σ in `dt`.
    pub cr_sigma: f64,
    /// Measurement window in `dt`.
    pub measure_duration: u64,
}

impl Default for CalibrationOptions {
    fn default() -> Self {
        CalibrationOptions {
            shots: 1024,
            pulse_duration: 160,
            pulse_sigma: 40.0,
            cr_amp: 0.3,
            cr_sigma: 20.0,
            measure_duration: 16_000,
        }
    }
}

impl Calibration {
    /// The explicit calibration entry point ([`calibrate`] is the
    /// defaults-and-environment convenience): every fast-path collaborator
    /// is a parameter, so callers can pin the store, the thread count and
    /// the probe cache without touching process-global state.
    ///
    /// The tune-up itself is a two-phase fan-out over `pool`: qubits first
    /// (task `q` runs on `seeded(stream_seed(root, q))`, its sweeps batched
    /// on a nested per-task pool sized so total threads stay at
    /// `pool.threads()`), then pairs (which consume the qubit results and
    /// draw no randomness). Job `i` fills slot `i` whatever thread runs it,
    /// so the result is a function of `(device, opts, root)` alone.
    pub fn run_seeded_with(
        device: &DeviceModel,
        opts: &CalibrationOptions,
        root: u64,
        store: &CalStore,
        pool: &ShotPool,
        probes: &ProbeCache,
    ) -> Self {
        let key = snapshot_key(device, opts, root);
        if let Some(cal) = store.load(key, device) {
            return cal;
        }
        let n = device.num_qubits();
        let active = pool.threads().min(n.max(1));
        let sweep_pool = ShotPool::new((pool.threads() / active).max(1));
        let qubits = pool.map_indices(n, |q| {
            let mut rng = seeded(stream_seed(root, q as u64));
            calibrate_qubit(device, q as u32, opts, &mut rng, &sweep_pool, probes)
        });
        let pairs = pool.map(device.edges(), |_, edge| {
            calibrate_pair(device, &qubits, edge.control, edge.target, opts)
        });
        crate::twoqubit::release_scratch();
        let mut cal = Calibration::from_parts(qubits, pairs, opts.measure_duration);
        cal.rebuild_cmd_def(device);
        store.save(key, &cal);
        cal
    }

    /// Assembles a calibration from its parts with an empty `cmd_def`
    /// (callers must [`Calibration::rebuild_cmd_def`] before use).
    pub(crate) fn from_parts(
        qubits: Vec<QubitCalibration>,
        pairs: Vec<PairCalibration>,
        measure_duration: u64,
    ) -> Self {
        Calibration {
            qubits,
            pairs,
            cmd_def: CmdDef::new(),
            cr_edges: Vec::new(),
            rotated_names: Vec::new(),
            measure_duration,
        }
    }

    /// All per-qubit calibrations, indexed by qubit.
    pub fn qubits(&self) -> &[QubitCalibration] {
        &self.qubits
    }

    /// All calibrated directed pairs.
    pub fn pairs(&self) -> &[PairCalibration] {
        &self.pairs
    }

    /// Calibrated single-qubit pulses for qubit `q`.
    pub fn qubit(&self, q: u32) -> &QubitCalibration {
        &self.qubits[q as usize]
    }

    /// The backend-reported pulse library.
    pub fn cmd_def(&self) -> &CmdDef {
        &self.cmd_def
    }

    /// The pulse that the single-qubit `cmd_def` entry `gate` (`"rx90"` or
    /// `"rx180"`) plays on qubit `q`: the calibrated envelope with its
    /// detuning baked in and no frame applied. `None` when there is no
    /// such entry.
    pub fn cmd_pulse(&self, gate: &str, q: u32) -> Option<&Waveform> {
        self.cmd_def
            .get(gate, &[q])?
            .instructions()
            .iter()
            .find_map(|ti| match &ti.instruction {
                Instruction::Play { waveform, .. } => Some(waveform),
                _ => None,
            })
    }

    /// The names lowering gives qubit `q`'s rotated rx90 and DirectX
    /// pulses; `None` for a qubit the calibration does not cover.
    pub fn rotated_names(&self, q: u32) -> Option<&RotatedNames> {
        self.rotated_names.get(q as usize)
    }

    /// Measurement window in `dt`.
    pub fn measure_duration(&self) -> u64 {
        self.measure_duration
    }

    /// The echoed CR schedule for `(control, target)` with total ZX angle
    /// `theta` (radians, positive or negative), built by horizontally
    /// stretching the calibrated 45° half pulse — the paper's Optimization 3.
    ///
    /// Layout (time order, X-first as in the paper's §5.1 decomposition):
    /// `X_c | CR(θ/2)·(−sign) | X_c | CR(θ/2)·sign`, then the ZI-residual
    /// virtual-Z correction scaled by `θ/90°`. Putting the echo X *before*
    /// each CR half is what exposes the cross-gate cancellation of
    /// Optimization 2: an X gate immediately preceding the block cancels
    /// with the block's leading X pulse.
    ///
    /// An angle whose stretched halves could exceed
    /// [`MAX_CR_HALF_SAMPLES`], or a NaN angle, is an [`EchoError::TooLong`]
    /// before any sample is rendered.
    pub fn echoed_cr_schedule(
        &self,
        device: &DeviceModel,
        control: u32,
        target: u32,
        theta: f64,
    ) -> Result<Schedule, EchoError> {
        self.echoed_cr_schedule_inner(device, control, target, theta, false)
    }

    /// Like [`Calibration::echoed_cr_schedule`] but omitting the leading
    /// X pulse on the control — the §5 cross-gate cancellation form. The
    /// resulting block implements `CR(θ)·X_c` (i.e. absorbs one preceding
    /// X gate on the control).
    pub fn echoed_cr_schedule_cancelled(
        &self,
        device: &DeviceModel,
        control: u32,
        target: u32,
        theta: f64,
    ) -> Result<Schedule, EchoError> {
        self.echoed_cr_schedule_inner(device, control, target, theta, true)
    }

    /// The echo X pulses play the control's `rx180` `cmd_def` buffer; only
    /// the CR halves are rendered.
    fn echoed_cr_schedule_inner(
        &self,
        device: &DeviceModel,
        control: u32,
        target: u32,
        theta: f64,
        cancel_leading_x: bool,
    ) -> Result<Schedule, EchoError> {
        let i = self
            .pairs
            .iter()
            .position(|p| p.control == control && p.target == target)
            .ok_or(EchoError::Uncoupled)?;
        let pair = &self.pairs[i];
        let edges = self.cr_edges.get(i).ok_or(EchoError::Uncoupled)?;
        let u_ch = device
            .control_channel(control, target)
            .ok_or(EchoError::Uncoupled)?;
        let bound = (theta.abs() / FRAC_PI_2).max(1.0) * pair.cr45.duration as f64;
        if theta.is_nan() || bound > MAX_CR_HALF_SAMPLES as f64 {
            return Err(EchoError::TooLong(theta));
        }
        let xc = self
            .cmd_pulse("rx180", control)
            .ok_or(EchoError::Uncoupled)?
            .renamed("xc");
        Ok(echo_schedule(
            self.qubit(control),
            pair,
            u_ch,
            theta,
            &xc,
            &cr_halves(edges, theta),
            cancel_leading_x,
        ))
    }

    /// Builds the cmd_def entries (`rx90`, `rx180`, `cx`, `cx_cancelled`,
    /// `measure`) from the calibrated parameters. This is the one place a
    /// calibrated pulse is rendered: lowering plays these buffers for every
    /// compile against this calibration. Each pair's two CNOT forms — `cx`
    /// and `cx_cancelled`, which omits the leading echo X (the §5 cross-gate
    /// cancellation form, implementing `CX·X_c`) — share one buffer per
    /// pulse: the CR halves, the control's echo X (the `rx180` entry's) and
    /// the target's rx90 (the `rx90` entry's). A snapshot does not store
    /// `cmd_def`: it is a pure function of the parameters, which round-trip
    /// exactly, so it is rebuilt on load.
    ///
    /// The values lowering derives from the entries are built here too:
    /// each pair's CR ramps ([`FlatTopEdges`], which `cx` and every
    /// `CR(θ)` of the pair stretch) and each qubit's [`RotatedNames`].
    pub(crate) fn rebuild_cmd_def(&mut self, device: &DeviceModel) {
        self.cmd_def = CmdDef::new();
        self.cr_edges = self.pairs.iter().map(|p| p.cr45.edges()).collect();
        self.rotated_names = (0..self.qubits.len())
            .map(|q| RotatedNames {
                rx90: format!("rx90_d{q}*z").into(),
                x: format!("x_d{q}*z").into(),
            })
            .collect();
        for (q, cal) in self.qubits.iter().enumerate() {
            let q = q as u32;
            let ch = Channel::Drive(q);
            let mut s90 = Schedule::new(format!("rx90 q{q}"));
            cal.append_rx90(&mut s90, ch, &[ch], &format!("rx90_d{q}"));
            self.cmd_def.insert(CmdKey::new("rx90", &[q]), s90);

            let mut s180 = Schedule::new(format!("rx180 q{q}"));
            cal.append_rx180(&mut s180, ch, &[ch], &format!("rx180_d{q}"));
            self.cmd_def.insert(CmdKey::new("rx180", &[q]), s180);

            let mut meas = Schedule::new(format!("measure q{q}"));
            meas.append(Instruction::Acquire {
                duration: self.measure_duration,
                qubit: q,
                channel: Channel::Acquire(q),
            });
            self.cmd_def.insert(CmdKey::new("measure", &[q]), meas);
        }
        for (pair, edges) in self.pairs.iter().zip(&self.cr_edges) {
            let (c, t) = (pair.control, pair.target);
            let (Some(u_ch), Some(xc), Some(rx90)) = (
                device.control_channel(c, t),
                self.cmd_pulse("rx180", c).map(|w| w.renamed("xc")),
                self.cmd_pulse("rx90", t).cloned(),
            ) else {
                continue;
            };
            let cr = cr_halves(edges, -FRAC_PI_2);
            let barrier = [Channel::Drive(c), Channel::Drive(t), u_ch];
            // CNOT = Rz_c(90°)·Rx90_t·CR(−90°) up to global phase.
            let [plain, cancelled] = [false, true].map(|cancel_leading_x| {
                let qc = &self.qubits[c as usize];
                let mut s = echo_schedule(qc, pair, u_ch, -FRAC_PI_2, &xc, &cr, cancel_leading_x);
                let rx90_phase = self.qubits[t as usize].rx90_phase;
                append_corrected(
                    &mut s,
                    rx90.clone(),
                    rx90_phase,
                    Channel::Drive(t),
                    &barrier,
                );
                // Virtual Rz(90°) on the control: ShiftPhase(−π/2).
                s.append(Instruction::ShiftPhase {
                    phase: -FRAC_PI_2,
                    channel: Channel::Drive(c),
                });
                s.named(format!("cx q{c},q{t}"))
            });
            self.cmd_def.insert(CmdKey::new("cx", &[c, t]), plain);
            self.cmd_def
                .insert(CmdKey::new("cx_cancelled", &[c, t]), cancelled);
        }
    }
}

/// Rabi + DRAG tune-up for one qubit.
///
/// As on hardware: (1) a coarse Rabi amplitude sweep fit to a cosine; (2) a
/// fine amplitude + detuning solve of the π pulse ([`tune_pulse`]); (3) a
/// DRAG β sweep minimizing leakage; (4) both pulses re-solved at that β.
/// The device's documented calibration residual
/// (`DriftParams::cal_amp_sigma`) is injected on top, since our simulated
/// sweeps are otherwise more precise than a real lab's.
///
/// Two fast-path hooks thread through every probe:
///
/// * **Sweep batching.** Fixed sweeps (the 41-point Rabi, the 21-point
///   DRAG, the 40 `direct_rx_table` points) integrate their *noiseless*
///   physics on `pool`, then apply the per-point shot noise serially in
///   index order from this qubit's own `rng` stream. [`quant_math::normal`]
///   consumes draws independently of its arguments, so the stream is
///   bit-identical to the fully serial order at any thread count.
/// * **Probe memoization.** All noiseless integrations go through
///   `probes`. Solve inputs are snapped with [`quantize_probe`] *before*
///   rendering, so a converged solve's sub-grid steps hit the cache; a
///   qubit integrates ~150 distinct probes. Final pulse parameters are the
///   raw solve outputs — quantization touches probes only.
fn calibrate_qubit(
    device: &DeviceModel,
    q: u32,
    opts: &CalibrationOptions,
    rng: &mut impl Rng,
    pool: &ShotPool,
    probes: &ProbeCache,
) -> QubitCalibration {
    let transmon = device.transmon_cal(q);
    let mk = |amp: f64, beta: f64| Drag {
        duration: opts.pulse_duration,
        amp,
        sigma: opts.pulse_sigma,
        beta,
    };
    let integrate = |w: &quant_pulse::Waveform| {
        probes.get_or_integrate(probe_key(transmon.params(), w), || {
            transmon.integrate_waveform(w)
        })
    };

    // --- Coarse Rabi amplitude sweep ------------------------------------
    // Stay below ~0.45 amplitude: at stronger drives the |2⟩ level Stark-
    // shifts the effective Rabi rate and biases the fit.
    let amps: Vec<f64> = (1..=41).map(|i| quantize_probe(i as f64 * 0.011)).collect();
    let clean: Vec<f64> = pool.map(&amps, |_, &amp| {
        integrate(&mk(amp, 0.0).waveform("rabi")).unitary[(1, 0)].norm_sqr()
    });
    let pops: Vec<f64> = clean
        .iter()
        .map(|&p| {
            let sigma = (p * (1.0 - p) / opts.shots as f64).sqrt();
            (p + normal(rng, 0.0, sigma)).clamp(0.0, 1.0)
        })
        .collect();
    // P(amp) = ½(1 − cos(2π·amp/period)); the π amplitude is period/2.
    let fit = fit_cosine(&amps, &pops, (0.15, 1.2));
    let coarse_180 = fit.period / 2.0;

    // --- Fine amplitude + frequency tune-up -------------------------------
    // At π-pulse drive strength the AC-Stark shift tilts the rotation axis
    // out of the XY plane, and the angle saturates below the target. Labs
    // calibrate a small carrier detuning alongside the amplitude; one probe
    // gives both the angle and the tilt, so `tune_pulse` solves for both.
    let (amp180_b0, det180_b0) = tune_pulse(&integrate, mk(coarse_180, 0.0), PI);

    // --- DRAG β sweep -----------------------------------------------------
    let beta_mag = 1.0 / (TAU * device.qubit(q).alpha.abs()) / DT;
    let betas: Vec<f64> = (-10..=10).map(|i| beta_mag * i as f64 / 5.0).collect();
    let (amp_d, det_d) = (quantize_probe(amp180_b0), quantize_probe(det180_b0));
    let leaks: Vec<f64> = pool.map(&betas, |_, &beta| {
        integrate(&mk(amp_d, quantize_probe(beta)).waveform_detuned("drag", det_d))
            .leakage_from_ground()
    });
    let mut best = (0.0_f64, f64::INFINITY);
    for (&beta, &clean_leak) in betas.iter().zip(&leaks) {
        let leak = clean_leak + normal(rng, 0.0, 0.01 / opts.shots as f64).abs();
        if leak < best.1 {
            best = (beta, leak);
        }
    }
    let beta = best.0;

    // --- Re-solve amplitude/detuning with the chosen β ---------------------
    // DRAG's derivative component shifts both the effective angle and the
    // Stark offset, so the final amplitude/detuning must be tuned with β in
    // place. Both solves start from the Rabi fit again.
    let (amp180, det180) = tune_pulse(&integrate, mk(coarse_180, beta), PI);
    let (amp90, det90) = tune_pulse(&integrate, mk(coarse_180 / 2.0, beta), FRAC_PI_2);

    // --- Residual calibration error --------------------------------------
    let sigma = device.drift().cal_amp_sigma;
    let amp180 = amp180 * (1.0 + normal(rng, 0.0, sigma));
    let amp90 = amp90 * (1.0 + normal(rng, 0.0, sigma));
    let rx90 = mk(amp90, beta);
    let rx180 = mk(amp180, beta);

    // --- Empirical phase correction (§4.4) --------------------------------
    // Tomography of the calibrated pulse → ZXZ Euler form; the Z factors
    // are compensated with virtual-Z frame changes. A small tomography
    // noise floor is left in.
    let mut measure_phases = |pulse: &Drag, det: f64| -> (f64, f64) {
        let u = integrate(&pulse.waveform_detuned("tomo", det)).qubit_block();
        let (a, _theta, c) = quant_sim::euler_zxz(&u);
        (a + normal(rng, 0.0, 2e-3), c + normal(rng, 0.0, 2e-3))
    };
    let rx90_phase = measure_phases(&rx90, det90);
    let rx180_phase = measure_phases(&rx180, det180);

    // --- DirectRx(θ) characterization table (Fig. 7) ----------------------
    // Scale the calibrated π pulse down by s = 0/40 … 40/40 and record the
    // tomography-measured ZXZ phase corrections at each point.
    let base = rx180.waveform_detuned("scaled", det180);
    let corrections = pool.map_indices(40, |j| {
        let s = (j + 1) as f64 / 40.0;
        let u = integrate(&base.scaled(s)).qubit_block();
        let (a, _theta, c) = quant_sim::euler_zxz(&u);
        (s, a, c)
    });
    let mut direct_rx_table = Vec::with_capacity(41);
    direct_rx_table.push((0.0, 0.0, 0.0));
    for (s, a, c) in corrections {
        direct_rx_table.push((s, a + normal(rng, 0.0, 2e-3), c + normal(rng, 0.0, 2e-3)));
    }

    QubitCalibration {
        rx90,
        rx180,
        rx90_phase,
        rx180_phase,
        rx90_detuning: det90,
        rx180_detuning: det180,
        direct_rx_table,
    }
}

/// Tunes a DRAG pulse's amplitude and carrier detuning so its noiseless
/// qubit block rotates by `target` about an axis in the XY plane: a 2-D
/// Newton solve from `(start.amp, 0)` on the two [`rotation_residual`]s,
/// `start.beta` fixed. The Jacobian is a forward difference (steps
/// `1e-5·amp`, `1e-6` rad/dt), and a step that does not lower the residual
/// norm is halved, up to eight times. It stops after 12 iterations, below
/// `1e-12` on both residuals, when no halving helps, or at a singular or
/// non-finite Jacobian, returning the best raw (unquantized) point. Probes
/// outside the bracket `amp/start.amp ∈ [0.8, 1.3]`, `|det| ≤ 4·10⁻³` count
/// as infinite and are never rendered, so no start renders an over-range
/// waveform.
pub(crate) fn tune_pulse(
    integrate: &impl Fn(&quant_pulse::Waveform) -> FrameResult,
    start: Drag,
    target: f64,
) -> (f64, f64) {
    let residual = |amp: f64, det: f64| -> [f64; 2] {
        let ratio = amp / start.amp;
        if !((0.8..=1.3).contains(&ratio) && det.abs() <= 4.0e-3) {
            return [f64::INFINITY; 2];
        }
        let pulse = Drag {
            amp: quantize_probe(amp),
            beta: quantize_probe(start.beta),
            ..start
        };
        let w = pulse.waveform_detuned("p", quantize_probe(det));
        rotation_residual(&integrate(&w).qubit_block(), target)
    };
    let norm = |r: [f64; 2]| r[0].hypot(r[1]);
    let (mut amp, mut det) = (start.amp, 0.0);
    let mut r = residual(amp, det);
    for _ in 0..12 {
        if r[0].abs() < 1e-12 && r[1].abs() < 1e-12 {
            break;
        }
        let (ha, hd) = (1e-5 * amp, 1e-6);
        let (ra, rd) = (residual(amp + ha, det), residual(amp, det + hd));
        let j = [
            [(ra[0] - r[0]) / ha, (rd[0] - r[0]) / hd],
            [(ra[1] - r[1]) / ha, (rd[1] - r[1]) / hd],
        ];
        let jdet = j[0][0] * j[1][1] - j[0][1] * j[1][0];
        if !jdet.is_normal() {
            break;
        }
        let step_amp = (j[0][1] * r[1] - j[1][1] * r[0]) / jdet;
        let step_det = (j[1][0] * r[0] - j[0][0] * r[1]) / jdet;
        let accepted = (0..=8).find_map(|k| {
            let t = 0.5_f64.powi(k);
            let (a, d) = (amp + t * step_amp, det + t * step_det);
            let rt = residual(a, d);
            (norm(rt) < norm(r)).then_some((a, d, rt))
        });
        let Some((a, d, rt)) = accepted else {
            break;
        };
        (amp, det, r) = (a, d, rt);
    }
    (amp, det)
}

/// What [`tune_pulse`] drives to zero in a qubit block `U`: both parts of
/// `U₀₀` for a π rotation (the ZXZ angle peaks at π, so it has no sign
/// change to solve for), else the ZXZ angle error and the axis tilt.
fn rotation_residual(u: &CMat, target: f64) -> [f64; 2] {
    if target >= PI {
        let u00 = u[(0, 0)];
        return [u00.re, u00.im];
    }
    [quant_sim::euler_zxz(u).1 - target, axis_tilt(u)]
}

/// `Im α` for `α = ±U₀₀/√det U` with `Re α ≥ 0`. A rotation by θ about the
/// unit axis `n` has `α = cos(θ/2) − i·n_z·sin(θ/2)`: this is the tilt.
fn axis_tilt(u: &CMat) -> f64 {
    let alpha = u[(0, 0)] / u.det().sqrt();
    alpha.im * alpha.re.signum()
}

/// CR tune-up for one directed pair: find the flat-top width of the 45°
/// half pulse, then measure the echoed block's ZI residual.
fn calibrate_pair(
    device: &DeviceModel,
    qubit_cals: &[QubitCalibration],
    control: u32,
    target: u32,
    opts: &CalibrationOptions,
) -> PairCalibration {
    let pair = device.pair_cal(control, target).expect("coupled pair");
    let u_ch = device.control_channel(control, target).unwrap();
    let d_c = Channel::Drive(control);
    let d_t = Channel::Drive(target);

    // Probe pulse → ZX angle per unit area.
    let probe = GaussianSquare {
        duration: 8 * opts.cr_sigma as u64 + 300,
        amp: opts.cr_amp,
        sigma: opts.cr_sigma,
        width: 300,
    };
    let mut s = Schedule::new("probe");
    s.append(Instruction::Play {
        waveform: probe.waveform("probe"),
        channel: u_ch,
    });
    let r = pair.integrate(&s, d_c, d_t, u_ch);
    let theta_probe = extract_zx_angle(&r.unitary);
    let area_probe = probe.waveform("probe").area().re;
    let rad_per_area = theta_probe / area_probe;

    // Solve the width for a 45° rotation.
    let target_area = FRAC_PI_4 / rad_per_area;
    let edge = GaussianSquare {
        width: 0,
        duration: 8 * opts.cr_sigma as u64,
        ..probe
    };
    let edge_area = edge.waveform("edge").area().re;
    let width_for_area =
        |area: f64| -> u64 { ((area - edge_area) / opts.cr_amp).max(0.0).round() as u64 };
    let mk_cr45 = |width: u64| GaussianSquare {
        duration: 8 * opts.cr_sigma as u64 + width,
        amp: opts.cr_amp,
        sigma: opts.cr_sigma,
        width,
    };
    let mut area = target_area;
    let mut cr45 = mk_cr45(width_for_area(area));

    // Refine: measure the full echoed block's ZX angle and rescale the
    // half-pulse area until it hits 90° (two Newton steps suffice). The
    // trial pair carries no ZI correction yet.
    let echo = |cr45: GaussianSquare, theta: f64| {
        let trial = PairCalibration {
            control,
            target,
            cr45,
            zi_residual: 0.0,
        };
        let qc = &qubit_cals[control as usize];
        let (xc, cr) = (qc.rx180_waveform("xc"), cr_halves(&cr45.edges(), theta));
        let s = echo_schedule(qc, &trial, u_ch, theta, &xc, &cr, false);
        pair.integrate(&s, d_c, d_t, u_ch)
    };
    for _ in 0..2 {
        let measured = extract_zx_angle(&echo(cr45, FRAC_PI_2).unitary);
        if measured.abs() < 1e-6 {
            break;
        }
        area *= FRAC_PI_2 / measured;
        cr45 = mk_cr45(width_for_area(area));
    }

    // Measure the echoed CR(−90°) block's residual control-Z.
    let r = echo(cr45, -FRAC_PI_2);
    PairCalibration {
        control,
        target,
        cr45,
        zi_residual: extract_control_z(&r.corrected_unitary(), -FRAC_PI_2),
    }
}

/// The two CR halves of the echoed CR(θ) block of a pair whose calibrated
/// 45° half has the ramps `edges`, in time order: that half stretched to
/// `θ`, scaled by `−sign θ`, then `+sign θ` — U = CR(s)·X·CR(−s)·X = CR(2s)
/// with s = sign·θ/2. Each half is written straight at its sign from the
/// stored ramps (the samples, peaks and names of one render scaled twice);
/// a small-angle half, which shrinks the amplitude, is rendered once and
/// scaled.
fn cr_halves(edges: &FlatTopEdges, theta: f64) -> [Waveform; 2] {
    let factor = theta.abs() / FRAC_PI_2; // relative to the 90° echo
    let sign = if theta >= 0.0 { 1.0 } else { -1.0 };
    edges.render_scaled(&edges.stretched_area(factor), "cr_half", [-sign, sign])
}

/// The echoed CR block of [`Calibration::echoed_cr_schedule`] for `pair`:
/// the control's echo X `xc` (both echo pulses play it, wrapped in its
/// rx180 phase correction from `qc`) and the [`cr_halves`] `cr` for the
/// same `theta` on `u_ch`.
fn echo_schedule(
    qc: &QubitCalibration,
    pair: &PairCalibration,
    u_ch: Channel,
    theta: f64,
    xc: &Waveform,
    cr: &[Waveform; 2],
    cancel_leading_x: bool,
) -> Schedule {
    let (control, target) = (pair.control, pair.target);
    let d_c = Channel::Drive(control);
    let barrier = [d_c, u_ch, Channel::Drive(target)];
    let [first, second] = cr;

    let mut s = Schedule::new(format!("cr({theta:.3}) q{control},q{target}"));
    if !cancel_leading_x {
        append_corrected(&mut s, xc.clone(), qc.rx180_phase, d_c, &barrier);
    }
    s.append_after(
        Instruction::Play {
            waveform: first.clone(),
            channel: u_ch,
        },
        &barrier,
    );
    append_corrected(&mut s, xc.clone(), qc.rx180_phase, d_c, &barrier);
    s.append_after(
        Instruction::Play {
            waveform: second.clone(),
            channel: u_ch,
        },
        &barrier,
    );
    // ZI residual scales with the stretched area.
    let correction = -pair.zi_residual * (theta / -FRAC_PI_2);
    s.append(Instruction::ShiftPhase {
        phase: -correction,
        channel: d_c,
    });
    s
}

/// One-call convenience: calibrate with default options, the snapshot
/// store and thread pool taken from the environment (`OPC_CAL_CACHE`,
/// `OPC_THREADS`) and a fresh, enabled probe cache.
///
/// Draws exactly one root seed from `rng` (on cache hit *and* miss, so
/// the caller's stream continues identically either way) and hands it to
/// [`Calibration::run_seeded_with`]: every tune-up task derives its own
/// RNG stream from the root, so the result is bit-identical at any
/// `OPC_THREADS` value.
pub fn calibrate(device: &DeviceModel, rng: &mut impl Rng) -> Calibration {
    Calibration::run_seeded_with(
        device,
        &CalibrationOptions::default(),
        rng.gen(),
        &CalStore::from_env(),
        &ShotPool::from_env(),
        &ProbeCache::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant_math::seeded;
    use quant_sim::gates;

    #[test]
    fn rabi_calibration_finds_pi_amplitude() {
        let device = DeviceModel::ideal(1);
        let mut rng = seeded(7);
        let cal = calibrate(&device, &mut rng);
        let q = cal.qubit(0);
        // The calibrated π pulse should actually produce a π rotation.
        let t = device.transmon_cal(0);
        let pop = t.excited_population(&q.rx180_waveform("x"));
        assert!(pop > 0.999, "π-pulse population = {pop}");
        let pop90 = t.excited_population(&q.rx90_waveform("h"));
        assert!((pop90 - 0.5).abs() < 0.01, "π/2 population = {pop90}");
    }

    #[test]
    fn rx180_is_roughly_twice_rx90_amplitude() {
        let device = DeviceModel::ideal(1);
        let mut rng = seeded(8);
        let cal = calibrate(&device, &mut rng);
        let q = cal.qubit(0);
        // The fine-cal stages tune the two independently (two π/2 pulses
        // must invert), so the ratio is ≈ 2 but not exactly 2.
        assert!((q.rx180.amp / q.rx90.amp - 2.0).abs() < 0.05);
        assert_eq!(q.rx180.duration, q.rx90.duration);
    }

    #[test]
    fn calibrated_x_gate_unitary() {
        let device = DeviceModel::ideal(1);
        let mut rng = seeded(9);
        let cal = calibrate(&device, &mut rng);
        let t = device.transmon_cal(0);
        // The cmd_def entry carries the empirical phase correction.
        let s = cal.cmd_def().get("rx180", &[0]).unwrap();
        let r = t.integrate(s, Channel::Drive(0));
        let diff = r.qubit_block().phase_invariant_diff(&gates::x());
        assert!(diff < 0.01, "DirectX diff = {diff}");

        let s90 = cal.cmd_def().get("rx90", &[0]).unwrap();
        let r90 = t.integrate(s90, Channel::Drive(0));
        let diff90 = r90
            .qubit_block()
            .phase_invariant_diff(&gates::rx(std::f64::consts::FRAC_PI_2));
        assert!(diff90 < 0.01, "rx90 diff = {diff90}");
    }

    #[test]
    fn cmd_def_has_all_primitives() {
        let mut rng = seeded(10);
        let device = DeviceModel::almaden_like(3, &mut rng);
        let cal = calibrate(&device, &mut rng);
        let def = cal.cmd_def();
        for q in 0..3 {
            assert!(def.contains("rx90", &[q]));
            assert!(def.contains("rx180", &[q]));
            assert!(def.contains("measure", &[q]));
        }
        assert!(def.contains("cx", &[0, 1]));
        assert!(def.contains("cx", &[1, 0]));
        assert!(def.contains("cx", &[1, 2]));
        assert!(!def.contains("cx", &[0, 2]));
    }

    /// Every `Play` of `s` on `channel`, in time order.
    fn plays(s: &Schedule, channel: Channel) -> Vec<&Waveform> {
        s.instructions()
            .iter()
            .filter_map(|ti| match &ti.instruction {
                Instruction::Play {
                    waveform,
                    channel: ch,
                } if *ch == channel => Some(waveform),
                _ => None,
            })
            .collect()
    }

    /// Each pair's `cx` and `cx_cancelled` entries play one buffer per
    /// pulse: the CR halves shared between the forms, every echo X the
    /// control's `rx180` entry and the target rx90 the target's `rx90`.
    fn assert_cnot_forms_shared(device: &DeviceModel, cal: &Calibration) {
        let def = cal.cmd_def();
        assert!(!cal.pairs().is_empty());
        for pair in cal.pairs() {
            let (c, t) = (pair.control, pair.target);
            let u_ch = device.control_channel(c, t).unwrap();
            let plain = def.get("cx", &[c, t]).unwrap();
            let cancelled = def.get("cx_cancelled", &[c, t]).unwrap();
            let (cr, cr_cancelled) = (plays(plain, u_ch), plays(cancelled, u_ch));
            assert_eq!((cr.len(), cr_cancelled.len()), (2, 2));
            for (a, b) in cr.iter().zip(&cr_cancelled) {
                assert!(
                    a.shares_samples(b),
                    "q{c},q{t}: CR half {} copied",
                    a.name()
                );
            }
            let xc = cal.cmd_pulse("rx180", c).unwrap();
            let (x, x_cancelled) = (
                plays(plain, Channel::Drive(c)),
                plays(cancelled, Channel::Drive(c)),
            );
            assert_eq!(
                (x.len(), x_cancelled.len()),
                (2, 1),
                "the cancelled form drops one X"
            );
            assert!(x.iter().chain(&x_cancelled).all(|w| w.shares_samples(xc)));
            let rx90 = cal.cmd_pulse("rx90", t).unwrap();
            for s in [plain, cancelled] {
                let r = plays(s, Channel::Drive(t));
                assert!(r.len() == 1 && r[0].shares_samples(rx90));
            }
        }
    }

    #[test]
    fn cnot_forms_share_every_buffer() {
        let mut rng = seeded(10);
        let device = DeviceModel::almaden_like(3, &mut rng);
        let cal = calibrate(&device, &mut rng);
        assert_cnot_forms_shared(&device, &cal);
        // The pulse entries are the calibrated envelopes, rendered fresh.
        for q in 0..3 {
            let qc = cal.qubit(q);
            assert_eq!(
                cal.cmd_pulse("rx90", q),
                Some(&qc.rx90_waveform(format!("rx90_d{q}")))
            );
            assert_eq!(
                cal.cmd_pulse("rx180", q),
                Some(&qc.rx180_waveform(format!("rx180_d{q}")))
            );
        }
    }

    #[test]
    fn snapshot_reload_rebuilds_an_equal_shared_cmd_def() {
        let mut rng = seeded(10);
        let device = DeviceModel::almaden_like(3, &mut rng);
        let cal = calibrate(&device, &mut rng);
        let dir = std::env::temp_dir().join(format!("opc-cmd-def-{}", std::process::id()));
        let store = CalStore::at(&dir);
        store.save(1, &cal);
        let loaded = store.load(1, &device);
        let _ = std::fs::remove_dir_all(&dir);
        let loaded = loaded.expect("snapshot reloads");
        assert_eq!(loaded, cal);
        assert_cnot_forms_shared(&device, &loaded);
        // The reload rendered its own buffers.
        let (a, b) = (loaded.cmd_pulse("rx180", 0), cal.cmd_pulse("rx180", 0));
        assert!(!a.unwrap().shares_samples(b.unwrap()));
    }

    #[test]
    fn calibrated_cnot_matches_ideal() {
        let device = DeviceModel::ideal(2);
        let mut rng = seeded(11);
        let cal = calibrate(&device, &mut rng);
        let s = cal.cmd_def().get("cx", &[0, 1]).unwrap();
        let pair = device.pair_cal(0, 1).unwrap();
        let r = pair.integrate(
            s,
            Channel::Drive(0),
            Channel::Drive(1),
            device.control_channel(0, 1).unwrap(),
        );
        let u = r.corrected_unitary();
        let diff = u.phase_invariant_diff(&gates::cnot());
        assert!(diff < 0.06, "CNOT diff = {diff}");
    }

    #[test]
    fn echoed_cr_schedule_hits_requested_angle() {
        let device = DeviceModel::ideal(2);
        let mut rng = seeded(12);
        let cal = calibrate(&device, &mut rng);
        let pair = device.pair_cal(0, 1).unwrap();
        for theta in [FRAC_PI_4, FRAC_PI_2, 1.2] {
            let s = cal.echoed_cr_schedule(&device, 0, 1, theta).unwrap();
            let r = pair.integrate(
                &s,
                Channel::Drive(0),
                Channel::Drive(1),
                device.control_channel(0, 1).unwrap(),
            );
            let got = extract_zx_angle(&r.unitary);
            assert!((got - theta).abs() < 0.05, "θ = {theta}: extracted {got}");
        }
    }

    #[test]
    fn cr_stretch_shortens_small_angles() {
        // CR(θ) for θ < 90° is *shorter* than CR(90°) — the paper's ~2×
        // duration win for ZZ interactions.
        let device = DeviceModel::ideal(2);
        let mut rng = seeded(13);
        let cal = calibrate(&device, &mut rng);
        let dur = |theta: f64| {
            cal.echoed_cr_schedule(&device, 0, 1, theta)
                .unwrap()
                .duration()
        };
        assert!(dur(FRAC_PI_4) < dur(FRAC_PI_2));
        assert!(dur(0.2) < dur(FRAC_PI_4));
    }

    #[test]
    fn oversized_cr_is_refused_before_rendering() {
        // θ = 1e7 would stretch each half to ~76 GB of samples.
        let device = DeviceModel::ideal(2);
        let cal = calibrate(&device, &mut seeded(13));
        for theta in [1e7, -1e7, f64::INFINITY, f64::NAN] {
            for cancelled in [false, true] {
                let got = if cancelled {
                    cal.echoed_cr_schedule_cancelled(&device, 0, 1, theta)
                } else {
                    cal.echoed_cr_schedule(&device, 0, 1, theta)
                };
                match got {
                    Err(EchoError::TooLong(t)) => assert_eq!(t.to_bits(), theta.to_bits()),
                    other => panic!("CR({theta}): expected TooLong, got {other:?}"),
                }
            }
        }
        assert_eq!(
            cal.echoed_cr_schedule(&device, 0, 7, 1e7).err(),
            Some(EchoError::Uncoupled)
        );
        assert!(cal.echoed_cr_schedule(&device, 0, 1, 100.0).is_ok());
    }

    /// The CR halves as they were rendered before the calibration kept
    /// each pair's ramps: the edges-only waveform for the area, the full
    /// `GaussianSquare::waveform` of the stretch, then `.scaled(∓1)` and
    /// `.scaled(±1)` of that one render. The oracle for [`cr_halves`].
    fn cr_halves_oracle(cr45: GaussianSquare, theta: f64) -> [Waveform; 2] {
        let factor = theta.abs() / FRAC_PI_2;
        let sign = if theta >= 0.0 { 1.0 } else { -1.0 };
        let no_top = GaussianSquare {
            width: 0,
            duration: cr45.duration - cr45.width,
            ..cr45
        };
        let edge_area = no_top.waveform("edges").area().re;
        let target = (edge_area + cr45.width as f64 * cr45.amp) * factor;
        let stretched = if target < edge_area {
            GaussianSquare {
                amp: cr45.amp * target / edge_area,
                ..no_top
            }
        } else {
            let width = ((target - edge_area) / cr45.amp).round().max(0.0) as u64;
            GaussianSquare {
                duration: cr45.duration - cr45.width + width,
                width,
                ..cr45
            }
        };
        let half = stretched.waveform("cr_half");
        [half.scaled(-sign), half.scaled(sign)]
    }

    /// Samples, peak and name of two waveforms, bit for bit.
    fn assert_same_render(got: &Waveform, want: &Waveform, what: &str) {
        assert_eq!(got.name(), want.name(), "{what}");
        assert_eq!(got.peak().to_bits(), want.peak().to_bits(), "{what}: peak");
        assert_eq!(got.duration(), want.duration(), "{what}: duration");
        let same = got
            .samples()
            .iter()
            .zip(want.samples())
            .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
        assert!(same, "{what}: samples differ");
    }

    /// Angles over both branches of the stretch: zero, small angles that
    /// shrink the amplitude, and stretches past 90° in both signs.
    const THETA_SWEEP: [f64; 12] = [
        0.0, -0.0, 1e-6, -0.01, 0.1, -0.25, 0.4, -FRAC_PI_4, FRAC_PI_2, -FRAC_PI_2, PI, -2.7,
    ];

    #[test]
    fn cr_halves_match_the_per_call_render() {
        let mut rng = seeded(21);
        let device = DeviceModel::almaden_like(2, &mut rng);
        let cal = calibrate(&device, &mut rng);
        let calibrated = cal.pairs()[0].cr45;
        // An odd `duration − width`: the ramps meet the flat top at half
        // samples.
        let odd = GaussianSquare {
            duration: calibrated.duration + 1,
            ..calibrated
        };
        assert_eq!((odd.duration - odd.width) % 2, 1);
        for cr45 in [calibrated, odd] {
            let edges = cr45.edges();
            // Just under the `MAX_CR_HALF_SAMPLES` bound of
            // `echoed_cr_schedule`.
            let near_max = MAX_CR_HALF_SAMPLES as f64 / cr45.duration as f64 * FRAC_PI_2 * 0.999;
            for theta in THETA_SWEEP.into_iter().chain([near_max, -near_max]) {
                let got = cr_halves(&edges, theta);
                let want = cr_halves_oracle(cr45, theta);
                for (g, w) in got.iter().zip(&want) {
                    assert_same_render(g, w, &format!("{cr45:?} θ={theta}"));
                }
            }
        }
    }

    #[test]
    fn echoed_cr_blocks_match_the_per_call_render() {
        let mut rng = seeded(22);
        let device = DeviceModel::almaden_like(3, &mut rng);
        let cal = calibrate(&device, &mut rng);
        for pair in cal.pairs() {
            let (c, t) = (pair.control, pair.target);
            let u_ch = device.control_channel(c, t).unwrap();
            let xc = cal.cmd_pulse("rx180", c).unwrap().renamed("xc");
            for theta in THETA_SWEEP {
                for cancel in [false, true] {
                    let got = if cancel {
                        cal.echoed_cr_schedule_cancelled(&device, c, t, theta)
                    } else {
                        cal.echoed_cr_schedule(&device, c, t, theta)
                    }
                    .unwrap();
                    let halves = cr_halves_oracle(pair.cr45, theta);
                    let want = echo_schedule(cal.qubit(c), pair, u_ch, theta, &xc, &halves, cancel);
                    let what = format!("q{c},q{t} θ={theta} cancel={cancel}");
                    assert_eq!(got, want, "{what}");
                    let (got_cr, want_cr) = (plays(&got, u_ch), plays(&want, u_ch));
                    assert_eq!(got_cr.len(), 2, "{what}");
                    for (g, w) in got_cr.iter().zip(&want_cr) {
                        assert_same_render(g, w, &what);
                    }
                }
            }
        }
    }

    /// Angle error and axis tilt of a pulse's noiseless qubit block. The
    /// angle is `euler_zxz`'s `2·atan2(|U₁₀|, |U₀₀|)`, computed here without
    /// its snap to exactly π when `|U₀₀| < 1e-9`.
    fn rotation_error(t: &crate::Transmon, pulse: Drag, det: f64, target: f64) -> (f64, f64) {
        let u = t
            .integrate_waveform(&pulse.waveform_detuned("q", det))
            .qubit_block();
        let theta = 2.0 * u[(1, 0)].abs().atan2(u[(0, 0)].abs());
        ((theta - target).abs(), axis_tilt(&u).abs())
    }

    #[test]
    fn tune_pulse_hits_angle_and_axis_on_every_qubit() {
        let opts = CalibrationOptions::default();
        let mk = |amp: f64, beta: f64| Drag {
            duration: opts.pulse_duration,
            amp,
            sigma: opts.pulse_sigma,
            beta,
        };
        for n in [2, 6, 10] {
            let device = DeviceModel::almaden_like(n, &mut seeded(7));
            for q in 0..n as u32 {
                let t = device.transmon_cal(q);
                let integrate = |w: &quant_pulse::Waveform| t.integrate_waveform(w);
                // Start where calibrate_qubit does: the π amplitude of a
                // (here noiseless) Rabi fit.
                let amps: Vec<f64> = (1..=41).map(|i| i as f64 * 0.011).collect();
                let pops: Vec<f64> = amps
                    .iter()
                    .map(|&a| integrate(&mk(a, 0.0).waveform("rabi")).unitary[(1, 0)].norm_sqr())
                    .collect();
                let pi_amp = fit_cosine(&amps, &pops, (0.15, 1.2)).period / 2.0;
                let beta_mag = 1.0 / (TAU * device.qubit(q).alpha.abs()) / DT;
                for beta in [0.0, 0.4 * beta_mag, -0.4 * beta_mag] {
                    for (target, start) in [(PI, pi_amp), (FRAC_PI_2, pi_amp / 2.0)] {
                        let (amp, det) = tune_pulse(&integrate, mk(start, beta), target);
                        let (err, tilt) = rotation_error(&t, mk(amp, beta), det, target);
                        assert!(
                            err <= 1e-8 && tilt <= 1e-8,
                            "n={n} q{q} β={beta:.3} target={target:.4}: \
                             angle error {err:.2e}, tilt {tilt:.2e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tune_pulse_survives_a_degenerate_start() {
        // A zero start amplitude makes the forward-difference Jacobian
        // singular (its amplitude step is zero); a NaN start makes every
        // residual non-finite. Both return without panicking.
        let device = DeviceModel::ideal(1);
        let t = device.transmon_cal(0);
        let integrate = |w: &quant_pulse::Waveform| t.integrate_waveform(w);
        let zero = Drag {
            duration: 160,
            amp: 0.0,
            sigma: 40.0,
            beta: 0.0,
        };
        for target in [PI, FRAC_PI_2] {
            assert_eq!(tune_pulse(&integrate, zero, target), (0.0, 0.0));
            let nan = Drag {
                amp: f64::NAN,
                ..zero
            };
            let (amp, det) = tune_pulse(&integrate, nan, target);
            assert!(amp.is_nan() && det == 0.0);
        }
    }

    #[test]
    fn calibration_with_noise_still_close() {
        let mut rng = seeded(14);
        let device = DeviceModel::almaden_like(2, &mut rng);
        let cal = calibrate(&device, &mut rng);
        // Calibrated π pulse on the *calibration-time* device is nearly
        // exact despite finite shots.
        let t = device.transmon_cal(0);
        let pop = t.excited_population(&cal.qubit(0).rx180.waveform("x"));
        assert!(pop > 0.99, "π-pulse population = {pop}");
    }
}
