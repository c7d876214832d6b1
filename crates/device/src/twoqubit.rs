//! Pulse-level integration of a coupled transmon pair under
//! cross-resonance drive.
//!
//! We use the effective-Hamiltonian model of Magesan & Gambetta
//! (arXiv:1804.04073), which the paper's own §5–6 analysis is phrased in:
//! driving the *control* qubit at the *target's* frequency produces
//!
//! ```text
//! H_eff(t)/ħ = 2π·a(t)·( zx/2·Z⊗X + ix/2·I⊗X + zi/2·Z⊗I ) + 2π·zz/4·Z⊗Z
//! ```
//!
//! with rates proportional to the control-channel amplitude `a(t)`. The
//! spurious IX and ZI terms are what forces the "echoed" CR construction
//! (two half pulses of opposite sign separated by an X on the control): the
//! echo flips the sign of every Z⊗·-conditioned term while the amplitude
//! sign flip restores ZX and cancels IX.
//!
//! The pair is integrated in the 9-dimensional two-qutrit space (index
//! `control + 3·target`): each qubit's drive channel sees its full
//! three-level ladder, and the CR terms act on the qubit subspace. Single-
//! qubit pulses on the pair's drive channels are integrated in the same
//! pass, so a complete CNOT pulse schedule — CR halves, echo X pulses,
//! target Rx90, virtual-Z frames — evolves as one 9×9 propagator.
//! [`PairFrameResult`] returns it together with its 4×4 qubit block; the
//! executor turns the leakage out of that block into a Kraus completion.

use crate::params::{CrParams, TransmonParams, DT};
use quant_math::{
    mul9_blocks_into, mul9_into, unitary_exp9_blocks_into, unitary_exp9_into, Blocks9, CMat,
    PropagatorScratch, C64,
};
use quant_pulse::{Channel, Instruction, Schedule};
use quant_sim::gates;
use std::collections::BTreeMap;
use std::f64::consts::TAU;

/// Result of integrating a two-qubit pulse schedule.
#[derive(Clone, Debug)]
pub struct PairFrameResult {
    /// 4×4 qubit-subspace block of the propagator, with the **control
    /// qubit as the least-significant digit** (matching
    /// [`quant_sim::gates::cr`]), excluding trailing frame corrections.
    /// Slightly sub-unitary when population leaks to the |2⟩ levels; the
    /// executor restores trace preservation with a Kraus completion.
    pub unitary: CMat,
    /// The full 9×9 two-qutrit propagator (control digit base-3 LSB).
    pub full_unitary: CMat,
    /// Leftover frame phase on the control qubit's drive channel.
    pub control_frame: f64,
    /// Leftover frame phase on the target qubit's drive channel.
    pub target_frame: f64,
    /// Total duration in `dt` samples.
    pub duration: u64,
}

impl PairFrameResult {
    /// The propagator with both leftover virtual-Z frames realized
    /// (`Rz(−φ)` on each qubit).
    pub fn corrected_unitary(&self) -> CMat {
        let rz_c = rz_phase(-self.control_frame);
        let rz_t = rz_phase(-self.target_frame);
        // Control is digit 0 (LSB) → kron(target_op, control_op).
        let corr = rz_t.kron(&rz_c);
        &corr * &self.unitary
    }
}

/// diag(1, e^{iθ}) — Rz(θ) up to global phase.
fn rz_phase(theta: f64) -> CMat {
    CMat::diag(&[C64::ONE, C64::cis(theta)])
}

/// Extracts the ZX rotation angle from a (possibly contaminated) CR
/// propagator (control = LSB): the X-rotation angles of the control-|0⟩ and
/// control-|1⟩ blocks differ by `2·θ_zx`.
pub fn extract_zx_angle(u: &CMat) -> f64 {
    let block_angle = |c: usize| -> f64 {
        let b00 = u[(c, c)];
        let b01 = u[(c, 2 + c)];
        // b ∝ Rx(θ): b01/b00 = −i·tan(θ/2).
        let r = b01 / b00;
        2.0 * (C64::I * r).re.atan()
    };
    (block_angle(0) - block_angle(1)) / 2.0
}

/// Extracts the residual control-Z angle φ of a propagator of the form
/// `Rz_c(φ)·CR(θ)` (the surviving ZI term of an echoed CR pulse).
pub fn extract_control_z(u: &CMat, theta: f64) -> f64 {
    let m = u * &gates::cr(theta).dagger();
    // M ≈ diag(1, e^{iφ}, 1, e^{iφ}) up to global phase (control = LSB).
    (m[(1, 1)] / m[(0, 0)]).arg()
}

/// Integrator for one directed, coupled pair.
#[derive(Clone, Debug)]
pub struct CrPair {
    control: TransmonParams,
    target: TransmonParams,
    cr: CrParams,
}

impl CrPair {
    /// Creates the integrator. `control` is the qubit that is physically
    /// driven on the control channel.
    pub fn new(control: TransmonParams, target: TransmonParams, cr: CrParams) -> Self {
        CrPair {
            control,
            target,
            cr,
        }
    }

    /// The CR parameters.
    pub fn cr_params(&self) -> &CrParams {
        &self.cr
    }

    /// The control qubit's transmon parameters.
    pub fn control_params(&self) -> &TransmonParams {
        &self.control
    }

    /// The target qubit's transmon parameters.
    pub fn target_params(&self) -> &TransmonParams {
        &self.target
    }

    /// Integrates a two-qubit schedule.
    ///
    /// * `control_drive` / `target_drive` — the drive channels of the two
    ///   qubits (resonant single-qubit pulses).
    /// * `cr_channel` — the control channel carrying CR pulses.
    ///
    /// Pulses are processed in start-time order; overlapping `Play`s on
    /// different channels are integrated jointly sample-by-sample. Runs of
    /// bitwise-identical drive samples — the flat top of a `GaussianSquare`
    /// CR pulse, delays, dead time between pulses — have a constant
    /// Hamiltonian, so the whole run is advanced with a single
    /// `exp(-i·H·m·dt)` (one scaling-and-squaring pass, `O(log m)` products)
    /// instead of `m` per-sample exponentials. Echoed-CR schedules are
    /// mostly flat top, which makes this the difference between the
    /// trajectory executor being integration-bound or not.
    ///
    /// Each run's step also follows the block structure of its generator.
    /// The ZX, IX and ZI terms, the static ZZ and the target drive are all
    /// diagonal in the control level, and the control drive is diagonal in
    /// the target level. So a run with the control drive silent splits into
    /// the blocks `{c, c+3, c+6}` (one per control level), and a run with
    /// only the control drive playing into `{3t, 3t+1, 3t+2}` (one per
    /// target level). Both advance as three 3×3 exponentials and a
    /// block-diagonal product ([`Blocks9`]). Only runs where all three
    /// channels play at once take the full 9×9 exponential. The block route
    /// is bit-identical to the 9×9 route, so the dispatch never changes a
    /// result.
    pub fn integrate(
        &self,
        schedule: &Schedule,
        control_drive: Channel,
        target_drive: Channel,
        cr_channel: Channel,
    ) -> PairFrameResult {
        self.integrate_impl(schedule, control_drive, target_drive, cr_channel, true)
    }

    /// The reference integrator: one exponential and one product per
    /// sample, with no constant-run compression. Bitwise-faithful to the
    /// original per-sample loop; kept as the equivalence-test and perfsuite
    /// baseline (compressed runs regroup the floating-point products, so
    /// [`CrPair::integrate`] agrees only to integrator tolerance).
    pub fn integrate_ref(
        &self,
        schedule: &Schedule,
        control_drive: Channel,
        target_drive: Channel,
        cr_channel: Channel,
    ) -> PairFrameResult {
        self.integrate_impl(schedule, control_drive, target_drive, cr_channel, false)
    }

    fn integrate_impl(
        &self,
        schedule: &Schedule,
        control_drive: Channel,
        target_drive: Channel,
        cr_channel: Channel,
        compress: bool,
    ) -> PairFrameResult {
        // Collect, per channel, the (start, waveform) plays plus frame
        // bookkeeping in time order.
        let mut frames: BTreeMap<Channel, f64> = BTreeMap::new();
        frames.insert(control_drive, 0.0);
        frames.insert(target_drive, 0.0);
        frames.insert(cr_channel, 0.0);

        // Rasterize all three channels into complex per-sample drives.
        let total = schedule.duration() as usize;
        let mut drive_c = vec![C64::ZERO; total];
        let mut drive_t = vec![C64::ZERO; total];
        let mut drive_u = vec![C64::ZERO; total];

        for ti in schedule.instructions() {
            let ch = ti.instruction.channel();
            if !frames.contains_key(&ch) {
                continue;
            }
            match &ti.instruction {
                Instruction::ShiftPhase { phase, .. } => {
                    if let Some(frame) = frames.get_mut(&ch) {
                        *frame += phase;
                    }
                }
                Instruction::Play { waveform, .. } => {
                    let phase = frames[&ch];
                    let rot = C64::cis(phase);
                    let buf: &mut Vec<C64> = if ch == control_drive {
                        &mut drive_c
                    } else if ch == target_drive {
                        &mut drive_t
                    } else {
                        &mut drive_u
                    };
                    for (k, &s) in waveform.samples().iter().enumerate() {
                        buf[ti.start as usize + k] += s * rot;
                    }
                }
                // Frequency shifts are not meaningful in the effective CR
                // model; delays/acquires just occupy time.
                _ => {}
            }
        }

        // Static + per-sample Hamiltonian assembly in the full 3⊗3 space
        // (index = control + 3·target). The qubits' drives see the complete
        // 3-level ladder, so the calibrated DRAG/detuning/phase corrections
        // mean exactly the same thing here as in the single-qubit
        // integrator; the effective CR terms act on the qubit subspace.
        let x = gates::x();
        let y = gates::y();
        let z = gates::z();
        let id = CMat::identity(2);
        // Qubit-subspace generators embedded into 9×9.
        let e9 = |m4: &CMat| lift_qubit_subspace(m4);
        let zx = e9(&x.kron(&z));
        let zy = e9(&y.kron(&z));
        let ix = e9(&x.kron(&id));
        let iy = e9(&y.kron(&id));
        let zi = e9(&id.kron(&z));
        let zz = e9(&z.kron(&z));
        // 3-level drive quadratures on each qutrit digit.
        let (xc3, yc3) = drive_quadratures_on(0);
        let (xt3, yt3) = drive_quadratures_on(1);
        // Anharmonicity of each qutrit.
        let mut h0 = CMat::zeros(9, 9);
        for idx in 0..9usize {
            let (c, t) = (idx % 3, idx / 3);
            let mut e = 0.0;
            if c == 2 {
                e += TAU * self.control.alpha;
            }
            if t == 2 {
                e += TAU * self.target.alpha;
            }
            h0[(idx, idx)] = C64::real(e);
        }

        let om_c = TAU * self.control.rabi_hz_per_amp;
        let om_t = TAU * self.target.rabi_hz_per_amp;
        let zz_static = TAU * self.cr.zz_static_hz / 4.0;

        // The drive-free part of H is constant: assemble it once.
        let mut h_static = h0;
        h_static.add_scaled_assign(&zz, C64::real(zz_static));

        let om_u_x = TAU * self.cr.zx_hz_per_amp / 2.0;
        let om_u_ix = TAU * self.cr.ix_hz_per_amp / 2.0;
        let om_u_zi = TAU * self.cr.zi_hz_per_amp / 2.0;

        let u = if compress {
            // Fast path: the whole propagation runs on 9×9 stack arrays
            // (the two-qutrit analogue of the qutrit `expm3` route), and
            // runs of bitwise-identical drive samples advance with a single
            // `exp(-i·H·m·dt)`.
            let to9 = |m: &CMat| -> [C64; 81] {
                let mut a = [C64::ZERO; 81];
                a.copy_from_slice(m.as_slice());
                a
            };
            let hs9 = to9(&h_static);
            let (zx9, zy9, ix9, iy9, zi9) = (to9(&zx), to9(&zy), to9(&ix), to9(&iy), to9(&zi));
            let (xc9, yc9, xt9, yt9) = (to9(&xc3), to9(&yc3), to9(&xt3), to9(&yt3));
            let axpy = |y: &mut [C64; 81], x: &[C64; 81], s: f64| {
                let k = C64::real(s);
                for (yv, &xv) in y.iter_mut().zip(x) {
                    *yv += xv * k;
                }
            };
            let mut h9 = [C64::ZERO; 81];
            let mut next9 = [C64::ZERO; 81];
            let mut u9 = [C64::ZERO; 81];
            for i in 0..9 {
                u9[10 * i] = C64::ONE;
            }
            // Step-propagator memo: schedules repeat drive samples exactly
            // (the echo X pulse plays twice, pulse edges rise and fall
            // through mirrored values), and `exp` is a pure function of the
            // drive triple and the run length, so repeats are a lookup
            // keyed on the sample bit patterns instead of a fresh
            // exponential. Bitwise-conservative: a miss only costs the
            // exponential we would have computed anyway. The key fixes the
            // step's route, so an index points into `block_steps` or
            // `full_steps` accordingly.
            let mut memo: BTreeMap<([u64; 6], u32), usize> = BTreeMap::new();
            let mut block_steps: Vec<[[C64; 9]; 3]> = Vec::new();
            let mut full_steps: Vec<[C64; 81]> = Vec::new();
            let mut k = 0usize;
            while k < total {
                let dc = drive_c[k];
                let dt_ = drive_t[k];
                let du = drive_u[k];
                // Constant-drive run starting at `k`: flat pulse tops,
                // delays and dead time all have a constant Hamiltonian.
                let mut run = 1usize;
                while k + run < total
                    && drive_c[k + run] == dc
                    && drive_t[k + run] == dt_
                    && drive_u[k + run] == du
                {
                    run += 1;
                }
                let key = (
                    [
                        dc.re.to_bits(),
                        dc.im.to_bits(),
                        dt_.re.to_bits(),
                        dt_.im.to_bits(),
                        du.re.to_bits(),
                        du.im.to_bits(),
                    ],
                    run as u32,
                );
                // Every CR and target-drive term is diagonal in the control
                // level, and the control drive is diagonal in the target
                // level, so unless all three channels play at once the
                // generator is block-diagonal (see `integrate`).
                let blocks = if dc == C64::ZERO {
                    Some(Blocks9::Strided)
                } else if dt_ == C64::ZERO && du == C64::ZERO {
                    Some(Blocks9::Contiguous)
                } else {
                    None
                };
                let idx = match memo.get(&key) {
                    Some(&i) => i,
                    None => {
                        h9.copy_from_slice(&hs9);
                        if dc != C64::ZERO {
                            axpy(&mut h9, &xc9, om_c / 2.0 * dc.re);
                            axpy(&mut h9, &yc9, om_c / 2.0 * dc.im);
                        }
                        if dt_ != C64::ZERO {
                            axpy(&mut h9, &xt9, om_t / 2.0 * dt_.re);
                            axpy(&mut h9, &yt9, om_t / 2.0 * dt_.im);
                        }
                        if du != C64::ZERO {
                            axpy(&mut h9, &zx9, om_u_x * du.re);
                            axpy(&mut h9, &zy9, om_u_x * du.im);
                            axpy(&mut h9, &ix9, om_u_ix * du.re);
                            axpy(&mut h9, &iy9, om_u_ix * du.im);
                            // The ZI term is the control's own AC-Stark
                            // shift: it scales with the drive *power
                            // envelope* (phase- and sign-independent),
                            // which is exactly why the echo's X flip
                            // refocuses it.
                            axpy(&mut h9, &zi9, om_u_zi * du.abs());
                        }
                        let t = DT * run as f64;
                        let i = if let Some(b) = blocks {
                            let mut step = [[C64::ZERO; 9]; 3];
                            unitary_exp9_blocks_into(&h9, t, b, &mut step);
                            block_steps.push(step);
                            block_steps.len() - 1
                        } else {
                            let mut step = [C64::ZERO; 81];
                            unitary_exp9_into(&h9, t, &mut step);
                            full_steps.push(step);
                            full_steps.len() - 1
                        };
                        memo.insert(key, i);
                        i
                    }
                };
                match blocks {
                    Some(b) => mul9_blocks_into(&block_steps[idx], b, &u9, &mut next9),
                    None => mul9_into(&full_steps[idx], &u9, &mut next9),
                }
                std::mem::swap(&mut u9, &mut next9);
                k += run;
            }
            let mut u = CMat::zeros(9, 9);
            u.as_mut_slice().copy_from_slice(&u9);
            u
        } else {
            // Reference path: the original per-sample heap-matrix loop —
            // a copy + a handful of AXPYs + one Taylor propagator per
            // sample, with no heap allocation after warm-up.
            let mut h = CMat::zeros(9, 9);
            let mut step = CMat::zeros(9, 9);
            let mut next = CMat::zeros(9, 9);
            let mut scratch = PropagatorScratch::new(9);

            let mut u = CMat::identity(9);
            for k in 0..total {
                let dc = drive_c[k];
                let dt_ = drive_t[k];
                let du = drive_u[k];
                h.copy_from(&h_static);
                if dc != C64::ZERO {
                    h.add_scaled_assign(&xc3, C64::real(om_c / 2.0 * dc.re));
                    h.add_scaled_assign(&yc3, C64::real(om_c / 2.0 * dc.im));
                }
                if dt_ != C64::ZERO {
                    h.add_scaled_assign(&xt3, C64::real(om_t / 2.0 * dt_.re));
                    h.add_scaled_assign(&yt3, C64::real(om_t / 2.0 * dt_.im));
                }
                if du != C64::ZERO {
                    h.add_scaled_assign(&zx, C64::real(om_u_x * du.re));
                    h.add_scaled_assign(&zy, C64::real(om_u_x * du.im));
                    h.add_scaled_assign(&ix, C64::real(om_u_ix * du.re));
                    h.add_scaled_assign(&iy, C64::real(om_u_ix * du.im));
                    h.add_scaled_assign(&zi, C64::real(om_u_zi * du.abs()));
                }
                scratch.unitary_exp_into(&h, DT, &mut step);
                step.mul_into(&u, &mut next);
                std::mem::swap(&mut u, &mut next);
            }
            u
        };

        PairFrameResult {
            unitary: qubit_block_of(&u),
            full_unitary: u,
            control_frame: frames[&control_drive],
            target_frame: frames[&target_drive],
            duration: schedule.duration(),
        }
    }
}

/// Lifts a 4×4 qubit-subspace operator (control = base-2 LSB) into the
/// 9×9 two-qutrit space (control = base-3 LSB), zero outside the subspace.
pub fn lift_qubit_subspace(m4: &CMat) -> CMat {
    let mut out = CMat::zeros(9, 9);
    let map = |i4: usize| -> usize { (i4 % 2) + 3 * (i4 / 2) };
    for r in 0..4 {
        for c in 0..4 {
            out[(map(r), map(c))] = m4[(r, c)];
        }
    }
    out
}

/// The drive quadrature generators `(a† + a)` and `i(a† − a)`-style on one
/// qutrit digit (0 = control, 1 = target) of the 9-dim space, with ladder
/// elements 1, √2.
fn drive_quadratures_on(digit: usize) -> (CMat, CMat) {
    let mut a = CMat::zeros(3, 3);
    a[(0, 1)] = C64::ONE;
    a[(1, 2)] = C64::real(std::f64::consts::SQRT_2);
    let adag = a.dagger();
    // H_x = (a† + a), H_y couples with the imaginary part: for d = dx + i·dy,
    // H = (d·a† + d̄·a)/… → split: dx·(a†+a) + dy·i(a† − a).
    let hx3 = &adag + &a;
    let hy3 = (&adag - &a).scale(C64::imag(1.0));
    let id3 = CMat::identity(3);
    if digit == 0 {
        (id3.kron(&hx3), id3.kron(&hy3))
    } else {
        (hx3.kron(&id3), hy3.kron(&id3))
    }
}

/// Extracts the 4×4 qubit-subspace block of a 9×9 two-qutrit operator.
pub fn qubit_block_of(u9: &CMat) -> CMat {
    let map = |i4: usize| -> usize { (i4 % 2) + 3 * (i4 / 2) };
    CMat::from_fn(4, 4, |r, c| u9[(map(r), map(c))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant_math::unitary_exp;
    use quant_pulse::GaussianSquare;
    use std::f64::consts::FRAC_PI_2;

    fn pair() -> CrPair {
        CrPair::new(
            TransmonParams::almaden_like(),
            TransmonParams::almaden_like(),
            CrParams::almaden_like(),
        )
    }

    /// A CR flat-top pulse whose ZX area is θ (rad) for the given pair.
    fn cr_pulse(p: &CrPair, theta: f64, amp: f64) -> GaussianSquare {
        // θ = 2π·zx·amp·t → t = θ / (2π·zx·amp); subtract the edge area.
        let sigma = 20.0;
        let base = GaussianSquare {
            duration: 2 * ((4.0 * sigma) as u64),
            amp,
            sigma,
            width: 0,
        };
        let edge_area_dt = base.waveform("e").area().re; // in amp·dt
        let target_area_s = theta / (TAU * p.cr.zx_hz_per_amp * 1.0); // amp·s for unit... careful
        let target_area_dt = target_area_s / DT; // in amp·dt units (amp=1)
        let width = ((target_area_dt - edge_area_dt) / amp).max(0.0).round() as u64;
        GaussianSquare {
            duration: base.duration + width,
            amp,
            sigma,
            width,
        }
    }

    fn play(s: &mut Schedule, w: quant_pulse::Waveform, ch: Channel) {
        s.append(Instruction::Play {
            waveform: w,
            channel: ch,
        });
    }

    fn play_at(s: &mut Schedule, start: u64, w: quant_pulse::Waveform, ch: Channel) {
        s.insert(
            start,
            Instruction::Play {
                waveform: w,
                channel: ch,
            },
        );
    }

    #[test]
    fn plain_cr_pulse_has_spurious_terms() {
        // A single (un-echoed) CR pulse deviates from pure exp(-iθ/2 ZX)
        // because of the IX and ZI terms.
        let p = pair();
        let gs = cr_pulse(&p, FRAC_PI_2, 0.3);
        let mut s = Schedule::new("plain");
        play(&mut s, gs.waveform("cr"), Channel::Control(0));
        let r = p.integrate(
            &s,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        let ideal = gates::cr(FRAC_PI_2);
        assert!(
            r.unitary.phase_invariant_diff(&ideal) > 0.05,
            "spurious terms should be visible"
        );
    }

    /// Distance to `Rz_c(φ)·CR(θ)` minimized over the control-Z angle φ —
    /// the surviving ZI term of an echoed CR commutes with ZX and is
    /// absorbed by a virtual-Z in real calibrations.
    fn diff_up_to_control_z(u: &CMat, theta: f64) -> f64 {
        let mut best = f64::INFINITY;
        for k in 0..720 {
            let phi = k as f64 / 720.0 * std::f64::consts::TAU;
            let rz_c = CMat::identity(2).kron(&rz_phase(phi));
            let cand = &rz_c * &gates::cr(theta);
            best = best.min(u.phase_invariant_diff(&cand));
        }
        best
    }

    #[test]
    fn echoed_cr_cancels_ix_term() {
        // CR(θ/2)⁺ | X_c | CR(θ/2)⁻ | X_c  ≈  Rz_c(φ)·CR(θ): the echo
        // cancels IX; the surviving ZI is a pure control-Z.
        let p = pair();
        let theta = FRAC_PI_2;
        let amp = 0.3;
        let gs = cr_pulse(&p, theta / 2.0, amp);
        let xc = x_pulse(&p.control);
        let barrier = [Channel::Drive(0), Channel::Control(0)];

        let mut s = Schedule::new("echo");
        let steps: Vec<(quant_pulse::Waveform, Channel)> = vec![
            (gs.waveform("cr+"), Channel::Control(0)),
            (xc.clone(), Channel::Drive(0)),
            (gs.waveform("cr-").scaled(-1.0), Channel::Control(0)),
            (xc, Channel::Drive(0)),
        ];
        for (w, ch) in steps {
            s.append_after(
                Instruction::Play {
                    waveform: w,
                    channel: ch,
                },
                &barrier,
            );
        }
        let r = p.integrate(
            &s,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        let echoed = diff_up_to_control_z(&r.unitary, theta);

        // Compare with a single un-echoed pulse of the full area.
        let plain_gs = cr_pulse(&p, theta, amp);
        let mut plain = Schedule::new("plain");
        play(&mut plain, plain_gs.waveform("cr"), Channel::Control(0));
        let rp = p.integrate(
            &plain,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        let unechoed = diff_up_to_control_z(&rp.unitary, theta);

        assert!(
            echoed < 0.05,
            "echoed CR residual = {echoed} (unechoed {unechoed})"
        );
        assert!(
            echoed < unechoed * 0.5,
            "echo should beat no-echo: {echoed} vs {unechoed}"
        );
    }

    /// Resonant π pulse on a drive channel.
    fn x_pulse(q: &TransmonParams) -> quant_pulse::Waveform {
        let amp = 0.2;
        let sigma = 20.0_f64;
        let dur = (8.0 * sigma) as u64;
        let w = quant_pulse::Gaussian {
            duration: dur,
            amp,
            sigma,
        }
        .waveform("x");
        // Rescale to exact π area.
        let area_s = w.area().re * DT;
        let theta = TAU * q.rabi_hz_per_amp * area_s;
        w.scaled(std::f64::consts::PI / theta)
    }

    #[test]
    fn x_pulse_flips_control() {
        let p = pair();
        let mut s = Schedule::new("x");
        play(&mut s, x_pulse(&p.control), Channel::Drive(0));
        let r = p.integrate(
            &s,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        // X on control = kron(I_target, X_control). The helper pulse is
        // deliberately uncalibrated (no DRAG/detuning), so the 3-level
        // physics leaves a visible Stark phase error; calibrated pulses
        // are covered by the calibration tests.
        let expect = CMat::identity(2).kron(&gates::x());
        let diff = r.unitary.phase_invariant_diff(&expect);
        assert!(diff < 0.08, "control X diff = {diff}");
    }

    #[test]
    fn target_drive_rotates_target() {
        let p = pair();
        let mut s = Schedule::new("xt");
        play(&mut s, x_pulse(&p.target), Channel::Drive(1));
        let r = p.integrate(
            &s,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        let expect = gates::x().kron(&CMat::identity(2));
        // Uncalibrated helper pulse: see `x_pulse_flips_control`.
        assert!(r.unitary.phase_invariant_diff(&expect) < 0.08);
    }

    #[test]
    fn stretching_cr_scales_angle() {
        // Twice the flat-top area → twice the ZX angle.
        let p = pair();
        let amp = 0.25;
        let gs = cr_pulse(&p, 0.5, amp);
        let doubled = gs.stretched_area(2.0);
        let measure = |g: &GaussianSquare| -> f64 {
            let mut s = Schedule::new("cr");
            play(&mut s, g.waveform("w"), Channel::Control(0));
            let r = p.integrate(
                &s,
                Channel::Drive(0),
                Channel::Drive(1),
                Channel::Control(0),
            );
            extract_zx_angle(&r.unitary)
        };
        let theta1 = measure(&gs);
        let theta2 = measure(&doubled);
        assert!((theta1 - 0.5).abs() < 0.03, "θ₁ = {theta1}");
        assert!((theta2 - 1.0).abs() < 0.06, "θ₂ = {theta2}");
        assert!((theta2 / theta1 - 2.0).abs() < 0.05);
    }

    #[test]
    fn compressed_integration_matches_per_sample_reference() {
        // The echoed-CR schedule is the worst case the executor feeds the
        // integrator: long flat tops (compressed into single exponentials)
        // interleaved with Gaussian edges (stepped per sample). Fast and
        // reference routes must agree to integrator tolerance on the full
        // 9×9 propagator, not just the qubit block.
        let p = pair();
        let theta = FRAC_PI_2;
        let gs = cr_pulse(&p, theta / 2.0, 0.3);
        let xc = x_pulse(&p.control);
        let barrier = [Channel::Drive(0), Channel::Control(0)];
        let mut s = Schedule::new("echo");
        let steps: Vec<(quant_pulse::Waveform, Channel)> = vec![
            (gs.waveform("cr+"), Channel::Control(0)),
            (xc.clone(), Channel::Drive(0)),
            (gs.waveform("cr-").scaled(-1.0), Channel::Control(0)),
            (xc, Channel::Drive(0)),
        ];
        for (w, ch) in steps {
            s.append_after(
                Instruction::Play {
                    waveform: w,
                    channel: ch,
                },
                &barrier,
            );
        }
        assert_matches_reference(&p, &s);
    }

    /// Compressed vs per-sample integration of `s`, compared on the full
    /// 9×9 propagator to integrator tolerance.
    fn assert_matches_reference(p: &CrPair, s: &Schedule) {
        let chans = (Channel::Drive(0), Channel::Drive(1), Channel::Control(0));
        let fast = p.integrate(s, chans.0, chans.1, chans.2);
        let slow = p.integrate_ref(s, chans.0, chans.1, chans.2);
        let d = fast.full_unitary.max_abs_diff(&slow.full_unitary);
        assert!(
            d < 1e-9,
            "{}: compressed vs per-sample diff = {d:e}",
            s.name()
        );
        assert_eq!(fast.duration, slow.duration);
        assert_eq!(fast.control_frame, slow.control_frame);
        assert_eq!(fast.target_frame, slow.target_frame);
    }

    #[test]
    fn all_three_drives_at_once_match_per_sample_reference() {
        // The control drive overlapping both the target drive and the CR
        // tone is the only case that needs the full 9×9 generator; the
        // edges where fewer channels play take the block routes.
        let p = pair();
        let gs = cr_pulse(&p, FRAC_PI_2, 0.3);
        let mut s = Schedule::new("all three");
        play_at(&mut s, 0, gs.waveform("cr"), Channel::Control(0));
        play_at(&mut s, 40, x_pulse(&p.target), Channel::Drive(1));
        play_at(&mut s, 120, x_pulse(&p.control), Channel::Drive(0));
        assert!(gs.duration > 280, "CR pulse must cover both drives");
        assert_matches_reference(&p, &s);
    }

    #[test]
    fn cancellation_tone_matches_per_sample_reference() {
        // A target-drive tone under the CR pulse (the shape of an active
        // cancellation tone): the control drive is silent, so every run
        // takes the per-control-level blocks with both of their drives on.
        let p = pair();
        let gs = cr_pulse(&p, FRAC_PI_2, 0.3);
        let tone = GaussianSquare { amp: 0.02, ..gs };
        let mut s = Schedule::new("cancellation tone");
        play_at(&mut s, 0, gs.waveform("cr"), Channel::Control(0));
        play_at(
            &mut s,
            0,
            tone.waveform("tone").scaled(-1.0),
            Channel::Drive(1),
        );
        assert_matches_reference(&p, &s);
    }

    #[test]
    fn frame_phase_on_control_channel_rotates_cr_axis() {
        // ShiftPhase(π/2) on the CR channel turns ZX into ZY. Use a pure-ZX
        // pair to isolate the frame behaviour.
        let p = CrPair::new(
            TransmonParams::almaden_like(),
            TransmonParams::almaden_like(),
            CrParams::pure_zx(2.4e6),
        );
        let gs = cr_pulse(&p, FRAC_PI_2, 0.3);
        let mut s = Schedule::new("zy");
        s.append(Instruction::ShiftPhase {
            phase: FRAC_PI_2,
            channel: Channel::Control(0),
        });
        play(&mut s, gs.waveform("cr"), Channel::Control(0));
        let r = p.integrate(
            &s,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        // ZY generator: kron(y, z).
        let gen = gates::y().kron(&gates::z());
        let ideal = unitary_exp(&gen.scale(C64::real(0.5)), FRAC_PI_2);
        let d_zy = r.unitary.phase_invariant_diff(&ideal);
        assert!(d_zy < 0.02, "ZY diff = {d_zy}");
    }
}
