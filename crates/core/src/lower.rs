//! Lowering: basis-gate circuits → pulse programs.
//!
//! This is the paper's final compilation stage (Table 1, row 4). The
//! lowering pass owns the **virtual-Z frame** of every qubit: `Rz` gates
//! cost nothing — they advance the frame — and every emitted pulse is
//! rotated by the frame in effect when it plays (McKay et al.'s virtual-Z
//! scheme). Frames are *baked into the waveform samples* of single-qubit
//! pulses and prepended as `ShiftPhase`s to two-qubit blocks, so the
//! executor never needs cross-block frame state.
//!
//! With `PulseCancellation` enabled (the paper's Optimization 2), a
//! `DirectX` on a CNOT/CR control qubit immediately before the block is
//! absorbed into the block's leading echo X pulse.
//!
//! Like the paper's compiler, lowering reads its primitives from the
//! calibration's `cmd_def` instead of rendering them: the rx90 and rx180
//! envelopes and both CNOT forms (`cx`, and `cx_cancelled` for an absorbed
//! X) are rendered once per calibration and played by reference in every
//! compile. Only a `CR(θ)` block's stretched halves are rendered here, once
//! per distinct θ in a call.
//!
//! # Cost model
//!
//! * A rotated single-qubit pulse (each rx90 of a `U3`, a `DirectX`, a
//!   `DirectRx(θ)`) is one sample pass over its `cmd_def` buffer into one
//!   new buffer — the frame multiply, and for `DirectRx` the θ/π scale
//!   before it — then the `hypot`-free norm check of that buffer. Its
//!   name is the calibration's shared [`RotatedNames`] string; only
//!   `DirectRx`, whose name carries θ, formats one.
//! * A CNOT is one `Vec`: its entry `ShiftPhase`s, then its `cmd_def`
//!   entry's instructions, cloned by reference (each waveform shares its
//!   buffer and name). One scan of the entry folds both drives' new frames.
//! * A `CR(θ)` block renders its two halves straight at their signs from
//!   the pair's ramps, which the calibration keeps; the block is built
//!   once per distinct θ in a call and placed like a CNOT after that.
//! * `finish` copies every instruction once more, by reference, into the
//!   display schedule and sorts it by start. [`crate::Compiler::compile`]
//!   verifies that schedule once, after lowering.

use quant_circuit::{Circuit, Gate};
use quant_device::{
    Block, Calibration, DeviceModel, EchoError, LoweredProgram, RotatedNames, MAX_CR_HALF_SAMPLES,
};
use quant_math::C64;
use quant_pulse::{
    Channel, CmdKey, Instruction, Schedule, ScheduleBuilder, ScheduleFinding, Waveform,
};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::f64::consts::{PI, TAU};
use std::sync::Arc;

/// Errors from lowering.
#[derive(Clone, Debug, PartialEq)]
pub enum LowerError {
    /// A gate reached lowering that is not in a lowered basis set.
    UnsupportedGate(String),
    /// A two-qubit gate addressed a pair with no CR coupling.
    UncoupledPair(u32, u32),
    /// The circuit's register is wider than the device.
    RegisterWidth {
        /// Qubits the circuit declares.
        circuit: u32,
        /// Qubits the device has.
        device: usize,
    },
    /// The calibration's `cmd_def` has no pulse for this gate and qubit.
    Uncalibrated(CmdKey),
    /// A `CR(θ)` (carried) whose stretched half pulses could exceed
    /// [`MAX_CR_HALF_SAMPLES`], or a non-finite θ.
    CrTooLong(f64),
    /// The lowered schedule failed static verification (`pulse::verify`,
    /// run by [`crate::Compiler::compile`]). Carries every finding; the
    /// lowering that produced them is a compiler bug, not a user error.
    InvalidSchedule(Vec<ScheduleFinding>),
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::UnsupportedGate(g) => {
                write!(
                    f,
                    "gate `{g}` cannot be lowered; translate to a basis set first"
                )
            }
            LowerError::UncoupledPair(a, b) => {
                write!(f, "qubits {a} and {b} are not coupled on this device")
            }
            LowerError::RegisterWidth { circuit, device } => {
                write!(f, "{circuit}-qubit circuit on a {device}-qubit device")
            }
            LowerError::Uncalibrated(key) => write!(f, "no calibrated `{key}` in the cmd_def"),
            LowerError::CrTooLong(theta) => write!(
                f,
                "CR({theta}) needs CR half pulses longer than {MAX_CR_HALF_SAMPLES} samples"
            ),
            LowerError::InvalidSchedule(findings) => {
                write!(
                    f,
                    "lowered schedule failed verification ({} finding(s)",
                    findings.len()
                )?;
                match findings.first() {
                    Some(first) => write!(f, "; first: {first})"),
                    None => write!(f, ")"),
                }
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// Options controlling lowering.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LowerOptions {
    /// Enable the cross-gate pulse cancellation peephole (Optimization 2).
    pub pulse_cancellation: bool,
}

/// The lowering context.
pub struct Lowering<'a> {
    device: &'a DeviceModel,
    calibration: &'a Calibration,
    options: LowerOptions,
}

impl<'a> Lowering<'a> {
    /// Creates a lowering context.
    pub fn new(
        device: &'a DeviceModel,
        calibration: &'a Calibration,
        options: LowerOptions,
    ) -> Self {
        Lowering {
            device,
            calibration,
            options,
        }
    }

    /// Lowers a basis-gate circuit into an executable pulse program.
    ///
    /// Accepted gates: `Rz`, `U3` (standard two-pulse form), `DirectX`,
    /// `DirectRx`, `Cnot`, `Cr`. Anything else, or a circuit wider than
    /// the device, is a [`LowerError`].
    ///
    /// Calibrated pulses come from the calibration's `cmd_def`, rendered
    /// once per calibration: single-qubit gates scale its rx90/rx180
    /// buffers by their frame rotation (the one per-gate sample pass), and
    /// a CNOT clones its `cx` or `cx_cancelled` entry, sharing every
    /// buffer. A `CR(θ)` block is built once per distinct θ in this call
    /// (see `RenderMemo`); a θ whose halves could exceed
    /// [`MAX_CR_HALF_SAMPLES`] is a [`LowerError::CrTooLong`].
    pub fn lower(&self, circuit: &Circuit) -> Result<LoweredProgram, LowerError> {
        let n = circuit.num_qubits();
        let device = self.device.num_qubits();
        if n as usize > device {
            return Err(LowerError::RegisterWidth { circuit: n, device });
        }
        let mut frames = vec![0.0_f64; n as usize];
        let mut blocks: Vec<Block> = Vec::new();
        let mut memo = RenderMemo::new();

        for op in circuit.ops() {
            match op.gate {
                Gate::I | Gate::Barrier => {}
                Gate::Rz(lambda) => {
                    frames[op.qubits[0] as usize] += -lambda;
                }
                Gate::U3(theta, phi, lambda) => {
                    // Eq. 2 analog: U3 = Rz(φ+π)·Rx90·Rz(θ+π)·Rx90·Rz(λ).
                    // Each rx90 plays at the current frame, which then
                    // advances by the pulse's phase-correction wrapper.
                    let q = op.qubits[0];
                    let (rx90, names) = self.pulse("rx90", q)?;
                    let (a, c) = self.calibration.qubit(q).rx90_phase;
                    let frame = &mut frames[q as usize];
                    *frame += -lambda;
                    let first = rotated(rx90, &names.rx90, *frame + c);
                    *frame += a + c;
                    *frame += -(theta + PI);
                    let second = rotated(rx90, &names.rx90, *frame + c);
                    *frame += a + c;
                    *frame += -(phi + PI);
                    blocks.push(Block::Gate1Q {
                        qubit: q,
                        waveforms: vec![first, second],
                    });
                }
                Gate::DirectX => {
                    let q = op.qubits[0];
                    let (rx180, names) = self.pulse("rx180", q)?;
                    let (a, c) = self.calibration.qubit(q).rx180_phase;
                    let w = rotated(rx180, &names.x, frames[q as usize] + c);
                    frames[q as usize] += a + c;
                    blocks.push(Block::Gate1Q {
                        qubit: q,
                        waveforms: vec![w],
                    });
                }
                Gate::DirectRx(theta) => {
                    let q = op.qubits[0];
                    let theta = normalize_angle(theta);
                    if theta.abs() < 1e-12 {
                        continue;
                    }
                    let (rx180, _) = self.pulse("rx180", q)?;
                    let (a, c) = self.calibration.qubit(q).direct_rx_phase(theta);
                    let z = C64::cis(frames[q as usize] + c);
                    // QubitCalibration::direct_rx_waveform (the rx180 pulse
                    // scaled by θ/π) rotated into the frame: the two
                    // multiplications `.scaled(s).scaled_complex(z)` makes,
                    // in its order, in one buffer under its name. The
                    // skipped check of the scaled buffer cannot fail:
                    // |θ| ≤ π gives |s| ≤ 1 (rounding is monotone), so each
                    // part of `v * s` is no larger than `v`'s, and `v`
                    // passed the bound when the cmd_def was built.
                    let s = theta / PI;
                    let w = rx180.mapped(format!("rx({theta:.3})_d{q}*{s:.4}*z"), |v| (v * s) * z);
                    frames[q as usize] += a + c;
                    blocks.push(Block::Gate1Q {
                        qubit: q,
                        waveforms: vec![w],
                    });
                }
                Gate::Cnot | Gate::Cr(_) => {
                    let (control, target) = (op.qubits[0], op.qubits[1]);
                    // Optimization 2 peephole: was the previous block a
                    // lone DirectX on this control?
                    let cancel =
                        self.options.pulse_cancellation && pop_cancellable_x(&mut blocks, control);
                    let cx = if cancel { "cx_cancelled" } else { "cx" };
                    let entry = match op.gate {
                        Gate::Cr(theta) => {
                            self.cr_block(control, target, theta, cancel, &mut memo)?
                        }
                        _ => self
                            .calibration
                            .cmd_def()
                            .get(cx, &[control, target])
                            .ok_or(LowerError::UncoupledPair(control, target))?,
                    };
                    blocks.push(self.enter_block(entry, control, target, &mut frames)?);
                }
                ref other => {
                    return Err(LowerError::UnsupportedGate(other.to_string()));
                }
            }
        }
        Ok(Self::finish(n, blocks))
    }

    /// Places a two-qubit block — a `cmd_def` entry or a `CR(θ)` block — in
    /// the pair's current frames, in one `Vec`.
    ///
    /// Entry frames go before every t = 0 pulse, target drive first, then
    /// the control drive, then the control channel. The *target's* frame
    /// must also rotate the CR control channel: the CR pulse drives at the
    /// target qubit's frequency, so its X axis lives in the target's frame
    /// (Qiskit shifts every channel in the qubit's channel group for
    /// exactly this reason).
    ///
    /// Then each drive's new frame is the net of its `ShiftPhase`s in the
    /// placed block: its entry phase (the old frame, when not 0), then the
    /// entry's own phases in order, summed left to right as
    /// `Iterator::sum` does. One scan of the entry folds both drives.
    fn enter_block(
        &self,
        entry: &Schedule,
        control: u32,
        target: u32,
        frames: &mut [f64],
    ) -> Result<Block, LowerError> {
        let u_ch = self
            .device
            .control_channel(control, target)
            .ok_or(LowerError::UncoupledPair(control, target))?;
        let (d_c, d_t) = (Channel::Drive(control), Channel::Drive(target));
        let (old_c, old_t) = (frames[control as usize], frames[target as usize]);
        // opclint: allow(float-literal-eq): exact sentinel — 0.0 means "no frame change accumulated", never a computed near-zero
        let moved = |phase: &f64| *phase != 0.0;
        let entry_phases = [(d_t, old_t), (d_c, old_c), (u_ch, old_t)];
        let schedule = entry.behind_phases(entry_phases.into_iter().filter(|(_, p)| moved(p)));
        let mut new_c: f64 = std::iter::once(old_c).filter(moved).sum();
        let mut new_t: f64 = std::iter::once(old_t).filter(moved).sum();
        for ti in entry.instructions() {
            if let Instruction::ShiftPhase { phase, channel } = ti.instruction {
                if channel == d_c {
                    new_c += phase;
                } else if channel == d_t {
                    new_t += phase;
                }
            }
        }
        frames[control as usize] = new_c;
        frames[target as usize] = new_t;
        Ok(Block::Gate2Q {
            control,
            target,
            schedule,
        })
    }

    /// Wraps the final block list (blocks may have been popped by the
    /// cancellation peephole) into a program with its display schedule.
    fn finish(num_qubits: u32, blocks: Vec<Block>) -> LoweredProgram {
        let capacity = blocks
            .iter()
            .map(|block| match block {
                Block::Gate1Q { waveforms, .. } => waveforms.len(),
                // The block, then up to one padding delay per qubit.
                Block::Gate2Q { schedule, .. } => schedule.instructions().len() + 2,
                Block::Idle { .. } => 1,
            })
            .sum();
        let mut display = ScheduleBuilder::with_capacity("program", capacity);
        for block in &blocks {
            match block {
                Block::Gate1Q { qubit, waveforms } => {
                    for w in waveforms {
                        display.append(Instruction::Play {
                            waveform: w.clone(),
                            channel: Channel::Drive(*qubit),
                        });
                    }
                }
                Block::Gate2Q {
                    control,
                    target,
                    schedule,
                } => {
                    // Align after *all* channels associated with the pair,
                    // not just the ones the block plays on — a CR echo has
                    // no target-drive pulses, but the executor still
                    // synchronizes both qubits at the block boundary.
                    let offset = schedule
                        .channels()
                        .chain([Channel::Drive(*control), Channel::Drive(*target)])
                        .map(|ch| display.channel_duration(ch))
                        .max()
                        .unwrap_or(0);
                    display.insert_schedule(offset, schedule);
                    // Occupy both qubits' drive channels to the block end
                    // so later gates on either qubit cannot overlap it.
                    let end = offset + schedule.duration();
                    for &q in &[*control, *target] {
                        let busy = display.channel_duration(Channel::Drive(q));
                        if busy < end {
                            display.insert(
                                busy,
                                Instruction::Delay {
                                    duration: end - busy,
                                    channel: Channel::Drive(q),
                                },
                            );
                        }
                    }
                }
                Block::Idle { qubit, duration } => display.append(Instruction::Delay {
                    duration: *duration,
                    channel: Channel::Drive(*qubit),
                }),
            }
        }

        LoweredProgram {
            num_qubits,
            blocks,
            schedule: display.build(),
        }
    }

    /// The calibrated `gate` pulse of qubit `q` (`"rx90"` or `"rx180"`,
    /// frame not yet applied) — the `cmd_def` buffer itself — and the
    /// names its rotations take.
    fn pulse(&self, gate: &str, q: u32) -> Result<(&'a Waveform, &'a RotatedNames), LowerError> {
        let uncalibrated = || LowerError::Uncalibrated(CmdKey::new(gate, &[q]));
        let pulse = self
            .calibration
            .cmd_pulse(gate, q)
            .ok_or_else(uncalibrated)?;
        let names = self.calibration.rotated_names(q).ok_or_else(uncalibrated)?;
        Ok((pulse, names))
    }

    /// The echoed `CR(θ)` block before its entry frames, built on first use
    /// in this call and read from `memo` after that.
    fn cr_block<'m>(
        &self,
        control: u32,
        target: u32,
        theta: f64,
        cancel: bool,
        memo: &'m mut RenderMemo,
    ) -> Result<&'m Schedule, LowerError> {
        // The key holds the angle's exact bits, so only bit-equal angles
        // share a block.
        match memo.entry((control, target, theta.to_bits(), cancel)) {
            Entry::Occupied(block) => Ok(block.into_mut()),
            Entry::Vacant(slot) => {
                let block = if cancel {
                    self.calibration.echoed_cr_schedule_cancelled(
                        self.device,
                        control,
                        target,
                        theta,
                    )
                } else {
                    self.calibration
                        .echoed_cr_schedule(self.device, control, target, theta)
                }
                .map_err(|e| match e {
                    EchoError::Uncoupled => LowerError::UncoupledPair(control, target),
                    EchoError::TooLong(theta) => LowerError::CrTooLong(theta),
                })?;
                Ok(slot.insert(block))
            }
        }
    }
}

/// The `CR(θ)` blocks built by one [`Lowering::lower`] call, keyed by
/// (control, target, θ bits, leading X cancelled). Local to the call, so
/// nothing outlives it and a recalibration can never see a stale block;
/// every other pulse is the calibration's own `cmd_def` buffer.
type RenderMemo = BTreeMap<(u32, u32, u64, bool), Schedule>;

/// `w` rotated into the frame `phase` under the shared `name`: the samples
/// of `w.scaled_complex(C64::cis(phase))`.
fn rotated(w: &Waveform, name: &Arc<str>, phase: f64) -> Waveform {
    let z = C64::cis(phase);
    w.mapped(Arc::clone(name), |s| s * z)
}

/// Reduces an angle to `(−π, π]`.
fn normalize_angle(theta: f64) -> f64 {
    let mut t = theta.rem_euclid(TAU);
    if t > PI {
        t -= TAU;
    }
    t
}

/// If the last block is a single-waveform `Gate1Q` on `qubit` that is an
/// X-like pulse (the DirectX form, named `x_d{qubit}…`), pop it and return
/// true. The name check allocates nothing.
fn pop_cancellable_x(blocks: &mut Vec<Block>, qubit: u32) -> bool {
    let x_on_qubit = |name: &str| {
        name.strip_prefix("x_d")
            .and_then(|rest| rest.split(|ch: char| !ch.is_ascii_digit()).next())
            .and_then(|digits| digits.parse::<u32>().ok())
            == Some(qubit)
    };
    let cancellable = matches!(
        blocks.last(),
        Some(Block::Gate1Q { qubit: q, waveforms })
            if *q == qubit && waveforms.len() == 1 && x_on_qubit(waveforms[0].name())
    );
    if cancellable {
        blocks.pop();
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{baseline_optimize, optimize};
    use crate::routing::{route, CouplingMap};
    use crate::translate::{to_basis, BasisKind};
    use quant_device::{calibrate, PulseExecutor};
    use quant_math::seeded;
    use std::f64::consts::FRAC_PI_2;

    struct Ctx {
        device: DeviceModel,
        calibration: Calibration,
    }

    fn ctx(n: usize) -> Ctx {
        let device = DeviceModel::ideal(n);
        let mut rng = seeded(42);
        let calibration = calibrate(&device, &mut rng);
        Ctx {
            device,
            calibration,
        }
    }

    fn lower_and_run(
        ctx: &Ctx,
        circuit: &Circuit,
        kind: BasisKind,
        cancellation: bool,
    ) -> (Vec<f64>, LoweredProgram) {
        let basis = to_basis(circuit, kind);
        let lowering = Lowering::new(
            &ctx.device,
            &ctx.calibration,
            LowerOptions {
                pulse_cancellation: cancellation,
            },
        );
        let program = lowering.lower(&basis).expect("lowering failed");
        let exec = PulseExecutor::noiseless(&ctx.device);
        let mut rng = seeded(7);
        let out = exec.try_run(&program, &mut rng).expect("program runs");
        (out.probabilities, program)
    }

    fn assert_distribution(ctx: &Ctx, circuit: &Circuit, kind: BasisKind, tol: f64) {
        let ideal = circuit.output_distribution();
        let (got, _) = lower_and_run(ctx, circuit, kind, kind == BasisKind::Augmented);
        for (i, (a, b)) in ideal.iter().zip(&got).enumerate() {
            assert!(
                (a - b).abs() < tol,
                "{kind:?} outcome {i}: ideal {a:.4} vs pulse {b:.4}\n{circuit}"
            );
        }
    }

    #[test]
    fn lower_x_both_flows() {
        let c1 = ctx(1);
        let mut c = Circuit::new(1);
        c.x(0);
        assert_distribution(&c1, &c, BasisKind::Standard, 0.01);
        assert_distribution(&c1, &c, BasisKind::Augmented, 0.01);
    }

    #[test]
    fn direct_x_half_the_duration() {
        let c1 = ctx(1);
        let mut c = Circuit::new(1);
        c.x(0);
        let (_, std) = lower_and_run(&c1, &c, BasisKind::Standard, false);
        let (_, aug) = lower_and_run(&c1, &c, BasisKind::Augmented, false);
        // Fig. 4: standard X = 2 pulses, DirectX = 1 pulse, half duration.
        assert_eq!(std.pulse_count(), 2);
        assert_eq!(aug.pulse_count(), 1);
        assert_eq!(std.duration(), 2 * aug.duration());
    }

    #[test]
    fn lower_hadamard_superposition() {
        let c1 = ctx(1);
        let mut c = Circuit::new(1);
        c.h(0);
        assert_distribution(&c1, &c, BasisKind::Standard, 0.01);
        assert_distribution(&c1, &c, BasisKind::Augmented, 0.01);
    }

    #[test]
    fn lower_rotation_sweep() {
        let c1 = ctx(1);
        for k in 1..8 {
            let theta = k as f64 * 0.41;
            let mut c = Circuit::new(1);
            c.rx(0, theta).ry(0, -theta / 2.0).rz(0, 0.3).rx(0, 0.2);
            assert_distribution(&c1, &c, BasisKind::Standard, 0.01);
            assert_distribution(&c1, &c, BasisKind::Augmented, 0.01);
        }
    }

    #[test]
    fn virtual_z_frames_thread_through_pulses() {
        // Rz between rotations must change the outcome correctly.
        let c1 = ctx(1);
        let mut c = Circuit::new(1);
        c.rx(0, FRAC_PI_2).rz(0, FRAC_PI_2).rx(0, FRAC_PI_2);
        // This is Rx90·Rz90·Rx90: |0⟩ → superposition with p1 = 0.5.
        assert_distribution(&c1, &c, BasisKind::Standard, 0.01);
        assert_distribution(&c1, &c, BasisKind::Augmented, 0.01);
    }

    #[test]
    fn lower_bell_pair() {
        let c2 = ctx(2);
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        assert_distribution(&c2, &c, BasisKind::Standard, 0.03);
        assert_distribution(&c2, &c, BasisKind::Augmented, 0.03);
    }

    #[test]
    fn lower_zz_interaction_both_flows() {
        let c2 = ctx(2);
        for theta in [0.3, 0.9, FRAC_PI_2] {
            let mut c = Circuit::new(2);
            c.h(0).h(1).zz(0, 1, theta).h(0).h(1);
            // The standard flow uses two full CNOTs; each carries ~1–2 %
            // coherent error even on the drift-free device (as real CNOTs
            // do), so its tolerance is wider than the single-CR optimized
            // flow's.
            assert_distribution(&c2, &c, BasisKind::Standard, 0.07);
            assert_distribution(&c2, &c, BasisKind::Augmented, 0.035);
        }
    }

    #[test]
    fn optimized_zz_is_shorter() {
        // Optimization 3: ZZ via one stretched CR beats two CNOTs.
        let c2 = ctx(2);
        let mut c = Circuit::new(2);
        c.zz(0, 1, 0.6);
        let (_, std) = lower_and_run(&c2, &c, BasisKind::Standard, false);
        let (_, aug) = lower_and_run(&c2, &c, BasisKind::Augmented, false);
        assert!(
            aug.duration() * 3 < std.duration() * 2,
            "expected ≥1.5× speedup: std {} vs aug {}",
            std.duration(),
            aug.duration()
        );
    }

    #[test]
    fn open_cnot_cancellation_shortens_schedule() {
        // Fig. 8: open-CNOT with cancellation is ~24 % shorter.
        let c2 = ctx(2);
        let mut c = Circuit::new(2);
        c.push(Gate::OpenCnot, &[0, 1]);
        let basis = to_basis(&c, BasisKind::Augmented);
        let mk = |cancel: bool| {
            Lowering::new(
                &c2.device,
                &c2.calibration,
                LowerOptions {
                    pulse_cancellation: cancel,
                },
            )
            .lower(&basis)
            .unwrap()
        };
        let plain = mk(false);
        let cancelled = mk(true);
        assert!(
            cancelled.duration() < plain.duration(),
            "cancellation should shorten: {} vs {}",
            cancelled.duration(),
            plain.duration()
        );
        assert_eq!(cancelled.pulse_count(), plain.pulse_count() - 2);
        // And the distribution is still the open-CNOT's: |00⟩ → |10⟩…
        let exec = PulseExecutor::noiseless(&c2.device);
        let mut rng = seeded(3);
        let out = exec.try_run(&cancelled, &mut rng).expect("program runs");
        // open-CNOT on |00⟩: control 0 is |0⟩ → target flips → index 2.
        assert!(out.probabilities[2] > 0.95, "p = {:?}", out.probabilities);
    }

    #[test]
    fn shared_blocks_keep_cancelled_and_plain_forms_apart() {
        // One pair carries a plain CNOT, an X-absorbing one, then a plain
        // one again: the per-call block memo must key on the cancellation,
        // or one form would be replayed in place of the other.
        let c2 = ctx(2);
        let mut c = Circuit::new(2);
        c.cnot(0, 1).x(0).cnot(0, 1).cnot(0, 1);
        let basis = to_basis(&c, BasisKind::Augmented);
        let mk = |cancel: bool| {
            Lowering::new(
                &c2.device,
                &c2.calibration,
                LowerOptions {
                    pulse_cancellation: cancel,
                },
            )
            .lower(&basis)
            .unwrap()
        };
        assert_eq!(mk(true).pulse_count(), mk(false).pulse_count() - 2);
        assert_distribution(&c2, &c, BasisKind::Augmented, 0.05);
    }

    #[test]
    fn lowered_schedules_pass_static_verification() {
        // `lower` does not verify: `Compiler::compile` does, once per
        // program. Pin that what lowering emits is clean on its own, for
        // callers that lower without compiling.
        let c2 = ctx(2);
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).rz(1, 0.7).cnot(0, 1);
        let basis = crate::translate::to_basis(&c, crate::translate::BasisKind::Augmented);
        let lowering = Lowering::new(&c2.device, &c2.calibration, LowerOptions::default());
        let program = lowering.lower(&basis).unwrap();
        let findings = quant_pulse::verify(&program.schedule, &c2.device.verify_spec());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn invalid_schedule_error_reports_count_and_first_finding() {
        let mut s = Schedule::new("bad");
        s.insert(
            0,
            Instruction::Play {
                waveform: quant_pulse::Constant {
                    duration: 160,
                    amp: 0.1,
                }
                .waveform("p"),
                channel: Channel::Drive(9),
            },
        );
        let findings = quant_pulse::verify(&s, &quant_pulse::VerifySpec::new(2, vec![]));
        let err = LowerError::InvalidSchedule(findings);
        let text = err.to_string();
        assert!(text.contains("1 finding(s)"), "{text}");
        assert!(text.contains("unknown-channel"), "{text}");
    }

    #[test]
    fn rejects_untranslated_gates() {
        let c2 = ctx(2);
        let mut c = Circuit::new(2);
        c.push(Gate::Swap, &[0, 1]);
        let lowering = Lowering::new(&c2.device, &c2.calibration, LowerOptions::default());
        assert!(matches!(
            lowering.lower(&c),
            Err(LowerError::UnsupportedGate(_))
        ));
    }

    #[test]
    fn rejects_uncoupled_pairs() {
        let c3 = ctx(3);
        let mut c = Circuit::new(3);
        c.cnot(0, 2);
        let lowering = Lowering::new(&c3.device, &c3.calibration, LowerOptions::default());
        assert!(matches!(
            lowering.lower(&c),
            Err(LowerError::UncoupledPair(0, 2))
        ));
    }

    /// The per-call render path lowering used before it read `cmd_def`:
    /// every pulse rendered from the calibrated parameters where it plays,
    /// and each CNOT rebuilt from a fresh echoed CR block. The bit-identity
    /// oracle for [`Lowering::lower`].
    fn lower_oracle(l: &Lowering, circuit: &Circuit) -> Result<LoweredProgram, LowerError> {
        let mut frames = vec![0.0_f64; circuit.num_qubits() as usize];
        let mut blocks: Vec<Block> = Vec::new();
        for op in circuit.ops() {
            match op.gate {
                Gate::I | Gate::Barrier => {}
                Gate::Rz(lambda) => frames[op.qubits[0] as usize] += -lambda,
                Gate::U3(theta, phi, lambda) => {
                    let q = op.qubits[0];
                    let cal = l.calibration.qubit(q);
                    let (a, c) = cal.rx90_phase;
                    let mut waveforms = Vec::new();
                    for advance in [-lambda, -(theta + PI)] {
                        frames[q as usize] += advance;
                        let phase = frames[q as usize] + c;
                        let w = cal.rx90_waveform(format!("rx90_d{q}"));
                        waveforms.push(w.scaled_complex(C64::cis(phase)));
                        frames[q as usize] += a + c;
                    }
                    frames[q as usize] += -(phi + PI);
                    blocks.push(Block::Gate1Q {
                        qubit: q,
                        waveforms,
                    });
                }
                Gate::DirectX => {
                    let q = op.qubits[0];
                    let cal = l.calibration.qubit(q);
                    let (a, c) = cal.rx180_phase;
                    let phase = frames[q as usize] + c;
                    let w = cal.rx180_waveform(format!("x_d{q}"));
                    frames[q as usize] += a + c;
                    blocks.push(Block::Gate1Q {
                        qubit: q,
                        waveforms: vec![w.scaled_complex(C64::cis(phase))],
                    });
                }
                Gate::DirectRx(theta) => {
                    let q = op.qubits[0];
                    let theta = normalize_angle(theta);
                    if theta.abs() < 1e-12 {
                        continue;
                    }
                    let cal = l.calibration.qubit(q);
                    let (a, c) = cal.direct_rx_phase(theta);
                    let phase = frames[q as usize] + c;
                    let w = cal.direct_rx_waveform(theta, format!("rx({theta:.3})_d{q}"));
                    frames[q as usize] += a + c;
                    blocks.push(Block::Gate1Q {
                        qubit: q,
                        waveforms: vec![w.scaled_complex(C64::cis(phase))],
                    });
                }
                Gate::Cnot | Gate::Cr(_) => {
                    let (control, target) = (op.qubits[0], op.qubits[1]);
                    let cancel = l.options.pulse_cancellation
                        && matches!(
                            blocks.last(),
                            Some(Block::Gate1Q { qubit, waveforms })
                                if *qubit == control
                                    && waveforms.len() == 1
                                    && waveforms[0].name().starts_with(&format!("x_d{control}"))
                        );
                    if cancel {
                        blocks.pop();
                    }
                    let schedule = match op.gate {
                        Gate::Cr(theta) => fresh_echo(l, control, target, theta, cancel),
                        _ => fresh_cnot(l, control, target, cancel),
                    }
                    .ok_or(LowerError::UncoupledPair(control, target))?;
                    blocks.push(enter_block_oracle(
                        l,
                        schedule,
                        control,
                        target,
                        &mut frames,
                    )?);
                }
                ref other => return Err(LowerError::UnsupportedGate(other.to_string())),
            }
        }
        Ok(Lowering::finish(circuit.num_qubits(), blocks))
    }

    /// The block placement lowering used before it built each block in one
    /// `Vec`: `prepend` the entry frames (control channel, then control
    /// drive, then target drive, each landing first), then rescan the
    /// placed block for each drive's net `ShiftPhase`.
    fn enter_block_oracle(
        l: &Lowering,
        mut schedule: Schedule,
        control: u32,
        target: u32,
        frames: &mut [f64],
    ) -> Result<Block, LowerError> {
        let u_ch = l
            .device
            .control_channel(control, target)
            .ok_or(LowerError::UncoupledPair(control, target))?;
        // opclint: allow(float-literal-eq): exact sentinel, as in `Lowering::enter_block`
        if frames[target as usize] != 0.0 {
            schedule.prepend(Instruction::ShiftPhase {
                phase: frames[target as usize],
                channel: u_ch,
            });
        }
        for &q in &[control, target] {
            let phase = frames[q as usize];
            // opclint: allow(float-literal-eq): exact sentinel, as in `Lowering::enter_block`
            if phase != 0.0 {
                schedule.prepend(Instruction::ShiftPhase {
                    phase,
                    channel: Channel::Drive(q),
                });
            }
        }
        let net_phase = |channel: Channel| -> f64 {
            schedule
                .instructions()
                .iter()
                .filter_map(|ti| match &ti.instruction {
                    Instruction::ShiftPhase { phase, channel: ch } if *ch == channel => {
                        Some(*phase)
                    }
                    _ => None,
                })
                .sum()
        };
        for &q in &[control, target] {
            frames[q as usize] = net_phase(Channel::Drive(q));
        }
        Ok(Block::Gate2Q {
            control,
            target,
            schedule,
        })
    }

    fn fresh_echo(
        l: &Lowering,
        control: u32,
        target: u32,
        theta: f64,
        cancel: bool,
    ) -> Option<Schedule> {
        if cancel {
            l.calibration
                .echoed_cr_schedule_cancelled(l.device, control, target, theta)
        } else {
            l.calibration
                .echoed_cr_schedule(l.device, control, target, theta)
        }
        .ok()
    }

    /// CNOT = Rz_c(90°)·Rx90_t·CR(−90°): a fresh echoed block, a fresh
    /// target rx90 and a virtual Z on the control.
    fn fresh_cnot(l: &Lowering, control: u32, target: u32, cancel: bool) -> Option<Schedule> {
        let mut s = fresh_echo(l, control, target, -FRAC_PI_2, cancel)?;
        let barrier = [
            Channel::Drive(control),
            Channel::Drive(target),
            l.device.control_channel(control, target)?,
        ];
        l.calibration.qubit(target).append_rx90(
            &mut s,
            Channel::Drive(target),
            &barrier,
            &format!("rx90_d{target}"),
        );
        s.append(Instruction::ShiftPhase {
            phase: -FRAC_PI_2,
            channel: Channel::Drive(control),
        });
        Some(s.named(format!("cx q{control},q{target}")))
    }

    /// Every sample and `ShiftPhase` of a program as raw bits, blocks then
    /// display schedule (`==` on `f64` cannot tell `-0.0` from `0.0`).
    fn program_bits(p: &LoweredProgram) -> Vec<u64> {
        fn schedule_bits(s: &Schedule, out: &mut Vec<u64>) {
            for ti in s.instructions() {
                out.push(ti.start);
                match &ti.instruction {
                    Instruction::Play { waveform, .. } => waveform_bits(waveform, out),
                    Instruction::ShiftPhase { phase, .. } => out.push(phase.to_bits()),
                    other => out.push(other.duration()),
                }
            }
        }
        fn waveform_bits(w: &Waveform, out: &mut Vec<u64>) {
            for z in w.samples() {
                out.extend([z.re.to_bits(), z.im.to_bits()]);
            }
        }
        let mut out = Vec::new();
        for block in &p.blocks {
            match block {
                Block::Gate1Q { waveforms, .. } => {
                    waveforms.iter().for_each(|w| waveform_bits(w, &mut out))
                }
                Block::Gate2Q { schedule, .. } => schedule_bits(schedule, &mut out),
                Block::Idle { duration, .. } => out.push(*duration),
            }
        }
        schedule_bits(&p.schedule, &mut out);
        out
    }

    /// The circuits the cancellation tests above lower: an open CNOT, and
    /// plain / X-absorbing / plain CNOTs on one pair.
    fn cancellation_circuits() -> Vec<Circuit> {
        let mut open = Circuit::new(2);
        open.push(Gate::OpenCnot, &[0, 1]);
        let mut mixed = Circuit::new(2);
        mixed.cnot(0, 1).x(0).cnot(0, 1).cnot(0, 1);
        vec![open, mixed]
    }

    #[test]
    fn cmd_def_lowering_is_bit_identical_to_per_call_renders() {
        let smoke = quant_corpus::generate(quant_corpus::Tier::Smoke);
        let mut lowered = 0;
        for n in [2usize, 3, 5, 10] {
            for seed in 1..=4 {
                let mut rng = seeded(seed);
                let device = DeviceModel::almaden_like(n, &mut rng);
                let cal = calibrate(&device, &mut rng);
                let opts = |pulse_cancellation| LowerOptions { pulse_cancellation };
                // The cmd_def CNOT entries are the fresh renders.
                let l = Lowering::new(&device, &cal, opts(false));
                for pair in cal.pairs() {
                    let (c, t) = (pair.control, pair.target);
                    for (entry, cancel) in [("cx", false), ("cx_cancelled", true)] {
                        assert_eq!(
                            cal.cmd_def().get(entry, &[c, t]),
                            fresh_cnot(&l, c, t, cancel).as_ref(),
                            "n={n} seed={seed} {entry} q{c},q{t}"
                        );
                    }
                }
                // Lowering through cmd_def equals the oracle, bit for bit.
                let map = CouplingMap::linear(n as u32);
                let mut cases = Vec::new();
                for entry in smoke.iter().filter(|e| e.width as usize <= n) {
                    let routed = route(&entry.circuit, &map).expect("routes").circuit;
                    cases.push((
                        to_basis(&baseline_optimize(&routed), BasisKind::Standard),
                        false,
                    ));
                    cases.push((to_basis(&optimize(&routed), BasisKind::Augmented), true));
                }
                for c in cancellation_circuits() {
                    let basis = to_basis(&c, BasisKind::Augmented);
                    cases.push((basis.clone(), false));
                    cases.push((basis, true));
                }
                for (basis, cancel) in &cases {
                    let l = Lowering::new(&device, &cal, opts(*cancel));
                    let got = l.lower(basis).expect("lowers");
                    let want = lower_oracle(&l, basis).expect("oracle lowers");
                    assert!(got == want, "n={n} seed={seed}: program differs\n{basis}");
                    assert_eq!(program_bits(&got), program_bits(&want));
                    lowered += 1;
                }
            }
        }
        assert!(lowered > 300, "only {lowered} programs compared");
    }

    #[test]
    fn lowered_cnots_play_the_cmd_def_buffers() {
        let mut rng = seeded(3);
        let device = DeviceModel::almaden_like(2, &mut rng);
        let cal = calibrate(&device, &mut rng);
        let mut c = Circuit::new(2);
        c.cnot(0, 1).x(0).cnot(0, 1);
        let basis = to_basis(&c, BasisKind::Augmented);
        let program = Lowering::new(
            &device,
            &cal,
            LowerOptions {
                pulse_cancellation: true,
            },
        )
        .lower(&basis)
        .unwrap();
        let plays = |s: &Schedule| -> Vec<Waveform> {
            s.instructions()
                .iter()
                .filter_map(|ti| match &ti.instruction {
                    Instruction::Play { waveform, .. } => Some(waveform.clone()),
                    _ => None,
                })
                .collect()
        };
        let blocks: Vec<&Schedule> = program
            .blocks
            .iter()
            .filter_map(|b| match b {
                Block::Gate2Q { schedule, .. } => Some(schedule),
                _ => None,
            })
            .collect();
        assert_eq!(blocks.len(), 2, "the X was absorbed into the second CNOT");
        for (block, entry) in blocks.into_iter().zip(["cx", "cx_cancelled"]) {
            let (got, want) = (
                plays(block),
                plays(cal.cmd_def().get(entry, &[0, 1]).unwrap()),
            );
            // Two CR halves, the echo X pulses and the target rx90.
            assert_eq!(got.len(), want.len());
            assert!(got.len() >= 4, "{entry}: {} plays", got.len());
            for (g, w) in got.iter().zip(&want) {
                assert!(g.shares_samples(w), "{entry}: {} copied", g.name());
            }
        }
    }

    #[test]
    fn oversized_cr_is_a_typed_error_not_an_abort() {
        let c2 = ctx(2);
        let lowering = Lowering::new(&c2.device, &c2.calibration, LowerOptions::default());
        for theta in [1e7, -1e7, 1e300, f64::INFINITY, f64::NAN] {
            let mut c = Circuit::new(2);
            c.push(Gate::Cr(theta), &[0, 1]);
            match lowering.lower(&c) {
                Err(LowerError::CrTooLong(t)) => assert_eq!(t.to_bits(), theta.to_bits()),
                other => panic!("CR({theta}): expected CrTooLong, got {other:?}"),
            }
        }
        let err = LowerError::CrTooLong(1e7).to_string();
        assert!(err.contains("1048576 samples"), "{err}");
        // rzz(100), far beyond any corpus angle, still lowers.
        let mut c = Circuit::new(2);
        c.zz(0, 1, 100.0);
        let program = lowering
            .lower(&to_basis(&c, BasisKind::Augmented))
            .expect("rzz(100) lowers");
        assert!(program.duration() > 90_000, "{} dt", program.duration());
    }

    #[test]
    fn cancellation_check_reads_the_qubit_number() {
        let x_on = |q: u32, name: &str| {
            let mut blocks = vec![Block::Gate1Q {
                qubit: q,
                waveforms: vec![Waveform::new(name, vec![C64::real(0.1)])],
            }];
            pop_cancellable_x(&mut blocks, q)
        };
        assert!(x_on(1, "x_d1*z"));
        assert!(x_on(12, "x_d12*z"));
        assert!(!x_on(1, "x_d12*z"));
        assert!(!x_on(1, "rx(0.500)_d1*z"));
        assert!(!x_on(1, "rx90_d1*z"));
    }
}
