//! OpenPulse-analog pulse intermediate representation.
//!
//! This crate models the paper's lowest compilation stage (Table 1, row 4):
//! complex-valued analog envelopes scheduled across drive/control/measure
//! channels, with zero-duration frame changes for virtual-Z gates and
//! frequency shifts for qudit subspace addressing.
//!
//! * [`Waveform`] and the parametric shapes ([`Gaussian`], [`Drag`],
//!   [`GaussianSquare`], [`Constant`]) — envelopes with the amplitude-scale
//!   and horizontal-stretch transforms the compiler's augmented basis gates
//!   are built from.
//! * [`Schedule`] / [`Instruction`] / [`Channel`] — timed instruction
//!   containers with per-channel alignment semantics.
//! * [`CmdDef`] — the backend-reported gate → schedule calibration library.
//! * [`verify`](mod@verify) — the static schedule verifier: timing,
//!   physical-bound, topology, and measurement-discipline checks as typed
//!   findings.
//!
//! # Example
//!
//! ```
//! use quant_pulse::{Channel, Drag, Instruction, Schedule};
//!
//! // The standard X gate: two Rx(90°) pulses back to back (71.1 ns)...
//! let rx90 = Drag { duration: 160, amp: 0.1, sigma: 40.0, beta: 1.2 };
//! let mut standard = Schedule::new("x_standard");
//! for _ in 0..2 {
//!     standard.append(Instruction::Play {
//!         waveform: rx90.waveform("rx90"),
//!         channel: Channel::Drive(0),
//!     });
//! }
//! // ...versus the DirectX gate: one Rx(180°) pulse (35.6 ns).
//! let rx180 = Drag { duration: 160, amp: 0.2, sigma: 40.0, beta: 1.2 };
//! let mut direct = Schedule::new("x_direct");
//! direct.append(Instruction::Play {
//!     waveform: rx180.waveform("rx180"),
//!     channel: Channel::Drive(0),
//! });
//! assert_eq!(standard.duration(), 2 * direct.duration());
//! ```

#![warn(missing_docs)]

mod library;
mod schedule;
pub mod verify;
mod waveform;

pub use library::{CmdDef, CmdKey};
pub use schedule::{Channel, Instruction, Schedule, TimedInstruction};
pub use verify::{verify, ScheduleFinding, VerifySpec, RULES as VERIFY_RULES};
pub use waveform::{Constant, Drag, Gaussian, GaussianSquare, Waveform};
