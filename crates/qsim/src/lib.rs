//! Qudit state-vector and density-matrix simulation.
//!
//! This crate is the quantum-mechanics substrate for the OpenPulse
//! reproduction:
//!
//! * [`StateVector`] — pure states over mixed-dimension (qubit/qutrit)
//!   registers, with gate application, expectation values, Bloch vectors and
//!   shot sampling.
//! * [`DensityMatrix`] — mixed states with Kraus-channel noise, used by the
//!   fast executor tier behind the paper's algorithm benchmarks.
//! * [`gates`] — the standard gate matrix library, including the two-qubit
//!   native gates of Table 2 (CR(θ), iSWAP, √iSWAP, bSWAP, MAP) and qutrit
//!   subspace gates.
//! * [`channels`] — amplitude damping, dephasing, depolarizing, thermal
//!   relaxation, leakage and qutrit channels.
//! * [`kernels`] — in-place stride-based kernels: the superoperator fast
//!   path behind [`DensityMatrix`] and the state-vector fast path behind
//!   [`StateVector`]. Their tests compare against a dense oracle built on
//!   [`embed`] (`embed(U)·ρ·embed(U)†`, `embed(U)·ψ`).
//! * [`fusion`] — the gate-fusion planner: merges adjacent operators with
//!   overlapping supports into fused blocks (≤ 5 qubits) that the blocked
//!   state-vector kernels then apply in one sweep each.
//!
//! # Example
//!
//! ```
//! use quant_sim::{gates, StateVector};
//!
//! let mut psi = StateVector::zero_qubits(2);
//! psi.apply_unitary(&gates::h(), &[0]);
//! psi.apply_unitary(&gates::cnot(), &[0, 1]);
//! let p = psi.probabilities();
//! assert!((p[0] - 0.5).abs() < 1e-12 && (p[3] - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod channels;
pub mod fusion;
pub mod gates;
pub mod kernels;

mod analysis;
mod density;
mod state;

pub use analysis::euler_zxz;
pub use density::{embed, DensityMatrix};
pub use fusion::{FusionPlan, OpDesc};
pub use kernels::{KernelScratch, TargetIndex};
pub use state::StateVector;
