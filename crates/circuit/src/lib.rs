//! Gate-level circuit IR: the "assembly" and "basis gates" stages.
//!
//! * [`Gate`] — the full gate set: textbook assembly gates, standard basis
//!   gates (U3/CNOT), the paper's augmented basis gates (DirectX,
//!   DirectRx(θ), CR(θ), √iSWAP), and qutrit subspace gates.
//! * [`Circuit`] — ordered gate lists with a builder API, simulation and
//!   unitary extraction.
//! * [`CircuitDag`] — wire-dependency DAG with commutation analysis, the
//!   substrate for the compiler's transpiler passes.
//!
//! # Example
//!
//! ```
//! use quant_circuit::Circuit;
//!
//! let mut qaoa_edge = Circuit::new(2);
//! // A textbook ZZ interaction, as a programmer would write it:
//! qaoa_edge.cnot(0, 1).rz(1, 0.8).cnot(0, 1);
//! // ...is exactly the zz(0.8) primitive the compiler will detect:
//! let mut direct = Circuit::new(2);
//! direct.zz(0, 1, 0.8);
//! assert!(qaoa_edge.unitary().phase_invariant_diff(&direct.unitary()) < 1e-10);
//! ```

#![warn(missing_docs)]

mod circuit;
mod dag;
mod gate;
pub mod qasm;

pub use circuit::{Circuit, Operation};
pub use dag::{operations_commute, CircuitDag, NodeId, Operands};
pub use gate::Gate;
