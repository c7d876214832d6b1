//! The paper's core contribution: a pulse-optimizing quantum compiler.
//!
//! Standard quantum compilers stop at a hardware-agnostic basis-gate set
//! and pay for it at the pulse level: every single-qubit gate becomes two
//! `Rx(90°)` pulses, and every two-qubit operation is forced through full
//! CNOTs. This crate reproduces the compiler of *Optimized Quantum
//! Compilation for Near-Term Algorithms with OpenPulse* (Gokhale et al.,
//! MICRO 2020), which augments the basis-gate set with pulse-backed
//! primitives bootstrapped from the device's daily calibrations:
//!
//! 1. **Direct rotations** ([`translate`], [`lower`]) — `DirectX` reuses
//!    the pre-calibrated `Rx(180°)` pulse; `DirectRx(θ)` scales its
//!    amplitude by `θ/180°`, with the Fig.-7 empirical phase correction.
//! 2. **Cross-gate pulse cancellation** ([`lower`]) — CNOT's echo exposes
//!    internal X pulses that cancel against neighbouring gates.
//! 3. **Two-qubit decompositions** ([`mod@decompose`], [`kak`]) — the
//!    parametrized `CR(θ)` (horizontally stretched echo) implements the ZZ
//!    interaction with a single two-qubit pulse block.
//! 4. The transpiler passes ([`passes`]) — commutativity detection and
//!    augmented-basis-gate detection — keep user code hardware-agnostic.
//!
//! Entry point: [`Compiler`] with [`CompileMode::Standard`] (the baseline
//! flow) or [`CompileMode::Optimized`].
//!
//! ```no_run
//! use pulse_compiler::{CompileMode, Compiler};
//! use quant_circuit::Circuit;
//! use quant_device::{calibrate, DeviceModel};
//!
//! let mut rng = quant_math::seeded(1);
//! let device = DeviceModel::almaden_like(2, &mut rng);
//! let calibration = calibrate(&device, &mut rng);
//!
//! // A textbook ZZ interaction…
//! let mut circuit = Circuit::new(2);
//! circuit.cnot(0, 1).rz(1, 0.8).cnot(0, 1);
//!
//! // …compiles to a single stretched-CR pulse block.
//! let compiled = Compiler::new(&device, &calibration, CompileMode::Optimized)
//!     .compile(&circuit)
//!     .unwrap();
//! assert_eq!(compiled.assembly.count_gate("zz"), 1);
//! ```

#![warn(missing_docs)]

pub mod compiler;
pub mod decompose;
pub mod kak;
pub mod lower;
pub mod passes;
pub mod routing;
pub mod translate;

pub use compiler::{CompileMode, Compiled, Compiler};
pub use decompose::{
    average_gate_fidelity, decompose, table2_cost, DecomposeOptions, NativeGate, Synthesis,
    TargetOp,
};
pub use kak::{
    is_local, locally_equivalent, makhlin_invariants, two_cnot_synthesizable, weyl_coordinates,
};
pub use lower::{LowerError, LowerOptions, Lowering};
pub use passes::{baseline_optimize, optimize, run_pipeline, Pass};
pub use routing::{route, CouplingMap, RouteError, Routed};
pub use translate::{to_basis, BasisKind};
