//! Numerical substrate for the OpenPulse-compilation reproduction.
//!
//! Everything the rest of the workspace needs and nothing more: complex
//! numbers, dense complex matrices, Hermitian eigendecomposition and matrix
//! exponentials, polynomial root finding (for Weyl-chamber analysis),
//! a derivative-free optimizer (Nelder–Mead, used for gate-decomposition
//! searches and variational algorithm loops),
//! least-squares curve fitting, and seeded randomness helpers.
//!
//! # Example
//!
//! ```
//! use quant_math::{C64, CMat, unitary_exp};
//!
//! // Rx(π) = exp(-i·π·X/2) is the X gate up to phase.
//! let x = CMat::from_real_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
//! let rx_pi = unitary_exp(&x.scale(C64::real(0.5)), std::f64::consts::PI);
//! assert!(rx_pi.phase_invariant_diff(&x) < 1e-9);
//! ```

#![warn(missing_docs)]

mod complex;
mod eig;
mod fit;
mod fnv;
mod mat;
mod optimize;
mod poly;
mod prop;
mod rng;

pub use complex::C64;
pub use eig::{eigh, expm, unitary_exp, HermitianEig};
pub use fit::{fit_cosine, fit_exp_decay, linear_least_squares, CosineFit, ExpDecayFit};
pub use fnv::{fnv1a, fnv1a_bytes, FNV_OFFSET};
pub use mat::CMat;
pub use optimize::{nelder_mead, NelderMeadOptions, OptimizeResult};
pub use poly::{characteristic_polynomial, durand_kerner, eigenvalues};
pub use prop::{
    mul9_blocks_slab_into, mul9_into, mul9_slab_into, unitary_exp3, unitary_exp3_pair,
    unitary_exp9_in_blocks_into, unitary_exp9_into, Blocks9, PropagatorScratch, Slab9x4,
};
pub use rng::{categorical, normal, seeded, stream_seed};
