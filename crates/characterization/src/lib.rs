//! Characterization and error-analysis tooling for the reproduction.
//!
//! * [`metrics`] — Hellinger distance/fidelity (the paper's top-level
//!   error metric).
//! * [`tomography`] — single-qubit state tomography (X/Y/Z axes), Bloch
//!   vectors, and the meridian-deviation quantity of Figs. 6–7.
//! * [`mitigation`] — measurement-error mitigation by confusion-matrix
//!   inversion (§2.4).
//! * [`rb`] — randomized-benchmarking-style sequences and the `a·fᴷ + b`
//!   decay fit of Fig. 13.
//! * [`lda`] — from-scratch linear discriminant analysis for qutrit IQ
//!   readout (§7.2).
//!
//! ```
//! use quant_char::hellinger_distance;
//!
//! let ideal = [0.5, 0.0, 0.0, 0.5];
//! let measured = [0.46, 0.04, 0.05, 0.45];
//! assert!(hellinger_distance(&ideal, &measured) < 0.25);
//! ```

#![warn(missing_docs)]

pub mod lda;
pub mod metrics;
pub mod mitigation;
pub mod rb;
pub mod tomography;

pub use lda::Lda;
pub use metrics::{counts_to_distribution, hellinger_distance, hellinger_fidelity};
pub use mitigation::Mitigator;
pub use rb::{interleaved_gate_fidelity, interleaved_rb_sequence, rb_sequence, RbData};
pub use tomography::{bloch_from_p0, Axis, BlochVector};
