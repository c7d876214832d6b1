//! The gate set.
//!
//! [`Gate`] spans three layers of the paper's Table 1:
//!
//! * **assembly-level** gates programmers write (X, H, CNOT, Rz…),
//! * **standard basis gates** hardware calibrates (U3, CNOT), and
//! * **augmented basis gates** the paper's compiler adds (`DirectX`,
//!   `DirectRx(θ)`, `Cr(θ)`, `SqrtISwap`), which map one-to-one onto pulse
//!   primitives.
//!
//! Every gate knows its exact unitary; the distinction between the layers
//! lives in the compiler's basis-set configuration, not the type.

use quant_math::CMat;
use quant_sim::gates as g;
use std::fmt;

/// A quantum gate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// Identity (explicit idle).
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S.
    S,
    /// S†.
    Sdg,
    /// T gate.
    T,
    /// T†.
    Tdg,
    /// Rotation about X by radians.
    Rx(f64),
    /// Rotation about Y by radians.
    Ry(f64),
    /// Rotation about Z by radians (virtual-Z at the pulse level).
    Rz(f64),
    /// Generic single-qubit gate U3(θ, φ, λ).
    U3(f64, f64, f64),
    /// Augmented basis gate: single-pulse X via the calibrated Rx(180°)
    /// pulse (paper §4.1).
    DirectX,
    /// Augmented basis gate: single-pulse Rx(θ) via amplitude scaling
    /// (paper §4.2).
    DirectRx(f64),
    /// CNOT, first operand is the control.
    Cnot,
    /// Open-controlled NOT: flips target when control is |0⟩ (paper §5.2).
    OpenCnot,
    /// Controlled-Z.
    Cz,
    /// SWAP.
    Swap,
    /// iSWAP.
    ISwap,
    /// √iSWAP — the "half gate" of Table 2.
    SqrtISwap,
    /// bSWAP (two-photon gate).
    BSwap,
    /// MAP (microwave-activated conditional phase).
    Map,
    /// Augmented basis gate: parametrized cross-resonance CR(θ) =
    /// exp(-iθ/2·Z⊗X), first operand is the Z (control) qubit (paper §6).
    Cr(f64),
    /// ZZ interaction: exp(-iθ/2·Z⊗Z) — the dominant near-term two-qubit
    /// operation.
    Zz(f64),
    /// Fermionic-simulation gate fSim(θ, φ).
    FSim(f64, f64),
    /// Qutrit subspace gate: X on the |1⟩↔|2⟩ transition (pulse-only).
    QutritX12,
    /// Qutrit subspace gate: X on the |0⟩↔|2⟩ two-photon transition
    /// (pulse-only).
    QutritX02,
    /// A single-wire barrier: an identity that no transpiler pass may
    /// merge, cancel or commute across (used by RB-style experiments to
    /// keep deliberately redundant gates intact).
    Barrier,
}

impl Gate {
    /// Number of operands.
    pub fn arity(&self) -> usize {
        match self {
            Gate::I
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::H
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Rz(_)
            | Gate::U3(..)
            | Gate::DirectX
            | Gate::DirectRx(_)
            | Gate::QutritX12
            | Gate::QutritX02
            | Gate::Barrier => 1,
            _ => 2,
        }
    }

    /// Lower-case mnemonic, matching OpenQASM / cmd_def names where one
    /// exists.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::I => "id",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::H => "h",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::U3(..) => "u3",
            Gate::DirectX => "direct_x",
            Gate::DirectRx(_) => "direct_rx",
            Gate::Cnot => "cx",
            Gate::OpenCnot => "open_cx",
            Gate::Cz => "cz",
            Gate::Swap => "swap",
            Gate::ISwap => "iswap",
            Gate::SqrtISwap => "sqrt_iswap",
            Gate::BSwap => "bswap",
            Gate::Map => "map",
            Gate::Cr(_) => "cr",
            Gate::Zz(_) => "zz",
            Gate::FSim(..) => "fsim",
            Gate::QutritX12 => "qutrit_x12",
            Gate::QutritX02 => "qutrit_x02",
            Gate::Barrier => "barrier",
        }
    }

    /// The gate's unitary in the computational basis. Qutrit gates return
    /// 3×3 matrices; everything else is 2×2 or 4×4 with the first operand
    /// as the least-significant index digit.
    pub fn matrix(&self) -> CMat {
        match *self {
            Gate::I => g::id2(),
            Gate::X | Gate::DirectX => g::x(),
            Gate::Y => g::y(),
            Gate::Z => g::z(),
            Gate::H => g::h(),
            Gate::S => g::s(),
            Gate::Sdg => g::sdg(),
            Gate::T => g::t(),
            Gate::Tdg => g::t().dagger(),
            Gate::Rx(t) | Gate::DirectRx(t) => g::rx(t),
            Gate::Ry(t) => g::ry(t),
            Gate::Rz(t) => g::rz(t),
            Gate::U3(t, p, l) => g::u3(t, p, l),
            Gate::Cnot => g::cnot(),
            Gate::OpenCnot => g::open_cnot(),
            Gate::Cz => g::cz(),
            Gate::Swap => g::swap(),
            Gate::ISwap => g::iswap(),
            Gate::SqrtISwap => g::sqrt_iswap(),
            Gate::BSwap => g::bswap(),
            Gate::Map => g::map_gate(),
            Gate::Cr(t) => g::cr(t),
            Gate::Zz(t) => g::zz(t),
            Gate::FSim(t, p) => g::fsim(t, p),
            Gate::QutritX12 => g::qutrit_x12(),
            Gate::QutritX02 => g::qutrit_x02(),
            Gate::Barrier => g::id2(),
        }
    }

    /// The inverse gate, kept within the gate set where possible.
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::Rx(t) => Gate::Rx(-t),
            Gate::Ry(t) => Gate::Ry(-t),
            Gate::Rz(t) => Gate::Rz(-t),
            Gate::DirectRx(t) => Gate::DirectRx(-t),
            Gate::U3(t, p, l) => Gate::U3(-t, -l, -p),
            Gate::Cr(t) => Gate::Cr(-t),
            Gate::Zz(t) => Gate::Zz(-t),
            Gate::FSim(t, p) => Gate::FSim(-t, -p),
            Gate::ISwap | Gate::SqrtISwap | Gate::BSwap | Gate::QutritX02 | Gate::QutritX12 => {
                // No in-set inverse; callers needing exact inverses of these
                // should use `matrix().dagger()` via a U3/KAK resynthesis.
                // For the self-inverse qutrit X gates, the gate itself.
                match *self {
                    Gate::QutritX02 => Gate::QutritX02,
                    Gate::QutritX12 => Gate::QutritX12,
                    Gate::ISwap => Gate::ISwap, // caller must add Z⊗Z correction
                    Gate::SqrtISwap => Gate::SqrtISwap,
                    Gate::BSwap => Gate::BSwap,
                    _ => unreachable!(),
                }
            }
            other => other, // self-inverse: I, X, Y, Z, H, CNOT, CZ, SWAP, …
        }
    }

    /// Whether this gate is diagonal in the computational basis (commutes
    /// with Z-basis structure) — used by the commutativity-detection pass.
    pub fn is_diagonal(&self) -> bool {
        matches!(
            self,
            Gate::I
                | Gate::Z
                | Gate::S
                | Gate::Sdg
                | Gate::T
                | Gate::Tdg
                | Gate::Rz(_)
                | Gate::Cz
                | Gate::Zz(_)
        )
    }

    /// Whether the gate carries continuous parameters.
    pub fn is_parametrized(&self) -> bool {
        matches!(
            self,
            Gate::Rx(_)
                | Gate::Ry(_)
                | Gate::Rz(_)
                | Gate::U3(..)
                | Gate::DirectRx(_)
                | Gate::Cr(_)
                | Gate::Zz(_)
                | Gate::FSim(..)
        )
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Gate::Rx(t) => write!(f, "rx({t:.4})"),
            Gate::Ry(t) => write!(f, "ry({t:.4})"),
            Gate::Rz(t) => write!(f, "rz({t:.4})"),
            Gate::DirectRx(t) => write!(f, "direct_rx({t:.4})"),
            Gate::U3(t, p, l) => write!(f, "u3({t:.4},{p:.4},{l:.4})"),
            Gate::Cr(t) => write!(f, "cr({t:.4})"),
            Gate::Zz(t) => write!(f, "zz({t:.4})"),
            Gate::FSim(t, p) => write!(f, "fsim({t:.4},{p:.4})"),
            _ => write!(f, "{}", self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant_math::CMat;

    #[test]
    fn arity_consistency() {
        assert_eq!(Gate::X.arity(), 1);
        assert_eq!(Gate::U3(0.1, 0.2, 0.3).arity(), 1);
        assert_eq!(Gate::Cnot.arity(), 2);
        assert_eq!(Gate::Cr(0.5).arity(), 2);
        assert_eq!(Gate::QutritX12.arity(), 1);
    }

    #[test]
    fn matrices_are_unitary() {
        let gates = [
            Gate::I,
            Gate::X,
            Gate::H,
            Gate::T,
            Gate::Rx(0.3),
            Gate::U3(1.0, 2.0, 3.0),
            Gate::DirectX,
            Gate::DirectRx(0.9),
            Gate::Cnot,
            Gate::OpenCnot,
            Gate::Cr(1.2),
            Gate::Zz(0.4),
            Gate::FSim(0.5, 0.6),
            Gate::SqrtISwap,
            Gate::QutritX02,
        ];
        for gate in gates {
            assert!(gate.matrix().is_unitary(1e-10), "{gate} not unitary");
        }
    }

    #[test]
    fn inverse_gates_compose_to_identity() {
        let gates = [
            Gate::X,
            Gate::H,
            Gate::S,
            Gate::T,
            Gate::Rx(0.7),
            Gate::Rz(-1.1),
            Gate::U3(0.5, 1.5, 2.5),
            Gate::Cnot,
            Gate::Cz,
            Gate::Cr(0.8),
            Gate::Zz(0.9),
        ];
        for gate in gates {
            let m = gate.matrix();
            let inv = gate.inverse().matrix();
            let prod = &m * &inv;
            assert!(
                prod.phase_invariant_diff(&CMat::identity(m.rows())) < 1e-10,
                "{gate} inverse wrong"
            );
        }
    }

    #[test]
    fn direct_gates_match_standard_unitaries() {
        assert!(Gate::DirectX.matrix().max_abs_diff(&Gate::X.matrix()) < 1e-12);
        assert!(
            Gate::DirectRx(0.33)
                .matrix()
                .max_abs_diff(&Gate::Rx(0.33).matrix())
                < 1e-12
        );
    }

    #[test]
    fn diagonal_classification() {
        assert!(Gate::Rz(0.5).is_diagonal());
        assert!(Gate::Zz(0.5).is_diagonal());
        assert!(Gate::Cz.is_diagonal());
        assert!(!Gate::Rx(0.5).is_diagonal());
        assert!(!Gate::Cnot.is_diagonal());
    }

    #[test]
    fn display_includes_parameters() {
        assert_eq!(Gate::Rz(0.5).to_string(), "rz(0.5000)");
        assert_eq!(Gate::Cnot.to_string(), "cx");
    }
}
