//! Single-qubit state tomography.
//!
//! The paper's Figs. 5–7 and 9 characterize pulses by measuring the X, Y
//! and Z Bloch components of the final state: three experiment variants
//! (pre-measurement rotations), each repeated for many shots.

use quant_circuit::{Circuit, Gate};

/// The three tomography measurement axes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    /// Measure ⟨X⟩: apply H before readout.
    X,
    /// Measure ⟨Y⟩: apply S†·H before readout.
    Y,
    /// Measure ⟨Z⟩: readout directly.
    Z,
}

impl Axis {
    /// All three axes.
    pub fn all() -> [Axis; 3] {
        [Axis::X, Axis::Y, Axis::Z]
    }

    /// Appends the pre-measurement basis rotation for this axis to a
    /// circuit, acting on `qubit`.
    pub fn append_rotation(&self, circuit: &mut Circuit, qubit: u32) {
        match self {
            Axis::X => {
                circuit.h(qubit);
            }
            Axis::Y => {
                circuit.push(Gate::Sdg, &[qubit]);
                circuit.h(qubit);
            }
            Axis::Z => {}
        }
    }

    /// Converts a measured P(outcome = 0) on `qubit` into the Bloch
    /// component: ⟨A⟩ = 2·P(0) − 1.
    pub fn expectation_from_p0(p0: f64) -> f64 {
        2.0 * p0 - 1.0
    }
}

/// A reconstructed single-qubit Bloch vector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlochVector {
    /// ⟨X⟩ component.
    pub x: f64,
    /// ⟨Y⟩ component.
    pub y: f64,
    /// ⟨Z⟩ component.
    pub z: f64,
}

impl BlochVector {
    /// Euclidean norm (≤ 1 for physical states; < 1 indicates mixedness).
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// State fidelity with another Bloch vector, assuming at least one is
    /// pure: `F = (1 + r⃗·s⃗)/2`.
    pub fn fidelity(&self, other: &BlochVector) -> f64 {
        (1.0 + self.x * other.x + self.y * other.y + self.z * other.z) / 2.0
    }
}

/// Assembles a Bloch vector from three per-axis P(0) estimates (in X, Y, Z
/// order).
pub fn bloch_from_p0(p0: [f64; 3]) -> BlochVector {
    BlochVector {
        x: Axis::expectation_from_p0(p0[0]),
        y: Axis::expectation_from_p0(p0[1]),
        z: Axis::expectation_from_p0(p0[2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant_circuit::Circuit;

    /// Ideal tomography of a circuit's qubit-0 state through the actual
    /// measurement-rotation path.
    fn tomograph(circuit: &Circuit) -> BlochVector {
        let mut p0 = [0.0; 3];
        for (i, axis) in Axis::all().iter().enumerate() {
            let mut c = circuit.clone();
            axis.append_rotation(&mut c, 0);
            let probs = c.output_distribution();
            // P(qubit 0 = 0): sum over even indices.
            p0[i] = probs
                .iter()
                .enumerate()
                .filter(|(idx, _)| idx & 1 == 0)
                .map(|(_, &p)| p)
                .sum();
        }
        bloch_from_p0(p0)
    }

    #[test]
    fn tomography_of_cardinal_states() {
        // |0⟩ → +Z.
        let c = Circuit::new(1);
        let b = tomograph(&c);
        assert!((b.z - 1.0).abs() < 1e-10 && b.x.abs() < 1e-10 && b.y.abs() < 1e-10);

        // |+⟩ → +X.
        let mut c = Circuit::new(1);
        c.h(0);
        let b = tomograph(&c);
        assert!((b.x - 1.0).abs() < 1e-10);

        // |+i⟩ = S|+⟩ → +Y.
        let mut c = Circuit::new(1);
        c.h(0).push(Gate::S, &[0]);
        let b = tomograph(&c);
        assert!((b.y - 1.0).abs() < 1e-10, "y = {}", b.y);

        // X|0⟩ → −Z.
        let mut c = Circuit::new(1);
        c.x(0);
        let b = tomograph(&c);
        assert!((b.z + 1.0).abs() < 1e-10);
    }

    #[test]
    fn rx_rotation_traces_meridian() {
        // Rx(θ)|0⟩ stays on the X = 0 meridian: x-component zero.
        for k in 1..8 {
            let theta = k as f64 * 0.39;
            let mut c = Circuit::new(1);
            c.rx(0, theta);
            let b = tomograph(&c);
            assert!(b.x.abs() < 1e-10);
            assert!((b.z - theta.cos()).abs() < 1e-10);
            assert!((b.y + theta.sin()).abs() < 1e-10);
            assert!((b.norm() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn fidelity_of_bloch_vectors() {
        let up = BlochVector {
            x: 0.0,
            y: 0.0,
            z: 1.0,
        };
        let down = BlochVector {
            x: 0.0,
            y: 0.0,
            z: -1.0,
        };
        assert!((up.fidelity(&up) - 1.0).abs() < 1e-12);
        assert!(up.fidelity(&down).abs() < 1e-12);
        let eq = BlochVector {
            x: 1.0,
            y: 0.0,
            z: 0.0,
        };
        assert!((up.fidelity(&eq) - 0.5).abs() < 1e-12);
    }
}
