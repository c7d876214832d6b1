//! Deterministic circuit generators: the corpus' five families.
//!
//! Every generator is a pure function of its explicit parameters (widths,
//! depths, seeds) — no entropy, no wall clock — so the corpus is
//! reproducible bit-for-bit on any machine and any thread count. The
//! families were picked to stress different compiler muscles:
//!
//! * **QFT** — long-range controlled phases: routing pressure plus deep
//!   Rz/CNOT chains the ZZ-detection pass can fold.
//! * **Ripple-carry adders** (Cuccaro) — Toffoli-heavy arithmetic with a
//!   deterministic classical answer, decomposed to the 1q/2q gate set.
//! * **Random Cliffords** — seeded dense layers of {H, S, X, Z, CX, CZ};
//!   the "no structure to exploit" control group.
//! * **QAOA lines** — the paper's own headline workload: textbook
//!   CNOT·Rz·CNOT cost layers that pulse-level compilation turns into
//!   single stretched-CR blocks.
//! * **VQE lines** — hardware-efficient Ry/Rz + entangler ansatz layers,
//!   the direct-rotation (single-pulse Rx/Ry) showcase.

use quant_circuit::{Circuit, Gate};
use quant_math::seeded;
use rand::Rng;
use std::f64::consts::PI;
use std::fmt;

/// A corpus family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// Quantum Fourier transform (no final reversal swaps).
    Qft,
    /// Cuccaro ripple-carry adder with classical inputs prepared by X
    /// gates.
    Adder,
    /// Seeded random Clifford layers.
    Clifford,
    /// Line-graph MAXCUT QAOA at fixed angles.
    Qaoa,
    /// Hardware-efficient VQE ansatz with seeded angles.
    Vqe,
}

impl Family {
    /// Stable lower-case name (used in reports and golden files).
    pub fn name(&self) -> &'static str {
        match self {
            Family::Qft => "qft",
            Family::Adder => "adder",
            Family::Clifford => "clifford",
            Family::Qaoa => "qaoa",
            Family::Vqe => "vqe",
        }
    }

    /// All families, in report order.
    pub fn all() -> [Family; 5] {
        [
            Family::Qft,
            Family::Adder,
            Family::Clifford,
            Family::Qaoa,
            Family::Vqe,
        ]
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One generated benchmark circuit.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// The family it belongs to.
    pub family: Family,
    /// Unique name, e.g. `qft_n4` or `clifford_n3_s2`.
    pub name: String,
    /// Logical register width.
    pub width: u32,
    /// The logical circuit (pre-routing).
    pub circuit: Circuit,
}

/// Corpus size tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Small widths (≤ 4 qubits), one or two instances per family, plus
    /// one 10-qubit QAOA line that crosses the density wall so the
    /// trajectory (and fusion) path is exercised by the committed golden
    /// summaries this tier backs in CI.
    Smoke,
    /// The full 50+-circuit corpus at growing widths (up to 10 qubits,
    /// trajectory-executed past the density wall).
    Full,
}

impl Tier {
    /// Stable lower-case name, as reports and command lines spell it.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Smoke => "smoke",
            Tier::Full => "full",
        }
    }

    /// The tier a [`Tier::name`] spells, if any.
    pub fn parse(name: &str) -> Option<Tier> {
        [Tier::Smoke, Tier::Full]
            .into_iter()
            .find(|t| t.name() == name)
    }
}

/// Appends a controlled-phase CP(θ) in the textbook Rz/CNOT decomposition
/// (up to global phase), so the assembly stage stays in the parser's gate
/// set and the optimized flow's ZZ detection has something to find.
fn controlled_phase(c: &mut Circuit, control: u32, target: u32, theta: f64) {
    c.rz(control, theta / 2.0).rz(target, theta / 2.0);
    c.cnot(control, target)
        .rz(target, -theta / 2.0)
        .cnot(control, target);
}

/// The n-qubit QFT without the final bit-reversal swaps (the common
/// benchmark convention; the reversal is classical bookkeeping).
pub fn qft(n: u32) -> Circuit {
    let mut c = Circuit::new(n);
    for i in 0..n {
        c.h(i);
        for j in i + 1..n {
            let theta = PI / (1u64 << (j - i)) as f64;
            controlled_phase(&mut c, j, i, theta);
        }
    }
    c
}

/// Appends a Toffoli (CCX) in the standard T-depth decomposition: 6 CNOTs,
/// 7 T/T†, 2 H — entirely inside the parser's gate set.
fn toffoli(c: &mut Circuit, c1: u32, c2: u32, t: u32) {
    c.h(t);
    c.cnot(c2, t).push(Gate::Tdg, &[t]);
    c.cnot(c1, t).push(Gate::T, &[t]);
    c.cnot(c2, t).push(Gate::Tdg, &[t]);
    c.cnot(c1, t).push(Gate::T, &[t]);
    c.push(Gate::T, &[c2]).h(t);
    c.cnot(c1, c2).push(Gate::T, &[c1]).push(Gate::Tdg, &[c2]);
    c.cnot(c1, c2);
}

/// A Cuccaro ripple-carry adder computing `a + b` on `2·bits + 2` qubits
/// (layout: `cin, a0, b0, a1, b1, …, cout`), with the classical inputs
/// prepared by X gates. The ideal output is one deterministic basis state,
/// which makes the family a sharp fidelity probe.
///
/// # Panics
///
/// Panics when an input value needs more than `bits` bits.
pub fn ripple_adder(bits: u32, a: u64, b: u64) -> Circuit {
    assert!(
        bits >= 1 && a < (1 << bits) && b < (1 << bits),
        "inputs exceed {bits} bits"
    );
    let n = 2 * bits + 2;
    let mut c = Circuit::new(n);
    let qa = |i: u32| 1 + 2 * i; // a_i
    let qb = |i: u32| 2 + 2 * i; // b_i (sum lands here)
    let cin = 0u32;
    let cout = n - 1;
    for i in 0..bits {
        if (a >> i) & 1 == 1 {
            c.x(qa(i));
        }
        if (b >> i) & 1 == 1 {
            c.x(qb(i));
        }
    }
    // MAJ ladder: carry ripples through the a-wires.
    let maj = |c: &mut Circuit, carry: u32, bq: u32, aq: u32| {
        c.cnot(aq, bq).cnot(aq, carry);
        toffoli(c, carry, bq, aq);
    };
    let uma = |c: &mut Circuit, carry: u32, bq: u32, aq: u32| {
        toffoli(c, carry, bq, aq);
        c.cnot(aq, carry).cnot(carry, bq);
    };
    maj(&mut c, cin, qb(0), qa(0));
    for i in 1..bits {
        maj(&mut c, qa(i - 1), qb(i), qa(i));
    }
    c.cnot(qa(bits - 1), cout);
    for i in (1..bits).rev() {
        uma(&mut c, qa(i - 1), qb(i), qa(i));
    }
    uma(&mut c, cin, qb(0), qa(0));
    c
}

/// Seeded random Clifford layers: per layer a uniform 1-qubit Clifford on
/// every wire, then CX/CZ bricks on alternating adjacent pairs.
pub fn random_clifford(n: u32, layers: u32, seed: u64) -> Circuit {
    let mut rng = seeded(seed ^ 0xC11F_F04D);
    let mut c = Circuit::new(n);
    for layer in 0..layers {
        for q in 0..n {
            match rng.gen_range(0..6) {
                0 => c.h(q),
                1 => c.push(Gate::S, &[q]),
                2 => c.push(Gate::Sdg, &[q]),
                3 => c.x(q),
                4 => c.z(q),
                _ => c.y(q),
            };
        }
        let offset = layer % 2;
        let mut q = offset;
        while q + 1 < n {
            match rng.gen_range(0..3) {
                0 => c.cnot(q, q + 1),
                1 => c.cnot(q + 1, q),
                _ => c.cz(q, q + 1),
            };
            q += 2;
        }
    }
    c
}

/// Fixed QAOA angles: deliberately *not* optimized per instance, so the
/// corpus stays polynomial in width and identical across runs.
pub const QAOA_ANGLES: [(f64, f64); 2] = [(0.7, 0.42), (0.5, 0.31)];

/// Depth-p line-graph MAXCUT QAOA at the fixed [`QAOA_ANGLES`].
pub fn qaoa_line(n: u32, p: usize) -> Circuit {
    quant_algos::LineGraph::new(n as usize).qaoa_circuit(&QAOA_ANGLES[..p])
}

/// Hardware-efficient VQE ansatz: `layers` rounds of per-qubit Ry·Rz with
/// seeded angles followed by a CNOT entangler chain.
pub fn vqe_line(n: u32, layers: u32, seed: u64) -> Circuit {
    let mut rng = seeded(seed ^ 0x00E5_11FE);
    let mut c = Circuit::new(n);
    for _ in 0..layers {
        for q in 0..n {
            let theta: f64 = rng.gen_range(-PI..PI);
            let phi: f64 = rng.gen_range(-PI..PI);
            c.ry(q, theta).rz(q, phi);
        }
        for q in 0..n - 1 {
            c.cnot(q, q + 1);
        }
    }
    // A final rotation layer so the last entangler is not dead weight.
    for q in 0..n {
        let theta: f64 = rng.gen_range(-PI..PI);
        c.ry(q, theta);
    }
    c
}

/// Generates the corpus for a tier. Deterministic: same tier, same
/// circuits, in a fixed order (family-major, width-minor).
pub fn generate(tier: Tier) -> Vec<CorpusEntry> {
    let mut entries = Vec::new();
    let mut push = |family: Family, name: String, circuit: Circuit| {
        let width = circuit.num_qubits();
        entries.push(CorpusEntry {
            family,
            name,
            width,
            circuit,
        });
    };

    match tier {
        Tier::Smoke => {
            for n in 2..=4u32 {
                push(Family::Qft, format!("qft_n{n}"), qft(n));
            }
            push(
                Family::Adder,
                "adder_1b_a1_b1".into(),
                ripple_adder(1, 1, 1),
            );
            for n in 2..=4u32 {
                push(
                    Family::Clifford,
                    format!("clifford_n{n}_s1"),
                    random_clifford(n, n + 1, 1),
                );
            }
            for n in 2..=4u32 {
                push(Family::Qaoa, format!("qaoa_n{n}_p1"), qaoa_line(n, 1));
            }
            // One wide instance past the density wall (> 6 qubits): the
            // smoke golden then pins the trajectory executor — and the
            // gate-fusion plan it replays — not just the density path.
            push(Family::Qaoa, "qaoa_n10_p1".into(), qaoa_line(10, 1));
            for n in 2..=4u32 {
                push(Family::Vqe, format!("vqe_n{n}_d1_s1"), vqe_line(n, 1, 1));
            }
        }
        Tier::Full => {
            for n in 2..=8u32 {
                push(Family::Qft, format!("qft_n{n}"), qft(n));
            }
            for (bits, a, b) in [
                (1u32, 1u64, 1u64),
                (1, 1, 0),
                (2, 2, 3),
                (2, 1, 1),
                (3, 5, 6),
                (3, 3, 4),
                (4, 9, 13),
                (4, 7, 8),
            ] {
                push(
                    Family::Adder,
                    format!("adder_{bits}b_a{a}_b{b}"),
                    ripple_adder(bits, a, b),
                );
            }
            for n in 2..=7u32 {
                for seed in 1..=2u64 {
                    push(
                        Family::Clifford,
                        format!("clifford_n{n}_s{seed}"),
                        random_clifford(n, n + 2, seed),
                    );
                }
            }
            for n in 2..=10u32 {
                push(Family::Qaoa, format!("qaoa_n{n}_p1"), qaoa_line(n, 1));
            }
            for n in 2..=6u32 {
                push(Family::Qaoa, format!("qaoa_n{n}_p2"), qaoa_line(n, 2));
            }
            for n in 2..=8u32 {
                for layers in 1..=2u32 {
                    push(
                        Family::Vqe,
                        format!("vqe_n{n}_d{layers}_s1"),
                        vqe_line(n, layers, 1),
                    );
                }
            }
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant_math::CMat;

    /// The basis state [`ripple_adder`] leaves the register in (little-endian
    /// bit index over the full `2·bits + 2` wires).
    fn ripple_adder_output_index(bits: u32, a: u64, b: u64) -> usize {
        let sum = a + b;
        let mut idx = 0usize;
        for i in 0..bits {
            if (a >> i) & 1 == 1 {
                idx |= 1 << (1 + 2 * i); // a register is restored
            }
            if (sum >> i) & 1 == 1 {
                idx |= 1 << (2 + 2 * i); // sum bits land on the b wires
            }
        }
        if (sum >> bits) & 1 == 1 {
            idx |= 1 << (2 * bits + 1); // carry out
        }
        idx
    }

    #[test]
    fn qft_matches_dft_matrix() {
        // QFT (without reversal) maps |k⟩ to (1/√N)·Σ_j ω^{jk'}|j⟩ with the
        // output bits reversed; checking unitarity plus the |0⟩ column
        // (uniform superposition) pins the construction.
        for n in 2..=4u32 {
            let u = qft(n).unitary();
            assert!(u.is_unitary(1e-9), "qft({n}) not unitary");
            let dim = 1usize << n;
            let amp = 1.0 / (dim as f64).sqrt();
            for r in 0..dim {
                assert!(
                    (u[(r, 0)].abs() - amp).abs() < 1e-9,
                    "qft({n}) column 0 not uniform at row {r}"
                );
            }
        }
        // And the 1-qubit QFT is just a Hadamard.
        let u = qft(1).unitary();
        assert!(u.phase_invariant_diff(&Gate::H.matrix()) < 1e-9);
    }

    #[test]
    fn toffoli_decomposition_is_ccx() {
        let mut c = Circuit::new(3);
        toffoli(&mut c, 0, 1, 2);
        let u = c.unitary();
        let mut ccx = CMat::identity(8);
        // |110⟩ ↔ |111⟩ in little-endian bit order (controls q0,q1).
        ccx[(3, 3)] = quant_math::C64::ZERO;
        ccx[(7, 7)] = quant_math::C64::ZERO;
        ccx[(3, 7)] = quant_math::C64::ONE;
        ccx[(7, 3)] = quant_math::C64::ONE;
        assert!(u.phase_invariant_diff(&ccx) < 1e-9);
    }

    #[test]
    fn adder_computes_sums() {
        for (bits, a, b) in [(1u32, 1u64, 1u64), (2, 2, 3), (2, 3, 3), (3, 5, 6)] {
            let c = ripple_adder(bits, a, b);
            let p = c.output_distribution();
            let idx = ripple_adder_output_index(bits, a, b);
            assert!(
                p[idx] > 1.0 - 1e-9,
                "{bits}-bit {a}+{b}: expected basis state {idx}, got {:?}",
                p.iter()
                    .enumerate()
                    .filter(|(_, &x)| x > 1e-6)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn clifford_generator_is_deterministic() {
        let a = random_clifford(4, 6, 9);
        let b = random_clifford(4, 6, 9);
        assert_eq!(a, b);
        let c = random_clifford(4, 6, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn corpus_tiers_have_expected_shape() {
        let smoke = generate(Tier::Smoke);
        assert_eq!(smoke.len(), 14);
        assert_eq!(
            smoke.iter().filter(|e| e.width > 4).count(),
            1,
            "smoke keeps exactly one wide (trajectory-path) circuit"
        );
        assert!(smoke
            .iter()
            .any(|e| e.width == 10 && e.family == Family::Qaoa));

        let full = generate(Tier::Full);
        assert!(
            (50..=100).contains(&full.len()),
            "full corpus has {} circuits",
            full.len()
        );
        assert!(full.iter().any(|e| e.width >= 9), "no wide circuits");
        for family in Family::all() {
            assert!(
                full.iter().filter(|e| e.family == family).count() >= 4,
                "family {family} underpopulated"
            );
        }
        // Names are unique (they key the golden files).
        let mut names: Vec<&str> = full.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), full.len());
    }

    #[test]
    fn corpus_circuits_stay_in_the_qasm_gate_set() {
        // Every generated gate must survive a print→parse round trip, so
        // the corpus doubles as the emitter's test vector set.
        let printable = [
            "id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "u3", "cx", "cz",
            "swap", "zz", "barrier",
        ];
        for entry in generate(Tier::Full) {
            for op in entry.circuit.ops() {
                assert!(
                    printable.contains(&op.gate.name()),
                    "{}: gate {} not QASM-printable",
                    entry.name,
                    op.gate.name()
                );
            }
        }
    }
}
