//! Transpiler passes (the paper's §3.3).
//!
//! * [`CommutativityDetection`] (CD) — hoists gates past false data
//!   dependencies by transposing adjacent commuting operations, so that
//!   patterns obscured by intermediate gates become contiguous (Fig. 3b).
//! * [`AugmentedBasisGateDetection`] (ABGD) — template-matches gate
//!   sequences that reduce to an augmented basis gate, most importantly the
//!   textbook ZZ interaction `CNOT·Rz(target)·CNOT → ZZ(θ)` (Fig. 3c).
//! * [`CancelInverses`] — removes adjacent self-inverse pairs and merges
//!   adjacent rotations about the same axis; with the augmented basis this
//!   realizes §5's cross-gate pulse cancellation at the gate level.
//! * [`MergeSingleQubit`] — collapses runs of single-qubit gates into one
//!   U3 (→ one pulse in the augmented flow).
//!
//! No pass moves, merges or cancels a gate across a [`Gate::Barrier`].
//!
//! # Restart contract and cost
//!
//! ABGD, cancellation and 1q merging rewrite one match at a time: after
//! each rewrite they rescan [`CircuitDag::topological`] of the *current*
//! DAG from the start and take its first match. CD walks one topological
//! order per run and transposes each diagonal gate at most once. The
//! rewrite sequence, and so every output gate and `f64` bit, is therefore a
//! function of the input circuit alone; `cfg(test)` pins it against the
//! earlier per-wire-`Vec` DAG kept as an oracle.
//!
//! On [`CircuitDag`]'s linked wires each match test is O(1) and reads the
//! gate and its ≤ 2 operands by value, and each restart is one O(n log n)
//! topological sort. CD's commutation check runs once per candidate,
//! inside [`CircuitDag::try_transpose`], and is memoized for the DAG's —
//! that is, one [`run_pipeline`] call's — lifetime.

use quant_circuit::{Circuit, CircuitDag, Gate};
use quant_sim::euler_zxz;
use std::f64::consts::FRAC_PI_2;

/// A rewrite pass over a circuit DAG.
pub trait Pass {
    /// Human-readable pass name.
    fn name(&self) -> &'static str;
    /// Runs the pass; returns true if anything changed.
    fn run(&self, dag: &mut CircuitDag) -> bool;
}

/// Runs a pass pipeline to fixpoint (bounded), returning the final circuit.
pub fn run_pipeline(circuit: &Circuit, passes: &[&dyn Pass]) -> Circuit {
    let mut dag = CircuitDag::from_circuit(circuit);
    for _ in 0..16 {
        let mut changed = false;
        for pass in passes {
            changed |= pass.run(&mut dag);
        }
        if !changed {
            break;
        }
    }
    dag.to_circuit()
}

/// Commutativity detection: bubble commuting gates together.
///
/// For every pair of operations adjacent on a wire, if transposing them
/// brings an operation closer to a same-gate partner it could cancel or
/// merge with, transpose. The implementation is a simple bubble scheme: we
/// repeatedly try to move diagonal gates (Rz/Zz/Cz) later past commuting
/// neighbours, which is what un-obscures the paper's Fig. 3 example.
pub struct CommutativityDetection;

impl Pass for CommutativityDetection {
    fn name(&self) -> &'static str {
        "commutativity-detection"
    }

    fn run(&self, dag: &mut CircuitDag) -> bool {
        // Strategy: for each operation A with a successor B on some wire,
        // if A and B commute and swapping them makes B adjacent to an
        // operation identical in kind (cancellation fodder), transpose.
        // We approximate "useful" by: B is a two-qubit gate and A is a
        // single-qubit diagonal gate, or A and B are both diagonal.
        // `try_transpose` makes the commutation check and refuses
        // barriers.
        let mut changed = false;
        for node in dag.topological() {
            let Some((gate, qubits)) = dag.node(node) else {
                continue;
            };
            if !gate.is_diagonal() {
                continue;
            }
            for &q in qubits.iter() {
                let Some(next) = dag.successor_on_wire(node, q) else {
                    continue;
                };
                // Move the diagonal gate later past a commuting
                // non-diagonal gate (e.g. Rz past a CNOT control).
                if dag.gate(next).is_some_and(|g| !g.is_diagonal()) && dag.try_transpose(node, next)
                {
                    changed = true;
                    break;
                }
            }
        }
        changed
    }
}

/// Augmented-basis-gate detection: rewrite `CNOT(c,t) · Rz(θ)@t · CNOT(c,t)`
/// into `Zz(θ)` on `(c, t)`.
pub struct AugmentedBasisGateDetection;

impl Pass for AugmentedBasisGateDetection {
    fn name(&self) -> &'static str {
        "augmented-basis-gate-detection"
    }

    fn run(&self, dag: &mut CircuitDag) -> bool {
        let mut changed = false;
        'outer: loop {
            for first in dag.topological() {
                let Some((Gate::Cnot, qubits)) = dag.node(first) else {
                    continue;
                };
                let (c, t) = (qubits[0], qubits[1]);
                // Next op on the target wire must be Rz(θ).
                let Some(mid) = dag.successor_on_wire(first, t) else {
                    continue;
                };
                let Some(Gate::Rz(theta)) = dag.gate(mid) else {
                    continue;
                };
                // Then another CNOT(c,t) adjacent on both wires.
                let Some(last) = dag.successor_on_wire(mid, t) else {
                    continue;
                };
                if dag.node(last) != Some((Gate::Cnot, qubits)) {
                    continue;
                }
                // The control wire must also be free between the CNOTs
                // (nothing on c between first and last).
                if dag.successor_on_wire(first, c) != Some(last) {
                    continue;
                }
                dag.remove(mid);
                dag.remove(last);
                dag.set_gate(first, Gate::Zz(theta));
                changed = true;
                continue 'outer;
            }
            break;
        }
        changed
    }
}

/// Cancels adjacent inverse pairs and merges same-axis rotations.
pub struct CancelInverses;

impl Pass for CancelInverses {
    fn name(&self) -> &'static str {
        "cancel-inverses"
    }

    fn run(&self, dag: &mut CircuitDag) -> bool {
        let mut changed = false;
        'outer: loop {
            for node in dag.topological() {
                let Some((gate, qubits)) = dag.node(node) else {
                    continue;
                };
                // Find the op immediately following on *all* of this op's
                // wires, with the same operands in the same order.
                let Some(next) = dag.successor_on_wire(node, qubits[0]) else {
                    continue;
                };
                if qubits[1..]
                    .iter()
                    .any(|&q| dag.successor_on_wire(node, q) != Some(next))
                {
                    continue;
                }
                let Some((next_gate, next_qubits)) = dag.node(next) else {
                    continue;
                };
                if next_qubits != qubits {
                    continue;
                }
                // Self-inverse pair?
                if is_self_inverse_pair(&gate, &next_gate) {
                    dag.remove(node);
                    dag.remove(next);
                    changed = true;
                    continue 'outer;
                }
                // Mergeable rotations?
                if let Some(merged) = merge_rotations(&gate, &next_gate) {
                    dag.remove(next);
                    match merged {
                        Some(gate) => dag.set_gate(node, gate),
                        None => dag.remove(node),
                    }
                    changed = true;
                    continue 'outer;
                }
            }
            break;
        }
        changed
    }
}

fn is_self_inverse_pair(a: &Gate, b: &Gate) -> bool {
    if a != b {
        return false;
    }
    matches!(
        a,
        Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::H
            | Gate::DirectX
            | Gate::Cnot
            | Gate::OpenCnot
            | Gate::Cz
            | Gate::Swap
    )
}

/// If `a · b` is a single rotation in the set, returns `Some(Some(g))`;
/// if they cancel exactly, `Some(None)`; otherwise `None`.
fn merge_rotations(a: &Gate, b: &Gate) -> Option<Option<Gate>> {
    const EPS: f64 = 1e-12;
    let build = |total: f64, mk: fn(f64) -> Gate| {
        if total.abs() < EPS {
            Some(None)
        } else {
            Some(Some(mk(total)))
        }
    };
    match (a, b) {
        (Gate::Rz(x), Gate::Rz(y)) => build(x + y, Gate::Rz),
        (Gate::Rx(x), Gate::Rx(y)) => build(x + y, Gate::Rx),
        (Gate::Ry(x), Gate::Ry(y)) => build(x + y, Gate::Ry),
        (Gate::DirectRx(x), Gate::DirectRx(y)) => build(x + y, Gate::DirectRx),
        (Gate::Zz(x), Gate::Zz(y)) => build(x + y, Gate::Zz),
        (Gate::Cr(x), Gate::Cr(y)) => build(x + y, Gate::Cr),
        _ => None,
    }
}

/// Merges maximal runs of single-qubit gates into one `U3`.
pub struct MergeSingleQubit;

impl Pass for MergeSingleQubit {
    fn name(&self) -> &'static str {
        "merge-single-qubit"
    }

    fn run(&self, dag: &mut CircuitDag) -> bool {
        let mut changed = false;
        'outer: loop {
            for node in dag.topological() {
                let Some((gate, qubits)) = dag.node(node) else {
                    continue;
                };
                if gate.arity() != 1 {
                    continue;
                }
                let Some(next) = dag.successor_on_wire(node, qubits[0]) else {
                    continue;
                };
                let Some(next_gate) = dag.gate(next) else {
                    continue;
                };
                if next_gate.arity() != 1 {
                    continue;
                }
                if gate == Gate::Barrier || next_gate == Gate::Barrier {
                    continue;
                }
                // Skip pairs already handled by cheaper merges.
                if matches!((gate, next_gate), (Gate::Rz(_), Gate::Rz(_))) {
                    continue;
                }
                // A qutrit gate's 3×3 matrix does not merge into a U3.
                let (first, second) = (gate.matrix(), next_gate.matrix());
                if first.rows() != 2 || second.rows() != 2 {
                    continue;
                }
                let product = &second * &first;
                let (a, theta, c) = euler_zxz(&product);
                // U3(θ, φ, λ) = Rz(φ+π/2)·Rx(θ)·Rz(λ−π/2)
                dag.remove(next);
                dag.set_gate(node, Gate::U3(theta, a - FRAC_PI_2, c + FRAC_PI_2));
                changed = true;
                continue 'outer;
            }
            break;
        }
        changed
    }
}

/// The paper's optimized pipeline: CD + ABGD + cancellation + 1q merging,
/// iterated to fixpoint.
pub fn optimize(circuit: &Circuit) -> Circuit {
    run_pipeline(
        circuit,
        &[
            &CancelInverses,
            &CommutativityDetection,
            &AugmentedBasisGateDetection,
            &CancelInverses,
            &MergeSingleQubit,
        ],
    )
}

/// The *baseline* gate-level pipeline: what a stock compiler (Qiskit
/// transpile at its default level) already does — inverse cancellation and
/// single-qubit merging — without any of the paper's pulse-aware passes.
/// Used by the standard compilation mode so comparisons are fair.
pub fn baseline_optimize(circuit: &Circuit) -> Circuit {
    run_pipeline(circuit, &[&CancelInverses, &MergeSingleQubit])
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::oracle::{oracle_baseline_optimize, oracle_optimize};
    use super::*;
    use crate::{route, CouplingMap};
    use quant_corpus::{generate, Tier};
    use quant_math::seeded;
    use rand::Rng;

    fn assert_equiv(a: &Circuit, b: &Circuit) {
        assert!(
            a.unitary().phase_invariant_diff(&b.unitary()) < 1e-9,
            "not equivalent:\n{a}\nvs\n{b}"
        );
    }

    #[test]
    fn abgd_detects_textbook_zz() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1).rz(1, 0.8).cnot(0, 1);
        let out = run_pipeline(&c, &[&AugmentedBasisGateDetection]);
        assert_eq!(out.len(), 1);
        assert_eq!(out.ops()[0].gate, Gate::Zz(0.8));
        assert_equiv(&c, &out);
    }

    #[test]
    fn abgd_requires_clean_control_wire() {
        // An X on the control between the CNOTs blocks the template.
        let mut c = Circuit::new(2);
        c.cnot(0, 1).rz(1, 0.8).x(0).cnot(0, 1);
        let out = run_pipeline(&c, &[&AugmentedBasisGateDetection]);
        assert_eq!(out.count_gate("cx"), 2, "template must not fire");
    }

    #[test]
    fn cd_unobscures_fig3_pattern() {
        // Fig. 3: CNOT(0,1) · Rz(γ)@0 · Rz(θ)@1 · CNOT(0,1), with the Rz(γ)
        // on the control creating a false dependency. CD moves it out, ABGD
        // fires.
        let mut c = Circuit::new(2);
        c.cnot(0, 1).rz(0, 0.4).rz(1, 0.9).cnot(0, 1);
        let out = optimize(&c);
        assert!(
            out.count_gate("zz") == 1,
            "expected ZZ detection after CD:\n{out}"
        );
        assert_equiv(&c, &out);
    }

    #[test]
    fn cancel_adjacent_x_pairs() {
        let mut c = Circuit::new(1);
        c.x(0).x(0);
        let out = run_pipeline(&c, &[&CancelInverses]);
        assert!(out.is_empty(), "{out}");
    }

    #[test]
    fn cancel_cnot_pairs() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1).cnot(0, 1).h(0);
        let out = run_pipeline(&c, &[&CancelInverses]);
        assert_eq!(out.len(), 1);
        assert_equiv(&c, &out);
    }

    #[test]
    fn merge_rz_chain() {
        let mut c = Circuit::new(1);
        c.rz(0, 0.3).rz(0, 0.4).rz(0, -0.7);
        let out = run_pipeline(&c, &[&CancelInverses]);
        assert!(out.is_empty(), "angles sum to zero: {out}");
    }

    #[test]
    fn merge_single_qubit_run() {
        let mut c = Circuit::new(1);
        c.h(0).rx(0, 0.3).ry(0, -0.8).rz(0, 0.2).h(0);
        let out = run_pipeline(&c, &[&MergeSingleQubit]);
        assert!(out.len() <= 2, "should collapse to at most U3+Rz: {out}");
        assert_equiv(&c, &out);
    }

    #[test]
    fn open_cnot_cancellation_through_decomposition() {
        // §5.2's open-CNOT: X_c · CNOT · X_c. After decomposing the CNOT
        // into echoed-CR primitives (done in lowering), the first X cancels
        // with the echo X. At the gate level we verify the optimizer keeps
        // the circuit equivalent and does not *add* gates.
        let mut c = Circuit::new(2);
        c.x(0).cnot(0, 1).x(0);
        let out = optimize(&c);
        assert!(out.len() <= 3);
        assert_equiv(&c, &out);
    }

    #[test]
    fn qaoa_layer_collapses_to_zz_chain() {
        // A 4-qubit QAOA-MAXCUT line-graph layer written the textbook way.
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.h(q);
        }
        for e in 0..3u32 {
            c.cnot(e, e + 1).rz(e + 1, 1.1).cnot(e, e + 1);
        }
        let out = optimize(&c);
        assert_eq!(out.count_gate("zz"), 3, "{out}");
        assert_eq!(out.count_gate("cx"), 0);
        assert_equiv(&c, &out);
    }

    #[test]
    fn optimize_is_idempotent() {
        let mut c = Circuit::new(3);
        c.h(0)
            .cnot(0, 1)
            .rz(1, 0.4)
            .cnot(0, 1)
            .cnot(1, 2)
            .rz(2, 0.7)
            .cnot(1, 2);
        let once = optimize(&c);
        let twice = optimize(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn pipeline_preserves_random_circuits() {
        // A deterministic pseudo-random circuit family.
        let mut c = Circuit::new(3);
        let angles = [0.37, 1.41, -0.62, 2.2, 0.11];
        for (i, &a) in angles.iter().enumerate() {
            let q = (i % 3) as u32;
            c.rx(q, a).rz((q + 1) % 3, -a);
            c.cnot(q, (q + 1) % 3);
        }
        let out = optimize(&c);
        assert_equiv(&c, &out);
    }

    #[test]
    fn barriers_block_commutation() {
        // Rz and T commute numerically with the barrier's identity; CD used
        // to hoist them across it and then merge them on the far side.
        let mut c = Circuit::new(1);
        c.rz(0, 0.3).push(Gate::Barrier, &[0]).rz(0, 0.4);
        assert_eq!(optimize(&c), c);
        let mut c = Circuit::new(1);
        c.push(Gate::T, &[0])
            .push(Gate::Barrier, &[0])
            .push(Gate::T, &[0]);
        assert_eq!(optimize(&c), c);
        // A barrier on the control wire keeps the Rz out of the ZZ window.
        let mut c = Circuit::new(2);
        c.cnot(0, 1)
            .rz(0, 0.4)
            .push(Gate::Barrier, &[0])
            .rz(1, 0.9)
            .cnot(0, 1);
        let out = optimize(&c);
        assert_eq!(out.count_gate("zz"), 0, "{out}");
        assert_equiv(&c, &out);
    }

    #[test]
    fn qutrit_gates_stay_in_place() {
        // A qutrit gate's 3×3 matrix neither commutes with nor merges into
        // a qubit gate; both flows used to panic on these.
        let mut c = Circuit::new(1);
        c.rz(0, 0.3).push(Gate::QutritX12, &[0]);
        assert_eq!(optimize(&c), c);
        let mut c = Circuit::new(1);
        c.push(Gate::X, &[0]).push(Gate::QutritX12, &[0]);
        assert_eq!(baseline_optimize(&c), c);
    }

    /// Equal iff every gate, operand and `f64` bit agrees: `{:?}` prints
    /// each `f64` in its shortest round-trip form (and `-0.0` as such).
    fn assert_bit_identical(got: &Circuit, want: &Circuit, ctx: &str) {
        assert_eq!(got.num_qubits(), want.num_qubits(), "{ctx}");
        assert_eq!(
            format!("{:?}", got.ops()),
            format!("{:?}", want.ops()),
            "{ctx}"
        );
    }

    fn assert_matches_oracle(c: &Circuit, ctx: &str) {
        assert_bit_identical(&optimize(c), &oracle_optimize(c), ctx);
        assert_bit_identical(&baseline_optimize(c), &oracle_baseline_optimize(c), ctx);
    }

    #[test]
    fn passes_match_the_vec_dag_oracle_on_the_full_corpus() {
        for entry in generate(Tier::Full) {
            let map = CouplingMap::linear(entry.width);
            let routed = route(&entry.circuit, &map).expect("routes").circuit;
            assert_matches_oracle(&entry.circuit, &entry.name);
            assert_matches_oracle(&routed, &format!("{} routed", entry.name));
        }
    }

    /// A gate soup that gives every pass work: ZZ templates (some with a
    /// false dependency on the control), inverse pairs, exactly cancelling
    /// and near-zero rotations, and barriers.
    fn random_soup(rng: &mut impl Rng, n: u32, len: usize) -> Circuit {
        let mut c = Circuit::new(n);
        let angles = [0.0, 1e-13, -1e-13, 1e-10, 0.7, -0.7, std::f64::consts::PI];
        for _ in 0..len {
            let a = rng.gen_range(0..n);
            let b = (a + rng.gen_range(1..n)) % n;
            let theta = if rng.gen_bool(0.5) {
                angles[rng.gen_range(0..angles.len())]
            } else {
                rng.gen_range(-3.2..3.2)
            };
            let gate = match rng.gen_range(0..24u32) {
                0 => Gate::X,
                1 => Gate::Y,
                2 => Gate::Z,
                3 => Gate::H,
                4 => Gate::S,
                5 => Gate::Sdg,
                6 => Gate::T,
                7 => Gate::Tdg,
                8 => Gate::Rx(theta),
                9 => Gate::Ry(theta),
                10 | 11 => Gate::Rz(theta),
                12 => Gate::U3(theta, -theta, 0.3),
                13 => Gate::DirectX,
                14 => Gate::DirectRx(theta),
                15 => Gate::Barrier,
                16 => Gate::OpenCnot,
                17 => Gate::Cz,
                18 => Gate::Swap,
                19 => Gate::Zz(theta),
                20 => Gate::Cr(theta),
                21 => Gate::FSim(theta, 0.2),
                22 => {
                    c.cnot(a, b);
                    if rng.gen_bool(0.5) {
                        c.rz(a, theta);
                    }
                    c.rz(b, -theta).cnot(a, b);
                    continue;
                }
                _ => Gate::Cnot,
            };
            let qubits = [a, b];
            c.push(gate, &qubits[..gate.arity()]);
            if rng.gen_bool(0.15) {
                // An inverse (or exactly cancelling) partner right after.
                c.push(gate.inverse(), &qubits[..gate.arity()]);
            }
        }
        c
    }

    #[test]
    fn passes_match_the_vec_dag_oracle_on_random_soups() {
        let mut rewritten = 0;
        for seed in 0..300u64 {
            let mut rng = seeded(seed);
            let n = rng.gen_range(2..6u32);
            let len = rng.gen_range(0..60usize);
            let c = random_soup(&mut rng, n, len);
            assert_matches_oracle(&c, &format!("seed {seed}:\n{c}"));
            rewritten += usize::from(optimize(&c) != c);
        }
        assert!(rewritten > 250, "only {rewritten} soups were rewritten");
    }
}
