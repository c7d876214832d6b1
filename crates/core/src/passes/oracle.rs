//! Test oracle: the transpiler passes on the per-wire-`Vec` DAG they ran on
//! before the DAG's wires became linked lists.
//!
//! `OracleDag` keeps each wire as a `Vec` of node ids and finds a node's
//! neighbours with a linear `position` scan; `topological` rebuilds an edge
//! list and a `BTreeSet` on every call; each pass clones the operation it
//! visits and CD checks commutation both before and inside
//! `try_transpose`. The one deliberate difference from that code is the
//! barrier rule: `try_transpose` refuses to move a gate across a
//! `Gate::Barrier`, as the production DAG does. The tests in `passes.rs`
//! assert that [`oracle_optimize`] and [`oracle_baseline_optimize`] equal
//! `optimize` and `baseline_optimize` bit for bit.

use quant_circuit::{operations_commute, Circuit, Gate, Operation};
use quant_sim::euler_zxz;
use std::collections::{BTreeMap, BTreeSet};
use std::f64::consts::FRAC_PI_2;

type NodeId = usize;

struct OracleDag {
    num_qubits: u32,
    nodes: Vec<Option<Operation>>,
    wires: BTreeMap<u32, Vec<NodeId>>,
}

impl OracleDag {
    fn from_circuit(circuit: &Circuit) -> Self {
        let mut dag = OracleDag {
            num_qubits: circuit.num_qubits(),
            nodes: Vec::new(),
            wires: BTreeMap::new(),
        };
        for op in circuit.ops() {
            let id = dag.nodes.len();
            for &q in &op.qubits {
                dag.wires.entry(q).or_default().push(id);
            }
            dag.nodes.push(Some(op.clone()));
        }
        dag
    }

    fn op(&self, id: NodeId) -> Option<&Operation> {
        self.nodes.get(id).and_then(|n| n.as_ref())
    }

    fn topological(&self) -> Vec<NodeId> {
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        let mut edges: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for wire in self.wires.values() {
            for pair in wire.windows(2) {
                edges[pair[0]].push(pair[1]);
                indegree[pair[1]] += 1;
            }
        }
        let mut ready: BTreeSet<NodeId> = (0..n)
            .filter(|&i| self.nodes[i].is_some() && indegree[i] == 0)
            .collect();
        let mut order = Vec::new();
        while let Some(id) = ready.pop_first() {
            order.push(id);
            for &next in &edges[id] {
                indegree[next] -= 1;
                if indegree[next] == 0 {
                    ready.insert(next);
                }
            }
        }
        order
    }

    fn remove(&mut self, id: NodeId) {
        if let Some(op) = self.nodes[id].take() {
            for &q in &op.qubits {
                if let Some(wire) = self.wires.get_mut(&q) {
                    wire.retain(|&n| n != id);
                }
            }
        }
    }

    fn replace(&mut self, id: NodeId, op: Operation) {
        let live_with_same_operands = self.nodes[id]
            .as_ref()
            .is_some_and(|old| old.qubits == op.qubits);
        assert!(live_with_same_operands, "replace must preserve operands");
        self.nodes[id] = Some(op);
    }

    fn successor_on_wire(&self, id: NodeId, q: u32) -> Option<NodeId> {
        let wire = self.wires.get(&q)?;
        let pos = wire.iter().position(|&n| n == id)?;
        wire.get(pos + 1).copied()
    }

    fn to_circuit(&self) -> Circuit {
        let mut c = Circuit::new(self.num_qubits);
        for id in self.topological() {
            if let Some(op) = self.op(id) {
                c.push(op.gate, &op.qubits);
            }
        }
        c
    }

    fn try_transpose(&mut self, first: NodeId, second: NodeId) -> bool {
        let (Some(a), Some(b)) = (self.op(first).cloned(), self.op(second).cloned()) else {
            return false;
        };
        if a.gate == Gate::Barrier || b.gate == Gate::Barrier {
            return false;
        }
        let shared: Vec<u32> = a
            .qubits
            .iter()
            .copied()
            .filter(|q| b.qubits.contains(q))
            .collect();
        if shared.is_empty() {
            return true;
        }
        for &q in &shared {
            if self.successor_on_wire(first, q) != Some(second) {
                return false;
            }
        }
        if !operations_commute(&a, &b) {
            return false;
        }
        let mut swaps: Vec<(u32, usize)> = Vec::with_capacity(shared.len());
        for &q in &shared {
            let Some(pos) = self
                .wires
                .get(&q)
                .and_then(|w| w.iter().position(|&n| n == first))
            else {
                return false;
            };
            swaps.push((q, pos));
        }
        for (q, i) in swaps {
            if let Some(wire) = self.wires.get_mut(&q) {
                wire.swap(i, i + 1);
            }
        }
        true
    }
}

fn commutativity_detection(dag: &mut OracleDag) -> bool {
    let mut changed = false;
    let order = dag.topological();
    for &node in &order {
        let Some(op) = dag.op(node).cloned() else {
            continue;
        };
        if !op.gate.is_diagonal() || op.gate == Gate::Barrier {
            continue;
        }
        for &q in &op.qubits {
            if let Some(next) = dag.successor_on_wire(node, q) {
                let Some(next_op) = dag.op(next).cloned() else {
                    continue;
                };
                if !next_op.gate.is_diagonal()
                    && operations_commute(&op, &next_op)
                    && dag.try_transpose(node, next)
                {
                    changed = true;
                    break;
                }
            }
        }
    }
    changed
}

fn augmented_basis_gate_detection(dag: &mut OracleDag) -> bool {
    let mut changed = false;
    'outer: loop {
        let order = dag.topological();
        for &first in &order {
            let Some(op1) = dag.op(first).cloned() else {
                continue;
            };
            if op1.gate != Gate::Cnot {
                continue;
            }
            let (c, t) = (op1.qubits[0], op1.qubits[1]);
            let Some(mid) = dag.successor_on_wire(first, t) else {
                continue;
            };
            let Some(op2) = dag.op(mid).cloned() else {
                continue;
            };
            let Gate::Rz(theta) = op2.gate else {
                continue;
            };
            let Some(last) = dag.successor_on_wire(mid, t) else {
                continue;
            };
            let Some(op3) = dag.op(last).cloned() else {
                continue;
            };
            if op3.gate != Gate::Cnot || op3.qubits != op1.qubits {
                continue;
            }
            if dag.successor_on_wire(first, c) != Some(last) {
                continue;
            }
            dag.remove(mid);
            dag.remove(last);
            dag.replace(
                first,
                Operation {
                    gate: Gate::Zz(theta),
                    qubits: op1.qubits.clone(),
                },
            );
            changed = true;
            continue 'outer;
        }
        break;
    }
    changed
}

fn cancel_inverses(dag: &mut OracleDag) -> bool {
    let mut changed = false;
    'outer: loop {
        let order = dag.topological();
        for &node in &order {
            let Some(op) = dag.op(node).cloned() else {
                continue;
            };
            let next = op
                .qubits
                .iter()
                .map(|&q| dag.successor_on_wire(node, q))
                .collect::<Option<Vec<_>>>()
                .and_then(|succs| {
                    let first = succs[0];
                    succs.iter().all(|&s| s == first).then_some(first)
                });
            let Some(next) = next else {
                continue;
            };
            let Some(next_op) = dag.op(next).cloned() else {
                continue;
            };
            if next_op.qubits != op.qubits {
                continue;
            }
            if super::is_self_inverse_pair(&op.gate, &next_op.gate) {
                dag.remove(node);
                dag.remove(next);
                changed = true;
                continue 'outer;
            }
            if let Some(merged) = super::merge_rotations(&op.gate, &next_op.gate) {
                dag.remove(next);
                match merged {
                    Some(gate) => dag.replace(
                        node,
                        Operation {
                            gate,
                            qubits: op.qubits.clone(),
                        },
                    ),
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

fn merge_single_qubit(dag: &mut OracleDag) -> bool {
    let mut changed = false;
    'outer: loop {
        let order = dag.topological();
        for &node in &order {
            let Some(op) = dag.op(node).cloned() else {
                continue;
            };
            if op.gate.arity() != 1 {
                continue;
            }
            let q = op.qubits[0];
            let Some(next) = dag.successor_on_wire(node, q) else {
                continue;
            };
            let Some(next_op) = dag.op(next).cloned() else {
                continue;
            };
            if next_op.gate.arity() != 1 {
                continue;
            }
            if op.gate == Gate::Barrier || next_op.gate == Gate::Barrier {
                continue;
            }
            if matches!((&op.gate, &next_op.gate), (Gate::Rz(_), Gate::Rz(_))) {
                continue;
            }
            let product = &next_op.gate.matrix() * &op.gate.matrix();
            let (a, theta, c) = euler_zxz(&product);
            let gate = Gate::U3(theta, a - FRAC_PI_2, c + FRAC_PI_2);
            dag.remove(next);
            dag.replace(
                node,
                Operation {
                    gate,
                    qubits: vec![q],
                },
            );
            changed = true;
            continue 'outer;
        }
        break;
    }
    changed
}

fn run_pipeline(circuit: &Circuit, passes: &[fn(&mut OracleDag) -> bool]) -> Circuit {
    let mut dag = OracleDag::from_circuit(circuit);
    for _ in 0..16 {
        let mut changed = false;
        for pass in passes {
            changed |= pass(&mut dag);
        }
        if !changed {
            break;
        }
    }
    dag.to_circuit()
}

/// The oracle twin of [`super::optimize`].
pub(super) fn oracle_optimize(circuit: &Circuit) -> Circuit {
    run_pipeline(
        circuit,
        &[
            cancel_inverses,
            commutativity_detection,
            augmented_basis_gate_detection,
            cancel_inverses,
            merge_single_qubit,
        ],
    )
}

/// The oracle twin of [`super::baseline_optimize`].
pub(super) fn oracle_baseline_optimize(circuit: &Circuit) -> Circuit {
    run_pipeline(circuit, &[cancel_inverses, merge_single_qubit])
}
