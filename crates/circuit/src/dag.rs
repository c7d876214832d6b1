//! DAG representation of circuits.
//!
//! The paper's transpiler passes (§3.3) traverse a DAG of operations whose
//! edges are qubit-wire dependencies, pattern-matching templates like the
//! ZZ-interaction and hoisting gates past false dependencies detected by
//! commutation analysis. This module provides the data structure plus the
//! numeric commutation predicate; the passes themselves live in
//! `pulse-compiler`.
//!
//! # Cost model
//!
//! Every gate has at most two operands, so each node stores its gate, its
//! operands and a `(prev, next)` link per operand slot, and each wire
//! stores its head and tail in a `Vec` indexed by qubit. The wires are
//! doubly linked lists threaded through the nodes:
//!
//! * [`CircuitDag::successor_on_wire`], [`CircuitDag::predecessor_on_wire`],
//!   [`CircuitDag::remove`], [`CircuitDag::set_gate`] and the relinking in
//!   [`CircuitDag::try_transpose`] are O(1);
//! * [`CircuitDag::topological`] is O(n log n) in the live node count (a
//!   binary min-heap over the links) and allocates only its output and
//!   two flat buffers, nothing per node;
//! * [`CircuitDag::node`] hands out the gate and operands by value, so a
//!   scan never clones an operand `Vec`.
//!
//! The numeric commutation check in [`CircuitDag::try_transpose`] is
//! memoized for the lifetime of the DAG, keyed by both gates' exact
//! parameter bits and the operands' overlap pattern — everything
//! [`operations_commute`] reads — so a hit returns the same boolean the
//! dense check would. The memo dies with the DAG; nothing outlives it.
//!
//! # Order contract
//!
//! [`CircuitDag::topological`] is Kahn's algorithm over the wire links,
//! smallest node id first. Passes that restart after each rewrite rescan
//! this order of the *current* DAG, so their rewrite sequence (and hence
//! their output) is a function of the input circuit alone.

use crate::circuit::{Circuit, Operation};
use crate::gate::Gate;
use quant_sim::embed;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::ops::Deref;

/// Node identifier within a [`CircuitDag`].
pub type NodeId = usize;

/// A node's operand qubits, by value (every gate has one or two).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Operands {
    qubits: [u32; 2],
    len: u8,
}

impl Operands {
    fn new(qubits: &[u32]) -> Self {
        let mut q = [0; 2];
        q[..qubits.len()].copy_from_slice(qubits);
        Operands {
            qubits: q,
            len: qubits.len() as u8,
        }
    }

    /// The operand slot holding qubit `q`, if any.
    fn slot(&self, q: u32) -> Option<usize> {
        self.iter().position(|&x| x == q)
    }
}

impl Deref for Operands {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.qubits[..self.len as usize]
    }
}

#[derive(Clone, Debug)]
struct Node {
    gate: Gate,
    qubits: Operands,
    live: bool,
    /// Per operand slot: the previous and next live node on that wire.
    prev: [Option<NodeId>; 2],
    next: [Option<NodeId>; 2],
}

/// First and last live node on one wire.
#[derive(Clone, Copy, Debug, Default)]
struct Wire {
    head: Option<NodeId>,
    tail: Option<NodeId>,
}

/// Memo key: both gates' exact bits plus each operand's position in the
/// sorted union of the two operand lists.
type CommuteKey = (GateBits, GateBits, [u8; 4]);
type GateBits = (&'static str, [u64; 3]);

/// A DAG over a circuit's operations.
///
/// Node `i` corresponds to the i-th operation pushed; removed nodes stay
/// allocated but inert. Edges are the per-qubit wire links (see the module
/// docs for the cost model).
#[derive(Clone, Debug)]
pub struct CircuitDag {
    num_qubits: u32,
    nodes: Vec<Node>,
    /// Indexed by qubit.
    wires: Vec<Wire>,
    live: usize,
    commute_memo: BTreeMap<CommuteKey, bool>,
}

impl CircuitDag {
    /// Builds the DAG from a circuit.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut dag = CircuitDag {
            num_qubits: circuit.num_qubits(),
            nodes: Vec::with_capacity(circuit.len()),
            wires: vec![Wire::default(); circuit.num_qubits() as usize],
            live: 0,
            commute_memo: BTreeMap::new(),
        };
        for op in circuit.ops() {
            dag.push(op.gate, &op.qubits);
        }
        dag
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Appends an operation as a new node at the end of its wires.
    /// `qubits` holds `gate.arity()` distinct qubits below `num_qubits`, as
    /// every [`Circuit`] operation does.
    fn push(&mut self, gate: Gate, qubits: &[u32]) -> NodeId {
        let id = self.nodes.len();
        let qubits = Operands::new(qubits);
        let mut prev = [None; 2];
        for (slot, &q) in qubits.iter().enumerate() {
            let q = q as usize;
            prev[slot] = self.wires[q].tail;
            if let Some(p) = self.wires[q].tail {
                self.set_next(p, q as u32, Some(id));
            } else {
                self.wires[q].head = Some(id);
            }
            self.wires[q].tail = Some(id);
        }
        self.nodes.push(Node {
            gate,
            qubits,
            live: true,
            prev,
            next: [None; 2],
        });
        self.live += 1;
        id
    }

    fn live_node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id).filter(|n| n.live)
    }

    /// The gate and operands at a node, by value, if it is still live.
    pub fn node(&self, id: NodeId) -> Option<(Gate, Operands)> {
        self.live_node(id).map(|n| (n.gate, n.qubits))
    }

    /// The gate at a node, if it is still live.
    pub fn gate(&self, id: NodeId) -> Option<Gate> {
        self.live_node(id).map(|n| n.gate)
    }

    /// Replaces the gate at a live node, keeping its operands and wire
    /// position. A dead node is left alone.
    ///
    /// # Panics
    ///
    /// Panics if `gate`'s arity differs from the node's.
    pub fn set_gate(&mut self, id: NodeId, gate: Gate) {
        if let Some(n) = self.nodes.get_mut(id).filter(|n| n.live) {
            assert_eq!(gate.arity(), n.qubits.len(), "set_gate must keep the arity");
            n.gate = gate;
        }
    }

    /// Live node ids in topological order derived from the wire links
    /// (Kahn's algorithm, smallest-id-first for determinism).
    pub fn topological(&self) -> Vec<NodeId> {
        let mut indegree: Vec<u8> = self
            .nodes
            .iter()
            .map(|n| n.prev[..n.qubits.len()].iter().flatten().count() as u8)
            .collect();
        let mut ready: BinaryHeap<Reverse<NodeId>> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| n.live && indegree[*i] == 0)
            .map(|(i, _)| Reverse(i))
            .collect();
        let mut order = Vec::with_capacity(self.live);
        while let Some(Reverse(id)) = ready.pop() {
            order.push(id);
            let n = &self.nodes[id];
            for &next in n.next[..n.qubits.len()].iter().flatten() {
                indegree[next] -= 1;
                if indegree[next] == 0 {
                    ready.push(Reverse(next));
                }
            }
        }
        order
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live nodes remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Removes a node from the DAG, linking its neighbours on each wire.
    pub fn remove(&mut self, id: NodeId) {
        let Some(n) = self.live_node(id) else {
            return;
        };
        let (qubits, prev, next) = (n.qubits, n.prev, n.next);
        for (slot, &q) in qubits.iter().enumerate() {
            match prev[slot] {
                Some(p) => self.set_next(p, q, next[slot]),
                None => self.wires[q as usize].head = next[slot],
            }
            match next[slot] {
                Some(s) => self.set_prev(s, q, prev[slot]),
                None => self.wires[q as usize].tail = prev[slot],
            }
        }
        let n = &mut self.nodes[id];
        n.live = false;
        n.prev = [None; 2];
        n.next = [None; 2];
        self.live -= 1;
    }

    /// The next live node after `id` on wire `q`, if any.
    pub fn successor_on_wire(&self, id: NodeId, q: u32) -> Option<NodeId> {
        let n = self.live_node(id)?;
        n.next[n.qubits.slot(q)?]
    }

    /// The previous live node before `id` on wire `q`, if any.
    pub fn predecessor_on_wire(&self, id: NodeId, q: u32) -> Option<NodeId> {
        let n = self.live_node(id)?;
        n.prev[n.qubits.slot(q)?]
    }

    /// All live nodes on a wire, in order.
    pub fn wire(&self, q: u32) -> impl Iterator<Item = NodeId> + '_ {
        let head = self.wires.get(q as usize).and_then(|w| w.head);
        std::iter::successors(head, move |&id| self.successor_on_wire(id, q))
    }

    /// Points node `id`'s link on wire `q` forward to `to`.
    fn set_next(&mut self, id: NodeId, q: u32, to: Option<NodeId>) {
        let n = &mut self.nodes[id];
        if let Some(slot) = n.qubits.slot(q) {
            n.next[slot] = to;
        }
    }

    /// Points node `id`'s link on wire `q` back to `to`.
    fn set_prev(&mut self, id: NodeId, q: u32, to: Option<NodeId>) {
        let n = &mut self.nodes[id];
        if let Some(slot) = n.qubits.slot(q) {
            n.prev[slot] = to;
        }
    }

    /// Converts back to a circuit in topological order.
    pub fn to_circuit(&self) -> Circuit {
        let mut c = Circuit::new(self.num_qubits);
        for id in self.topological() {
            let n = &self.nodes[id];
            c.push(n.gate, &n.qubits);
        }
        c
    }

    /// Swaps the order of two *adjacent* commuting nodes on every wire they
    /// share. Returns false (and changes nothing) if either is a
    /// [`Gate::Barrier`], if they don't commute, or if they are not
    /// adjacent on some shared wire. Disjoint nodes trivially "transpose".
    pub fn try_transpose(&mut self, first: NodeId, second: NodeId) -> bool {
        let (Some((ga, qa)), Some((gb, qb))) = (self.node(first), self.node(second)) else {
            return false;
        };
        if ga == Gate::Barrier || gb == Gate::Barrier {
            return false;
        }
        let mut shared = qa.iter().copied().filter(|q| qb.contains(q)).peekable();
        if shared.peek().is_none() {
            return true; // disjoint ops: order is irrelevant
        }
        if !shared.all(|q| self.successor_on_wire(first, q) == Some(second)) {
            return false;
        }
        if !self.commutes(ga, &qa, gb, &qb) {
            return false;
        }
        for q in qa.iter().copied().filter(|q| qb.contains(q)) {
            // Wire `q` reads … p → first → second → s …; make it
            // … p → second → first → s ….
            let p = self.predecessor_on_wire(first, q);
            let s = self.successor_on_wire(second, q);
            match p {
                Some(p) => self.set_next(p, q, Some(second)),
                None => self.wires[q as usize].head = Some(second),
            }
            match s {
                Some(s) => self.set_prev(s, q, Some(first)),
                None => self.wires[q as usize].tail = Some(first),
            }
            self.set_prev(second, q, p);
            self.set_next(second, q, Some(first));
            self.set_prev(first, q, Some(second));
            self.set_next(first, q, s);
        }
        true
    }

    /// [`operations_commute`] for two overlapping operations, memoized on
    /// everything it reads: both gates' exact bits and where each operand
    /// sits in the sorted union of the operand lists.
    fn commutes(&mut self, ga: Gate, qa: &[u32], gb: Gate, qb: &[u32]) -> bool {
        let mut union = [u32::MAX; 4];
        let mut len = 0;
        for &q in qa.iter().chain(qb) {
            if !union[..len].contains(&q) {
                union[len] = q;
                len += 1;
            }
        }
        union[..len].sort_unstable();
        let rank = |q: &u32| {
            union[..len]
                .iter()
                .position(|u| u == q)
                .map_or(u8::MAX, |p| p as u8)
        };
        let mut pattern = [u8::MAX; 4];
        for (i, q) in qa.iter().enumerate() {
            pattern[i] = rank(q);
        }
        for (i, q) in qb.iter().enumerate() {
            pattern[2 + i] = rank(q);
        }
        let key = (gate_bits(ga), gate_bits(gb), pattern);
        if let Some(&hit) = self.commute_memo.get(&key) {
            return hit;
        }
        let op = |gate: Gate, qubits: &[u32]| Operation {
            gate,
            qubits: qubits.to_vec(),
        };
        let commute = operations_commute(&op(ga, qa), &op(gb, qb));
        self.commute_memo.insert(key, commute);
        commute
    }
}

/// A gate's identity as exact bits: its mnemonic plus its parameters'
/// `f64::to_bits` (zero-padded). Two gates with equal bits have identical
/// matrices.
fn gate_bits(gate: Gate) -> GateBits {
    let params = match gate {
        Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::DirectRx(t) | Gate::Cr(t) | Gate::Zz(t) => {
            [t.to_bits(), 0, 0]
        }
        Gate::FSim(t, p) => [t.to_bits(), p.to_bits(), 0],
        Gate::U3(t, p, l) => [t.to_bits(), p.to_bits(), l.to_bits()],
        _ => [0; 3],
    };
    (gate.name(), params)
}

/// Numerically tests whether two operations commute, by comparing `AB` and
/// `BA` on the joint qubit space (≤ 3 qubits in practice). A qutrit gate,
/// whose matrix does not act on qubits, commutes with nothing it overlaps,
/// so no pass moves a gate across it.
pub fn operations_commute(a: &Operation, b: &Operation) -> bool {
    let mut union: Vec<u32> = a.qubits.clone();
    for &q in &b.qubits {
        if !union.contains(&q) {
            union.push(q);
        }
    }
    if union.len() == a.qubits.len() + b.qubits.len() {
        return true; // disjoint supports always commute
    }
    union.sort_unstable();
    let dims = vec![2usize; union.len()];
    // Every operand is in `union`, so the fallback index is never used.
    let pos = |q: &u32| union.iter().position(|u| u == q).unwrap_or(0);
    let ta: Vec<usize> = a.qubits.iter().map(pos).collect();
    let tb: Vec<usize> = b.qubits.iter().map(pos).collect();
    let (ga, gb) = (a.gate.matrix(), b.gate.matrix());
    if ga.rows() != 1 << ta.len() || gb.rows() != 1 << tb.len() {
        return false;
    }
    let ma = embed(&ga, &ta, &dims);
    let mb = embed(&gb, &tb, &dims);
    let ab = &ma * &mb;
    let ba = &mb * &ma;
    ab.max_abs_diff(&ba) < 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant_math::seeded;
    use rand::Rng;
    use std::collections::BTreeSet;

    fn op(gate: Gate, qubits: &[u32]) -> Operation {
        Operation {
            gate,
            qubits: qubits.to_vec(),
        }
    }

    #[test]
    fn round_trip_circuit() {
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).rz(1, 0.5).cnot(1, 2);
        let dag = CircuitDag::from_circuit(&c);
        assert_eq!(dag.len(), 4);
        assert_eq!(dag.to_circuit(), c);
    }

    #[test]
    fn wire_structure() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).x(1);
        let dag = CircuitDag::from_circuit(&c);
        assert_eq!(dag.wire(0).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(dag.wire(1).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(dag.successor_on_wire(0, 0), Some(1));
        assert_eq!(dag.predecessor_on_wire(2, 1), Some(1));
        assert_eq!(dag.successor_on_wire(2, 1), None);
        // A node has no link on a wire it does not touch.
        assert_eq!(dag.successor_on_wire(0, 1), None);
    }

    #[test]
    fn remove_rewires() {
        let mut c = Circuit::new(2);
        c.x(0).cnot(0, 1).x(0);
        let mut dag = CircuitDag::from_circuit(&c);
        dag.remove(1);
        assert_eq!(dag.len(), 2);
        assert_eq!(dag.successor_on_wire(0, 0), Some(2));
        assert_eq!(dag.wire(1).count(), 0);
        let back = dag.to_circuit();
        assert_eq!(back.len(), 2);
        assert_eq!(back.count_gate("x"), 2);
    }

    #[test]
    fn commutation_disjoint_supports() {
        assert!(operations_commute(&op(Gate::X, &[0]), &op(Gate::H, &[1])));
    }

    #[test]
    fn commutation_z_family() {
        // Rz commutes with the control of a CNOT.
        assert!(operations_commute(
            &op(Gate::Rz(0.7), &[0]),
            &op(Gate::Cnot, &[0, 1])
        ));
        // X commutes with the *target* of a CNOT.
        assert!(operations_commute(
            &op(Gate::X, &[1]),
            &op(Gate::Cnot, &[0, 1])
        ));
        // ...but not with the control.
        assert!(!operations_commute(
            &op(Gate::X, &[0]),
            &op(Gate::Cnot, &[0, 1])
        ));
        // Rz on target does NOT commute with CNOT.
        assert!(!operations_commute(
            &op(Gate::Rz(0.7), &[1]),
            &op(Gate::Cnot, &[0, 1])
        ));
    }

    #[test]
    fn commutation_two_qubit_pairs() {
        // ZZ interactions on overlapping pairs commute (diagonal).
        assert!(operations_commute(
            &op(Gate::Zz(0.3), &[0, 1]),
            &op(Gate::Zz(0.9), &[1, 2])
        ));
        // CNOTs sharing a control commute.
        assert!(operations_commute(
            &op(Gate::Cnot, &[0, 1]),
            &op(Gate::Cnot, &[0, 2])
        ));
        // CNOTs chained control→target do not.
        assert!(!operations_commute(
            &op(Gate::Cnot, &[0, 1]),
            &op(Gate::Cnot, &[1, 2])
        ));
    }

    #[test]
    fn transpose_commuting_neighbors() {
        // x(1); cnot(0,1) — X on target commutes with CNOT.
        let mut c = Circuit::new(2);
        c.x(1).cnot(0, 1);
        let mut dag = CircuitDag::from_circuit(&c);
        assert!(dag.try_transpose(0, 1));
        let out = dag.to_circuit();
        assert_eq!(out.ops()[0].gate, Gate::Cnot);
        assert_eq!(out.ops()[1].gate, Gate::X);
        // Unitary is preserved.
        assert!(out.unitary().max_abs_diff(&c.unitary()) < 1e-9);
    }

    #[test]
    fn transpose_refuses_noncommuting() {
        let mut c = Circuit::new(2);
        c.x(0).cnot(0, 1);
        let mut dag = CircuitDag::from_circuit(&c);
        assert!(!dag.try_transpose(0, 1));
        assert_eq!(dag.to_circuit(), c);
    }

    #[test]
    fn transpose_refuses_barriers() {
        // Rz commutes numerically with the barrier's identity, but no gate
        // may cross a barrier in either direction.
        let mut c = Circuit::new(1);
        c.rz(0, 0.3).push(Gate::Barrier, &[0]).rz(0, 0.4);
        let mut dag = CircuitDag::from_circuit(&c);
        assert!(!dag.try_transpose(0, 1));
        assert!(!dag.try_transpose(1, 2));
        assert_eq!(dag.to_circuit(), c);
    }

    #[test]
    fn set_gate_preserves_wiring() {
        let mut c = Circuit::new(2);
        c.rz(0, 0.5).cnot(0, 1);
        let mut dag = CircuitDag::from_circuit(&c);
        dag.set_gate(0, Gate::Rz(1.0));
        assert_eq!(dag.successor_on_wire(0, 0), Some(1));
        let out = dag.to_circuit();
        assert_eq!(out.ops()[0].gate, Gate::Rz(1.0));
        // Dead nodes are left alone.
        dag.remove(0);
        dag.set_gate(0, Gate::X);
        assert_eq!(dag.gate(0), None);
    }

    /// A gate soup over `n` qubits: parametric gates with ordinary and
    /// near-zero angles, diagonal gates that commute with CNOT controls,
    /// and barriers.
    fn random_op(rng: &mut impl Rng, n: u32) -> (Gate, Vec<u32>) {
        let angle = match rng.gen_range(0..4u32) {
            0 => 1e-11 * rng.gen_range(-1.0..1.0),
            1 => 0.5,
            _ => rng.gen_range(-3.2..3.2),
        };
        let gate = match rng.gen_range(0..12u32) {
            0 => Gate::X,
            1 => Gate::H,
            2 => Gate::T,
            3 => Gate::Rz(angle),
            4 => Gate::Rx(angle),
            5 => Gate::U3(angle, 0.25, -angle),
            6 => Gate::Barrier,
            7 | 8 => Gate::Cnot,
            9 => Gate::Cz,
            10 => Gate::Zz(angle),
            _ => Gate::Cr(angle),
        };
        let a = rng.gen_range(0..n);
        let mut qubits = vec![a];
        if gate.arity() == 2 {
            qubits.push((a + rng.gen_range(1..n)) % n);
        }
        (gate, qubits)
    }

    /// The naive DAG the linked one must agree with: one `Vec` of live
    /// node ids per wire, scanned with `position`.
    struct Model {
        ops: Vec<Option<(Gate, Vec<u32>)>>,
        wires: Vec<Vec<NodeId>>,
    }

    impl Model {
        fn push(&mut self, gate: Gate, qubits: Vec<u32>) {
            for &q in &qubits {
                self.wires[q as usize].push(self.ops.len());
            }
            self.ops.push(Some((gate, qubits)));
        }

        fn remove(&mut self, id: NodeId) {
            if let Some((_, qubits)) = self.ops[id].take() {
                for q in qubits {
                    self.wires[q as usize].retain(|&n| n != id);
                }
            }
        }

        fn neighbour(&self, id: NodeId, q: u32, step: isize) -> Option<NodeId> {
            let wire = self.wires.get(q as usize)?;
            let pos = wire.iter().position(|&n| n == id)? as isize + step;
            usize::try_from(pos).ok().and_then(|p| wire.get(p).copied())
        }

        fn transpose(&mut self, first: NodeId, second: NodeId) -> bool {
            let (Some((ga, qa)), Some((gb, qb))) = (&self.ops[first], &self.ops[second]) else {
                return false;
            };
            if *ga == Gate::Barrier || *gb == Gate::Barrier {
                return false;
            }
            let shared: Vec<u32> = qa.iter().copied().filter(|q| qb.contains(q)).collect();
            if shared.is_empty() {
                return true;
            }
            if shared
                .iter()
                .any(|&q| self.neighbour(first, q, 1) != Some(second))
                || !operations_commute(&op(*ga, qa), &op(*gb, qb))
            {
                return false;
            }
            for q in shared {
                let wire = &mut self.wires[q as usize];
                let i = wire.iter().position(|&n| n == first).unwrap();
                wire.swap(i, i + 1);
            }
            true
        }

        fn topological(&self) -> Vec<NodeId> {
            let n = self.ops.len();
            let mut indegree = vec![0usize; n];
            let mut edges: Vec<Vec<NodeId>> = vec![Vec::new(); n];
            for wire in &self.wires {
                for pair in wire.windows(2) {
                    edges[pair[0]].push(pair[1]);
                    indegree[pair[1]] += 1;
                }
            }
            let mut ready: BTreeSet<NodeId> = (0..n)
                .filter(|&i| self.ops[i].is_some() && indegree[i] == 0)
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
    }

    fn assert_agrees(dag: &CircuitDag, model: &Model, n: u32, ctx: &str) {
        assert_eq!(dag.len(), model.ops.iter().flatten().count(), "{ctx}");
        assert_eq!(dag.topological(), model.topological(), "{ctx}");
        for id in 0..model.ops.len() {
            let expect = model.ops[id].as_ref().map(|(g, q)| (*g, q.clone()));
            let got = dag.node(id).map(|(g, q)| (g, q.to_vec()));
            assert_eq!(got, expect, "{ctx}: node {id}");
            for q in 0..n {
                assert_eq!(
                    dag.successor_on_wire(id, q),
                    model.neighbour(id, q, 1),
                    "{ctx}: successor of {id} on {q}"
                );
                assert_eq!(
                    dag.predecessor_on_wire(id, q),
                    model.neighbour(id, q, -1),
                    "{ctx}: predecessor of {id} on {q}"
                );
            }
        }
        for q in 0..n {
            assert_eq!(dag.wire(q).collect::<Vec<_>>(), model.wires[q as usize]);
        }
    }

    #[test]
    fn linked_dag_matches_per_wire_vec_model() {
        let mut transposed = 0;
        for seed in 0..40u64 {
            let mut rng = seeded(seed);
            let n = rng.gen_range(2..5u32);
            let mut c = Circuit::new(n);
            for _ in 0..rng.gen_range(0..16usize) {
                let (g, q) = random_op(&mut rng, n);
                c.push(g, &q);
            }
            let mut dag = CircuitDag::from_circuit(&c);
            let mut model = Model {
                ops: Vec::new(),
                wires: vec![Vec::new(); n as usize],
            };
            for o in c.ops() {
                model.push(o.gate, o.qubits.clone());
            }
            assert_agrees(&dag, &model, n, &format!("seed {seed} build"));
            for step in 0..80 {
                let ids = model.ops.len().max(1);
                match rng.gen_range(0..10u32) {
                    0..=2 => {
                        let (g, q) = random_op(&mut rng, n);
                        dag.push(g, &q);
                        model.push(g, q);
                    }
                    3 | 4 => {
                        let id = rng.gen_range(0..ids);
                        dag.remove(id);
                        model.remove(id);
                    }
                    5..=8 => {
                        // Mostly true wire neighbours, so swaps happen.
                        let id = rng.gen_range(0..ids);
                        let q = rng.gen_range(0..n);
                        if let Some(next) = model.neighbour(id, q, 1) {
                            let ok = dag.try_transpose(id, next);
                            assert_eq!(ok, model.transpose(id, next), "seed {seed} step {step}");
                            transposed += usize::from(ok);
                        }
                    }
                    _ => {
                        let (a, b) = (rng.gen_range(0..ids), rng.gen_range(0..ids));
                        if a != b {
                            assert_eq!(dag.try_transpose(a, b), model.transpose(a, b));
                        }
                    }
                }
                assert_agrees(&dag, &model, n, &format!("seed {seed} step {step}"));
            }
        }
        assert!(transposed > 50, "only {transposed} transposes exercised");
    }
}
