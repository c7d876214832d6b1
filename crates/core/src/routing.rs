//! Qubit routing: mapping circuits onto a device coupling map.
//!
//! The paper's compiler is a Qiskit fork and inherits its layout/routing
//! stages; our reproduction needs the same to target the 20-qubit
//! Almaden-like lattice (two-qubit gates only exist between coupled
//! pairs). This is a straightforward greedy router: walk the circuit, and
//! whenever a two-qubit gate spans non-adjacent physical qubits, insert
//! SWAPs along a BFS shortest path to bring them together, tracking the
//! evolving logical→physical layout.

use quant_circuit::{Circuit, Gate};
use std::collections::{BTreeSet, VecDeque};

/// An undirected device coupling map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CouplingMap {
    n: u32,
    edges: BTreeSet<(u32, u32)>,
}

impl CouplingMap {
    /// Builds a map from undirected edges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or self-loop edges.
    pub fn new(n: u32, edges: &[(u32, u32)]) -> Self {
        let mut set = BTreeSet::new();
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range");
            assert_ne!(a, b, "self-loop edge");
            set.insert((a.min(b), a.max(b)));
        }
        CouplingMap { n, edges: set }
    }

    /// A linear chain `0—1—…—(n−1)`.
    pub fn linear(n: u32) -> Self {
        let edges: Vec<(u32, u32)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        CouplingMap::new(n, &edges)
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> u32 {
        self.n
    }

    /// The undirected edge list.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.edges.iter().copied()
    }

    /// Whether two physical qubits are coupled.
    pub fn adjacent(&self, a: u32, b: u32) -> bool {
        self.edges.contains(&(a.min(b), a.max(b)))
    }

    /// BFS shortest path between two physical qubits (inclusive of both
    /// endpoints); `None` if disconnected.
    pub fn path(&self, from: u32, to: u32) -> Option<Vec<u32>> {
        if from == to {
            return Some(vec![from]);
        }
        let mut prev = vec![u32::MAX; self.n as usize];
        let mut queue = VecDeque::from([from]);
        prev[from as usize] = from;
        while let Some(cur) = queue.pop_front() {
            for &(a, b) in &self.edges {
                let next = if a == cur {
                    b
                } else if b == cur {
                    a
                } else {
                    continue;
                };
                if prev[next as usize] == u32::MAX {
                    prev[next as usize] = cur;
                    if next == to {
                        let mut path = vec![to];
                        let mut node = to;
                        while node != from {
                            node = prev[node as usize];
                            path.push(node);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(next);
                }
            }
        }
        None
    }
}

/// A routed circuit plus its qubit bookkeeping.
#[derive(Clone, Debug)]
pub struct Routed {
    /// The physical circuit: every two-qubit gate acts on a coupled pair.
    pub circuit: Circuit,
    /// Final layout: `layout[logical] = physical`.
    pub final_layout: Vec<u32>,
    /// Number of SWAPs inserted.
    pub swaps_inserted: usize,
}

/// Errors from routing.
#[derive(Clone, Debug, PartialEq)]
pub enum RouteError {
    /// The circuit has more qubits than the device.
    TooWide {
        /// Logical qubits required.
        logical: u32,
        /// Physical qubits available.
        physical: u32,
    },
    /// Two qubits have no connecting path.
    Disconnected(u32, u32),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::TooWide { logical, physical } => write!(
                f,
                "circuit needs {logical} qubits but the device has {physical}"
            ),
            RouteError::Disconnected(a, b) => {
                write!(f, "no coupling path between physical qubits {a} and {b}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Routes a logical circuit onto the coupling map with the trivial initial
/// layout (logical i → physical i) and greedy SWAP insertion.
pub fn route(circuit: &Circuit, map: &CouplingMap) -> Result<Routed, RouteError> {
    if circuit.num_qubits() > map.num_qubits() {
        return Err(RouteError::TooWide {
            logical: circuit.num_qubits(),
            physical: map.num_qubits(),
        });
    }
    let mut layout: Vec<u32> = (0..circuit.num_qubits()).collect();
    let mut out = Circuit::new(map.num_qubits());
    let mut swaps = 0usize;

    for op in circuit.ops() {
        match op.qubits.as_slice() {
            [q] => {
                out.push(op.gate, &[layout[*q as usize]]);
            }
            [a, b] => {
                let (la, lb) = (*a as usize, *b as usize);
                let (pa, pb) = (layout[la], layout[lb]);
                if !map.adjacent(pa, pb) {
                    let path = map.path(pa, pb).ok_or(RouteError::Disconnected(pa, pb))?;
                    // Walk `a` down the path until adjacent to b's position.
                    for window in path.windows(2) {
                        let (from, to) = (window[0], window[1]);
                        if map.adjacent(to, layout[lb]) || to == layout[lb] {
                            if to == layout[lb] {
                                // One hop short: stop before landing on b.
                                break;
                            }
                            out.push(Gate::Swap, &[from, to]);
                            swaps += 1;
                            swap_layout(&mut layout, from, to);
                            break;
                        }
                        out.push(Gate::Swap, &[from, to]);
                        swaps += 1;
                        swap_layout(&mut layout, from, to);
                    }
                }
                let (pa, pb) = (layout[la], layout[lb]);
                debug_assert!(map.adjacent(pa, pb), "routing failed to adjoin {pa},{pb}");
                out.push(op.gate, &[pa, pb]);
            }
            _ => unreachable!("gates have arity 1 or 2"),
        }
    }

    Ok(Routed {
        circuit: out,
        final_layout: layout,
        swaps_inserted: swaps,
    })
}

/// Updates the logical→physical layout after a physical SWAP.
fn swap_layout(layout: &mut [u32], pa: u32, pb: u32) {
    for slot in layout.iter_mut() {
        if *slot == pa {
            *slot = pb;
        } else if *slot == pb {
            *slot = pa;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An Almaden-like 20-qubit lattice: four rows of five with vertical
    /// couplers on alternating columns (the heavy-square family IBM's
    /// 20-qubit Penguin devices used; the exact published map differs in a
    /// couple of couplers but has the same connectivity character).
    fn almaden_twenty() -> CouplingMap {
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for row in 0..4u32 {
            for col in 0..4u32 {
                edges.push((row * 5 + col, row * 5 + col + 1));
            }
        }
        // Vertical couplers: columns 0, 2, 4 between rows 0–1 and 2–3;
        // columns 1, 3 between rows 1–2.
        for &col in &[0u32, 2, 4] {
            edges.push((col, col + 5));
            edges.push((10 + col, 15 + col));
        }
        for &col in &[1u32, 3] {
            edges.push((5 + col, 10 + col));
        }
        CouplingMap::new(20, &edges)
    }

    /// Remaps a logical output distribution through the final layout so it
    /// can be compared with the routed circuit's physical distribution.
    fn remap_distribution(logical: &[f64], layout: &[u32], physical_qubits: u32) -> Vec<f64> {
        let mut out = vec![0.0; 1 << physical_qubits];
        for (idx, &p) in logical.iter().enumerate() {
            let mut phys_idx = 0usize;
            for (lq, &pq) in layout.iter().enumerate() {
                if (idx >> lq) & 1 == 1 {
                    phys_idx |= 1 << pq;
                }
            }
            out[phys_idx] += p;
        }
        out
    }

    fn assert_route_equivalent(circuit: &Circuit, map: &CouplingMap) {
        let routed = route(circuit, map).expect("routable");
        for op in routed.circuit.ops() {
            if op.qubits.len() == 2 {
                assert!(
                    map.adjacent(op.qubits[0], op.qubits[1]),
                    "unrouted 2q op {} on ({},{})",
                    op.gate,
                    op.qubits[0],
                    op.qubits[1]
                );
            }
        }
        let expect = remap_distribution(
            &circuit.output_distribution(),
            &routed.final_layout,
            map.num_qubits(),
        );
        let got = routed.circuit.output_distribution();
        for (i, (a, b)) in expect.iter().zip(&got).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "distribution mismatch at {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn adjacent_gates_untouched() {
        let map = CouplingMap::linear(3);
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).cnot(1, 2);
        let routed = route(&c, &map).unwrap();
        assert_eq!(routed.swaps_inserted, 0);
        assert_eq!(routed.final_layout, vec![0, 1, 2]);
    }

    #[test]
    fn distant_cnot_gets_swapped_on_a_chain() {
        let map = CouplingMap::linear(4);
        let mut c = Circuit::new(4);
        c.h(0).cnot(0, 3);
        let routed = route(&c, &map).unwrap();
        assert!(routed.swaps_inserted >= 2);
        assert_route_equivalent(&c, &map);
    }

    #[test]
    fn ghz_on_grid() {
        // A 2×3 grid: rows 0—1—2 and 3—4—5, joined column by column.
        let map = CouplingMap::new(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]);
        let mut c = Circuit::new(6);
        c.h(0);
        for q in 0..5u32 {
            c.cnot(q, q + 1);
        }
        assert_route_equivalent(&c, &map);
    }

    #[test]
    fn random_style_circuit_on_almaden20() {
        let map = almaden_twenty();
        assert_eq!(map.num_qubits(), 20);
        // A 8-qubit circuit with long-range interactions (fits the lattice
        // top rows; full 20-qubit state vectors are fine but slower).
        let mut c = Circuit::new(8);
        c.h(0);
        for (a, b) in [(0u32, 7u32), (2, 5), (7, 1), (3, 6), (4, 0)] {
            c.cnot(a, b);
            c.rz(b, 0.3);
        }
        assert_route_equivalent(&c, &map);
    }

    #[test]
    fn almaden_lattice_is_connected() {
        let map = almaden_twenty();
        for q in 1..20u32 {
            assert!(map.path(0, q).is_some(), "qubit {q} unreachable");
        }
        // Spot-check distances: corner to corner takes several hops.
        let corner = map.path(0, 19).unwrap();
        assert!(corner.len() >= 6, "corner path {corner:?}");
    }

    #[test]
    fn too_wide_circuit_is_an_error() {
        let map = CouplingMap::linear(2);
        let c = Circuit::new(3);
        assert!(matches!(route(&c, &map), Err(RouteError::TooWide { .. })));
    }

    #[test]
    fn disconnected_pair_is_an_error() {
        let map = CouplingMap::new(4, &[(0, 1), (2, 3)]);
        let mut c = Circuit::new(4);
        c.cnot(0, 3);
        assert!(matches!(route(&c, &map), Err(RouteError::Disconnected(..))));
    }

    #[test]
    fn layout_tracks_multiple_swaps() {
        let map = CouplingMap::linear(5);
        let mut c = Circuit::new(5);
        c.x(0).cnot(0, 4).cnot(0, 4).x(0);
        assert_route_equivalent(&c, &map);
    }
}
