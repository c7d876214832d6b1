//! The two-qubit basis decomposer behind Table 2.
//!
//! Given a target operation and a native two-qubit gate, find the smallest
//! number of native-gate applications that synthesizes the target to
//! ≥ 99.9 % average gate fidelity, interleaving arbitrary single-qubit
//! rotations. This mirrors the paper's methodology: Qiskit's
//! `TwoQubitBasisDecomposer` for discrete gates and a constrained COBYLA
//! search for the parametrized `CR(θ)` column.
//!
//! The search ansatz is
//!
//! ```text
//! U ≈ L_k · B(θ_k) · L_{k-1} · … · B(θ_1) · L_0,   L_j = u3 ⊗ u3
//! ```
//!
//! optimized over the 6 Euler angles of every local layer (plus one θ per
//! basis application when the native gate is parametrized) with restarted
//! Nelder–Mead. Makhlin-invariant shortcuts prune impossible counts.

use crate::kak::{is_local, locally_equivalent, two_cnot_synthesizable};
use quant_math::{nelder_mead, seeded, CMat, NelderMeadOptions};
use quant_sim::gates as g;
use rand::Rng;

/// Average gate fidelity between two-qubit unitaries:
/// `F = (|tr(U†V)|² + d) / (d² + d)` with `d = 4`.
pub fn average_gate_fidelity(u: &CMat, v: &CMat) -> f64 {
    let d = u.rows() as f64;
    let tr = (&u.dagger() * v).trace();
    (tr.norm_sqr() + d) / (d * d + d)
}

/// A native two-qubit gate the decomposer can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NativeGate {
    /// CNOT — the textbook reference column.
    Cnot,
    /// 90° cross-resonance.
    Cr90,
    /// iSWAP (tunable superconducting / quantum-dot / nuclear-spin qubits).
    ISwap,
    /// bSWAP (two-photon gate).
    BSwap,
    /// MAP (microwave-activated phase).
    Map,
    /// √iSWAP — the "half gate" (cost 0.5 per use).
    SqrtISwap,
    /// Parametrized CR(θ) via pulse stretching — the paper's target.
    CrTheta,
}

impl NativeGate {
    /// Display name matching Table 2's columns.
    pub fn name(&self) -> &'static str {
        match self {
            NativeGate::Cnot => "CNOT",
            NativeGate::Cr90 => "CR(90°)",
            NativeGate::ISwap => "iSWAP",
            NativeGate::BSwap => "bSWAP",
            NativeGate::Map => "MAP",
            NativeGate::SqrtISwap => "√iSWAP",
            NativeGate::CrTheta => "CR(θ)",
        }
    }

    /// Cost charged per application (Table 2 counts √iSWAP as 0.5).
    fn cost_per_use(&self) -> f64 {
        match self {
            NativeGate::SqrtISwap => 0.5,
            _ => 1.0,
        }
    }

    /// Whether each application carries a free continuous parameter.
    pub fn is_parametrized(&self) -> bool {
        matches!(self, NativeGate::CrTheta)
    }

    /// The gate matrix for a given per-use parameter (ignored when not
    /// parametrized).
    pub fn matrix(&self, theta: f64) -> CMat {
        match self {
            NativeGate::Cnot => g::cnot(),
            NativeGate::Cr90 => g::cr(std::f64::consts::FRAC_PI_2),
            NativeGate::ISwap => g::iswap(),
            NativeGate::BSwap => g::bswap(),
            NativeGate::Map => g::map_gate(),
            NativeGate::SqrtISwap => g::sqrt_iswap(),
            NativeGate::CrTheta => g::cr(theta),
        }
    }
}

/// Result of a successful synthesis.
#[derive(Clone, Debug)]
pub struct Synthesis {
    /// Number of native-gate applications.
    pub uses: usize,
    /// Cost (uses × cost-per-use).
    pub cost: f64,
    /// Achieved average gate fidelity.
    pub fidelity: f64,
    /// Optimized parameters (local Euler angles + per-use θ's).
    pub params: Vec<f64>,
}

/// Options for the decomposition search.
#[derive(Clone, Copy, Debug)]
pub struct DecomposeOptions {
    /// Required average gate fidelity (paper: 99.9 %).
    pub fidelity_threshold: f64,
    /// Random restarts per use-count.
    pub restarts: usize,
    /// Nelder–Mead evaluation budget per restart.
    pub max_evals: usize,
    /// Maximum native-gate applications to try.
    pub max_uses: usize,
    /// RNG seed for restart initialization.
    pub seed: u64,
}

impl Default for DecomposeOptions {
    fn default() -> Self {
        DecomposeOptions {
            fidelity_threshold: 0.999,
            restarts: 12,
            max_evals: 8000,
            max_uses: 3,
            seed: 20_20,
        }
    }
}

/// Builds the ansatz unitary for a parameter vector.
fn ansatz(native: NativeGate, uses: usize, params: &[f64]) -> CMat {
    let mut u = local_layer(&params[0..6]);
    for k in 0..uses {
        let theta = if native.is_parametrized() {
            params[6 * (uses + 1) + k]
        } else {
            0.0
        };
        u = &native.matrix(theta) * &u;
        let layer = &params[6 * (k + 1)..6 * (k + 2)];
        u = &local_layer(layer) * &u;
    }
    u
}

/// `u3(a,b,c) ⊗ u3(d,e,f)` with qubit 0 as the least-significant digit.
fn local_layer(p: &[f64]) -> CMat {
    // kron(A, B): A acts on the most-significant digit (qubit 1).
    g::u3(p[3], p[4], p[5]).kron(&g::u3(p[0], p[1], p[2]))
}

/// Number of parameters for a given ansatz size.
fn param_count(native: NativeGate, uses: usize) -> usize {
    6 * (uses + 1) + if native.is_parametrized() { uses } else { 0 }
}

/// Attempts to synthesize `target` with exactly `uses` applications.
pub fn synthesize_with_uses(
    target: &CMat,
    native: NativeGate,
    uses: usize,
    opts: &DecomposeOptions,
) -> Option<Synthesis> {
    if uses == 0 {
        return if is_local(target) {
            Some(Synthesis {
                uses: 0,
                cost: 0.0,
                fidelity: 1.0,
                params: Vec::new(),
            })
        } else {
            None
        };
    }
    // Invariant-based pruning for the non-parametrized gates.
    if !native.is_parametrized() {
        let b = native.matrix(0.0);
        if uses == 1 && !locally_equivalent(target, &b) {
            return None;
        }
        // With CNOT-class gates, two uses reach exactly the
        // two-CNOT-synthesizable set.
        if uses == 2 && locally_equivalent(&b, &g::cnot()) && !two_cnot_synthesizable(target) {
            return None;
        }
    }

    let n = param_count(native, uses);
    let mut rng = seeded(opts.seed);
    let nm_opts = NelderMeadOptions {
        max_evals: opts.max_evals,
        initial_step: 0.6,
        ..Default::default()
    };
    let mut best: Option<Synthesis> = None;
    for _ in 0..opts.restarts {
        let x0: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI))
            .collect();
        let result = nelder_mead(
            |p| 1.0 - average_gate_fidelity(target, &ansatz(native, uses, p)),
            &x0,
            &nm_opts,
        );
        let fidelity = 1.0 - result.fx;
        if best.as_ref().is_none_or(|b| fidelity > b.fidelity) {
            best = Some(Synthesis {
                uses,
                cost: uses as f64 * native.cost_per_use(),
                fidelity,
                params: result.x,
            });
        }
        if fidelity >= opts.fidelity_threshold {
            break;
        }
    }
    best.filter(|s| s.fidelity >= opts.fidelity_threshold)
}

/// Finds the minimum-cost synthesis of `target` in the given native gate,
/// trying `uses = 0, 1, …, max_uses`.
pub fn decompose(target: &CMat, native: NativeGate, opts: &DecomposeOptions) -> Option<Synthesis> {
    for uses in 0..=opts.max_uses {
        if let Some(s) = synthesize_with_uses(target, native, uses, opts) {
            return Some(s);
        }
    }
    None
}

impl Synthesis {
    /// Materializes the synthesis as a two-qubit circuit: alternating
    /// local layers (as `U3` pairs) and native-gate applications.
    pub fn to_circuit(&self, native: NativeGate) -> quant_circuit::Circuit {
        use quant_circuit::Gate;
        let mut c = quant_circuit::Circuit::new(2);
        let layer = |c: &mut quant_circuit::Circuit, p: &[f64]| {
            c.push(Gate::U3(p[0], p[1], p[2]), &[0]);
            c.push(Gate::U3(p[3], p[4], p[5]), &[1]);
        };
        layer(&mut c, &self.params[0..6]);
        for k in 0..self.uses {
            let gate = match native {
                NativeGate::Cnot => Gate::Cnot,
                NativeGate::Cr90 => Gate::Cr(std::f64::consts::FRAC_PI_2),
                NativeGate::ISwap => Gate::ISwap,
                NativeGate::BSwap => Gate::BSwap,
                NativeGate::Map => Gate::Map,
                NativeGate::SqrtISwap => Gate::SqrtISwap,
                NativeGate::CrTheta => Gate::Cr(self.params[6 * (self.uses + 1) + k]),
            };
            c.push(gate, &[0, 1]);
            layer(&mut c, &self.params[6 * (k + 1)..6 * (k + 2)]);
        }
        c
    }
}

/// The decomposition targets of Table 2's rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetOp {
    /// CNOT.
    Cnot,
    /// SWAP (data movement).
    Swap,
    /// ZZ(θ) interaction — the ubiquitous near-term primitive.
    ZzInteraction,
    /// Fermionic-simulation gate.
    FermionicSimulation,
}

impl TargetOp {
    /// Display name matching Table 2's rows.
    pub fn name(&self) -> &'static str {
        match self {
            TargetOp::Cnot => "CNOT",
            TargetOp::Swap => "SWAP",
            TargetOp::ZzInteraction => "ZZ Interaction",
            TargetOp::FermionicSimulation => "Fermionic Simulation",
        }
    }

    /// A representative unitary (generic angles for parametrized rows, as
    /// in the paper's cost computation).
    pub fn matrix(&self) -> CMat {
        match self {
            TargetOp::Cnot => g::cnot(),
            TargetOp::Swap => g::swap(),
            // A generic interaction angle — not a special point.
            TargetOp::ZzInteraction => g::zz(0.777),
            TargetOp::FermionicSimulation => g::fsim(0.5, 0.777),
        }
    }
}

/// One row × column entry of Table 2: minimum cost, or `None` if not found
/// within the search budget.
pub fn table2_cost(target: TargetOp, native: NativeGate, opts: &DecomposeOptions) -> Option<f64> {
    decompose(&target.matrix(), native, opts).map(|s| s.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    fn fast_opts() -> DecomposeOptions {
        DecomposeOptions {
            restarts: 8,
            max_evals: 6000,
            ..Default::default()
        }
    }

    #[test]
    fn fidelity_metric_properties() {
        let u = g::cnot();
        assert!((average_gate_fidelity(&u, &u) - 1.0).abs() < 1e-12);
        let f = average_gate_fidelity(&u, &CMat::identity(4));
        assert!(f < 0.5, "CNOT vs I fidelity = {f}");
        // Global phase invariance.
        let v = u.scale(quant_math::C64::cis(1.23));
        assert!((average_gate_fidelity(&u, &v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn local_target_costs_zero() {
        let t = g::h().kron(&g::t());
        let s = decompose(&t, NativeGate::Cnot, &fast_opts()).unwrap();
        assert_eq!(s.uses, 0);
    }

    #[test]
    fn cnot_from_one_cr90() {
        let s = synthesize_with_uses(&g::cnot(), NativeGate::Cr90, 1, &fast_opts())
            .expect("CNOT is one CR(90°) plus locals");
        assert!(s.fidelity >= 0.999, "fidelity {}", s.fidelity);
    }

    #[test]
    fn cnot_needs_two_iswaps() {
        let opts = fast_opts();
        assert!(
            synthesize_with_uses(&g::cnot(), NativeGate::ISwap, 1, &opts).is_none(),
            "CNOT is not locally equivalent to iSWAP"
        );
        let s = synthesize_with_uses(&g::cnot(), NativeGate::ISwap, 2, &opts)
            .expect("CNOT = 2 iSWAPs + locals");
        assert!(s.fidelity >= 0.999);
    }

    #[test]
    fn zz_needs_two_cnots_but_one_cr_theta() {
        let opts = fast_opts();
        let zz = g::zz(0.777);
        assert!(
            synthesize_with_uses(&zz, NativeGate::Cnot, 1, &opts).is_none(),
            "generic ZZ is not CNOT-class"
        );
        let two =
            synthesize_with_uses(&zz, NativeGate::Cnot, 2, &opts).expect("textbook: CNOT·Rz·CNOT");
        assert_eq!(two.uses, 2);
        let one =
            synthesize_with_uses(&zz, NativeGate::CrTheta, 1, &opts).expect("paper: H·CR(θ)·H");
        assert!(one.fidelity >= 0.999, "CR(θ) fidelity {}", one.fidelity);
    }

    #[test]
    fn cnot_from_two_sqrt_iswaps_costs_one() {
        let s =
            decompose(&g::cnot(), NativeGate::SqrtISwap, &fast_opts()).expect("CNOT = 2 √iSWAPs");
        assert_eq!(s.uses, 2);
        assert!((s.cost - 1.0).abs() < 1e-12, "half-gate accounting");
    }

    #[test]
    fn pruning_rejects_impossible_counts() {
        let opts = fast_opts();
        // SWAP fails the two-CNOT criterion → pruned without search.
        assert!(synthesize_with_uses(&g::swap(), NativeGate::Cnot, 2, &opts).is_none());
        // CR(90°) is CNOT-class: one use suffices for CNOT and is pruned
        // *in* (i.e. allowed); sanity-check the fast path agrees.
        assert!(locally_equivalent(
            &g::cr(FRAC_PI_2),
            &NativeGate::Cr90.matrix(0.0)
        ));
    }

    #[test]
    fn ansatz_param_counts() {
        assert_eq!(param_count(NativeGate::Cnot, 2), 18);
        assert_eq!(param_count(NativeGate::CrTheta, 2), 20);
    }

    #[test]
    fn synthesis_to_circuit_round_trips() {
        let opts = fast_opts();
        let target = g::zz(0.777);
        let s = synthesize_with_uses(&target, NativeGate::CrTheta, 1, &opts)
            .expect("ZZ from one CR(θ)");
        let circuit = s.to_circuit(NativeGate::CrTheta);
        let f = average_gate_fidelity(&target, &circuit.unitary());
        assert!(f >= 0.999, "materialized circuit fidelity {f}");
        assert_eq!(circuit.count_gate("cr"), 1);
    }

    #[test]
    fn synthesis_to_circuit_discrete_gate() {
        let opts = fast_opts();
        let s = synthesize_with_uses(&g::swap(), NativeGate::SqrtISwap, 3, &opts)
            .expect("SWAP from three √iSWAPs");
        let circuit = s.to_circuit(NativeGate::SqrtISwap);
        let f = average_gate_fidelity(&g::swap(), &circuit.unitary());
        assert!(f >= 0.999, "fidelity {f}");
        assert_eq!(circuit.count_gate("sqrt_iswap"), 3);
    }
}
