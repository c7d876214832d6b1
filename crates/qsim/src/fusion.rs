//! Gate-fusion planning: merge adjacent operators with overlapping
//! supports into fused multi-subsystem blocks.
//!
//! A state-vector simulator's wall-clock is dominated by full-state
//! sweeps: every applied operator reads and writes all `2ⁿ` amplitudes.
//! Fusing a run of small gates into one k-subsystem block replaces many
//! sweeps with one (plus cheap dense products on `≤ 32×32` matrices), the
//! classic qsim/qulacs optimization. This module computes the *plan* —
//! which ops land in which block, in what order blocks open, merge,
//! and close — as a pure function of the op supports, so an executor can
//! hoist it out of its per-trajectory (or per-shot) fan-out and replay it
//! cheaply.
//!
//! Two op classes exist:
//!
//! * **unitary** ops drive fusion: they may open blocks, merge open
//!   blocks, or (when the cost model declines a merge) force a close;
//! * **local** ops (stochastic channel points such as sampled Kraus
//!   branches) never change block structure — they ride inside whatever
//!   block currently owns their subsystem, opening a singleton block if
//!   none does. The executor interleaves its random draws at these steps,
//!   which is what keeps a fused trajectory's RNG stream identical to an
//!   event-by-event replay's.
//!
//! Open blocks are pairwise disjoint by construction, so they commute and
//! any close order is valid; the plan always opens, merges, and closes in
//! first-opened order, making it deterministic and independent of
//! thread count (it is built once, before any fan-out).
//!
//! # Cost model
//!
//! Applying a block of subspace weight `w` (product of its target
//! dimensions) to a d-dim state costs about `d·(B + w)` flops/bytes:
//! `w` for the dense matvec per fibre plus a constant `B ≈ 4` for
//! gather/scatter and loop overhead. A merge is accepted when the merged
//! block is no more expensive than its parts:
//! `B + w(union) ≤ Σ (B + w(part))`. With qubit supports this accepts
//! 1q→2q (8 ≤ 14), 2q+2q→3q (12 ≤ 16) and 3q+2q→4q (20 ≤ 20), and
//! declines anything growing to 5 qubits from a 4-qubit block
//! (36 > 28) — fusion stops where the work would grow.

use crate::kernels::KernelScratch;
use quant_math::CMat;

/// Default cap on fused-block subspace weight: `2⁵` (five qubits).
pub const MAX_FUSED_WEIGHT: usize = 32;

/// Per-fibre overhead constant `B` of the cost model (gather/scatter and
/// loop bookkeeping, in units of one matvec column).
const COST_BASE: usize = 4;

/// One operator in the stream handed to [`FusionPlan::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpDesc {
    /// Subsystem indices the op acts on (distinct, in op digit order).
    pub support: Vec<usize>,
    /// Whether the op is a deterministic unitary (drives fusion) or a
    /// local stochastic channel point (rides inside its block).
    pub unitary: bool,
}

impl OpDesc {
    /// A unitary gate on `support`.
    pub fn unitary(support: &[usize]) -> Self {
        OpDesc {
            support: support.to_vec(),
            unitary: true,
        }
    }

    /// A local (single-subsystem) stochastic channel point.
    pub fn local(subsystem: usize) -> Self {
        OpDesc {
            support: vec![subsystem],
            unitary: false,
        }
    }
}

/// One replayable step of a fusion plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Allocate block `block` (identity accumulator at its final size).
    Open {
        /// Block id.
        block: usize,
    },
    /// Fold input op `op` into `block` at the given local digit
    /// positions (indices into the block's target list).
    Fold {
        /// Index into the op stream.
        op: usize,
        /// Block id.
        block: usize,
        /// Local position of each support digit inside the block.
        local: Vec<usize>,
    },
    /// Fold the accumulator of open block `from` into open block `into`
    /// (disjoint targets; `local` places `from`'s targets inside
    /// `into`'s). `from` is dead afterwards.
    Merge {
        /// Source block id (dead after this step).
        from: usize,
        /// Destination block id.
        into: usize,
        /// Local position of each of `from`'s targets inside `into`.
        local: Vec<usize>,
    },
    /// Apply `block`'s accumulator to the state and retire it.
    Close {
        /// Block id.
        block: usize,
    },
}

/// A fused block's final shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockSpec {
    /// Global subsystem indices, in insertion order (digit 0 first).
    pub targets: Vec<usize>,
}

/// The hoisted fusion plan: blocks plus the interleaved step list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FusionPlan {
    /// Every block ever opened, by id.
    pub blocks: Vec<BlockSpec>,
    /// Steps in execution order. Every op index appears in exactly one
    /// [`Step::Fold`], in input order.
    pub steps: Vec<Step>,
}

/// `B + w` — the per-fibre cost of applying a block of weight `w`.
fn cost(weight: usize) -> usize {
    COST_BASE + weight
}

/// Internal builder state for one (possibly still open) block.
struct Builder {
    targets: Vec<usize>,
    weight: usize,
    open: bool,
}

impl FusionPlan {
    /// Builds the plan for `ops` over a register of subsystem dimensions
    /// `dims`, fusing up to blocks of subspace weight `max_weight`
    /// (use [`MAX_FUSED_WEIGHT`] for the five-qubit default).
    ///
    /// Pure and deterministic: the plan depends only on the arguments.
    ///
    /// # Panics
    ///
    /// Panics if an op's support repeats a subsystem or indexes past
    /// `dims`, or if a local op is not single-subsystem.
    pub fn build(ops: &[OpDesc], dims: &[usize], max_weight: usize) -> FusionPlan {
        let mut blocks: Vec<Builder> = Vec::new();
        let mut steps: Vec<Step> = Vec::new();
        // Ids of open blocks, in open order (pairwise disjoint invariant).
        let mut open: Vec<usize> = Vec::new();

        let weight_of = |support: &[usize]| -> usize { support.iter().map(|&s| dims[s]).product() };

        for (i, op) in ops.iter().enumerate() {
            for (j, &s) in op.support.iter().enumerate() {
                assert!(s < dims.len(), "op {i}: subsystem {s} out of range");
                assert!(
                    !op.support[..j].contains(&s),
                    "op {i}: duplicate subsystem {s}"
                );
            }
            if !op.unitary {
                assert_eq!(op.support.len(), 1, "local op {i} must be single-subsystem");
                let q = op.support[0];
                let b = match open.iter().find(|&&b| blocks[b].targets.contains(&q)) {
                    Some(&b) => b,
                    None => open_block(&mut blocks, &mut steps, &mut open, vec![q], dims[q]),
                };
                let local = locals(&blocks[b].targets, &[q]);
                steps.push(Step::Fold {
                    op: i,
                    block: b,
                    local,
                });
                continue;
            }

            let overlapping: Vec<usize> = open
                .iter()
                .copied()
                .filter(|&b| op.support.iter().any(|q| blocks[b].targets.contains(q)))
                .collect();
            let op_weight = weight_of(&op.support);

            if overlapping.is_empty() {
                let b = if op_weight <= max_weight {
                    open_block(
                        &mut blocks,
                        &mut steps,
                        &mut open,
                        op.support.clone(),
                        op_weight,
                    )
                } else {
                    // Oversized op: apply standalone, immediately.
                    let b = open_block(
                        &mut blocks,
                        &mut steps,
                        &mut open,
                        op.support.clone(),
                        op_weight,
                    );
                    steps.push(Step::Fold {
                        op: i,
                        block: b,
                        local: (0..op.support.len()).collect(),
                    });
                    close_block(&mut blocks, &mut steps, &mut open, b);
                    continue;
                };
                let local = locals(&blocks[b].targets, &op.support);
                steps.push(Step::Fold {
                    op: i,
                    block: b,
                    local,
                });
                continue;
            }

            // Candidate 1: merge every overlapping block plus the op.
            let full_union = union_weight(&blocks, &overlapping, &op.support, dims);
            let full_parts: usize = overlapping
                .iter()
                .map(|&b| cost(blocks[b].weight))
                .sum::<usize>()
                + cost(op_weight);
            if full_union <= max_weight && cost(full_union) <= full_parts {
                let b = merge_into_first(&mut blocks, &mut steps, &mut open, &overlapping, dims);
                fold_extending(&mut blocks, &mut steps, b, i, &op.support, dims);
                continue;
            }

            // Candidate 2: merge with the smallest overlapping block only,
            // closing the rest (their pending ops commute out: open blocks
            // are pairwise disjoint and the closed ones precede the op).
            if let (true, Some(&b_min)) = (
                overlapping.len() > 1,
                overlapping.iter().min_by_key(|&&b| (blocks[b].weight, b)),
            ) {
                let partial_union = union_weight(&blocks, &[b_min], &op.support, dims);
                if partial_union <= max_weight
                    && cost(partial_union) <= cost(blocks[b_min].weight) + cost(op_weight)
                {
                    for &b in &overlapping {
                        if b != b_min {
                            close_block(&mut blocks, &mut steps, &mut open, b);
                        }
                    }
                    fold_extending(&mut blocks, &mut steps, b_min, i, &op.support, dims);
                    continue;
                }
            }

            // Declined: close everything the op touches, start fresh.
            for &b in &overlapping {
                close_block(&mut blocks, &mut steps, &mut open, b);
            }
            let b = open_block(
                &mut blocks,
                &mut steps,
                &mut open,
                op.support.clone(),
                op_weight,
            );
            let local = locals(&blocks[b].targets, &op.support);
            steps.push(Step::Fold {
                op: i,
                block: b,
                local,
            });
        }

        for b in open.clone() {
            close_block(&mut blocks, &mut steps, &mut open, b);
        }

        FusionPlan {
            blocks: blocks
                .into_iter()
                .map(|b| BlockSpec { targets: b.targets })
                .collect(),
            steps,
        }
    }

    /// Folds per-op matrices into per-block matrices by replaying the
    /// plan — the same embedding arithmetic an executor uses at runtime.
    /// `mats[i]` is op `i`'s matrix on its own support digits; the result
    /// is indexed by block id, each matrix over the block's
    /// [`BlockSpec::targets`] digits.
    ///
    /// # Panics
    ///
    /// Panics on matrix/support dimension mismatches.
    pub fn fused_blocks(
        &self,
        mats: &[CMat],
        dims: &[usize],
        scratch: &mut KernelScratch,
    ) -> Vec<CMat> {
        let mut out: Vec<CMat> = self
            .blocks
            .iter()
            .map(|b| {
                let w: usize = b.targets.iter().map(|&t| dims[t]).product();
                CMat::identity(w)
            })
            .collect();
        for step in &self.steps {
            match step {
                Step::Open { .. } | Step::Close { .. } => {}
                Step::Fold { op, block, local } => {
                    let bdims = self.block_dims(*block, dims);
                    let (acc, mat) = (&mut out[*block], &mats[*op]);
                    scratch.apply_left(acc, mat, local, &bdims);
                }
                Step::Merge { from, into, local } => {
                    let bdims = self.block_dims(*into, dims);
                    let (head, tail) = out.split_at_mut(*from.max(into));
                    let (acc, src) = if from < into {
                        (&mut tail[0], &head[*from])
                    } else {
                        (&mut head[*into], &tail[0])
                    };
                    scratch.apply_left(acc, src, local, &bdims);
                }
            }
        }
        out
    }

    /// The subsystem dimensions of one block, in target order.
    pub fn block_dims(&self, block: usize, dims: &[usize]) -> Vec<usize> {
        self.blocks[block]
            .targets
            .iter()
            .map(|&t| dims[t])
            .collect()
    }
}

fn locals(targets: &[usize], support: &[usize]) -> Vec<usize> {
    // Every support subsystem is in `targets` by construction: blocks are
    // opened with — or extended by — the op's support before any step
    // references it. The length check keeps a planner bug from silently
    // producing an op with dropped targets.
    let locals: Vec<usize> = support
        .iter()
        .filter_map(|&q| targets.iter().position(|&t| t == q))
        .collect();
    debug_assert_eq!(
        locals.len(),
        support.len(),
        "support must lie inside the block"
    );
    locals
}

fn union_weight(blocks: &[Builder], members: &[usize], support: &[usize], dims: &[usize]) -> usize {
    let mut w = 1usize;
    let mut seen: Vec<usize> = Vec::new();
    for &b in members {
        for &t in &blocks[b].targets {
            if !seen.contains(&t) {
                seen.push(t);
                w *= dims[t];
            }
        }
    }
    for &q in support {
        if !seen.contains(&q) {
            seen.push(q);
            w *= dims[q];
        }
    }
    w
}

fn open_block(
    blocks: &mut Vec<Builder>,
    steps: &mut Vec<Step>,
    open: &mut Vec<usize>,
    targets: Vec<usize>,
    weight: usize,
) -> usize {
    let id = blocks.len();
    blocks.push(Builder {
        targets,
        weight,
        open: true,
    });
    open.push(id);
    steps.push(Step::Open { block: id });
    id
}

fn close_block(blocks: &mut [Builder], steps: &mut Vec<Step>, open: &mut Vec<usize>, b: usize) {
    debug_assert!(blocks[b].open);
    blocks[b].open = false;
    open.retain(|&x| x != b);
    steps.push(Step::Close { block: b });
}

/// Merges every block in `members` (open order) into the first, emitting
/// [`Step::Merge`] steps; returns the surviving block id.
fn merge_into_first(
    blocks: &mut [Builder],
    steps: &mut Vec<Step>,
    open: &mut Vec<usize>,
    members: &[usize],
    dims: &[usize],
) -> usize {
    let dst = members[0];
    for &src in &members[1..] {
        let moved: Vec<usize> = blocks[src].targets.clone();
        for &t in &moved {
            blocks[dst].targets.push(t);
            blocks[dst].weight *= dims[t];
        }
        let local = locals(&blocks[dst].targets, &moved);
        steps.push(Step::Merge {
            from: src,
            into: dst,
            local,
        });
        blocks[src].open = false;
        open.retain(|&x| x != src);
    }
    dst
}

/// Extends block `b` with any new subsystems in `support`, then folds op
/// `i` at its local positions.
fn fold_extending(
    blocks: &mut [Builder],
    steps: &mut Vec<Step>,
    b: usize,
    i: usize,
    support: &[usize],
    dims: &[usize],
) {
    for &q in support {
        if !blocks[b].targets.contains(&q) {
            blocks[b].targets.push(q);
            blocks[b].weight *= dims[q];
        }
    }
    let local = locals(&blocks[b].targets, support);
    steps.push(Step::Fold {
        op: i,
        block: b,
        local,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qubits(n: usize) -> Vec<usize> {
        vec![2; n]
    }

    fn fold_count(plan: &FusionPlan, block: usize) -> usize {
        plan.steps
            .iter()
            .filter(|s| matches!(s, Step::Fold { block: b, .. } if *b == block))
            .count()
    }

    #[test]
    fn nearest_neighbor_chain_fuses_to_four_qubits_then_stops() {
        let ops = [
            OpDesc::unitary(&[0, 1]),
            OpDesc::unitary(&[1, 2]),
            OpDesc::unitary(&[2, 3]),
            OpDesc::unitary(&[3, 4]),
        ];
        let plan = FusionPlan::build(&ops, &qubits(5), MAX_FUSED_WEIGHT);
        assert_eq!(plan.blocks.len(), 2, "plan: {plan:?}");
        assert_eq!(plan.blocks[0].targets, vec![0, 1, 2, 3]);
        assert_eq!(plan.blocks[1].targets, vec![3, 4]);
        assert_eq!(fold_count(&plan, 0), 3);
        assert_eq!(fold_count(&plan, 1), 1);
        // The first block closes before the second folds its gate.
        let close0 = plan
            .steps
            .iter()
            .position(|s| matches!(s, Step::Close { block: 0 }))
            .unwrap();
        let fold1 = plan
            .steps
            .iter()
            .position(|s| matches!(s, Step::Fold { block: 1, .. }))
            .unwrap();
        assert!(close0 < fold1);
    }

    #[test]
    fn cost_model_declines_growth_past_the_cap_sweet_spot() {
        // A 4-qubit block followed by an overlapping 2q gate: fusing to
        // five qubits costs 36 per fibre vs 28 split — declined.
        let ops = [OpDesc::unitary(&[0, 1, 2, 3]), OpDesc::unitary(&[3, 4])];
        let plan = FusionPlan::build(&ops, &qubits(5), MAX_FUSED_WEIGHT);
        assert_eq!(plan.blocks.len(), 2);
        assert_eq!(plan.blocks[1].targets, vec![3, 4]);
        // And a disjoint 1q gate is likewise not worth dragging into a
        // 4-qubit block (36 vs 26): the partial merge with the singleton
        // wins instead.
        let ops = [
            OpDesc::unitary(&[0, 1, 2, 3]),
            OpDesc::unitary(&[4]),
            OpDesc::unitary(&[3, 4]),
        ];
        let plan = FusionPlan::build(&ops, &qubits(5), MAX_FUSED_WEIGHT);
        assert_eq!(plan.blocks.len(), 2);
        assert_eq!(plan.blocks[0].targets, vec![0, 1, 2, 3]);
        assert_eq!(plan.blocks[1].targets, vec![4, 3]);
    }

    #[test]
    fn one_qubit_gates_fold_into_the_touching_block() {
        let ops = [
            OpDesc::unitary(&[0]),
            OpDesc::unitary(&[1]),
            OpDesc::unitary(&[0, 1]),
            OpDesc::unitary(&[1]),
        ];
        let plan = FusionPlan::build(&ops, &qubits(2), MAX_FUSED_WEIGHT);
        assert_eq!(plan.blocks.len(), 2, "plan: {plan:?}");
        // Singletons {0} and {1} merge with the entangler: block 1 folds
        // its 1q gate, then merges into block 0, which takes the rest.
        assert_eq!(plan.blocks[0].targets, vec![0, 1]);
        assert_eq!(fold_count(&plan, 0), 3);
        assert_eq!(fold_count(&plan, 1), 1);
        assert!(plan.steps.iter().any(|s| matches!(
            s,
            Step::Merge {
                from: 1,
                into: 0,
                ..
            }
        )));
        let closes: Vec<usize> = plan
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Close { block } => Some(*block),
                _ => None,
            })
            .collect();
        assert_eq!(closes, vec![0]);
    }

    #[test]
    fn local_ops_ride_inside_their_owning_block() {
        let ops = [
            OpDesc::unitary(&[0, 1]),
            OpDesc::local(1),
            OpDesc::local(2),
            OpDesc::unitary(&[1, 2]),
        ];
        let plan = FusionPlan::build(&ops, &qubits(3), MAX_FUSED_WEIGHT);
        // local(1) rides in the {0,1} block; local(2) opens a singleton
        // that the (1,2) gate then merges in.
        assert_eq!(plan.blocks.len(), 2);
        assert_eq!(plan.blocks[0].targets, vec![0, 1, 2]);
        let merged = plan.steps.iter().any(|s| {
            matches!(
                s,
                Step::Merge {
                    from: 1,
                    into: 0,
                    ..
                }
            )
        });
        assert!(merged, "plan: {plan:?}");
    }

    #[test]
    fn plan_is_deterministic() {
        let ops = [
            OpDesc::unitary(&[0]),
            OpDesc::local(0),
            OpDesc::unitary(&[0, 1]),
            OpDesc::unitary(&[1, 2]),
            OpDesc::local(2),
            OpDesc::unitary(&[2, 3]),
            OpDesc::unitary(&[3, 4]),
        ];
        let a = FusionPlan::build(&ops, &qubits(5), MAX_FUSED_WEIGHT);
        let b = FusionPlan::build(&ops, &qubits(5), MAX_FUSED_WEIGHT);
        assert_eq!(a, b);
    }

    #[test]
    fn every_op_folds_exactly_once_in_input_order() {
        let ops = [
            OpDesc::unitary(&[1]),
            OpDesc::unitary(&[0, 1]),
            OpDesc::local(2),
            OpDesc::unitary(&[1, 2]),
            OpDesc::unitary(&[2, 3]),
            OpDesc::unitary(&[0, 3]),
        ];
        let plan = FusionPlan::build(&ops, &qubits(4), MAX_FUSED_WEIGHT);
        let folded: Vec<usize> = plan
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Fold { op, .. } => Some(*op),
                _ => None,
            })
            .collect();
        assert_eq!(folded, (0..ops.len()).collect::<Vec<_>>());
        // Every block opens exactly once and either merges away or closes.
        for b in 0..plan.blocks.len() {
            let opens = plan
                .steps
                .iter()
                .filter(|s| matches!(s, Step::Open { block } if *block == b))
                .count();
            let ends = plan
                .steps
                .iter()
                .filter(|s| {
                    matches!(s, Step::Close { block } if *block == b)
                        || matches!(s, Step::Merge { from, .. } if *from == b)
                })
                .count();
            assert_eq!((opens, ends), (1, 1), "block {b} of {plan:?}");
        }
    }

    #[test]
    fn mixed_dimension_weights_gate_the_merge() {
        // Qutrit chain: {0,1} (weight 9) + {1,2} (9) would fuse to 27
        // (cost 31 ≤ 26? no — 31 > 26, declined).
        let ops = [OpDesc::unitary(&[0, 1]), OpDesc::unitary(&[1, 2])];
        let plan = FusionPlan::build(&ops, &[3, 3, 3], MAX_FUSED_WEIGHT);
        assert_eq!(plan.blocks.len(), 2);
        // Qubit-qutrit: {0,1} (6) + {1,2} (6) fuses to 12 (16 ≤ 20).
        let plan = FusionPlan::build(&ops, &[2, 3, 2], MAX_FUSED_WEIGHT);
        assert_eq!(plan.blocks.len(), 1);
        assert_eq!(plan.blocks[0].targets, vec![0, 1, 2]);
    }
}
