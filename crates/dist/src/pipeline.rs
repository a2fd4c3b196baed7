//! Leaf-level synchronization plans and wire helpers for pipeline
//! processing (paper §5, "Pipeline processing", evaluated in §7.7).
//!
//! The bottom level of distributed aggregation needs leaf features that
//! live on other workers. The epoch program ([`crate::sim::EpochTask`])
//! runs it in one of two modes, from the plan [`build_leaf_sync`]
//! precomputes:
//!
//! * **Unpipelined** (the dataflow baseline, e.g. Euler): every worker
//!   first ships the raw feature rows its peers depend on, waits until
//!   *all* remote rows have arrived, and only then aggregates.
//! * **Pipelined** (FlexGraph): the *sender* partially aggregates the
//!   rows it owns per destination instance and ships one combined row per
//!   instance (fewer, smaller messages); the *receiver* aggregates its
//!   local rows while the partials are still in flight, then folds the
//!   arriving partials in. Only valid for commutative reductions — for
//!   non-commutative UDFs FlexGraph still benefits from the message
//!   batching (§5), which both modes here share (one message per peer).

use crate::shard::Shard;
use flexgraph_comm::{decode_rows_with, encode_flat_rows};
use flexgraph_graph::VertexId;
use flexgraph_tensor::{ScatterPlan, Tensor};
use std::sync::Arc;

/// The granularity of the first reduction level.
///
/// For hierarchical HDGs (multi-leaf instances, e.g. MAGNN) partial
/// aggregation lands on *instances*. For flat HDGs (one leaf per
/// instance — GCN, PinSage) the instance level is an identity, so
/// partials land one level up, on the `(root, type)` *groups*: this is
/// the paper's GCN example, where a remote partition combines all of a
/// vertex's partial 1-hop neighbors into one assembled message per root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotLevel {
    /// Slots are neighbor instances.
    Instances,
    /// Slots are `(root, type)` groups.
    Groups,
}

/// The per-worker synchronization plan for the leaf level, precomputed
/// once per NeighborSelection (it only depends on the HDGs).
#[derive(Clone, Debug)]
pub struct LeafSync {
    /// What the slots of the output tensor represent.
    pub level: SlotLevel,
    /// Number of slots (instances or groups).
    pub num_slots: usize,
    /// Per peer: `(slot, local_feature_row)` pairs this worker must
    /// serve, sorted by slot.
    pub serve: Vec<Vec<(u32, u32)>>,
    /// Per peer: whether sender-side *partial aggregation* compresses
    /// this worker's traffic to that peer. Partials win when several
    /// local rows feed the same remote slot (flat models on dense
    /// graphs); raw deduped rows win when slots are small but vertices
    /// are shared (multi-leaf instances). Chosen at plan time; the
    /// pipelined mode keeps the *overlap* either way (§5: non-commutative
    /// cases "still benefit from the batching communication strategy").
    pub partial_to: Vec<bool>,
    /// Whether each *incoming* peer message carries slot-keyed partials
    /// (`true`) or vertex-keyed raw rows (`false`) in pipelined mode.
    pub partial_from: Vec<bool>,
    /// `(slot, local_feature_row)` pairs for locally-owned leaves.
    pub local_edges: Vec<(u32, u32)>,
    /// Scatter plan over the slot indices of `local_edges` — the
    /// slot-owned parallel fold both sync modes use for the local
    /// aggregation step. Built once per NeighborSelection, reused every
    /// layer and epoch.
    pub local_plan: Arc<ScatterPlan>,
    /// Feature row per `local_edges` position (the gather side of the
    /// planned fold).
    pub local_rows: Vec<u32>,
    /// `(slot, leaf_vertex)` pairs whose leaf lives remotely (what the
    /// mini-batch modes fetch), sorted by slot.
    pub remote_edges: Vec<(u32, VertexId)>,
    /// `remote_edges` split by owning peer (consumed when folding raw
    /// rows).
    pub remote_edges_by_owner: Vec<Vec<(u32, VertexId)>>,
    /// Total leaf count per slot (local + remote), for Mean.
    pub slot_counts: Vec<u32>,
    /// Per local root: starting slot; length `num_roots + 1`. Lets batch
    /// modes find the slot range of a root range.
    pub root_slot_off: Vec<usize>,
}

/// Builds the sync plans for all shards (cluster-setup step).
pub fn build_leaf_sync(shards: &[Shard]) -> Vec<LeafSync> {
    let k = shards.len();
    let mut plans: Vec<LeafSync> = shards
        .iter()
        .map(|s| {
            let flat = s.hdg.is_flat_instances();
            let level = if flat {
                SlotLevel::Groups
            } else {
                SlotLevel::Instances
            };
            let num_slots = match level {
                SlotLevel::Groups => s.hdg.num_groups(),
                SlotLevel::Instances => s.hdg.num_instances(),
            };
            let t = s.hdg.num_types();
            let root_slot_off: Vec<usize> = (0..=s.hdg.num_roots())
                .map(|r| match level {
                    SlotLevel::Groups => r * t,
                    SlotLevel::Instances => s.hdg.group_offsets()[r * t],
                })
                .collect();
            LeafSync {
                level,
                num_slots,
                serve: vec![Vec::new(); k],
                partial_to: vec![true; k],
                partial_from: vec![true; k],
                local_edges: Vec::new(),
                local_plan: Arc::new(ScatterPlan::new(&[], num_slots)),
                local_rows: Vec::new(),
                remote_edges: Vec::new(),
                remote_edges_by_owner: vec![Vec::new(); k],
                slot_counts: vec![0u32; num_slots],
                root_slot_off,
            }
        })
        .collect();

    for shard in shards {
        let w = shard.rank;
        let group_of = shard.hdg.instance_group_index();
        for i in 0..shard.hdg.num_instances() {
            let slot = match plans[w].level {
                SlotLevel::Groups => group_of[i],
                SlotLevel::Instances => i as u32,
            };
            for &leaf in shard.hdg.instance_leaves(i) {
                plans[w].slot_counts[slot as usize] += 1;
                let owner = shard.owner[leaf as usize] as usize;
                if owner == w {
                    let row = shard.row_of(leaf);
                    plans[w].local_edges.push((slot, row));
                } else {
                    plans[w].remote_edges.push((slot, leaf));
                    plans[w].remote_edges_by_owner[owner].push((slot, leaf));
                    let row = shards[owner].row_of(leaf);
                    plans[owner].serve[w].push((slot, row));
                }
            }
        }
    }
    for p in &mut plans {
        for s in &mut p.serve {
            s.sort_unstable();
        }
        p.remote_edges.sort_unstable();
        for r in &mut p.remote_edges_by_owner {
            r.sort_unstable();
        }
        let slot_idx: Vec<u32> = p.local_edges.iter().map(|&(s, _)| s).collect();
        p.local_rows = p.local_edges.iter().map(|&(_, r)| r).collect();
        p.local_plan = Arc::new(ScatterPlan::new(&slot_idx, p.num_slots));
    }
    // Choose the cheaper wire form per (sender, receiver) pair.
    for w in 0..k {
        for p in 0..k {
            if p == w {
                continue;
            }
            let serve = &plans[w].serve[p];
            let partial_rows = count_distinct(serve.iter().map(|&(slot, _)| slot));
            let mut rows: Vec<u32> = serve.iter().map(|&(_, r)| r).collect();
            rows.sort_unstable();
            rows.dedup();
            let use_partial = partial_rows <= rows.len();
            plans[w].partial_to[p] = use_partial;
            plans[p].partial_from[w] = use_partial;
        }
    }
    plans
}

/// Number of distinct values in a sorted-key iterator (serve lists are
/// sorted by slot).
fn count_distinct(iter: impl Iterator<Item = u32>) -> usize {
    let mut n = 0usize;
    let mut last = None;
    for x in iter {
        if last != Some(x) {
            n += 1;
            last = Some(x);
        }
    }
    n
}

/// Encodes per-slot partial sums for peer `p` into one message.
pub(crate) fn encode_partials(
    sync: &LeafSync,
    local_feats: &Tensor,
    p: usize,
    d: usize,
) -> bytes::Bytes {
    let mut ids: Vec<u32> = Vec::new();
    let mut flat: Vec<f32> = Vec::new();
    for &(slot, row) in &sync.serve[p] {
        let src = local_feats.row(row as usize);
        if ids.last() == Some(&slot) {
            let base = flat.len() - d;
            for (a, &x) in flat[base..].iter_mut().zip(src) {
                *a += x;
            }
        } else {
            ids.push(slot);
            flat.extend_from_slice(src);
        }
    }
    encode_flat_rows(d, &ids, &flat)
}

/// Encodes the deduplicated raw rows peer `p` depends on, keyed by
/// global vertex id.
pub(crate) fn encode_raw_rows(
    sync: &LeafSync,
    local_feats: &Tensor,
    shard: &Shard,
    p: usize,
    d: usize,
) -> bytes::Bytes {
    let mut rows: Vec<u32> = sync.serve[p].iter().map(|&(_, r)| r).collect();
    rows.sort_unstable();
    rows.dedup();
    let mut ids = Vec::with_capacity(rows.len());
    let mut flat = Vec::with_capacity(rows.len() * d);
    for r in rows {
        ids.push(shard.roots[r as usize]);
        flat.extend_from_slice(local_feats.row(r as usize));
    }
    encode_flat_rows(d, &ids, &flat)
}

/// Folds a vertex-keyed raw message from `from` into the slot buffer,
/// resolving slots through the per-owner remote-edge list with a dense
/// vertex → payload-offset table. `offset_of` is that table, reused
/// across calls: all `u32::MAX` on entry, and left so on return.
pub(crate) fn fold_raw_rows(
    sync: &LeafSync,
    slots: &mut Tensor,
    payload: &bytes::Bytes,
    from: usize,
    d: usize,
    offset_of: &mut [u32],
) {
    let mut ids: Vec<u32> = Vec::new();
    let mut flat: Vec<f32> = Vec::new();
    let dim = decode_rows_with(payload, |v, row| {
        offset_of[v as usize] = flat.len() as u32;
        ids.push(v);
        flat.extend_from_slice(row);
    });
    debug_assert_eq!(dim, d);
    for &(slot, leaf) in &sync.remote_edges_by_owner[from] {
        let off = offset_of[leaf as usize];
        debug_assert_ne!(off, u32::MAX, "peer shipped every depended-on row");
        let dst = slots.row_mut(slot as usize);
        for (o, &x) in dst.iter_mut().zip(&flat[off as usize..off as usize + d]) {
            *o += x;
        }
    }
    for v in ids {
        offset_of[v as usize] = u32::MAX;
    }
}

/// Divides summed slot features by the per-slot leaf counts (Mean
/// finalization; slots with no leaves stay zero).
pub fn finalize_mean(inst: &mut Tensor, counts: &[u32]) {
    for (i, &c) in counts.iter().enumerate() {
        if c > 1 {
            let inv = 1.0 / c as f32;
            for x in inst.row_mut(i) {
                *x *= inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::make_shards;
    use crate::trainer::{distributed_epoch, DistConfig, DistMode};
    use flexgraph_graph::csr::sample_graph;
    use flexgraph_graph::partition::hash_partition;
    use flexgraph_hdg::build::from_direct_neighbors;
    use flexgraph_tensor::fusion::{segment_reduce, Reduce};

    /// Runs both leaf-sync modes over the sample graph with k workers
    /// and checks them against the single-machine fused reference.
    fn check_modes(k: usize) {
        let g = sample_graph();
        let n = 9;
        let d = 3;
        let feats = Tensor::from_vec(n, d, (0..n * d).map(|i| (i as f32 * 0.7).sin()).collect());
        let part = hash_partition(&g, k);
        let shards = make_shards(n, &feats, &part, |roots| {
            from_direct_neighbors(&g, roots.to_vec())
        });
        // Flat HDG with a single type: slots ARE the roots.
        assert!(build_leaf_sync(&shards)
            .iter()
            .all(|p| p.level == SlotLevel::Groups));
        let reference = segment_reduce(&feats, g.in_offsets(), g.in_sources(), Reduce::Sum);
        for pipeline in [true, false] {
            let cfg = DistConfig {
                mode: DistMode::FlexGraph { pipeline },
                ..DistConfig::default()
            };
            let got = distributed_epoch(&g, &shards, &cfg).features;
            assert!(
                got.max_abs_diff(&reference) < 1e-4,
                "pipeline={pipeline}: {got:?} vs {reference:?}"
            );
        }
    }

    #[test]
    fn both_modes_match_single_machine_k2() {
        check_modes(2);
    }

    #[test]
    fn both_modes_match_single_machine_k4() {
        check_modes(4);
    }

    #[test]
    fn finalize_mean_divides() {
        let mut t = Tensor::from_rows(&[&[6.0], &[5.0], &[0.0]]);
        finalize_mean(&mut t, &[3, 1, 0]);
        assert_eq!(t, Tensor::from_rows(&[&[2.0], &[5.0], &[0.0]]));
    }
}
