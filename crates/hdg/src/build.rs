//! HDG construction from NeighborSelection records.
//!
//! The NeighborSelection stage emits formatted records
//! `(root, nei = [leaf_0..leaf_n], nei_type)` (paper §4.1); the builder
//! sorts them into `(root, type)` group order — which is what lets the
//! in-between destination array be omitted — and freezes the offset
//! arrays. Convenience constructors cover the selection UDFs of the
//! paper's Figure 5 (direct neighbors, random-walk importance, metapath
//! instances) plus the P-GNN / JK-Net extensions sketched in §3.2.

use crate::schema::SchemaTree;
use crate::storage::Hdg;
use flexgraph_graph::bfs::hop_shells;
use flexgraph_graph::metapath::{find_instances, Metapath};
use flexgraph_graph::walk::{importance_neighbors_all, WalkConfig};
use flexgraph_graph::{splitmix64, Graph, TypedGraph, VertexId};

/// One "neighbor" of one root, as produced by a NeighborSelection UDF.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NeighborRecord {
    /// The root vertex that owns this neighbor.
    pub root: VertexId,
    /// Index of the neighbor type (leaf of the schema tree).
    pub nei_type: u16,
    /// The input-graph vertices linked to this neighbor instance.
    pub leaves: Vec<VertexId>,
}

/// Accumulates [`NeighborRecord`]s and freezes them into an [`Hdg`].
pub struct HdgBuilder {
    schema: SchemaTree,
    root_ids: Vec<VertexId>,
    /// Local rank of each root id (dense map; roots are usually 0..n).
    root_rank: std::collections::HashMap<VertexId, usize>,
    records: Vec<NeighborRecord>,
}

impl HdgBuilder {
    /// Creates a builder for the given roots (usually every vertex of the
    /// local partition, in ascending id order).
    pub fn new(schema: SchemaTree, root_ids: Vec<VertexId>) -> Self {
        let root_rank = root_ids.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        Self {
            schema,
            root_ids,
            root_rank,
            records: Vec::new(),
        }
    }

    /// Adds one neighbor record.
    ///
    /// # Panics
    ///
    /// Panics if the record's type is outside the schema tree or its root
    /// is not one of the builder's roots.
    pub fn push(&mut self, rec: NeighborRecord) {
        assert!(
            (rec.nei_type as usize) < self.schema.num_types(),
            "neighbor type {} outside schema ({} types)",
            rec.nei_type,
            self.schema.num_types()
        );
        assert!(
            self.root_rank.contains_key(&rec.root),
            "root {} is not owned by this builder",
            rec.root
        );
        self.records.push(rec);
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records were added.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Freezes into the compact storage: orders records by `(root, type)`
    /// group and builds the offset arrays (top-down construction of
    /// §4.1). A counting sort over group keys keeps this linear — the
    /// NeighborSelection stage runs every epoch for stochastic models.
    pub fn build(self) -> Hdg {
        let t = self.schema.num_types();
        let n = self.root_ids.len();
        let rank = &self.root_rank;
        let m = self.records.len();

        // One pass: group key per record + group sizes.
        let mut keys = Vec::with_capacity(m);
        let mut group_off = vec![0usize; n * t + 1];
        for r in &self.records {
            let g = rank[&r.root] * t + r.nei_type as usize;
            keys.push(g);
            group_off[g + 1] += 1;
        }
        for i in 0..n * t {
            group_off[i + 1] += group_off[i];
        }

        // Counting-sort the record indices into group order.
        let mut cursor = group_off.clone();
        let mut order = vec![0u32; m];
        for (i, &g) in keys.iter().enumerate() {
            order[cursor[g]] = i as u32;
            cursor[g] += 1;
        }

        let total_leaves: usize = self.records.iter().map(|r| r.leaves.len()).sum();
        let mut inst_off = Vec::with_capacity(m + 1);
        inst_off.push(0usize);
        let mut leaf_src = Vec::with_capacity(total_leaves);
        for &i in &order {
            leaf_src.extend_from_slice(&self.records[i as usize].leaves);
            inst_off.push(leaf_src.len());
        }

        Hdg {
            schema: self.schema,
            num_roots: n,
            root_ids: self.root_ids,
            group_off,
            inst_off,
            leaf_src,
            leaf_plan: Default::default(),
            group_plan: Default::default(),
            root_plan: Default::default(),
        }
    }
}

/// GCN-style HDGs: every in-neighbor is one flat instance of the single
/// `vertex` type (the `gnn_nbr` UDF of Figure 5). The paper notes that
/// for DNFA models the input graph itself serves, so FlexGraph does not
/// materialize this at run time — it exists for uniformity and tests.
pub fn from_direct_neighbors(g: &Graph, roots: Vec<VertexId>) -> Hdg {
    let mut b = HdgBuilder::new(SchemaTree::flat(), roots.clone());
    for &v in &roots {
        for &u in g.in_neighbors(v) {
            b.push(NeighborRecord {
                root: v,
                nei_type: 0,
                leaves: vec![u],
            });
        }
    }
    b.build()
}

/// PinSage-style HDGs: top-k random-walk-visited vertices, one flat
/// instance each (the `pinsage_nbr` UDF of Figure 5).
pub fn from_importance_walks(g: &Graph, roots: Vec<VertexId>, cfg: &WalkConfig, seed: u64) -> Hdg {
    let all = importance_neighbors_all(g, cfg, seed);
    let mut b = HdgBuilder::new(SchemaTree::flat(), roots.clone());
    for &v in &roots {
        for &u in &all[v as usize] {
            b.push(NeighborRecord {
                root: v,
                nei_type: 0,
                leaves: vec![u],
            });
        }
    }
    b.build()
}

/// MAGNN-style HDGs: one neighbor type per metapath, one instance per
/// matched path, leaves = the path's vertices (the `magnn_nbr` UDF of
/// Figure 5). `max_per_path` caps instances per (root, metapath).
pub fn from_metapaths(
    g: &TypedGraph,
    roots: Vec<VertexId>,
    metapaths: &[Metapath],
    max_per_path: usize,
) -> Hdg {
    let names: Vec<String> = (0..metapaths.len())
        .map(|i| format!("MP{}", i + 1))
        .collect();
    let mut b = HdgBuilder::new(SchemaTree::new(names), roots.clone());
    for &v in &roots {
        for inst in find_instances(g, v, metapaths, max_per_path) {
            b.push(NeighborRecord {
                root: v,
                nei_type: inst.metapath as u16,
                leaves: inst.vertices,
            });
        }
    }
    b.build()
}

/// P-GNN-style HDGs: `k` random anchor-sets per root, each an instance of
/// its own neighbor type (§3.2's sketch: "each vertex has k anchor-sets
/// as its neighbors").
pub fn from_anchor_sets(roots: Vec<VertexId>, anchor_sets: &[Vec<VertexId>]) -> Hdg {
    let names: Vec<String> = (0..anchor_sets.len())
        .map(|i| format!("anchor{i}"))
        .collect();
    let mut b = HdgBuilder::new(SchemaTree::new(names), roots.clone());
    for &v in &roots {
        for (t, set) in anchor_sets.iter().enumerate() {
            if !set.is_empty() {
                b.push(NeighborRecord {
                    root: v,
                    nei_type: t as u16,
                    leaves: set.clone(),
                });
            }
        }
    }
    b.build()
}

/// JK-Net-style HDGs: the `i`-th neighbor of `v` is the set of vertices
/// at exact hop distance `i` (§3.2).
pub fn from_hop_shells(g: &Graph, roots: Vec<VertexId>, k: usize) -> Hdg {
    from_hop_shells_capped(g, roots, k, 0, 0)
}

/// Hop-shell HDGs with a per-shell sampling cap — the NeighborSelection
/// of the online serving path, where unbounded power-law shells would
/// blow the per-request memory budget. `cap = 0` means uncapped.
///
/// Sampling is a **pure function of `(seed, root, leaf)`**: each shell
/// member is ranked by a SplitMix64 hash and the `cap` smallest ranks
/// survive, re-sorted into ascending vertex order. The selection for a
/// root is therefore identical whether it is built alone or as part of
/// any batch, under any thread count — the property the serving layer's
/// bitwise batch-parity guarantee rests on.
pub fn from_hop_shells_capped(
    g: &Graph,
    roots: Vec<VertexId>,
    k: usize,
    cap: usize,
    seed: u64,
) -> Hdg {
    let names: Vec<String> = (1..=k).map(|i| format!("hop{i}")).collect();
    let mut b = HdgBuilder::new(SchemaTree::new(names), roots.clone());
    for &v in &roots {
        for (t, rec) in hop_shell_records(g, v, k, cap, seed) {
            b.push(NeighborRecord {
                root: v,
                nei_type: t,
                leaves: rec,
            });
        }
    }
    b.build()
}

/// The capped hop-shell selection for one root: `(type, leaves)` pairs
/// in ascending shell order, empty shells omitted. Exposed so the serve
/// layer can size a batch's admission check before building the HDG.
pub fn hop_shell_records(
    g: &Graph,
    root: VertexId,
    k: usize,
    cap: usize,
    seed: u64,
) -> Vec<(u16, Vec<VertexId>)> {
    let mut out = Vec::new();
    for (t, mut shell) in hop_shells(g, root, k).into_iter().enumerate() {
        if shell.is_empty() {
            continue;
        }
        cap_shell(&mut shell, root, cap, seed);
        out.push((t as u16, shell));
    }
    out
}

/// Applies the sampling cap to one hop shell in place: members are
/// ranked by a pure SplitMix64 hash of `(seed, root, member)`, the
/// `cap` smallest ranks survive, and the survivors are re-sorted into
/// ascending vertex order. `cap = 0` (or a shell already within the
/// cap) is a no-op.
///
/// This is a pure function of its arguments, shared by the in-RAM
/// builder above and the paged store's out-of-core hop-shell builder —
/// both paths therefore select *identical* leaves for any root, which
/// the out-of-core ↔ in-RAM bitwise-parity guarantee rests on.
pub fn cap_shell(shell: &mut Vec<VertexId>, root: VertexId, cap: usize, seed: u64) {
    if cap > 0 && shell.len() > cap {
        shell.sort_unstable_by_key(|&u| {
            (
                splitmix64(seed ^ splitmix64((root as u64) << 32 | u as u64)),
                u,
            )
        });
        shell.truncate(cap);
        shell.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexgraph_graph::csr::sample_graph;
    use flexgraph_graph::hetero::sample_typed_graph;
    use flexgraph_graph::metapath::paper_metapaths;

    #[test]
    fn direct_neighbors_match_graph_degrees() {
        let g = sample_graph();
        let h = from_direct_neighbors(&g, (0..9).collect());
        assert_eq!(h.num_roots(), 9);
        assert!(h.is_flat_instances());
        for v in 0..9 {
            assert_eq!(h.instances_of_root(v), g.in_degree(v as VertexId));
        }
    }

    #[test]
    fn records_sort_into_group_order_regardless_of_push_order() {
        let schema = SchemaTree::new(vec!["t0", "t1"]);
        let mut b = HdgBuilder::new(schema, vec![0, 1]);
        // Deliberately shuffled push order.
        b.push(NeighborRecord {
            root: 1,
            nei_type: 0,
            leaves: vec![5],
        });
        b.push(NeighborRecord {
            root: 0,
            nei_type: 1,
            leaves: vec![3],
        });
        b.push(NeighborRecord {
            root: 0,
            nei_type: 0,
            leaves: vec![2],
        });
        b.push(NeighborRecord {
            root: 1,
            nei_type: 1,
            leaves: vec![7, 8],
        });
        let h = b.build();
        assert_eq!(h.instance_leaves(0), &[2], "(root0, t0) first");
        assert_eq!(h.instance_leaves(1), &[3], "(root0, t1)");
        assert_eq!(h.instance_leaves(2), &[5], "(root1, t0)");
        assert_eq!(h.instance_leaves(3), &[7, 8], "(root1, t1)");
        assert_eq!(h.instance_group_index(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn metapath_hdg_reproduces_figure_3c() {
        let g = sample_typed_graph();
        let h = from_metapaths(&g, (0..9).collect(), &paper_metapaths(), 0);
        // Figure 3c: root A has 5 instances, 1 of MP1 and 4 of MP2.
        assert_eq!(h.instances_of_root(0), 5);
        assert_eq!(h.instances_of_root_type(0, 0), 1);
        assert_eq!(h.instances_of_root_type(0, 1), 4);
        // Instance leaves include the root itself (Figure 3c links A, C,
        // D to p1).
        let first = h.group_instances(0, 0).start;
        assert_eq!(h.instance_leaves(first), &[0, 3, 2]);
    }

    #[test]
    fn importance_hdg_is_flat_and_capped() {
        let g = sample_graph();
        let cfg = WalkConfig {
            num_traces: 30,
            n_hops: 3,
            top_k: 4,
        };
        let h = from_importance_walks(&g, (0..9).collect(), &cfg, 11);
        assert!(h.is_flat_instances());
        for v in 0..9 {
            assert!(h.instances_of_root(v) <= 4);
        }
    }

    #[test]
    fn hop_shell_hdg_levels() {
        let g = sample_graph();
        let h = from_hop_shells(&g, (0..9).collect(), 2);
        assert_eq!(h.num_types(), 2);
        // Root A: hop1 shell {D,E,F,H} (4 leaves), hop2 shell {B,C,G,I}.
        assert_eq!(h.instances_of_root_type(0, 0), 1);
        let s1 = h.group_instances(0, 0).start;
        assert_eq!(h.instance_leaves(s1).len(), 4);
        let s2 = h.group_instances(0, 1).start;
        assert_eq!(h.instance_leaves(s2).len(), 4);
    }

    #[test]
    fn capped_hop_shells_are_batch_independent() {
        let g = sample_graph();
        // Cap below the shell sizes so sampling actually triggers.
        let all = from_hop_shells_capped(&g, (0..9).collect(), 2, 2, 42);
        for v in 0..9u32 {
            assert!(all.leaves_of_root(v as usize) <= 4, "2 shells × cap 2");
            // A single-root build selects the same leaves in the same
            // order — the serving batch-parity invariant.
            let solo = from_hop_shells_capped(&g, vec![v], 2, 2, 42);
            let solo_recs = hop_shell_records(&g, v, 2, 2, 42);
            assert_eq!(solo.num_instances(), solo_recs.len());
            for t in 0..2 {
                let a: Vec<_> = all
                    .group_instances(v as usize, t)
                    .map(|i| all.instance_leaves(i).to_vec())
                    .collect();
                let b: Vec<_> = solo
                    .group_instances(0, t)
                    .map(|i| solo.instance_leaves(i).to_vec())
                    .collect();
                assert_eq!(a, b, "root {v} type {t}");
            }
        }
        // Different seeds select different subsets somewhere.
        let other = from_hop_shells_capped(&g, (0..9).collect(), 2, 2, 43);
        assert_ne!(all.leaf_sources(), other.leaf_sources());
        // Cap 0 = uncapped = the plain hop-shell builder.
        let uncapped = from_hop_shells_capped(&g, (0..9).collect(), 2, 0, 42);
        let plain = from_hop_shells(&g, (0..9).collect(), 2);
        assert_eq!(uncapped.leaf_sources(), plain.leaf_sources());
    }

    #[test]
    fn anchor_set_hdg_shapes() {
        let sets = vec![vec![1, 2], vec![6, 7, 8]];
        let h = from_anchor_sets((0..9).collect(), &sets);
        assert_eq!(h.num_types(), 2);
        assert_eq!(h.instances_of_root(3), 2);
        assert_eq!(h.leaves_of_root(3), 5);
    }

    #[test]
    #[should_panic(expected = "outside schema")]
    fn type_outside_schema_rejected() {
        let mut b = HdgBuilder::new(SchemaTree::flat(), vec![0]);
        b.push(NeighborRecord {
            root: 0,
            nei_type: 1,
            leaves: vec![1],
        });
    }

    #[test]
    #[should_panic(expected = "not owned by this builder")]
    fn foreign_root_rejected() {
        let mut b = HdgBuilder::new(SchemaTree::flat(), vec![0]);
        b.push(NeighborRecord {
            root: 5,
            nei_type: 0,
            leaves: vec![1],
        });
    }

    #[test]
    fn empty_hdg_is_valid() {
        let h = HdgBuilder::new(SchemaTree::flat(), vec![0, 1]).build();
        assert_eq!(h.num_instances(), 0);
        assert_eq!(h.instances_of_root(0), 0);
        assert!(h.dependency_leaves().is_empty());
    }
}
