//! Shared model workloads and the per-system epoch runner used by the
//! Table 2 / Table 3 harnesses.
//!
//! Every "system" row of the paper's tables is an *execution strategy*
//! reimplemented inside this runtime (DESIGN.md §2), run over identical
//! model workloads:
//!
//! * **PyTorch-like** — all-sparse tensor ops: materializing gather +
//!   scatter; MAGNN instance search without graph-side type pruning.
//! * **DGL-like** — GAS abstraction with kernel fusion but without
//!   FlexGraph's parallel SIMD sweep; PinSage walks simulated through
//!   propagation stages (§7.1).
//! * **DistDGL-like** — mini-batch with full k-hop expansion.
//! * **Euler-like** — mini-batch sampling with a prefetch pipeline
//!   (higher concurrent memory) but an efficient walk engine.
//! * **FlexGraph** — graph-engine NeighborSelection + hybrid execution.

use crate::{magnn_metapaths, with_synthetic_types, MAGNN_INSTANCE_CAP};
use flexgraph::engine::gas::gas_walk_neighbors;
use flexgraph::engine::hybrid::{
    direct_aggregate, hierarchical_aggregate, AggrOp, AggrPlan, Strategy,
};
use flexgraph::engine::minibatch::{minibatch_epoch, MiniBatchConfig};
use flexgraph::engine::{EngineError, MemoryBudget};
use flexgraph::graph::gen::Dataset;
use flexgraph::graph::walk::WalkConfig;
use flexgraph::hdg::build::{from_importance_walks, from_metapaths, HdgBuilder, NeighborRecord};
use flexgraph::hdg::{Hdg, SchemaTree};
use flexgraph::prelude::StageTimes;
use flexgraph::tensor::fusion::{materialized_bytes, segment_reduce_serial};
use flexgraph::tensor::Tensor;
use std::time::{Duration, Instant};

/// The three models of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// DNFA: direct neighbors, flat sum.
    Gcn,
    /// INFA: walk-importance neighbors, flat sum.
    PinSage,
    /// INHA: metapath instances, hierarchical mean.
    Magnn,
}

impl ModelKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Gcn => "GCN",
            Self::PinSage => "PinSage",
            Self::Magnn => "MAGNN",
        }
    }
}

/// The five systems of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// All-sparse tensor execution.
    PyTorchLike,
    /// GAS with kernel fusion, single-threaded.
    DglLike,
    /// Mini-batch full k-hop expansion.
    DistDglLike,
    /// Mini-batch sampling with prefetch concurrency.
    EulerLike,
    /// NAU + hybrid execution.
    FlexGraph,
}

impl System {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::PyTorchLike => "PyT.",
            Self::DglLike => "DGL",
            Self::DistDglLike => "DistD.",
            Self::EulerLike => "Euler",
            Self::FlexGraph => "FlexG.",
        }
    }

    /// All systems in the paper's column order.
    pub fn all() -> [System; 5] {
        [
            Self::PyTorchLike,
            Self::DglLike,
            Self::DistDglLike,
            Self::EulerLike,
            Self::FlexGraph,
        ]
    }
}

/// Paper-default PinSage walk parameters (10 × 3, top-10).
pub fn pinsage_walk() -> WalkConfig {
    WalkConfig::default()
}

/// MAGNN HDG over the (possibly synthetic) typing.
pub fn magnn_hdg(ds: &Dataset) -> Hdg {
    let typed = with_synthetic_types(ds);
    from_metapaths(
        &typed,
        (0..ds.graph.num_vertices() as u32).collect(),
        &magnn_metapaths(),
        MAGNN_INSTANCE_CAP,
    )
}

/// MAGNN aggregation plan (mean at every level, per Figure 7's spirit).
pub fn magnn_plan() -> AggrPlan {
    AggrPlan {
        leaf_op: AggrOp::Mean,
        instance_op: AggrOp::Mean,
        schema_op: AggrOp::Mean,
    }
}

/// Dense Update stage shared by every system: `relu(h · w)`, with a
/// square weight so layers compose.
fn update(h: &Tensor, w: &Tensor) -> Tensor {
    let mut out = h.matmul(w);
    out.relu_inplace();
    out
}

/// Builds a flat HDG from precomputed neighbor lists.
fn hdg_from_lists(n: usize, lists: &[Vec<u32>]) -> Hdg {
    let mut b = HdgBuilder::new(SchemaTree::flat(), (0..n as u32).collect());
    for (v, nbrs) in lists.iter().enumerate() {
        for &u in nbrs {
            b.push(NeighborRecord {
                root: v as u32,
                nei_type: 0,
                leaves: vec![u],
            });
        }
    }
    b.build()
}

/// Estimated transient bytes of a *naive* (unpruned) metapath search:
/// every 2-hop expansion materialized as a tensor row before type
/// filtering — the PyTorch-like MAGNN execution that OOMs on the big
/// graphs in Table 2.
fn naive_magnn_bytes(ds: &Dataset) -> usize {
    let g = &ds.graph;
    let mut paths2: usize = 0;
    for v in 0..g.num_vertices() as u32 {
        for &u in g.out_neighbors(v) {
            paths2 += g.out_degree(u);
        }
    }
    materialized_bytes(paths2, ds.feature_dim())
}

/// Unpruned instance search: expands every length-3 path and filters by
/// type afterwards (the tensor-only formulation, §7.1: "over 95% of the
/// total time is used to find metapath instances").
fn naive_find_magnn_instances(ds: &Dataset) -> Hdg {
    let typed = with_synthetic_types(ds);
    let metapaths = magnn_metapaths();
    let g = &ds.graph;
    let mut b = HdgBuilder::new(
        SchemaTree::new(
            (0..metapaths.len())
                .map(|i| format!("MP{i}"))
                .collect::<Vec<_>>(),
        ),
        (0..g.num_vertices() as u32).collect(),
    );
    let mut per_root_counts = vec![0usize; metapaths.len()];
    for v in 0..g.num_vertices() as u32 {
        per_root_counts.iter_mut().for_each(|c| *c = 0);
        // Tensor-style execution: materialize ALL length-3 expansions
        // first (the intermediate id tensor a dataflow formulation
        // builds), then filter by type per metapath.
        let mut expansions: Vec<(u32, u32)> = Vec::new();
        for &u in g.out_neighbors(v) {
            for &w in g.out_neighbors(u) {
                if w != v {
                    expansions.push((u, w));
                }
            }
        }
        for (mi, mp) in metapaths.iter().enumerate() {
            if typed.vertex_type(v) != mp.types[0] {
                continue;
            }
            // The per-metapath boolean-mask pass over the whole
            // expansion tensor.
            for &(u, w) in &expansions {
                if per_root_counts[mi] >= MAGNN_INSTANCE_CAP {
                    break;
                }
                if typed.vertex_type(u) == mp.types[1] && typed.vertex_type(w) == mp.types[2] {
                    per_root_counts[mi] += 1;
                    b.push(NeighborRecord {
                        root: v,
                        nei_type: mi as u16,
                        leaves: vec![v, u, w],
                    });
                }
            }
        }
    }
    b.build()
}

/// One single-machine training-epoch equivalent (NeighborSelection +
/// two layers of Aggregation + Update) for a (system, model) pair.
///
/// Returns the wall time, or the structured OOM / unsupported outcome —
/// exactly the cells of Table 2.
pub fn run_epoch(
    system: System,
    model: ModelKind,
    ds: &Dataset,
    budget: &MemoryBudget,
) -> Result<Duration, EngineError> {
    Ok(run_epoch_timed(system, model, ds, budget)?.total())
}

/// As [`run_epoch`], with the per-stage breakdown (Table 4).
pub fn run_epoch_timed(
    system: System,
    model: ModelKind,
    ds: &Dataset,
    budget: &MemoryBudget,
) -> Result<StageTimes, EngineError> {
    let d = ds.feature_dim();
    let w = Tensor::eye(d).scale(0.1);
    let g = &ds.graph;
    let t0 = Instant::now();

    match (system, model) {
        // ---------------- GCN ----------------
        (System::PyTorchLike, ModelKind::Gcn) => {
            let selection = t0.elapsed();
            let mut h = ds.features.clone();
            let mut agg = Duration::ZERO;
            let mut upd = Duration::ZERO;
            for _ in 0..2 {
                let ta = Instant::now();
                let a = direct_aggregate(g, &h, AggrOp::Sum, false, budget)?;
                agg += ta.elapsed();
                let tu = Instant::now();
                h = update(&a.features, &w);
                upd += tu.elapsed();
            }
            Ok(StageTimes {
                selection,
                aggregation: agg,
                update: upd,
            })
        }
        (System::DglLike, ModelKind::Gcn) => {
            let selection = t0.elapsed();
            let mut h = ds.features.clone();
            let mut agg = Duration::ZERO;
            let mut upd = Duration::ZERO;
            for _ in 0..2 {
                let ta = Instant::now();
                let a = segment_reduce_serial(&h, g.in_offsets(), g.in_sources());
                agg += ta.elapsed();
                let tu = Instant::now();
                h = update(&a, &w);
                upd += tu.elapsed();
            }
            Ok(StageTimes {
                selection,
                aggregation: agg,
                update: upd,
            })
        }
        (System::DistDglLike, ModelKind::Gcn) | (System::EulerLike, ModelKind::Gcn) => {
            let concurrent = if system == System::EulerLike { 8 } else { 1 };
            let selection = t0.elapsed();
            let ta = Instant::now();
            let cfg = MiniBatchConfig {
                batch_size: 512,
                layers: 2,
                concurrent_batches: concurrent,
            };
            let out = minibatch_epoch(g, &ds.features, AggrOp::Sum, &cfg, budget)?;
            let agg = ta.elapsed();
            let tu = Instant::now();
            let _ = update(&out.result.features, &w);
            Ok(StageTimes {
                selection,
                aggregation: agg,
                update: tu.elapsed(),
            })
        }
        (System::FlexGraph, ModelKind::Gcn) => {
            let selection = t0.elapsed();
            let mut h = ds.features.clone();
            let mut agg = Duration::ZERO;
            let mut upd = Duration::ZERO;
            for _ in 0..2 {
                let ta = Instant::now();
                let a = direct_aggregate(g, &h, AggrOp::Sum, true, budget)?;
                agg += ta.elapsed();
                let tu = Instant::now();
                h = update(&a.features, &w);
                upd += tu.elapsed();
            }
            Ok(StageTimes {
                selection,
                aggregation: agg,
                update: upd,
            })
        }

        // ---------------- PinSage ----------------
        (System::PyTorchLike | System::DglLike | System::DistDglLike, ModelKind::PinSage) => {
            // Selection: random walks simulated through propagation
            // stages — the ≥95 % cost of §7.1.
            let walk = gas_walk_neighbors(g, &pinsage_walk(), 7, budget)?;
            let hdg = hdg_from_lists(g.num_vertices(), &walk.neighbors);
            let selection = t0.elapsed();
            let plan = AggrPlan::flat(AggrOp::Sum);
            let strategy = if system == System::PyTorchLike {
                Strategy::Sa
            } else {
                Strategy::SaFa
            };
            layered_flat(&hdg, ds, &w, plan, strategy, budget, selection)
        }
        (System::EulerLike, ModelKind::PinSage) => {
            // Euler's sampling engine walks the graph directly (its
            // Gremlin query engine), then aggregates with sparse ops.
            let hdg = from_importance_walks(
                g,
                (0..g.num_vertices() as u32).collect(),
                &pinsage_walk(),
                7,
            );
            let selection = t0.elapsed();
            layered_flat(
                &hdg,
                ds,
                &w,
                AggrPlan::flat(AggrOp::Sum),
                Strategy::Sa,
                budget,
                selection,
            )
        }
        (System::FlexGraph, ModelKind::PinSage) => {
            let hdg = from_importance_walks(
                g,
                (0..g.num_vertices() as u32).collect(),
                &pinsage_walk(),
                7,
            );
            let selection = t0.elapsed();
            layered_flat(
                &hdg,
                ds,
                &w,
                AggrPlan::flat(AggrOp::Sum),
                Strategy::Ha,
                budget,
                selection,
            )
        }

        // ---------------- MAGNN ----------------
        (System::PyTorchLike, ModelKind::Magnn) => {
            // The naive expansion materializes every 2-hop path before
            // filtering; check its tensor against the budget first (the
            // paper's OOM cells on Reddit/FB91/Twitter).
            budget.check(naive_magnn_bytes(ds))?;
            let hdg = naive_find_magnn_instances(ds);
            let selection = t0.elapsed();
            layered_hier(&hdg, ds, &w, magnn_plan(), Strategy::Sa, budget, selection)
        }
        (System::DglLike | System::DistDglLike | System::EulerLike, ModelKind::Magnn) => {
            Err(EngineError::Unsupported(
                "GAS-like abstractions cannot express hierarchical aggregation",
            ))
        }
        (System::FlexGraph, ModelKind::Magnn) => {
            let hdg = magnn_hdg(ds);
            let selection = t0.elapsed();
            layered_hier(&hdg, ds, &w, magnn_plan(), Strategy::Ha, budget, selection)
        }
    }
}

/// Two flat-aggregation layers over an HDG plus updates.
fn layered_flat(
    hdg: &Hdg,
    ds: &Dataset,
    w: &Tensor,
    plan: AggrPlan,
    strategy: Strategy,
    budget: &MemoryBudget,
    selection: Duration,
) -> Result<StageTimes, EngineError> {
    let mut h = ds.features.clone();
    let mut agg = Duration::ZERO;
    let mut upd = Duration::ZERO;
    for _ in 0..2 {
        let ta = Instant::now();
        let a = hierarchical_aggregate(hdg, &h, &plan, strategy, budget)?;
        agg += ta.elapsed();
        let tu = Instant::now();
        h = update(&a.features, w);
        upd += tu.elapsed();
    }
    Ok(StageTimes {
        selection,
        aggregation: agg,
        update: upd,
    })
}

/// Two hierarchical-aggregation layers plus updates (same shape as
/// [`layered_flat`], separated for readability at call sites).
fn layered_hier(
    hdg: &Hdg,
    ds: &Dataset,
    w: &Tensor,
    plan: AggrPlan,
    strategy: Strategy,
    budget: &MemoryBudget,
    selection: Duration,
) -> Result<StageTimes, EngineError> {
    layered_flat(hdg, ds, w, plan, strategy, budget, selection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexgraph::graph::gen::{community, hetero_imdb};

    #[test]
    fn flexgraph_runs_every_model() {
        let ds = community(300, 3, 6, 2, 16, 5);
        let b = MemoryBudget::unlimited();
        for m in [ModelKind::Gcn, ModelKind::PinSage, ModelKind::Magnn] {
            assert!(run_epoch(System::FlexGraph, m, &ds, &b).is_ok(), "{m:?}");
        }
    }

    #[test]
    fn magnn_is_unsupported_on_gas_like_systems() {
        let ds = hetero_imdb(100, 2, 2, 8, 6);
        let b = MemoryBudget::unlimited();
        for s in [System::DglLike, System::DistDglLike, System::EulerLike] {
            assert!(matches!(
                run_epoch(s, ModelKind::Magnn, &ds, &b),
                Err(EngineError::Unsupported(_))
            ));
        }
    }

    #[test]
    fn naive_and_pruned_magnn_selection_agree_on_counts() {
        let ds = hetero_imdb(120, 2, 2, 8, 7);
        let naive = naive_find_magnn_instances(&ds);
        let pruned = magnn_hdg(&ds);
        // Same instance multiset size (both capped identically).
        assert_eq!(naive.num_instances(), pruned.num_instances());
    }

    #[test]
    fn flexgraph_is_fastest_on_gcn() {
        // FlexGraph's GCN arm aggregates through the fused direct path,
        // the PyTorch-like arm through the materializing one. The speed
        // claim rests on the fused path never materializing per-edge
        // rows; the wall times themselves are compared by
        // `table2_single_machine` under FLEXGRAPH_BENCH_STRICT=1.
        let ds = community(2_000, 4, 16, 4, 64, 8);
        let b = MemoryBudget::unlimited();
        let peak = |fused| {
            direct_aggregate(&ds.graph, &ds.features, AggrOp::Sum, fused, &b)
                .unwrap()
                .peak_transient_bytes
        };
        let (flex, pyt) = (peak(true), peak(false));
        assert!(
            flex < pyt,
            "feature fusion must materialize less than sparse ops: {flex} vs {pyt} bytes"
        );
    }
}
