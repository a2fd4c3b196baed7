//! Figure 13 — end-to-end performance on multiple machines (Reddit
//! stand-in): epoch time vs. worker count for GCN (FlexGraph vs
//! DistDGL-like), PinSage (FlexGraph vs DistDGL-like vs Euler-like) and
//! MAGNN (FlexGraph only — no baseline expresses it).

use flexgraph::comm::NetProfile;
use flexgraph::dist::{make_shards, virtual_epoch, DistConfig, DistMode};
use flexgraph::engine::hybrid::{AggrOp, AggrPlan, Strategy};
use flexgraph::graph::gen::reddit_like;
use flexgraph::graph::partition::hash_partition;
use flexgraph::hdg::build::{from_direct_neighbors, from_importance_walks, from_metapaths};
use flexgraph::hdg::Hdg;
use flexgraph::prelude::*;
use flexgraph_bench::workloads::pinsage_walk;
use flexgraph_bench::{
    bench_scale, magnn_metapaths, secs, with_synthetic_types, MAGNN_INSTANCE_CAP,
};
use std::sync::Arc;

fn run(
    ds: &Dataset,
    k: usize,
    mode: DistMode,
    plan: AggrPlan,
    leaf_op: AggrOp,
    build: &dyn Fn(&[VertexId]) -> Hdg,
) -> String {
    let part = hash_partition(&ds.graph, k);
    let mut shards = make_shards(ds.graph.num_vertices(), &ds.features, &part, |roots| {
        build(roots)
    });
    let g = Arc::new(ds.graph.clone());
    for s in &mut shards {
        s.graph = Some(g.clone());
    }
    let cfg = DistConfig {
        mode,
        leaf_op,
        plan,
        strategy: Strategy::Ha,
        cost_model: CostModel::default(),
        update_weight: Some(Tensor::eye(ds.feature_dim()).scale(0.1)),
        ..DistConfig::default()
    };
    // Virtual time on a uniform network priced like the cost model
    // (threaded wall time on one host cannot express multi-machine
    // scaling).
    let net = NetProfile::from_cost_model(&cfg.cost_model);
    let rep = virtual_epoch(&ds.graph, &shards, &cfg, &net);
    secs(rep.virtual_time)
}

fn main() {
    // One compute thread per simulated worker: the workers themselves are
    // the parallelism, so per-worker kernels must not oversubscribe the
    // physical cores (set before any kernel initializes the pool).
    std::env::set_var("FLEXGRAPH_THREADS", "1");

    let ds = reddit_like(bench_scale());
    let typed = with_synthetic_types(&ds);
    println!(
        "Figure 13: end-to-end epoch seconds on multiple workers ({}, |V|={}, |E|={})\n",
        ds.name,
        ds.graph.num_vertices(),
        ds.graph.num_edges()
    );
    let workers = [1usize, 2, 4, 8, 16];
    // Mini-batch sizing follows the paper's relative scale (batches of
    // ~1-2K targets on 233K-vertex Reddit ≈ |V|/150).
    let batch = (ds.graph.num_vertices() / 150).max(32);

    println!("(a) GCN");
    println!("{:>8} {:>12} {:>12}", "workers", "FlexGraph", "DistDGL");
    for &k in &workers {
        let flat = AggrPlan::flat(AggrOp::Sum);
        let b = |roots: &[VertexId]| from_direct_neighbors(&ds.graph, roots.to_vec());
        let flex = run(
            &ds,
            k,
            DistMode::FlexGraph { pipeline: true },
            flat,
            AggrOp::Sum,
            &b,
        );
        let distd = run(
            &ds,
            k,
            DistMode::DistDglLike {
                batch_size: batch,
                hops: 2,
            },
            flat,
            AggrOp::Sum,
            &b,
        );
        println!("{k:>8} {flex:>12} {distd:>12}");
    }

    println!("\n(b) PinSage");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "workers", "FlexGraph", "DistDGL", "Euler"
    );
    let walk_hdgs = from_importance_walks(
        &ds.graph,
        (0..ds.graph.num_vertices() as u32).collect(),
        &pinsage_walk(),
        13,
    );
    // Shard-level rebuild: select each worker's roots out of the global
    // selection (deterministic per-vertex seeding makes this coherent).
    let b = |roots: &[VertexId]| {
        let _ = &walk_hdgs;
        from_importance_walks(&ds.graph, roots.to_vec(), &pinsage_walk(), 13)
    };
    for &k in &workers {
        let flat = AggrPlan::flat(AggrOp::Sum);
        let flex = run(
            &ds,
            k,
            DistMode::FlexGraph { pipeline: true },
            flat,
            AggrOp::Sum,
            &b,
        );
        let distd = run(
            &ds,
            k,
            DistMode::DistDglLike {
                batch_size: batch,
                hops: 2,
            },
            flat,
            AggrOp::Sum,
            &b,
        );
        let euler = run(
            &ds,
            k,
            DistMode::EulerLike { batch_size: batch },
            flat,
            AggrOp::Sum,
            &b,
        );
        println!("{k:>8} {flex:>12} {distd:>12} {euler:>12}");
    }

    println!("\n(c) MAGNN (FlexGraph only — baselines cannot express it)");
    println!("{:>8} {:>12}", "workers", "FlexGraph");
    let plan = AggrPlan {
        leaf_op: AggrOp::Mean,
        instance_op: AggrOp::Mean,
        schema_op: AggrOp::Mean,
    };
    let mb = |roots: &[VertexId]| {
        from_metapaths(
            &typed,
            roots.to_vec(),
            &magnn_metapaths(),
            MAGNN_INSTANCE_CAP,
        )
    };
    for &k in &workers {
        let flex = run(
            &ds,
            k,
            DistMode::FlexGraph { pipeline: true },
            plan,
            AggrOp::Mean,
            &mb,
        );
        println!("{k:>8} {flex:>12}");
    }
    println!(
        "\nexpected shapes: FlexGraph scales near-linearly; DistDGL-like pays full k-hop \
         feature fetches; Euler-like sits between."
    );
}
