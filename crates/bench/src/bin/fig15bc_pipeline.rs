//! Figure 15b/c — pipeline processing: distributed Aggregation-stage
//! time with and without pipelining on the FB91 and Twitter stand-ins,
//! k = 8 workers, all three models.

use flexgraph::comm::NetProfile;
use flexgraph::dist::{make_shards, virtual_epoch, DistConfig, DistMode};
use flexgraph::engine::hybrid::{AggrOp, AggrPlan, Strategy};
use flexgraph::graph::gen::{fb_like, twitter_like};
use flexgraph::graph::partition::lp_partition;
use flexgraph::hdg::build::{from_direct_neighbors, from_importance_walks, from_metapaths};
use flexgraph::hdg::Hdg;
use flexgraph::prelude::*;
use flexgraph_bench::workloads::pinsage_walk;
use flexgraph_bench::{
    bench_scale, magnn_metapaths, secs, with_synthetic_types, MAGNN_INSTANCE_CAP,
};

fn epoch(
    ds: &Dataset,
    part: &Partitioning,
    pipeline: bool,
    plan: AggrPlan,
    leaf_op: AggrOp,
    build: &dyn Fn(&[VertexId]) -> Hdg,
) -> f64 {
    let shards = make_shards(ds.graph.num_vertices(), &ds.features, part, |r| build(r));
    let cfg = DistConfig {
        mode: DistMode::FlexGraph { pipeline },
        leaf_op,
        plan,
        strategy: Strategy::Ha,
        // NIC bandwidth scaled with the dataset so the comm/compute
        // ratio matches the paper's testbed regime (DESIGN.md §2).
        cost_model: CostModel {
            alpha_us: 100.0,
            bytes_per_us: 100.0,
            simulate_delay: false,
        },
        update_weight: None,
        ..DistConfig::default()
    };
    // Virtual time is deterministic: one run is the measurement.
    let net = NetProfile::from_cost_model(&cfg.cost_model);
    virtual_epoch(&ds.graph, &shards, &cfg, &net)
        .virtual_time
        .as_secs_f64()
}

fn main() {
    // One compute thread per simulated worker: the workers themselves are
    // the parallelism, so per-worker kernels must not oversubscribe the
    // physical cores (set before any kernel initializes the pool).
    std::env::set_var("FLEXGRAPH_THREADS", "1");

    let k = 8;
    println!("Figure 15b/c: Aggregation seconds with / without pipeline processing (k = {k})\n");
    for ds in [fb_like(bench_scale()), twitter_like(bench_scale())] {
        let typed = with_synthetic_types(&ds);
        println!("--- {} ---", ds.name);
        println!(
            "{:<8} {:>10} {:>10} {:>9}",
            "Model", "w/ PP", "w/o PP", "gain"
        );
        // Locality-aware partitioning (production deployments partition
        // before training), which keeps a substantial local share for the
        // overlap to hide communication behind.
        let part = lp_partition(&ds.graph, k, 10, 0.15, 7);

        type Builder<'a> = Box<dyn Fn(&[VertexId]) -> Hdg + 'a>;
        let models: Vec<(&str, AggrPlan, AggrOp, Builder)> = vec![
            (
                "GCN",
                AggrPlan::flat(AggrOp::Sum),
                AggrOp::Sum,
                Box::new(|r: &[VertexId]| from_direct_neighbors(&ds.graph, r.to_vec())),
            ),
            (
                "PinSage",
                AggrPlan::flat(AggrOp::Sum),
                AggrOp::Sum,
                Box::new(|r: &[VertexId]| {
                    from_importance_walks(&ds.graph, r.to_vec(), &pinsage_walk(), 13)
                }),
            ),
            (
                "MAGNN",
                AggrPlan {
                    leaf_op: AggrOp::Mean,
                    instance_op: AggrOp::Mean,
                    schema_op: AggrOp::Mean,
                },
                AggrOp::Mean,
                Box::new(|r: &[VertexId]| {
                    from_metapaths(&typed, r.to_vec(), &magnn_metapaths(), MAGNN_INSTANCE_CAP)
                }),
            ),
        ];

        for (name, plan, leaf_op, build) in models {
            let with_pp = epoch(&ds, &part, true, plan, leaf_op, &*build);
            let without = epoch(&ds, &part, false, plan, leaf_op, &*build);
            let gain = 100.0 * (without - with_pp) / without.max(1e-12);
            println!(
                "{name:<8} {:>10} {:>10} {gain:>8.1}%",
                secs(std::time::Duration::from_secs_f64(with_pp)),
                secs(std::time::Duration::from_secs_f64(without)),
            );
        }
        println!();
    }
    println!(
        "expected shapes: pipeline gains of roughly 5-30% (paper averages: GCN 15.8%, \
         PinSage 5.7%, MAGNN 29.2%); PinSage gains least (smallest neighbor sets → least \
         communication to hide)."
    );
}
