//! Distributed aggregation epochs: configuration, report, and the
//! threaded entry point.
//!
//! [`distributed_epoch`] runs one epoch of the *Aggregation (+ Update)*
//! work across `k` worker threads connected by the comm fabric — the
//! epoch program of [`crate::sim`] on the
//! [`ThreadedRuntime`] — under one of three execution modes:
//!
//! * [`DistMode::FlexGraph`] — leaf-level partial aggregation (pipelined
//!   or not) followed by local hybrid aggregation of the upper levels,
//! * [`DistMode::EulerLike`] — mini-batch rounds that fetch the raw
//!   feature rows of each batch's *selected* neighbors (Euler's sampling
//!   service), then aggregate with materializing sparse ops,
//! * [`DistMode::DistDglLike`] — mini-batch rounds that fetch the raw
//!   features of each batch's full *k-hop closure* (DistDGL's
//!   neighborhood expansion), then aggregate with sparse ops.
//!
//! The report carries wall time (max across workers), fabric traffic and
//! the assembled per-root features — everything Figures 13/15 plot.

use crate::runtime::{EpochRuntime, ThreadedRuntime};
use crate::shard::Shard;
use flexgraph_comm::{ChaosSchedule, CostModel, RetryPolicy};
use flexgraph_engine::hybrid::{AggrOp, AggrPlan, Strategy};
use flexgraph_graph::Graph;
use flexgraph_obs::TraceEpoch;
use flexgraph_tensor::Tensor;
use std::time::Duration;

/// Distributed execution mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistMode {
    /// FlexGraph: partial aggregation + hybrid upper levels.
    FlexGraph {
        /// Overlap partial aggregation with communication (§7.7).
        pipeline: bool,
    },
    /// Euler-style mini-batches fetching selected-neighbor rows.
    EulerLike {
        /// Roots per batch.
        batch_size: usize,
    },
    /// DistDGL-style mini-batches fetching full k-hop closures.
    DistDglLike {
        /// Roots per batch.
        batch_size: usize,
        /// Closure radius (= model layers).
        hops: usize,
    },
}

/// Epoch configuration.
#[derive(Clone)]
pub struct DistConfig {
    /// Execution mode.
    pub mode: DistMode,
    /// Leaf-level reduction (must be commutative: Sum or Mean).
    pub leaf_op: AggrOp,
    /// Upper-level aggregation plan.
    pub plan: AggrPlan,
    /// Upper-level strategy (FlexGraph mode only).
    pub strategy: Strategy,
    /// Wire cost model.
    pub cost_model: CostModel,
    /// Optional Update-stage weight: `out = relu(agg · w)`.
    pub update_weight: Option<Tensor>,
    /// Optional seeded fault schedule, installed before the epoch
    /// barrier. The crash (if any) only applies to the first attempt;
    /// re-driven epochs run the same schedule crash-free.
    pub chaos: Option<ChaosSchedule>,
    /// Retransmission / failure-detection policy for the fabric.
    pub retry: RetryPolicy,
    /// How many times a failed epoch may be re-driven before the
    /// failure is treated as unrecoverable (panics).
    pub max_recoveries: u32,
}

impl Default for DistConfig {
    fn default() -> Self {
        Self {
            mode: DistMode::FlexGraph { pipeline: true },
            leaf_op: AggrOp::Sum,
            plan: AggrPlan::flat(AggrOp::Sum),
            strategy: Strategy::Ha,
            cost_model: CostModel::accounting_only(),
            update_weight: None,
            chaos: None,
            retry: RetryPolicy::default(),
            max_recoveries: 2,
        }
    }
}

/// Measurements of one distributed epoch.
pub struct EpochReport {
    /// Assembled `(num_vertices, d_out)` per-root results.
    pub features: Tensor,
    /// Slowest worker's epoch wall time.
    pub wall: Duration,
    /// Total payload bytes over the fabric.
    pub comm_bytes: u64,
    /// Total messages over the fabric.
    pub comm_messages: u64,
    /// Modeled wire time summed over messages, microseconds.
    pub modeled_comm_us: f64,
    /// Retransmissions across all attempts.
    pub retries: u64,
    /// Chaos-injected drops across all attempts.
    pub drops_injected: u64,
    /// Receive-side duplicate discards across all attempts.
    pub redeliveries: u64,
    /// Times the epoch was re-driven after a worker failure.
    pub recoveries: u32,
    /// The merged running log of the epoch: per-partition stage samples,
    /// per-root cost attribution, and fabric counters — what
    /// `AdbController::record_measured_epoch` and the trace writer
    /// consume. Records from failed (re-driven) attempts are discarded;
    /// only the successful attempt is represented.
    pub telemetry: TraceEpoch,
}

/// Runs one distributed epoch over the shards, one OS thread per
/// worker. `graph` is the replicated structure (used by the DistDGL-like
/// closure expansion); `num_vertices` must equal its vertex count.
///
/// A failed attempt is re-driven as [`crate::runtime`] describes.
///
/// # Panics
///
/// Panics when the epoch still fails after `max_recoveries` re-drives.
pub fn distributed_epoch(graph: &Graph, shards: &[Shard], cfg: &DistConfig) -> EpochReport {
    ThreadedRuntime.epoch(graph, shards, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::make_shards;
    use flexgraph_graph::gen::community;
    use flexgraph_graph::partition::hash_partition;
    use flexgraph_hdg::build::from_direct_neighbors;
    use flexgraph_tensor::fusion::{segment_reduce, Reduce};

    fn setup(k: usize) -> (flexgraph_graph::Graph, Tensor, Vec<Shard>) {
        let ds = community(120, 4, 5, 2, 6, 42);
        let part = hash_partition(&ds.graph, k);
        let mut shards = make_shards(120, &ds.features, &part, |roots| {
            from_direct_neighbors(&ds.graph, roots.to_vec())
        });
        let g = std::sync::Arc::new(ds.graph.clone());
        for s in &mut shards {
            s.graph = Some(g.clone());
        }
        (ds.graph, ds.features, shards)
    }

    #[test]
    fn all_modes_match_single_machine_reference() {
        let (graph, feats, shards) = setup(3);
        let reference = segment_reduce(&feats, graph.in_offsets(), graph.in_sources(), Reduce::Sum);
        for mode in [
            DistMode::FlexGraph { pipeline: true },
            DistMode::FlexGraph { pipeline: false },
            DistMode::EulerLike { batch_size: 16 },
            DistMode::DistDglLike {
                batch_size: 16,
                hops: 2,
            },
        ] {
            let cfg = DistConfig {
                mode,
                ..DistConfig::default()
            };
            let rep = distributed_epoch(&graph, &shards, &cfg);
            assert!(
                rep.features.max_abs_diff(&reference) < 1e-3,
                "{mode:?} diverges from reference"
            );
        }
    }

    #[test]
    fn distdgl_fetches_more_bytes_than_euler_than_flexgraph() {
        let (graph, _feats, shards) = setup(4);
        let bytes = |mode| {
            let cfg = DistConfig {
                mode,
                ..DistConfig::default()
            };
            distributed_epoch(&graph, &shards, &cfg).comm_bytes
        };
        let flex = bytes(DistMode::FlexGraph { pipeline: true });
        let euler = bytes(DistMode::EulerLike { batch_size: 10 });
        let distdgl = bytes(DistMode::DistDglLike {
            batch_size: 10,
            hops: 2,
        });
        assert!(
            flex < euler && euler < distdgl,
            "traffic ordering: flex {flex} < euler {euler} < distdgl {distdgl}"
        );
    }

    #[test]
    fn update_stage_applies_weight() {
        let (graph, _f, shards) = setup(2);
        let w = Tensor::eye(6).scale(-1.0); // ReLU(−agg) — zero where agg > 0.
        let cfg = DistConfig {
            update_weight: Some(w),
            ..DistConfig::default()
        };
        let rep = distributed_epoch(&graph, &shards, &cfg);
        assert!(rep.features.data().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn mean_leaf_op_is_consistent_across_modes() {
        let (graph, feats, shards) = setup(2);
        let reference =
            segment_reduce(&feats, graph.in_offsets(), graph.in_sources(), Reduce::Mean);
        for mode in [
            DistMode::FlexGraph { pipeline: true },
            DistMode::EulerLike { batch_size: 32 },
        ] {
            let cfg = DistConfig {
                mode,
                leaf_op: AggrOp::Mean,
                plan: AggrPlan::flat(AggrOp::Sum),
                ..DistConfig::default()
            };
            let rep = distributed_epoch(&graph, &shards, &cfg);
            assert!(
                rep.features.max_abs_diff(&reference) < 1e-3,
                "{mode:?} mean mismatch"
            );
        }
    }

    #[test]
    fn single_worker_degenerates_gracefully() {
        let (graph, feats, shards) = setup(1);
        let cfg = DistConfig::default();
        let rep = distributed_epoch(&graph, &shards, &cfg);
        let reference = segment_reduce(&feats, graph.in_offsets(), graph.in_sources(), Reduce::Sum);
        assert!(rep.features.max_abs_diff(&reference) < 1e-3);
        assert_eq!(rep.comm_bytes, 0, "no traffic with one worker");
    }
}
