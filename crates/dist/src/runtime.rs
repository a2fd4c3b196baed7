//! One epoch program, two schedulers.
//!
//! Every [`DistMode`](crate::DistMode) is written once, as the
//! [`EpochTask`] step machines of [`crate::sim`]. An [`EpochRuntime`] is
//! a scheduler for them — the one seam between the two: it runs one
//! attempt of `k` tasks, leaving each task's output and telemetry record
//! in the task, and returns the attempt's traffic counters. Everything
//! around an attempt exists once, in [`run_epoch`]: the crash-recovery
//! loop, output assembly, the telemetry merge, and fault-counter
//! accumulation.
//!
//! * [`ThreadedRuntime`] steps each task on its own OS thread over the
//!   crossbeam fabric ([`distributed_epoch`](crate::distributed_epoch));
//!   times are measured, and worker count is bounded by the host.
//! * [`VirtualRuntime`] steps all tasks on the discrete-event scheduler
//!   ([`crate::sim::virtual_epoch`]); times are modeled from the
//!   [`NetProfile`], worker count is bounded only by memory, and runs
//!   replay byte-identically.
//!
//! Fault-free, both produce bitwise-identical features and identical
//! work and traffic counters, so a sweep can validate at small `k` on
//! threads and extrapolate at `k = 1024` virtually.
//!
//! Fault tolerance: shards are immutable during an epoch, so the shard
//! state *is* the epoch-start snapshot. When a worker fails (a scheduled
//! crash, or a peer declared unreachable) the attempt's output is
//! discarded and the whole epoch is re-driven with the crash removed
//! from the schedule — at most [`DistConfig::max_recoveries`] times.
//! Delivery is exactly-once in per-link order and folds run in rank
//! order, so the recovered output is bitwise identical to a fault-free
//! run.

use crate::pipeline::build_leaf_sync;
use crate::shard::Shard;
use crate::sim::EpochTask;
use crate::trainer::{DistConfig, EpochReport};
use flexgraph_comm::{
    run_on_thread, ChaosSchedule, CommError, Fabric, NetProfile, SimConfig, VirtualCluster,
    VirtualStats,
};
use flexgraph_graph::Graph;
use flexgraph_obs::{FabricCounters, TraceEpoch};
use flexgraph_tensor::Tensor;
use std::time::Duration;

/// What a scheduler measured of one attempt.
pub struct Attempt {
    /// Traffic and fault counters.
    pub traffic: VirtualStats,
    /// The slowest worker's time: virtual on the wheel, wall on threads.
    pub elapsed: Duration,
    /// The attempt's virtual duration; 0 on a wall-clock scheduler.
    pub virtual_ns: u64,
    /// Sum of the workers' charged compute.
    pub compute: Duration,
    /// The scheduler's event log (empty on threads).
    pub log: String,
}

/// A scheduler for the epoch program.
pub trait EpochRuntime {
    /// Short backend name for labeling sweep output.
    fn name(&self) -> &'static str;
    /// Steps every task to completion under `chaos`, one task per
    /// worker.
    fn attempt(
        &self,
        tasks: &mut [EpochTask<'_>],
        cfg: &DistConfig,
        chaos: ChaosSchedule,
    ) -> Attempt;
    /// Runs one epoch of `cfg` over the shards and reports it. For
    /// virtual backends, `EpochReport::wall` carries virtual time.
    fn epoch(&self, graph: &Graph, shards: &[Shard], cfg: &DistConfig) -> EpochReport {
        run_epoch(self, graph, shards, cfg).0
    }
}

/// Runs one epoch on `rt`, returning the report, the total charged
/// compute, and the concatenated event logs of every attempt.
///
/// # Panics
///
/// Panics when the epoch still fails after `max_recoveries` re-drives.
pub(crate) fn run_epoch<R: EpochRuntime + ?Sized>(
    rt: &R,
    graph: &Graph,
    shards: &[Shard],
    cfg: &DistConfig,
) -> (EpochReport, Duration, String) {
    let syncs = build_leaf_sync(shards);
    let epoch_id = flexgraph_obs::next_epoch();
    let mut recoveries = 0u32;
    let mut acc = VirtualStats::default();
    let mut event_log = String::new();
    loop {
        // The crash is a one-shot fault: the re-driven epoch keeps the
        // message-level chaos but the worker stays up.
        let chaos = match cfg.chaos {
            Some(c) if recoveries == 0 => c,
            Some(c) => c.without_crash(),
            None => ChaosSchedule::default(),
        };
        let mut tasks: Vec<EpochTask> = shards
            .iter()
            .zip(&syncs)
            .map(|(shard, sync)| EpochTask::new(shard, sync, cfg, epoch_id))
            .collect();
        let run = rt.attempt(&mut tasks, cfg, chaos);
        acc += run.traffic;
        event_log.push_str(&run.log);

        let outs: Vec<Result<Tensor, CommError>> = tasks
            .iter_mut()
            .map(|t| t.out.take().expect("task finished"))
            .collect();
        let failures: Vec<(usize, &CommError)> = outs
            .iter()
            .enumerate()
            .filter_map(|(r, out)| Some((r, out.as_ref().err()?)))
            .collect();
        if !failures.is_empty() {
            recoveries += 1;
            assert!(
                recoveries <= cfg.max_recoveries,
                "epoch unrecoverable after {} re-drives: {failures:?}",
                recoveries - 1
            );
            continue;
        }

        // Assemble per-root outputs into the global order, and merge the
        // workers' records into the epoch's running log.
        let d_out = outs[0].as_ref().map_or(0, Tensor::cols);
        let mut features = Tensor::zeros(graph.num_vertices(), d_out);
        let mut telemetry = TraceEpoch::new(epoch_id);
        for ((shard, task), out) in shards.iter().zip(tasks).zip(outs) {
            let out = out.expect("no failures");
            for (i, &v) in shard.roots.iter().enumerate() {
                features.row_mut(v as usize).copy_from_slice(out.row(i));
            }
            telemetry.absorb(task.rec);
        }
        // Traffic of the successful attempt is deterministic; the
        // fault-path counters carry the totals across all attempts.
        telemetry.fabric = FabricCounters {
            bytes: run.traffic.bytes,
            messages: run.traffic.messages,
            retries: acc.retries,
            drops_injected: acc.drops_injected,
            redeliveries: acc.redeliveries,
        };
        telemetry.virtual_ns = run.virtual_ns;
        flexgraph_obs::emit_epoch(&telemetry);

        let report = EpochReport {
            features,
            wall: run.elapsed,
            comm_bytes: acc.bytes,
            comm_messages: acc.messages,
            modeled_comm_us: acc.modeled_ns as f64 / 1_000.0,
            retries: acc.retries,
            drops_injected: acc.drops_injected,
            redeliveries: acc.redeliveries,
            recoveries,
            telemetry,
        };
        return (report, run.compute, event_log);
    }
}

/// One OS thread per worker over the simulated MPI fabric.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadedRuntime;

impl EpochRuntime for ThreadedRuntime {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn attempt(
        &self,
        tasks: &mut [EpochTask<'_>],
        cfg: &DistConfig,
        chaos: ChaosSchedule,
    ) -> Attempt {
        let (fabric, comms) = Fabric::with_retry(tasks.len(), cfg.cost_model, cfg.retry);
        fabric.set_chaos(chaos);
        let runs: Vec<_> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = tasks
                .iter_mut()
                .zip(comms)
                .map(|(task, comm)| s.spawn(move |_| run_on_thread(task, comm)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .expect("worker panicked");
        Attempt {
            traffic: fabric.stats().snapshot(),
            elapsed: runs.iter().map(|r| r.elapsed).max().unwrap_or_default(),
            virtual_ns: 0,
            compute: Duration::from_nanos(runs.iter().map(|r| r.compute_ns).sum()),
            log: String::new(),
        }
    }
}

/// All workers on the deterministic discrete-event scheduler.
#[derive(Clone, Debug, Default)]
pub struct VirtualRuntime {
    /// Cluster network/compute model (links, racks, stragglers).
    pub net: NetProfile,
}

impl VirtualRuntime {
    /// A virtual runtime with the given network profile.
    pub fn new(net: NetProfile) -> Self {
        Self { net }
    }
}

impl EpochRuntime for VirtualRuntime {
    fn name(&self) -> &'static str {
        "virtual"
    }

    fn attempt(
        &self,
        tasks: &mut [EpochTask<'_>],
        cfg: &DistConfig,
        chaos: ChaosSchedule,
    ) -> Attempt {
        let net = self.net.clone();
        let mut cluster = VirtualCluster::new(
            tasks.len(),
            SimConfig {
                net,
                retry: cfg.retry,
                chaos,
            },
        );
        cluster.run(tasks);
        let vt = cluster.epoch_vt();
        Attempt {
            traffic: *cluster.stats(),
            elapsed: Duration::from_nanos(vt),
            virtual_ns: vt,
            compute: Duration::from_nanos(cluster.total_compute_ns()),
            log: cluster.take_log(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::make_shards;
    use flexgraph_graph::gen::community;
    use flexgraph_graph::partition::hash_partition;
    use flexgraph_hdg::build::from_direct_neighbors;

    #[test]
    fn backends_agree_through_the_trait_object() {
        let ds = community(90, 2, 4, 2, 5, 11);
        let part = hash_partition(&ds.graph, 2);
        let shards = make_shards(90, &ds.features, &part, |roots| {
            from_direct_neighbors(&ds.graph, roots.to_vec())
        });
        let cfg = DistConfig::default();
        let runtimes: [&dyn EpochRuntime; 2] = [
            &ThreadedRuntime,
            &VirtualRuntime::new(NetProfile::default()),
        ];
        let a = runtimes[0].epoch(&ds.graph, &shards, &cfg);
        let b = runtimes[1].epoch(&ds.graph, &shards, &cfg);
        assert_eq!(runtimes[0].name(), "threaded");
        assert_eq!(runtimes[1].name(), "virtual");
        let bits =
            |t: &flexgraph_tensor::Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.features), bits(&b.features));
        assert_eq!(a.comm_bytes, b.comm_bytes);
    }
}
