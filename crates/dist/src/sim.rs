//! The distributed epoch program, and its virtual-time entry point.
//!
//! Each worker of every [`DistMode`] is one [`EpochTask`]: a sans-I/O
//! step machine over [`TaskCtx`]. It encodes, sends, folds in rank
//! order, aggregates the upper levels, and writes its own
//! [`PartitionRecord`] — stage samples, comm counters, and per-root cost
//! attribution. It never blocks: when it needs a message or a barrier
//! it returns a [`TaskStep`], and its scheduler resumes it. The two
//! schedulers are in [`crate::runtime`]:
//!
//! * [`distributed_epoch`](crate::distributed_epoch) steps each task on
//!   an OS thread over the fabric; stage times are measured wall time.
//! * [`virtual_epoch`] steps all tasks on the deterministic
//!   discrete-event scheduler ([`flexgraph_comm::det`]), so a thousand
//!   workers fit on one core, epoch time is *modeled* from per-link
//!   latency/bandwidth, rack topology, stragglers and charged compute
//!   units, and the same seed replays the same event sequence byte for
//!   byte at any `FLEXGRAPH_THREADS`.
//!
//! Because both run this one program, fault-free features and every
//! work and traffic counter are identical across the two; only times
//! differ. Both share the crash-recovery loop of [`crate::runtime`].

use crate::pipeline::{encode_partials, encode_raw_rows, finalize_mean, fold_raw_rows};
use crate::pipeline::{LeafSync, SlotLevel};
use crate::runtime::{run_epoch, VirtualRuntime};
use crate::shard::Shard;
use crate::trainer::{DistConfig, DistMode, EpochReport};
use bytes::Bytes;
use flexgraph_comm::det::fnv1a;
use flexgraph_comm::{
    decode_rows, decode_rows_with, encode_rows, CommError, NetProfile, SimTask, TaskCtx, TaskStep,
};
use flexgraph_engine::hybrid::{aggregate_from_groups, aggregate_from_instances, AggrOp, Strategy};
use flexgraph_engine::MemoryBudget;
use flexgraph_graph::bfs::k_hop_closure;
use flexgraph_graph::{Graph, VertexId};
use flexgraph_obs::{PartitionRecord, Stage};
use flexgraph_tensor::scatter::scatter_add;
use flexgraph_tensor::{scatter_add_gathered_into, Tensor};
use std::collections::HashMap;
use std::time::Duration;

/// Tag of the leaf-level messages.
const LEAF_TAG: u32 = 1;
/// Tag of the mini-batch round-count agreement.
const ROUNDS_TAG: u32 = 5;

/// Tag of round `round`'s feature requests; responses use the next tag.
fn request_tag(round: usize) -> u32 {
    10 + round as u32 * 2
}

/// The raw-row fold's offset table, allocated on first use.
fn scratch(table: &mut Vec<u32>, num_vertices: usize) -> &mut [u32] {
    if table.is_empty() {
        *table = vec![u32::MAX; num_vertices];
    }
    table
}

/// Result of one [`virtual_epoch`]: the epoch report plus the
/// virtual-runtime extras (event log, digests, virtual clocks).
pub struct VirtualEpochReport {
    /// The epoch's measurements; `wall` carries the *virtual* epoch
    /// duration.
    pub report: EpochReport,
    /// Virtual epoch duration (slowest worker's virtual clock).
    pub virtual_time: Duration,
    /// Sum of all workers' charged virtual compute.
    pub total_compute: Duration,
    /// Concatenated scheduler event logs of every attempt (re-driven
    /// epochs append; the final attempt's log is the tail).
    pub event_log: String,
    /// `(len, fnv1a)` digest of `event_log`, for cheap byte-identity
    /// comparison across runs.
    pub log_digest: (u64, u64),
}

/// Runs one distributed epoch on the deterministic virtual runtime.
///
/// Per-root costs are scaled by each worker's straggler compute factor,
/// so measured-cost balancing sees injected skew.
///
/// # Panics
///
/// Panics when the epoch still fails after `cfg.max_recoveries`
/// re-drives.
pub fn virtual_epoch(
    graph: &Graph,
    shards: &[Shard],
    cfg: &DistConfig,
    net: &NetProfile,
) -> VirtualEpochReport {
    let (report, total_compute, event_log) =
        run_epoch(&VirtualRuntime::new(net.clone()), graph, shards, cfg);
    VirtualEpochReport {
        virtual_time: report.wall,
        total_compute,
        log_digest: (event_log.len() as u64, fnv1a(event_log.as_bytes())),
        event_log,
        report,
    }
}

/// Completes the levels above the slots, dispatching on the slot level.
fn finish_upper_levels(
    shard: &Shard,
    sync: &LeafSync,
    mut slots: Tensor,
    cfg: &DistConfig,
) -> Tensor {
    if cfg.leaf_op == AggrOp::Mean {
        finalize_mean(&mut slots, &sync.slot_counts);
    }
    // The mini-batch baselines have no hybrid executor: sparse ops.
    let strategy = match cfg.mode {
        DistMode::FlexGraph { .. } => cfg.strategy,
        _ => Strategy::Sa,
    };
    let budget = MemoryBudget::unlimited();
    match sync.level {
        SlotLevel::Instances => {
            aggregate_from_instances(&shard.hdg, &slots, &cfg.plan, strategy, &budget)
        }
        SlotLevel::Groups => aggregate_from_groups(&shard.hdg, slots, &cfg.plan, strategy, &budget),
    }
    .expect("unbudgeted upper-level aggregation cannot fail")
    .features
}

/// Where a worker is in its epoch.
#[derive(Clone, Copy)]
enum State {
    Entry,
    /// FlexGraph: ship leaf rows or partials to every peer.
    LeafSend,
    /// FlexGraph: receive them in rank order.
    LeafRecv,
    /// Mini-batch: agree on the number of rounds.
    RoundsSend,
    RoundsRecv,
    /// Mini-batch round: request the batch's remote rows...
    Request {
        round: usize,
    },
    /// ...answer the peers' requests...
    Serve {
        round: usize,
    },
    /// ...and aggregate the batch once the responses are in.
    Response {
        round: usize,
    },
    /// Upper levels, Update, and per-root cost attribution.
    Finish,
}

/// One worker's epoch: a step machine for its [`DistMode`].
///
/// * FlexGraph, pipelined: send per-peer partials (or deduplicated raw
///   rows, whichever is smaller), fold the local leaves while they are
///   in flight, then fold the arrivals in rank order (§5).
/// * FlexGraph, unpipelined (the dataflow baseline): send raw rows and
///   aggregate only after every peer's rows have arrived.
/// * Euler-like / DistDGL-like: per batch of roots, fetch the selected
///   neighbors' (or the whole k-hop closure's) raw rows by request and
///   response, then aggregate with materializing sparse ops.
///
/// Folds run in rank order, and f32 addition is not associative: that
/// pinned order is what keeps outputs bitwise identical under any
/// scheduler and any chaos schedule.
pub struct EpochTask<'a> {
    shard: &'a Shard,
    sync: &'a LeafSync,
    cfg: &'a DistConfig,
    state: State,
    /// Next peer of the current rank-ordered receive sweep.
    peer: usize,
    slots: Option<Tensor>,
    /// Unpipelined: raw-row payloads held until the last one arrives.
    held: Vec<(usize, Bytes)>,
    /// Vertex → payload-offset scratch for raw-row folds; allocated on
    /// the first one.
    offset_of: Vec<u32>,
    /// Mini-batch: rounds every worker runs, and this round's fetched
    /// rows by vertex.
    rounds: usize,
    responses: HashMap<u32, Vec<f32>>,
    /// `(work, ns)` of a stage that spans several steps.
    stage_acc: (u64, u64),
    /// This worker's telemetry.
    pub(crate) rec: PartitionRecord,
    /// Set when the task is done.
    pub(crate) out: Option<Result<Tensor, CommError>>,
}

impl<'a> EpochTask<'a> {
    pub(crate) fn new(
        shard: &'a Shard,
        sync: &'a LeafSync,
        cfg: &'a DistConfig,
        epoch_id: u64,
    ) -> Self {
        let mut rec = PartitionRecord::new(epoch_id, shard.rank as u32);
        rec.pipelined = cfg.mode == DistMode::FlexGraph { pipeline: true };
        Self {
            shard,
            sync,
            cfg,
            state: State::Entry,
            peer: 0,
            slots: None,
            held: Vec::new(),
            offset_of: Vec::new(),
            rounds: 0,
            responses: HashMap::new(),
            stage_acc: (0, 0),
            rec,
            out: None,
        }
    }

    fn record(&mut self, stage: Stage, work: u64, wall_ns: u64) {
        let s = self.rec.stage_mut(stage);
        s.invocations += 1;
        s.work += work;
        s.wall_ns += wall_ns;
    }

    /// Counts the message in this worker's record, then sends it.
    fn send(
        &mut self,
        ctx: &mut TaskCtx<'_>,
        to: usize,
        tag: u32,
        payload: Bytes,
        partial: bool,
    ) -> Result<(), CommError> {
        let c = &mut self.rec.comm;
        c.messages += 1;
        c.bytes += payload.len() as u64;
        if partial {
            c.partial_msgs += 1;
        } else {
            c.raw_msgs += 1;
        }
        ctx.send(to, tag, payload)
    }

    /// The rank-ordered receive sweep: the next peer's payload with
    /// `tag`, `Ok(None)` once every peer has been heard from, or the
    /// wait to return.
    fn sweep(
        &mut self,
        ctx: &mut TaskCtx<'_>,
        tag: u32,
    ) -> Result<Option<(usize, Bytes)>, TaskStep> {
        if self.peer == ctx.rank() {
            self.peer += 1;
        }
        if self.peer >= ctx.num_workers() {
            self.peer = 0;
            return Ok(None);
        }
        let from = self.peer;
        let payload = ctx
            .try_recv(from, tag)
            .ok_or(TaskStep::Recv { from, tag })?;
        self.peer += 1;
        Ok(Some((from, payload)))
    }

    /// The planned slot-owned fold of the locally owned leaves.
    fn fold_local(&mut self, ctx: &mut TaskCtx<'_>) {
        let (feats, sync) = (&self.shard.feats, self.sync);
        let mut slots = Tensor::zeros(sync.num_slots, feats.cols());
        scatter_add_gathered_into(&mut slots, feats, &sync.local_rows, &sync.local_plan);
        let work = sync.local_rows.len() as u64 * feats.cols() as u64;
        let ns = ctx.charge(work);
        self.record(Stage::LeafLocal, work, ns);
        self.slots = Some(slots);
    }

    /// The `(lo_root, hi_root, lo_slot, hi_slot)` ranges of one batch.
    fn batch(&self, round: usize, batch_size: usize) -> (usize, usize, usize, usize) {
        let lo = (round * batch_size).min(self.shard.roots.len());
        let hi = ((round + 1) * batch_size).min(self.shard.roots.len());
        let off = &self.sync.root_slot_off;
        (lo, hi, off[lo], off[hi])
    }

    /// Steps until the task must wait or is done.
    fn advance(&mut self, ctx: &mut TaskCtx<'_>) -> Result<TaskStep, CommError> {
        let (k, me) = (ctx.num_workers(), ctx.rank());
        let (shard, sync, cfg) = (self.shard, self.sync, self.cfg);
        let d = shard.feats.cols();
        let pipeline = cfg.mode == DistMode::FlexGraph { pipeline: true };
        let (batch_size, hops) = match cfg.mode {
            DistMode::FlexGraph { .. } => (0, None),
            DistMode::EulerLike { batch_size } => (batch_size.max(1), None),
            DistMode::DistDglLike { batch_size, hops } => (batch_size.max(1), Some(hops)),
        };
        loop {
            match self.state {
                State::Entry => {
                    self.state = if batch_size == 0 {
                        State::LeafSend
                    } else {
                        State::RoundsSend
                    };
                    return Ok(TaskStep::Barrier);
                }
                State::LeafSend => {
                    let (mut bytes, mut ns) = (0, 0);
                    for p in (0..k).filter(|&p| p != me) {
                        // The pipelined sender picks the cheaper wire form
                        // per peer; the baseline always ships raw rows.
                        let partial = pipeline && sync.partial_to[p];
                        let payload = if partial {
                            encode_partials(sync, &shard.feats, p, d)
                        } else {
                            encode_raw_rows(sync, &shard.feats, shard, p, d)
                        };
                        bytes += payload.len() as u64;
                        ns += ctx.charge(payload.len() as u64);
                        self.send(ctx, p, LEAF_TAG, payload, partial)?;
                    }
                    self.record(Stage::LeafSend, bytes, ns);
                    if pipeline {
                        // Overlaps the in-flight messages.
                        self.fold_local(ctx);
                    }
                    self.state = State::LeafRecv;
                }
                State::LeafRecv => match self.sweep(ctx, LEAF_TAG) {
                    Err(wait) => return Ok(wait),
                    Ok(Some((p, payload))) if pipeline => {
                        let slots = self.slots.as_mut().expect("local fold done");
                        let entries = if sync.partial_from[p] {
                            let mut rows = 0u64;
                            decode_rows_with(&payload, |i, row| {
                                rows += 1;
                                for (o, &x) in slots.row_mut(i as usize).iter_mut().zip(row) {
                                    *o += x;
                                }
                            });
                            rows
                        } else {
                            let offset_of = scratch(&mut self.offset_of, shard.owner.len());
                            fold_raw_rows(sync, slots, &payload, p, d, offset_of);
                            sync.remote_edges_by_owner[p].len() as u64
                        };
                        self.stage_acc.0 += entries * d as u64;
                        self.stage_acc.1 += ctx.charge(entries * d as u64);
                    }
                    Ok(Some(arrival)) => self.held.push(arrival),
                    Ok(None) => {
                        if !pipeline {
                            // Dataflow semantics: aggregate only after
                            // every remote row has arrived.
                            self.fold_local(ctx);
                            let slots = self.slots.as_mut().expect("local fold done");
                            let offset_of = scratch(&mut self.offset_of, shard.owner.len());
                            for (p, payload) in self.held.drain(..) {
                                fold_raw_rows(sync, slots, &payload, p, d, offset_of);
                            }
                            let work = sync.remote_edges.len() as u64 * d as u64;
                            self.stage_acc = (work, ctx.charge(work));
                        }
                        let (work, ns) = std::mem::take(&mut self.stage_acc);
                        self.record(Stage::LeafFold, work, ns);
                        self.state = State::Finish;
                    }
                },
                State::RoundsSend => {
                    self.rounds = shard.roots.len().div_ceil(batch_size);
                    let payload = encode_rows(0, &[(self.rounds as u32, [].as_slice())]);
                    for p in (0..k).filter(|&p| p != me) {
                        ctx.send(p, ROUNDS_TAG, payload.clone())?;
                    }
                    self.state = State::RoundsRecv;
                }
                State::RoundsRecv => match self.sweep(ctx, ROUNDS_TAG) {
                    Err(wait) => return Ok(wait),
                    Ok(Some((_, payload))) => {
                        let (_, rows) = decode_rows(payload);
                        self.rounds = self.rounds.max(rows[0].0 as usize);
                    }
                    Ok(None) => {
                        // Local leaf edges need no fetch: aggregate them
                        // up front, serially.
                        let mut slots = Tensor::zeros(sync.num_slots, d);
                        for &(i, row) in &sync.local_edges {
                            let src = shard.feats.row(row as usize);
                            for (o, &x) in slots.row_mut(i as usize).iter_mut().zip(src) {
                                *o += x;
                            }
                        }
                        let work = sync.local_edges.len() as u64 * d as u64;
                        let ns = ctx.charge(work);
                        self.record(Stage::LeafLocal, work, ns);
                        self.slots = Some(slots);
                        self.state = State::Request { round: 0 };
                    }
                },
                State::Request { round } if round >= self.rounds => self.state = State::Finish,
                State::Request { round } => {
                    let (lo_root, hi_root, lo_s, hi_s) = self.batch(round, batch_size);
                    let mut needed: Vec<VertexId> = match hops {
                        _ if lo_root == hi_root => Vec::new(),
                        None => sync
                            .remote_edges
                            .iter()
                            .filter(|&&(i, _)| (lo_s..hi_s).contains(&(i as usize)))
                            .map(|&(_, v)| v)
                            .collect(),
                        // Full closure expansion — the DistDGL blow-up.
                        Some(h) => {
                            let graph = shard.graph.as_deref().expect(
                                "DistDGL-like mode needs shards built with a graph reference",
                            );
                            k_hop_closure(graph, &shard.roots[lo_root..hi_root], h)
                                .into_iter()
                                .filter(|&v| shard.owner[v as usize] as usize != me)
                                .collect()
                        }
                    };
                    needed.sort_unstable();
                    needed.dedup();
                    ctx.charge((hi_root - lo_root) as u64 + needed.len() as u64);
                    let mut by_owner: Vec<Vec<(u32, &[f32])>> = vec![Vec::new(); k];
                    for v in needed {
                        by_owner[shard.owner[v as usize] as usize].push((v, &[]));
                    }
                    for (p, ids) in by_owner.iter().enumerate().filter(|&(p, _)| p != me) {
                        self.send(ctx, p, request_tag(round), encode_rows(0, ids), false)?;
                    }
                    self.responses.clear();
                    self.state = State::Serve { round };
                }
                State::Serve { round } => match self.sweep(ctx, request_tag(round)) {
                    Err(wait) => return Ok(wait),
                    Ok(Some((p, payload))) => {
                        let (_, ids) = decode_rows(payload);
                        let rows: Vec<(u32, &[f32])> = ids
                            .iter()
                            .map(|&(v, _)| (v, shard.feats.row(shard.row_of(v) as usize)))
                            .collect();
                        let payload = encode_rows(d, &rows);
                        let len = payload.len() as u64;
                        self.stage_acc.0 += len;
                        self.stage_acc.1 += ctx.charge(len);
                        self.send(ctx, p, request_tag(round) + 1, payload, false)?;
                    }
                    Ok(None) => {
                        let (work, ns) = std::mem::take(&mut self.stage_acc);
                        self.record(Stage::Serve, work, ns);
                        self.state = State::Response { round };
                    }
                },
                State::Response { round } => match self.sweep(ctx, request_tag(round) + 1) {
                    Err(wait) => return Ok(wait),
                    Ok(Some((_, payload))) => self.responses.extend(decode_rows(payload).1),
                    Ok(None) => {
                        // Materialize one row per remote edge, then
                        // scatter — the baseline execution shape.
                        let (_, _, lo_s, hi_s) = self.batch(round, batch_size);
                        let edges: Vec<&(u32, VertexId)> = sync
                            .remote_edges
                            .iter()
                            .filter(|&&(i, _)| (lo_s..hi_s).contains(&(i as usize)))
                            .collect();
                        if !edges.is_empty() {
                            let mut messages = Tensor::zeros(edges.len(), d);
                            for (e, &&(_, v)) in edges.iter().enumerate() {
                                let row = self
                                    .responses
                                    .get(&v)
                                    .expect("closure fetch covers every leaf dependency");
                                messages.row_mut(e).copy_from_slice(row);
                            }
                            let dst: Vec<u32> = edges.iter().map(|&&(i, _)| i).collect();
                            let partial = scatter_add(&messages, &dst, sync.num_slots);
                            self.slots
                                .as_mut()
                                .expect("slots ready")
                                .add_assign(&partial);
                            ctx.charge(edges.len() as u64 * d as u64);
                        }
                        self.state = State::Request { round: round + 1 };
                    }
                },
                State::Finish => {
                    let slots = self.slots.take().expect("leaf level complete");
                    let out = finish_upper_levels(shard, sync, slots, cfg);
                    let work = (sync.num_slots + shard.hdg.num_instances() + shard.hdg.num_roots())
                        as u64
                        * d as u64;
                    let ns = ctx.charge(work);
                    self.record(Stage::Upper, work, ns);
                    let out = match &cfg.update_weight {
                        Some(w) => {
                            let work = out.rows() as u64 * out.cols() as u64 * w.cols() as u64;
                            let mut o = out.matmul(w);
                            o.relu_inplace();
                            let ns = ctx.charge(work);
                            self.record(Stage::Update, work, ns);
                            o
                        }
                        None => out,
                    };
                    self.attribute_root_costs(ctx.compute_factor());
                    self.out = Some(Ok(out));
                    return Ok(TaskStep::Done);
                }
            }
        }
    }

    /// Attributes `5 + (leaf_entries + instances + types) × dim` cost
    /// units per root, scaled by `factor`, keyed by global vertex id.
    /// `leaf_entries` is the root's slot-count segment (the ScatterPlan
    /// fold sizes), mirroring the shape of the balancer's polynomial
    /// metric variables (§6).
    fn attribute_root_costs(&mut self, factor: f64) {
        let (shard, sync) = (self.shard, self.sync);
        let d = shard.feats.cols() as u64;
        let t = shard.hdg.num_types() as u64;
        for r in 0..shard.hdg.num_roots() {
            let slots = sync.root_slot_off[r]..sync.root_slot_off[r + 1];
            let leaf_entries: u64 = sync.slot_counts[slots].iter().map(|&c| c as u64).sum();
            let instances = shard.hdg.instances_of_root(r) as u64;
            let units = 5 + (leaf_entries + instances + t) * d;
            self.rec
                .add_root_cost(shard.roots[r], (units as f64 * factor) as u64);
        }
    }
}

impl SimTask for EpochTask<'_> {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> TaskStep {
        // A latched peer failure aborts the attempt wherever the task
        // waited.
        if let Some(e) = ctx.failed() {
            self.out.get_or_insert(Err(e));
            return TaskStep::Done;
        }
        self.advance(ctx).unwrap_or_else(|e| {
            self.out = Some(Err(e));
            TaskStep::Done
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::make_shards;
    use crate::trainer::distributed_epoch;
    use flexgraph_comm::{ChaosSchedule, CostModel, CrashPoint, FlakyRack, Straggler};
    use flexgraph_engine::hybrid::AggrPlan;
    use flexgraph_graph::gen::community;
    use flexgraph_graph::partition::hash_partition;
    use flexgraph_hdg::build::from_direct_neighbors;

    fn setup(k: usize) -> (Graph, Tensor, Vec<Shard>) {
        let ds = community(150, 3, 5, 2, 6, 77);
        let part = hash_partition(&ds.graph, k);
        let mut shards = make_shards(150, &ds.features, &part, |roots| {
            from_direct_neighbors(&ds.graph, roots.to_vec())
        });
        let g = std::sync::Arc::new(ds.graph.clone());
        for s in &mut shards {
            s.graph = Some(g.clone());
        }
        (ds.graph, ds.features, shards)
    }

    /// The virtual runtime on a uniform network priced like `cfg`'s
    /// cost model.
    fn simulated(graph: &Graph, shards: &[Shard], cfg: &DistConfig) -> VirtualEpochReport {
        virtual_epoch(
            graph,
            shards,
            cfg,
            &NetProfile::from_cost_model(&cfg.cost_model),
        )
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    const ALL_MODES: [DistMode; 4] = [
        DistMode::FlexGraph { pipeline: true },
        DistMode::FlexGraph { pipeline: false },
        DistMode::EulerLike { batch_size: 16 },
        DistMode::DistDglLike {
            batch_size: 16,
            hops: 2,
        },
    ];

    #[test]
    fn simulation_matches_threaded_runtime_results() {
        let (graph, _f, shards) = setup(3);
        for mode in ALL_MODES {
            let cfg = DistConfig {
                mode,
                ..DistConfig::default()
            };
            let sim = simulated(&graph, &shards, &cfg).report;
            let real = distributed_epoch(&graph, &shards, &cfg);
            assert!(
                sim.features.max_abs_diff(&real.features) < 1e-4,
                "{mode:?}: simulation must compute the same features"
            );
            // The virtual tasks run the exact helper sequence the
            // threaded workers pin, so fault-free parity is bitwise.
            assert_eq!(
                bits(&sim.features),
                bits(&real.features),
                "{mode:?}: parity must be bitwise"
            );
            assert_eq!(sim.comm_bytes, real.comm_bytes, "{mode:?}: bytes");
            assert_eq!(sim.comm_messages, real.comm_messages, "{mode:?}: messages");
        }
    }

    #[test]
    fn simulation_matches_threaded_runtime_with_mean_and_update() {
        let (graph, _f, shards) = setup(2);
        let cfg = DistConfig {
            mode: DistMode::FlexGraph { pipeline: true },
            leaf_op: AggrOp::Mean,
            plan: AggrPlan::flat(AggrOp::Sum),
            update_weight: Some(Tensor::eye(6).scale(0.5)),
            ..DistConfig::default()
        };
        let sim = simulated(&graph, &shards, &cfg).report;
        let real = distributed_epoch(&graph, &shards, &cfg);
        assert!(sim.features.max_abs_diff(&real.features) < 1e-4);
        assert_eq!(bits(&sim.features), bits(&real.features));
    }

    #[test]
    fn pipelined_model_is_never_slower_than_unpipelined() {
        let (graph, _f, shards) = setup(4);
        let model = CostModel {
            alpha_us: 500.0,
            bytes_per_us: 100.0,
            simulate_delay: false,
        };
        let piped = DistConfig {
            mode: DistMode::FlexGraph { pipeline: true },
            cost_model: model,
            ..DistConfig::default()
        };
        let raw = DistConfig {
            mode: DistMode::FlexGraph { pipeline: false },
            cost_model: model,
            ..DistConfig::default()
        };
        let tp = simulated(&graph, &shards, &piped).virtual_time;
        let tr = simulated(&graph, &shards, &raw).virtual_time;
        assert!(
            tp <= tr + Duration::from_micros(200),
            "pipelined {tp:?} must not exceed unpipelined {tr:?}"
        );
    }

    #[test]
    fn single_worker_has_no_comm() {
        let (graph, _f, shards) = setup(1);
        let cfg = DistConfig::default();
        let sim = simulated(&graph, &shards, &cfg).report;
        assert_eq!(sim.comm_bytes, 0);
        assert_eq!(sim.comm_messages, 0);
    }

    #[test]
    fn minibatch_closure_fetch_moves_more_bytes() {
        let (graph, _f, shards) = setup(4);
        let euler = DistConfig {
            mode: DistMode::EulerLike { batch_size: 10 },
            ..DistConfig::default()
        };
        let distd = DistConfig {
            mode: DistMode::DistDglLike {
                batch_size: 10,
                hops: 2,
            },
            ..DistConfig::default()
        };
        let be = simulated(&graph, &shards, &euler).report.comm_bytes;
        let bd = simulated(&graph, &shards, &distd).report.comm_bytes;
        assert!(bd > be, "closure fetch {bd} must exceed dep fetch {be}");
    }

    #[test]
    fn same_seed_virtual_epochs_are_byte_identical() {
        let (graph, _f, shards) = setup(3);
        let cfg = DistConfig {
            chaos: Some(ChaosSchedule::stress(41).without_crash()),
            ..DistConfig::default()
        };
        let net = NetProfile {
            seed: 7,
            rack_size: 2,
            stragglers: vec![Straggler {
                rank: 1,
                compute_factor: 4.0,
                link_factor: 2.0,
            }],
            flaky_racks: vec![FlakyRack {
                rack: 0,
                extra_delay_us: 120.0,
                drop_prob: 0.5,
            }],
            ..NetProfile::default()
        };
        let a = virtual_epoch(&graph, &shards, &cfg, &net);
        let b = virtual_epoch(&graph, &shards, &cfg, &net);
        assert_eq!(a.event_log, b.event_log, "event logs must be identical");
        assert_eq!(a.log_digest, b.log_digest);
        assert_eq!(bits(&a.report.features), bits(&b.report.features));
        assert_eq!(a.virtual_time, b.virtual_time);
        assert!(a.report.drops_injected > 0, "stress schedule must inject");
    }

    #[test]
    fn straggler_scales_virtual_time_and_measured_root_costs() {
        let (graph, _f, shards) = setup(2);
        let cfg = DistConfig::default();
        let clean = virtual_epoch(&graph, &shards, &cfg, &NetProfile::default());
        let skewed = NetProfile {
            stragglers: vec![Straggler {
                rank: 0,
                compute_factor: 8.0,
                link_factor: 1.0,
            }],
            ..NetProfile::default()
        };
        let skew = virtual_epoch(&graph, &shards, &cfg, &skewed);
        let cost = |rep: &VirtualEpochReport, rank: u32| {
            rep.report.telemetry.partitions[&rank].root_digest().1
        };
        // Straggling scales the measured per-root costs (what ADB
        // ingests) on the slow rank only, and stretches the epoch.
        assert!(cost(&skew, 0) > cost(&clean, 0) * 7);
        assert_eq!(cost(&skew, 1), cost(&clean, 1));
        assert!(skew.virtual_time > clean.virtual_time);
        // The computed features are unaffected by timing.
        assert_eq!(bits(&skew.report.features), bits(&clean.report.features));
    }

    #[test]
    fn crash_recovery_is_bitwise_identical_to_fault_free() {
        let (graph, _f, shards) = setup(3);
        let net = NetProfile::default();
        let clean = virtual_epoch(&graph, &shards, &DistConfig::default(), &net);
        let crash_cfg = DistConfig {
            chaos: Some(ChaosSchedule {
                crash: Some(CrashPoint {
                    rank: 1,
                    at_send: 1,
                }),
                ..ChaosSchedule::default()
            }),
            ..DistConfig::default()
        };
        let crashed = virtual_epoch(&graph, &shards, &crash_cfg, &net);
        assert_eq!(crashed.report.recoveries, 1);
        assert!(crashed.event_log.contains("C "), "crash must be logged");
        assert_eq!(
            bits(&crashed.report.features),
            bits(&clean.report.features),
            "re-driven epoch must match the fault-free output bitwise"
        );
        // The re-driven attempt replays the fault-free schedule, so its
        // log is exactly the fault-free log.
        assert!(
            crashed.event_log.ends_with(&clean.event_log),
            "second attempt must replay the fault-free event sequence"
        );
    }

    #[test]
    fn virtual_telemetry_carries_stages_and_duration() {
        let (graph, _f, shards) = setup(3);
        let cfg = DistConfig {
            update_weight: Some(Tensor::eye(6)),
            ..DistConfig::default()
        };
        let rep = virtual_epoch(&graph, &shards, &cfg, &NetProfile::default());
        let tele = &rep.report.telemetry;
        assert_eq!(tele.virtual_ns, rep.virtual_time.as_nanos() as u64);
        assert!(tele.virtual_ns > 0);
        assert_eq!(tele.partitions.len(), 3);
        for rec in tele.partitions.values() {
            assert!(rec.pipelined);
            assert_eq!(rec.stage(Stage::LeafSend).invocations, 1);
            assert_eq!(rec.stage(Stage::Update).invocations, 1);
            assert!(rec.stage(Stage::Upper).work > 0);
            assert!(!rec.roots.is_empty(), "root costs attributed");
        }
        assert_eq!(tele.fabric.messages, rep.report.comm_messages);
        assert_eq!(tele.fabric.bytes, rep.report.comm_bytes);
    }
}
