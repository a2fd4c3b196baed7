//! The replicated serving tier (ISSUE 9): a [`Router`] front-end
//! driving a fleet of replica workers over [`flexgraph_comm::Fabric`],
//! with the versioned embedding cache consistent-hash sharded across
//! replicas by [`ShardMap`].
//!
//! # Topology
//!
//! Fabric rank 0 is the **driver**: it owns the router (admission,
//! quotas, micro-batching, trace windows) and never crashes. Ranks
//! `1..=R` are **replica workers**, each a thread holding every
//! tenant's immutable serving context ([`PinnedContext`] inputs), the
//! full snapshot chain, and a shard-local embedding cache. The driver
//! closes batches via [`Router::close_due`] — pinning the checkpoint
//! version and the per-request latency *at close time* — then splits
//! each batch by `ShardMap::owner_of(key_of(tenant, vertex))` and ships
//! one [`ServeFrame::Exec`] per involved replica.
//!
//! # The no-lost-response guarantee
//!
//! Every admitted request receives **exactly one** response whose bytes
//! equal single-process [`crate::model::serve_one`] on the pinned
//! snapshot, for any [`ChaosSchedule`] — `tests/replica_chaos.rs`
//! proves it over seeds × {crash, delay, reorder}. The argument:
//!
//! * *At-least-once*: the driver tracks an `answered` map per batch and
//!   re-drives only unanswered requests. A replica crash surfaces as
//!   [`CommError::PeerUnreachable`] on the driver; [`run_tier`] then
//!   joins the old fleet (survivors unwind on the crashed replica's
//!   failure notice), removes the crashed replica from the shard map,
//!   spawns a **fresh** fabric over the survivors, replays the swap
//!   history so new fleets hold every version, and retries.
//! * *At-most-once*: within a fabric the transport dedups duplicates
//!   and delivers per-link FIFO; across fabrics nothing survives — the
//!   only state carried over is the `answered` map itself, and the
//!   driver never re-sends an answered request id.
//! * *Bitwise*: replicas run [`execute_pinned`] — the same code path a
//!   local [`crate::Server`] runs — against the pinned snapshot, and
//!   per-root independence (the PR 6 parity invariant) makes the bytes
//!   independent of sub-batch composition and cache state. Latencies
//!   are fixed at batch close, so they are invariant to replica count,
//!   fault schedule, and retransmission timing.
//!
//! # Version-pinned routing
//!
//! A rolling swap never mixes versions: the version rides in the
//! `Exec` frame, replicas execute against exactly that snapshot (they
//! keep the whole chain), and the driver asserts every `Rows` response
//! echoes the pinned version. A batch closed before a swap therefore
//! computes on the old version even if it executes after the swap
//! lands — same as the `Arc`-pinning contract of the single-process
//! server.
//!
//! # What is (and is not) byte-stable
//!
//! The [`TierRun::transcript`] — admission events in op order plus all
//! responses sorted by `(tenant, request id)` — is byte-identical
//! across `FLEXGRAPH_THREADS`, replica counts, and chaos seeds for a
//! fixed workload. Cache-hit flags and window cache counters are
//! **excluded**: hit patterns are shard-local, so they legitimately
//! vary with replica count and crash timing. They are still reported
//! (per-response `cache_hit`, per-tenant windows) for observability.

use crate::router::{ClosedBatch, Router, TenantId, TenantQuota};
use crate::server::{execute_pinned, PinnedContext, Server, ServerConfig};
use crate::{AdmissionPlanner, ModelSnapshot, ServeError, ServeFeats};
use flexgraph_comm::{
    decode_serve_frame, ChaosSchedule, CommError, CostModel, Fabric, RetryPolicy, ServeFrame,
    WorkerComm,
};
use flexgraph_engine::MemoryBudget;
use flexgraph_graph::Graph;
use flexgraph_obs::TenantServeRecord;
use flexgraph_tensor::{QuantConfig, Tensor};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Driver → replica control frames.
const TAG_CTRL: u32 = 0x5E01;
/// Replica → driver responses.
const TAG_RESP: u32 = 0x5E02;

/// One tenant of the tier: everything needed to build both the
/// driver-side [`Server`] and each replica's serving context.
#[derive(Clone)]
pub struct TierTenant {
    /// Tenant id.
    pub tenant: TenantId,
    /// The tenant's served graph.
    pub graph: Graph,
    /// The tenant's f32 feature matrix (quantized per `server.quant`).
    pub feats: Tensor,
    /// Server policy (batcher, model, cache, budget, quant).
    pub server: ServerConfig,
    /// Router-level quota/SLO policy.
    pub quota: TenantQuota,
    /// Seed of the initial model snapshot (version 1).
    pub init_seed: u64,
}

/// One step of a deterministic tier workload.
#[derive(Clone, Copy, Debug)]
pub enum TierOp {
    /// Submit a request for `vertex` to `tenant`.
    Submit {
        /// Target tenant.
        tenant: TenantId,
        /// Requested vertex.
        vertex: u32,
    },
    /// Advance one tenant's virtual clock.
    Idle {
        /// Target tenant.
        tenant: TenantId,
        /// Ticks to advance.
        ticks: u64,
    },
    /// Hot-swap `tenant` to a fresh checkpoint derived from
    /// `checkpoint_seed` (see [`swap_bytes_for`]).
    Swap {
        /// Target tenant.
        tenant: TenantId,
        /// Seed of the swapped-in parameters.
        checkpoint_seed: u64,
    },
}

/// Tier deployment knobs.
#[derive(Clone, Copy, Debug)]
pub struct TierConfig {
    /// Number of replica workers (fabric ranks `1..=replicas`).
    pub replicas: usize,
    /// Consistent-hash ring slots.
    pub slots: usize,
    /// Shard map seed.
    pub shard_seed: u64,
    /// Transport retry/failure-detection policy.
    pub retry: RetryPolicy,
    /// Fault schedule for the *first* fabric; recovery fleets run
    /// `chaos.without_crash()` (the PR 2 idiom — one crash per
    /// schedule, delays/reorders persist).
    pub chaos: ChaosSchedule,
    /// Recovery budget: the run panics after this many replica
    /// crashes rather than spinning.
    pub max_recoveries: usize,
}

impl Default for TierConfig {
    fn default() -> Self {
        Self {
            replicas: 2,
            slots: 64,
            shard_seed: 0xF1EE,
            retry: RetryPolicy::snappy(),
            chaos: ChaosSchedule::default(),
            max_recoveries: 2,
        }
    }
}

/// One answered request, labelled with its tenant.
#[derive(Clone, Debug, PartialEq)]
pub struct TierResponse {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Id assigned at submission (per-tenant monotonic).
    pub request_id: u64,
    /// The requested vertex.
    pub vertex: u32,
    /// The checkpoint version pinned at batch close.
    pub model_version: u64,
    /// The `classes`-wide output row — bitwise equal to
    /// [`crate::model::serve_one`] on the pinned snapshot.
    pub output: Vec<f32>,
    /// Virtual-time latency, fixed at batch close.
    pub latency_vt: u64,
    /// Whether some replica answered this straight from its shard of
    /// the cache. **Not** byte-stable across replica counts.
    pub cache_hit: bool,
}

/// Everything a finished tier run produced.
pub struct TierRun {
    /// All responses, sorted by `(tenant, request id)`.
    pub responses: Vec<TierResponse>,
    /// The canonical transcript: admission/swap events in op order,
    /// then one line per response in `(tenant, request id)` order.
    /// Byte-identical across thread counts, replica counts, and chaos
    /// seeds for a fixed workload.
    pub transcript: Vec<String>,
    /// Final per-tenant trace windows (ascending tenant). Cache
    /// counters here are shard-local and *not* byte-stable.
    pub windows: Vec<TenantServeRecord>,
    /// Replica crashes survived.
    pub recoveries: usize,
}

/// Checkpoint bytes for a fresh parameter set seeded with `seed` under
/// `model` — the workload-side half of [`TierOp::Swap`].
pub fn swap_bytes_for(model: &crate::ServeModelConfig, seed: u64) -> Vec<u8> {
    flexgraph_models::checkpoint::save(ModelSnapshot::init(model, seed).params())
}

/// The immutable per-tenant serving context shared with every replica
/// thread.
struct TenantRuntime {
    graph: Graph,
    feats: ServeFeats,
    model: crate::ServeModelConfig,
    quant: QuantConfig,
    budget: MemoryBudget,
    cache_bytes: usize,
    init_seed: u64,
    planner: Option<AdmissionPlanner>,
}

impl TenantRuntime {
    fn ctx(&self) -> PinnedContext<'_> {
        PinnedContext {
            graph: &self.graph,
            feats: &self.feats,
            model: &self.model,
            quant: self.quant,
            planner: self.planner.as_ref(),
            budget: &self.budget,
        }
    }

    fn cache(&self) -> Mutex<crate::EmbeddingCache> {
        let mode = if self.quant == QuantConfig::F32 {
            crate::CacheMode::F32
        } else {
            crate::CacheMode::Bf16
        };
        Mutex::new(crate::EmbeddingCache::with_mode(self.cache_bytes, mode))
    }
}

type SharedRuntimes = Arc<BTreeMap<TenantId, TenantRuntime>>;

/// One spawned fabric generation: the driver's comm endpoint, the
/// replica threads, and the replica-id → fabric-rank labelling.
struct Fleet {
    driver: WorkerComm,
    handles: Vec<JoinHandle<()>>,
    rank_of: BTreeMap<u64, usize>,
    _fabric: Fabric,
}

/// The replica worker loop: serve `Exec`/`Swap` frames until a
/// `Shutdown` frame or any transport error (crash, abort) unwinds it.
fn replica_main(mut comm: WorkerComm, shared: SharedRuntimes) {
    if comm.barrier().is_err() {
        return;
    }
    // Per-tenant snapshot chains (every installed version) and
    // shard-local caches.
    let mut snaps: BTreeMap<TenantId, BTreeMap<u64, Arc<ModelSnapshot>>> = BTreeMap::new();
    let mut caches: BTreeMap<TenantId, Mutex<crate::EmbeddingCache>> = BTreeMap::new();
    for (&tenant, rt) in shared.iter() {
        let base = ModelSnapshot::init_quant(&rt.model, rt.init_seed, rt.quant);
        snaps.insert(tenant, BTreeMap::from([(base.version(), Arc::new(base))]));
        caches.insert(tenant, rt.cache());
    }
    loop {
        let msg = match comm.recv_tag_from(0, TAG_CTRL) {
            Ok(m) => m,
            Err(_) => return,
        };
        match decode_serve_frame(&msg.payload) {
            ServeFrame::Shutdown => return,
            ServeFrame::Swap {
                tenant,
                version,
                checkpoint,
            } => {
                let chain = snaps.get_mut(&tenant).expect("unknown tenant in swap");
                let prev = chain
                    .get(&(version - 1))
                    .expect("swap base version not installed");
                let next = prev
                    .with_checkpoint(&checkpoint)
                    .expect("replica rejected checkpoint");
                assert_eq!(next.version(), version, "swap version drift");
                chain.insert(version, Arc::new(next));
            }
            ServeFrame::Exec {
                round,
                tenant,
                version,
                requests,
            } => {
                let rt = shared.get(&tenant).expect("unknown tenant in exec");
                let snap = snaps[&tenant]
                    .get(&version)
                    .expect("pinned version not installed")
                    .clone();
                let cache = caches.get(&tenant).expect("tenant cache");
                let vertices: Vec<u32> = requests.iter().map(|&(_, v)| v).collect();
                let exec = execute_pinned(&rt.ctx(), &snap, cache, &vertices);
                let reply = match exec.outcome {
                    Ok(rows) => ServeFrame::Rows {
                        round,
                        tenant,
                        version,
                        dim: rt.model.classes,
                        rows: requests
                            .iter()
                            .zip(rows.outputs)
                            .zip(rows.cache_hit)
                            .map(|((&(id, _), out), hit)| (id, hit, out))
                            .collect(),
                        cache_hits: exec.cache_hits,
                        cache_misses: exec.cache_misses,
                    },
                    Err(ServeError::AdmissionDenied { needed, budget }) => ServeFrame::Shed {
                        round,
                        tenant,
                        needed: needed as u64,
                        budget: budget as u64,
                    },
                    Err(e) => panic!("replica execution failed: {e}"),
                };
                if comm.send(0, TAG_RESP, reply.encode()).is_err() {
                    return;
                }
            }
            other => panic!("unexpected control frame: {other:?}"),
        }
    }
}

/// Driver-side state of the tier run.
struct Driver {
    shared: SharedRuntimes,
    router: Router,
    live: Vec<u64>,
    shard: crate::ShardMap,
    chaos: ChaosSchedule,
    retry: RetryPolicy,
    max_recoveries: usize,
    fleet: Option<Fleet>,
    /// Every applied swap, in order: `(tenant, version, bytes)` —
    /// replayed into each fresh fleet so recovery replicas hold the
    /// full chain.
    swap_history: Vec<(TenantId, u64, Vec<u8>)>,
    round: u64,
    recoveries: usize,
    events: Vec<String>,
    responses: Vec<TierResponse>,
}

impl Driver {
    /// Spawns a fresh fabric over the current survivor set and replays
    /// the swap history into it.
    fn spawn_fleet(&mut self) -> Result<(), CommError> {
        let (fabric, mut comms) = Fabric::with_retry(
            self.live.len() + 1,
            CostModel::accounting_only(),
            self.retry,
        );
        fabric.set_chaos(self.chaos);
        let driver = comms.remove(0);
        let handles = comms
            .into_iter()
            .map(|comm| {
                let shared = self.shared.clone();
                std::thread::spawn(move || replica_main(comm, shared))
            })
            .collect();
        let rank_of = self
            .live
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i + 1))
            .collect();
        let mut fleet = Fleet {
            driver,
            handles,
            rank_of,
            _fabric: fabric,
        };
        fleet.driver.barrier()?;
        for (tenant, version, bytes) in &self.swap_history {
            let frame = ServeFrame::Swap {
                tenant: *tenant,
                version: *version,
                checkpoint: bytes.clone(),
            };
            for rank in 1..=self.live.len() {
                fleet.driver.send(rank, TAG_CTRL, frame.encode())?;
            }
        }
        self.fleet = Some(fleet);
        Ok(())
    }

    /// The fabric rank of the replica a transport error implicates.
    fn crashed_rank(&self, err: &CommError) -> usize {
        match err {
            CommError::PeerUnreachable { rank } if *rank >= 1 => *rank,
            _ => match self.chaos.crash {
                Some(cp) if cp.rank >= 1 && cp.rank <= self.live.len() => cp.rank,
                _ => panic!("cannot identify crashed replica from {err}"),
            },
        }
    }

    /// Tears down the current fleet, removes the crashed replica from
    /// the shard map, and disarms the chaos crash for the next fleet.
    fn recover(&mut self, err: &CommError) {
        self.recoveries += 1;
        assert!(
            self.recoveries <= self.max_recoveries,
            "replica recovery budget exhausted ({err})"
        );
        let rank = self.crashed_rank(err);
        let crashed = self.live[rank - 1];
        if let Some(fleet) = self.fleet.take() {
            // Survivors unwind from their blocking recv on the crashed
            // replica's failure notice (or the driver's abort, when
            // patience ran out first).
            drop(fleet.driver);
            for h in fleet.handles {
                let _ = h.join();
            }
        }
        self.live.retain(|&id| id != crashed);
        assert!(!self.live.is_empty(), "every replica crashed");
        self.shard.remove_replica(crashed);
        self.chaos = self.chaos.without_crash();
    }

    /// One dispatch attempt over the current fleet: ship every
    /// unanswered request to its shard owner, collect one response per
    /// involved replica (ascending replica id), and record rows into
    /// `answered`. Any transport error aborts the attempt for recovery.
    #[allow(clippy::too_many_arguments)]
    fn try_dispatch(
        &mut self,
        batch: &ClosedBatch,
        answered: &mut BTreeMap<u64, (bool, Vec<f32>)>,
        hits: &mut u64,
        misses: &mut u64,
        shed: &mut Option<(u64, u64)>,
    ) -> Result<(), CommError> {
        let mut by_owner: BTreeMap<u64, Vec<(u64, u32)>> = BTreeMap::new();
        for r in &batch.requests {
            if answered.contains_key(&r.id) {
                continue;
            }
            let owner = self
                .shard
                .owner_of(crate::ShardMap::key_of(batch.tenant, r.vertex));
            by_owner.entry(owner).or_default().push((r.id, r.vertex));
        }
        if by_owner.is_empty() {
            return Ok(());
        }
        self.round += 1;
        let round = self.round;
        let fleet = self.fleet.as_mut().expect("fleet spawned");
        for (owner, reqs) in &by_owner {
            let frame = ServeFrame::Exec {
                round,
                tenant: batch.tenant,
                version: batch.version,
                requests: reqs.clone(),
            };
            fleet
                .driver
                .send(fleet.rank_of[owner], TAG_CTRL, frame.encode())?;
        }
        for owner in by_owner.keys() {
            let msg = fleet.driver.recv_tag_from(fleet.rank_of[owner], TAG_RESP)?;
            match decode_serve_frame(&msg.payload) {
                ServeFrame::Rows {
                    round: r,
                    tenant,
                    version,
                    dim: _,
                    rows,
                    cache_hits,
                    cache_misses,
                } => {
                    assert_eq!(r, round, "stale response round");
                    assert_eq!(tenant, batch.tenant, "cross-tenant response");
                    // The no-version-mixing check: every response of a
                    // batch carries the version pinned at close.
                    assert_eq!(version, batch.version, "version-mixed response");
                    *hits += cache_hits;
                    *misses += cache_misses;
                    for (id, hit, out) in rows {
                        let dup = answered.insert(id, (hit, out));
                        assert!(dup.is_none(), "duplicate response for request {id}");
                    }
                }
                ServeFrame::Shed {
                    round: r,
                    needed,
                    budget,
                    ..
                } => {
                    assert_eq!(r, round, "stale shed round");
                    // Keep draining the remaining replicas so no stale
                    // response lingers for the next round.
                    *shed = Some((needed, budget));
                }
                other => panic!("unexpected response frame: {other:?}"),
            }
        }
        Ok(())
    }

    /// Dispatches one closed batch to completion: retries across
    /// replica crashes until every request is answered exactly once
    /// (or the batch is shed), then accounts the tenant's window.
    fn dispatch(&mut self, batch: ClosedBatch) {
        if batch.requests.is_empty() {
            return;
        }
        let latencies: Vec<u64> = batch
            .requests
            .iter()
            .map(|r| batch.close_vt - r.submitted_vt)
            .collect();
        let mut answered: BTreeMap<u64, (bool, Vec<f32>)> = BTreeMap::new();
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut shed: Option<(u64, u64)> = None;
        loop {
            let attempt = if self.fleet.is_none() {
                self.spawn_fleet()
            } else {
                Ok(())
            }
            .and_then(|()| {
                self.try_dispatch(&batch, &mut answered, &mut hits, &mut misses, &mut shed)
            });
            match attempt {
                Ok(()) => break,
                Err(e) => self.recover(&e),
            }
        }
        if let Some((needed, budget)) = shed {
            self.router
                .note_remote_shed(batch.tenant, batch.requests.len())
                .expect("tenant attached");
            self.events.push(format!(
                "{{\"k\":\"mtd\",\"tenant\":{},\"n\":{},\"needed\":{needed},\"budget\":{budget}}}",
                batch.tenant,
                batch.requests.len()
            ));
            return;
        }
        self.router
            .note_remote_batch(batch.tenant, batch.requests.len(), hits, misses, &latencies)
            .expect("tenant attached");
        for (r, &latency_vt) in batch.requests.iter().zip(&latencies) {
            let (cache_hit, output) = answered
                .remove(&r.id)
                .expect("admitted request lost its response");
            self.responses.push(TierResponse {
                tenant: batch.tenant,
                request_id: r.id,
                vertex: r.vertex,
                model_version: batch.version,
                output,
                latency_vt,
                cache_hit,
            });
        }
        assert!(answered.is_empty(), "orphan responses in batch");
    }

    /// Applies one workload op and pumps every batch it made due.
    fn apply(&mut self, op: &TierOp) {
        match *op {
            TierOp::Submit { tenant, vertex } => match self.router.submit(tenant, vertex) {
                Ok(_) => {}
                Err(ServeError::QuotaExceeded { quota, .. }) => {
                    self.events.push(format!(
                        "{{\"k\":\"mtq\",\"tenant\":{tenant},\"vertex\":{vertex},\"quota\":{quota}}}"
                    ));
                }
                Err(e @ (ServeError::QueueFull { .. } | ServeError::UnknownVertex { .. })) => {
                    self.events.push(format!(
                        "{{\"k\":\"mtx\",\"tenant\":{tenant},\"vertex\":{vertex},\"err\":\"{e}\"}}"
                    ));
                }
                Err(e) => panic!("submit failed: {e}"),
            },
            TierOp::Idle { tenant, ticks } => {
                self.router.tick(tenant, ticks).expect("tenant attached");
            }
            TierOp::Swap {
                tenant,
                checkpoint_seed,
            } => {
                let model = self
                    .router
                    .with_server(tenant, |s| s.config().model)
                    .expect("tenant attached");
                let bytes = swap_bytes_for(&model, checkpoint_seed);
                let version = self
                    .router
                    .swap_checkpoint(tenant, &bytes)
                    .expect("driver swap");
                self.swap_history.push((tenant, version, bytes.clone()));
                self.events.push(format!(
                    "{{\"k\":\"mts\",\"tenant\":{tenant},\"ver\":{version}}}"
                ));
                // Roll the swap across the current fleet; a failure
                // here recovers, and the fresh fleet replays history
                // (which already includes this swap).
                if self.fleet.is_some() {
                    let frame = ServeFrame::Swap {
                        tenant,
                        version,
                        checkpoint: bytes,
                    };
                    let send_all = |fleet: &mut Fleet, live: usize| -> Result<(), CommError> {
                        for rank in 1..=live {
                            fleet.driver.send(rank, TAG_CTRL, frame.encode())?;
                        }
                        Ok(())
                    };
                    let live = self.live.len();
                    if let Err(e) = send_all(self.fleet.as_mut().expect("fleet"), live) {
                        self.recover(&e);
                    }
                }
            }
        }
        let due = self.router.close_due();
        for batch in due {
            self.dispatch(batch);
        }
    }

    /// Orderly shutdown: flush remaining batches, stop replicas, join.
    fn finish(&mut self) {
        let rest = self.router.close_all();
        for batch in rest {
            self.dispatch(batch);
        }
        if let Some(mut fleet) = self.fleet.take() {
            for rank in 1..=self.live.len() {
                let _ = fleet
                    .driver
                    .send(rank, TAG_CTRL, ServeFrame::Shutdown.encode());
            }
            drop(fleet.driver);
            for h in fleet.handles {
                let _ = h.join();
            }
        }
    }
}

/// Runs a deterministic multi-tenant workload against a replicated
/// tier, returning the sorted responses, the canonical transcript, the
/// per-tenant trace windows, and the number of replica crashes
/// survived.
///
/// # Panics
///
/// Panics on wiring bugs (unknown tenants in ops, replica-side
/// execution failures) and on exhausting `cfg.max_recoveries`.
pub fn run_tier(tenants: &[TierTenant], ops: &[TierOp], cfg: &TierConfig) -> TierRun {
    assert!(cfg.replicas >= 1, "tier needs at least one replica");
    let router = Router::new();
    let mut shared = BTreeMap::new();
    for t in tenants {
        let snapshot = ModelSnapshot::init_quant(&t.server.model, t.init_seed, t.server.quant);
        router
            .attach(
                t.tenant,
                Server::new(t.graph.clone(), t.feats.clone(), t.server, snapshot),
                t.quota,
            )
            .expect("unique tenant ids");
        let planner = (t.server.budget.bytes != usize::MAX)
            .then(|| AdmissionPlanner::new(&t.graph, &t.server.model));
        shared.insert(
            t.tenant,
            TenantRuntime {
                graph: t.graph.clone(),
                feats: ServeFeats::new(t.feats.clone(), t.server.quant),
                model: t.server.model,
                quant: t.server.quant,
                budget: t.server.budget,
                cache_bytes: t.server.cache_bytes,
                init_seed: t.init_seed,
                planner,
            },
        );
    }
    let live: Vec<u64> = (1..=cfg.replicas as u64).collect();
    let shard = crate::ShardMap::new(cfg.shard_seed, cfg.slots, &live);
    let mut driver = Driver {
        shared: Arc::new(shared),
        router,
        live,
        shard,
        chaos: cfg.chaos,
        retry: cfg.retry,
        max_recoveries: cfg.max_recoveries,
        fleet: None,
        swap_history: Vec::new(),
        round: 0,
        recoveries: 0,
        events: Vec::new(),
        responses: Vec::new(),
    };
    for op in ops {
        driver.apply(op);
    }
    driver.finish();

    driver.responses.sort_by_key(|r| (r.tenant, r.request_id));
    let mut transcript = driver.events;
    for r in &driver.responses {
        let bits: Vec<String> = r.output.iter().map(|x| x.to_bits().to_string()).collect();
        transcript.push(format!(
            "{{\"k\":\"mtr\",\"tenant\":{},\"id\":{},\"vertex\":{},\"ver\":{},\"lat\":{},\"out\":[{}]}}",
            r.tenant,
            r.request_id,
            r.vertex,
            r.model_version,
            r.latency_vt,
            bits.join(",")
        ));
    }
    let windows = driver.router.emit_trace_windows();
    TierRun {
        responses: driver.responses,
        transcript,
        windows,
        recoveries: driver.recoveries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::serve_one_quant;
    use crate::BatcherConfig;

    fn tenant(id: TenantId, graph_seed: u64) -> TierTenant {
        let ds = flexgraph_graph::gen::community(60, 3, 4, 1, 8, graph_seed);
        let model = crate::ServeModelConfig {
            in_dim: ds.feature_dim(),
            classes: ds.num_classes,
            ..Default::default()
        };
        TierTenant {
            tenant: id,
            graph: ds.graph,
            feats: ds.features,
            server: ServerConfig {
                batcher: BatcherConfig {
                    max_batch: 4,
                    max_delay: 3,
                    queue_cap: 256,
                },
                model,
                ..Default::default()
            },
            quota: TenantQuota::default(),
            init_seed: 77,
        }
    }

    fn workload() -> Vec<TierOp> {
        let mut ops = Vec::new();
        for i in 0..24u32 {
            ops.push(TierOp::Submit {
                tenant: 1 + (i as u64 % 2),
                vertex: (i * 7) % 60,
            });
            if i % 5 == 4 {
                ops.push(TierOp::Idle {
                    tenant: 1,
                    ticks: 2,
                });
            }
            if i == 11 {
                ops.push(TierOp::Swap {
                    tenant: 2,
                    checkpoint_seed: 123,
                });
            }
        }
        ops
    }

    #[test]
    fn tier_matches_serve_one_and_is_replica_count_invariant() {
        let tenants = vec![tenant(1, 5), tenant(2, 6)];
        let ops = workload();
        let run2 = run_tier(&tenants, &ops, &TierConfig::default());
        let run3 = run_tier(
            &tenants,
            &ops,
            &TierConfig {
                replicas: 3,
                ..Default::default()
            },
        );
        assert!(!run2.responses.is_empty());
        assert_eq!(run2.transcript, run3.transcript);
        // Every response's bytes equal single-process serve_one on the
        // pinned snapshot.
        for t in &tenants {
            let mut snaps = vec![ModelSnapshot::init_quant(
                &t.server.model,
                t.init_seed,
                t.server.quant,
            )];
            let bytes = swap_bytes_for(&t.server.model, 123);
            snaps.push(snaps[0].with_checkpoint(&bytes).unwrap());
            let feats = ServeFeats::new(t.feats.clone(), t.server.quant);
            for r in run2.responses.iter().filter(|r| r.tenant == t.tenant) {
                let snap = snaps
                    .iter()
                    .find(|s| s.version() == r.model_version)
                    .expect("known version");
                let want = serve_one_quant(
                    &t.graph,
                    &feats,
                    snap,
                    &t.server.model,
                    r.vertex,
                    &t.server.budget,
                )
                .unwrap();
                assert_eq!(r.output, want, "tier output differs from serve_one");
            }
        }
    }

    #[test]
    fn quota_rejections_are_counted_and_transcribed() {
        let mut t = tenant(1, 9);
        t.quota = TenantQuota {
            window_quota: 3,
            slo_vt: 1,
        };
        let ops: Vec<TierOp> = (0..6)
            .map(|i| TierOp::Submit {
                tenant: 1,
                vertex: i * 3,
            })
            .collect();
        let run = run_tier(&[t], &ops, &TierConfig::default());
        assert_eq!(run.responses.len(), 3);
        let quota_lines = run
            .transcript
            .iter()
            .filter(|l| l.contains("\"k\":\"mtq\""))
            .count();
        assert_eq!(quota_lines, 3);
        assert_eq!(run.windows.len(), 1);
        assert_eq!(run.windows[0].quota_rejected, 3);
        assert_eq!(run.windows[0].serve.served, 3);
    }
}
