//! `dist-gcn`: repeated `distributed_epoch` calls, FlexGraph pipelined
//! mode, k = 2 workers on the threaded runtime, one compute thread each.
//!
//! Direct-neighbour sum plus `relu(agg·W)` over a dense community
//! (reddit-like) graph. It is the only workload that runs
//! `comm::fabric` and `dist::pipeline`; every other workload bypasses
//! them.

use crate::report::{peak_rss_mb, Report, Summary};
use crate::spans::Recorder;
use crate::{bitwise_eq, median, run_for, set_up, Args, Scratch};
use flexgraph::dist::{build_leaf_sync, distributed_epoch, make_shards, DistConfig, EpochReport};
use flexgraph::dist::{DistMode, Shard};
use flexgraph::engine::{hierarchical_aggregate, AggrOp, AggrPlan, MemoryBudget, Strategy};
use flexgraph::graph::gen::{community, Dataset};
use flexgraph::graph::partition::hash_partition;
use flexgraph::hdg::build::from_direct_neighbors;
use flexgraph::obs::{PartitionRecord, Stage};
use flexgraph::tensor::{xavier_uniform, Tensor};
use rand::SeedableRng;
use std::time::Instant;

/// Workers.
const K: usize = 2;
/// Output width of the update weight.
const OUT_DIM: usize = 32;
/// Untimed epochs after the set-up epoch.
const WARMUP: usize = 3;
/// Timed epochs per phase at least.
const MIN_EPOCHS: usize = 30;
/// Parity bound against the in-RAM engine, as the repository's
/// distributed parity suite uses.
const PARITY: f32 = 1e-3;

fn dataset(args: &Args) -> Dataset {
    // reddit_like's shape: 8,192 vertices, 16 communities, degree ≈ 55.
    let n = ((8_192.0 * args.scale) as usize).max(256);
    community(n, 16, 22, 6, 64, args.seed)
}

fn dist_config(ds: &Dataset, seed: u64) -> DistConfig {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xd157);
    DistConfig {
        mode: DistMode::FlexGraph { pipeline: true },
        leaf_op: AggrOp::Sum,
        plan: AggrPlan::flat(AggrOp::Sum),
        update_weight: Some(xavier_uniform(&mut rng, ds.feature_dim(), OUT_DIM)),
        ..DistConfig::default()
    }
}

fn shards(ds: &Dataset) -> Vec<Shard> {
    let part = hash_partition(&ds.graph, K);
    make_shards(ds.graph.num_vertices(), &ds.features, &part, |roots| {
        from_direct_neighbors(&ds.graph, roots.to_vec())
    })
}

/// What the in-RAM engine computes for the same epoch.
fn reference(ds: &Dataset, cfg: &DistConfig) -> Result<Tensor, String> {
    let roots: Vec<u32> = (0..ds.graph.num_vertices() as u32).collect();
    let hdg = from_direct_neighbors(&ds.graph, roots);
    let agg = hierarchical_aggregate(
        &hdg,
        &ds.features,
        &cfg.plan,
        Strategy::Ha,
        &MemoryBudget::unlimited(),
    )
    .map_err(|e| format!("in-RAM reference: {e:?}"))?;
    let mut out = agg
        .features
        .matmul(cfg.update_weight.as_ref().expect("update weight set"));
    out.relu_inplace();
    Ok(out)
}

/// Epoch times of one untraced phase, and how many epochs needed a
/// re-drive.
struct Phase {
    epoch_s: Vec<f64>,
    redriven: u64,
}

fn check_stable(rep: &EpochReport, first: &Tensor, e: usize) -> Result<(), String> {
    if bitwise_eq(rep.features.data(), first.data()) {
        Ok(())
    } else {
        Err(format!("epoch {e} features differ from epoch 0's"))
    }
}

/// Runs timed epochs, checking each against `first` bit for bit.
fn untraced(
    ds: &Dataset,
    sh: &[Shard],
    cfg: &DistConfig,
    first: &Tensor,
    seconds: f64,
) -> Result<Phase, String> {
    for e in 1..=WARMUP {
        check_stable(&distributed_epoch(&ds.graph, sh, cfg), first, e)?;
    }
    let mut redriven = 0;
    let epoch_s = run_for(seconds, MIN_EPOCHS, |i| {
        let t0 = Instant::now();
        let rep = distributed_epoch(&ds.graph, sh, cfg);
        let dt = t0.elapsed().as_secs_f64();
        redriven += u64::from(rep.recoveries > 0);
        check_stable(&rep, first, WARMUP + 1 + i)?;
        Ok(dt)
    })?;
    Ok(Phase { epoch_s, redriven })
}

pub fn run(args: &Args, scratch: &Scratch) -> Result<Report, String> {
    let ds = dataset(args);
    let cfg = dist_config(&ds, args.seed);
    let mut rep = Report::default();
    rep.meta(
        "graph",
        format!(
            "{{\"vertices\": {}, \"edges\": {}, \"workers\": {K}}}",
            ds.graph.num_vertices(),
            ds.graph.num_edges()
        ),
    );

    if !args.trace {
        // Set-up: partition, shard (HDGs + feature rows), first epoch.
        let mut build = |()| {
            let sh = shards(&ds);
            let first = distributed_epoch(&ds.graph, &sh, &cfg).features;
            Ok((sh, first))
        };
        let ((sh, first), mut setups) = set_up(|| (), &mut build)?;
        let phase = untraced(&ds, &sh, &cfg, &first, args.seconds)?;
        rep.set("peak_rss_mb", peak_rss_mb());
        let diff = first.max_abs_diff(&reference(&ds, &cfg)?);
        if diff >= PARITY {
            return Err(format!(
                "max |dist - in-RAM| = {diff} is not below {PARITY}"
            ));
        }
        drop((sh, first));
        setups.extend(set_up(|| (), &mut build)?.1);
        rep.setup_times(&setups);
        rep.op_times(&Summary::of(&phase.epoch_s));
        rep.attempted = phase.epoch_s.len() as u64;
        rep.failed = phase.redriven;
        rep.set(
            "ok_frac",
            1.0 - phase.redriven as f64 / phase.epoch_s.len() as f64,
        );
        return Ok(rep);
    }

    let half = args.seconds / 2.0;
    let plain = {
        let sh = shards(&ds);
        let first = distributed_epoch(&ds.graph, &sh, &cfg).features;
        untraced(&ds, &sh, &cfg, &first, half)?
    };

    let mut rec = Recorder::new();
    rec.set_run(1);
    let setup = rec.enter("dist.setup");
    let sh = rec.time("dist.shard", || shards(&ds));
    let first = rec
        .time("dist.epoch", || distributed_epoch(&ds.graph, &sh, &cfg))
        .features;
    rec.exit(setup);
    rec.set_run(2);
    for e in 1..=WARMUP {
        check_stable(&distributed_epoch(&ds.graph, &sh, &cfg), &first, e)?;
    }
    rec.set_run(3);
    let mut reports = Vec::new();
    run_for(half, MIN_EPOCHS, |i| {
        rec.time("dist.leaf_sync_plan", || build_leaf_sync(&sh));
        let open = rec.enter("dist.epoch");
        let mut r = distributed_epoch(&ds.graph, &sh, &cfg);
        let dt = rec.exit(open);
        check_stable(&r, &first, WARMUP + 1 + i)?;
        // Keep the counters, not the features.
        r.features = Tensor::zeros(0, 0);
        reports.push(r);
        Ok(dt)
    })?;
    rec.write(&scratch.file("trace.jsonl"))
        .map_err(|e| format!("writing trace: {e}"))?;

    let epochs = reports.len() as f64;
    let mean_of = |f: &dyn Fn(&EpochReport) -> f64| reports.iter().map(f).sum::<f64>() / epochs;
    // Slowest partition's value of `f`, seconds from nanoseconds.
    let slowest = |r: &EpochReport, f: &dyn Fn(&PartitionRecord) -> u64| {
        r.telemetry.partitions.values().map(f).max().unwrap_or(0) as f64 * 1e-9
    };
    let stage_max = |s: Stage| mean_of(&|r| slowest(r, &|p| p.stage(s).wall_ns));
    let skew = mean_of(&|r| {
        let work: Vec<f64> = r
            .telemetry
            .partitions
            .values()
            .map(|p| p.work_total() as f64)
            .collect();
        let mean = work.iter().sum::<f64>() / work.len().max(1) as f64;
        work.iter().copied().fold(0.0, f64::max) / mean.max(1.0)
    });
    let layers = rec.self_times(Some(3));
    let epoch_s = layers["dist.epoch"].total_s / epochs;
    let plan_s = layers["dist.leaf_sync_plan"].total_s / epochs;
    let busiest_s = mean_of(&|r| slowest(r, &|p| p.wall_total_ns()));
    rep.set(
        "dist.shard_s",
        rec.self_times(Some(1))["dist.shard"].total_s,
    );
    rep.set("dist.leaf_sync_plan_s", plan_s);
    rep.set("dist.leaf_send_s", stage_max(Stage::LeafSend));
    rep.set("dist.leaf_local_s", stage_max(Stage::LeafLocal));
    rep.set("dist.leaf_fold_s", stage_max(Stage::LeafFold));
    rep.set("dist.upper_s", stage_max(Stage::Upper));
    rep.set("dist.update_s", stage_max(Stage::Update));
    rep.set("dist.work_skew", skew);
    rep.set("dist.unaccounted_s", epoch_s - plan_s - busiest_s);
    rep.set("comm.bytes_per_epoch", mean_of(&|r| r.comm_bytes as f64));
    rep.set(
        "comm.messages_per_epoch",
        mean_of(&|r| r.comm_messages as f64),
    );
    rep.set("comm.retries_per_epoch", mean_of(&|r| r.retries as f64));
    rep.set(
        "comm.redeliveries_per_epoch",
        mean_of(&|r| r.redeliveries as f64),
    );
    rep.set(
        "dist.recoveries",
        reports.iter().map(|r| f64::from(r.recoveries)).sum(),
    );
    let traced_p50 = median(&rec.durations("dist.epoch", 3));
    rep.set(
        "obs.trace_overhead_frac",
        traced_p50 / median(&plain.epoch_s) - 1.0,
    );
    rep.meta(
        "traced_epochs",
        format!(
            "{{\"untraced\": {}, \"traced\": {epochs}}}",
            plain.epoch_s.len()
        ),
    );
    rep.attempted = (plain.epoch_s.len() + reports.len()) as u64;
    rep.failed = plain.redriven + reports.iter().filter(|r| r.recoveries > 0).count() as u64;
    Ok(rep)
}
