//! `train-pinsage` and `train-magnn`: single-machine `Trainer` epochs.
//!
//! PinSage reruns NeighborSelection (random walks plus an HDG build)
//! every epoch; MAGNN selects metapath instances once, inside set-up, and
//! then spends its epochs in hierarchical aggregation and its backward.
//! The two split an epoch in opposite ways, so a change to selection or
//! to the aggregation kernels shows on one and not the other.

use crate::report::{peak_rss_mb, Report, Summary};
use crate::spans::Recorder;
use crate::{median, run_for, set_up, Args, Scratch};
use flexgraph::graph::gen::{hetero_imdb, rmat, Dataset};
use flexgraph::graph::walk::WalkConfig;
use flexgraph::hdg::build::{from_importance_walks, from_metapaths};
use flexgraph::hdg::Hdg;
use flexgraph::models::magnn::imdb_metapaths;
use flexgraph::models::{Magnn, Model, PinSage, TrainConfig, Trainer};
use flexgraph::tensor::{Graph, Optimizer};
use std::time::Instant;

/// Hidden width of both models.
const HIDDEN: usize = 32;
/// MAGNN instances kept per (root, metapath).
const MAGNN_CAP: usize = 30;
/// Epochs after the set-up epoch that are not timed.
const WARMUP: usize = 2;
/// `train.loss_final` is the loss of this epoch.
const LOSS_EPOCH: usize = 20;
/// Timed epochs per phase at least; makes every run reach `LOSS_EPOCH`.
const MIN_EPOCHS: usize = LOSS_EPOCH;

/// Which model the workload trains.
#[derive(Clone, Copy)]
pub enum Kind {
    /// 2-layer PinSage on an R-MAT (twitter-like) graph.
    PinSage,
    /// 2-layer MAGNN with attention on the 3-typed imdb-like graph.
    Magnn,
}

fn dataset(kind: Kind, args: &Args) -> Dataset {
    match kind {
        // twitter_like's shape at half its size: 2^13 vertices × 20
        // edges each, so a run holds enough epochs for a tail.
        Kind::PinSage => {
            let log2 = (13.0 + args.scale.log2()).round().clamp(8.0, 20.0) as u32;
            rmat(log2, 20, 5, 50, args.seed, "twitter-like")
        }
        // imdb_like's shape (2,000 movies at scale 1).
        Kind::Magnn => hetero_imdb(
            ((2_000.0 * args.scale) as usize).max(64),
            3,
            4,
            64,
            args.seed,
        ),
    }
}

fn config(args: &Args) -> TrainConfig {
    TrainConfig {
        epochs: 0,
        lr: 0.01,
        seed: args.seed,
    }
}

/// The HDG the model's first selection builds, rebuilt through the
/// public builders for its counts.
fn selection_hdg(kind: Kind, ds: &Dataset, seed: u64) -> Hdg {
    let roots: Vec<u32> = (0..ds.graph.num_vertices() as u32).collect();
    match kind {
        Kind::PinSage => from_importance_walks(&ds.graph, roots, &WalkConfig::default(), seed),
        Kind::Magnn => from_metapaths(&ds.typed(), roots, &imdb_metapaths(), MAGNN_CAP),
    }
}

pub fn run(kind: Kind, args: &Args, scratch: &Scratch) -> Result<Report, String> {
    let ds = dataset(kind, args);
    match kind {
        Kind::PinSage => drive(
            kind,
            args,
            scratch,
            &ds,
            || PinSage::new(HIDDEN, ds.feature_dim(), ds.num_classes, args.seed),
            |m: &PinSage| Some(m.selection_arrays().1.len()),
        ),
        Kind::Magnn => drive(
            kind,
            args,
            scratch,
            &ds,
            || {
                Magnn::new(
                    HIDDEN,
                    ds.feature_dim(),
                    ds.num_classes,
                    imdb_metapaths(),
                    MAGNN_CAP,
                )
            },
            // MAGNN keeps the selection made in set-up; its leaves are
            // the selection HDG's.
            |_: &Magnn| None,
        ),
    }
}

/// Per-epoch losses and epoch times of one untraced phase.
struct Phase {
    losses: Vec<f32>,
    epoch_s: Vec<f64>,
}

/// Trains epochs `1..` with `Trainer::epoch` on a trainer that has run
/// epoch 0, timing those after the warm-up.
fn untraced<M: Model>(
    trainer: &mut Trainer<M>,
    ds: &Dataset,
    loss0: f32,
    seconds: f64,
) -> Result<Phase, String> {
    let mut losses = vec![loss0];
    for e in 1..=WARMUP {
        losses.push(trainer.epoch(ds, e as u64).loss);
    }
    let epoch_s = run_for(seconds, MIN_EPOCHS, |i| {
        let e = (WARMUP + 1 + i) as u64;
        let t0 = Instant::now();
        let stats = trainer.epoch(ds, e);
        let dt = t0.elapsed().as_secs_f64();
        losses.push(stats.loss);
        Ok(dt)
    })?;
    Ok(Phase { losses, epoch_s })
}

/// The loss checks every phase must pass.
fn check_losses(losses: &[f32]) -> Result<(), String> {
    if let Some((e, l)) = losses.iter().enumerate().find(|(_, l)| !l.is_finite()) {
        return Err(format!("epoch {e} loss is not finite: {l}"));
    }
    let (first, last) = (losses[0], losses[losses.len() - 1]);
    if last >= first {
        return Err(format!("loss did not fall: epoch 0 {first}, last {last}"));
    }
    Ok(())
}

fn drive<M: Model>(
    kind: Kind,
    args: &Args,
    scratch: &Scratch,
    ds: &Dataset,
    make: impl Fn() -> M,
    selected_leaves: impl Fn(&M) -> Option<usize>,
) -> Result<Report, String> {
    let mut rep = Report::default();
    rep.meta(
        "graph",
        format!(
            "{{\"vertices\": {}, \"edges\": {}}}",
            ds.graph.num_vertices(),
            ds.graph.num_edges()
        ),
    );
    if !args.trace {
        // Set-up: from the generated dataset to the end of epoch 0.
        let mut build = |()| {
            let mut trainer = Trainer::new(make(), config(args));
            let loss0 = trainer.epoch(ds, 0).loss;
            Ok((trainer, loss0))
        };
        let ((mut trainer, loss0), mut setups) = set_up(|| (), &mut build)?;
        let phase = untraced(&mut trainer, ds, loss0, args.seconds)?;
        rep.set("peak_rss_mb", peak_rss_mb());
        check_losses(&phase.losses)?;
        drop(trainer);
        setups.extend(set_up(|| (), &mut build)?.1);
        let s = Summary::of(&phase.epoch_s);
        rep.setup_times(&setups);
        rep.op_times(&s);
        rep.attempted = phase.epoch_s.len() as u64;
        rep.set("ok_frac", 1.0);
        return Ok(rep);
    }

    // Traced run: the untraced phase gives the reference losses and the
    // epoch time the tracing overhead is taken against.
    let half = args.seconds / 2.0;
    let plain = {
        let mut trainer = Trainer::new(make(), config(args));
        let loss0 = trainer.epoch(ds, 0).loss;
        untraced(&mut trainer, ds, loss0, half)?
    };
    check_losses(&plain.losses)?;

    let mut rec = Recorder::new();
    let mut trainer = Trainer::new(make(), config(args));
    let mut losses = Vec::new();
    let mut leaves = Vec::new();
    let traced_epoch = |rec: &mut Recorder, trainer: &mut Trainer<M>, e: usize| {
        let epoch = rec.enter("train.epoch");
        rec.time("models.selection", || trainer.model.selection(ds, e as u64));
        let fwd = rec.enter("tensor.forward");
        let mut g = Graph::new();
        let feats = g.leaf(ds.features.clone());
        let logits = trainer.model.forward(&mut g, feats, &trainer.params);
        let loss = g.cross_entropy(logits, &ds.labels);
        rec.exit(fwd);
        rec.time("tensor.backward", || g.backward(loss));
        rec.time("tensor.optim", || {
            let (params, opt) = trainer.params_and_optimizer_mut();
            params.zero_grads();
            g.collect_grads(params.grads_mut());
            opt.step(params);
        });
        let loss = g.value(loss).get(0, 0);
        // Trainer::epoch also scores the epoch; keep the work the same.
        let _accuracy = flexgraph::models::train::accuracy(g.value(logits), &ds.labels);
        let dt = rec.exit(epoch);
        (loss, dt)
    };
    rec.set_run(1);
    let (loss0, _) = traced_epoch(&mut rec, &mut trainer, 0);
    losses.push(loss0);
    rec.set_run(2);
    for e in 1..=WARMUP {
        losses.push(traced_epoch(&mut rec, &mut trainer, e).0);
    }
    rec.set_run(3);
    run_for(half, MIN_EPOCHS, |i| {
        let (loss, dt) = traced_epoch(&mut rec, &mut trainer, WARMUP + 1 + i);
        losses.push(loss);
        leaves.push(selected_leaves(&trainer.model));
        Ok(dt)
    })?;
    check_losses(&losses)?;
    let common = losses.len().min(plain.losses.len());
    if let Some(e) = (0..common).find(|&e| losses[e].to_bits() != plain.losses[e].to_bits()) {
        return Err(format!(
            "traced epoch {e} loss {} differs from untraced {}",
            losses[e], plain.losses[e]
        ));
    }
    rec.write(&scratch.file("trace.jsonl"))
        .map_err(|e| format!("writing trace: {e}"))?;

    let hdg = selection_hdg(kind, ds, args.seed);
    let layers = rec.self_times(Some(3));
    let epochs = layers["train.epoch"].count as f64;
    let per_epoch = |name: &str| layers.get(name).map_or(0.0, |l| l.self_s / epochs);
    let setup = rec.self_times(Some(1));
    rep.set("models.selection_s", per_epoch("models.selection"));
    let leaves_mean = match leaves.iter().copied().collect::<Option<Vec<usize>>>() {
        Some(v) => v.iter().sum::<usize>() as f64 / v.len() as f64,
        None => hdg.leaf_sources().len() as f64,
    };
    rep.set("models.selected_leaves", leaves_mean);
    rep.set("tensor.forward_s", per_epoch("tensor.forward"));
    rep.set("tensor.backward_s", per_epoch("tensor.backward"));
    rep.set("tensor.optim_s", per_epoch("tensor.optim"));
    rep.set("train.unaccounted_s", per_epoch("train.epoch"));
    rep.set("hdg.build_s", setup["models.selection"].total_s);
    rep.set("hdg.instances", hdg.num_instances() as f64);
    rep.set("hdg.leaves", hdg.leaf_sources().len() as f64);
    rep.set("train.loss_final", f64::from(losses[LOSS_EPOCH]));
    let traced_p50 = median(&rec.durations("train.epoch", 3));
    rep.set(
        "obs.trace_overhead_frac",
        traced_p50 / median(&plain.epoch_s) - 1.0,
    );
    rep.meta(
        "traced_epochs",
        format!(
            "{{\"untraced\": {}, \"traced\": {}}}",
            plain.epoch_s.len(),
            epochs
        ),
    );
    rep.attempted = (plain.epoch_s.len() + epochs as usize) as u64;
    Ok(rep)
}
