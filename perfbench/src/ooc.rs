//! `ooc-forward`: repeated `store::forward_out_of_core` passes over an
//! R-MAT graph streamed to disk, under a page-cache budget about 8×
//! smaller than the decoded graph.
//!
//! It is the only workload that runs the page cache and segment decode;
//! it runs `engine::hierarchical_aggregate` one partition at a time.

use crate::report::{peak_rss_mb, Report, Summary};
use crate::spans::Recorder;
use crate::{bitwise_eq, median, run_for, set_up, Args, Scratch};
use flexgraph::engine::{hierarchical_aggregate, AggrOp, AggrPlan, MemoryBudget, Strategy};
use flexgraph::hdg::build::from_direct_neighbors;
use flexgraph::obs::PageCacheRecord;
use flexgraph::store::ooc::hdg_for;
use flexgraph::store::{forward_out_of_core, rmat_to_store, Neighborhood, PagedGraph};
use flexgraph::tensor::Tensor;
use std::path::Path;
use std::time::Instant;

/// Directed edges drawn per vertex.
const EDGE_FACTOR: usize = 8;
/// Feature width.
const DIM: usize = 16;
/// Decoded graph over page-cache budget.
const OVER_BUDGET: usize = 8;
/// Roots aggregated per partition, as a fraction of all vertices.
const PARTITIONS: usize = 32;
/// Untimed passes after the set-up pass.
const WARMUP: usize = 2;
/// Timed passes per phase at least.
const MIN_PASSES: usize = 20;

const NBR: Neighborhood = Neighborhood::Direct;
const STRATEGY: Strategy = Strategy::SaFa;

/// Shape of the streamed graph and its pass.
struct Shape {
    log2: u32,
    n: usize,
    seg_vertices: u32,
    partition: usize,
}

fn shape(args: &Args) -> Shape {
    let log2 = (15.0 + args.scale.log2()).round().clamp(9.0, 20.0) as u32;
    let n = 1usize << log2;
    Shape {
        log2,
        n,
        // Narrow segments keep the hub-heavy low ids from filling one
        // page, so the widest page stays well under the budget.
        seg_vertices: (n as u32 / 256).max(4),
        partition: (n / PARTITIONS).max(64),
    }
}

/// The pure per-vertex feature row both the store pass and the in-RAM
/// reference read.
fn feat_row(seed: u64, v: u32) -> Vec<f32> {
    let mut state = (u64::from(v) ^ seed).wrapping_mul(6364136223846793005);
    (0..DIM)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 4.0 - 2.0
        })
        .collect()
}

/// Streams the graph to `path`; returns the write time.
fn write_store(args: &Args, sh: &Shape, path: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_file(path);
    let t0 = Instant::now();
    rmat_to_store(path, sh.log2, EDGE_FACTOR, args.seed, sh.seg_vertices)
        .map_err(|e| format!("rmat_to_store: {e}"))?;
    Ok(t0.elapsed().as_secs_f64())
}

/// The page-cache budget for the store at `path`: an `OVER_BUDGET`th of
/// every segment's decoded residency, and at least the widest segment's.
/// The graph depends only on the seed and the shape, so this scan runs
/// once, outside every timed region.
fn budget(path: &Path) -> Result<MemoryBudget, String> {
    let probe = PagedGraph::open(path, MemoryBudget::unlimited()).map_err(|e| e.to_string())?;
    let (mut total, mut widest) = (0usize, 0usize);
    for sid in 0..probe.num_segments() {
        let (seg, _) = probe
            .reader()
            .read_segment(sid)
            .map_err(|e| e.to_string())?;
        total += seg.residency_bytes();
        widest = widest.max(seg.residency_bytes());
    }
    Ok(MemoryBudget {
        bytes: (total / OVER_BUDGET).max(widest),
    })
}

fn open(path: &Path, budget: MemoryBudget) -> Result<PagedGraph, String> {
    PagedGraph::open(path, budget).map_err(|e| e.to_string())
}

fn pass(args: &Args, sh: &Shape, pg: &PagedGraph, roots: &[u32]) -> Result<Tensor, String> {
    let seed = args.seed;
    forward_out_of_core(
        pg,
        roots,
        &NBR,
        sh.partition,
        &|v| feat_row(seed, v),
        DIM,
        &AggrPlan::flat(AggrOp::Sum),
        STRATEGY,
        &MemoryBudget::unlimited(),
    )
    .map(|r| r.features)
    .map_err(|e| e.to_string())
}

/// The in-RAM engine over the rehydrated graph and the full features.
fn reference(args: &Args, pg: &PagedGraph, roots: &[u32]) -> Result<Tensor, String> {
    let g = pg.to_graph().map_err(|e| e.to_string())?;
    let flat: Vec<f32> = roots.iter().flat_map(|&v| feat_row(args.seed, v)).collect();
    let feats = Tensor::from_vec(roots.len(), DIM, flat);
    let hdg = from_direct_neighbors(&g, roots.to_vec());
    hierarchical_aggregate(
        &hdg,
        &feats,
        &AggrPlan::flat(AggrOp::Sum),
        STRATEGY,
        &MemoryBudget::unlimited(),
    )
    .map(|r| r.features)
    .map_err(|e| format!("in-RAM reference: {e:?}"))
}

/// Pass times of one untraced phase, and how many passes returned an
/// error.
struct Phase {
    pass_s: Vec<f64>,
    failed: u64,
}

/// Timed passes; a pass that returns an error counts as failed, one
/// whose output differs from `first` fails the run.
fn untraced(
    args: &Args,
    sh: &Shape,
    pg: &PagedGraph,
    roots: &[u32],
    first: &Tensor,
    seconds: f64,
) -> Result<Phase, String> {
    let check = |out: Result<Tensor, String>, p: usize, failed: &mut u64| match out {
        Ok(t) if bitwise_eq(t.data(), first.data()) => Ok(()),
        Ok(_) => Err(format!("pass {p} output differs from the first pass")),
        Err(e) => {
            eprintln!("pass {p}: {e}");
            *failed += 1;
            Ok(())
        }
    };
    let mut failed = 0;
    for p in 1..=WARMUP {
        check(pass(args, sh, pg, roots), p, &mut failed)?;
    }
    let pass_s = run_for(seconds, MIN_PASSES, |i| {
        let t0 = Instant::now();
        let out = pass(args, sh, pg, roots);
        let dt = t0.elapsed().as_secs_f64();
        check(out, WARMUP + 1 + i, &mut failed)?;
        Ok(dt)
    })?;
    Ok(Phase { pass_s, failed })
}

fn delta(a: &PageCacheRecord, b: &PageCacheRecord) -> PageCacheRecord {
    PageCacheRecord {
        fetches: b.fetches - a.fetches,
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        evictions: b.evictions - a.evictions,
        bytes_read: b.bytes_read - a.bytes_read,
        ..*b
    }
}

pub fn run(args: &Args, scratch: &Scratch) -> Result<Report, String> {
    let sh = shape(args);
    let roots: Vec<u32> = (0..sh.n as u32).collect();
    let path = scratch.file("graph.fgps");
    let mut rep = Report::default();
    write_store(args, &sh, &path)?;
    let budget = budget(&path)?;

    if !args.trace {
        // Set-up: stream to disk, open under the budget, first pass.
        let mut build = |()| {
            write_store(args, &sh, &path)?;
            let pg = open(&path, budget)?;
            let first = pass(args, &sh, &pg, &roots)?;
            Ok((pg, first))
        };
        let ((pg, first), mut setups) = set_up(|| (), &mut build)?;
        let phase = untraced(args, &sh, &pg, &roots, &first, args.seconds)?;
        rep.set("peak_rss_mb", peak_rss_mb());
        let stats = pg.cache_stats();
        rep.meta(
            "store",
            format!(
                "{{\"vertices\": {}, \"arcs\": {}, \"segments\": {}, \"budget_bytes\": {}, \"hit_rate\": {:?}}}",
                pg.num_vertices(),
                pg.num_edges(),
                pg.num_segments(),
                stats.budget_bytes,
                stats.hit_rate()
            ),
        );
        if !bitwise_eq(first.data(), reference(args, &pg, &roots)?.data()) {
            return Err("out-of-core output differs from the in-RAM engine".into());
        }
        // The next set-ups rewrite the store file, so the open store goes
        // first.
        drop((pg, first));
        setups.extend(set_up(|| (), &mut build)?.1);
        rep.setup_times(&setups);
        rep.op_times(&Summary::of(&phase.pass_s));
        rep.attempted = phase.pass_s.len() as u64;
        rep.failed = phase.failed;
        rep.set(
            "ok_frac",
            1.0 - phase.failed as f64 / phase.pass_s.len() as f64,
        );
        return Ok(rep);
    }

    let half = args.seconds / 2.0;
    let plain = {
        let pg = open(&path, budget)?;
        let first = pass(args, &sh, &pg, &roots)?;
        untraced(args, &sh, &pg, &roots, &first, half)?
    };

    let mut rec = Recorder::new();
    rec.set_run(1);
    let setup = rec.enter("ooc.setup");
    let write_s = rec.time("store.write", || write_store(args, &sh, &path))?;
    let opening = rec.enter("store.open");
    let pg = open(&path, budget);
    let open_s = rec.exit(opening);
    let pg = pg?;
    let first = rec.time("ooc.pass", || pass(args, &sh, &pg, &roots))?;
    rec.exit(setup);
    // The split pass aggregates global-id HDGs, so it reads the full
    // feature matrix; it is built once, outside every span.
    let flat: Vec<f32> = roots.iter().flat_map(|&v| feat_row(args.seed, v)).collect();
    let feats = Tensor::from_vec(sh.n, DIM, flat);
    let plan = AggrPlan::flat(AggrOp::Sum);
    rec.set_run(2);
    for _ in 0..WARMUP {
        pass(args, &sh, &pg, &roots)?;
    }
    rec.set_run(3);
    let mut cache = Vec::new();
    let mut split_ok = true;
    run_for(half, MIN_PASSES, |i| {
        let before = pg.cache_stats();
        let open = rec.enter("ooc.pass");
        let out = pass(args, &sh, &pg, &roots)?;
        let dt = rec.exit(open);
        cache.push(delta(&before, &pg.cache_stats()));
        if !bitwise_eq(out.data(), first.data()) {
            return Err(format!(
                "traced pass {i} output differs from the first pass"
            ));
        }
        // The same pass through public calls, split into selection
        // (fetch + decode + HDG build) and aggregation.
        let split = rec.enter("ooc.split");
        for (p, chunk) in roots.chunks(sh.partition).enumerate() {
            let hdg = rec.time("store.select", || hdg_for(&pg, chunk.to_vec(), &NBR));
            let hdg = hdg.map_err(|e| e.to_string())?;
            let res = rec.time("engine.aggregate", || {
                hierarchical_aggregate(&hdg, &feats, &plan, STRATEGY, &MemoryBudget::unlimited())
            });
            let res = res.map_err(|e| format!("{e:?}"))?;
            if i == 0 {
                let base = p * sh.partition * DIM;
                split_ok &= bitwise_eq(
                    res.features.data(),
                    &out.data()[base..base + res.features.data().len()],
                );
            }
        }
        rec.exit(split);
        Ok(dt)
    })?;
    if !split_ok {
        return Err("split pass output differs from forward_out_of_core".into());
    }
    rec.write(&scratch.file("trace.jsonl"))
        .map_err(|e| format!("writing trace: {e}"))?;

    let passes = cache.len() as f64;
    let layers = rec.self_times(Some(3));
    let per_pass = |name: &str| layers[name].total_s / passes;
    let sum = |f: fn(&PageCacheRecord) -> u64| cache.iter().map(|c| f(c) as f64).sum::<f64>();
    let (hits, fetches) = (sum(|c| c.hits), sum(|c| c.fetches));
    rep.set("store.write_s", write_s);
    rep.set("store.open_s", open_s);
    rep.set(
        "store.hit_rate",
        if fetches > 0.0 { hits / fetches } else { 0.0 },
    );
    rep.set("store.fetches", fetches / passes);
    rep.set("store.evictions", sum(|c| c.evictions) / passes);
    rep.set("store.bytes_read", sum(|c| c.bytes_read) / passes);
    rep.set("store.select_s", per_pass("store.select"));
    rep.set("engine.aggregate_s", per_pass("engine.aggregate"));
    rep.set(
        "ooc.unaccounted_s",
        per_pass("ooc.pass") - per_pass("store.select") - per_pass("engine.aggregate"),
    );
    let traced_p50 = median(&rec.durations("ooc.pass", 3));
    rep.set(
        "obs.trace_overhead_frac",
        traced_p50 / median(&plain.pass_s) - 1.0,
    );
    rep.meta(
        "traced_passes",
        format!(
            "{{\"untraced\": {}, \"traced\": {passes}}}",
            plain.pass_s.len()
        ),
    );
    rep.attempted = (plain.pass_s.len() + cache.len()) as u64;
    rep.failed = plain.failed;
    Ok(rep)
}
