//! `serve-open`: an open-loop Poisson request stream with hot-set skew
//! against one `serve::Server`, with a hot checkpoint swap every
//! `SWAP_EVERY` requests.
//!
//! Requests are independent users, so the loop is open: each request is
//! due at a time drawn from the seeded schedule and is submitted then,
//! whether or not earlier ones were answered, and its latency runs from
//! that due time. One thread generates and serves, so a stall delays
//! later submissions; how late they ran is `bench.gen_lag_ms_p99`. The
//! batcher's virtual clock follows the schedule at `TICKS_PER_MS`.
//! Swaps are the writes beside the reads: each one invalidates the
//! embedding cache. Offered rates and the latency limit are constants,
//! set from this benchmark's reference host at the commit that added it,
//! never from a measurement taken at run time.

use crate::report::{peak_rss_mb, Report, Summary};
use crate::spans::Recorder;
use crate::{bitwise_eq, median, set_up, Args, Scratch};
use flexgraph::engine::{AggrOp, MemoryBudget};
use flexgraph::graph::gen::{community, Dataset};
use flexgraph::models::checkpoint;
use flexgraph::serve::{
    serve_one, BatcherConfig, ModelSnapshot, QuantConfig, Response, ServeModelConfig, Server,
    ServerConfig,
};
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Offered rate of the low-load phase, requests per second.
pub const LOW_RPS: f64 = 1_000.0;
/// Offered rate of the high-load phase, requests per second.
pub const HIGH_RPS: f64 = 4_000.0;
/// p99 latency limit, milliseconds.
pub const P99_LIMIT_MS: f64 = 100.0;
/// Capacity ladder: rung `i` offers `HIGH_RPS · LADDER_STEP^i` req/s.
/// The ratio between neighbouring rungs is 2^(1/8).
const LADDER_STEP: f64 = 1.090_507_732_665_257_7;
/// Rungs the search covers above (or below) `HIGH_RPS`: a factor of 16.
const SEARCH_SPAN: i32 = 32;
/// Share of `--seconds` each ladder rung runs in a traced run; the
/// bisection runs five.
const RUNG_SHARE: f64 = 0.1;
/// A rung passes if no more than this many requests are unanswered
/// when its schedule ends (and its p99 is within the limit).
const BACKLOG_LIMIT: usize = 2 * MAX_BATCH;
/// Virtual batcher ticks per millisecond of schedule.
const TICKS_PER_MS: f64 = 64.0;
const MAX_BATCH: usize = 32;
/// Batch deadline: 0.5 ms of schedule.
const MAX_DELAY_TICKS: u64 = 32;
const QUEUE_CAP: usize = 4_096;
/// Requests between hot checkpoint swaps.
const SWAP_EVERY: u64 = 1_000;
/// Share of requests that go to the hot set; the rest are uniform over
/// the graph. This and `HOT_DIVISOR` are the repository's `serve_bench`
/// mix: three requests in four to the first |V|/16 vertices.
const HOT_SHARE: f64 = 0.75;
/// The hot set is the first `n / HOT_DIVISOR` vertices.
const HOT_DIVISOR: usize = 16;
/// Equal slices of a phase whose statistics are reported as a median.
const WINDOWS: usize = 5;
/// Every `CHECK_EVERY`-th response is recomputed with `serve_one`.
const CHECK_EVERY: usize = 16;

fn dataset(args: &Args) -> Dataset {
    // reddit_like's density (degree ≈ 55) at an eighth of its size. Each
    // request's hop-shell selection walks the whole graph, so the size
    // sets a cache miss's cost. At this size the high rate stays below
    // the server's capacity on the two-vCPU reference host, so its
    // latencies measure queueing, not an ever-growing backlog.
    let n = ((1_024.0 * args.scale) as usize).max(256);
    community(n, 16, 22, 6, 64, args.seed)
}

fn server_config(ds: &Dataset, seed: u64) -> ServerConfig {
    ServerConfig {
        batcher: BatcherConfig {
            max_batch: MAX_BATCH,
            max_delay: MAX_DELAY_TICKS,
            queue_cap: QUEUE_CAP,
        },
        model: ServeModelConfig {
            hops: 2,
            cap: 16,
            seed,
            op: AggrOp::Sum,
            in_dim: ds.feature_dim(),
            hidden: 32,
            classes: ds.num_classes,
        },
        cache_bytes: 1 << 20,
        budget: MemoryBudget::unlimited(),
        quant: QuantConfig::F32,
    }
}

/// One scheduled request: due time (ms from the phase start), vertex.
type Arrival = (f64, u32);

fn schedule(rng: &mut rand::rngs::StdRng, n: usize, rps: f64, seconds: f64) -> Vec<Arrival> {
    let hot = (n / HOT_DIVISOR).max(1);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rps * 1e3;
        if t >= seconds * 1e3 {
            return out;
        }
        let v = if rng.gen::<f64>() < HOT_SHARE {
            rng.gen_range(0..hot)
        } else {
            rng.gen_range(0..n)
        };
        out.push((t, v as u32));
    }
}

/// The server plus everything the open-loop load generator tracks
/// across phases.
struct LoadGen {
    server: Server,
    /// Virtual time the batcher has reached.
    vt: u64,
    /// Virtual time at the current phase's start.
    phase_vt: u64,
    submitted: u64,
    checkpoints: [Vec<u8>; 2],
    /// Snapshot of every version that served, for the output check.
    versions: BTreeMap<u64, Arc<ModelSnapshot>>,
    /// Sampled responses to check.
    samples: Vec<Response>,
    answered: usize,
}

/// What one phase measured.
#[derive(Default)]
struct PhaseStats {
    latency_ms: Vec<f64>,
    /// Latencies of the requests whose row the model computed: they
    /// include server work, where a cache hit's is mostly the batch
    /// deadline.
    miss_latency_ms: Vec<f64>,
    /// `(due, done)` of every answered request, ms from the phase start.
    answered: Vec<(f64, f64)>,
    queue_wait_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    batch_sizes: Vec<f64>,
    attempted: u64,
    rejected: u64,
    hits: u64,
    /// Requests still unanswered when the schedule ended.
    backlog: usize,
}

impl PhaseStats {
    fn p99_ms(&self) -> f64 {
        // Unanswered requests count as missing the limit.
        let missing = self.attempted as usize - self.latency_ms.len();
        if self.latency_ms.is_empty() || missing * 100 > self.latency_ms.len() {
            return f64::INFINITY;
        }
        Summary::of(&self.latency_ms).p99
    }

    /// The latency tail of each of `WINDOWS` equal slices of the first
    /// `span_ms` of the schedule (requests by due time), and the median of
    /// those tails: one stall moves one window.
    fn windowed_tail(&self, span_ms: f64) -> (f64, Summary) {
        let mut windows = vec![Vec::new(); WINDOWS];
        for (due, done) in &self.answered {
            let w = (due / span_ms * WINDOWS as f64) as usize;
            windows[w.min(WINDOWS - 1)].push(done - due);
        }
        let tails: Vec<Summary> = windows.iter().map(|w| Summary::of(w)).collect();
        let mid = median(&tails.iter().map(|t| t.tail).collect::<Vec<_>>());
        (mid, tails[0].clone())
    }

    fn missed(&self) -> u64 {
        self.rejected
            + self
                .latency_ms
                .iter()
                .filter(|&&l| l > P99_LIMIT_MS)
                .count() as u64
    }
}

impl LoadGen {
    fn new(ds: &Dataset, seed: u64) -> LoadGen {
        let cfg = server_config(ds, seed);
        let v1 = ModelSnapshot::init(&cfg.model, seed);
        let alt = ModelSnapshot::init(&cfg.model, seed ^ 0x5a5a);
        let checkpoints = [
            checkpoint::save(alt.params()),
            checkpoint::save(v1.params()),
        ];
        let server = Server::new(ds.graph.clone(), ds.features.clone(), cfg, v1);
        let mut versions = BTreeMap::new();
        versions.insert(1, server.snapshot());
        LoadGen {
            server,
            vt: 0,
            phase_vt: 0,
            submitted: 0,
            checkpoints,
            versions,
            samples: Vec::new(),
            answered: 0,
        }
    }

    /// Advances the batcher's clock to `vt` (never backwards).
    fn tick_to(&mut self, vt: u64) {
        if vt > self.vt {
            self.server.tick(vt - self.vt);
            self.vt = vt;
        }
    }

    fn vt_at(&self, ms: f64) -> u64 {
        self.phase_vt + (ms * TICKS_PER_MS) as u64
    }

    fn swap(&mut self, rec: &mut Option<&mut Recorder>) -> Result<(), String> {
        let bytes = &self.checkpoints[(self.versions.len() + 1) % 2];
        let open = rec.as_mut().map(|r| r.enter("serve.swap"));
        let swapped = self.server.swap_checkpoint(bytes);
        if let (Some(r), Some(o)) = (rec.as_mut(), open) {
            r.exit(o);
        }
        let version = swapped.map_err(|e| format!("swap_checkpoint: {e:?}"))?;
        self.versions.insert(version, self.server.snapshot());
        Ok(())
    }

    /// Runs one schedule open-loop and drains the queue.
    fn phase(
        &mut self,
        arrivals: &[Arrival],
        mut rec: Option<&mut Recorder>,
    ) -> Result<PhaseStats, String> {
        let mut st = PhaseStats::default();
        let mut due: HashMap<u64, f64> = HashMap::with_capacity(arrivals.len());
        let t0 = Instant::now();
        let ms = |t: Instant| t.duration_since(t0).as_secs_f64() * 1e3;
        let mut next = 0;
        let mut backlog_taken = false;
        loop {
            let now = ms(Instant::now());
            while next < arrivals.len() && arrivals[next].0 <= now {
                let (d, v) = arrivals[next];
                next += 1;
                // The submission itself takes the due tick.
                self.tick_to(self.vt_at(d).saturating_sub(1));
                st.attempted += 1;
                st.lag_ms.push(now - d);
                match self.server.submit(v) {
                    Ok(id) => {
                        self.vt += 1;
                        due.insert(id, d);
                    }
                    Err(_) => st.rejected += 1,
                }
                self.submitted += 1;
                if self.submitted.is_multiple_of(SWAP_EVERY) {
                    self.swap(&mut rec)?;
                }
            }
            self.tick_to(self.vt_at(now));
            if next == arrivals.len() && !backlog_taken {
                st.backlog = due.len();
                backlog_taken = true;
            }
            if next == arrivals.len() && due.is_empty() {
                break;
            }
            // One batch at most, so arrivals keep being submitted while
            // a backlog drains.
            let start = Instant::now();
            let open = rec.as_mut().map(|r| r.enter("serve.batch"));
            let out = self.server.poll();
            let done = Instant::now();
            let out = out.map_err(|e| format!("poll: {e:?}"))?;
            if let (Some(r), Some(o)) = (rec.as_mut(), open) {
                // Only polls that executed a batch are busy time.
                if out.is_empty() {
                    r.cancel(o);
                } else {
                    r.exit(o);
                }
            }
            if out.is_empty() {
                std::thread::yield_now();
                continue;
            }
            st.batch_sizes.push(out.len() as f64);
            for r in out {
                let d = due
                    .remove(&r.request_id)
                    .expect("response to a submitted request");
                st.latency_ms.push(ms(done) - d);
                if !r.cache_hit {
                    st.miss_latency_ms.push(ms(done) - d);
                }
                st.answered.push((d, ms(done)));
                st.queue_wait_ms.push(ms(start) - d);
                st.hits += u64::from(r.cache_hit);
                if self.answered.is_multiple_of(CHECK_EVERY) {
                    self.samples.push(r);
                }
                self.answered += 1;
            }
        }
        self.phase_vt = self.vt + MAX_DELAY_TICKS;
        self.tick_to(self.phase_vt);
        Ok(st)
    }

    /// Recomputes every sampled response with `serve_one` at the model
    /// version that answered it.
    fn check(&self, ds: &Dataset) -> Result<usize, String> {
        let cfg = self.server.config().model;
        for r in &self.samples {
            let snap = &self.versions[&r.model_version];
            let want = serve_one(
                self.server.graph(),
                &ds.features,
                snap,
                &cfg,
                r.vertex,
                &MemoryBudget::unlimited(),
            )
            .map_err(|e| format!("serve_one: {e:?}"))?;
            if !bitwise_eq(&r.output, &want) {
                return Err(format!(
                    "request {} (vertex {}, version {}) differs from serve_one",
                    r.request_id, r.vertex, r.model_version
                ));
            }
        }
        Ok(self.samples.len())
    }
}

/// The low and high fixed-rate phases.
struct Fixed {
    low: PhaseStats,
    high: PhaseStats,
}

fn fixed_phases(
    d: &mut LoadGen,
    rng: &mut rand::rngs::StdRng,
    n: usize,
    [low_s, high_s]: [f64; 2],
    rec: &mut Option<&mut Recorder>,
) -> Result<Fixed, String> {
    let low = schedule(rng, n, LOW_RPS, low_s);
    if let Some(r) = rec.as_mut() {
        r.set_run(1);
    }
    let low = d.phase(&low, rec.as_deref_mut())?;
    let high = schedule(rng, n, HIGH_RPS, high_s);
    if let Some(r) = rec.as_mut() {
        r.set_run(2);
    }
    let high = d.phase(&high, rec.as_deref_mut())?;
    Ok(Fixed { low, high })
}

/// Whether a ladder rung met the limit: p99 within `P99_LIMIT_MS` and
/// no backlog left when its schedule ended.
fn passes(st: &PhaseStats) -> bool {
    st.backlog <= BACKLOG_LIMIT && st.p99_ms() <= P99_LIMIT_MS
}

/// Bisects the ladder for its highest passing rung. Rung 0 is
/// `HIGH_RPS`, whose phase has already run as `high`; the search covers
/// `SEARCH_SPAN` rungs above it, or below it when it failed. Returns the
/// rate and the number of rungs run.
fn max_rps(
    d: &mut LoadGen,
    rng: &mut rand::rngs::StdRng,
    n: usize,
    high: &PhaseStats,
    rung_s: f64,
) -> Result<(f64, usize), String> {
    let rate = |i: i32| HIGH_RPS * LADDER_STEP.powi(i);
    let mut ran = 0;
    let mut pass =
        |d: &mut LoadGen, rng: &mut rand::rngs::StdRng, i: i32| -> Result<bool, String> {
            ran += 1;
            Ok(passes(&d.phase(&schedule(rng, n, rate(i), rung_s), None)?))
        };
    let (mut lo, mut hi) = if passes(high) {
        (0, SEARCH_SPAN)
    } else {
        (-SEARCH_SPAN, 0)
    };
    if lo < 0 && !pass(d, rng, lo)? {
        return Err(format!("not even {} req/s met the limit", rate(lo)));
    }
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if pass(d, rng, mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((rate(lo), ran))
}

pub fn run(args: &Args, scratch: &Scratch) -> Result<Report, String> {
    let ds = dataset(args);
    let n = ds.graph.num_vertices();
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed ^ 0x5e7e);
    let mut rep = Report::default();
    rep.meta(
        "serve",
        format!(
            "{{\"vertices\": {n}, \"edges\": {}, \"low_rps\": {LOW_RPS:?}, \"high_rps\": {HIGH_RPS:?}, \"p99_limit_ms\": {P99_LIMIT_MS:?}, \"swap_every\": {SWAP_EVERY}}}",
            ds.graph.num_edges()
        ),
    );

    if !args.trace {
        // Set-up: server construction through the first answered request.
        let mut prepare = || (ds.graph.clone(), ds.features.clone());
        let mut build = |(graph, feats)| {
            let cfg = server_config(&ds, args.seed);
            let server = Server::new(
                graph,
                feats,
                cfg,
                ModelSnapshot::init(&cfg.model, args.seed),
            );
            server.submit(0).map_err(|e| format!("submit: {e:?}"))?;
            match server.flush().map_err(|e| format!("flush: {e:?}"))?.len() {
                1 => Ok(()),
                got => Err(format!("first request got {got} responses")),
            }
        };
        let ((), mut setups) = set_up(&mut prepare, &mut build)?;
        let mut d = LoadGen::new(&ds, args.seed);
        // Half the time at each rate: latencies are the low rate's;
        // failures count at both.
        let fixed = fixed_phases(&mut d, &mut rng, n, [args.seconds / 2.0; 2], &mut None)?;
        rep.set("peak_rss_mb", peak_rss_mb());
        let checked = d.check(&ds)?;
        setups.extend(set_up(&mut prepare, &mut build)?.1);
        let low = Summary::of(&fixed.low.miss_latency_ms);
        let (tail, window) = fixed.low.windowed_tail(args.seconds / 2.0 * 1e3);
        rep.setup_times(&setups);
        // Requests the model computed: a cache hit's latency is mostly
        // the batch deadline, which no change to the server moves. Unlike
        // the other workloads' ops, requests differ in how long they
        // wait for their batch to close, so the fastest one is an
        // accident of arrival times; the median is the steady statistic.
        rep.set("op_ms", low.p50);
        rep.meta(
            "op_ms",
            format!(
                "{{\"samples\": {}, \"statistic\": \"p50\", \"requests\": \"cache misses\"}}",
                low.n
            ),
        );
        rep.set("op_ms_tail", tail);
        rep.meta(
            "op_ms_tail",
            format!(
                "{{\"windows\": {WINDOWS}, \"samples_per_window\": {}, \"percentile\": {}}}",
                window.n, window.tail_pct
            ),
        );
        rep.meta("checked_responses", checked.to_string());
        rep.attempted = fixed.low.attempted + fixed.high.attempted;
        rep.failed = fixed.low.missed() + fixed.high.missed();
        rep.set("ok_frac", 1.0 - rep.failed as f64 / rep.attempted as f64);
        return Ok(rep);
    }

    // Untraced, then traced: both rates, an eighth of the time each; then
    // the capacity ladder (untraced) for the other half.
    let eighth = args.seconds / 8.0;
    let plain = {
        let mut d = LoadGen::new(&ds, args.seed);
        fixed_phases(&mut d, &mut rng, n, [eighth; 2], &mut None)?
    };
    let mut rec = Recorder::new();
    let mut d = LoadGen::new(&ds, args.seed);
    let fixed = fixed_phases(&mut d, &mut rng, n, [eighth; 2], &mut Some(&mut rec))?;
    let rung_s = args.seconds * RUNG_SHARE;
    let (max_rps, rungs) = max_rps(&mut d, &mut rng, n, &fixed.high, rung_s)?;
    rep.set("serve.max_rps", max_rps);
    rep.meta(
        "serve.max_rps",
        format!("{{\"rungs_run\": {rungs}, \"rung_s\": {rung_s:?}}}"),
    );
    d.check(&ds)?;
    rec.write(&scratch.file("trace.jsonl"))
        .map_err(|e| format!("writing trace: {e}"))?;

    let both =
        |f: fn(&PhaseStats) -> &Vec<f64>| [f(&fixed.low).as_slice(), f(&fixed.high)].concat();
    let layers = rec.self_times(None);
    let mean_s = |name: &str| layers.get(name).map_or(0.0, |l| l.total_s / l.count as f64);
    let sizes = both(|s| &s.batch_sizes);
    let answered = (fixed.low.latency_ms.len() + fixed.high.latency_ms.len()) as f64;
    rep.set("serve.busy_s", mean_s("serve.batch"));
    rep.set(
        "serve.queue_wait_ms_p99",
        Summary::of(&both(|s| &s.queue_wait_ms)).p99,
    );
    rep.set(
        "serve.batch_size_mean",
        sizes.iter().sum::<f64>() / sizes.len().max(1) as f64,
    );
    rep.set(
        "serve.cache_hit_rate",
        (fixed.low.hits + fixed.high.hits) as f64 / answered,
    );
    rep.set("serve.swap_s", mean_s("serve.swap"));
    rep.set(
        "serve.rejected",
        (fixed.low.rejected + fixed.high.rejected) as f64,
    );
    rep.set(
        "serve.latency_ms_p50_low",
        Summary::of(&fixed.low.latency_ms).p50,
    );
    rep.set(
        "serve.latency_ms_p99_low",
        Summary::of(&fixed.low.latency_ms).p99,
    );
    rep.set(
        "serve.latency_ms_p50_high",
        Summary::of(&fixed.high.latency_ms).p50,
    );
    rep.set(
        "serve.latency_ms_p99_high",
        Summary::of(&fixed.high.latency_ms).p99,
    );
    rep.set(
        "bench.gen_lag_ms_p99",
        Summary::of(&both(|s| &s.lag_ms)).p99,
    );
    let traced_p50 = median(&fixed.low.miss_latency_ms);
    rep.set(
        "obs.trace_overhead_frac",
        traced_p50 / median(&plain.low.miss_latency_ms) - 1.0,
    );
    rep.attempted =
        plain.low.attempted + plain.high.attempted + fixed.low.attempted + fixed.high.attempted;
    rep.failed =
        plain.low.missed() + plain.high.missed() + fixed.low.missed() + fixed.high.missed();
    Ok(rep)
}
