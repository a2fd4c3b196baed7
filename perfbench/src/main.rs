//! FlexGraph end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scale X]
//! ```
//!
//! Runs one workload on inputs generated from `--seed`, measures it for
//! about `--seconds`, checks its outputs, and prints a metadata line and
//! then, as the last line of standard output, one JSON result object.
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` runs the workload untraced and then traced, and prints the
//! per-layer metrics. A failed output check prints no result and exits
//! with code 1. `--scale` shrinks the inputs for smoke runs. Scratch
//! files live in `.perfbench_tmp/<pid>` under the working directory and
//! are removed before exit. See README.md for the workloads and metrics.

mod dist;
mod ooc;
mod report;
mod serve;
mod spans;
mod train;

use report::Report;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Kernel threads (`tensor::set_thread_override`) every workload runs at.
const COMPUTE_THREADS: usize = 1;

/// The workloads, by name.
pub const WORKLOADS: [&str; 5] = [
    "train-pinsage",
    "train-magnn",
    "dist-gcn",
    "serve-open",
    "ooc-forward",
];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Input size factor; 1.0 is the benchmark size.
    pub scale: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scale" => args.scale = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            args.seconds
        ));
    }
    if !(args.scale > 0.0 && args.scale <= 4.0) {
        return Err(format!("--scale must be in (0, 4], got {}", args.scale));
    }
    Ok(args)
}

/// A private scratch directory under the working directory, removed
/// when dropped (also when a panic unwinds through `main`).
pub struct Scratch(PathBuf);

impl Scratch {
    fn create() -> std::io::Result<Scratch> {
        let dir = Path::new(".perfbench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// Path of a scratch file.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// Runs `op` until `seconds` have passed and at least `min_ops` ran.
/// `op` gets the op index and returns its own measured duration.
pub fn run_for(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(usize) -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let t0 = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_ops || t0.elapsed().as_secs_f64() < seconds {
        times.push(op(times.len())?);
    }
    Ok(times)
}

/// Set-up repetitions per batch: at least `SETUP_MIN_REPS`, and more
/// while the set-ups so far took under `SETUP_MIN_S`, up to
/// `SETUP_MAX_REPS`.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.5;
const SETUP_MAX_REPS: usize = 2_000;

/// Sets a workload up repeatedly, one batch, and returns the last state
/// with every set-up's duration. `prepare` makes an untimed copy of the
/// inputs each set-up consumes; only `build` is timed. The previous
/// state is dropped before the next is built.
///
/// Each workload runs one batch before its timed window and a second
/// one after it, and reports the fastest set-up of both as `setup_s`:
/// the host the benchmark was tuned on runs slow for seconds at a time,
/// and two batches a timed window apart rarely both fall in such a spell.
pub fn set_up<P, T>(
    mut prepare: impl FnMut() -> P,
    mut build: impl FnMut(P) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < SETUP_MIN_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_S && times.len() < SETUP_MAX_REPS)
    {
        drop(kept.take());
        let input = prepare();
        let t0 = Instant::now();
        kept = Some(build(input)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// Median of a non-empty slice (nearest rank).
pub fn median(v: &[f64]) -> f64 {
    report::Summary::of(v).p50
}

/// Whether two f32 slices are equal bit for bit.
pub fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn run(args: &Args, scratch: &Scratch) -> Result<Report, String> {
    // One compute thread per process (per worker in dist-gcn): on a
    // two-core host shared with other tenants, a second kernel thread
    // doubled the run-to-run spread of epoch medians.
    flexgraph::tensor::set_thread_override(Some(COMPUTE_THREADS));
    let mut rep = match args.workload.as_str() {
        "train-pinsage" => train::run(train::Kind::PinSage, args, scratch)?,
        "train-magnn" => train::run(train::Kind::Magnn, args, scratch)?,
        "dist-gcn" => dist::run(args, scratch)?,
        "serve-open" => serve::run(args, scratch)?,
        "ooc-forward" => ooc::run(args, scratch)?,
        other => unreachable!("workload {other} passed argument checks"),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env_threads = std::env::var("FLEXGRAPH_THREADS").ok();
    rep.meta("workload", format!("\"{}\"", args.workload));
    rep.meta("seed", args.seed.to_string());
    rep.meta("scale", format!("{:?}", args.scale));
    rep.meta("seconds", format!("{:?}", args.seconds));
    rep.meta("trace", u8::from(args.trace).to_string());
    rep.meta("nproc", nproc.to_string());
    rep.meta(
        "simd_backend",
        format!("\"{}\"", flexgraph::tensor::simd_backend()),
    );
    rep.meta(
        "FLEXGRAPH_THREADS",
        env_threads.map_or("null".into(), |v| format!("\"{}\"", v.escape_default())),
    );
    rep.meta(
        "compute_threads",
        flexgraph::tensor::num_threads().to_string(),
    );
    Ok(rep)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create scratch directory: {e}");
            std::process::exit(2);
        }
    };
    let result = run(&args, &scratch).and_then(|r| r.render(args.trace));
    drop(scratch);
    match result {
        Ok((meta, line)) => {
            println!("{meta}");
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: {}: check failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
