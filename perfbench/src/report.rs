//! Metric tables, order statistics and the result line.
//!
//! Every workload prints every metric of the table its mode selects, in
//! table order. End-to-end metrics are defined on all workloads; a
//! per-layer metric a workload never exercises reads 0, which is the
//! measured value: that layer did no work on that workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("models.selection_s", "s"),
    ("models.selected_leaves", "count"),
    ("tensor.forward_s", "s"),
    ("tensor.backward_s", "s"),
    ("tensor.optim_s", "s"),
    ("hdg.build_s", "s"),
    ("hdg.instances", "count"),
    ("hdg.leaves", "count"),
    ("train.unaccounted_s", "s"),
    ("train.loss_final", "nats"),
    ("dist.shard_s", "s"),
    ("dist.leaf_sync_plan_s", "s"),
    ("dist.leaf_send_s", "s"),
    ("dist.leaf_local_s", "s"),
    ("dist.leaf_fold_s", "s"),
    ("dist.upper_s", "s"),
    ("dist.update_s", "s"),
    ("dist.work_skew", "ratio"),
    ("dist.recoveries", "count"),
    ("dist.unaccounted_s", "s"),
    ("comm.bytes_per_epoch", "B"),
    ("comm.messages_per_epoch", "count"),
    ("comm.retries_per_epoch", "count"),
    ("comm.redeliveries_per_epoch", "count"),
    ("serve.busy_s", "s"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.cache_hit_rate", "frac"),
    ("serve.swap_s", "s"),
    ("serve.rejected", "count"),
    ("serve.latency_ms_p50_low", "ms"),
    ("serve.latency_ms_p99_low", "ms"),
    ("serve.latency_ms_p50_high", "ms"),
    ("serve.latency_ms_p99_high", "ms"),
    ("serve.max_rps", "1/s"),
    ("bench.gen_lag_ms_p99", "ms"),
    ("store.write_s", "s"),
    ("store.open_s", "s"),
    ("store.hit_rate", "frac"),
    ("store.fetches", "count"),
    ("store.evictions", "count"),
    ("store.bytes_read", "B"),
    ("store.select_s", "s"),
    ("engine.aggregate_s", "s"),
    ("ooc.unaccounted_s", "s"),
    ("obs.trace_overhead_frac", "frac"),
];

/// Percentiles tried, highest first, when picking a tail.
const TAIL_LADDER: [f64; 12] = [
    99.9, 99.0, 95.0, 90.0, 85.0, 80.0, 75.0, 70.0, 65.0, 60.0, 55.0, 50.0,
];

/// Nearest-rank percentile of an ascending slice.
fn rank(sorted: &[f64], pct: f64) -> usize {
    let n = sorted.len();
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Order statistics of one sample set.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// Smallest sample.
    pub min: f64,
    /// The highest ladder percentile with at least ten samples beyond it
    /// (50 when there are too few samples for any).
    pub tail_pct: f64,
    /// The sample at `tail_pct`.
    pub tail: f64,
    /// Nearest-rank 99th percentile, whatever the sample count.
    pub p99: f64,
}

impl Summary {
    /// Summarises `samples`; panics on an empty set, which is a bug in
    /// the calling workload.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of an empty sample set");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let tail_pct = TAIL_LADDER
            .iter()
            .copied()
            .find(|&p| n - 1 - rank(&s, p) >= 10)
            .unwrap_or(50.0);
        Summary {
            n,
            p50: s[rank(&s, 50.0)],
            min: s[0],
            tail_pct,
            tail: s[rank(&s, tail_pct)],
            p99: s[rank(&s, 99.0)],
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// What one run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed in the measured window.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    meta: Vec<(String, String)>,
}

impl Report {
    /// Records a metric; the name must be one of the tables'.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Records a metadata field; `json` is a JSON value.
    pub fn meta(&mut self, key: &str, json: String) {
        self.meta.push((key.to_string(), json));
    }

    /// Records `setup_s`, the fastest set-up in seconds, with the
    /// sample count.
    pub fn setup_times(&mut self, setups: &[f64]) {
        let s = Summary::of(setups);
        self.set("setup_s", s.min);
        self.meta("setup_s", format!("{{\"samples\": {}}}", s.n));
    }

    /// Records the op-time metrics of `s`, samples in seconds: `op_ms`,
    /// the fastest op, and the tail in ms, with the sample count and the
    /// tail percentile. Every op repeats the same work on the same
    /// inputs, so the fastest is its cost undisturbed. The host the benchmark was
    /// tuned on runs slow for seconds at a time, for a share of each run
    /// that varies from run to run; that share moved every percentile,
    /// the median included, but seldom the minimum. The tail reports the
    /// slow spells.
    pub fn op_times(&mut self, s: &Summary) {
        let (op, tail) = ("op_ms", "op_ms_tail");
        self.set(op, s.min * 1e3);
        self.set(tail, s.tail * 1e3);
        self.meta(
            op,
            format!("{{\"samples\": {}, \"statistic\": \"min\"}}", s.n),
        );
        self.meta(
            tail,
            format!("{{\"samples\": {}, \"percentile\": {}}}", s.n, s.tail_pct),
        );
    }

    /// The metadata line and the result line, or an error naming a
    /// missing end-to-end metric or a non-finite value.
    pub fn render(&self, traced: bool) -> Result<(String, String), String> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => return Err(format!("workload did not measure {name}")),
            };
            if !value.is_finite() {
                return Err(format!("{name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        let mut meta = String::new();
        for (i, (k, v)) in self.meta.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(meta, "{sep}\"{k}\": {v}");
        }
        Ok((
            format!("{{\"meta\": {{{meta}}}}}"),
            format!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
                self.attempted, self.failed
            ),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.p50, s.min), (50.0, 1.0));
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(s.tail, 90.0);
        let few = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.p50, few.tail_pct, few.tail), (2.0, 50.0, 2.0));
    }
}
