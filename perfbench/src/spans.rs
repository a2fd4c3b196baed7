//! The traced run's span recorder.
//!
//! A span is one timed call into a layer: a name, its start and end on
//! the run's clock, the span that was open when it began, and the id of
//! the run phase it belongs to. Spans stay in memory; [`Recorder::write`]
//! puts them out as JSON lines once the run is over, and
//! [`Recorder::self_times`] turns them into per-layer self time: a span's
//! duration minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `tensor.backward`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was made.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The run phase the span belongs to.
    pub run: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span.
#[must_use = "an open span must be closed with Recorder::exit"]
pub struct Open(usize);

/// Total and self time of every span with one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    /// Number of spans.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

/// In-memory span store with a stack of open spans.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Starts a new run phase; later spans carry its id.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes `open`, which must be the innermost open span; returns its
    /// duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        assert_eq!(
            self.stack.pop(),
            Some(open.0),
            "spans close innermost first"
        );
        let end = self.now_ns();
        let span = &mut self.spans[open.0];
        span.end_ns = end;
        span.dur_ns() as f64 * 1e-9
    }

    /// Drops `open`, the innermost and latest span, as if never opened.
    pub fn cancel(&mut self, open: Open) {
        assert_eq!(
            self.stack.pop(),
            Some(open.0),
            "spans close innermost first"
        );
        assert_eq!(
            self.spans.len(),
            open.0 + 1,
            "only the latest span can be dropped"
        );
        self.spans.pop();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Per-name totals over spans of `run` (all runs when `None`).
    pub fn self_times(&self, run: Option<u32>) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            if run.is_some_and(|r| r != s.run) {
                continue;
            }
            let l = out.entry(s.name).or_default();
            l.count += 1;
            l.total_s += s.dur_ns() as f64 * 1e-9;
            l.self_s += s.dur_ns().saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Durations in seconds of every span named `name` in `run`, in
    /// recording order.
    pub fn durations(&self, name: &str, run: u32) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.run == run)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new();
        let outer = r.enter("a.outer");
        r.time("b.inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        let total = r.exit(outer);
        let t = r.self_times(None);
        let (outer, inner) = (t["a.outer"], t["b.inner"]);
        assert!(inner.self_s >= 0.02 && inner.self_s == inner.total_s);
        assert!((outer.self_s + inner.total_s - total).abs() < 1e-6);
        assert!(outer.self_s >= 0.005 && outer.self_s < total);
        assert_eq!(r.durations("b.inner", 0).len(), 1);
    }
}
