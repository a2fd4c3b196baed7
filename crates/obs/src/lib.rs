//! `flexgraph-obs` — epoch telemetry for the FlexGraph runtime.
//!
//! The paper's ADB balancer (§6) fits its cost function to "samples of
//! running logs". This crate is that log: per-stage counters and
//! per-root cost attribution collected during distributed epochs, plus
//! a deterministic JSONL trace writer.
//!
//! # Design
//!
//! * **Task-owned records.** Each distributed worker task writes its
//!   own [`PartitionRecord`] — stage samples, comm counters, per-root
//!   costs — as it runs, and the epoch runtime merges them into a
//!   [`TraceEpoch`]. Nothing is recorded behind the caller's back, so
//!   code outside a distributed epoch pays nothing for telemetry.
//! * **Deterministic traces.** `FLEXGRAPH_TRACE=path` opens a trace
//!   session. Trace records carry *virtual* timestamps (a record
//!   counter) and only deterministic fields — work units, invocation
//!   counts, comm bytes/messages — so same-seed runs emit byte-identical
//!   files for any `FLEXGRAPH_THREADS`. `FLEXGRAPH_TRACE_WALL=1` adds
//!   wall-clock and fault-counter debug fields and forfeits that
//!   guarantee.
//! * **Integer merges.** All counters are `u64` and merging is
//!   field-wise addition, so aggregation across partitions is
//!   order-insensitive (`tests/proptests.rs`).

pub mod record;
pub mod trace;

pub use record::{
    CommCounters, FabricCounters, LatencyHistogram, PageCacheRecord, PartitionRecord, ServeRecord,
    Stage, StageSample, TenantServeRecord, TraceEpoch, LATENCY_BUCKETS,
};
pub use trace::{parse_line, TraceLine, TRACE_VERSION};

use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once};

// ---------------------------------------------------------------------------
// Trace session
// ---------------------------------------------------------------------------

struct Session {
    out: Option<BufWriter<File>>,
    wall: bool,
    vt: u64,
}

impl Session {
    fn next_vt(&mut self) -> u64 {
        self.vt += 1;
        self.vt
    }

    fn line(&mut self, s: &str) {
        if let Some(w) = self.out.as_mut() {
            let _ = w.write_all(s.as_bytes());
            let _ = w.write_all(b"\n");
        }
    }
}

static SESSION: Mutex<Option<Session>> = Mutex::new(None);
static TRACING: AtomicBool = AtomicBool::new(false);
static EPOCH_SEQ: AtomicU64 = AtomicU64::new(0);
static ENV_INIT: Once = Once::new();

fn wall_mode_from_env() -> bool {
    std::env::var("FLEXGRAPH_TRACE_WALL").is_ok_and(|v| v == "1")
}

/// Reads `FLEXGRAPH_TRACE` once per process and opens the trace session
/// it names, if any. Called from [`next_epoch`] so the env path needs
/// no explicit setup call.
fn ensure_env_init() {
    ENV_INIT.call_once(|| {
        if let Ok(path) = std::env::var("FLEXGRAPH_TRACE") {
            if !path.is_empty() {
                let _ = start_trace(&path);
            }
        }
    });
}

/// Opens a trace session writing JSONL to `path`, resetting the epoch
/// counter and virtual clock so trace content is a pure function of the
/// work performed after this call. Replaces any active session.
pub fn start_trace(path: &str) -> std::io::Result<()> {
    let file = File::create(path)?;
    let wall = wall_mode_from_env();
    let mut s = Session {
        out: Some(BufWriter::new(file)),
        wall,
        vt: 0,
    };
    s.line(&trace::render_meta(wall));
    *SESSION.lock().unwrap() = Some(s);
    TRACING.store(true, Ordering::Release);
    EPOCH_SEQ.store(0, Ordering::Release);
    Ok(())
}

/// Flushes and closes the active trace session, if any.
pub fn finish_trace() {
    let mut guard = SESSION.lock().unwrap();
    if let Some(mut s) = guard.take() {
        if let Some(mut w) = s.out.take() {
            let _ = w.flush();
        }
    }
    TRACING.store(false, Ordering::Release);
}

/// Whether a trace session is open.
pub fn trace_active() -> bool {
    TRACING.load(Ordering::Acquire)
}

/// Allocates the next session-relative epoch id. Initializes the env
/// trace path on first call so epoch 0 is the first epoch after session
/// start.
pub fn next_epoch() -> u64 {
    ensure_env_init();
    EPOCH_SEQ.fetch_add(1, Ordering::AcqRel)
}

/// Opens the `FLEXGRAPH_TRACE` session without allocating an epoch —
/// the entry point for trace producers that are not epoch-shaped, like
/// the serving subsystem. Idempotent; a no-op when the variable is
/// unset or a session is already open.
pub fn init_env_trace() {
    ensure_env_init();
}

/// Writes one serving window to the active trace session. No-op when no
/// session is open.
pub fn emit_serve(rec: &ServeRecord) {
    if !trace_active() {
        return;
    }
    let mut guard = SESSION.lock().unwrap();
    let Some(s) = guard.as_mut() else { return };
    let vt = s.next_vt();
    let line = trace::render_serve(vt, rec);
    s.line(&line);
    if let Some(w) = s.out.as_mut() {
        let _ = w.flush();
    }
}

/// Writes one tenant's serving window to the active trace session as a
/// `tser` line. No-op when no session is open.
pub fn emit_tenant_serve(rec: &TenantServeRecord) {
    if !trace_active() {
        return;
    }
    let mut guard = SESSION.lock().unwrap();
    let Some(s) = guard.as_mut() else { return };
    let vt = s.next_vt();
    let line = trace::render_tenant_serve(vt, rec);
    s.line(&line);
    if let Some(w) = s.out.as_mut() {
        let _ = w.flush();
    }
}

/// Writes one page-cache window from the paged graph store to the
/// active trace session as a `pgc` line. No-op when no session is open.
pub fn emit_page_cache(rec: &PageCacheRecord) {
    if !trace_active() {
        return;
    }
    let mut guard = SESSION.lock().unwrap();
    let Some(s) = guard.as_mut() else { return };
    let vt = s.next_vt();
    let line = trace::render_page_cache(vt, rec);
    s.line(&line);
    if let Some(w) = s.out.as_mut() {
        let _ = w.flush();
    }
}

/// Writes one epoch's records to the active trace session (partition
/// records in rank order, then the epoch summary). No-op when no
/// session is open.
pub fn emit_epoch(ep: &TraceEpoch) {
    if !trace_active() {
        return;
    }
    let mut guard = SESSION.lock().unwrap();
    let Some(s) = guard.as_mut() else { return };
    for rec in ep.partitions.values() {
        let vt = s.next_vt();
        let line = trace::render_part(vt, rec, s.wall);
        s.line(&line);
    }
    let vt = s.next_vt();
    let line = trace::render_epoch(vt, ep, s.wall);
    s.line(&line);
    if let Some(w) = s.out.as_mut() {
        let _ = w.flush();
    }
}

/// Test hook: force-reset env initialization state is impossible with
/// `Once`, so tests that need a private session use [`start_trace`] /
/// [`finish_trace`] directly and never rely on `FLEXGRAPH_TRACE`.
pub fn reset_epochs() {
    EPOCH_SEQ.store(0, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_session_writes_parseable_lines() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("obs_unit_{}.jsonl", std::process::id()));
        let path_s = path.to_str().unwrap();
        start_trace(path_s).unwrap();
        assert!(trace_active());

        let mut ep = TraceEpoch::new(0);
        let mut rec = PartitionRecord::new(0, 0);
        rec.stage_mut(Stage::Upper).invocations = 1;
        rec.stage_mut(Stage::Upper).work = 77;
        ep.absorb(rec);
        emit_epoch(&ep);
        finish_trace();
        assert!(!trace_active());

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3); // meta + 1 part + epoch
        for l in &lines {
            parse_line(l).unwrap();
        }
        assert!(matches!(parse_line(lines[0]), Ok(TraceLine::Meta { .. })));
        match parse_line(lines[2]).unwrap() {
            TraceLine::Epoch { vt, work, .. } => {
                assert_eq!(vt, 2);
                assert_eq!(work, 77);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
