//! The worker fabric: reliable channels, message-based barriers, tagged
//! receive, all-to-all — hardened against a seeded [`ChaosSchedule`].
//!
//! # Reliable delivery
//!
//! Every payload [`WorkerComm::send`] ships carries a per-destination
//! sequence number and stays in the sender's retransmission buffer until
//! the receiver acknowledges it. Retransmission fires on a timeout with
//! capped exponential backoff ([`RetryPolicy`]); receivers acknowledge
//! every arrival, deduplicate by `(sender, seq)`, and park out-of-order
//! arrivals, so any schedule of drops, duplicates, reorders, and delays
//! still delivers every payload exactly once to the application. Fault
//! decisions are pure functions of `(seed, src, dst, seq, attempt)` —
//! never of shared mutable counters — so a seed reproduces the same
//! fault pattern on every run. Acknowledgements and aborts ride outside
//! the sequenced stream and are never chaos-injected (a lost ack is
//! indistinguishable from a lost message and is healed the same way: the
//! sender retransmits, the receiver re-acks).
//!
//! # Barriers and failure detection
//!
//! Barriers are message-based — a reliable empty payload per peer on a
//! reserved tag — and double as the failure detector: a worker that hit
//! its schedule's [`CrashPoint`] stops sending, its peers' retransmits
//! go unacknowledged, and once the attempt budget or receive patience is
//! exhausted the waiting worker returns a structured [`CommError`]
//! instead of hanging. The first worker to detect a failure broadcasts
//! an abort so the whole fleet unwinds within roughly one timeout,
//! letting `dist::runtime` re-drive the epoch from its epoch-start
//! checkpoint.
//!
//! A schedule installed with [`Fabric::set_chaos`] is published as an
//! immutable `Arc` and adopted by each worker only at barrier points (or
//! on its first fabric operation), so a schedule can never tear across a
//! message batch.

use crate::chaos::ChaosSchedule;
use crate::clock::{self, backoff_for, wait_until};
use crate::stats::{CommStats, CostModel};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tags at or above this value are reserved for the barrier protocol.
const BARRIER_TAG_BASE: u32 = 0xFFFF_0000;

/// A structured communication failure. Every blocking fabric operation
/// returns one instead of hanging when a peer is gone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// This worker reached its scheduled [`CrashPoint`] and must stop.
    Crashed,
    /// Retransmissions to `rank` exhausted the retry budget, or a
    /// directed receive from `rank` outlived the receive patience.
    PeerUnreachable {
        /// The unresponsive peer.
        rank: usize,
    },
    /// An any-source receive outlived the receive patience.
    RecvTimeout {
        /// The tag that never arrived.
        tag: u32,
    },
    /// Peer `by` detected a failure and aborted the epoch.
    Aborted {
        /// Rank of the aborting peer.
        by: usize,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Crashed => write!(f, "worker hit its scheduled crash point"),
            Self::PeerUnreachable { rank } => write!(f, "peer {rank} unreachable"),
            Self::RecvTimeout { tag } => write!(f, "no message with tag {tag} within patience"),
            Self::Aborted { by } => write!(f, "epoch aborted by peer {by}"),
        }
    }
}

impl std::error::Error for CommError {}

/// Retransmission and failure-detection knobs.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Time before the first retransmission of an unacked message; also
    /// the unit the exponential backoff doubles from.
    pub base_timeout: Duration,
    /// Cap on the backoff between retransmissions.
    pub max_backoff: Duration,
    /// Transmissions (including the first) before a peer is declared
    /// unreachable.
    pub max_attempts: u32,
    /// How long a blocking receive waits before declaring failure.
    pub patience: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base_timeout: Duration::from_millis(25),
            max_backoff: Duration::from_millis(200),
            max_attempts: 8,
            patience: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// Tight timeouts for tests: failures are detected in a few hundred
    /// milliseconds instead of seconds.
    pub fn snappy() -> Self {
        Self {
            base_timeout: Duration::from_millis(5),
            max_backoff: Duration::from_millis(40),
            max_attempts: 8,
            patience: Duration::from_secs(2),
        }
    }
}

/// A delivered message.
#[derive(Clone, Debug)]
pub struct Message {
    /// Rank of the sender.
    pub from: usize,
    /// Application tag (phase / round discriminator).
    pub tag: u32,
    /// Payload bytes.
    pub payload: Bytes,
    deliver_at: Instant,
}

/// Wire frames. Only `Data` is sequenced and chaos-injected.
#[derive(Clone, Debug)]
enum Frame {
    Data { seq: u64, tag: u32, payload: Bytes },
    Ack { seq: u64 },
    Abort,
}

/// One transmission on the simulated wire.
#[derive(Clone, Debug)]
struct Packet {
    from: usize,
    deliver_at: Instant,
    frame: Frame,
    /// A chaos duplicate: the receiver ingests the frame twice, the
    /// copy right behind the original.
    duplicated: bool,
}

/// An unacknowledged send awaiting its ack or next retransmission.
struct Unacked {
    tag: u32,
    payload: Bytes,
    /// Transmissions made so far (>= 1 once buffered).
    attempts: u32,
    /// Whether a transmission has survived the chaos schedule. The
    /// attempts up to the first survivor form the message's
    /// deterministic attempt chain; later retransmissions depend on
    /// when acks arrive, so they are counted apart.
    survived: bool,
    next_retry: Instant,
}

struct Shared {
    stats: CommStats,
    model: CostModel,
    retry: RetryPolicy,
    /// Published schedule; workers clone the `Arc` at barrier points.
    chaos: Mutex<Arc<ChaosSchedule>>,
}

/// Handle used to build a worker fleet, read fabric-wide stats, and
/// install chaos schedules.
pub struct Fabric {
    shared: Arc<Shared>,
}

impl Fabric {
    /// Creates a fabric of `k` workers with the default [`RetryPolicy`],
    /// returning per-worker endpoints.
    pub fn new(k: usize, model: CostModel) -> (Self, Vec<WorkerComm>) {
        Self::with_retry(k, model, RetryPolicy::default())
    }

    /// Creates a fabric of `k` workers with an explicit retry policy.
    pub fn with_retry(k: usize, model: CostModel, retry: RetryPolicy) -> (Self, Vec<WorkerComm>) {
        assert!(k >= 1, "need at least one worker");
        let shared = Arc::new(Shared {
            stats: CommStats::default(),
            model,
            retry,
            chaos: Mutex::new(Arc::new(ChaosSchedule::default())),
        });
        let mut senders = Vec::with_capacity(k);
        let mut receivers = Vec::with_capacity(k);
        for _ in 0..k {
            let (s, r) = unbounded::<Packet>();
            senders.push(s);
            receivers.push(r);
        }
        let workers = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| WorkerComm {
                rank,
                k,
                senders: senders.clone(),
                receiver,
                pending: Vec::new(),
                shared: shared.clone(),
                chaos: None,
                next_seq: vec![0; k],
                unacked: (0..k).map(|_| BTreeMap::new()).collect(),
                held: vec![Vec::new(); k],
                seen_upto: vec![0; k],
                seen_ahead: (0..k).map(|_| HashSet::new()).collect(),
                barrier_gen: 0,
                data_sends: 0,
                crashed: false,
                aborted: None,
            })
            .collect();
        (Self { shared }, workers)
    }

    /// Fabric-wide traffic counters.
    pub fn stats(&self) -> &CommStats {
        &self.shared.stats
    }

    /// Publishes a chaos schedule. Workers adopt it at their next
    /// barrier (or first fabric operation), never mid-batch.
    pub fn set_chaos(&self, schedule: ChaosSchedule) {
        *self.shared.chaos.lock() = Arc::new(schedule);
    }
}

/// One worker's endpoint into the fabric.
pub struct WorkerComm {
    rank: usize,
    k: usize,
    senders: Vec<Sender<Packet>>,
    receiver: Receiver<Packet>,
    /// Delivered-but-unclaimed messages parked until their tag is asked
    /// for.
    pending: Vec<Message>,
    shared: Arc<Shared>,
    /// This worker's adopted schedule; refreshed only at barriers.
    chaos: Option<Arc<ChaosSchedule>>,
    /// Next sequence number per destination (1-based; 0 = none sent).
    next_seq: Vec<u64>,
    /// Per-destination sends awaiting acknowledgement, keyed by seq.
    unacked: Vec<BTreeMap<u64, Unacked>>,
    /// Per-destination packets held back by the reorder fault.
    held: Vec<Vec<Packet>>,
    /// Highest contiguously-received seq per source.
    seen_upto: Vec<u64>,
    /// Received seqs ahead of the contiguous frontier, per source.
    seen_ahead: Vec<HashSet<u64>>,
    barrier_gen: u64,
    /// Application (non-control) sends attempted, for [`CrashPoint`].
    data_sends: u64,
    crashed: bool,
    aborted: Option<usize>,
}

impl WorkerComm {
    /// This worker's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of workers.
    pub fn num_workers(&self) -> usize {
        self.k
    }

    /// Sends `payload` to worker `to` with application `tag`, reliably:
    /// the message is buffered until acknowledged and retransmitted per
    /// the fabric's [`RetryPolicy`].
    ///
    /// The sender returns immediately (delivery is delayed by the cost
    /// model's wire time when `simulate_delay` is on, so payloads are
    /// genuinely "in flight" — the property pipeline processing overlaps
    /// against). Errors surface lazily: an exhausted retry budget is
    /// reported by whichever blocking call is pumping at the time.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is in the reserved barrier range (`>= 0xFFFF_0000`).
    pub fn send(&mut self, to: usize, tag: u32, payload: Bytes) -> Result<(), CommError> {
        assert!(tag < BARRIER_TAG_BASE, "tags >= 0xFFFF_0000 are reserved");
        self.send_inner(to, tag, payload, false)
    }

    fn send_inner(
        &mut self,
        to: usize,
        tag: u32,
        payload: Bytes,
        control: bool,
    ) -> Result<(), CommError> {
        if self.crashed {
            return Err(CommError::Crashed);
        }
        if let Some(by) = self.aborted {
            return Err(CommError::Aborted { by });
        }
        let chaos = self.chaos_snapshot();
        if !control {
            if let Some(c) = chaos.crash {
                if c.rank == self.rank && self.data_sends + 1 >= c.at_send.max(1) {
                    self.crashed = true;
                    return Err(CommError::Crashed);
                }
            }
            self.data_sends += 1;
        }
        self.next_seq[to] += 1;
        let seq = self.next_seq[to];
        let d = chaos.decide(self.rank, to, seq, 0);
        let wire_us = self.shared.model.wire_us(payload.len());
        if control {
            self.shared.stats.record_control();
        } else {
            self.shared
                .stats
                .record(payload.len(), wire_us + d.delay_us);
        }
        self.unacked[to].insert(
            seq,
            Unacked {
                tag,
                payload: payload.clone(),
                attempts: 1,
                survived: !d.drop,
                next_retry: Instant::now() + self.shared.retry.base_timeout,
            },
        );
        let mut pkt = Packet {
            from: self.rank,
            deliver_at: delivery_instant(self.shared.model, wire_us, d.delay_us),
            frame: Frame::Data { seq, tag, payload },
            duplicated: false,
        };
        if d.drop {
            self.shared.stats.record_drop_injected();
            return Ok(());
        }
        if d.hold && self.held[to].len() < chaos.reorder_window {
            self.held[to].push(pkt);
            return Ok(());
        }
        if d.duplicate {
            self.shared.stats.record_dup_injected();
            pkt.duplicated = true;
        }
        self.transmit(to, pkt);
        // A normal transmission releases anything held back for this
        // destination — the held packets now arrive *after* it.
        self.flush_held(to);
        Ok(())
    }

    /// Best-effort raw transmit: a crashed or finished peer may have
    /// dropped its receiver; that failure surfaces through timeouts.
    fn transmit(&self, to: usize, pkt: Packet) {
        let _ = self.senders[to].send(pkt);
    }

    fn flush_held(&mut self, to: usize) {
        while let Some(pkt) = self.held[to].pop() {
            self.transmit(to, pkt);
        }
    }

    fn flush_all_held(&mut self) {
        for p in 0..self.k {
            self.flush_held(p);
        }
    }

    fn chaos_snapshot(&mut self) -> Arc<ChaosSchedule> {
        if self.chaos.is_none() {
            self.chaos = Some(self.shared.chaos.lock().clone());
        }
        self.chaos.clone().expect("just installed")
    }

    /// Ingests one wire packet: acks data, dedups, latches aborts. A
    /// duplicated packet is ingested twice, so its copy goes through
    /// the same dedup as any other.
    fn process_packet(&mut self, pkt: Packet) -> Result<(), CommError> {
        if pkt.duplicated {
            self.ingest(pkt.from, pkt.deliver_at, pkt.frame.clone(), false)?;
            return self.ingest(pkt.from, pkt.deliver_at, pkt.frame, true);
        }
        self.ingest(pkt.from, pkt.deliver_at, pkt.frame, false)
    }

    /// Ingests one arrival of `frame`; `dup` marks a chaos duplicate.
    fn ingest(
        &mut self,
        from: usize,
        deliver_at: Instant,
        frame: Frame,
        dup: bool,
    ) -> Result<(), CommError> {
        match frame {
            Frame::Ack { seq } => {
                self.unacked[from].remove(&seq);
                Ok(())
            }
            Frame::Abort => {
                self.aborted = Some(from);
                Err(CommError::Aborted { by: from })
            }
            Frame::Data { seq, tag, payload } => {
                // Always (re-)acknowledge: the previous ack may itself
                // have been lost in flight while the sender retried.
                self.shared.stats.record_ack();
                self.transmit(
                    from,
                    Packet {
                        from: self.rank,
                        deliver_at: Instant::now(),
                        frame: Frame::Ack { seq },
                        duplicated: false,
                    },
                );
                if self.already_seen(from, seq) {
                    // A chaos duplicate or a timeout copy: drop it. Only
                    // duplicates count: each is ingested with its
                    // original, so the count does not depend on timing.
                    if dup {
                        self.shared.stats.record_redelivery();
                    }
                    return Ok(());
                }
                self.mark_seen(from, seq);
                self.pending.push(Message {
                    from,
                    tag,
                    payload,
                    deliver_at,
                });
                Ok(())
            }
        }
    }

    fn already_seen(&self, from: usize, seq: u64) -> bool {
        seq <= self.seen_upto[from] || self.seen_ahead[from].contains(&seq)
    }

    fn mark_seen(&mut self, from: usize, seq: u64) {
        if seq == self.seen_upto[from] + 1 {
            self.seen_upto[from] = seq;
            // Advance the contiguous frontier through anything that
            // arrived early.
            while self.seen_ahead[from].remove(&(self.seen_upto[from] + 1)) {
                self.seen_upto[from] += 1;
            }
        } else {
            self.seen_ahead[from].insert(seq);
        }
    }

    /// The earliest pending retransmission deadline across all peers, if
    /// any message is unacked — what bounds the next blocking wait.
    fn earliest_retry(&self) -> Option<Instant> {
        self.unacked
            .iter()
            .flat_map(|m| m.values().map(|u| u.next_retry))
            .min()
    }

    /// Retransmits every overdue unacked message; errors once a peer has
    /// exhausted the attempt budget.
    ///
    /// Retries and drops are counted only along each message's attempt
    /// chain, which the seed fixes. A copy sent after an earlier one
    /// survived counts as a timeout copy instead: it exists only because
    /// an ack was slow.
    fn pump_retries(&mut self) -> Result<(), CommError> {
        let now = Instant::now();
        let retry = self.shared.retry;
        let chaos = self.chaos_snapshot();
        let mut out: Vec<(usize, Packet)> = Vec::new();
        let mut exhausted = None;
        'peers: for p in 0..self.k {
            for (&seq, u) in self.unacked[p].iter_mut() {
                if u.next_retry > now {
                    continue;
                }
                if u.attempts >= retry.max_attempts {
                    exhausted = Some(p);
                    break 'peers;
                }
                let d = chaos.decide(self.rank, p, seq, u.attempts);
                u.next_retry = now + backoff_for(retry, u.attempts);
                u.attempts += 1;
                if u.survived {
                    self.shared.stats.record_timeout_copy();
                } else {
                    self.shared.stats.record_retry();
                    if d.drop {
                        self.shared.stats.record_drop_injected();
                    }
                    u.survived = !d.drop;
                }
                if d.drop {
                    continue;
                }
                let wire_us = self.shared.model.wire_us(u.payload.len());
                out.push((
                    p,
                    Packet {
                        from: self.rank,
                        deliver_at: delivery_instant(self.shared.model, wire_us, d.delay_us),
                        frame: Frame::Data {
                            seq,
                            tag: u.tag,
                            payload: u.payload.clone(),
                        },
                        duplicated: false,
                    },
                ));
            }
        }
        for (p, pkt) in out {
            self.transmit(p, pkt);
        }
        if let Some(rank) = exhausted {
            self.broadcast_abort();
            return Err(CommError::PeerUnreachable { rank });
        }
        Ok(())
    }

    fn broadcast_abort(&self) {
        for p in 0..self.k {
            if p != self.rank {
                self.transmit(
                    p,
                    Packet {
                        from: self.rank,
                        deliver_at: Instant::now(),
                        frame: Frame::Abort,
                        duplicated: false,
                    },
                );
            }
        }
    }

    /// Receives the next message carrying `tag` (from `from`, when
    /// given), blocking until its modeled delivery time while pumping
    /// acks and retransmissions. Messages with other tags are parked.
    fn recv_match(&mut self, from: Option<usize>, tag: u32) -> Result<Message, CommError> {
        if self.crashed {
            return Err(CommError::Crashed);
        }
        if let Some(by) = self.aborted {
            return Err(CommError::Aborted { by });
        }
        // Entering a blocking wait: release anything held back by the
        // reorder fault so it cannot be withheld indefinitely.
        self.flush_all_held();
        let retry = self.shared.retry;
        let deadline = Instant::now() + retry.patience;
        let tick = clock::tick_of(&retry);
        loop {
            if let Some(pos) = self
                .pending
                .iter()
                .position(|m| m.tag == tag && from.is_none_or(|f| m.from == f))
            {
                let msg = self.pending.swap_remove(pos);
                wait_until(msg.deliver_at);
                return Ok(msg);
            }
            // Block exactly until the next thing that could need us: an
            // arriving packet, the next due retransmission, or the
            // patience expiry — never a fixed sleep longer than one tick.
            let wait = clock::next_wait(Instant::now(), deadline, self.earliest_retry(), tick);
            match self.receiver.recv_timeout(wait) {
                Ok(pkt) => self.process_packet(pkt)?,
                Err(RecvTimeoutError::Timeout) => {}
                // Can't happen (we hold a clone of our own sender), but
                // don't busy-spin if it somehow does.
                Err(RecvTimeoutError::Disconnected) => std::thread::sleep(wait),
            }
            self.pump_retries()?;
            if Instant::now() > deadline {
                self.broadcast_abort();
                return Err(match from {
                    Some(rank) => CommError::PeerUnreachable { rank },
                    None => CommError::RecvTimeout { tag },
                });
            }
        }
    }

    /// Receives the next message carrying `tag` from a specific peer —
    /// the deterministic-order receive that keeps floating-point folds
    /// bitwise reproducible under reordering chaos.
    pub fn recv_tag_from(&mut self, from: usize, tag: u32) -> Result<Message, CommError> {
        self.recv_match(Some(from), tag)
    }

    /// Blocks until every worker reaches the barrier, by exchanging
    /// reliable empty messages on a reserved per-generation tag. Doubles
    /// as the failure detector (a missing peer turns into
    /// [`CommError::PeerUnreachable`] after the retry budget) and as the
    /// adoption point for schedules published via [`Fabric::set_chaos`].
    pub fn barrier(&mut self) -> Result<(), CommError> {
        if self.crashed {
            return Err(CommError::Crashed);
        }
        if let Some(by) = self.aborted {
            return Err(CommError::Aborted { by });
        }
        self.barrier_gen += 1;
        let tag = BARRIER_TAG_BASE | (self.barrier_gen as u32 & 0xFFFF);
        for p in 0..self.k {
            if p != self.rank {
                self.send_inner(p, tag, Bytes::from_static(b""), true)?;
            }
        }
        for p in 0..self.k {
            if p != self.rank {
                self.recv_match(Some(p), tag)?;
            }
        }
        // Quiesce before declaring the barrier passed: a worker that
        // returns from its last barrier and exits while a dropped send
        // is still unacked would strand the retransmission, leaving the
        // receiver to burn its whole patience window.
        self.drain_unacked()?;
        // Everyone is between batches: safe to adopt a new schedule.
        self.chaos = Some(self.shared.chaos.lock().clone());
        Ok(())
    }

    /// Blocks until every message this worker has sent is acknowledged,
    /// processing (and acking) incoming traffic meanwhile. Peers that
    /// still owe us acks are necessarily parked in their own barrier
    /// receive or drain loop, so this terminates without a distributed
    /// cycle: acknowledging never requires anything in return.
    fn drain_unacked(&mut self) -> Result<(), CommError> {
        let retry = self.shared.retry;
        let deadline = Instant::now() + retry.patience;
        let tick = clock::tick_of(&retry);
        while self.unacked.iter().any(|m| !m.is_empty()) {
            let wait = clock::next_wait(Instant::now(), deadline, self.earliest_retry(), tick);
            match self.receiver.recv_timeout(wait) {
                Ok(pkt) => self.process_packet(pkt)?,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => std::thread::sleep(wait),
            }
            self.pump_retries()?;
            if Instant::now() > deadline {
                self.broadcast_abort();
                let rank = self
                    .unacked
                    .iter()
                    .position(|m| !m.is_empty())
                    .expect("checked by the loop condition");
                return Err(CommError::PeerUnreachable { rank });
            }
        }
        Ok(())
    }

    /// All-to-all exchange for one round: sends `outgoing[p]` to each
    /// other worker `p` (entries for `self.rank` are ignored), then
    /// receives exactly one message from every other worker. Returns
    /// `(from, payload)` pairs in arrival order.
    pub fn exchange(
        &mut self,
        tag: u32,
        outgoing: Vec<Bytes>,
    ) -> Result<Vec<(usize, Bytes)>, CommError> {
        assert_eq!(outgoing.len(), self.k, "one payload slot per worker");
        for (p, payload) in outgoing.into_iter().enumerate() {
            if p != self.rank {
                self.send(p, tag, payload)?;
            }
        }
        let mut seen = vec![false; self.k];
        let mut got = Vec::with_capacity(self.k.saturating_sub(1));
        while got.len() < self.k - 1 {
            let msg = self.recv_match(None, tag)?;
            // The transport already dedups; this guards against a peer
            // legitimately sending the same tag twice in one round.
            if seen[msg.from] {
                continue;
            }
            seen[msg.from] = true;
            got.push((msg.from, msg.payload));
        }
        Ok(got)
    }
}

/// When the packet becomes visible to the receiver: wire time only when
/// the model simulates delay, chaos delay always.
fn delivery_instant(model: CostModel, wire_us: f64, chaos_delay_us: f64) -> Instant {
    let us = if model.simulate_delay {
        wire_us + chaos_delay_us
    } else {
        chaos_delay_us
    };
    if us > 0.0 {
        Instant::now() + Duration::from_nanos((us * 1_000.0) as u64)
    } else {
        Instant::now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{CostModel, StatsSnapshot};

    fn spawn_workers<F, R>(k: usize, model: CostModel, f: F) -> (Fabric, Vec<R>)
    where
        F: Fn(WorkerComm) -> R + Sync,
        R: Send,
    {
        let (fabric, workers) = Fabric::with_retry(k, model, RetryPolicy::snappy());
        let results = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = workers.into_iter().map(|w| s.spawn(|_| f(w))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        (fabric, results)
    }

    fn spawn_with_chaos<F, R>(
        k: usize,
        model: CostModel,
        chaos: ChaosSchedule,
        f: F,
    ) -> (Fabric, Vec<R>)
    where
        F: Fn(WorkerComm) -> R + Sync,
        R: Send,
    {
        let (fabric, workers) = Fabric::with_retry(k, model, RetryPolicy::snappy());
        fabric.set_chaos(chaos);
        let results = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = workers.into_iter().map(|w| s.spawn(|_| f(w))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        (fabric, results)
    }

    #[test]
    fn point_to_point_delivery() {
        let (_fabric, results) = spawn_workers(2, CostModel::accounting_only(), |mut w| {
            if w.rank() == 0 {
                w.send(1, 7, Bytes::from_static(b"hello")).unwrap();
                // Pump until the receiver has our payload (the final
                // barrier keeps retransmission alive under chaos).
                w.barrier().unwrap();
                Vec::new()
            } else {
                let m = w.recv_tag_from(0, 7).unwrap();
                assert_eq!(m.from, 0);
                w.barrier().unwrap();
                m.payload.to_vec()
            }
        });
        assert_eq!(results[1], b"hello");
    }

    #[test]
    fn tags_demultiplex_out_of_order() {
        let (_f, results) = spawn_workers(2, CostModel::accounting_only(), |mut w| {
            if w.rank() == 0 {
                w.send(1, 1, Bytes::from_static(b"first-tag")).unwrap();
                w.send(1, 2, Bytes::from_static(b"second-tag")).unwrap();
                w.barrier().unwrap();
                Vec::new()
            } else {
                // Ask for tag 2 first; tag 1's message must be parked and
                // still retrievable afterwards.
                let m2 = w.recv_tag_from(0, 2).unwrap();
                let m1 = w.recv_tag_from(0, 1).unwrap();
                w.barrier().unwrap();
                vec![m2.payload.to_vec(), m1.payload.to_vec()]
            }
        });
        assert_eq!(results[1][0], b"second-tag");
        assert_eq!(results[1][1], b"first-tag");
    }

    #[test]
    fn exchange_is_complete_and_attributed() {
        let k = 4;
        let (fabric, results) = spawn_workers(k, CostModel::accounting_only(), |mut w| {
            let rank = w.rank() as u8;
            let out: Vec<Bytes> = (0..k).map(|_| Bytes::copy_from_slice(&[rank])).collect();
            let mut got = w.exchange(9, out).unwrap();
            got.sort_by_key(|(from, _)| *from);
            got
        });
        for (rank, got) in results.iter().enumerate() {
            assert_eq!(got.len(), k - 1);
            for (from, payload) in got {
                assert_ne!(*from, rank);
                assert_eq!(payload.as_ref(), &[*from as u8]);
            }
        }
        // Application traffic only: acks and barriers are accounted as
        // control, so the figure stays comparable to the paper's counts.
        assert_eq!(fabric.stats().messages(), (k * (k - 1)) as u64);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let (_f, results) = spawn_workers(3, CostModel::accounting_only(), |mut w| {
            counter.fetch_add(1, Ordering::SeqCst);
            w.barrier().unwrap();
            // After the barrier everyone must observe all increments.
            counter.load(Ordering::SeqCst)
        });
        assert!(results.iter().all(|&c| c == 3));
    }

    #[test]
    fn modeled_delay_actually_delays() {
        let model = CostModel {
            alpha_us: 20_000.0,
            bytes_per_us: 1e9,
            simulate_delay: true,
        };
        let (_f, results) = spawn_workers(2, model, |mut w| {
            if w.rank() == 0 {
                let t0 = Instant::now();
                w.send(1, 0, Bytes::from_static(b"x")).unwrap();
                // Sender must NOT block on the wire.
                let sent_in = t0.elapsed();
                w.barrier().unwrap();
                sent_in
            } else {
                let t0 = Instant::now();
                let _ = w.recv_tag_from(0, 0).unwrap();
                let got_in = t0.elapsed();
                w.barrier().unwrap();
                got_in
            }
        });
        assert!(results[0] < Duration::from_millis(5), "send is async");
        assert!(
            results[1] >= Duration::from_millis(15),
            "delivery waits for wire time, got {:?}",
            results[1]
        );
    }

    #[test]
    fn duplicate_chaos_is_deduplicated_by_transport() {
        // Every first transmission is duplicated, barrier traffic
        // included.
        let chaos = ChaosSchedule {
            seed: 1,
            duplicate_every: 1,
            ..Default::default()
        };
        const N: u8 = 8;
        let (fabric, results) =
            spawn_with_chaos(2, CostModel::accounting_only(), chaos, |mut w| {
                if w.rank() == 0 {
                    for i in 0..N {
                        w.send(1, 3, Bytes::copy_from_slice(&[i])).unwrap();
                    }
                    w.barrier().unwrap();
                    return Vec::new();
                }
                let got: Vec<u8> = (0..N)
                    .map(|_| w.recv_tag_from(0, 3).unwrap().payload[0])
                    .collect();
                w.barrier().unwrap();
                // Ingest whatever is still queued: a copy that got past
                // dedup would stay parked here.
                while let Ok(pkt) = w.receiver.try_recv() {
                    w.process_packet(pkt).unwrap();
                }
                assert!(w.pending.is_empty(), "a duplicate surfaced");
                got
            });
        assert_eq!(results[1], (0..N).collect::<Vec<_>>(), "each payload once");
        // Each logical message counted once; every duplicate — the N
        // data messages' and the two barrier messages' — was discarded.
        let st = fabric.stats();
        assert_eq!(st.messages(), u64::from(N));
        assert_eq!(st.dups_injected(), u64::from(N) + 2);
        assert_eq!(st.redeliveries(), st.dups_injected());
    }

    #[test]
    fn fault_counters_ignore_timeout_copies() {
        // Drops, duplicates and a wire delay that holds receivers in
        // `wait_until`, so their acks go out late.
        let chaos = ChaosSchedule {
            seed: 17,
            drop_every: 3,
            drop_prob: 0.3,
            duplicate_every: 4,
            extra_delay_us: 2_000.0,
            jitter_us: 1_000.0,
            ..Default::default()
        };
        let run = |base_timeout: Duration| {
            let retry = RetryPolicy {
                base_timeout,
                max_backoff: base_timeout * 4,
                max_attempts: 10_000,
                patience: Duration::from_secs(10),
            };
            let (fabric, workers) = Fabric::with_retry(3, CostModel::accounting_only(), retry);
            fabric.set_chaos(chaos);
            crossbeam::thread::scope(|s| {
                for mut w in workers {
                    s.spawn(move |_| {
                        let me = w.rank();
                        for p in (0..3).filter(|&p| p != me) {
                            for i in 0..12u8 {
                                w.send(p, 1, Bytes::copy_from_slice(&[i])).unwrap();
                            }
                        }
                        for p in (0..3).filter(|&p| p != me) {
                            for _ in 0..12 {
                                w.recv_tag_from(p, 1).unwrap();
                            }
                        }
                        w.barrier().unwrap();
                    });
                }
            })
            .unwrap();
            fabric.stats().snapshot()
        };
        // Acks normally beat a 200 ms timeout; a 100 µs one fires while
        // receivers sleep out the chaos delay, re-sending messages that
        // already got through.
        let roomy = run(Duration::from_millis(200));
        let tight = run(Duration::from_micros(100));
        assert!(tight.timeout_copies > 0, "the tight policy must re-send");
        let chain = |s: StatsSnapshot| {
            (
                s.messages,
                s.retries,
                s.drops_injected,
                s.dups_injected,
                s.redeliveries,
            )
        };
        assert_eq!(chain(tight), chain(roomy), "timeouts leaked into counters");
        assert!(roomy.drops_injected > 0 && roomy.redeliveries > 0);
    }

    #[test]
    fn dropped_messages_are_retransmitted() {
        // Drop the first transmission of EVERY packet: nothing arrives
        // without the retry path.
        let chaos = ChaosSchedule {
            seed: 3,
            drop_every: 1,
            ..Default::default()
        };
        let (fabric, results) =
            spawn_with_chaos(3, CostModel::accounting_only(), chaos, |mut w| {
                let rank = w.rank() as u8;
                let out: Vec<Bytes> = (0..3).map(|_| Bytes::copy_from_slice(&[rank])).collect();
                let mut got = w.exchange(4, out).unwrap();
                got.sort_by_key(|(from, _)| *from);
                got.into_iter().map(|(_, p)| p[0]).collect::<Vec<u8>>()
            });
        for (rank, got) in results.iter().enumerate() {
            let want: Vec<u8> = (0..3u8).filter(|&p| p as usize != rank).collect();
            assert_eq!(*got, want);
        }
        assert!(fabric.stats().retries() > 0, "drops forced retransmission");
        assert!(fabric.stats().drops_injected() >= 6);
        assert_eq!(fabric.stats().messages(), 6, "logical count unchanged");
    }

    #[test]
    fn reordered_messages_arrive_in_seq_order_per_link() {
        let chaos = ChaosSchedule {
            seed: 9,
            reorder_prob: 1.0,
            reorder_window: 3,
            ..Default::default()
        };
        let (_f, results) = spawn_with_chaos(2, CostModel::accounting_only(), chaos, |mut w| {
            if w.rank() == 0 {
                for i in 0..6u8 {
                    w.send(1, 11, Bytes::copy_from_slice(&[i])).unwrap();
                }
                w.barrier().unwrap();
                Vec::new()
            } else {
                let mut got = Vec::new();
                for _ in 0..6 {
                    got.push(w.recv_tag_from(0, 11).unwrap().payload[0]);
                }
                w.barrier().unwrap();
                got
            }
        });
        // recv_tag_from takes messages in arrival order, but each payload must
        // arrive exactly once despite the holdback shuffling the wire.
        let mut sorted = results[1].clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn recv_tag_from_orders_receives_by_rank() {
        let (_f, results) = spawn_workers(3, CostModel::accounting_only(), |mut w| {
            if w.rank() == 0 {
                let a = w.recv_tag_from(1, 6).unwrap();
                let b = w.recv_tag_from(2, 6).unwrap();
                w.barrier().unwrap();
                vec![a.from, b.from]
            } else {
                // Rank 2 sends "before" rank 1 (no coordination needed;
                // the directed receive imposes the order).
                w.send(0, 6, Bytes::copy_from_slice(&[w.rank() as u8]))
                    .unwrap();
                w.barrier().unwrap();
                Vec::new()
            }
        });
        assert_eq!(results[0], vec![1, 2]);
    }

    #[test]
    fn crashed_worker_is_detected_not_hung() {
        let chaos = ChaosSchedule {
            seed: 2,
            crash: Some(crate::chaos::CrashPoint {
                rank: 0,
                at_send: 1,
            }),
            ..Default::default()
        };
        let retry = RetryPolicy {
            base_timeout: Duration::from_millis(2),
            max_backoff: Duration::from_millis(10),
            max_attempts: 4,
            patience: Duration::from_millis(400),
        };
        let (fabric, workers) = Fabric::with_retry(2, CostModel::accounting_only(), retry);
        fabric.set_chaos(chaos);
        let t0 = Instant::now();
        let results: Vec<Result<(), CommError>> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = workers
                .into_iter()
                .map(|mut w| {
                    s.spawn(move |_| -> Result<(), CommError> {
                        if w.rank() == 0 {
                            w.send(1, 1, Bytes::from_static(b"never"))?;
                            unreachable!("rank 0 crashes on its first send");
                        } else {
                            let _ = w.recv_tag_from(0, 1)?;
                            Ok(())
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        assert_eq!(results[0], Err(CommError::Crashed));
        assert!(results[1].is_err(), "survivor must not hang");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "detection bounded by patience, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn chaos_schedule_swaps_only_at_barriers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (fabric, workers) =
            Fabric::with_retry(2, CostModel::accounting_only(), RetryPolicy::snappy());
        let installed = AtomicBool::new(false);
        let fabric_ref = &fabric;
        let installed_ref = &installed;
        crossbeam::thread::scope(|s| {
            let mut it = workers.into_iter();
            let mut w0 = it.next().unwrap();
            let mut w1 = it.next().unwrap();
            let h0 = s.spawn(move |_| {
                // First send adopts the (empty) schedule.
                w0.send(1, 1, Bytes::from_static(b"a")).unwrap();
                let tick = clock::tick_of(&RetryPolicy::snappy());
                while !installed_ref.load(Ordering::Acquire) {
                    std::thread::sleep(tick);
                }
                // A schedule installed mid-batch must NOT apply yet.
                w0.send(1, 1, Bytes::from_static(b"b")).unwrap();
                w0.send(1, 1, Bytes::from_static(b"c")).unwrap();
                w0.barrier().unwrap();
                // After the barrier the new schedule applies.
                w0.send(1, 2, Bytes::from_static(b"d")).unwrap();
            });
            let h1 = s.spawn(move |_| {
                let _ = w1.recv_tag_from(0, 1).unwrap();
                fabric_ref.set_chaos(ChaosSchedule {
                    seed: 0,
                    duplicate_every: 1,
                    ..Default::default()
                });
                installed_ref.store(true, Ordering::Release);
                let _ = w1.recv_tag_from(0, 1).unwrap();
                let _ = w1.recv_tag_from(0, 1).unwrap();
                w1.barrier().unwrap();
                let _ = w1.recv_tag_from(0, 2).unwrap();
            });
            h0.join().unwrap();
            h1.join().unwrap();
        })
        .unwrap();
        // Only "d" (sent after the barrier) was duplicated; "b" and "c"
        // rode out the old schedule even though the new one was already
        // published.
        assert_eq!(fabric.stats().dups_injected(), 1);
    }

    #[test]
    fn stats_track_bytes() {
        let (fabric, _) = spawn_workers(2, CostModel::accounting_only(), |mut w| {
            if w.rank() == 0 {
                w.send(1, 0, Bytes::from(vec![0u8; 1024])).unwrap();
                w.barrier().unwrap();
            } else {
                let _ = w.recv_tag_from(0, 0).unwrap();
                w.barrier().unwrap();
            }
        });
        assert_eq!(fabric.stats().bytes(), 1024);
    }
}
