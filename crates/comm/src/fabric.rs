//! The worker fabric: sequenced channels, message-based barriers, tagged
//! receive, all-to-all — under a seeded [`ChaosSchedule`].
//!
//! # Delivery
//!
//! Every payload [`WorkerComm::send`] ships carries a per-destination
//! sequence number, and its fate comes from the chaos walk that the
//! virtual runtime takes too. The channels underneath cannot lose a
//! packet, so a message whose first transmissions the schedule drops is
//! sent once, due after the backoffs ([`RetryPolicy`]) a retransmitting
//! sender would have waited. A duplicate rides in its
//! original's packet and is taken in twice, the copy through the same
//! dedup window as any arrival. A reorder hold keeps the packet back
//! until the next send to that peer or the next blocking wait. So any
//! schedule of drops, duplicates, reorders, and delays still delivers
//! every payload exactly once to the application, and the fault
//! counters are the wheel's, message for message. Barrier frames, aborts
//! and failure notices ride outside the sequenced stream and are never
//! chaos-injected, as the wheel's barriers are not.
//!
//! # Barriers and failure detection
//!
//! Barriers are message-based: an empty frame per peer, on a reserved
//! per-generation tag. A worker that hits its schedule's [`CrashPoint`]
//! sends every peer a failure notice due one
//! [`clock::detection_budget`] later (when a retransmitting sender would
//! have given up on it) and stops. A peer blocked in a receive or a
//! barrier then returns [`CommError::PeerUnreachable`], letting
//! `dist::runtime` re-drive the epoch from its epoch-start checkpoint.
//! The receive patience stays as the hang guard: a receive that outlives
//! it broadcasts an abort, so the whole fleet unwinds.
//!
//! A schedule installed with [`Fabric::set_chaos`] is published as an
//! immutable `Arc` and adopted by each worker only at barrier points (or
//! on its first fabric operation), so a schedule can never tear across a
//! message batch.
//!
//! [`CrashPoint`]: crate::CrashPoint

use crate::chaos::ChaosSchedule;
use crate::clock::{self, wait_until};
use crate::fate::{crash_on_send, fate, DedupWindow};
use crate::stats::{CommStats, CostModel};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tags at or above this value are reserved for the barrier protocol.
const BARRIER_TAG_BASE: u32 = 0xFFFF_0000;

/// A structured communication failure. Every blocking fabric operation
/// returns one instead of hanging when a peer is gone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// This worker reached its scheduled [`crate::CrashPoint`] and must
    /// stop.
    Crashed,
    /// Peer `rank` crashed, or a directed receive from `rank` outlived
    /// the receive patience.
    PeerUnreachable {
        /// The unresponsive peer.
        rank: usize,
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
            Self::Aborted { by } => write!(f, "epoch aborted by peer {by}"),
        }
    }
}

impl std::error::Error for CommError {}

/// Retransmission and failure-detection timing: the delays a dropped
/// message costs, and how long a crash takes to detect.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Time before the first retransmission of a dropped message; also
    /// the unit the exponential backoff doubles from.
    pub base_timeout: Duration,
    /// Cap on the backoff between retransmissions.
    pub max_backoff: Duration,
    /// Transmissions (including the first) before a peer is declared
    /// unreachable; with the backoffs, this sets
    /// [`clock::detection_budget`].
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
    Data {
        seq: u64,
        tag: u32,
        payload: Bytes,
    },
    /// The sender reached barrier `tag`.
    Barrier {
        tag: u32,
    },
    /// The sender detected a failure and aborted.
    Abort,
    /// The sender crashed.
    Failure,
}

/// One packet on the simulated wire.
#[derive(Clone, Debug)]
struct Packet {
    from: usize,
    deliver_at: Instant,
    frame: Frame,
    /// A chaos duplicate: the receiver ingests the frame twice, the
    /// copy right behind the original.
    duplicated: bool,
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
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..k).map(|_| unbounded::<Packet>()).unzip();
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
                held: vec![Vec::new(); k],
                seen: DedupWindow::new(k),
                barrier_gen: 0,
                data_sends: 0,
                failed: None,
                notice: None,
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

/// One worker's endpoint into the fabric. Dropping it releases any
/// packets the reorder fault still holds back.
pub struct WorkerComm {
    rank: usize,
    k: usize,
    senders: Vec<Sender<Packet>>,
    receiver: Receiver<Packet>,
    /// Delivered-but-unclaimed messages, in arrival order, parked until
    /// their `(from, tag)` is asked for.
    pending: Vec<Message>,
    shared: Arc<Shared>,
    /// This worker's adopted schedule; refreshed only at barriers.
    chaos: Option<Arc<ChaosSchedule>>,
    /// Next sequence number per destination (1-based; 0 = none sent).
    next_seq: Vec<u64>,
    /// Per-destination packets held back by the reorder fault.
    held: Vec<Vec<Packet>>,
    seen: DedupWindow,
    barrier_gen: u64,
    /// Application sends made, for the [`crate::CrashPoint`].
    data_sends: u64,
    /// The latched failure: every later operation returns it.
    failed: Option<CommError>,
    /// The earliest failure notice received: its sender and due time.
    notice: Option<(usize, Instant)>,
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

    /// The latched failure, if an operation has failed.
    pub(crate) fn failed(&self) -> Option<CommError> {
        self.failed.clone()
    }

    fn check(&self) -> Result<(), CommError> {
        self.failed.clone().map_or(Ok(()), Err)
    }

    fn fail(&mut self, e: CommError) -> CommError {
        self.failed = Some(e.clone());
        e
    }

    /// Sends `payload` to worker `to` with application `tag`, reliably.
    ///
    /// The sender returns immediately. The packet becomes visible to
    /// the receiver after the backoffs of any dropped transmissions, the
    /// chaos delay, and — when `simulate_delay` is on — the cost model's
    /// wire time, so payloads are genuinely "in flight": the property
    /// pipeline processing overlaps against.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is in the reserved barrier range (`>= 0xFFFF_0000`).
    pub fn send(&mut self, to: usize, tag: u32, payload: Bytes) -> Result<(), CommError> {
        assert!(tag < BARRIER_TAG_BASE, "tags >= 0xFFFF_0000 are reserved");
        self.check()?;
        let chaos = self.chaos_snapshot();
        if crash_on_send(&chaos, self.rank, &mut self.data_sends) {
            self.crash();
            return Err(self.fail(CommError::Crashed));
        }
        self.next_seq[to] += 1;
        let seq = self.next_seq[to];
        let (model, retry) = (self.shared.model, self.shared.retry);
        let wire_ns = (model.wire_us(payload.len()) * 1_000.0) as u64;
        let (f, delay_ns) = self.shared.stats.with(|st| {
            let f = fate(&chaos, &retry, |_| false, self.rank, to, seq, st);
            let delay_ns = (f.delay_us * 1_000.0) as u64;
            st.record(payload.len(), wire_ns + delay_ns);
            (f, delay_ns)
        });
        let wire_wait_ns = if model.simulate_delay { wire_ns } else { 0 };
        let pkt = Packet {
            from: self.rank,
            deliver_at: Instant::now() + f.backoff + Duration::from_nanos(wire_wait_ns + delay_ns),
            frame: Frame::Data { seq, tag, payload },
            duplicated: f.duplicate,
        };
        if f.hold && self.held[to].len() < chaos.reorder_window {
            self.held[to].push(pkt);
            return Ok(());
        }
        self.transmit(to, pkt);
        // A normal transmission releases anything held back for this
        // destination — the held packets now arrive *after* it.
        self.flush_held(to);
        Ok(())
    }

    /// Dies at the crash point: releases what the reorder fault holds
    /// (it was sent before the crash), then dates every peer's failure
    /// notice one detection budget ahead, as the wheel does.
    fn crash(&mut self) {
        self.flush_all_held();
        let due = Instant::now() + clock::detection_budget(&self.shared.retry);
        self.broadcast(Frame::Failure, due);
    }

    /// Best-effort raw transmit: a finished peer has dropped its
    /// receiver, and it needs nothing more.
    fn transmit(&self, to: usize, pkt: Packet) {
        let _ = self.senders[to].send(pkt);
    }

    fn broadcast(&self, frame: Frame, deliver_at: Instant) {
        for p in (0..self.k).filter(|&p| p != self.rank) {
            self.transmit(
                p,
                Packet {
                    from: self.rank,
                    deliver_at,
                    frame: frame.clone(),
                    duplicated: false,
                },
            );
        }
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
        self.chaos
            .get_or_insert_with(|| self.shared.chaos.lock().clone())
            .clone()
    }

    /// Ingests one wire packet: dedups data, parks it, notes failure
    /// notices, latches aborts. A duplicated packet's frame is taken in
    /// twice, so its copy meets the dedup window like any arrival.
    fn ingest(&mut self, pkt: Packet) -> Result<(), CommError> {
        let (from, deliver_at) = (pkt.from, pkt.deliver_at);
        match pkt.frame {
            Frame::Data { seq, tag, payload } => {
                for _ in 0..=u8::from(pkt.duplicated) {
                    if self.seen.first_arrival(from, seq) {
                        let payload = payload.clone();
                        self.pending.push(Message {
                            from,
                            tag,
                            payload,
                            deliver_at,
                        });
                    } else {
                        self.shared.stats.with(|st| st.redeliveries += 1);
                    }
                }
            }
            Frame::Barrier { tag } => self.pending.push(Message {
                from,
                tag,
                payload: Bytes::from_static(b""),
                deliver_at,
            }),
            Frame::Abort => return Err(self.fail(CommError::Aborted { by: from })),
            Frame::Failure => {
                if self.notice.is_none_or(|(_, due)| deliver_at < due) {
                    self.notice = Some((from, deliver_at));
                }
            }
        }
        Ok(())
    }

    /// Receives the next message carrying `tag` from `from`, blocking
    /// until its modeled delivery time. Messages with other coordinates
    /// are parked; a peer's same-tag messages come out in arrival order.
    /// This is the deterministic-order receive that keeps floating-point
    /// folds bitwise reproducible under reordering chaos.
    pub fn recv_tag_from(&mut self, from: usize, tag: u32) -> Result<Message, CommError> {
        self.check()?;
        // Entering a blocking wait: release anything held back by the
        // reorder fault so it cannot be withheld indefinitely.
        self.flush_all_held();
        let deadline = Instant::now() + self.shared.retry.patience;
        loop {
            if let Some(pos) = self
                .pending
                .iter()
                .position(|m| m.from == from && m.tag == tag)
            {
                let msg = self.pending.remove(pos);
                wait_until(msg.deliver_at);
                return Ok(msg);
            }
            let now = Instant::now();
            let mut wake = deadline;
            if let Some((culprit, due)) = self.notice {
                if now >= due {
                    return Err(self.fail(CommError::PeerUnreachable { rank: culprit }));
                }
                wake = wake.min(due);
            }
            if now >= deadline {
                self.broadcast(Frame::Abort, now);
                return Err(self.fail(CommError::PeerUnreachable { rank: from }));
            }
            // We hold a sender to our own channel, so this only ever
            // times out or yields a packet.
            if let Ok(pkt) = self.receiver.recv_timeout(wake - now) {
                self.ingest(pkt)?;
            }
        }
    }

    /// Blocks until every worker reaches the barrier, by exchanging
    /// empty frames on a reserved per-generation tag. Doubles as the
    /// adoption point for schedules published via [`Fabric::set_chaos`].
    pub fn barrier(&mut self) -> Result<(), CommError> {
        self.check()?;
        self.barrier_gen += 1;
        let tag = BARRIER_TAG_BASE | (self.barrier_gen as u32 & 0xFFFF);
        // Data sent before the barrier leaves before its frames.
        self.flush_all_held();
        self.broadcast(Frame::Barrier { tag }, Instant::now());
        let me = self.rank;
        for p in (0..self.k).filter(|&p| p != me) {
            self.recv_tag_from(p, tag)?;
        }
        // Everyone is between batches: safe to adopt a new schedule.
        self.chaos = Some(self.shared.chaos.lock().clone());
        Ok(())
    }

    /// All-to-all exchange for one round: sends `outgoing[p]` to each
    /// other worker `p` (entries for `self.rank` are ignored), then
    /// receives one message with `tag` from every other worker, in rank
    /// order. Returns `(from, payload)` pairs in rank order; a peer's
    /// further same-tag messages stay parked for later receives.
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
        let me = self.rank;
        (0..self.k)
            .filter(|&p| p != me)
            .map(|p| Ok((p, self.recv_tag_from(p, tag)?.payload)))
            .collect()
    }
}

impl Drop for WorkerComm {
    fn drop(&mut self) {
        self.flush_all_held();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CostModel;

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
        // Application traffic only: barrier frames are not counted, so
        // the figure stays comparable to the paper's counts.
        assert_eq!(fabric.stats().messages(), (k * (k - 1)) as u64);
    }

    #[test]
    fn exchange_leaves_a_second_same_tag_message_parked() {
        let k = 3;
        let (_f, results) = spawn_workers(k, CostModel::accounting_only(), |mut w| {
            let me = w.rank() as u8;
            if me == 0 {
                // An extra tag-5 message to rank 2, ahead of the round.
                w.send(2, 5, Bytes::from_static(b"early")).unwrap();
            }
            let out: Vec<Bytes> = (0..k).map(|_| Bytes::copy_from_slice(&[me])).collect();
            let got = w.exchange(5, out).unwrap();
            let mut seen: Vec<Vec<u8>> = got.iter().map(|(_, p)| p.to_vec()).collect();
            assert_eq!(
                got.iter().map(|(from, _)| *from).collect::<Vec<_>>(),
                (0..k).filter(|&p| p != w.rank()).collect::<Vec<_>>(),
                "rank order"
            );
            if me == 2 {
                // Rank 0's round payload came second on its link, so it
                // is still parked.
                seen.push(w.recv_tag_from(0, 5).unwrap().payload.to_vec());
            }
            w.barrier().unwrap();
            seen
        });
        assert_eq!(results[2], vec![b"early".to_vec(), vec![1], vec![0]]);
        assert_eq!(results[1], vec![vec![0], vec![2]]);
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
        // Every first transmission is duplicated; barrier frames ride
        // outside the chaos stream.
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
                    w.ingest(pkt).unwrap();
                }
                assert!(w.pending.is_empty(), "a duplicate surfaced");
                got
            });
        assert_eq!(results[1], (0..N).collect::<Vec<_>>(), "each payload once");
        // Each logical message counted once; every duplicate was
        // discarded.
        let st = fabric.stats();
        assert_eq!(st.messages(), u64::from(N));
        assert_eq!(st.dups_injected(), u64::from(N));
        assert_eq!(st.redeliveries(), st.dups_injected());
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
                while !installed_ref.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
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
