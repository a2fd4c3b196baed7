//! The sans-I/O worker surface, and the thread scheduler that steps it.
//!
//! A distributed worker is written once, as a [`SimTask`]: a state
//! machine that computes, sends, and polls its inbox through a
//! [`TaskCtx`], and returns a [`TaskStep`] whenever it must wait. Two
//! schedulers step the same tasks:
//!
//! * [`VirtualCluster::run`](crate::VirtualCluster::run) steps every
//!   task on one thread against the event wheel. A wait parks the task
//!   until its event fires, and [`TaskCtx::charge`] advances the task's
//!   virtual clock by modeled compute.
//! * [`run_on_thread`] steps one task on the calling OS thread over a
//!   [`WorkerComm`]. [`TaskStep::Barrier`] becomes
//!   [`WorkerComm::barrier`], [`TaskStep::Recv`] a blocking
//!   [`WorkerComm::recv_tag_from`] whose message the next
//!   [`TaskCtx::try_recv`] returns, and [`TaskCtx::charge`] returns the
//!   wall nanoseconds since the worker's previous charge or wake-up.
//!
//! So the same `charge` call records virtual time on one scheduler and
//! measured time on the other, and every other effect of a task — what
//! it sends, in which order it folds, which counters it writes — is the
//! same on both by construction.

use crate::det::VirtualCluster;
use crate::fabric::{CommError, Message, WorkerComm};
use bytes::Bytes;
use std::time::{Duration, Instant};

/// What a task wants from its scheduler after a `step`.
///
/// A task returning [`TaskStep::Recv`] is resumed once a matching
/// message is available — it must re-enter the state that called
/// [`TaskCtx::try_recv`] and retry. A task returning
/// [`TaskStep::Barrier`] must *first* advance its own state past the
/// barrier: when released, its next step resumes there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskStep {
    /// Wait until a message with `tag` from `from` is available.
    Recv {
        /// Sender rank to wait on.
        from: usize,
        /// Tag to wait on.
        tag: u32,
    },
    /// Wait until every worker reaches the barrier.
    Barrier,
    /// The task is finished (successfully or not); never stepped again.
    Done,
}

/// A cooperative worker task: a state machine stepped by a scheduler.
pub trait SimTask {
    /// Runs until the task must wait or finishes, returning what to
    /// wait on. Called again when the wait is satisfied — or when a
    /// failure is latched, which the task must check via
    /// [`TaskCtx::failed`] at entry.
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> TaskStep;
}

/// A task's window into its scheduler while being stepped: its clock,
/// compute charging, and the send/receive surface.
pub struct TaskCtx<'a> {
    rank: usize,
    io: Io<'a>,
}

enum Io<'a> {
    Wheel(&'a mut VirtualCluster),
    Thread(&'a mut ThreadIo),
}

impl<'a> TaskCtx<'a> {
    pub(crate) fn on_wheel(rank: usize, cluster: &'a mut VirtualCluster) -> Self {
        Self {
            rank,
            io: Io::Wheel(cluster),
        }
    }

    /// This task's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        match &self.io {
            Io::Wheel(c) => c.num_workers(),
            Io::Thread(t) => t.comm.num_workers(),
        }
    }

    /// This task's clock in nanoseconds: virtual time on the wheel,
    /// wall time since the task started on a thread.
    pub fn now(&self) -> u64 {
        match &self.io {
            Io::Wheel(c) => c.task_vt(self.rank),
            Io::Thread(t) => t.started.elapsed().as_nanos() as u64,
        }
    }

    /// This task's straggler compute multiplier (1.0 unless the virtual
    /// profile makes it straggle; always 1.0 on a thread).
    pub fn compute_factor(&self) -> f64 {
        match &self.io {
            Io::Wheel(c) => c.compute_factor(self.rank),
            Io::Thread(_) => 1.0,
        }
    }

    /// Accounts `units` of compute the task just performed and returns
    /// its nanoseconds. On the wheel this advances the local clock by
    /// the modeled cost of `units`; on a thread it is the wall time
    /// since the previous charge or wake-up (and `units` is ignored).
    pub fn charge(&mut self, units: u64) -> u64 {
        match &mut self.io {
            Io::Wheel(c) => c.charge(self.rank, units),
            Io::Thread(t) => {
                let now = Instant::now();
                let ns = (now - t.mark).as_nanos() as u64;
                t.mark = now;
                t.compute_ns += ns;
                ns
            }
        }
    }

    /// The latched failure, if a peer failure has been detected.
    pub fn failed(&self) -> Option<CommError> {
        match &self.io {
            Io::Wheel(c) => c.failed(self.rank),
            Io::Thread(t) => t.comm.failed(),
        }
    }

    /// Sends `payload` to `to` with `tag`, reliably. Returns
    /// [`CommError::Crashed`] when this send hits the schedule's crash
    /// point, and the latched error after a peer failure.
    pub fn send(&mut self, to: usize, tag: u32, payload: Bytes) -> Result<(), CommError> {
        match &mut self.io {
            Io::Wheel(c) => c.task_send(self.rank, to, tag, payload),
            Io::Thread(t) => t.comm.send(to, tag, payload),
        }
    }

    /// Non-blocking receive of the next payload with `tag` from `from`,
    /// in per-link send order. `None` means the caller should wait by
    /// returning [`TaskStep::Recv`] with the same coordinates.
    pub fn try_recv(&mut self, from: usize, tag: u32) -> Option<Bytes> {
        match &mut self.io {
            Io::Wheel(c) => c.try_recv(self.rank, from, tag),
            Io::Thread(t) => t
                .arrived
                .take_if(|m| m.from == from && m.tag == tag)
                .map(|m| m.payload),
        }
    }
}

/// A task's fabric endpoint and clocks while it runs on a thread.
struct ThreadIo {
    comm: WorkerComm,
    started: Instant,
    /// The previous charge or wake-up.
    mark: Instant,
    compute_ns: u64,
    /// The message the last blocking receive returned.
    arrived: Option<Message>,
}

/// What [`run_on_thread`] measured of one task.
#[derive(Clone, Copy, Debug)]
pub struct ThreadRun {
    /// Wall time from the first step to [`TaskStep::Done`].
    pub elapsed: Duration,
    /// Sum of the task's charged wall nanoseconds.
    pub compute_ns: u64,
}

/// Steps `task` to completion on the calling thread over `comm`.
///
/// Every wait becomes a blocking fabric call; the fabric latches its
/// error for [`TaskCtx::failed`]. The worker leaves as soon as its task
/// is done: nothing it sent can be lost, so no peer needs it to stay.
pub fn run_on_thread<T: SimTask + ?Sized>(task: &mut T, comm: WorkerComm) -> ThreadRun {
    let rank = comm.rank();
    let started = Instant::now();
    let mut io = ThreadIo {
        comm,
        started,
        mark: started,
        compute_ns: 0,
        arrived: None,
    };
    loop {
        // A failed wait is latched in the fabric; the task sees it
        // through `TaskCtx::failed` on its next step.
        match task.step(&mut TaskCtx {
            rank,
            io: Io::Thread(&mut io),
        }) {
            TaskStep::Done => break,
            TaskStep::Barrier => {
                let _ = io.comm.barrier();
            }
            TaskStep::Recv { from, tag } => io.arrived = io.comm.recv_tag_from(from, tag).ok(),
        }
        io.mark = Instant::now();
    }
    ThreadRun {
        elapsed: started.elapsed(),
        compute_ns: io.compute_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, Fabric, SimConfig};

    /// Sends its rank to the next worker, then waits for the previous
    /// one's; records what arrived.
    struct Ring {
        sent: bool,
        got: Option<u8>,
    }

    impl SimTask for Ring {
        fn step(&mut self, ctx: &mut TaskCtx<'_>) -> TaskStep {
            let (k, me) = (ctx.num_workers(), ctx.rank());
            if ctx.failed().is_some() {
                return TaskStep::Done;
            }
            if !self.sent {
                self.sent = true;
                if ctx
                    .send((me + 1) % k, 7, Bytes::from(vec![me as u8]))
                    .is_err()
                {
                    return TaskStep::Done;
                }
            }
            let from = (me + k - 1) % k;
            match ctx.try_recv(from, 7) {
                Some(p) => {
                    self.got = Some(p[0]);
                    TaskStep::Done
                }
                None => TaskStep::Recv { from, tag: 7 },
            }
        }
    }

    fn rings(k: usize) -> Vec<Ring> {
        (0..k)
            .map(|_| Ring {
                sent: false,
                got: None,
            })
            .collect()
    }

    #[test]
    fn one_task_runs_on_both_schedulers() {
        let k = 4;
        let mut virt = rings(k);
        VirtualCluster::new(k, SimConfig::default()).run(&mut virt);

        let mut threaded = rings(k);
        let (fabric, comms) = Fabric::new(k, CostModel::accounting_only());
        crossbeam::thread::scope(|s| {
            for (task, comm) in threaded.iter_mut().zip(comms) {
                s.spawn(move |_| run_on_thread(task, comm));
            }
        })
        .unwrap();

        let got = |ts: &[Ring]| ts.iter().map(|t| t.got).collect::<Vec<_>>();
        assert_eq!(got(&virt), vec![Some(3), Some(0), Some(1), Some(2)]);
        assert_eq!(got(&threaded), got(&virt));
        assert_eq!(fabric.stats().messages(), k as u64);
    }
}
