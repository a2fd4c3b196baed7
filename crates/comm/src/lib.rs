#![warn(missing_docs)]

//! Simulated MPI controller for shared-nothing distributed training.
//!
//! The paper runs FlexGraph on a 16-machine HPC cluster with a 3.25 GB/s
//! NIC behind an MPI controller. This crate simulates that fabric on one
//! machine: each *worker* is an OS thread, all cross-worker traffic goes
//! through a [`Fabric`] of crossbeam channels, and every message both
//! moves real bytes and accrues a calibrated wire-time model
//! ([`CostModel`]). Messages are delivered only after their modeled wire
//! time has elapsed, so computation genuinely overlaps communication —
//! which is what makes the pipeline-processing experiment (Figure 15b/c)
//! produce real speedups rather than bookkeeping ones.
//!
//! The fabric is fault-tolerant, standing in for the fault-tolerance
//! module of the paper's architecture diagram (Figure 12): every payload
//! is sequenced, acknowledged, and retransmitted with capped exponential
//! backoff, receivers deduplicate, and a seeded [`ChaosSchedule`] can
//! deterministically inject drops, duplicates, reorders, delays, and
//! single-worker crashes — the substrate `tests/chaos.rs` uses to prove
//! bitwise-identical epoch outputs under any fault schedule.

//!
//! Workers are written once, as [`SimTask`] step machines ([`task`]).
//! [`run_on_thread`] steps one on an OS thread over the fabric; for
//! cluster sizes beyond the host's core count, [`det`] steps them all
//! on a deterministic virtual-time discrete-event runtime instead.
//! [`clock`] holds the timeout shapes both transports share.

pub mod chaos;
pub mod clock;
pub mod codec;
pub mod det;
pub mod fabric;
pub mod stats;
pub mod task;

pub use chaos::{ChaosSchedule, CrashPoint};
pub use codec::{
    decode_rows, decode_rows_with, decode_serve_frame, encode_flat_rows, encode_rows,
    try_decode_rows, try_decode_rows_with, try_decode_serve_frame, DecodeError, ServeFrame,
    ServeFrameError,
};
pub use det::{
    fnv1a, EventWheel, FlakyRack, LinkSpec, NetProfile, SimConfig, Straggler, VirtualCluster,
    VirtualStats, Vt,
};
pub use fabric::{CommError, Fabric, Message, RetryPolicy, WorkerComm};
pub use stats::{CommStats, CostModel, StatsSnapshot};
pub use task::{run_on_thread, SimTask, TaskCtx, TaskStep, ThreadRun};
