#![warn(missing_docs)]
// Offset-range loops over CSR/CSC arrays read clearer with explicit
// indices than with zipped iterators; the kernels keep them.
#![allow(clippy::needless_range_loop)]

//! Distributed GNN training runtime (paper §5).
//!
//! FlexGraph distributes training over `k` shared-nothing workers: the
//! vertex set is partitioned, each worker builds the HDGs of its roots,
//! and leaf-level features are synchronized at every layer. Two
//! optimizations define the paper's distributed story, both implemented
//! here:
//!
//! * [`balance`] — the application-driven workload balancer (**ADB**):
//!   a polynomial cost function fitted from per-root runtime samples,
//!   BFS-greedy balancing-plan generation, and plan selection by minimum
//!   induced-graph edge cut.
//! * [`pipeline`] — pipeline processing: sender-side *partial
//!   aggregation* (one combined message per destination instead of raw
//!   per-vertex rows) overlapped with local aggregation while messages
//!   are in flight.
//!
//! An epoch is one program with two schedulers. [`sim`] writes every
//! [`DistMode`]'s worker once, as a sans-I/O step machine that records
//! its own telemetry; [`runtime`] schedules those tasks either on OS
//! threads over the [`flexgraph_comm`] fabric ([`distributed_epoch`],
//! wall time) or on the deterministic virtual-time event wheel
//! ([`virtual_epoch`], modeled time at up to thousands of workers), and
//! owns the recovery loop around both. [`shard`] carves per-worker
//! shards out of a dataset + partitioning; [`trainer`] holds the epoch
//! configuration and report that the Figure 13 / 15 harnesses read.

pub mod adb;
pub mod balance;
pub mod pipeline;
pub mod runtime;
pub mod shard;
pub mod sim;
pub mod trainer;

pub use adb::AdbController;
pub use balance::{
    choose_plan, fit_cost_function, generate_plans, measured_partition_loads,
    merged_dependency_estimates, partition_dependency_estimates, root_dependency_sketches, CostFn,
    CostSample,
};
pub use pipeline::{build_leaf_sync, LeafSync, SlotLevel};
pub use runtime::{Attempt, EpochRuntime, ThreadedRuntime, VirtualRuntime};
pub use shard::{make_shards, make_shards_paged, Shard};
pub use sim::{virtual_epoch, EpochTask, VirtualEpochReport};
pub use trainer::{distributed_epoch, DistConfig, DistMode, EpochReport};
