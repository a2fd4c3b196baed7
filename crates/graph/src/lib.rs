#![warn(missing_docs)]
// Offset-range loops over CSR/CSC arrays read clearer with explicit
// indices than with zipped iterators; the kernels keep them.
#![allow(clippy::needless_range_loop)]

//! Parallel graph-processing substrate (the libgrape-lite stand-in).
//!
//! FlexGraph integrates the libgrape-lite graph engine for everything the
//! NN runtime cannot express: compact adjacency storage, random walks,
//! metapath instance search, BFS, and graph partitioning. This crate
//! provides those facilities from scratch:
//!
//! * [`Graph`] — immutable CSR + CSC adjacency with `u32` vertex ids,
//! * [`hetero::TypedGraph`] — vertex-typed graphs for heterogeneous models
//!   such as MAGNN,
//! * [`gen`] — synthetic dataset generators standing in for Reddit / FB91 /
//!   Twitter / IMDB (see DESIGN.md §2 for the substitution argument),
//! * [`walk`] — random walks with visit counting (PinSage neighbor
//!   selection, paper Figure 5),
//! * [`metapath`] — metapath instance matching (MAGNN neighbor selection),
//! * [`partition`] — hash and label-propagation (PuLP-family) partitioners
//!   plus edge-cut / balance metrics,
//! * [`bfs`] — traversal orders and hop-distance shells (JK-Net),
//! * [`io`] — dataset persistence (the storage layer of Figure 12).

pub mod bfs;
pub mod csr;
pub mod gen;
pub mod hetero;
pub mod hll;
pub mod io;
pub mod metapath;
pub mod partition;
pub mod walk;

pub use csr::{Graph, GraphBuilder, VertexId};
pub use hetero::TypedGraph;
pub use hll::{HyperLogLog, ReachSketches};
pub use partition::Partitioning;

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer, the one hash
/// behind deterministic sampling (`hdg::build`), HyperLogLog registers
/// ([`hll`]) and replica placement (`serve::shard`).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
