//! HyperLogLog cardinality sketches for admission and ADB planning.
//!
//! FlexGraph's planners repeatedly need *how many distinct vertices* a
//! multi-hop closure or dependency set touches — to price a batch
//! against the memory budget, or to size a partition's replicated
//! dependencies — but never the sets themselves. Materializing the sets
//! (BFS per root, sort+dedup per partition) makes planning cost scale
//! with the data it is trying to avoid touching. A [`HyperLogLog`]
//! sketch answers the count question in `2^p` bytes with a standard
//! error of `1.04/√m`, supports order-independent streaming insertion,
//! and merges losslessly (per-register max), which is exactly the
//! algebra hop-ball propagation needs ([`ReachSketches`], the
//! HyperANF construction).
//!
//! Dependency-free implementation of the standard estimator (Flajolet
//! et al. 2007) with the linear-counting small-range correction — our
//! graphs are small enough that planning-relevant counts usually sit in
//! the linear-counting regime, where the estimate is near-exact.

use crate::csr::Graph;
use crate::{splitmix64, VertexId};

/// A HyperLogLog distinct-count sketch with `m = 2^p` one-byte
/// registers.
///
/// Insertion hashes the item, routes it to register `hash >> (64-p)`,
/// and keeps the maximum "rank" (leading-zero count + 1 of the
/// remaining bits) seen per register. The estimate is the bias-corrected
/// harmonic mean of `2^-register`; [`Self::merge`] takes per-register
/// maxima, so a merged sketch equals the sketch of the union — built in
/// any order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HyperLogLog {
    p: u32,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Creates an empty sketch with `2^precision` registers.
    /// `precision` must be in `4..=16` (16 B to 64 KiB).
    pub fn new(precision: u32) -> Self {
        assert!(
            (4..=16).contains(&precision),
            "HLL precision {precision} outside 4..=16"
        );
        HyperLogLog {
            p: precision,
            registers: vec![0u8; 1 << precision],
        }
    }

    /// The precision `p` this sketch was built with.
    pub fn precision(&self) -> u32 {
        self.p
    }

    /// Number of registers (`m = 2^p`).
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    /// The standard error of [`Self::estimate`]: `1.04 / √m`.
    pub fn error_bound(&self) -> f64 {
        1.04 / (self.registers.len() as f64).sqrt()
    }

    /// True if nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }

    /// Inserts a raw 64-bit item (hashed internally).
    #[inline]
    pub fn insert_u64(&mut self, item: u64) {
        // Full-avalanche, so the low `p` bits (register index) and the
        // remaining bits (rank pattern) are independent enough for HLL.
        let h = splitmix64(item);
        let idx = (h >> (64 - self.p)) as usize;
        // Rank = position of the leftmost 1 in the remaining 64-p bits;
        // an all-zero remainder gets the saturating rank 64-p+1.
        let w = h << self.p;
        let rank = if w == 0 {
            (64 - self.p + 1) as u8
        } else {
            (w.leading_zeros() + 1) as u8
        };
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Inserts a graph vertex id.
    #[inline]
    pub fn insert_vertex(&mut self, v: VertexId) {
        self.insert_u64(v as u64);
    }

    /// Folds `other` into `self` (per-register max). The result sketches
    /// the union of both input streams. Panics on mismatched precision.
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(self.p, other.p, "cannot merge HLLs of different precision");
        for (a, &b) in self.registers.iter_mut().zip(&other.registers) {
            if b > *a {
                *a = b;
            }
        }
    }

    /// Estimated number of distinct inserted items.
    ///
    /// Bias-corrected harmonic mean with the linear-counting small-range
    /// correction (`E ≤ 2.5m` with empty registers → `m·ln(m/V)`); the
    /// 64-bit hash makes the large-range collision correction
    /// irrelevant at planning scales.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            len => 0.7213 / (1.0 + 1.079 / len as f64),
        };
        let mut sum = 0.0f64;
        let mut zeros = 0usize;
        for &r in &self.registers {
            sum += 1.0 / (1u64 << r) as f64;
            if r == 0 {
                zeros += 1;
            }
        }
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    /// Bytes of heap held by the register array.
    pub fn heap_bytes(&self) -> usize {
        self.registers.capacity()
    }
}

/// Per-vertex `k`-hop reachability-ball sketches (the HyperANF
/// construction): `ball(v, i)` sketches `B_i(v) = {v} ∪ ⋃_{u ∈ out(v)}
/// B_{i-1}(u)` — every vertex reachable from `v` in at most `i` hops
/// along *out*-edges, the direction the serving layer's hop shells
/// expand.
///
/// Building costs one sketch merge per edge per hop; after that, any
/// root set's multi-hop closure or per-hop shell size is estimated by
/// merging root balls — no BFS, no materialized shells. Shell sizes
/// come out of ball differences: `|shell_i| ≈ est(B_i) − est(B_{i−1})`,
/// clamped at zero (estimates are noisy but monotone in the common
/// linear-counting regime).
pub struct ReachSketches {
    k: usize,
    n: usize,
    /// `balls[(hop-1) * n + v]` is the hop-`hop` ball of vertex `v`.
    balls: Vec<HyperLogLog>,
}

impl ReachSketches {
    /// Builds hop-1 .. hop-`k` ball sketches for every vertex of `g` at
    /// the given HLL precision.
    pub fn build(g: &Graph, k: usize, precision: u32) -> Self {
        assert!(k >= 1, "need at least one hop");
        let n = g.num_vertices();
        let mut balls: Vec<HyperLogLog> = Vec::with_capacity(k * n);
        // Hop 1: {v} ∪ out(v), inserted directly.
        for v in 0..n as VertexId {
            let mut s = HyperLogLog::new(precision);
            s.insert_vertex(v);
            for &u in g.out_neighbors(v) {
                s.insert_vertex(u);
            }
            balls.push(s);
        }
        // Hop i: {v} ∪ ⋃ B_{i-1}(u) over out-neighbors u.
        for hop in 2..=k {
            let prev = &balls[(hop - 2) * n..(hop - 1) * n];
            let mut next: Vec<HyperLogLog> = Vec::with_capacity(n);
            for v in 0..n as VertexId {
                let mut s = prev[v as usize].clone();
                for &u in g.out_neighbors(v) {
                    s.merge(&prev[u as usize]);
                }
                next.push(s);
            }
            balls.extend(next);
        }
        ReachSketches { k, n, balls }
    }

    /// Number of hops sketched.
    pub fn hops(&self) -> usize {
        self.k
    }

    /// The hop-`hop` ball sketch of `v` (`hop` in `1..=k`).
    pub fn ball(&self, v: VertexId, hop: usize) -> &HyperLogLog {
        assert!((1..=self.k).contains(&hop), "hop {hop} out of range");
        &self.balls[(hop - 1) * self.n + v as usize]
    }

    /// Estimated `|B_hop(v)|`; `hop == 0` is exactly 1 (the vertex).
    pub fn ball_estimate(&self, v: VertexId, hop: usize) -> f64 {
        if hop == 0 {
            1.0
        } else {
            self.ball(v, hop).estimate()
        }
    }

    /// Estimated size of the *exact-hop* shell `hop` around `v`
    /// (vertices at distance exactly `hop`), via the ball difference,
    /// clamped at zero.
    pub fn shell_estimate(&self, v: VertexId, hop: usize) -> f64 {
        (self.ball_estimate(v, hop) - self.ball_estimate(v, hop - 1)).max(0.0)
    }

    /// Union sketch of the hop-`hop` balls of `roots`.
    pub fn merged_ball(&self, roots: &[VertexId], hop: usize) -> HyperLogLog {
        let mut acc = HyperLogLog::new(self.balls[0].precision());
        for &r in roots {
            acc.merge(self.ball(r, hop));
        }
        acc
    }

    /// Estimated distinct-vertex count of the union of the `roots`'
    /// `hop`-hop balls — the multi-hop closure size, without a BFS.
    pub fn merged_estimate(&self, roots: &[VertexId], hop: usize) -> f64 {
        self.merged_ball(roots, hop).estimate()
    }

    /// Bytes of heap held by all ball sketches.
    pub fn heap_bytes(&self) -> usize {
        self.balls.iter().map(HyperLogLog::heap_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{hop_shells, k_hop_closure};
    use crate::gen::community;

    #[test]
    fn empty_sketch_estimates_zero() {
        let s = HyperLogLog::new(10);
        assert!(s.is_empty());
        assert_eq!(s.estimate(), 0.0);
        assert_eq!(s.num_registers(), 1024);
    }

    #[test]
    fn small_counts_are_near_exact_via_linear_counting() {
        let mut s = HyperLogLog::new(10);
        for i in 0..200u64 {
            s.insert_u64(i);
            s.insert_u64(i); // duplicates must not inflate the count
        }
        let est = s.estimate();
        assert!(
            (est - 200.0).abs() / 200.0 < 0.05,
            "estimate {est} too far from 200"
        );
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(8);
        let mut b = HyperLogLog::new(8);
        let mut u = HyperLogLog::new(8);
        for i in 0..300u64 {
            a.insert_u64(i);
            u.insert_u64(i);
        }
        for i in 150..450u64 {
            b.insert_u64(i);
            u.insert_u64(i);
        }
        a.merge(&b);
        assert_eq!(a, u, "merge must be exactly the union sketch");
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn merge_rejects_mismatched_precision() {
        let mut a = HyperLogLog::new(8);
        a.merge(&HyperLogLog::new(9));
    }

    #[test]
    #[should_panic(expected = "outside 4..=16")]
    fn precision_is_bounded() {
        let _ = HyperLogLog::new(17);
    }

    #[test]
    fn reach_sketches_track_exact_hop_shells() {
        let g = community(120, 4, 6, 2, 10, 7).graph;
        let sk = ReachSketches::build(&g, 2, 12);
        for v in (0..120).step_by(7) {
            let shells = hop_shells(&g, v, 2);
            let exact_ball1 = 1 + shells[0].len();
            let exact_ball2 = exact_ball1 + shells[1].len();
            let e1 = sk.ball_estimate(v, 1);
            let e2 = sk.ball_estimate(v, 2);
            // 5% relative, with ±2 absolute slack: at tiny counts a
            // single register-index collision costs ~1 count, which can
            // exceed 5% of a dozen-vertex ball.
            let close = |est: f64, exact: usize| {
                let err = (est - exact as f64).abs();
                err <= 2.0 || err / exact as f64 <= 0.05
            };
            assert!(
                close(e1, exact_ball1),
                "v={v} hop1 est {e1} vs exact {exact_ball1}"
            );
            assert!(
                close(e2, exact_ball2),
                "v={v} hop2 est {e2} vs exact {exact_ball2}"
            );
        }
    }

    #[test]
    fn merged_estimate_tracks_union_closure() {
        let g = community(150, 3, 5, 1, 9, 11).graph;
        let sk = ReachSketches::build(&g, 2, 12);
        let roots: Vec<VertexId> = vec![0, 17, 55, 91, 120];
        // The out-direction analogue of the closure: union of 2-hop
        // out-balls, computed exactly per root.
        let mut exact: std::collections::HashSet<VertexId> = roots.iter().copied().collect();
        for &r in &roots {
            for shell in hop_shells(&g, r, 2) {
                exact.extend(shell);
            }
        }
        let est = sk.merged_estimate(&roots, 2);
        let want = exact.len() as f64;
        assert!(
            (est - want).abs() / want <= 0.05,
            "merged est {est} vs exact {want}"
        );
        // Sanity: direction matters — this is the out-ball union, which
        // need not match the in-neighbor closure helper.
        let _ = k_hop_closure(&g, &roots, 2);
    }
}
