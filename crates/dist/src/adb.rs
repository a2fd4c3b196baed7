//! The online ADB controller (paper §6, "Workload balancing").
//!
//! The paper's ADB component works in a loop during training: it samples
//! running logs (the per-root metric variables of §5 plus observed
//! costs), and once the balance factor exceeds a threshold it fits the
//! polynomial cost function, generates balancing plans and applies the
//! one with the smallest induced-graph cut. [`AdbController`] packages
//! that loop; the Figure 15a harness and tests drive it.

use crate::balance::{
    choose_plan, fit_cost_function, generate_plans, induced_graph, merged_dependency_estimates,
    root_dependency_sketches, root_products, CostSample,
};
use flexgraph_graph::{Graph, Partitioning, VertexId};
use flexgraph_hdg::Hdg;
use flexgraph_obs::TraceEpoch;

/// Online application-driven balancer state.
pub struct AdbController {
    /// Rebalance when `max_load / mean_load` exceeds this (paper: a
    /// pre-defined threshold; default 1.1).
    pub balance_threshold: f64,
    /// Plans generated per rebalancing step (paper: 5).
    pub plans_per_step: usize,
    /// Maximum rebalancing steps per call (keeps one call bounded).
    pub max_steps: usize,
    /// Replication guard: a rebalancing step is rejected when it would
    /// grow the largest per-partition *distinct-leaf dependency count*
    /// (the sync-volume proxy, estimated by HyperLogLog sketches — see
    /// [`crate::balance::partition_dependency_estimates`]) beyond
    /// `baseline_max × this factor`. `f64::INFINITY` (the default)
    /// disables the guard, leaving plan choice purely minimum-cut.
    pub max_replication_growth: f64,
    samples: Vec<CostSample>,
}

impl Default for AdbController {
    fn default() -> Self {
        Self {
            balance_threshold: 1.1,
            plans_per_step: 5,
            max_steps: 10,
            max_replication_growth: f64::INFINITY,
            samples: Vec::new(),
        }
    }
}

impl AdbController {
    /// HLL precision of the replication-guard sketches: `2^10`
    /// registers (1 KiB per root) keep partition-scale counts
    /// near-exact while the per-root sketches stay cheap to build.
    pub const SKETCH_PRECISION: u32 = 10;

    /// Creates a controller with default thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one epoch's running log: per-root observed costs over the
    /// global HDGs (`costs[r]` pairs with root `r`'s metric products).
    pub fn record_epoch(&mut self, hdg: &Hdg, dim: usize, costs: &[f64]) {
        assert_eq!(costs.len(), hdg.num_roots(), "one cost sample per root");
        let products = root_products(hdg, dim);
        self.samples
            .extend(products.into_iter().zip(costs).map(|(p, &c)| CostSample {
                products: p,
                cost: c,
            }));
    }

    /// Records one epoch's *measured* running log — the telemetry the
    /// distributed runtime collected (`EpochReport::telemetry`). Each
    /// root with an attributed cost in the trace contributes one sample
    /// pairing its metric products with the measured cost units; roots
    /// the epoch never touched are skipped. This is the paper's actual
    /// §6 loop (sample logs → fit → rebalance), as opposed to
    /// [`default_cost_proxy`] which fabricates the costs analytically.
    ///
    /// Returns how many root samples were ingested.
    pub fn record_measured_epoch(&mut self, hdg: &Hdg, dim: usize, trace: &TraceEpoch) -> usize {
        let products = root_products(hdg, dim);
        let mut added = 0usize;
        for (r, p) in products.into_iter().enumerate() {
            let v = hdg.root_id(r);
            if let Some(units) = trace.root_cost(v) {
                self.samples.push(CostSample {
                    products: p,
                    cost: units as f64,
                });
                added += 1;
            }
        }
        added
    }

    /// Number of samples accumulated.
    pub fn num_samples(&self) -> usize {
        self.samples.len()
    }

    /// The observed balance factor (`max / mean` of per-partition cost)
    /// under the latest recorded costs, using the fitted estimates.
    pub fn balance_factor(&self, part: &Partitioning, est: &[f64]) -> f64 {
        let mut loads = vec![0.0f64; part.k];
        for (v, &p) in part.assignment.iter().enumerate() {
            loads[p as usize] += est[v];
        }
        Partitioning::imbalance(&loads)
    }

    /// Runs one balancing decision: fits the cost function from the
    /// accumulated logs, and if the balance factor exceeds the threshold,
    /// iterates plan generation + minimum-cut choice until balanced (or
    /// `max_steps`). Returns the new partitioning if anything moved.
    pub fn maybe_rebalance(
        &self,
        graph: &Graph,
        hdg: &Hdg,
        dim: usize,
        part: &Partitioning,
    ) -> Option<Partitioning> {
        if self.samples.is_empty() {
            return None;
        }
        let f = fit_cost_function(&self.samples);
        let est: Vec<f64> = root_products(hdg, dim)
            .iter()
            .map(|p| f.estimate(p))
            .collect();
        if self.balance_factor(part, &est) <= self.balance_threshold {
            return None;
        }
        let ind = induced_graph(graph.num_vertices(), &[hdg]);
        // Replication guard: price the baseline's per-partition
        // distinct-leaf dependencies from per-root sketches, built once;
        // each candidate step is then a register merge, not a dedup.
        let guard = if self.max_replication_growth.is_finite() {
            let sketches = root_dependency_sketches(hdg, Self::SKETCH_PRECISION);
            let base = merged_dependency_estimates(&sketches, hdg, part);
            let limit = base.iter().cloned().fold(0.0, f64::max) * self.max_replication_growth;
            Some((sketches, limit))
        } else {
            None
        };
        let mut current = part.clone();
        let mut moved = false;
        for _ in 0..self.max_steps {
            let plans = generate_plans(graph, &current, &est, self.plans_per_step);
            if plans.is_empty() {
                break;
            }
            if let Some(plan) = choose_plan(&ind, &current, &plans) {
                let candidate = plan.apply(&current);
                if let Some((sketches, limit)) = &guard {
                    let after = merged_dependency_estimates(sketches, hdg, &candidate);
                    if after.iter().cloned().fold(0.0, f64::max) > *limit {
                        break; // the min-cut plan replicates too much
                    }
                }
                current = candidate;
                moved = true;
            } else {
                break;
            }
            if self.balance_factor(&current, &est) <= self.balance_threshold {
                break;
            }
        }
        moved.then_some(current)
    }
}

/// Convenience: the per-root cost proxy used when no measured timings are
/// available — proportional to the aggregation work each root causes
/// (leaf entries × feature dim), plus a fixed per-root term.
pub fn default_cost_proxy(hdg: &Hdg, dim: usize) -> Vec<f64> {
    (0..hdg.num_roots())
        .map(|r| 5.0 + (hdg.leaves_of_root(r) * dim) as f64)
        .collect()
}

/// Applies a partitioning's member lists to root sets (used after
/// rebalancing to rebuild shards).
pub fn member_roots(part: &Partitioning) -> Vec<Vec<VertexId>> {
    part.members()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexgraph_graph::gen::rmat;
    use flexgraph_graph::partition::lp_partition;
    use flexgraph_hdg::build::from_direct_neighbors;

    #[test]
    fn controller_rebalances_skewed_partitions() {
        let ds = rmat(10, 10, 4, 8, 81, "adb-ctl");
        let n = ds.graph.num_vertices();
        let hdg = from_direct_neighbors(&ds.graph, (0..n as u32).collect());
        let costs = default_cost_proxy(&hdg, 8);

        let mut ctl = AdbController::new();
        ctl.record_epoch(&hdg, 8, &costs);
        assert_eq!(ctl.num_samples(), n);

        // A locality-skewed partition should trip the threshold.
        let part = lp_partition(&ds.graph, 4, 10, 0.3, 5);
        let before = ctl.balance_factor(&part, &costs);
        if before <= ctl.balance_threshold {
            // This seed happens to be balanced — nothing to assert.
            assert!(ctl.maybe_rebalance(&ds.graph, &hdg, 8, &part).is_none());
            return;
        }
        let after_part = ctl
            .maybe_rebalance(&ds.graph, &hdg, 8, &part)
            .expect("imbalanced input must rebalance");
        let after = ctl.balance_factor(&after_part, &costs);
        assert!(
            after < before,
            "balance factor must drop: {before} -> {after}"
        );
    }

    #[test]
    fn threshold_contract_holds() {
        // Below the threshold the controller must not touch the
        // partitioning; above it, it must act (when plans exist).
        let ds = rmat(9, 6, 2, 4, 82, "adb-noop");
        let n = ds.graph.num_vertices();
        let hdg = from_direct_neighbors(&ds.graph, (0..n as u32).collect());
        let mut ctl = AdbController::new();
        let costs = default_cost_proxy(&hdg, 4);
        ctl.record_epoch(&hdg, 4, &costs);
        let part = flexgraph_graph::partition::hash_partition(&ds.graph, 4);
        let factor = ctl.balance_factor(&part, &costs);
        // Set the threshold just above the observed factor: no action.
        ctl.balance_threshold = factor + 0.01;
        assert!(ctl.maybe_rebalance(&ds.graph, &hdg, 4, &part).is_none());
        // Set it well below: the controller must improve the balance.
        ctl.balance_threshold = 1.0001;
        if let Some(after) = ctl.maybe_rebalance(&ds.graph, &hdg, 4, &part) {
            assert!(ctl.balance_factor(&after, &costs) <= factor);
        }
    }

    #[test]
    fn tight_replication_guard_vetoes_migration() {
        // Same skewed setup as controller_rebalances_skewed_partitions,
        // but with a replication-growth budget so tight (any growth at
        // all is over) that every migration plan must be vetoed — the
        // controller reports "nothing moved" instead of trading balance
        // for replication.
        let ds = rmat(10, 10, 4, 8, 81, "adb-ctl");
        let n = ds.graph.num_vertices();
        let hdg = from_direct_neighbors(&ds.graph, (0..n as u32).collect());
        let costs = default_cost_proxy(&hdg, 8);
        let mut ctl = AdbController::new();
        ctl.record_epoch(&hdg, 8, &costs);
        let part = lp_partition(&ds.graph, 4, 10, 0.3, 5);
        if ctl.balance_factor(&part, &costs) <= ctl.balance_threshold {
            return; // this seed is balanced; nothing to veto
        }
        assert!(
            ctl.maybe_rebalance(&ds.graph, &hdg, 8, &part).is_some(),
            "without the guard the controller must act"
        );
        ctl.max_replication_growth = 0.0;
        assert!(
            ctl.maybe_rebalance(&ds.graph, &hdg, 8, &part).is_none(),
            "a zero-growth budget must veto every plan"
        );
    }

    #[test]
    fn no_samples_means_no_action() {
        let ds = rmat(8, 4, 2, 4, 83, "adb-empty");
        let n = ds.graph.num_vertices();
        let hdg = from_direct_neighbors(&ds.graph, (0..n as u32).collect());
        let ctl = AdbController::new();
        let part = flexgraph_graph::partition::hash_partition(&ds.graph, 2);
        assert!(ctl.maybe_rebalance(&ds.graph, &hdg, 4, &part).is_none());
    }
}
