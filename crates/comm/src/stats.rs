//! Communication cost model and accounting.

use parking_lot::Mutex;

/// The classic alpha-beta wire model: a message of `b` bytes takes
/// `alpha_us + b / bytes_per_us` microseconds on the wire.
///
/// The default is calibrated to the paper's testbed NIC (3.25 GB/s ≈
/// 3,250 bytes/µs) with a LAN-grade 50 µs per-message latency, scaled so
/// that laptop-scale graphs still show a visible compute/communication
/// ratio.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Per-message fixed latency in microseconds.
    pub alpha_us: f64,
    /// Bandwidth in bytes per microsecond.
    pub bytes_per_us: f64,
    /// When true, [`crate::Fabric`] delays delivery by the modeled wire
    /// time; when false the model only accounts.
    pub simulate_delay: bool,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            alpha_us: 50.0,
            bytes_per_us: 3_250.0,
            simulate_delay: true,
        }
    }
}

impl CostModel {
    /// A model that only accounts and never sleeps (fast tests).
    pub fn accounting_only() -> Self {
        Self {
            simulate_delay: false,
            ..Self::default()
        }
    }

    /// Modeled wire microseconds for one message of `bytes` bytes.
    pub fn wire_us(&self, bytes: usize) -> f64 {
        self.alpha_us + bytes as f64 / self.bytes_per_us
    }
}

/// Traffic and fault counters of one fabric or one virtual cluster.
///
/// Application traffic (`messages`/`bytes`/`modeled_ns`) counts each
/// logical payload exactly once, so epoch traffic numbers stay
/// comparable between fault-free and chaos runs. The chaos walk both
/// transports run at send time bumps `retries`, `drops_injected` and
/// `dups_injected`; a receiver's dedup window bumps `redeliveries` when
/// it discards a duplicate. All of them are pure functions of the
/// chaos seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VirtualStats {
    /// Application messages sent (logical sends; retransmits and
    /// duplicates never inflate this).
    pub messages: u64,
    /// Application payload bytes sent.
    pub bytes: u64,
    /// Modeled wire nanoseconds summed over messages.
    pub modeled_ns: u64,
    /// Retransmissions (collapsed into delivery-time delays).
    pub retries: u64,
    /// Injected drops (chaos schedule + flaky racks).
    pub drops_injected: u64,
    /// Injected duplicate transmissions.
    pub dups_injected: u64,
    /// Receive-side duplicate discards.
    pub redeliveries: u64,
}

impl VirtualStats {
    /// Records one application message of `bytes` bytes and
    /// `modeled_ns` modeled wire nanoseconds.
    pub(crate) fn record(&mut self, bytes: usize, modeled_ns: u64) {
        self.messages += 1;
        self.bytes += bytes as u64;
        self.modeled_ns += modeled_ns;
    }
}

impl std::ops::AddAssign for VirtualStats {
    /// Field-wise sum (accumulating counters across attempts).
    fn add_assign(&mut self, o: Self) {
        self.messages += o.messages;
        self.bytes += o.bytes;
        self.modeled_ns += o.modeled_ns;
        self.retries += o.retries;
        self.drops_injected += o.drops_injected;
        self.dups_injected += o.dups_injected;
        self.redeliveries += o.redeliveries;
    }
}

/// Fabric-wide counters, shared by all workers of a [`crate::Fabric`].
#[derive(Default, Debug)]
pub struct CommStats(Mutex<VirtualStats>);

impl CommStats {
    /// Runs `f` on the counters under the lock.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut VirtualStats) -> R) -> R {
        f(&mut self.0.lock())
    }

    /// A copy of every counter.
    pub fn snapshot(&self) -> VirtualStats {
        *self.0.lock()
    }

    /// Total messages sent.
    pub fn messages(&self) -> u64 {
        self.snapshot().messages
    }

    /// Total payload bytes sent.
    pub fn bytes(&self) -> u64 {
        self.snapshot().bytes
    }

    /// Total modeled wire time in microseconds (summed over messages;
    /// messages in flight concurrently overlap in wall time).
    pub fn modeled_us(&self) -> f64 {
        self.snapshot().modeled_ns as f64 / 1_000.0
    }

    /// Total retransmissions.
    pub fn retries(&self) -> u64 {
        self.snapshot().retries
    }

    /// Total chaos-injected drops.
    pub fn drops_injected(&self) -> u64 {
        self.snapshot().drops_injected
    }

    /// Total chaos-injected duplicates.
    pub fn dups_injected(&self) -> u64 {
        self.snapshot().dups_injected
    }

    /// Total receive-side discards of chaos duplicates.
    pub fn redeliveries(&self) -> u64 {
        self.snapshot().redeliveries
    }

    /// Resets all counters (between benchmark phases).
    pub fn reset(&self) {
        *self.0.lock() = VirtualStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_is_affine_in_bytes() {
        let m = CostModel {
            alpha_us: 10.0,
            bytes_per_us: 100.0,
            simulate_delay: false,
        };
        assert_eq!(m.wire_us(0), 10.0);
        assert_eq!(m.wire_us(1_000), 20.0);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let s = CommStats::default();
        s.with(|st| {
            st.record(100, 5_000);
            st.record(300, 7_000);
        });
        assert_eq!(s.messages(), 2);
        assert_eq!(s.bytes(), 400);
        assert!((s.modeled_us() - 12.0).abs() < 1e-6);
        s.reset();
        assert_eq!(s.messages(), 0);
        assert_eq!(s.bytes(), 0);
    }

    #[test]
    fn fault_path_counters_are_separate_from_traffic() {
        let s = CommStats::default();
        s.with(|st| {
            st.record(64, 1_000);
            st.retries += 2;
            st.drops_injected += 1;
            st.dups_injected += 1;
            st.redeliveries += 1;
        });
        assert_eq!(s.messages(), 1, "fault-path events are not messages");
        assert_eq!(s.bytes(), 64);
        assert_eq!(s.retries(), 2);
        assert_eq!(s.drops_injected(), 1);
        assert_eq!(s.dups_injected(), 1);
        assert_eq!(s.redeliveries(), 1);
        s.reset();
        assert_eq!(s.retries(), 0);
        assert_eq!(s.snapshot(), VirtualStats::default());
    }

    #[test]
    fn default_model_matches_testbed_nic() {
        let m = CostModel::default();
        // 3.25 GB/s NIC: a 3.25 MB message ≈ 1000 µs + alpha.
        let us = m.wire_us(3_250_000);
        assert!((us - 1_050.0).abs() < 1.0);
    }
}
