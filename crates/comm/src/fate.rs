//! Each message's fate under a [`ChaosSchedule`]: the one reliability
//! layer both transports share.
//!
//! A reliable sender retransmits a dropped message after a timeout, with
//! capped exponential backoff, until one transmission survives. Neither
//! transport runs that loop. The schedule's verdicts are pure functions
//! of `(seed, src, dst, seq, attempt)`, so [`fate`] walks them up front
//! and collapses the loop into one transmission, due after the backoffs
//! the sender would have waited. The virtual wheel ([`crate::det`])
//! schedules that transmission as a delivery event; the threaded fabric
//! ([`crate::fabric`]) sends it once over a channel that cannot lose it.
//! Both count the same faults because both run the same walk, and both
//! take in arrivals through the same [`DedupWindow`] and die at the same
//! [`crash_on_send`] check.

use crate::chaos::ChaosSchedule;
use crate::clock::backoff_for;
use crate::fabric::RetryPolicy;
use crate::stats::VirtualStats;
use std::collections::HashSet;
use std::time::Duration;

/// What the chaos walk decided for one message.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fate {
    /// Transmissions made, the surviving one included.
    pub attempts: u32,
    /// Backoff summed over the dropped transmissions: how long after
    /// the first transmission the surviving one leaves.
    pub backoff: Duration,
    /// Chaos delay of the surviving transmission, in microseconds.
    pub delay_us: f64,
    /// The surviving transmission is duplicated.
    pub duplicate: bool,
    /// The surviving transmission is held back so later sends overtake
    /// it.
    pub hold: bool,
}

/// Walks `chaos`'s verdicts for message `seq` on `src -> dst` one
/// transmission at a time until one survives both the schedule and
/// `extra_drop(attempt)` (the virtual profile's flaky racks), bumping
/// `stats`' retry, drop and duplicate counters along the way.
///
/// The walk ends by the third transmission: neither source of drops
/// touches later ones.
pub(crate) fn fate(
    chaos: &ChaosSchedule,
    retry: &RetryPolicy,
    extra_drop: impl Fn(u32) -> bool,
    src: usize,
    dst: usize,
    seq: u64,
    stats: &mut VirtualStats,
) -> Fate {
    let mut backoff = Duration::ZERO;
    let mut attempt = 0u32;
    loop {
        let d = chaos.decide(src, dst, seq, attempt);
        if !(d.drop || extra_drop(attempt)) {
            stats.dups_injected += u64::from(d.duplicate);
            return Fate {
                attempts: attempt + 1,
                backoff,
                delay_us: d.delay_us,
                duplicate: d.duplicate,
                hold: d.hold,
            };
        }
        stats.drops_injected += 1;
        stats.retries += 1;
        backoff += if attempt == 0 {
            retry.base_timeout
        } else {
            backoff_for(*retry, attempt)
        };
        attempt += 1;
    }
}

/// Counts one application send by `rank` into `sends`; true when the
/// schedule's crash point says this send never leaves the worker (the
/// send is then not counted, and the worker is dead).
pub(crate) fn crash_on_send(chaos: &ChaosSchedule, rank: usize, sends: &mut u64) -> bool {
    match chaos.crash {
        Some(c) if c.rank == rank && *sends + 1 >= c.at_send.max(1) => true,
        _ => {
            *sends += 1;
            false
        }
    }
}

/// One receiver's record of the sequence numbers it has taken in: per
/// source, the contiguous frontier, plus the arrivals seen ahead of it.
#[derive(Debug)]
pub(crate) struct DedupWindow {
    upto: Vec<u64>,
    ahead: HashSet<(usize, u64)>,
}

impl DedupWindow {
    /// A window over `k` sources, nothing received yet (sequence
    /// numbers start at 1).
    pub(crate) fn new(k: usize) -> Self {
        Self {
            upto: vec![0; k],
            ahead: HashSet::new(),
        }
    }

    /// Records an arrival of `seq` from `from`; false when it is a
    /// repeat.
    pub(crate) fn first_arrival(&mut self, from: usize, seq: u64) -> bool {
        let upto = &mut self.upto[from];
        if seq <= *upto || !self.ahead.insert((from, seq)) {
            return false;
        }
        while self.ahead.remove(&(from, *upto + 1)) {
            *upto += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_sums_backoffs_of_dropped_transmissions() {
        let chaos = ChaosSchedule {
            seed: 3,
            drop_every: 1,
            drop_prob: 1.0,
            duplicate_every: 1,
            ..Default::default()
        };
        let retry = RetryPolicy {
            base_timeout: Duration::from_millis(10),
            max_backoff: Duration::from_millis(15),
            ..RetryPolicy::default()
        };
        let mut st = VirtualStats::default();
        let f = fate(&chaos, &retry, |_| false, 0, 1, 1, &mut st);
        // Two drops (the schedule never drops a third transmission):
        // base timeout, then the first backoff.
        assert_eq!(f.attempts, 3);
        assert_eq!(f.backoff, Duration::from_millis(20));
        assert!(!f.duplicate, "only a first transmission is duplicated");
        assert_eq!((st.retries, st.drops_injected, st.dups_injected), (2, 2, 0));
        assert_eq!(st.messages, 0, "the walk counts faults, not traffic");

        let mut st = VirtualStats::default();
        let clean = ChaosSchedule {
            drop_every: 0,
            drop_prob: 0.0,
            ..chaos
        };
        let f = fate(&clean, &retry, |a| a == 0, 0, 1, 1, &mut st);
        assert_eq!((f.attempts, f.backoff), (2, Duration::from_millis(10)));
        assert_eq!((st.drops_injected, st.dups_injected), (1, 0));
    }

    #[test]
    fn dedup_window_takes_each_seq_once_in_any_order() {
        let mut w = DedupWindow::new(2);
        for seq in [2, 1, 4, 3] {
            assert!(w.first_arrival(1, seq));
            assert!(!w.first_arrival(1, seq), "repeat of {seq}");
        }
        assert!(w.first_arrival(0, 1), "sources are independent");
        assert!(w.ahead.is_empty(), "the frontier absorbed every arrival");
        assert_eq!(w.upto, vec![1, 4]);
    }

    #[test]
    fn crash_point_stops_the_at_send_th_send() {
        let chaos = ChaosSchedule {
            crash: Some(crate::CrashPoint {
                rank: 1,
                at_send: 3,
            }),
            ..Default::default()
        };
        let mut sends = 0;
        assert!(!crash_on_send(&chaos, 0, &mut sends));
        let mut sends = 0;
        let fates: Vec<bool> = (0..3)
            .map(|_| crash_on_send(&chaos, 1, &mut sends))
            .collect();
        assert_eq!(fates, vec![false, false, true]);
        assert_eq!(sends, 2, "the fatal send is not counted");
    }
}
