//! Consistent-hash sharding of the versioned embedding cache across
//! replica workers (ISSUE 9).
//!
//! The map hashes keys onto a fixed ring of `slots` (many more slots
//! than replicas) and assigns each slot an owning replica. Because keys
//! only move when their *slot* moves, rebalancing on replica
//! add/remove is exactly the slot movement — and the assignment
//! algorithm moves the provable minimum: slots migrate only onto a
//! joining replica (stolen from the currently largest owners) or off a
//! leaving one (handed to the currently smallest survivors), with
//! deterministic smallest-id tie-breaks. The movement bounds the
//! proptests pin down:
//!
//! * `add_replica` moves ≤ `ceil(slots / replicas_after)` slots;
//! * `remove_replica` moves ≤ `ceil(slots / replicas_before)` slots;
//! * a key changes owner only if its slot moved.
//!
//! Everything is a pure function of `(seed, slots, operation history)`
//! — no RandomState, no iteration-order dependence — so every router
//! replica computes the identical map and request routing stays
//! deterministic across runs and thread counts.

use flexgraph_graph::splitmix64;
use std::collections::BTreeMap;

/// A deterministic fixed-slot consistent-hash map from keys to replica
/// ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    seed: u64,
    /// Slot → owning replica id.
    owners: Vec<u64>,
}

impl ShardMap {
    /// A balanced map over `slots` ring slots and the given replicas.
    /// Slots are dealt round-robin, in a seeded permutation of slot
    /// order, to the replicas in ascending id order — so the initial
    /// layout is balanced (owner counts differ by ≤ 1) and a pure
    /// function of `(seed, slots, replica set)`.
    ///
    /// # Panics
    ///
    /// Panics on zero slots, no replicas, or duplicate replica ids.
    pub fn new(seed: u64, slots: usize, replicas: &[u64]) -> Self {
        assert!(slots > 0, "shard map needs at least one slot");
        assert!(!replicas.is_empty(), "shard map needs at least one replica");
        let mut ids: Vec<u64> = replicas.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), replicas.len(), "duplicate replica ids");
        assert!(
            slots >= ids.len(),
            "need at least one slot per replica ({slots} slots, {} replicas)",
            ids.len()
        );
        // Seeded permutation of slot indices: sort by hash, index
        // breaking ties.
        let mut order: Vec<usize> = (0..slots).collect();
        order.sort_by_key(|&s| (splitmix64(seed ^ 0xA5A5 ^ s as u64), s));
        let mut owners = vec![0u64; slots];
        for (i, &slot) in order.iter().enumerate() {
            owners[slot] = ids[i % ids.len()];
        }
        Self { seed, owners }
    }

    /// Number of ring slots.
    pub fn slots(&self) -> usize {
        self.owners.len()
    }

    /// The replica ids currently owning slots, ascending.
    pub fn replicas(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.owners.clone();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Slots owned per replica, ascending by id.
    pub fn counts(&self) -> BTreeMap<u64, usize> {
        let mut m = BTreeMap::new();
        for &o in &self.owners {
            *m.entry(o).or_insert(0) += 1;
        }
        m
    }

    /// The ring slot a key hashes to.
    pub fn slot_of(&self, key: u64) -> usize {
        (splitmix64(self.seed ^ key) % self.owners.len() as u64) as usize
    }

    /// The replica owning a key.
    pub fn owner_of(&self, key: u64) -> u64 {
        self.owners[self.slot_of(key)]
    }

    /// The replica owning a slot.
    pub fn owner_of_slot(&self, slot: usize) -> u64 {
        self.owners[slot]
    }

    /// The composite key of one tenant's vertex — tenants hash
    /// independently, so one tenant's hot set spreads over all
    /// replicas regardless of the others.
    pub fn key_of(tenant: u64, vertex: u32) -> u64 {
        splitmix64(tenant.rotate_left(32) ^ 0x7E57 ^ vertex as u64)
    }

    /// Adds a replica, stealing slots from the largest current owners
    /// (smallest-id first on ties, then highest slot index within an
    /// owner) until the map is balanced again. Returns the number of
    /// slots moved — always ≤ `ceil(slots / replicas_after)`, and every
    /// moved slot lands on the new replica.
    ///
    /// # Panics
    ///
    /// Panics if the id already owns slots.
    pub fn add_replica(&mut self, id: u64) -> usize {
        assert!(
            !self.replicas().contains(&id),
            "replica {id} already present"
        );
        let mut counts = self.counts();
        counts.insert(id, 0);
        let total = self.owners.len();
        let r_after = counts.len();
        assert!(
            total >= r_after,
            "need at least one slot per replica ({total} slots, {r_after} replicas)"
        );
        // Balanced ⇒ every owner holds ≤ ceil(total / r_after).
        let cap = total.div_ceil(r_after);
        let mut moved = 0usize;
        loop {
            let new_count = counts[&id];
            // Take from the largest owner while the newcomer is below
            // its floor share, or while any owner exceeds the cap.
            let (&donor, &donor_count) = counts
                .iter()
                .filter(|&(&o, _)| o != id)
                .max_by_key(|&(&o, &c)| (c, std::cmp::Reverse(o)))
                .expect("at least one prior replica");
            let want_more = new_count + 1 < donor_count || donor_count > cap;
            if !want_more {
                break;
            }
            // Deterministic victim: the donor's highest slot index.
            let slot = self
                .owners
                .iter()
                .rposition(|&o| o == donor)
                .expect("donor owns a slot");
            self.owners[slot] = id;
            *counts.get_mut(&donor).unwrap() -= 1;
            *counts.get_mut(&id).unwrap() += 1;
            moved += 1;
        }
        moved
    }

    /// Removes a replica, dealing its slots (ascending slot order) to
    /// the smallest surviving owners (smallest-id first on ties).
    /// Returns the number of slots moved — exactly the departing
    /// replica's count, ≤ `ceil(slots / replicas_before)` when the map
    /// was balanced.
    ///
    /// # Panics
    ///
    /// Panics if the id owns nothing or is the last replica.
    pub fn remove_replica(&mut self, id: u64) -> usize {
        let mut counts = self.counts();
        assert!(counts.contains_key(&id), "replica {id} not present");
        assert!(counts.len() > 1, "cannot remove the last replica");
        counts.remove(&id);
        let orphans: Vec<usize> = (0..self.owners.len())
            .filter(|&s| self.owners[s] == id)
            .collect();
        for &slot in &orphans {
            let (&heir, _) = counts
                .iter()
                .min_by_key(|&(&o, &c)| (c, o))
                .expect("survivors exist");
            self.owners[slot] = heir;
            *counts.get_mut(&heir).unwrap() += 1;
        }
        orphans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_map_is_balanced_and_deterministic() {
        let m = ShardMap::new(7, 64, &[1, 2, 3]);
        let counts = m.counts();
        assert_eq!(counts.len(), 3);
        for &c in counts.values() {
            assert!((21..=22).contains(&c), "unbalanced: {counts:?}");
        }
        assert_eq!(m, ShardMap::new(7, 64, &[3, 1, 2]), "order-insensitive");
        assert_ne!(
            ShardMap::new(7, 64, &[1, 2, 3]).owners,
            ShardMap::new(8, 64, &[1, 2, 3]).owners,
            "seed-sensitive"
        );
    }

    #[test]
    fn add_then_remove_round_trips_ownership() {
        let mut m = ShardMap::new(3, 48, &[10, 20]);
        let before = m.clone();
        let moved_in = m.add_replica(30);
        assert!(moved_in <= 48usize.div_ceil(3));
        assert_eq!(m.counts()[&30], moved_in);
        let moved_out = m.remove_replica(30);
        assert_eq!(moved_out, moved_in);
        // Survivors regain a balanced map over the original set (not
        // necessarily the identical layout, but the same id set).
        assert_eq!(m.replicas(), before.replicas());
    }

    #[test]
    fn keys_route_only_to_live_replicas() {
        let mut m = ShardMap::new(11, 32, &[0, 1, 2, 3]);
        m.remove_replica(2);
        for v in 0..500u32 {
            let owner = m.owner_of(ShardMap::key_of(9, v));
            assert_ne!(owner, 2, "routed to a removed replica");
        }
    }

    #[test]
    #[should_panic(expected = "last replica")]
    fn removing_the_last_replica_panics() {
        let mut m = ShardMap::new(0, 8, &[5]);
        m.remove_replica(5);
    }
}
