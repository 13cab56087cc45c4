//! Static partitioning of the cluster's hosts across simulation shards.
//!
//! The conservative-parallel engine in `sprite_sim` assigns cell `i` to
//! shard `i % nshards`. [`HostPartition`] is the cluster-layer view of that
//! same mapping, expressed in terms of [`HostId`]s, so code that reasons
//! about the cluster (the m02 macrobench, the sharded host-selection
//! daemon, diagnostics, per-shard accounting) and the engine can
//! never disagree about where a host lives. It lives in `sprite_net`
//! because both the kernel and the host-selection layer hash hosts with
//! it — the ID space it partitions is the network's.
//!
//! Round-robin by ID is deliberately boring: it is a pure function of the
//! host ID and the shard count, needs no state, and spreads any
//! ID-correlated load pattern (file servers at low IDs, say) evenly across
//! shards. Nothing about the *results* depends on the choice — the engine's
//! merge makes the digest stream partition-invariant — so the only job of
//! the mapping is balance.

use crate::HostId;

/// The static host-to-shard map for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostPartition {
    nhosts: u32,
    nshards: usize,
}

impl HostPartition {
    /// Builds the map. `nshards` is clamped to `[1, nhosts]` — more shards
    /// than hosts would leave empty shards spinning at every barrier.
    ///
    /// # Panics
    ///
    /// Panics if `nhosts` is zero.
    pub fn new(nhosts: u32, nshards: usize) -> Self {
        assert!(nhosts > 0, "a cluster needs at least one host");
        HostPartition {
            nhosts,
            nshards: nshards.clamp(1, nhosts as usize),
        }
    }

    /// Number of hosts in the cluster.
    pub fn nhosts(&self) -> u32 {
        self.nhosts
    }

    /// Number of shards (after clamping).
    pub fn nshards(&self) -> usize {
        self.nshards
    }

    /// The shard a host's cell executes on. Must agree with the engine's
    /// `cell i -> shard i % nshards` assignment — this is that same
    /// function.
    pub fn shard_of(&self, host: HostId) -> usize {
        host.index() % self.nshards
    }

    /// Hosts on each shard: `sizes()[s]` is shard `s`'s cell count. Shards
    /// differ by at most one host.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.nshards];
        for i in 0..self.nhosts as usize {
            sizes[i % self.nshards] += 1;
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_by_id() {
        let p = HostPartition::new(10, 4);
        assert_eq!(p.shard_of(HostId::new(0)), 0);
        assert_eq!(p.shard_of(HostId::new(1)), 1);
        assert_eq!(p.shard_of(HostId::new(4)), 0);
        assert_eq!(p.shard_of(HostId::new(9)), 1);
    }

    #[test]
    fn shards_clamp_to_host_count() {
        let p = HostPartition::new(3, 8);
        assert_eq!(p.nshards(), 3);
        let p = HostPartition::new(3, 0);
        assert_eq!(p.nshards(), 1);
    }

    #[test]
    fn sizes_are_balanced() {
        let p = HostPartition::new(10, 4);
        let sizes = p.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3));
        let counted: Vec<usize> = (0..4)
            .map(|s| (0..10).filter(|&i| p.shard_of(HostId::new(i)) == s).count())
            .collect();
        assert_eq!(sizes, counted);
    }
}
