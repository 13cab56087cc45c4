//! Read replicas for hot files, generalizing NWO88 to server peers.
//!
//! The cache-consistency protocol already tracks a per-file `version` that
//! is bumped on every write-open, and uses it to decide whether a *client*
//! cache is current. This module rides the same machinery one level up:
//! when a file in a striped domain turns out to be read-hot and is not
//! write-shared, the home server pushes a copy to its group peers
//! (`fs-replica-read` pulls), and subsequent block reads are served by a
//! peer chosen from the reading host's identity. Any write-open bumps the
//! version exactly as before, and the home server drops the replica set
//! with one `fs-replica-invalidate` notice per peer — a replica set is
//! therefore *valid by construction*: it only exists between an install
//! and the next version bump.

use sprite_net::HostId;
use sprite_sim::{DetHashMap, StateDigest};

use crate::FileId;

/// Number of reader-host *switches* after which a file in a striped domain
/// is considered hot enough to replicate. Counting switches (a remote fetch
/// from a different host than the previous one) rather than raw fetches
/// keeps one client streaming a large file cold, while a shared header
/// pulled by every host in the cluster heats up after a handful of reads.
pub const HOT_THRESHOLD: u32 = 4;

/// The live replica set for one file.
#[derive(Debug, Clone)]
pub struct ReplicaSet {
    /// Servers holding a current copy (the home server plus the group
    /// peers that pulled one), sorted by host id so reads spread over the
    /// whole group rather than swapping load onto the peers.
    pub servers: Vec<HostId>,
    /// File version the copies were taken at (diagnostic; the set is
    /// dropped before the version can move, so readers never check it).
    pub version: u64,
}

/// Tracks read heat and live replica sets for the whole file service.
#[derive(Debug, Clone, Default)]
pub struct ReplicaTable {
    sets: DetHashMap<FileId, ReplicaSet>,
    /// Per file: the last remote reader seen and how many times the reader
    /// changed.
    heat: DetHashMap<FileId, (HostId, u32)>,
}

impl ReplicaTable {
    /// An empty table.
    pub fn new() -> Self {
        ReplicaTable::default()
    }

    /// Records one home-served remote fetch of `file` by `host`. Returns
    /// true when the file's reader-switch count has crossed
    /// [`HOT_THRESHOLD`] and it has no live set — the caller should try to
    /// install replicas.
    pub fn note_fetch(&mut self, file: FileId, host: HostId) -> bool {
        let e = self.heat.entry(file).or_insert((host, 0));
        if e.0 != host {
            e.0 = host;
            e.1 = e.1.saturating_add(1);
        }
        e.1 >= HOT_THRESHOLD && !self.sets.contains_key(&file)
    }

    /// Installs a replica set for `file` at `version`. Peers are stored
    /// sorted so reader→peer assignment is independent of install order.
    pub fn install(&mut self, file: FileId, mut servers: Vec<HostId>, version: u64) {
        if servers.is_empty() {
            return;
        }
        servers.sort();
        servers.dedup();
        self.sets.insert(file, ReplicaSet { servers, version });
    }

    /// The live replica set for `file`, if any.
    pub fn set(&self, file: FileId) -> Option<&ReplicaSet> {
        self.sets.get(&file)
    }

    /// Drops the replica set for `file`, returning the peers that must be
    /// sent an invalidation notice. Heat is kept: a file that stays hot
    /// after the write closes can be re-replicated.
    pub fn drop_set(&mut self, file: FileId) -> Option<Vec<HostId>> {
        self.sets.remove(&file).map(|s| s.servers)
    }

    /// Forgets `file` entirely (unlink).
    pub fn forget(&mut self, file: FileId) {
        self.sets.remove(&file);
        self.heat.remove(&file);
    }

    /// Folds the table into `d` in sorted-key order (determinism audit).
    pub fn digest_into(&self, d: &mut StateDigest) {
        let Self { sets, heat } = self;
        let mut keys: Vec<FileId> = sets.keys().copied().collect();
        keys.sort();
        d.write_u64(keys.len() as u64);
        for k in keys {
            let s = &sets[&k];
            d.write_u64(k.raw());
            d.write_u64(s.version);
            d.write_u64(s.servers.len() as u64);
            for h in &s.servers {
                d.write_u64(h.index() as u64);
            }
        }
        let mut hot: Vec<(FileId, (HostId, u32))> = heat.iter().map(|(k, v)| (*k, *v)).collect();
        hot.sort();
        d.write_u64(hot.len() as u64);
        for (k, (last, switches)) in hot {
            d.write_u64(k.raw());
            d.write_u64(last.index() as u64);
            d.write_u64(switches as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u64) -> FileId {
        FileId::new(i)
    }

    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    #[test]
    fn heat_counts_reader_switches_not_raw_fetches() {
        let mut t = ReplicaTable::new();
        // One client streaming many blocks never heats the file up.
        for _ in 0..10 * HOT_THRESHOLD {
            assert!(!t.note_fetch(f(1), h(5)));
        }
        // Alternating readers cross the threshold quickly.
        for i in 0..HOT_THRESHOLD - 1 {
            assert!(!t.note_fetch(f(1), h(6 + (i % 2))));
        }
        assert!(
            t.note_fetch(f(1), h(9)),
            "threshold crossing requests install"
        );
        t.install(f(1), vec![h(2), h(1)], 1);
        assert!(
            !t.note_fetch(f(1), h(5)),
            "live set suppresses further install requests"
        );
        assert_eq!(t.set(f(1)).unwrap().servers, vec![h(1), h(2)]);
        assert_eq!(t.drop_set(f(1)), Some(vec![h(1), h(2)]));
        assert!(t.set(f(1)).is_none());
        // Heat persists: the very next reader switch asks for re-install.
        assert!(t.note_fetch(f(1), h(6)));
    }

    #[test]
    fn forget_clears_heat_too() {
        let mut t = ReplicaTable::new();
        for i in 0..2 * HOT_THRESHOLD {
            t.note_fetch(f(7), h(i % 3));
        }
        t.install(f(7), vec![h(3)], 4);
        t.forget(f(7));
        assert!(t.set(f(7)).is_none());
        for i in 0..HOT_THRESHOLD {
            assert!(
                !t.note_fetch(f(7), h(i % 2)),
                "heat restarts from zero after forget"
            );
        }
    }

    #[test]
    fn digest_is_order_independent() {
        let mut a = ReplicaTable::new();
        let mut b = ReplicaTable::new();
        a.install(f(1), vec![h(1), h(2)], 2);
        a.install(f(9), vec![h(3)], 5);
        b.install(f(9), vec![h(3)], 5);
        b.install(f(1), vec![h(2), h(1)], 2);
        let (mut da, mut db) = (StateDigest::new(), StateDigest::new());
        a.digest_into(&mut da);
        b.digest_into(&mut db);
        assert_eq!(da.finish(), db.finish());
    }
}
