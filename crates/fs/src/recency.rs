//! Least-recently-used order kept by per-key stamps.
//!
//! Both block caches in this crate — a server's main-memory cache and each
//! client's [`BlockCache`](crate::BlockCache) — evict the block touched
//! longest ago. Moving a key to the back of an ordered list costs a scan per
//! touch. Instead each key carries the stamp of its last touch, and a FIFO
//! of `(stamp, key)` pairs records the touches in order. A pair whose stamp
//! is no longer its key's current one is stale and is skipped on the way to
//! the oldest live key, so touches and evictions cost O(1) amortized. The
//! FIFO is compacted once stale pairs outnumber live ones, which keeps it
//! under about twice the live count.

use std::collections::VecDeque;
use std::hash::Hash;

use sprite_sim::DetHashMap;

/// A set of keys in least-recently-touched order.
#[derive(Debug)]
pub(crate) struct Recency<K> {
    /// Each live key's last-touch stamp.
    stamps: DetHashMap<K, u64>,
    /// Touches in stamp order, stale pairs included.
    fifo: VecDeque<(u64, K)>,
}

impl<K: Copy + Eq + Hash> Recency<K> {
    pub(crate) fn new() -> Self {
        Recency {
            stamps: DetHashMap::default(),
            fifo: VecDeque::new(),
        }
    }

    /// Marks `key` touched at `stamp`, inserting it if absent. Stamps must
    /// increase from touch to touch. Returns true if `key` was present.
    pub(crate) fn touch(&mut self, key: K, stamp: u64) -> bool {
        debug_assert!(
            self.fifo.back().is_none_or(|&(last, _)| last < stamp),
            "recency stamps must increase"
        );
        let present = self.stamps.insert(key, stamp).is_some();
        self.fifo.push_back((stamp, key));
        if self.fifo.len() > 2 * self.stamps.len() {
            let stamps = &self.stamps;
            self.fifo.retain(|(s, k)| stamps.get(k) == Some(s));
        }
        present
    }

    /// The stamp of `key`'s last touch, if it is present.
    pub(crate) fn stamp(&self, key: &K) -> Option<u64> {
        self.stamps.get(key).copied()
    }

    /// Removes `key`; its FIFO pair goes stale.
    pub(crate) fn remove(&mut self, key: &K) {
        self.stamps.remove(key);
    }

    /// Keeps only the keys for which `keep` returns true.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.stamps.retain(|k, _| keep(k));
    }

    /// The least recently touched key, left in place.
    pub(crate) fn oldest(&mut self) -> Option<K> {
        while let Some(&(stamp, key)) = self.fifo.front() {
            if self.stamps.get(&key) == Some(&stamp) {
                return Some(key);
            }
            self.fifo.pop_front();
        }
        None
    }

    /// Removes and returns the least recently touched key.
    pub(crate) fn pop_oldest(&mut self) -> Option<K> {
        let key = self.oldest()?;
        self.fifo.pop_front();
        self.stamps.remove(&key);
        Some(key)
    }

    /// Number of live keys.
    pub(crate) fn len(&self) -> usize {
        self.stamps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_last_touch_order_and_skips_stale_pairs() {
        let mut r = Recency::new();
        assert!(!r.touch('a', 1));
        assert!(!r.touch('b', 2));
        assert!(!r.touch('c', 3));
        assert!(r.touch('a', 4), "re-touch of a present key");
        r.remove(&'b');
        assert_eq!(r.stamp(&'a'), Some(4));
        assert_eq!(r.stamp(&'b'), None);
        assert_eq!(r.len(), 2);
        assert_eq!(r.pop_oldest(), Some('c'));
        assert_eq!(r.pop_oldest(), Some('a'));
        assert_eq!(r.pop_oldest(), None);
    }

    #[test]
    fn fifo_stays_within_twice_the_live_count() {
        let mut r = Recency::new();
        for stamp in 1..=10_000u64 {
            r.touch(stamp % 7, stamp);
            assert!(r.fifo.len() <= 2 * r.len());
        }
        r.retain(|&k| k < 3);
        assert_eq!(r.len(), 3);
        // Keys 0, 1, 2 were last touched at stamps 9996, 9997, 9998.
        assert_eq!(r.pop_oldest(), Some(0));
    }
}
