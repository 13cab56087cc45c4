//! Client block caches.
//!
//! Each Sprite workstation caches file blocks in main memory; client caching
//! "not only reduces network traffic, but it reduces server processor
//! utilization as well" \[Nel88\]. The cache is block-granular (one VM page per
//! block), write-back with delayed writes, and invalidated or flushed under
//! direction of the file server's consistency protocol.
//!
//! Migration cares about these caches twice over: a migrating process's
//! dirty blocks must be flushed to the server before its open files move
//! (Ch. 5.3), and a foreign process's cache footprint is part of the cost it
//! imposes on its host.
//!
//! A cached block is a [`Frame`], shared copy-on-write with the file
//! server's block table: a fetch caches the server's frame, a write-back
//! stores the client's, and a hit hands out a reference. Only the caller's
//! read buffer, or a write that keeps some of a shared frame's bytes,
//! copies them.

use std::collections::btree_map::{self, BTreeMap};

use sprite_net::PAGE_SIZE;
use sprite_sim::{DetHashMap, StateDigest};

use crate::recency::Recency;
use crate::server::Frame;
use crate::FileId;

/// Address of one cached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockAddr {
    /// The file the block belongs to.
    pub file: FileId,
    /// Block index within the file (block = [`PAGE_SIZE`] bytes).
    pub block: u64,
}

/// One cached block's data and state.
#[derive(Debug, Clone)]
struct CachedBlock {
    data: Frame,
    dirty: bool,
    /// File version this block was read under; a mismatch at open time
    /// means another host wrote the file since, and the block is stale.
    version: u64,
}

/// A write-back LRU block cache for one host.
///
/// Blocks are indexed by file, each file's in block order, so the
/// per-file operations (recall, invalidation, revalidation) cost
/// O(blocks of that file) rather than O(blocks cached on the host).
///
/// # Examples
///
/// ```
/// use sprite_fs::{BlockCache, BlockAddr, FileId};
///
/// let mut cache = BlockCache::new(128);
/// // (FileIds normally come from SpriteFs::create.)
/// ```
#[derive(Debug)]
pub struct BlockCache {
    files: DetHashMap<FileId, BTreeMap<u64, CachedBlock>>,
    /// Every cached block, stamped with the LRU clock at its last touch.
    recency: Recency<BlockAddr>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl BlockCache {
    /// Creates a cache holding at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        BlockCache {
            files: DetHashMap::default(),
            recency: Recency::new(),
            capacity,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn block_mut(&mut self, addr: BlockAddr) -> Option<&mut CachedBlock> {
        self.files.get_mut(&addr.file)?.get_mut(&addr.block)
    }

    /// Drops `addr` from the file index (not from `recency`), and the
    /// file's entry with its last block.
    fn unindex(&mut self, addr: BlockAddr) -> CachedBlock {
        let blocks = self.files.get_mut(&addr.file).expect("indexed file");
        let block = blocks.remove(&addr.block).expect("indexed block");
        if blocks.is_empty() {
            self.files.remove(&addr.file);
        }
        block
    }

    /// Looks up a block, updating recency, and returns its frame by
    /// reference. `current_version` is the file version the caller holds
    /// from the server; a version mismatch is treated as a miss and the
    /// stale block is discarded.
    pub fn lookup(&mut self, addr: BlockAddr, current_version: u64) -> Option<Frame> {
        let clock = self.tick();
        let Some(block) = self.block_mut(addr) else {
            self.misses += 1;
            return None;
        };
        if block.version != current_version {
            self.unindex(addr);
            self.recency.remove(&addr);
            self.misses += 1;
            return None;
        }
        let data = Frame::clone(&block.data);
        self.recency.touch(addr, clock);
        self.hits += 1;
        Some(data)
    }

    /// Inserts a clean block fetched from the server. Returns any dirty
    /// block evicted to make room (which the caller must write back).
    pub fn insert_clean(
        &mut self,
        addr: BlockAddr,
        version: u64,
        data: Frame,
    ) -> Option<(BlockAddr, Frame)> {
        self.insert(addr, version, data, false)
    }

    /// Records a write into the cache (delayed write). Returns any dirty
    /// block evicted to make room.
    pub fn insert_dirty(
        &mut self,
        addr: BlockAddr,
        version: u64,
        data: Frame,
    ) -> Option<(BlockAddr, Frame)> {
        self.insert(addr, version, data, true)
    }

    fn insert(
        &mut self,
        addr: BlockAddr,
        version: u64,
        data: Frame,
        dirty: bool,
    ) -> Option<(BlockAddr, Frame)> {
        debug_assert!(data.len() as u64 <= PAGE_SIZE, "block larger than a page");
        let clock = self.tick();
        match self.files.entry(addr.file).or_default().entry(addr.block) {
            // Overwriting an existing entry keeps dirtiness sticky: a cached
            // dirty block stays dirty even if re-written with identical bytes.
            btree_map::Entry::Occupied(mut cached) => {
                let b = cached.get_mut();
                b.data = data;
                b.dirty |= dirty;
                b.version = version;
            }
            btree_map::Entry::Vacant(slot) => {
                slot.insert(CachedBlock {
                    data,
                    dirty,
                    version,
                });
            }
        }
        self.recency.touch(addr, clock);
        if self.recency.len() <= self.capacity {
            return None;
        }
        // Evict the least recently used block; never `addr`, whose stamp is
        // the newest.
        let victim = self
            .recency
            .pop_oldest()
            .expect("over-capacity cache has an entry");
        let evicted = self.unindex(victim);
        if evicted.dirty {
            Some((victim, evicted.data))
        } else {
            None
        }
    }

    /// The dirty block that caching `addr` would evict, marked clean and
    /// left cached: the least recently used block, when `addr` is not
    /// cached, the cache is full and that block is dirty. The caller
    /// writes it back before the insert, and re-marks it dirty if the
    /// write-back fails.
    pub fn take_dirty_victim(&mut self, addr: BlockAddr) -> Option<(BlockAddr, Frame)> {
        if self.recency.len() < self.capacity || self.recency.stamp(&addr).is_some() {
            return None;
        }
        let victim = self.recency.oldest()?;
        let block = self.block_mut(victim).expect("indexed block");
        if !block.dirty {
            return None;
        }
        block.dirty = false;
        Some((victim, Frame::clone(&block.data)))
    }

    /// Re-marks a cached block dirty — used when a write-back RPC failed
    /// and the copy must stay scheduled for a future flush instead of being
    /// silently lost. Returns true if the block was still cached.
    pub fn mark_dirty(&mut self, addr: BlockAddr) -> bool {
        match self.block_mut(addr) {
            Some(block) => {
                block.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Re-stamps the cached blocks of `file` stamped `replaced` with
    /// `version`: the server confirmed at a write open that this host's
    /// copies of the version the open replaced are still current (it was
    /// the last writer). Copies stamped with any other version keep their
    /// stamp, so a stale one stays stale.
    pub fn revalidate_file(&mut self, file: FileId, replaced: u64, version: u64) {
        if let Some(blocks) = self.files.get_mut(&file) {
            for block in blocks.values_mut() {
                if block.version == replaced {
                    block.version = version;
                }
            }
        }
    }

    /// Removes and returns all dirty blocks of `file` (for a consistency
    /// recall or a migration flush), in block order. Clean blocks of the
    /// file stay cached, and so do clean copies of the flushed ones: a
    /// recall flushes but need not invalidate.
    pub fn take_dirty_blocks(&mut self, file: FileId) -> Vec<(BlockAddr, Frame)> {
        let Some(blocks) = self.files.get_mut(&file) else {
            return Vec::new();
        };
        blocks
            .iter_mut()
            .filter(|(_, b)| b.dirty)
            .map(|(&block, b)| {
                b.dirty = false;
                (BlockAddr { file, block }, Frame::clone(&b.data))
            })
            .collect()
    }

    /// Drops every block of `file` (server disabled caching, or the local
    /// copy is known stale). Returns dirty blocks that must be written
    /// back, in block order.
    pub fn invalidate_file(&mut self, file: FileId) -> Vec<(BlockAddr, Frame)> {
        let Some(blocks) = self.files.remove(&file) else {
            return Vec::new();
        };
        let mut dirty = Vec::new();
        for (block, b) in blocks {
            let addr = BlockAddr { file, block };
            self.recency.remove(&addr);
            if b.dirty {
                dirty.push((addr, b.data));
            }
        }
        dirty
    }

    /// Count of dirty blocks held for `file`.
    pub fn dirty_block_count(&self, file: FileId) -> u64 {
        self.files.get(&file).map_or(0, |blocks| {
            blocks.values().filter(|b| b.dirty).count() as u64
        })
    }

    /// Total blocks currently cached.
    pub fn len(&self) -> usize {
        self.recency.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (hits, misses) since creation.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Folds the cache into the equivalence digest: recency clock, hit
    /// counters, capacity, and every block's address and state in
    /// `(file, block)` order (sorted, so the fold never depends on map
    /// iteration order). Block payloads are folded by length — content
    /// divergence always comes with a version/dirty/clock divergence in
    /// this model, and full payload hashing would dominate digest cost.
    pub fn digest_into(&self, d: &mut StateDigest) {
        let Self {
            files,
            recency,
            capacity,
            clock,
            hits,
            misses,
        } = self;
        d.write_usize(*capacity);
        d.write_u64(*clock);
        d.write_u64(*hits);
        d.write_u64(*misses);
        d.write_usize(recency.len());
        let mut ids: Vec<FileId> = files.keys().copied().collect();
        ids.sort_unstable();
        for file in ids {
            for (&block, b) in &files[&file] {
                let touched = recency
                    .stamp(&BlockAddr { file, block })
                    .expect("every cached block has a stamp");
                d.write_u64(file.raw());
                d.write_u64(block);
                d.write_usize(b.data.len());
                d.write_bool(b.dirty);
                d.write_u64(touched);
                d.write_u64(b.version);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(bytes: Vec<u8>) -> Frame {
        Frame::from(bytes)
    }

    fn addr(f: u64, b: u64) -> BlockAddr {
        BlockAddr {
            file: FileId::new(f),
            block: b,
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut c = BlockCache::new(4);
        c.insert_clean(addr(1, 0), 1, f(vec![7; 16]));
        assert_eq!(c.lookup(addr(1, 0), 1), Some(f(vec![7; 16])));
        assert_eq!(c.hit_stats(), (1, 0));
    }

    #[test]
    fn version_mismatch_is_a_miss_and_discards() {
        let mut c = BlockCache::new(4);
        c.insert_clean(addr(1, 0), 1, f(vec![7; 16]));
        assert_eq!(c.lookup(addr(1, 0), 2), None);
        assert_eq!(c.len(), 0);
        assert_eq!(c.hit_stats(), (0, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = BlockCache::new(2);
        c.insert_clean(addr(1, 0), 1, f(vec![0]));
        c.insert_clean(addr(1, 1), 1, f(vec![1]));
        // Touch block 0 so block 1 becomes LRU.
        c.lookup(addr(1, 0), 1);
        let evicted = c.insert_clean(addr(1, 2), 1, f(vec![2]));
        assert!(evicted.is_none(), "clean eviction returns nothing");
        assert!(c.lookup(addr(1, 1), 1).is_none(), "LRU block evicted");
        assert!(c.lookup(addr(1, 0), 1).is_some());
    }

    #[test]
    fn dirty_eviction_returns_writeback() {
        let mut c = BlockCache::new(1);
        c.insert_dirty(addr(1, 0), 1, f(vec![9]));
        let evicted = c.insert_clean(addr(1, 1), 1, f(vec![2]));
        assert_eq!(evicted, Some((addr(1, 0), f(vec![9]))));
    }

    #[test]
    fn overwrite_keeps_dirtiness_sticky() {
        let mut c = BlockCache::new(2);
        c.insert_dirty(addr(1, 0), 1, f(vec![1]));
        c.insert_clean(addr(1, 0), 1, f(vec![2]));
        assert_eq!(c.dirty_block_count(FileId::new(1)), 1);
    }

    #[test]
    fn take_dirty_flushes_but_keeps_clean_copies() {
        let mut c = BlockCache::new(8);
        c.insert_dirty(addr(1, 2), 1, f(vec![2]));
        c.insert_dirty(addr(1, 0), 1, f(vec![0]));
        c.insert_clean(addr(1, 1), 1, f(vec![1]));
        c.insert_dirty(addr(2, 0), 1, f(vec![9]));
        let flushed = c.take_dirty_blocks(FileId::new(1));
        assert_eq!(
            flushed,
            vec![(addr(1, 0), f(vec![0])), (addr(1, 2), f(vec![2]))],
            "dirty blocks of file 1 in block order"
        );
        assert_eq!(c.dirty_block_count(FileId::new(1)), 0);
        assert_eq!(c.dirty_block_count(FileId::new(2)), 1);
        assert_eq!(c.len(), 4, "flushed blocks stay cached clean");
    }

    #[test]
    fn invalidate_drops_everything_and_returns_dirty() {
        let mut c = BlockCache::new(8);
        c.insert_dirty(addr(1, 0), 1, f(vec![0]));
        c.insert_clean(addr(1, 1), 1, f(vec![1]));
        let dirty = c.invalidate_file(FileId::new(1));
        assert_eq!(dirty, vec![(addr(1, 0), f(vec![0]))]);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        BlockCache::new(0);
    }
}
