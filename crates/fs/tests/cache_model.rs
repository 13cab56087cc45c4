//! Property tests for the write-back LRU block cache.
//!
//! - It never loses dirty data, no matter the interleaving of inserts,
//!   lookups, evictions, recalls and invalidations — checked against a
//!   flat reference model. "Never loses dirty data" means: at any drain
//!   point, (bytes in dirty cache blocks) ∪ (bytes previously returned for
//!   write-back) equals the reference contents.
//! - It behaves exactly like [`FlatCache`], a flat-map reference cache
//!   (one hash map of `Vec<u8>` blocks, a linear scan per per-file
//!   operation and per eviction): same return values (the bytes of the
//!   frames the cache hands back), sizes, counters and digest folds after
//!   every operation, version changes included.
//!
//! Cases are generated from [`DetRng`] with a fixed seed (reproducible);
//! the `heavy-tests` feature multiplies the case count.

use sprite_sim::{DetHashMap, StateDigest};

use sprite_fs::{BlockAddr, BlockCache, FileId, FileKind, Frame, OpenMode, SpriteFs, SpritePath};
use sprite_net::HostId;
use sprite_sim::{DetRng, SimTime};

fn cases(base: usize) -> usize {
    if cfg!(feature = "heavy-tests") {
        base * 8
    } else {
        base
    }
}

/// Mint distinct FileIds through a real SpriteFs (the constructor is
/// intentionally private).
fn mint_file_ids(n: usize) -> Vec<FileId> {
    let mut net = sprite_net::Transport::new(sprite_net::CostModel::sun3(), 2);
    let mut fs = SpriteFs::new(sprite_fs::FsConfig::default(), 2);
    fs.add_server(HostId::new(0), SpritePath::new("/"));
    let _ = (FileKind::Regular, OpenMode::Read); // exercised elsewhere
    (0..n)
        .map(|i| {
            fs.create(
                &mut net,
                SimTime::ZERO,
                HostId::new(1),
                SpritePath::new(format!("/m/{i}")),
            )
            .unwrap()
            .0
        })
        .collect()
}

/// The file version of the dirty-data mix.
const V: u64 = 1;

#[derive(Debug, Clone)]
enum CacheOp {
    InsertClean {
        file: u8,
        block: u8,
        byte: u8,
        version: u64,
    },
    InsertDirty {
        file: u8,
        block: u8,
        byte: u8,
        version: u64,
    },
    Lookup {
        file: u8,
        block: u8,
        version: u64,
    },
    TakeDirty {
        file: u8,
    },
    Invalidate {
        file: u8,
    },
    Revalidate {
        file: u8,
        replaced: u64,
        version: u64,
    },
    MarkDirty {
        file: u8,
        block: u8,
    },
    TakeVictim {
        file: u8,
        block: u8,
    },
}

/// Inserts, lookups, recalls and invalidations; inserts and lookups under
/// `version`.
fn cache_op(rng: &mut DetRng, version: u64) -> CacheOp {
    let file = rng.uniform_u64(3) as u8;
    match rng.pick_index(5) {
        0 => CacheOp::InsertClean {
            file,
            block: rng.uniform_u64(6) as u8,
            byte: rng.uniform_u64(256) as u8,
            version,
        },
        1 => CacheOp::InsertDirty {
            file,
            block: rng.uniform_u64(6) as u8,
            byte: rng.uniform_u64(256) as u8,
            version,
        },
        2 => CacheOp::Lookup {
            file,
            block: rng.uniform_u64(6) as u8,
            version,
        },
        3 => CacheOp::TakeDirty { file },
        _ => CacheOp::Invalidate { file },
    }
}

/// The [`cache_op`] mix under one of three versions, so lookups discard
/// stale blocks, plus re-stamps, re-marked dirty blocks and the dirty
/// victims an insert would evict.
fn model_op(rng: &mut DetRng) -> CacheOp {
    let version = 1 + rng.uniform_u64(3);
    match rng.pick_index(9) {
        0 => CacheOp::Revalidate {
            file: rng.uniform_u64(3) as u8,
            replaced: 1 + rng.uniform_u64(3),
            version,
        },
        1 => CacheOp::MarkDirty {
            file: rng.uniform_u64(3) as u8,
            block: rng.uniform_u64(6) as u8,
        },
        2 => CacheOp::TakeVictim {
            file: rng.uniform_u64(3) as u8,
            block: rng.uniform_u64(6) as u8,
        },
        _ => cache_op(rng, version),
    }
}

#[test]
fn dirty_data_is_never_lost() {
    let mut rng = DetRng::seed_from(0xCAC8E);
    for case in 0..cases(128) {
        let nops = 1 + rng.pick_index(79);
        let ops: Vec<CacheOp> = (0..nops).map(|_| cache_op(&mut rng, V)).collect();

        let files = mint_file_ids(3);
        // Deliberately tiny cache so evictions are constant.
        let mut cache = BlockCache::new(4);
        // Reference: latest bytes written per (file, block), and whether the
        // latest version is safely "at the server" (from eviction/flush) or
        // must still be dirty in the cache.
        let mut latest: DetHashMap<(u8, u8), u8> = DetHashMap::default();
        let mut at_server: DetHashMap<(u8, u8), u8> = DetHashMap::default();

        let note_writeback =
            |addr: BlockAddr,
             data: &[u8],
             files: &[FileId],
             at_server: &mut DetHashMap<(u8, u8), u8>| {
                let f = files.iter().position(|f| *f == addr.file).unwrap() as u8;
                at_server.insert((f, addr.block as u8), data[0]);
            };

        for op in ops {
            match op {
                CacheOp::InsertClean {
                    file, block, byte, ..
                } => {
                    // A clean insert models a fetch: only allowed if it
                    // matches the server's copy; use the at_server byte if
                    // known, else this byte becomes the server truth.
                    let b = *at_server.entry((file, block)).or_insert(byte);
                    // Only meaningful if the block is not dirty in cache
                    // (the real FS never refetches over a dirty block).
                    if cache
                        .lookup(
                            BlockAddr {
                                file: files[file as usize],
                                block: block as u64,
                            },
                            V,
                        )
                        .is_none()
                        || latest.get(&(file, block)) == at_server.get(&(file, block))
                    {
                        if let Some((addr, data)) = cache.insert_clean(
                            BlockAddr {
                                file: files[file as usize],
                                block: block as u64,
                            },
                            V,
                            Frame::from([b; 8]),
                        ) {
                            note_writeback(addr, &data, &files, &mut at_server);
                        }
                        latest.entry((file, block)).or_insert(b);
                    }
                }
                CacheOp::InsertDirty {
                    file, block, byte, ..
                } => {
                    if let Some((addr, data)) = cache.insert_dirty(
                        BlockAddr {
                            file: files[file as usize],
                            block: block as u64,
                        },
                        V,
                        Frame::from([byte; 8]),
                    ) {
                        note_writeback(addr, &data, &files, &mut at_server);
                    }
                    latest.insert((file, block), byte);
                }
                CacheOp::Lookup { file, block, .. } => {
                    let got = cache.lookup(
                        BlockAddr {
                            file: files[file as usize],
                            block: block as u64,
                        },
                        V,
                    );
                    if let Some(data) = got {
                        // Whatever the cache returns must be either the
                        // latest write or the server's copy.
                        let f = latest.get(&(file, block)).copied();
                        let s = at_server.get(&(file, block)).copied();
                        assert!(
                            Some(data[0]) == f || Some(data[0]) == s,
                            "case {case}: cache returned {} but latest={f:?} server={s:?}",
                            data[0]
                        );
                    }
                }
                CacheOp::TakeDirty { file } => {
                    for (addr, data) in cache.take_dirty_blocks(files[file as usize]) {
                        note_writeback(addr, &data, &files, &mut at_server);
                    }
                }
                CacheOp::Invalidate { file } => {
                    for (addr, data) in cache.invalidate_file(files[file as usize]) {
                        note_writeback(addr, &data, &files, &mut at_server);
                    }
                }
                CacheOp::Revalidate { .. }
                | CacheOp::MarkDirty { .. }
                | CacheOp::TakeVictim { .. } => {
                    unreachable!("not in the dirty-data mix")
                }
            }
        }
        // Drain everything; afterwards the server must hold every latest
        // byte ever written.
        for f in 0u8..3 {
            for (addr, data) in cache.take_dirty_blocks(files[f as usize]) {
                at_server.insert((f, addr.block as u8), data[0]);
            }
        }
        #[expect(
            clippy::iter_over_hash_type,
            reason = "each entry is checked on its own"
        )]
        for ((file, block), byte) in &latest {
            assert_eq!(
                at_server.get(&(*file, *block)),
                Some(byte),
                "case {case}: file {file} block {block}: latest byte lost"
            );
        }
    }
}

/// The reference model for [`BlockCache`]: one hash map of blocks, each
/// stamped with the LRU clock at its last touch. Per-file operations scan
/// every cached block and eviction takes the minimum stamp over all of
/// them.
struct FlatCache {
    blocks: DetHashMap<BlockAddr, FlatBlock>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

struct FlatBlock {
    data: Vec<u8>,
    dirty: bool,
    touched: u64,
    version: u64,
}

type Flushed = Vec<(BlockAddr, Vec<u8>)>;

/// The bytes of blocks [`BlockCache`] returned, for comparison with the
/// reference's.
fn evicted(block: Option<(BlockAddr, Frame)>) -> Option<(BlockAddr, Vec<u8>)> {
    block.map(|(addr, frame)| (addr, frame.to_vec()))
}

fn flushed(blocks: Vec<(BlockAddr, Frame)>) -> Flushed {
    blocks
        .into_iter()
        .map(|(addr, frame)| (addr, frame.to_vec()))
        .collect()
}

impl FlatCache {
    fn new(capacity: usize) -> Self {
        FlatCache {
            blocks: DetHashMap::default(),
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

    fn lookup(&mut self, addr: BlockAddr, current_version: u64) -> Option<Vec<u8>> {
        let clock = self.tick();
        match self.blocks.get_mut(&addr) {
            Some(b) if b.version == current_version => {
                b.touched = clock;
                self.hits += 1;
                Some(b.data.clone())
            }
            Some(_) => {
                self.blocks.remove(&addr);
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(
        &mut self,
        addr: BlockAddr,
        version: u64,
        data: Vec<u8>,
        dirty: bool,
    ) -> Option<(BlockAddr, Vec<u8>)> {
        let clock = self.tick();
        let was_dirty = self.blocks.get(&addr).is_some_and(|b| b.dirty);
        self.blocks.insert(
            addr,
            FlatBlock {
                data,
                dirty: dirty || was_dirty,
                touched: clock,
                version,
            },
        );
        if self.blocks.len() <= self.capacity {
            return None;
        }
        let victim = self
            .blocks
            .iter()
            .filter(|(a, _)| **a != addr)
            .min_by_key(|(_, b)| b.touched)
            .map(|(a, _)| *a)
            .unwrap();
        let evicted = self.blocks.remove(&victim).unwrap();
        evicted.dirty.then_some((victim, evicted.data))
    }

    fn mark_dirty(&mut self, addr: BlockAddr) -> bool {
        match self.blocks.get_mut(&addr) {
            Some(block) => {
                block.dirty = true;
                true
            }
            None => false,
        }
    }

    fn take_dirty_victim(&mut self, addr: BlockAddr) -> Option<(BlockAddr, Vec<u8>)> {
        if self.blocks.len() < self.capacity || self.blocks.contains_key(&addr) {
            return None;
        }
        let (&victim, block) = self.blocks.iter_mut().min_by_key(|(_, b)| b.touched)?;
        if !block.dirty {
            return None;
        }
        block.dirty = false;
        Some((victim, block.data.clone()))
    }

    fn revalidate_file(&mut self, file: FileId, replaced: u64, version: u64) {
        #[expect(
            clippy::iter_over_hash_type,
            reason = "every match gets the same update"
        )]
        for (addr, block) in self.blocks.iter_mut() {
            if addr.file == file && block.version == replaced {
                block.version = version;
            }
        }
    }

    fn take_dirty_blocks(&mut self, file: FileId) -> Flushed {
        let mut out: Flushed = self
            .blocks
            .iter_mut()
            .filter(|(a, b)| a.file == file && b.dirty)
            .map(|(a, b)| {
                b.dirty = false;
                (*a, b.data.clone())
            })
            .collect();
        out.sort_by_key(|(a, _)| a.block);
        out
    }

    fn invalidate_file(&mut self, file: FileId) -> Flushed {
        let addrs: Vec<BlockAddr> = self
            .blocks
            .keys()
            .filter(|a| a.file == file)
            .copied()
            .collect();
        let mut dirty = Vec::new();
        for addr in addrs {
            let block = self.blocks.remove(&addr).unwrap();
            if block.dirty {
                dirty.push((addr, block.data));
            }
        }
        dirty.sort_by_key(|(a, _)| a.block);
        dirty
    }

    fn dirty_block_count(&self, file: FileId) -> u64 {
        self.blocks
            .iter()
            .filter(|(a, b)| a.file == file && b.dirty)
            .count() as u64
    }

    fn digest(&self) -> u64 {
        let mut d = StateDigest::new();
        d.write_usize(self.capacity);
        d.write_u64(self.clock);
        d.write_u64(self.hits);
        d.write_u64(self.misses);
        d.write_usize(self.blocks.len());
        let mut entries: Vec<(&BlockAddr, &FlatBlock)> = self.blocks.iter().collect();
        entries.sort_by_key(|(a, _)| (a.file, a.block));
        for (addr, b) in entries {
            d.write_u64(addr.file.raw());
            d.write_u64(addr.block);
            d.write_usize(b.data.len());
            d.write_bool(b.dirty);
            d.write_u64(b.touched);
            d.write_u64(b.version);
        }
        d.finish()
    }
}

/// What one operation returned, from either cache.
#[derive(Debug, PartialEq)]
enum Returned {
    Nothing,
    Block(Option<Vec<u8>>),
    Evicted(Option<(BlockAddr, Vec<u8>)>),
    Flushed(Flushed),
    Cached(bool),
}

#[test]
fn block_cache_matches_the_flat_reference_exactly() {
    let files = mint_file_ids(3);
    let mut rng = DetRng::seed_from(0xF1A7);
    for capacity in [1, 4, 64] {
        for case in 0..cases(96) {
            let mut cache = BlockCache::new(capacity);
            let mut flat = FlatCache::new(capacity);
            let nops = 1 + rng.pick_index(199);
            for op_index in 0..nops {
                let op = model_op(&mut rng);
                let at = |file: u8, block: u8| BlockAddr {
                    file: files[file as usize],
                    block: u64::from(block),
                };
                let (got, want) = match op.clone() {
                    CacheOp::InsertClean {
                        file,
                        block,
                        byte,
                        version,
                    } => (
                        Returned::Evicted(evicted(cache.insert_clean(
                            at(file, block),
                            version,
                            Frame::from([byte]),
                        ))),
                        Returned::Evicted(flat.insert(at(file, block), version, vec![byte], false)),
                    ),
                    CacheOp::InsertDirty {
                        file,
                        block,
                        byte,
                        version,
                    } => (
                        Returned::Evicted(evicted(cache.insert_dirty(
                            at(file, block),
                            version,
                            Frame::from([byte]),
                        ))),
                        Returned::Evicted(flat.insert(at(file, block), version, vec![byte], true)),
                    ),
                    CacheOp::Lookup {
                        file,
                        block,
                        version,
                    } => (
                        Returned::Block(cache.lookup(at(file, block), version).map(|f| f.to_vec())),
                        Returned::Block(flat.lookup(at(file, block), version)),
                    ),
                    CacheOp::TakeDirty { file } => (
                        Returned::Flushed(flushed(cache.take_dirty_blocks(files[file as usize]))),
                        Returned::Flushed(flat.take_dirty_blocks(files[file as usize])),
                    ),
                    CacheOp::Invalidate { file } => (
                        Returned::Flushed(flushed(cache.invalidate_file(files[file as usize]))),
                        Returned::Flushed(flat.invalidate_file(files[file as usize])),
                    ),
                    CacheOp::Revalidate {
                        file,
                        replaced,
                        version,
                    } => {
                        cache.revalidate_file(files[file as usize], replaced, version);
                        flat.revalidate_file(files[file as usize], replaced, version);
                        (Returned::Nothing, Returned::Nothing)
                    }
                    CacheOp::MarkDirty { file, block } => (
                        Returned::Cached(cache.mark_dirty(at(file, block))),
                        Returned::Cached(flat.mark_dirty(at(file, block))),
                    ),
                    CacheOp::TakeVictim { file, block } => (
                        Returned::Evicted(evicted(cache.take_dirty_victim(at(file, block)))),
                        Returned::Evicted(flat.take_dirty_victim(at(file, block))),
                    ),
                };
                let ctx = format!("capacity {capacity} case {case} op {op_index} ({op:?})");
                assert_eq!(got, want, "{ctx}: return value");
                assert_eq!(cache.len(), flat.blocks.len(), "{ctx}: len");
                assert_eq!(cache.is_empty(), flat.blocks.is_empty(), "{ctx}");
                assert_eq!(
                    cache.hit_stats(),
                    (flat.hits, flat.misses),
                    "{ctx}: hit_stats"
                );
                for &file in &files {
                    assert_eq!(
                        cache.dirty_block_count(file),
                        flat.dirty_block_count(file),
                        "{ctx}: dirty_block_count({file})"
                    );
                }
                let mut d = StateDigest::new();
                cache.digest_into(&mut d);
                assert_eq!(d.finish(), flat.digest(), "{ctx}: digest fold");
            }
        }
    }
}
