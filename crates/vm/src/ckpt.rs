//! Checkpoint/restart: the rival mechanism to live migration.
//!
//! The paper treats live migration as *the* way to reclaim a workstation,
//! but the modern tradeoff is checkpoint-to-stable-storage vs migrate-live
//! (Cappello et al. 2009): a checkpoint freezes the process briefly and
//! streams its writable image to a file on the shared (sharded) file
//! system, bounding the work lost to a later crash by the checkpoint
//! interval; restart-elsewhere re-opens the image through the namespace's
//! `ShardGroup` routing and rebuilds the address space on any host, with
//! no residual dependency on the source. Live migration is cheaper per
//! move — it only flushes dirty pages and never reads them back — but
//! offers nothing against an *unplanned* crash: everything since process
//! start is lost.
//!
//! This module is the `CkptStrategy` seam beside [`VmStrategy`]: the same
//! shape as [`transfer`] (a strategy enum, a report, pure functions over
//! `AddressSpace` + `SpriteFs` + `Transport`), with the image traffic
//! typed as [`RpcOp::CkptWrite`]/[`RpcOp::CkptRestore`] so the per-op RPC
//! tables account for it separately from regular file I/O.
//!
//! The image is self-contained *in the simulated file system*, laid out
//! in whole 4 KB blocks, like CRIU's `pagemap` index beside its
//! page-aligned `pages` image:
//!
//! 1. the header (magic, record count, heap and stack sizes, a checksum,
//!    the frozen kernel record), then one `(segment tag, page index)`
//!    entry per captured page, padded to a block boundary;
//! 2. one block per captured page, in index order;
//! 3. the trailer block (magic and record count), written last.
//!
//! The image moves in runs: the checkpoint writes its blocks, index, pages
//! and trailer alike, in runs of up to [`CostModel::run_blocks`] (4 on
//! both calibrations), one [`SpriteFs::ckpt_write_blocks`] RPC each, and a
//! restore reads them back a run at a time through a one-run read-ahead
//! buffer, one [`SpriteFs::ckpt_read_blocks`] RPC each. The blocks are
//! page frames moved by reference: the image shares the captured pages'
//! frames and a restored space shares the image's, so neither side copies
//! a page. The header's checksum (FNV-1a over the header, its own field
//! read as zeros, and the index entries) catches any damage to either. A
//! restore validates the header, the checksum and every index entry
//! before it installs a page, and the trailer after the last one, so an
//! image cut short by a checkpoint that died mid-write (no trailer) or
//! damaged in its header, index or trailer is discarded, never half-run —
//! the property the chaos suite gates on. Page blocks carry no checksum:
//! a damaged page restores as damaged.
//!
//! [`VmStrategy`]: crate::VmStrategy
//! [`transfer`]: crate::transfer
//! [`RpcOp::CkptWrite`]: sprite_net::RpcOp::CkptWrite
//! [`RpcOp::CkptRestore`]: sprite_net::RpcOp::CkptRestore
//! [`CostModel::run_blocks`]: sprite_net::CostModel::run_blocks
//! [`SpriteFs::ckpt_write_blocks`]: sprite_fs::SpriteFs::ckpt_write_blocks
//! [`SpriteFs::ckpt_read_blocks`]: sprite_fs::SpriteFs::ckpt_read_blocks

use std::collections::VecDeque;
use std::fmt;

use sprite_fs::{Frame, FsError, OpenMode, SpriteFs, SpritePath, StreamId};
use sprite_net::{HostId, Transport, PAGE_SIZE};
use sprite_sim::{SimDuration, SimTime, StateDigest};

use crate::space::{AddressSpace, CkptPage, SegmentKind};

/// How much of the address space a checkpoint captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptStrategy {
    /// Every writable page with content. Biggest image, always sound.
    FullImage,
    /// Only pages dirtied since the last flush — cheap for processes that
    /// touch a small working set. Automatically widens to a full image
    /// when a prior flush left writable pages in backing files (a
    /// dirty-only image could not restore them into a fresh space).
    DirtyOnly,
}

impl CkptStrategy {
    /// All strategies, in comparison order.
    pub const ALL: [CkptStrategy; 2] = [CkptStrategy::FullImage, CkptStrategy::DirtyOnly];

    /// Stable label for tables and traces.
    pub fn label(self) -> &'static str {
        match self {
            CkptStrategy::FullImage => "full-image",
            CkptStrategy::DirtyOnly => "dirty-only",
        }
    }
}

impl fmt::Display for CkptStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Checkpoint/restart errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CkptError {
    /// A file-system (or underlying RPC) failure.
    Fs(FsError),
    /// The image failed validation: truncated, bad magic, impossible
    /// record. The caller must discard it — and must never run a process
    /// restored from it.
    Corrupt {
        /// What the validator tripped over.
        detail: &'static str,
    },
}

impl From<FsError> for CkptError {
    fn from(e: FsError) -> Self {
        CkptError::Fs(e)
    }
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Fs(e) => write!(f, "checkpoint fs error: {e}"),
            CkptError::Corrupt { detail } => write!(f, "checkpoint image corrupt: {detail}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// Result alias for checkpoint operations.
pub type CkptResult<T> = Result<T, CkptError>;

/// Image header magic ("SCKP").
const HEADER_MAGIC: [u8; 4] = *b"SCKP";
/// Image trailer magic ("SEND") — its presence proves the checkpoint
/// finished; a crash mid-checkpoint leaves a trailerless image.
const TRAILER_MAGIC: [u8; 4] = *b"SEND";

/// Frozen kernel state serialized into the header: PCB identity, stream
/// table, signal state — the non-VM half of what `MigrateState` carries
/// for a live migration.
pub const CKPT_KERNEL_RECORD_BYTES: u64 = 256;

/// Header length: magic + record count + heap/stack page counts + the
/// checksum + the kernel record.
pub const CKPT_HEADER_BYTES: u64 = 4 + 4 + 8 + 8 + 8 + CKPT_KERNEL_RECORD_BYTES;

/// Where the header's checksum lies: after the magic, the record count
/// and the two segment sizes.
const CHECKSUM_AT: usize = 4 + 4 + 8 + 8;

/// Index entry length: segment tag + page index.
const INDEX_ENTRY_BYTES: u64 = 1 + 8;

/// Trailer length: magic + record count.
const TRAILER_BYTES: usize = 4 + 4;

/// Blocks the header and the index of a `pages`-page image fill.
fn index_blocks(pages: u64) -> u64 {
    (CKPT_HEADER_BYTES + pages * INDEX_ENTRY_BYTES).div_ceil(PAGE_SIZE)
}

/// Length of a `pages`-page image: the index blocks, a block per page and
/// the trailer.
fn image_bytes(pages: u64) -> u64 {
    (index_blocks(pages) + pages) * PAGE_SIZE + TRAILER_BYTES as u64
}

/// The checksum of an image's header and index entries, `covered`,
/// read with the checksum field zeroed: FNV-1a over those bytes.
fn checksum(covered: &[u8]) -> u64 {
    let mut d = StateDigest::new();
    d.write_bytes(covered);
    d.finish()
}

/// The trailer of a `count`-page image: the magic, then the count again.
fn trailer(count: u32) -> [u8; TRAILER_BYTES] {
    let mut bytes = [0; TRAILER_BYTES];
    bytes[..4].copy_from_slice(&TRAILER_MAGIC);
    bytes[4..].copy_from_slice(&count.to_le_bytes());
    bytes
}

/// Descriptor for a written checkpoint image. Everything here is also in
/// the image header — the descriptor just spares reopeners a header parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptImage {
    /// Image path; the namespace's `ShardGroup` hash of this text decides
    /// which server daemon holds the image.
    pub path: SpritePath,
    /// Heap segment size of the checkpointed process, in pages.
    pub heap_pages: u64,
    /// Stack segment size of the checkpointed process, in pages.
    pub stack_pages: u64,
    /// Pages in the image.
    pub pages: u64,
    /// Total image length in bytes (index blocks + page blocks +
    /// trailer).
    pub image_bytes: u64,
    /// When the checkpoint froze the process.
    pub taken_at: SimTime,
}

/// What one checkpoint cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptReport {
    /// The strategy used.
    pub strategy: CkptStrategy,
    /// Pages written.
    pub pages_written: u64,
    /// Total bytes written to the image file.
    pub image_bytes: u64,
    /// How long the process was frozen (the whole write, like Sprite's
    /// flush: checkpointing is a stop-and-copy to stable storage).
    pub freeze_time: SimDuration,
    /// When the image was durable and the process could continue.
    pub completed_at: SimTime,
}

/// What one restart-elsewhere cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreReport {
    /// Pages restored into the fresh space.
    pub pages_restored: u64,
    /// Bytes read back from the image file.
    pub image_bytes: u64,
    /// Open-to-close duration of the restore.
    pub total_time: SimDuration,
    /// When the restored process could run.
    pub resumed_at: SimTime,
}

fn seg_tag(kind: SegmentKind) -> u8 {
    match kind {
        SegmentKind::Code => 0,
        SegmentKind::Heap => 1,
        SegmentKind::Stack => 2,
    }
}

/// Writes a checkpoint of `space` to `path` on the shared file system.
///
/// The process is conceptually frozen for the whole duration (the caller
/// freezes/thaws around this, exactly as the migration protocol does); the
/// report's `freeze_time` is the full cost. An existing image at `path` is
/// replaced — periodic checkpoints overwrite their predecessor. Dirty
/// state in `space` is untouched: the image is a *copy*, so a later live
/// migration still sees its dirty pages.
///
/// # Errors
///
/// File-system or RPC failures propagate as [`CkptError::Fs`]. On error
/// the image file may exist but is trailerless; [`restore`] will reject
/// it as corrupt, which is the "cleanly discarded" half of the chaos
/// invariant.
pub fn checkpoint(
    space: &mut AddressSpace,
    strategy: CkptStrategy,
    fs: &mut SpriteFs,
    net: &mut Transport,
    now: SimTime,
    host: HostId,
    path: SpritePath,
) -> CkptResult<(CkptImage, CkptReport)> {
    let dirty_only = matches!(strategy, CkptStrategy::DirtyOnly);
    let (pages, t) = space.ckpt_snapshot(fs, net, now, host, dirty_only)?;
    // Replace any previous image at this path; a fresh path unlinks
    // nothing and that is fine.
    let t = match fs.unlink(net, t, host, &path) {
        Ok(t1) => t1,
        Err(FsError::Rpc(e)) => return Err(CkptError::Fs(FsError::Rpc(e))),
        Err(_) => t,
    };
    let (_, t) = fs.create(net, t, host, path.clone())?;
    let (stream, mut t) = fs.open(net, t, host, path.clone(), OpenMode::Write)?;
    let count = u32::try_from(pages.len()).expect("a checkpoint captures under 2^32 pages");
    let heap_pages = space.segment(SegmentKind::Heap).page_count();
    let stack_pages = space.segment(SegmentKind::Stack).page_count();
    let index = index(&pages, count, heap_pages, stack_pages);
    let blocks: Vec<Frame> = index
        .chunks(PAGE_SIZE as usize)
        .map(Frame::from)
        .chain(pages.into_iter().map(|p| p.data))
        .chain([Frame::from(trailer(count))])
        .collect();
    for run in blocks.chunks(net.cost().run_blocks() as usize) {
        t = fs.ckpt_write_blocks(net, t, host, stream, run)?;
    }
    let t = fs.close(net, t, host, stream)?;
    let image_bytes = image_bytes(count.into());
    let image = CkptImage {
        path,
        heap_pages,
        stack_pages,
        pages: count.into(),
        image_bytes,
        taken_at: now,
    };
    let report = CkptReport {
        strategy,
        pages_written: count.into(),
        image_bytes,
        freeze_time: t.elapsed_since(now),
        completed_at: t,
    };
    Ok((image, report))
}

/// The header and the index of an image of `pages` (`count` of them),
/// checksummed and zero-padded to whole blocks.
fn index(pages: &[CkptPage], count: u32, heap_pages: u64, stack_pages: u64) -> Vec<u8> {
    let len = (index_blocks(count.into()) * PAGE_SIZE) as usize;
    let mut index = Vec::with_capacity(len);
    index.extend_from_slice(&HEADER_MAGIC);
    index.extend_from_slice(&count.to_le_bytes());
    index.extend_from_slice(&heap_pages.to_le_bytes());
    index.extend_from_slice(&stack_pages.to_le_bytes());
    index.resize(CKPT_HEADER_BYTES as usize, 0);
    for p in pages {
        index.push(seg_tag(p.segment));
        index.extend_from_slice(&p.page.to_le_bytes());
    }
    let sum = checksum(&index);
    index[CHECKSUM_AT..CHECKSUM_AT + 8].copy_from_slice(&sum.to_le_bytes());
    index.resize(len, 0);
    index
}

/// Restores a checkpoint image from `path` into `space` — a *fresh*
/// address space on the restart host (spawned with the same program and
/// segment sizes, per the image header).
///
/// Opening `path` routes through the namespace's `ShardGroup` exactly like
/// any other open: restart-elsewhere needs no knowledge of which server
/// daemon holds the image. The image is read a run of blocks at a time,
/// so page blocks may arrive with the index, but no page is installed
/// until the header (magic, segment sizes, a record count the space can
/// hold), its checksum over the header and index, and every index entry
/// (segment tag, page range, strictly increasing order) check out; every
/// block must be whole and the trailer must close the image with the
/// header's record count; any mismatch returns [`CkptError::Corrupt`].
/// Each page is installed as the image block's frame, shared until either
/// side writes.
///
/// # Errors
///
/// On *any* error, `space` may hold a partial restore — the caller must
/// discard the process rather than run it. The image stream is closed
/// and the image file itself is never modified by a failed restore, so a
/// transient failure (partition) can be retried once the network heals.
pub fn restore(
    space: &mut AddressSpace,
    fs: &mut SpriteFs,
    net: &mut Transport,
    now: SimTime,
    host: HostId,
    path: &SpritePath,
) -> CkptResult<RestoreReport> {
    let (stream, mut t) = fs.open(net, now, host, path.clone(), OpenMode::Read)?;
    match restore_pages(space, fs, net, &mut t, host, stream) {
        Ok(pages) => {
            let t = fs.close(net, t, host, stream)?;
            Ok(RestoreReport {
                pages_restored: pages,
                image_bytes: image_bytes(pages),
                total_time: t.elapsed_since(now),
                resumed_at: t,
            })
        }
        Err(e) => {
            // The stream is released even when the close's RPC is lost, so
            // a failed restore never leaves its image stream open.
            let _ = fs.close(net, t, host, stream);
            Err(e)
        }
    }
}

/// Reads the image behind `stream` into `space`, a run of blocks at a
/// time through a one-run read-ahead buffer, moving `t` past each run
/// read, and returns the pages restored.
fn restore_pages(
    space: &mut AddressSpace,
    fs: &mut SpriteFs,
    net: &mut Transport,
    t: &mut SimTime,
    host: HostId,
    stream: StreamId,
) -> CkptResult<u64> {
    let run = net.cost().run_blocks();
    let mut ahead = VecDeque::with_capacity(run as usize);
    let mut next = |fs: &mut SpriteFs, net: &mut Transport, t: &mut SimTime| {
        if ahead.is_empty() {
            let (blocks, t1) = fs.ckpt_read_blocks(net, *t, host, stream, run)?;
            *t = t1;
            ahead.extend(blocks);
        }
        Ok::<_, CkptError>(ahead.pop_front())
    };
    let corrupt = |detail| CkptError::Corrupt { detail };
    let whole = |block: Option<Frame>, detail| {
        block
            .filter(|b| b.len() as u64 == PAGE_SIZE)
            .ok_or(corrupt(detail))
    };
    let first = whole(next(fs, net, t)?, "short header")?;
    if first[0..4] != HEADER_MAGIC {
        return Err(corrupt("bad header magic"));
    }
    let count = u32::from_le_bytes(first[4..8].try_into().expect("4 bytes"));
    let pages = u64::from(count);
    let word = |at: usize| u64::from_le_bytes(first[at..at + 8].try_into().expect("8 bytes"));
    let (heap_pages, stack_pages, sum) = (word(8), word(16), word(CHECKSUM_AT));
    if heap_pages != space.segment(SegmentKind::Heap).page_count()
        || stack_pages != space.segment(SegmentKind::Stack).page_count()
    {
        return Err(corrupt("segment sizes do not match the restart space"));
    }
    if pages > heap_pages + stack_pages {
        return Err(corrupt("more pages than the restart space holds"));
    }
    let mut index = first.to_vec();
    for _ in 1..index_blocks(pages) {
        index.extend_from_slice(&whole(next(fs, net, t)?, "truncated index")?);
    }
    index.truncate((CKPT_HEADER_BYTES + pages * INDEX_ENTRY_BYTES) as usize);
    index[CHECKSUM_AT..CHECKSUM_AT + 8].fill(0);
    if checksum(&index) != sum {
        return Err(corrupt("header or index checksum mismatch"));
    }
    let mut entries: Vec<(SegmentKind, u64)> = Vec::with_capacity(pages as usize);
    for entry in index[CKPT_HEADER_BYTES as usize..].chunks(INDEX_ENTRY_BYTES as usize) {
        let (segment, limit) = match entry[0] {
            1 => (SegmentKind::Heap, heap_pages),
            2 => (SegmentKind::Stack, stack_pages),
            _ => return Err(corrupt("bad segment tag")),
        };
        let page = u64::from_le_bytes(entry[1..].try_into().expect("8 bytes"));
        if page >= limit {
            return Err(corrupt("page index out of range"));
        }
        if entries
            .last()
            .is_some_and(|&(s, p)| (seg_tag(s), p) >= (seg_tag(segment), page))
        {
            return Err(corrupt("index out of order"));
        }
        entries.push((segment, page));
    }
    for (segment, page) in entries {
        let frame = whole(next(fs, net, t)?, "truncated page block")?;
        *t = space.install_page(fs, net, *t, host, segment, page, frame)?;
    }
    if next(fs, net, t)?.as_deref() != Some(&trailer(count)[..]) {
        return Err(corrupt("missing trailer (checkpoint died mid-write)"));
    }
    Ok(pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VirtAddr;
    use sprite_fs::FsConfig;
    use sprite_net::{CostModel, RpcOp};

    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    fn setup(hosts: usize) -> (Transport, SpriteFs) {
        let net = Transport::new(CostModel::sun3(), hosts);
        let mut fs = SpriteFs::new(FsConfig::default(), hosts);
        fs.add_server(h(0), SpritePath::new("/"));
        (net, fs)
    }

    fn sharded_setup(hosts: usize, shards: u32) -> (Transport, SpriteFs) {
        let net = Transport::new(CostModel::sun3(), hosts);
        let mut fs = SpriteFs::new(FsConfig::default(), hosts);
        for s in 0..shards {
            fs.add_server(h(s), SpritePath::new("/"));
        }
        (net, fs)
    }

    fn space(fs: &mut SpriteFs, net: &mut Transport, tag: &str) -> (AddressSpace, SimTime) {
        let (prog, t) = fs
            .create(
                net,
                SimTime::ZERO,
                h(1),
                SpritePath::new(format!("/bin/{tag}")),
            )
            .unwrap();
        (AddressSpace::create(tag, prog, 4, 32, 8), t)
    }

    #[test]
    fn checkpoint_then_restore_round_trips_bytes() {
        for strategy in CkptStrategy::ALL {
            let (mut net, mut fs) = setup(3);
            let (mut s, t) = space(&mut fs, &mut net, "c1");
            let a = VirtAddr::new(SegmentKind::Heap, 100);
            let payload: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
            let t = s.write(&mut fs, &mut net, t, h(1), a, &payload).unwrap();
            let img_path = SpritePath::new("/ckpt/c1.img");
            let (image, report) = checkpoint(
                &mut s,
                strategy,
                &mut fs,
                &mut net,
                t,
                h(1),
                img_path.clone(),
            )
            .unwrap();
            assert!(report.freeze_time > SimDuration::ZERO);
            assert_eq!(report.pages_written, 3, "two pages + the spanning one");
            assert_eq!(image.image_bytes, report.image_bytes);
            // Restart elsewhere: a fresh space on host 2.
            let (prog2, t2) = fs
                .create(
                    &mut net,
                    report.completed_at,
                    h(2),
                    SpritePath::new("/bin/c1r"),
                )
                .unwrap();
            let mut fresh = AddressSpace::create("c1r", prog2, 4, 32, 8);
            let rr = restore(&mut fresh, &mut fs, &mut net, t2, h(2), &img_path).unwrap();
            assert_eq!(rr.pages_restored, 3);
            assert_eq!(rr.image_bytes, image.image_bytes);
            let (back, _) = fresh
                .read(
                    &mut fs,
                    &mut net,
                    rr.resumed_at,
                    h(2),
                    a,
                    payload.len() as u64,
                )
                .unwrap();
            assert_eq!(back, payload, "{strategy}: restored bytes differ");
        }
    }

    /// A space on host 1 whose first `pages` heap pages each hold one byte
    /// value, and the time the writes finished.
    fn written_space(
        fs: &mut SpriteFs,
        net: &mut Transport,
        tag: &str,
        pages: u64,
    ) -> (AddressSpace, SimTime) {
        let (prog, mut t) = fs
            .create(
                net,
                SimTime::ZERO,
                h(1),
                SpritePath::new(format!("/bin/{tag}")),
            )
            .unwrap();
        let mut s = AddressSpace::create(tag, prog, 4, pages + 16, 8);
        for page in 0..pages {
            let a = VirtAddr::new(SegmentKind::Heap, page * PAGE_SIZE);
            t = s
                .write(fs, net, t, h(1), a, &[page as u8; PAGE_SIZE as usize])
                .unwrap();
        }
        (s, t)
    }

    /// A fresh space on `host` shaped like `written_space(.., pages)`.
    fn fresh_space(
        fs: &mut SpriteFs,
        net: &mut Transport,
        t: SimTime,
        host: HostId,
        tag: &str,
        pages: u64,
    ) -> (AddressSpace, SimTime) {
        let (prog, t) = fs
            .create(net, t, host, SpritePath::new(format!("/bin/{tag}")))
            .unwrap();
        (AddressSpace::create(tag, prog, 4, pages + 16, 8), t)
    }

    /// The frames of `s`'s dirty pages, in index order.
    fn dirty_frames(
        s: &mut AddressSpace,
        fs: &mut SpriteFs,
        net: &mut Transport,
        t: SimTime,
    ) -> Vec<Frame> {
        let (pages, _) = s.ckpt_snapshot(fs, net, t, h(1), true).unwrap();
        pages.into_iter().map(|p| p.data).collect()
    }

    /// Block `block` of the image at `path`, as the server stores it.
    fn image_block(fs: &SpriteFs, path: &SpritePath, block: u64) -> Frame {
        let server = fs.server(h(0)).unwrap();
        let id = server.lookup(path).unwrap();
        server.file(id).unwrap().frame(block)
    }

    #[test]
    fn checkpoint_traffic_is_typed() {
        // 3 pages fit the index in one block; 430 spill it into a second.
        // Each way, one RPC carries a run of up to 4 blocks.
        for (pages, blocks, runs) in [(3, 5, 2), (430, 433, 109)] {
            let (mut net, mut fs) = setup(3);
            let (mut s, t) = written_space(&mut fs, &mut net, "c2", pages);
            let path = SpritePath::new("/ckpt/c2.img");
            let (image, rep) = checkpoint(
                &mut s,
                CkptStrategy::DirtyOnly,
                &mut fs,
                &mut net,
                t,
                h(1),
                path.clone(),
            )
            .unwrap();
            assert_eq!(
                index_blocks(pages) + pages + 1,
                blocks,
                "index, pages, trailer"
            );
            assert_eq!(image.image_bytes, (blocks - 1) * PAGE_SIZE + 8);
            let writes = net.rpc_table().get(RpcOp::CkptWrite);
            assert_eq!(writes.calls, runs, "{pages} pages");
            let (mut fresh, t2) =
                fresh_space(&mut fs, &mut net, rep.completed_at, h(2), "c2r", pages);
            let rr = restore(&mut fresh, &mut fs, &mut net, t2, h(2), &path).unwrap();
            assert_eq!(rr.image_bytes, image.image_bytes);
            assert_eq!(
                net.rpc_table().get(RpcOp::CkptRestore).calls,
                runs,
                "{pages} pages"
            );
            assert_eq!(
                net.rpc_table().total_bytes(),
                net.stats().bytes,
                "typed totals must still equal raw wire counters"
            );
        }
    }

    #[test]
    fn images_share_page_frames_and_stay_checkpoint_time_copies() {
        let (mut net, mut fs) = setup(4);
        let (mut s, t) = written_space(&mut fs, &mut net, "c5", 3);
        let path = SpritePath::new("/ckpt/c5.img");
        let (_, rep) = checkpoint(
            &mut s,
            CkptStrategy::FullImage,
            &mut fs,
            &mut net,
            t,
            h(1),
            path.clone(),
        )
        .unwrap();
        // One index block, then the pages' own frames.
        let captured = dirty_frames(&mut s, &mut fs, &mut net, rep.completed_at);
        for (i, frame) in captured.iter().enumerate() {
            assert!(Frame::ptr_eq(&image_block(&fs, &path, 1 + i as u64), frame));
        }
        // The source writes after the dump; the image keeps the old bytes.
        let a = VirtAddr::new(SegmentKind::Heap, PAGE_SIZE + 10);
        let t = s
            .write(&mut fs, &mut net, rep.completed_at, h(1), a, b"later")
            .unwrap();
        let (mut fresh, t) = fresh_space(&mut fs, &mut net, t, h(2), "c5r", 3);
        let rr = restore(&mut fresh, &mut fs, &mut net, t, h(2), &path).unwrap();
        let restored = dirty_frames(&mut fresh, &mut fs, &mut net, rr.resumed_at);
        assert_eq!(restored.len(), 3);
        for (i, frame) in restored.iter().enumerate() {
            assert!(Frame::ptr_eq(&image_block(&fs, &path, 1 + i as u64), frame));
            assert_eq!(**frame, [i as u8; PAGE_SIZE as usize]);
        }
        // The restored space writes; a second restore still reads the
        // checkpoint-time bytes.
        let t = fresh
            .write(&mut fs, &mut net, rr.resumed_at, h(2), a, b"again")
            .unwrap();
        let (mut again, t) = fresh_space(&mut fs, &mut net, t, h(3), "c5s", 3);
        let rr = restore(&mut again, &mut fs, &mut net, t, h(3), &path).unwrap();
        let (back, _) = again
            .read(&mut fs, &mut net, rr.resumed_at, h(3), a, 5)
            .unwrap();
        assert_eq!(back, [1; 5]);
        let (mine, _) = fresh.read(&mut fs, &mut net, t, h(2), a, 5).unwrap();
        assert_eq!(mine, b"again");
        let (source, _) = s.read(&mut fs, &mut net, t, h(1), a, 5).unwrap();
        assert_eq!(source, b"later");
    }

    #[test]
    fn dirty_only_widens_after_a_flush() {
        // After the flush, one more write: to a page never written (the
        // first two pages stay only in the backing file), or to page 0,
        // whose page-in reads page 1 too, resident and clean.
        for (second, pages) in [(2, 3), (0, 2)] {
            let (mut net, mut fs) = setup(3);
            let (mut s, t) = space(&mut fs, &mut net, "c3");
            let a = VirtAddr::new(SegmentKind::Heap, 0);
            let t = s
                .write(&mut fs, &mut net, t, h(1), a, &[3u8; 8192])
                .unwrap();
            // Flush + drop: the two pages now live only in the backing file.
            let t = s.flush_dirty(&mut fs, &mut net, t, h(1)).unwrap();
            s.drop_residency();
            assert!(s.has_flushed_writable_pages());
            // A literal dirty-only image would lose the flushed pages the
            // write leaves clean.
            let b = VirtAddr::new(SegmentKind::Heap, second * PAGE_SIZE);
            let t = s.write(&mut fs, &mut net, t, h(1), b, &[5u8; 100]).unwrap();
            assert!(s.has_flushed_writable_pages(), "page {second}");
            let path = SpritePath::new("/ckpt/c3.img");
            let (image, _) = checkpoint(
                &mut s,
                CkptStrategy::DirtyOnly,
                &mut fs,
                &mut net,
                t,
                h(1),
                path.clone(),
            )
            .unwrap();
            assert_eq!(
                image.pages, pages,
                "page {second}: widened to the full image"
            );
            let (prog2, t2) = fs
                .create(&mut net, t, h(2), SpritePath::new("/bin/c3r"))
                .unwrap();
            let mut fresh = AddressSpace::create("c3r", prog2, 4, 32, 8);
            restore(&mut fresh, &mut fs, &mut net, t2, h(2), &path).unwrap();
            let mut want = vec![3u8; 8192];
            want.resize(3 * PAGE_SIZE as usize, 0);
            want[(second * PAGE_SIZE) as usize..][..100].fill(5);
            let (back, _) = fresh
                .read(&mut fs, &mut net, t2, h(2), a, 3 * PAGE_SIZE)
                .unwrap();
            assert!(back == want, "page {second}: flushed pages survive");
        }
    }

    #[test]
    fn truncated_image_is_rejected_not_half_restored() {
        let (mut net, mut fs) = setup(3);
        let (mut s, t) = space(&mut fs, &mut net, "c4");
        let t = s
            .write(
                &mut fs,
                &mut net,
                t,
                h(1),
                VirtAddr::new(SegmentKind::Heap, 0),
                &[7u8; 4096],
            )
            .unwrap();
        // Hand-write a trailerless image: the index names one page, then
        // the page, then... nothing (the checkpointing host died).
        let path = SpritePath::new("/ckpt/c4.img");
        fs.create(&mut net, t, h(1), path.clone()).unwrap();
        let (st, t1) = fs
            .open(&mut net, t, h(1), path.clone(), OpenMode::Write)
            .unwrap();
        let page = CkptPage {
            segment: SegmentKind::Heap,
            page: 0,
            data: Frame::from([7u8; PAGE_SIZE as usize]),
        };
        let index = Frame::from(index(std::slice::from_ref(&page), 1, 32, 8));
        let t1 = fs
            .ckpt_write_blocks(&mut net, t1, h(1), st, &[index, page.data])
            .unwrap();
        let t1 = fs.close(&mut net, t1, h(1), st).unwrap();
        let (prog2, t2) = fs
            .create(&mut net, t1, h(2), SpritePath::new("/bin/c4r"))
            .unwrap();
        let mut fresh = AddressSpace::create("c4r", prog2, 4, 32, 8);
        let err = restore(&mut fresh, &mut fs, &mut net, t2, h(2), &path).unwrap_err();
        assert!(
            matches!(err, CkptError::Corrupt { .. }),
            "trailerless image must be discarded, got {err:?}"
        );
        let _ = s;
    }

    #[test]
    fn image_routes_through_the_shard_group() {
        // With a striped root, differently-named images land on different
        // server daemons — and restore finds them by the same hash.
        let (mut net, mut fs) = sharded_setup(6, 3);
        let mut owners = std::collections::BTreeSet::new();
        let mut t = SimTime::ZERO;
        for i in 0..6 {
            let path = SpritePath::new(format!("/ckpt/route{i}.img"));
            let (prog, t1) = fs
                .create(&mut net, t, h(3), SpritePath::new(format!("/bin/r{i}")))
                .unwrap();
            let mut s = AddressSpace::create(&format!("r{i}"), prog, 4, 8, 4);
            let t1 = s
                .write(
                    &mut fs,
                    &mut net,
                    t1,
                    h(3),
                    VirtAddr::new(SegmentKind::Heap, 0),
                    &[i as u8; 64],
                )
                .unwrap();
            let (_, rep) = checkpoint(
                &mut s,
                CkptStrategy::FullImage,
                &mut fs,
                &mut net,
                t1,
                h(3),
                path.clone(),
            )
            .unwrap();
            owners.insert(fs.resolve(&path).unwrap());
            let (prog2, t2) = fs
                .create(
                    &mut net,
                    rep.completed_at,
                    h(4),
                    SpritePath::new(format!("/bin/rr{i}")),
                )
                .unwrap();
            let mut fresh = AddressSpace::create(&format!("rr{i}"), prog2, 4, 8, 4);
            let rr = restore(&mut fresh, &mut fs, &mut net, t2, h(4), &path).unwrap();
            let (back, _) = fresh
                .read(
                    &mut fs,
                    &mut net,
                    rr.resumed_at,
                    h(4),
                    VirtAddr::new(SegmentKind::Heap, 0),
                    64,
                )
                .unwrap();
            assert_eq!(back, vec![i as u8; 64]);
            t = rr.resumed_at;
        }
        assert!(
            owners.len() > 1,
            "six image names should spread across the striped group, got {owners:?}"
        );
    }
}
