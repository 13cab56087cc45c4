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
//! typed as [`RpcOp::CkptWrite`]/[`RpcOp::CkptRestore`] so `--rpc-table`
//! accounts for it separately from regular file I/O.
//!
//! The image is self-contained *in the simulated file system*: real bytes
//! with a header, per-page records and a trailer, so a restore can detect
//! a checkpoint that died mid-write (missing trailer, short record) and
//! cleanly discard it — the property the chaos suite gates on.
//!
//! [`VmStrategy`]: crate::VmStrategy
//! [`transfer`]: crate::transfer
//! [`RpcOp::CkptWrite`]: sprite_net::RpcOp::CkptWrite
//! [`RpcOp::CkptRestore`]: sprite_net::RpcOp::CkptRestore

use std::fmt;

use sprite_fs::{FsError, OpenMode, SpriteFs, SpritePath};
use sprite_net::{HostId, Transport, PAGE_SIZE};
use sprite_sim::{SimDuration, SimTime};

use crate::space::{AddressSpace, SegmentKind};

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
/// kernel record.
pub const CKPT_HEADER_BYTES: u64 = 4 + 4 + 8 + 8 + CKPT_KERNEL_RECORD_BYTES;

/// Per-page record length: segment tag + page index + the page bytes.
const RECORD_BYTES: u64 = 1 + 8 + PAGE_SIZE;

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
    /// Page records in the image.
    pub pages: u64,
    /// Total image length in bytes (header + records + trailer).
    pub image_bytes: u64,
    /// When the checkpoint froze the process.
    pub taken_at: SimTime,
}

/// What one checkpoint cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptReport {
    /// The strategy used.
    pub strategy: CkptStrategy,
    /// Page records written.
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
    /// Page records restored into the fresh space.
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
    let (stream, t) = fs.open(net, t, host, path.clone(), OpenMode::Write)?;
    let mut header = Vec::with_capacity(CKPT_HEADER_BYTES as usize);
    header.extend_from_slice(&HEADER_MAGIC);
    header.extend_from_slice(&(pages.len() as u32).to_le_bytes());
    header.extend_from_slice(&space.segment(SegmentKind::Heap).page_count().to_le_bytes());
    header.extend_from_slice(&space.segment(SegmentKind::Stack).page_count().to_le_bytes());
    header.resize(CKPT_HEADER_BYTES as usize, 0);
    let mut t = fs.ckpt_write(net, t, host, stream, &header)?;
    let mut record = Vec::with_capacity(RECORD_BYTES as usize);
    for p in &pages {
        record.clear();
        record.push(seg_tag(p.segment));
        record.extend_from_slice(&p.page.to_le_bytes());
        record.extend_from_slice(&p.data);
        t = fs.ckpt_write(net, t, host, stream, &record)?;
    }
    t = fs.ckpt_write(net, t, host, stream, &TRAILER_MAGIC)?;
    let t = fs.close(net, t, host, stream)?;
    let image_bytes = CKPT_HEADER_BYTES + pages.len() as u64 * RECORD_BYTES + 4;
    let image = CkptImage {
        path,
        heap_pages: space.segment(SegmentKind::Heap).page_count(),
        stack_pages: space.segment(SegmentKind::Stack).page_count(),
        pages: pages.len() as u64,
        image_bytes,
        taken_at: now,
    };
    let report = CkptReport {
        strategy,
        pages_written: pages.len() as u64,
        image_bytes,
        freeze_time: t.elapsed_since(now),
        completed_at: t,
    };
    Ok((image, report))
}

/// Restores a checkpoint image from `path` into `space` — a *fresh*
/// address space on the restart host (spawned with the same program and
/// segment sizes, per the image header).
///
/// Opening `path` routes through the namespace's `ShardGroup` exactly like
/// any other open: restart-elsewhere needs no knowledge of which server
/// daemon holds the image. Every record is validated (magic, segment tag,
/// page range) and the trailer must be present; any mismatch returns
/// [`CkptError::Corrupt`].
///
/// # Errors
///
/// On *any* error, `space` may hold a partial restore — the caller must
/// discard the process rather than run it. The image file itself is never
/// modified by a failed restore, so a transient failure (partition) can
/// be retried once the network heals.
pub fn restore(
    space: &mut AddressSpace,
    fs: &mut SpriteFs,
    net: &mut Transport,
    now: SimTime,
    host: HostId,
    path: &SpritePath,
) -> CkptResult<RestoreReport> {
    let (stream, t) = fs.open(net, now, host, path.clone(), OpenMode::Read)?;
    let (header, mut t) = fs.ckpt_read(net, t, host, stream, CKPT_HEADER_BYTES)?;
    if header.len() < CKPT_HEADER_BYTES as usize {
        let _ = fs.close(net, t, host, stream);
        return Err(CkptError::Corrupt {
            detail: "short header",
        });
    }
    if header[0..4] != HEADER_MAGIC {
        let _ = fs.close(net, t, host, stream);
        return Err(CkptError::Corrupt {
            detail: "bad header magic",
        });
    }
    let count = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as u64;
    let heap_pages = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let stack_pages = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    if heap_pages != space.segment(SegmentKind::Heap).page_count()
        || stack_pages != space.segment(SegmentKind::Stack).page_count()
    {
        let _ = fs.close(net, t, host, stream);
        return Err(CkptError::Corrupt {
            detail: "segment sizes do not match the restart space",
        });
    }
    let mut restored = 0u64;
    for _ in 0..count {
        let (record, t1) = fs.ckpt_read(net, t, host, stream, RECORD_BYTES)?;
        t = t1;
        if record.len() < RECORD_BYTES as usize {
            let _ = fs.close(net, t, host, stream);
            return Err(CkptError::Corrupt {
                detail: "truncated page record",
            });
        }
        let (segment, limit) = match record[0] {
            1 => (SegmentKind::Heap, heap_pages),
            2 => (SegmentKind::Stack, stack_pages),
            _ => {
                let _ = fs.close(net, t, host, stream);
                return Err(CkptError::Corrupt {
                    detail: "bad segment tag",
                });
            }
        };
        let page = u64::from_le_bytes(record[1..9].try_into().expect("8 bytes"));
        if page >= limit {
            let _ = fs.close(net, t, host, stream);
            return Err(CkptError::Corrupt {
                detail: "page index out of range",
            });
        }
        let addr = crate::VirtAddr::new(segment, page * PAGE_SIZE);
        t = space.write(fs, net, t, host, addr, &record[9..])?;
        restored += 1;
    }
    let (trailer, t1) = fs.ckpt_read(net, t, host, stream, 4)?;
    t = t1;
    if trailer != TRAILER_MAGIC {
        let _ = fs.close(net, t, host, stream);
        return Err(CkptError::Corrupt {
            detail: "missing trailer (checkpoint died mid-write)",
        });
    }
    let t = fs.close(net, t, host, stream)?;
    Ok(RestoreReport {
        pages_restored: restored,
        image_bytes: CKPT_HEADER_BYTES + count * RECORD_BYTES + 4,
        total_time: t.elapsed_since(now),
        resumed_at: t,
    })
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
        AddressSpace::create(fs, net, t, h(1), tag, prog, 4, 32, 8).unwrap()
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
            let (mut fresh, t2) =
                AddressSpace::create(&mut fs, &mut net, t2, h(2), "c1r", prog2, 4, 32, 8).unwrap();
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

    #[test]
    fn checkpoint_traffic_is_typed() {
        let (mut net, mut fs) = setup(3);
        let (mut s, t) = space(&mut fs, &mut net, "c2");
        let t = s
            .write(
                &mut fs,
                &mut net,
                t,
                h(1),
                VirtAddr::new(SegmentKind::Heap, 0),
                &[9u8; 4096],
            )
            .unwrap();
        let path = SpritePath::new("/ckpt/c2.img");
        let (_, rep) = checkpoint(
            &mut s,
            CkptStrategy::DirtyOnly,
            &mut fs,
            &mut net,
            t,
            h(1),
            path.clone(),
        )
        .unwrap();
        let writes = net.rpc_table().get(RpcOp::CkptWrite).calls;
        assert!(writes >= 3, "header + record + trailer, got {writes}");
        let (prog2, t2) = fs
            .create(
                &mut net,
                rep.completed_at,
                h(2),
                SpritePath::new("/bin/c2r"),
            )
            .unwrap();
        let (mut fresh, t2) =
            AddressSpace::create(&mut fs, &mut net, t2, h(2), "c2r", prog2, 4, 32, 8).unwrap();
        restore(&mut fresh, &mut fs, &mut net, t2, h(2), &path).unwrap();
        assert!(net.rpc_table().get(RpcOp::CkptRestore).calls >= 3);
        assert_eq!(
            net.rpc_table().total_bytes(),
            net.stats().bytes,
            "typed totals must still equal raw wire counters"
        );
    }

    #[test]
    fn dirty_only_widens_after_a_flush() {
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
        // Dirty one more page; a literal dirty-only image would lose the
        // first two.
        let b = VirtAddr::new(SegmentKind::Heap, 2 * PAGE_SIZE);
        let t = s.write(&mut fs, &mut net, t, h(1), b, &[5u8; 100]).unwrap();
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
        assert_eq!(image.pages, 3, "snapshot widened to the full image");
        let (prog2, t2) = fs
            .create(&mut net, t, h(2), SpritePath::new("/bin/c3r"))
            .unwrap();
        let (mut fresh, t2) =
            AddressSpace::create(&mut fs, &mut net, t2, h(2), "c3r", prog2, 4, 32, 8).unwrap();
        restore(&mut fresh, &mut fs, &mut net, t2, h(2), &path).unwrap();
        let (back, _) = fresh.read(&mut fs, &mut net, t2, h(2), a, 8192).unwrap();
        assert_eq!(back, vec![3u8; 8192], "flushed pages survived via widening");
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
        // Hand-write a trailerless image: header claims one record, then
        // the record, then... nothing (the checkpointing host died).
        let path = SpritePath::new("/ckpt/c4.img");
        fs.create(&mut net, t, h(1), path.clone()).unwrap();
        let (st, t1) = fs
            .open(&mut net, t, h(1), path.clone(), OpenMode::Write)
            .unwrap();
        let mut partial = Vec::new();
        partial.extend_from_slice(&HEADER_MAGIC);
        partial.extend_from_slice(&1u32.to_le_bytes());
        partial.extend_from_slice(&32u64.to_le_bytes());
        partial.extend_from_slice(&8u64.to_le_bytes());
        partial.resize(CKPT_HEADER_BYTES as usize, 0);
        partial.push(1);
        partial.extend_from_slice(&0u64.to_le_bytes());
        partial.extend_from_slice(&vec![7u8; PAGE_SIZE as usize]);
        let t1 = fs.ckpt_write(&mut net, t1, h(1), st, &partial).unwrap();
        let t1 = fs.close(&mut net, t1, h(1), st).unwrap();
        let (prog2, t2) = fs
            .create(&mut net, t1, h(2), SpritePath::new("/bin/c4r"))
            .unwrap();
        let (mut fresh, t2) =
            AddressSpace::create(&mut fs, &mut net, t2, h(2), "c4r", prog2, 4, 32, 8).unwrap();
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
            let (mut s, t1) =
                AddressSpace::create(&mut fs, &mut net, t1, h(3), &format!("r{i}"), prog, 4, 8, 4)
                    .unwrap();
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
            let (mut fresh, t2) = AddressSpace::create(
                &mut fs,
                &mut net,
                t2,
                h(4),
                &format!("rr{i}"),
                prog2,
                4,
                8,
                4,
            )
            .unwrap();
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
