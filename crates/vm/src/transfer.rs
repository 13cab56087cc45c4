//! Virtual-memory transfer strategies for process migration.
//!
//! "Virtual memory transfer is the aspect of migration that has been
//! discussed the most in the literature, perhaps because it is believed to
//! be the limiting factor in the speed of migration" \[Zay87b\]. The thesis
//! (Ch. 4.2.1) compares four designs, all implemented here against the same
//! simulated substrate so their freeze-time/total-work trade-offs can be
//! measured head-to-head (experiment E2):
//!
//! * **full copy** — Charlotte \[AF89\] / LOCUS \[PW85\]: freeze, ship the whole
//!   resident image, resume. Simple; freeze time grows linearly with size.
//! * **pre-copy** — V [The86, TLC85]: copy while the process keeps running,
//!   then re-copy what it dirtied, rounds shrinking until a short final
//!   freeze. Small freeze, but pages can cross the wire several times.
//! * **copy-on-reference** — Accent [Zay87a, Zay87b]: freeze only to move
//!   page tables; pages stay on the source and are fetched as referenced.
//!   Tiny freeze, but a *residual dependency*: if the source dies, the
//!   process dies with it.
//! * **Sprite's flush** — write dirty pages to the shared backing file and
//!   let the target demand-page from the file server. Freeze time scales
//!   with *dirty* pages only, and the only residual dependency is on the
//!   file server — which the process depends on anyway.

use sprite_fs::{FsResult, SpriteFs};
use sprite_net::{HostId, RpcOp, Transport, PAGE_SIZE};
use sprite_sim::{SimDuration, SimTime};

use crate::space::AddressSpace;

/// Which VM transfer design to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmStrategy {
    /// Monolithic whole-image copy at migration time.
    FullCopy,
    /// V-style iterative pre-copy while the process runs.
    PreCopy,
    /// Accent-style lazy copy-on-reference.
    CopyOnReference,
    /// Sprite's flush-to-backing-file + demand paging.
    SpriteFlush,
}

impl VmStrategy {
    /// All strategies, in the order the paper discusses them.
    pub const ALL: [VmStrategy; 4] = [
        VmStrategy::FullCopy,
        VmStrategy::PreCopy,
        VmStrategy::CopyOnReference,
        VmStrategy::SpriteFlush,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            VmStrategy::FullCopy => "full-copy",
            VmStrategy::PreCopy => "pre-copy",
            VmStrategy::CopyOnReference => "copy-on-ref",
            VmStrategy::SpriteFlush => "sprite-flush",
        }
    }
}

impl std::fmt::Display for VmStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Workload assumptions a transfer needs (how fast the program dirties
/// memory during pre-copy rounds).
#[derive(Debug, Clone, Copy)]
pub struct TransferParams {
    /// Pages the running process dirties per second (drives pre-copy
    /// convergence).
    pub dirty_rate_pages_per_sec: f64,
    /// Pre-copy stops iterating when a round would move at most this many
    /// pages, and freezes for a final round instead.
    pub precopy_threshold_pages: u64,
    /// Safety cap on pre-copy rounds (V used a small number in practice).
    pub precopy_max_rounds: u32,
}

impl Default for TransferParams {
    fn default() -> Self {
        TransferParams {
            // Well below the wire's ~120 pages/s so pre-copy rounds shrink;
            // V's measurements assumed the same balance.
            dirty_rate_pages_per_sec: 20.0,
            precopy_threshold_pages: 16,
            precopy_max_rounds: 8,
        }
    }
}

/// What a VM transfer cost.
#[derive(Debug, Clone, Copy)]
pub struct TransferReport {
    /// Strategy used.
    pub strategy: VmStrategy,
    /// Time the process was frozen (unable to run anywhere).
    pub freeze_time: SimDuration,
    /// Wall-clock span of the whole transfer including pre-copy rounds.
    pub total_time: SimDuration,
    /// Bytes that crossed the network during the transfer itself (excludes
    /// later demand paging).
    pub bytes_moved: u64,
    /// Pages moved, counting repeats (pre-copy can move a page twice).
    pub pages_moved: u64,
    /// True if the process still depends on the *source host* after
    /// migration (copy-on-reference leaves pages there).
    pub residual_source_dependency: bool,
    /// Completion time: when the process may run on the target.
    pub resumed_at: SimTime,
}

/// Transfers `space` from `from` to `to` using `strategy`.
///
/// On return the address space's pages are in the state the strategy leaves
/// them: resident at the target (full/pre-copy), owed by the source
/// (copy-on-reference) or owed by the backing file (Sprite flush). Later
/// demand paging is charged when the process touches memory.
///
/// # Errors
///
/// Propagates file-system errors from flushing and transport failures from
/// the bulk image transfer; a failed transfer leaves every page where it
/// was, so the caller can abort the migration cleanly.
#[expect(clippy::too_many_arguments)]
pub fn transfer(
    space: &mut AddressSpace,
    strategy: VmStrategy,
    fs: &mut SpriteFs,
    net: &mut Transport,
    now: SimTime,
    from: HostId,
    to: HostId,
    params: &TransferParams,
) -> FsResult<TransferReport> {
    match strategy {
        VmStrategy::FullCopy => full_copy(space, fs, net, now, from, to),
        VmStrategy::PreCopy => pre_copy(space, fs, net, now, from, to, params),
        VmStrategy::CopyOnReference => copy_on_reference(space, net, now, from, to),
        VmStrategy::SpriteFlush => sprite_flush(space, fs, net, now, from, to),
    }
}

fn page_table_bytes(space: &AddressSpace) -> u64 {
    // 8 bytes of mapping state per page, as in the Accent measurements.
    space.total_pages() * 8
}

fn full_copy(
    space: &mut AddressSpace,
    fs: &mut SpriteFs,
    net: &mut Transport,
    now: SimTime,
    from: HostId,
    to: HostId,
) -> FsResult<TransferReport> {
    let _ = fs;
    let pages = space.resident_pages();
    let bytes = pages * PAGE_SIZE + page_table_bytes(space);
    let copy_cpu = net.cost().copy_time(pages * PAGE_SIZE);
    let done = net
        .stream_bulk(RpcOp::VmBulkImage, now + copy_cpu, from, to, bytes)?
        .done;
    // Pages are now resident on the target; the in-memory representation
    // already holds the bytes, so only the location bookkeeping changes.
    let elapsed = done.elapsed_since(now);
    Ok(TransferReport {
        strategy: VmStrategy::FullCopy,
        freeze_time: elapsed,
        total_time: elapsed,
        bytes_moved: bytes,
        pages_moved: pages,
        residual_source_dependency: false,
        resumed_at: done,
    })
}

fn pre_copy(
    space: &mut AddressSpace,
    fs: &mut SpriteFs,
    net: &mut Transport,
    now: SimTime,
    from: HostId,
    to: HostId,
    params: &TransferParams,
) -> FsResult<TransferReport> {
    let _ = fs;
    let mut to_move = space.resident_pages();
    let mut pages_moved = 0u64;
    let mut bytes_moved = 0u64;
    let mut t = now;
    let mut rounds = 0u32;
    // Running rounds: the process executes on the source while pages cross.
    while to_move > params.precopy_threshold_pages && rounds < params.precopy_max_rounds {
        let bytes = to_move * PAGE_SIZE;
        let copy_cpu = net.cost().copy_time(bytes);
        let done = net
            .stream_bulk(RpcOp::VmBulkImage, t + copy_cpu, from, to, bytes)?
            .done;
        let round_time = done.elapsed_since(t);
        pages_moved += to_move;
        bytes_moved += bytes;
        // While that round ran, the process dirtied more pages (capped at
        // the resident set: re-dirtying the same page doesn't grow the set).
        let dirtied = (params.dirty_rate_pages_per_sec * round_time.as_secs_f64()).ceil() as u64;
        to_move = dirtied.min(space.resident_pages());
        t = done;
        rounds += 1;
    }
    // Final frozen round.
    let bytes = to_move * PAGE_SIZE + page_table_bytes(space);
    let copy_cpu = net.cost().copy_time(to_move * PAGE_SIZE);
    let done = net
        .stream_bulk(RpcOp::VmBulkImage, t + copy_cpu, from, to, bytes)?
        .done;
    pages_moved += to_move;
    bytes_moved += bytes;
    let freeze = done.elapsed_since(t);
    Ok(TransferReport {
        strategy: VmStrategy::PreCopy,
        freeze_time: freeze,
        total_time: done.elapsed_since(now),
        bytes_moved,
        pages_moved,
        residual_source_dependency: false,
        resumed_at: done,
    })
}

fn copy_on_reference(
    space: &mut AddressSpace,
    net: &mut Transport,
    now: SimTime,
    from: HostId,
    to: HostId,
) -> FsResult<TransferReport> {
    // Freeze: ship page tables only; every resident page stays behind.
    // A failed transfer returns before any bookkeeping moves, so the
    // process is still fully resident at the source.
    let bytes = page_table_bytes(space);
    let done = net
        .stream_bulk(RpcOp::VmBulkImage, now, from, to, bytes)?
        .done;
    space.leave_at_source(from);
    let freeze = done.elapsed_since(now);
    Ok(TransferReport {
        strategy: VmStrategy::CopyOnReference,
        freeze_time: freeze,
        total_time: freeze,
        bytes_moved: bytes,
        pages_moved: 0,
        residual_source_dependency: true,
        resumed_at: done,
    })
}

fn sprite_flush(
    space: &mut AddressSpace,
    fs: &mut SpriteFs,
    net: &mut Transport,
    now: SimTime,
    from: HostId,
    _to: HostId,
) -> FsResult<TransferReport> {
    let dirty = space.dirty_pages();
    let bytes = dirty * PAGE_SIZE + page_table_bytes(space);
    let t = space.flush_dirty(fs, net, now, from)?;
    space.drop_residency();
    let freeze = t.elapsed_since(now);
    Ok(TransferReport {
        strategy: VmStrategy::SpriteFlush,
        freeze_time: freeze,
        total_time: freeze,
        bytes_moved: bytes,
        pages_moved: dirty,
        residual_source_dependency: false,
        resumed_at: t,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{SegmentKind, VirtAddr};
    use sprite_fs::{FsConfig, SpritePath};
    use sprite_net::CostModel;

    fn setup() -> (Transport, SpriteFs) {
        let net = Transport::new(CostModel::sun3(), 3);
        let mut fs = SpriteFs::new(FsConfig::default(), 3);
        fs.add_server(HostId::new(0), SpritePath::new("/"));
        (net, fs)
    }

    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    /// An address space with `touched` heap pages resident and dirty.
    fn dirty_space(
        fs: &mut SpriteFs,
        net: &mut Transport,
        tag: &str,
        touched: u64,
    ) -> (AddressSpace, SimTime) {
        let (prog, t) = fs
            .create(
                net,
                SimTime::ZERO,
                h(1),
                SpritePath::new(format!("/bin/{tag}")),
            )
            .unwrap();
        let mut s = AddressSpace::create(tag, prog, 4, touched.max(1), 4);
        let data = vec![0x5a; (touched * PAGE_SIZE) as usize];
        let t = s
            .write(fs, net, t, h(1), VirtAddr::new(SegmentKind::Heap, 0), &data)
            .unwrap();
        (s, t)
    }

    #[test]
    fn sprite_flush_over_striped_backing_spreads_paging() {
        // A two-member group exports "/": the flush's page_out traffic
        // stripes across both servers instead of saturating one.
        let mut net = Transport::new(CostModel::sun3(), 4);
        let mut fs = SpriteFs::new(FsConfig::default(), 4);
        fs.add_server(h(0), SpritePath::new("/"));
        fs.add_server(h(3), SpritePath::new("/"));
        let (mut s, t) = dirty_space(&mut fs, &mut net, "stripe", 64);
        let r = transfer(
            &mut s,
            VmStrategy::SpriteFlush,
            &mut fs,
            &mut net,
            t,
            h(1),
            h(2),
            &TransferParams::default(),
        )
        .unwrap();
        assert!(!r.residual_source_dependency);
        assert!(r.pages_moved > 0);
        assert!(
            fs.server(h(0)).unwrap().cpu.busy_time() > SimDuration::ZERO,
            "member 0 served part of the paging load"
        );
        assert!(
            fs.server(h(3)).unwrap().cpu.busy_time() > SimDuration::ZERO,
            "member 3 served part of the paging load"
        );
    }

    #[test]
    fn full_copy_freeze_scales_with_size() {
        let (mut net, mut fs) = setup();
        let (mut small, t1) = dirty_space(&mut fs, &mut net, "s", 16);
        let r1 = transfer(
            &mut small,
            VmStrategy::FullCopy,
            &mut fs,
            &mut net,
            t1,
            h(1),
            h(2),
            &TransferParams::default(),
        )
        .unwrap();
        let (mut net2, mut fs2) = setup();
        let (mut big, t2) = dirty_space(&mut fs2, &mut net2, "b", 256);
        let r2 = transfer(
            &mut big,
            VmStrategy::FullCopy,
            &mut fs2,
            &mut net2,
            t2,
            h(1),
            h(2),
            &TransferParams::default(),
        )
        .unwrap();
        let ratio = r2.freeze_time.as_secs_f64() / r1.freeze_time.as_secs_f64();
        assert!(ratio > 8.0, "expected near-linear scaling, got {ratio}");
        assert_eq!(r1.freeze_time, r1.total_time);
    }

    #[test]
    fn precopy_freezes_less_but_moves_more() {
        let (mut net, mut fs) = setup();
        let (mut a, t) = dirty_space(&mut fs, &mut net, "a", 512);
        let full = transfer(
            &mut a.clone(),
            VmStrategy::FullCopy,
            &mut fs,
            &mut net,
            t,
            h(1),
            h(2),
            &TransferParams::default(),
        )
        .unwrap();
        let (mut net2, mut fs2) = setup();
        let pre = transfer(
            &mut a,
            VmStrategy::PreCopy,
            &mut fs2,
            &mut net2,
            t,
            h(1),
            h(2),
            &TransferParams::default(),
        )
        .unwrap();
        assert!(
            pre.freeze_time < full.freeze_time / 4,
            "pre-copy freeze {} should be far below full-copy {}",
            pre.freeze_time,
            full.freeze_time
        );
        assert!(pre.pages_moved >= 512, "some pages cross more than once");
        assert!(pre.total_time >= full.total_time);
    }

    #[test]
    fn copy_on_reference_has_tiny_freeze_and_residual_dependency() {
        let (mut net, mut fs) = setup();
        let (mut a, t) = dirty_space(&mut fs, &mut net, "c", 512);
        let r = transfer(
            &mut a,
            VmStrategy::CopyOnReference,
            &mut fs,
            &mut net,
            t,
            h(1),
            h(2),
            &TransferParams::default(),
        )
        .unwrap();
        assert!(r.freeze_time < SimDuration::from_millis(50));
        assert!(r.residual_source_dependency);
        assert_eq!(a.pages_at_remote_source(), 512);
        // Touching memory on the target fetches from the source.
        let (data, _) = a
            .read(
                &mut fs,
                &mut net,
                r.resumed_at,
                h(2),
                VirtAddr::new(SegmentKind::Heap, 0),
                8,
            )
            .unwrap();
        assert_eq!(data, vec![0x5a; 8]);
        assert_eq!(a.stats().remote_fetches, 1);
    }

    #[test]
    fn sprite_flush_scales_with_dirty_pages_only() {
        let (mut net, mut fs) = setup();
        // 256 resident pages but only a few dirty: read-mostly process.
        let (mut a, t) = dirty_space(&mut fs, &mut net, "f", 256);
        let t = a.flush_dirty(&mut fs, &mut net, t, h(1)).unwrap(); // clean all
                                                                    // Re-dirty just 4 pages.
        let t = a
            .write(
                &mut fs,
                &mut net,
                t,
                h(1),
                VirtAddr::new(SegmentKind::Heap, 0),
                &vec![1u8; 4 * PAGE_SIZE as usize],
            )
            .unwrap();
        let r = transfer(
            &mut a,
            VmStrategy::SpriteFlush,
            &mut fs,
            &mut net,
            t,
            h(1),
            h(2),
            &TransferParams::default(),
        )
        .unwrap();
        assert_eq!(r.pages_moved, 4);
        assert!(!r.residual_source_dependency);
        assert_eq!(a.resident_pages(), 0);
        // The full 256-page image demand-pages back byte-identically.
        let (data, _) = a
            .read(
                &mut fs,
                &mut net,
                r.resumed_at,
                h(2),
                VirtAddr::new(SegmentKind::Heap, 0),
                4 * PAGE_SIZE,
            )
            .unwrap();
        assert_eq!(data, vec![1u8; 4 * PAGE_SIZE as usize]);
    }

    #[test]
    fn sprite_flush_preserves_full_image_across_hosts() {
        let (mut net, mut fs) = setup();
        let (prog, t) = fs
            .create(&mut net, SimTime::ZERO, h(1), SpritePath::new("/bin/img"))
            .unwrap();
        let mut a = AddressSpace::create("img", prog, 2, 64, 8);
        let pattern: Vec<u8> = (0..64 * PAGE_SIZE).map(|i| (i * 7 % 253) as u8).collect();
        let t = a
            .write(
                &mut fs,
                &mut net,
                t,
                h(1),
                VirtAddr::new(SegmentKind::Heap, 0),
                &pattern,
            )
            .unwrap();
        let r = transfer(
            &mut a,
            VmStrategy::SpriteFlush,
            &mut fs,
            &mut net,
            t,
            h(1),
            h(2),
            &TransferParams::default(),
        )
        .unwrap();
        let (back, _) = a
            .read(
                &mut fs,
                &mut net,
                r.resumed_at,
                h(2),
                VirtAddr::new(SegmentKind::Heap, 0),
                pattern.len() as u64,
            )
            .unwrap();
        assert_eq!(back, pattern, "memory image survives migration bit for bit");
    }

    #[test]
    fn strategy_labels_are_distinct() {
        let labels: sprite_sim::DetHashSet<_> = VmStrategy::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
