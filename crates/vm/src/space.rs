//! Address spaces, segments and demand paging.
//!
//! A Sprite process has three segments — code, heap and stack. Code is
//! read-only and demand-paged from the executable file itself; heap and
//! stack page to *backing files* in the shared file system. "Paging via the
//! file system simplifies migration because the functionality to demand-page
//! a process over the network already exists" (Ch. 3.2) — Sprite's whole VM
//! transfer strategy falls out of this design, and so does ours.
//!
//! A heap or stack segment's backing file lives exactly as long as the
//! pages it holds, as in Sprite's VM: creating an address space touches no
//! file, [`AddressSpace::flush_dirty`] (the only page-out) creates the
//! segment's `/swap/<tag>.heap` or `/swap/<tag>.stack` file just before the
//! segment's first page-out, and the kernel unlinks the files a space
//! created when it frees the space ([`AddressSpace::swap_files`]). A
//! process that never pages out never costs its file server a lookup.
//!
//! Pages hold real bytes. Migration, flushing and demand paging move those
//! bytes through the simulated file system, so tests can check that a
//! process observes byte-identical memory before and after any sequence of
//! migrations. A page is *clean* only when its bytes are in the backing
//! file or it is a zero page; every other page is dirty, wherever it is —
//! resident, or left behind on a copy-on-reference source. So a clean page
//! in a segment that has no backing file yet is a zero page, and dropping
//! its residency makes it zero-fill rather than page-in.
//!
//! Paging moves runs both ways: a flush writes the consecutive dirty pages
//! of one stripe unit in one page-out, and a fault that pages in from the
//! backing file reads the rest of its stripe unit that lives only in the
//! file in the same round trip ([`AddressSpace::flush_dirty`]).
//!
//! A resident page is a shared, copy-on-write [`Frame`]. Flushing a page
//! hands its frame to the backing file, a page-in takes the file's frames
//! back, and a forked child and a checkpoint snapshot share the frames
//! they copy; each moves a reference, not the page's bytes, and the
//! simulated costs are charged exactly as if the bytes moved. A write to a
//! frame some other holder still shares copies it first, so no holder ever
//! sees another's writes.

use std::fmt;
use std::sync::Arc;

use sprite_fs::{FileId, Frame, FsResult, SpriteFs, SpritePath};
use sprite_net::{HostId, RpcOp, Transport, PAGE_SIZE};
use sprite_sim::SimTime;

/// The three segments of a Sprite process image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentKind {
    /// Read-only program text, paged from the executable file.
    Code,
    /// The data/heap segment.
    Heap,
    /// The stack segment.
    Stack,
}

impl SegmentKind {
    /// All segment kinds, in layout order.
    pub const ALL: [SegmentKind; 3] = [SegmentKind::Code, SegmentKind::Heap, SegmentKind::Stack];

    /// Code pages are never dirty; they can always be re-fetched from the
    /// executable file.
    pub fn writable(self) -> bool {
        !matches!(self, SegmentKind::Code)
    }
}

impl fmt::Display for SegmentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SegmentKind::Code => "code",
            SegmentKind::Heap => "heap",
            SegmentKind::Stack => "stack",
        };
        f.write_str(s)
    }
}

/// A segment-relative virtual address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtAddr {
    /// Which segment.
    pub segment: SegmentKind,
    /// Byte offset within the segment.
    pub offset: u64,
}

impl VirtAddr {
    /// Convenience constructor.
    pub fn new(segment: SegmentKind, offset: u64) -> Self {
        VirtAddr { segment, offset }
    }
}

/// Where a non-resident page's current bytes live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageHome {
    /// In this address space's `frame` (page is resident in local memory).
    Resident,
    /// In the segment's backing file on a file server.
    BackingFile,
    /// Still in memory on a previous host (copy-on-reference migration).
    RemoteSource(HostId),
    /// Never touched: reads fault in a zero page without I/O cost beyond
    /// the fault itself.
    Zero,
}

#[derive(Debug, Clone)]
struct PageState {
    home: PageHome,
    /// The page's bytes are neither in the backing file nor a zero page.
    /// A page left on a copy-on-reference source keeps its flag, so the
    /// fetch that brings it back does not make it clean.
    dirty: bool,
    /// The page's bytes (`PAGE_SIZE` long) while resident, and while left
    /// behind on a copy-on-reference source.
    frame: Option<Frame>,
}

impl PageState {
    fn zero() -> Self {
        PageState {
            home: PageHome::Zero,
            dirty: false,
            frame: None,
        }
    }

    /// The resident page's bytes.
    fn bytes(&self) -> &Frame {
        self.frame.as_ref().expect("resident page has a frame")
    }
}

/// A fresh zero-filled page.
fn zero_frame() -> Frame {
    static ZEROS: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];
    Frame::from(&ZEROS[..])
}

/// One segment's pages plus its backing file.
#[derive(Debug, Clone)]
pub struct Segment {
    kind: SegmentKind,
    /// The executable for code; for heap and stack, the swap file created
    /// at the segment's first page-out, `None` until then.
    backing: Option<FileId>,
    pages: Vec<PageState>,
}

impl Segment {
    /// Which segment this is.
    pub fn kind(&self) -> SegmentKind {
        self.kind
    }

    /// Number of pages in the segment.
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Pages currently resident in memory.
    pub fn resident_pages(&self) -> u64 {
        self.pages
            .iter()
            .filter(|p| p.home == PageHome::Resident)
            .count() as u64
    }

    /// Pages whose bytes are not yet in the backing file: resident pages
    /// written since their last page-out, and such pages still owed by a
    /// copy-on-reference source.
    pub fn dirty_pages(&self) -> u64 {
        self.pages.iter().filter(|p| p.dirty).count() as u64
    }

    /// The backing file: the executable for code, and for heap and stack
    /// the swap file, which exists only once the segment has paged out.
    pub fn backing(&self) -> Option<FileId> {
        self.backing
    }
}

/// One page captured by a checkpoint snapshot: where it lives in the
/// address space and the bytes it held at freeze time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptPage {
    /// Which segment the page belongs to.
    pub segment: SegmentKind,
    /// Page index within the segment.
    pub page: u64,
    /// The page's bytes (always `PAGE_SIZE` long), shared with the
    /// address space until either side writes.
    pub data: Frame,
}

/// Statistics for one address space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Page faults taken.
    pub faults: u64,
    /// Pages read in from a backing file: each such fault reads a run of
    /// one or more.
    pub pageins: u64,
    /// Faults satisfied from a remote source host (copy-on-reference).
    pub remote_fetches: u64,
    /// Dirty pages written to backing files.
    pub pageouts: u64,
}

/// A process's virtual memory image.
///
/// # Examples
///
/// ```
/// use sprite_fs::{FsConfig, SpriteFs, SpritePath};
/// use sprite_net::{CostModel, HostId, Transport};
/// use sprite_sim::SimTime;
/// use sprite_vm::{AddressSpace, SegmentKind, VirtAddr};
///
/// # fn main() -> Result<(), sprite_fs::FsError> {
/// let mut net = Transport::new(CostModel::sun3(), 2);
/// let mut fs = SpriteFs::new(FsConfig::default(), 2);
/// fs.add_server(HostId::new(0), SpritePath::new("/"));
/// let host = HostId::new(1);
/// let (program, t) = fs.create(&mut net, SimTime::ZERO, host, SpritePath::new("/bin/a.out"))?;
/// let mut space = AddressSpace::create("pid1", program, 4, 16, 4);
/// let addr = VirtAddr::new(SegmentKind::Heap, 100);
/// let t = space.write(&mut fs, &mut net, t, host, addr, b"hello")?;
/// let (data, _) = space.read(&mut fs, &mut net, t, host, addr, 5)?;
/// assert_eq!(data, b"hello");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    /// Names the swap files: `/swap/<tag>.heap` and `/swap/<tag>.stack`.
    tag: Box<str>,
    code: Segment,
    heap: Segment,
    stack: Segment,
    stats: VmStats,
}

impl AddressSpace {
    /// Creates an address space. Heap and stack start as zero-fill with no
    /// backing file; each gets its swap file, named from `tag`, at its
    /// first page-out. Code pages demand-page from `code_file`, the
    /// executable itself — which is why Sprite never has to transfer code
    /// pages during migration: any kernel can fetch them from the shared
    /// file system.
    pub fn create(
        tag: &str,
        code_file: FileId,
        code_pages: u64,
        heap_pages: u64,
        stack_pages: u64,
    ) -> AddressSpace {
        let segment =
            |kind: SegmentKind, backing: Option<FileId>, pages: u64, home: PageHome| Segment {
                kind,
                backing,
                pages: (0..pages)
                    .map(|_| PageState {
                        home,
                        dirty: false,
                        frame: None,
                    })
                    .collect(),
            };
        AddressSpace {
            tag: tag.into(),
            code: segment(
                SegmentKind::Code,
                Some(code_file),
                code_pages,
                PageHome::BackingFile,
            ),
            heap: segment(SegmentKind::Heap, None, heap_pages, PageHome::Zero),
            stack: segment(SegmentKind::Stack, None, stack_pages, PageHome::Zero),
            stats: VmStats::default(),
        }
    }

    /// Copies this address space for a forked child named by `tag`: heap
    /// and stack get copies of the parent's contents, dirty, and no backing
    /// file until their first page-out; code pages keep demand-paging from
    /// the same executable. Pages the parent holds only in a backing file
    /// or on a copy-on-reference source are paged in first (fork must
    /// capture a snapshot).
    ///
    /// Sprite used copy-on-write where hardware allowed; the Sun-3 port
    /// copied eagerly, and the simulated cost charges that eager copy. On
    /// the host, the child shares the parent's frames copy-on-write, which
    /// has identical semantics.
    pub fn fork_copy(
        &mut self,
        fs: &mut SpriteFs,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        tag: &str,
    ) -> FsResult<(AddressSpace, SimTime)> {
        let mut t = now;
        let mut copied_pages = 0u64;
        let mut copy_segment = |this: &mut AddressSpace,
                                kind: SegmentKind,
                                t_in: SimTime|
         -> FsResult<(Segment, SimTime)> {
            let mut t = t_in;
            let count = this.segment(kind).pages.len();
            let mut pages = Vec::with_capacity(count);
            for i in 0..count {
                let home = this.segment(kind).pages[i].home;
                match home {
                    PageHome::Zero => pages.push(PageState::zero()),
                    _ => {
                        t = this.fault_in(fs, net, t, host, kind, i as u64)?;
                        let frame = this.segment(kind).pages[i].frame.clone();
                        copied_pages += 1;
                        pages.push(PageState {
                            home: PageHome::Resident,
                            // The child has no backing file, so its copied
                            // pages are dirty with respect to it.
                            dirty: true,
                            frame,
                        });
                    }
                }
            }
            Ok((
                Segment {
                    kind,
                    backing: None,
                    pages,
                },
                t,
            ))
        };
        let (heap, t3) = copy_segment(self, SegmentKind::Heap, t)?;
        let (stack, t4) = copy_segment(self, SegmentKind::Stack, t3)?;
        t = t4;
        // Code: share the executable; copy residency state only.
        let code = Segment {
            kind: SegmentKind::Code,
            backing: self.code.backing,
            pages: self
                .code
                .pages
                .iter()
                .map(|p| PageState {
                    home: p.home,
                    dirty: false,
                    frame: p.frame.clone(),
                })
                .collect(),
        };
        t += net.cost().copy_time(copied_pages * PAGE_SIZE);
        Ok((
            AddressSpace {
                tag: tag.into(),
                code,
                heap,
                stack,
                stats: VmStats::default(),
            },
            t,
        ))
    }

    /// The path of `kind`'s swap file. Only heap and stack have one.
    fn swap_path(&self, kind: SegmentKind) -> SpritePath {
        SpritePath::new(format!("/swap/{}.{kind}", self.tag))
    }

    /// The paths of the swap files this space has created, heap first:
    /// what the kernel unlinks when it frees the space.
    pub fn swap_files(&self) -> impl Iterator<Item = SpritePath> + '_ {
        [SegmentKind::Heap, SegmentKind::Stack]
            .into_iter()
            .filter(|&kind| self.segment(kind).backing.is_some())
            .map(|kind| self.swap_path(kind))
    }

    /// Access a segment.
    pub fn segment(&self, kind: SegmentKind) -> &Segment {
        match kind {
            SegmentKind::Code => &self.code,
            SegmentKind::Heap => &self.heap,
            SegmentKind::Stack => &self.stack,
        }
    }

    fn segment_mut(&mut self, kind: SegmentKind) -> &mut Segment {
        match kind {
            SegmentKind::Code => &mut self.code,
            SegmentKind::Heap => &mut self.heap,
            SegmentKind::Stack => &mut self.stack,
        }
    }

    /// Fault/paging statistics.
    pub fn stats(&self) -> VmStats {
        self.stats
    }

    /// Total pages across all segments.
    pub fn total_pages(&self) -> u64 {
        SegmentKind::ALL
            .iter()
            .map(|&k| self.segment(k).page_count())
            .sum()
    }

    /// Total resident pages.
    pub fn resident_pages(&self) -> u64 {
        SegmentKind::ALL
            .iter()
            .map(|&k| self.segment(k).resident_pages())
            .sum()
    }

    /// Total dirty pages.
    pub fn dirty_pages(&self) -> u64 {
        SegmentKind::ALL
            .iter()
            .map(|&k| self.segment(k).dirty_pages())
            .sum()
    }

    /// Ensures `page` of `segment` is resident, paying fault costs. A
    /// page-in from the backing file reads a run in one round trip: the
    /// page and the following pages of its stripe unit (as in
    /// [`AddressSpace::flush_dirty`]), stopping at the first page whose
    /// bytes are not only in the file: resident, dirty, zero-fill or owed
    /// by a copy-on-reference source. Every page the read returns turns
    /// resident and clean; a failed read installs none. A
    /// copy-on-reference fetch stays one page per fault.
    fn fault_in(
        &mut self,
        fs: &mut SpriteFs,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        segment: SegmentKind,
        page: u64,
    ) -> FsResult<SimTime> {
        let backing = self.segment(segment).backing;
        let seg = self.segment_mut(segment);
        assert!(
            (page as usize) < seg.pages.len(),
            "page {page} out of range for {segment} segment"
        );
        let home = seg.pages[page as usize].home;
        match home {
            PageHome::Resident => Ok(now),
            PageHome::Zero => {
                let t = self.zero_fill_fault(net, now);
                let seg = self.segment_mut(segment);
                let p = &mut seg.pages[page as usize];
                p.frame = Some(zero_frame());
                p.home = PageHome::Resident;
                Ok(t)
            }
            PageHome::BackingFile => {
                // The run: this page and the following pages of its stripe
                // unit whose bytes live only in the backing file.
                let count = seg.pages.len() as u64;
                let end = unit_run_end(page, count, net.cost().run_blocks(), |p| {
                    seg.pages[p as usize].home == PageHome::BackingFile
                });
                self.stats.faults += 1;
                let t = now + net.cost().context_switch;
                let backing = backing.expect("a paged-out page has a backing file");
                let (frames, t) = fs.page_in(net, t, host, backing, page, end - page)?;
                self.stats.pageins += frames.len() as u64;
                let seg = self.segment_mut(segment);
                for (p, frame) in seg.pages[page as usize..].iter_mut().zip(frames) {
                    p.frame = Some(frame);
                    p.home = PageHome::Resident;
                }
                Ok(t)
            }
            PageHome::RemoteSource(source) => {
                self.stats.faults += 1;
                let t = now + net.cost().context_switch;
                // Fetch the page from the previous host's memory — unless
                // the process has come back to the source, in which case
                // its pages are sitting right here.
                let t = if source == host {
                    t + net.cost().page_copy
                } else {
                    self.stats.remote_fetches += 1;
                    net.send(RpcOp::VmPageFetch, t, host, source, None)?.done
                };
                let seg = self.segment_mut(segment);
                let p = &mut seg.pages[page as usize];
                // Bytes were kept in `frame` when the page was left behind.
                p.frame.get_or_insert_with(zero_frame);
                p.home = PageHome::Resident;
                Ok(t)
            }
        }
    }

    /// Counts the fault a first touch of a zero-fill page takes and returns
    /// when it completes: the fault trap plus a page of copying.
    fn zero_fill_fault(&mut self, net: &Transport, now: SimTime) -> SimTime {
        self.stats.faults += 1;
        now + net.cost().context_switch + net.cost().page_copy
    }

    /// Reads `len` bytes at `addr` from `host`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors from demand paging.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the segment.
    pub fn read(
        &mut self,
        fs: &mut SpriteFs,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        addr: VirtAddr,
        len: u64,
    ) -> FsResult<(Vec<u8>, SimTime)> {
        let mut t = now;
        let mut out = Vec::with_capacity(len as usize);
        let mut pos = addr.offset;
        let end = addr.offset + len;
        while pos < end {
            let page = pos / PAGE_SIZE;
            t = self.fault_in(fs, net, t, host, addr.segment, page)?;
            let seg = self.segment(addr.segment);
            let p = &seg.pages[page as usize];
            let within = (pos % PAGE_SIZE) as usize;
            let upto = ((end - page * PAGE_SIZE).min(PAGE_SIZE)) as usize;
            out.extend_from_slice(&p.bytes()[within..upto]);
            pos = page * PAGE_SIZE + upto as u64;
        }
        Ok((out, t))
    }

    /// Writes `bytes` at `addr` from `host`, marking pages dirty.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors from demand paging.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the segment, or if the
    /// segment is read-only (code).
    pub fn write(
        &mut self,
        fs: &mut SpriteFs,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        addr: VirtAddr,
        bytes: &[u8],
    ) -> FsResult<SimTime> {
        assert!(
            addr.segment.writable(),
            "write to read-only {} segment",
            addr.segment
        );
        let mut t = now;
        let mut pos = addr.offset;
        let end = addr.offset + bytes.len() as u64;
        while pos < end {
            let page = pos / PAGE_SIZE;
            let within = (pos % PAGE_SIZE) as usize;
            let upto = ((end - page * PAGE_SIZE).min(PAGE_SIZE)) as usize;
            let src_from = (pos - addr.offset) as usize;
            let chunk = &bytes[src_from..src_from + (upto - within)];
            if chunk.len() == PAGE_SIZE as usize {
                // Every byte is new: build the frame from them rather than
                // copy a shared frame only to overwrite it.
                t = self.install_page(fs, net, t, host, addr.segment, page, Frame::from(chunk))?;
            } else {
                t = self.fault_in(fs, net, t, host, addr.segment, page)?;
                let p = &mut self.segment_mut(addr.segment).pages[page as usize];
                let frame = p.frame.as_mut().expect("resident page has a frame");
                Arc::make_mut(frame)[within..upto].copy_from_slice(chunk);
                p.home = PageHome::Resident;
                p.dirty = true;
            }
            pos = page * PAGE_SIZE + upto as u64;
        }
        Ok(t)
    }

    /// Makes `frame` page `page` of `segment`, dirty, by reference:
    /// charged exactly as a [`AddressSpace::write`] of the whole page.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors from demand paging.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not one page long, if `page` is past the end
    /// of the segment, or if the segment is read-only (code).
    #[expect(clippy::too_many_arguments)]
    pub(crate) fn install_page(
        &mut self,
        fs: &mut SpriteFs,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        segment: SegmentKind,
        page: u64,
        frame: Frame,
    ) -> FsResult<SimTime> {
        assert!(segment.writable(), "write to read-only {segment} segment");
        assert_eq!(frame.len() as u64, PAGE_SIZE, "a page frame is one page");
        let home = self
            .segment(segment)
            .pages
            .get(page as usize)
            .map(|p| p.home);
        let t = if home == Some(PageHome::Zero) {
            // The frame replaces the zero fill, so none is built; the
            // fault is charged as `fault_in` charges it.
            self.zero_fill_fault(net, now)
        } else {
            self.fault_in(fs, net, now, host, segment, page)?
        };
        let p = &mut self.segment_mut(segment).pages[page as usize];
        p.frame = Some(frame);
        p.home = PageHome::Resident;
        p.dirty = true;
        Ok(t)
    }

    /// Flushes all dirty pages to backing files (Sprite's migration VM
    /// strategy, also used by eviction) and returns when the last page-out
    /// completes. This is the only page-out. Consecutive dirty pages go in
    /// runs, one page-out RPC each, and a run never leaves its stripe unit
    /// (the pages from a multiple of
    /// [`CostModel::run_blocks`](sprite_net::CostModel::run_blocks) up to
    /// the next). For each run, a page still owed by a copy-on-reference
    /// source is fetched first, then the segment's swap file is created if
    /// this is its first page-out, then the run is sent. A run's pages
    /// turn clean once its page-out succeeds and stay resident; a failed
    /// run leaves its pages, and every later one, dirty.
    pub fn flush_dirty(
        &mut self,
        fs: &mut SpriteFs,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
    ) -> FsResult<SimTime> {
        let run = net.cost().run_blocks();
        let mut t = now;
        let mut frames = Vec::with_capacity(run as usize);
        for kind in [SegmentKind::Heap, SegmentKind::Stack] {
            let count = self.segment(kind).page_count();
            let dirty = |this: &Self, page: u64| this.segment(kind).pages[page as usize].dirty;
            let mut first = 0;
            while first < count {
                if !dirty(self, first) {
                    first += 1;
                    continue;
                }
                let end = unit_run_end(first, count, run, |page| dirty(self, page));
                for page in first..end {
                    t = self.fault_in(fs, net, t, host, kind, page)?;
                }
                let file = match self.segment(kind).backing {
                    Some(file) => file,
                    None => {
                        let (file, created) =
                            fs.create_backing(net, t, host, self.swap_path(kind))?;
                        t = created;
                        self.segment_mut(kind).backing = Some(file);
                        file
                    }
                };
                let pages = &mut self.segment_mut(kind).pages[first as usize..end as usize];
                frames.clear();
                frames.extend(pages.iter().map(|p| p.bytes().clone()));
                t = fs.page_out(net, t, host, file, first, &frames)?;
                for p in pages {
                    p.dirty = false;
                }
                self.stats.pageouts += end - first;
                first = end;
            }
        }
        Ok(t)
    }

    /// Discards residency for every page, so future touches demand-page.
    /// Used after a flush-based migration: the *target* host starts with
    /// nothing resident. A clean page's bytes are in its backing file, or
    /// it is a zero page: it reverts to page-in from the file, or to
    /// zero-fill when its segment has no file.
    ///
    /// # Panics
    ///
    /// Panics if any page is still dirty — callers must flush first, or
    /// bytes would be lost. This is the invariant the migration protocol
    /// depends on.
    pub fn drop_residency(&mut self) {
        for kind in SegmentKind::ALL {
            let seg = self.segment_mut(kind);
            let home = if seg.backing.is_some() {
                PageHome::BackingFile
            } else {
                PageHome::Zero
            };
            for p in &mut seg.pages {
                assert!(!p.dirty, "drop_residency with dirty pages would lose data");
                if p.home == PageHome::Resident {
                    p.home = home;
                    p.frame = None;
                }
            }
        }
    }

    /// Marks all resident pages as left behind on `source` (copy-on-
    /// reference migration): bytes stay in place, future touches fetch them
    /// across the network. A dirty page stays dirty: its bytes are on
    /// `source`, not in the backing file.
    pub fn leave_at_source(&mut self, source: HostId) {
        for kind in SegmentKind::ALL {
            for p in &mut self.segment_mut(kind).pages {
                if p.home == PageHome::Resident {
                    p.home = PageHome::RemoteSource(source);
                }
            }
        }
    }

    /// True when some writable segment has a backing file and a clean page
    /// that is not zero-fill: its bytes were flushed to the file, whether
    /// they now live only there, were paged back in (a page-in reads its
    /// unit-mates too) or stayed resident after the flush. A dirty-only
    /// checkpoint image restored into a *fresh* address space — which has
    /// no backing files — would lose those pages, so checkpoints must
    /// widen to a full image.
    pub(crate) fn has_flushed_writable_pages(&self) -> bool {
        [SegmentKind::Heap, SegmentKind::Stack].iter().any(|&k| {
            let seg = self.segment(k);
            seg.backing.is_some()
                && seg
                    .pages
                    .iter()
                    .any(|p| !p.dirty && p.home != PageHome::Zero)
        })
    }

    /// Captures the writable pages a checkpoint must save, paying fault
    /// costs to materialize any that are not resident. With `dirty_only`
    /// set, only pages dirtied since the last flush are captured — sound
    /// when [`AddressSpace::has_flushed_writable_pages`] is false
    /// (the capture widens to a full image automatically otherwise, so the
    /// snapshot is always restorable into a fresh space). Untouched
    /// zero-fill pages are never captured: a fresh space re-creates them
    /// for free. Code pages are excluded — any kernel can demand-page them
    /// from the executable, which is what made Sprite's flush strategy
    /// cheap in the first place (Ch. 3.2).
    pub(crate) fn ckpt_snapshot(
        &mut self,
        fs: &mut SpriteFs,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        dirty_only: bool,
    ) -> FsResult<(Vec<CkptPage>, SimTime)> {
        let dirty_only = dirty_only && !self.has_flushed_writable_pages();
        let mut t = now;
        let mut out = Vec::new();
        for kind in [SegmentKind::Heap, SegmentKind::Stack] {
            let count = self.segment(kind).pages.len();
            for i in 0..count {
                let p = &self.segment(kind).pages[i];
                let capture = if dirty_only {
                    p.dirty
                } else {
                    p.home != PageHome::Zero
                };
                if !capture {
                    continue;
                }
                t = self.fault_in(fs, net, t, host, kind, i as u64)?;
                let data = self.segment(kind).pages[i].bytes().clone();
                out.push(CkptPage {
                    segment: kind,
                    page: i as u64,
                    data,
                });
            }
        }
        Ok((out, t))
    }

    /// The residual-dependency failure Zayas's design risks \[Zay87a\]: the
    /// host still holding this space's copy-on-reference pages crashes.
    /// Every page owed by `dead` is lost — "if the host with the process's
    /// memory image later fails at any time during the process's lifetime,
    /// the process might be unable to execute" (Ch. 2.3). We model the
    /// damage as those pages reverting to zero-fill; the returned count
    /// tells the caller how much state evaporated (a real kernel would have
    /// to kill the process). Sprite's flush strategy never has such pages,
    /// so the same event costs it nothing.
    pub fn source_host_failed(&mut self, dead: HostId) -> u64 {
        let mut lost = 0;
        for kind in SegmentKind::ALL {
            for p in &mut self.segment_mut(kind).pages {
                if p.home == PageHome::RemoteSource(dead) {
                    p.home = PageHome::Zero;
                    p.frame = None;
                    p.dirty = false;
                    lost += 1;
                }
            }
        }
        lost
    }
}

/// The end of the run that starts at page `first` of a `count`-page
/// segment: the first later page that fails `keep`, or the end of
/// `first`'s stripe unit (the `run` pages from a multiple of `run`),
/// whichever comes first. Page-outs and page-ins both move such runs.
fn unit_run_end(first: u64, count: u64, run: u64, keep: impl Fn(u64) -> bool) -> u64 {
    let unit_end = ((first / run + 1) * run).min(count);
    (first + 1..unit_end)
        .find(|&page| !keep(page))
        .unwrap_or(unit_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprite_fs::{FsConfig, FsError, SpritePath};
    use sprite_net::{CostModel, Ideal, LinkPolicy, LinkVerdict};
    use sprite_sim::SimDuration;

    fn setup() -> (Transport, SpriteFs) {
        let net = Transport::new(CostModel::sun3(), 3);
        let mut fs = SpriteFs::new(FsConfig::default(), 3);
        fs.add_server(HostId::new(0), SpritePath::new("/"));
        (net, fs)
    }

    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    /// Creates a four-page "program" file plus an address space over it.
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
    fn zero_fill_then_read_back() {
        let (mut net, mut fs) = setup();
        let (mut s, t) = space(&mut fs, &mut net, "p1");
        let a = VirtAddr::new(SegmentKind::Heap, 5000);
        let (zeros, t1) = s.read(&mut fs, &mut net, t, h(1), a, 16).unwrap();
        assert_eq!(zeros, vec![0; 16]);
        let t2 = s.write(&mut fs, &mut net, t1, h(1), a, b"abcd").unwrap();
        let (data, _) = s.read(&mut fs, &mut net, t2, h(1), a, 4).unwrap();
        assert_eq!(data, b"abcd");
        assert_eq!(s.stats().faults, 1, "one zero-fill fault for page 1");
        assert_eq!(s.dirty_pages(), 1);
    }

    #[test]
    fn writes_spanning_pages_dirty_both() {
        let (mut net, mut fs) = setup();
        let (mut s, t) = space(&mut fs, &mut net, "p2");
        let a = VirtAddr::new(SegmentKind::Heap, PAGE_SIZE - 2);
        s.write(&mut fs, &mut net, t, h(1), a, b"wxyz").unwrap();
        assert_eq!(s.dirty_pages(), 2);
        let (mut net2, mut fs2) = setup();
        let (mut s2, t2) = space(&mut fs2, &mut net2, "p2");
        let (back, _) = s2.read(&mut fs2, &mut net2, t2, h(1), a, 4).unwrap();
        assert_eq!(back, vec![0; 4], "fresh space is zeroed");
        let (back2, _) = s.read(&mut fs, &mut net, t2, h(1), a, 4).unwrap();
        assert_eq!(back2, b"wxyz");
    }

    #[test]
    fn flush_and_drop_then_demand_page_round_trip() {
        let (mut net, mut fs) = setup();
        let (mut s, t) = space(&mut fs, &mut net, "p3");
        let a = VirtAddr::new(SegmentKind::Heap, 0);
        let payload: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i % 255) as u8).collect();
        let t1 = s.write(&mut fs, &mut net, t, h(1), a, &payload).unwrap();
        assert_eq!(s.dirty_pages(), 3);
        let t2 = s.flush_dirty(&mut fs, &mut net, t1, h(1)).unwrap();
        assert_eq!(s.dirty_pages(), 0);
        assert!(t2 > t1, "flushing three pages takes time");
        s.drop_residency();
        assert_eq!(s.resident_pages(), 0);
        // Demand paging (as if on a new host) restores identical bytes.
        let (back, t3) = s
            .read(&mut fs, &mut net, t2, h(2), a, payload.len() as u64)
            .unwrap();
        assert_eq!(back, payload);
        assert!(t3 > t2);
        assert_eq!(s.stats().pageins, 3);
    }

    #[test]
    #[should_panic(expected = "drop_residency with dirty pages")]
    fn drop_residency_refuses_dirty_pages() {
        let (mut net, mut fs) = setup();
        let (mut s, t) = space(&mut fs, &mut net, "p4");
        s.write(
            &mut fs,
            &mut net,
            t,
            h(1),
            VirtAddr::new(SegmentKind::Heap, 0),
            b"x",
        )
        .unwrap();
        s.drop_residency();
    }

    #[test]
    fn copy_on_reference_fetches_remotely() {
        let (mut net, mut fs) = setup();
        let (mut s, t) = space(&mut fs, &mut net, "p5");
        let a = VirtAddr::new(SegmentKind::Stack, 100);
        let t1 = s
            .write(&mut fs, &mut net, t, h(1), a, b"stackdata")
            .unwrap();
        s.leave_at_source(h(1));
        let owed_by_source = |s: &AddressSpace| {
            SegmentKind::ALL
                .iter()
                .flat_map(|&k| &s.segment(k).pages)
                .filter(|p| p.home == PageHome::RemoteSource(h(1)))
                .count()
        };
        assert_eq!(s.resident_pages(), 0);
        assert_eq!(owed_by_source(&s), 1);
        let (back, t2) = s.read(&mut fs, &mut net, t1, h(2), a, 9).unwrap();
        assert_eq!(back, b"stackdata");
        assert!(t2.elapsed_since(t1) >= net.cost().small_rpc_round_trip());
        assert_eq!(s.stats().remote_fetches, 1);
        assert_eq!(owed_by_source(&s), 0);
    }

    #[test]
    fn code_pages_demand_page_from_the_executable() {
        let (mut net, mut fs) = setup();
        // Write program text into the executable file, then run it.
        let (prog, t) = fs
            .create(&mut net, SimTime::ZERO, h(1), SpritePath::new("/bin/p6"))
            .unwrap();
        let (ps, t) = fs
            .open(
                &mut net,
                t,
                h(1),
                SpritePath::new("/bin/p6"),
                sprite_fs::OpenMode::Write,
            )
            .unwrap();
        let t = fs.write(&mut net, t, h(1), ps, &[0x90u8; 128]).unwrap();
        let t = fs.close(&mut net, t, h(1), ps).unwrap();
        let mut s = AddressSpace::create("p6", prog, 4, 8, 4);
        let (text, _) = s
            .read(
                &mut fs,
                &mut net,
                t,
                h(1),
                VirtAddr::new(SegmentKind::Code, 0),
                128,
            )
            .unwrap();
        assert_eq!(text, vec![0x90; 128]);
        assert_eq!(s.segment(SegmentKind::Code).dirty_pages(), 0);
        assert_eq!(s.stats().pageins, 1);
    }

    #[test]
    fn fork_copy_duplicates_contents_independently() {
        let (mut net, mut fs) = setup();
        let (mut parent, t) = space(&mut fs, &mut net, "pf");
        let a = VirtAddr::new(SegmentKind::Heap, 64);
        let t = parent
            .write(&mut fs, &mut net, t, h(1), a, b"shared?")
            .unwrap();
        let (mut child, t) = parent
            .fork_copy(&mut fs, &mut net, t, h(1), "pf.child")
            .unwrap();
        let (c, t) = child.read(&mut fs, &mut net, t, h(1), a, 7).unwrap();
        assert_eq!(c, b"shared?");
        // Diverge: the child's writes must not leak into the parent.
        let t = child
            .write(&mut fs, &mut net, t, h(1), a, b"childs!")
            .unwrap();
        let (p, _) = parent.read(&mut fs, &mut net, t, h(1), a, 7).unwrap();
        assert_eq!(p, b"shared?");
        // And the child's pages flush to its own backing files.
        let t = child.flush_dirty(&mut fs, &mut net, t, h(1)).unwrap();
        child.drop_residency();
        let (c2, _) = child.read(&mut fs, &mut net, t, h(2), a, 7).unwrap();
        assert_eq!(c2, b"childs!");
    }

    /// Page `page` of the heap as the address space holds it.
    fn heap_frame(s: &AddressSpace, page: usize) -> Frame {
        s.heap.pages[page].bytes().clone()
    }

    /// Page `page` of the heap's backing file, as stored on the server.
    fn backing_frame(fs: &SpriteFs, s: &AddressSpace, page: u64) -> Frame {
        let file = s.segment(SegmentKind::Heap).backing().unwrap();
        fs.server(h(0)).unwrap().file(file).unwrap().frame(page)
    }

    #[test]
    fn a_flushed_page_shares_its_frame_until_written() {
        let (mut net, mut fs) = setup();
        let (mut s, t) = space(&mut fs, &mut net, "cow1");
        let a = VirtAddr::new(SegmentKind::Heap, 2 * PAGE_SIZE);
        let t = s.write(&mut fs, &mut net, t, h(1), a, b"flushed").unwrap();
        let t = s.flush_dirty(&mut fs, &mut net, t, h(1)).unwrap();
        assert!(
            Arc::ptr_eq(&heap_frame(&s, 2), &backing_frame(&fs, &s, 2)),
            "a flush hands the file the page's own frame"
        );
        let t = s.write(&mut fs, &mut net, t, h(1), a, b"changed").unwrap();
        assert!(!Arc::ptr_eq(&heap_frame(&s, 2), &backing_frame(&fs, &s, 2)));
        // What a page-in returns is still the flushed page.
        let file = s.segment(SegmentKind::Heap).backing().unwrap();
        let (paged, _) = fs.page_in(&mut net, t, h(2), file, 2, 1).unwrap();
        assert_eq!(&paged[0][..7], b"flushed");
        let (mine, _) = s.read(&mut fs, &mut net, t, h(1), a, 7).unwrap();
        assert_eq!(mine, b"changed");
    }

    #[test]
    fn a_write_after_page_in_leaves_the_backing_file_alone() {
        let (mut net, mut fs) = setup();
        let (mut s, t) = space(&mut fs, &mut net, "cow2");
        let a = VirtAddr::new(SegmentKind::Heap, 0);
        let two_pages = 2 * PAGE_SIZE;
        let t = s
            .write(&mut fs, &mut net, t, h(1), a, &vec![7; two_pages as usize])
            .unwrap();
        let t = s.flush_dirty(&mut fs, &mut net, t, h(1)).unwrap();
        s.drop_residency();
        // Demand page on another host: the page-in shares the file's frames.
        let (back, t) = s.read(&mut fs, &mut net, t, h(2), a, two_pages).unwrap();
        assert_eq!(back, vec![7; two_pages as usize]);
        for page in 0..2 {
            assert!(Arc::ptr_eq(
                &heap_frame(&s, page),
                &backing_frame(&fs, &s, page as u64)
            ));
        }
        // A partial write to page 0 copies its frame; a whole-page write to
        // page 1 replaces its frame.
        let t = s.write(&mut fs, &mut net, t, h(2), a, &[9; 100]).unwrap();
        let b = VirtAddr::new(SegmentKind::Heap, PAGE_SIZE);
        s.write(&mut fs, &mut net, t, h(2), b, &[8; PAGE_SIZE as usize])
            .unwrap();
        assert_eq!(*backing_frame(&fs, &s, 0), [7; PAGE_SIZE as usize]);
        assert_eq!(*backing_frame(&fs, &s, 1), [7; PAGE_SIZE as usize]);
        assert_eq!(
            heap_frame(&s, 0)[..101],
            [[9; 100].as_slice(), &[7]].concat()
        );
        assert_eq!(*heap_frame(&s, 1), [8; PAGE_SIZE as usize]);
    }

    #[test]
    fn forked_and_cloned_children_diverge_from_their_parent() {
        let (mut net, mut fs) = setup();
        let (mut parent, t) = space(&mut fs, &mut net, "cow3");
        let a = VirtAddr::new(SegmentKind::Stack, 10);
        let t = parent
            .write(&mut fs, &mut net, t, h(1), a, b"origin")
            .unwrap();
        let (mut forked, t) = parent
            .fork_copy(&mut fs, &mut net, t, h(1), "cow3.child")
            .unwrap();
        let mut cloned = parent.clone();
        assert!(Arc::ptr_eq(
            forked.stack.pages[0].bytes(),
            parent.stack.pages[0].bytes()
        ));
        let t = parent
            .write(&mut fs, &mut net, t, h(1), a, b"parent")
            .unwrap();
        let t = forked
            .write(&mut fs, &mut net, t, h(1), a, b"forked")
            .unwrap();
        let t = cloned
            .write(&mut fs, &mut net, t, h(1), a, b"cloned")
            .unwrap();
        for (s, want) in [
            (&mut parent, b"parent"),
            (&mut forked, b"forked"),
            (&mut cloned, b"cloned"),
        ] {
            let (got, _) = s.read(&mut fs, &mut net, t, h(1), a, 6).unwrap();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn a_whole_page_write_to_zero_fill_costs_a_zero_fill_fault() {
        let (mut net, mut fs) = setup();
        let (mut whole, t) = space(&mut fs, &mut net, "cow4");
        let (mut split, _) = space(&mut fs, &mut net, "cow5");
        let page = vec![3; PAGE_SIZE as usize];
        let a = VirtAddr::new(SegmentKind::Heap, PAGE_SIZE);
        let t1 = whole.write(&mut fs, &mut net, t, h(1), a, &page).unwrap();
        // The same bytes in two writes take the zero-fill path.
        let half = PAGE_SIZE / 2;
        let t2 = split
            .write(&mut fs, &mut net, t, h(1), a, &page[..half as usize])
            .unwrap();
        let b = VirtAddr::new(SegmentKind::Heap, PAGE_SIZE + half);
        let t2b = split
            .write(&mut fs, &mut net, t2, h(1), b, &page[half as usize..])
            .unwrap();
        assert_eq!(t1, t2, "same charge as fault_in's zero fill");
        assert_eq!(t2b, t2);
        assert_eq!(whole.stats(), split.stats());
        assert_eq!(whole.dirty_pages(), 1);
        assert_eq!(*heap_frame(&whole, 1), *heap_frame(&split, 1));
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn writing_code_panics() {
        let (mut net, mut fs) = setup();
        let (mut s, t) = space(&mut fs, &mut net, "p7");
        let _ = s.write(
            &mut fs,
            &mut net,
            t,
            h(1),
            VirtAddr::new(SegmentKind::Code, 0),
            b"x",
        );
    }

    #[test]
    fn a_swap_file_is_created_at_its_segments_first_page_out() {
        let (mut net, mut fs) = setup();
        let (mut s, t) = space(&mut fs, &mut net, "lazy");
        let lookups = fs.stats().lookups;
        // A zero page read in, flushed and dropped is zero-fill again: no
        // file, no lookup, no page-in.
        let stack = VirtAddr::new(SegmentKind::Stack, 0);
        let (_, t) = s.read(&mut fs, &mut net, t, h(1), stack, 8).unwrap();
        let t = s.flush_dirty(&mut fs, &mut net, t, h(1)).unwrap();
        s.drop_residency();
        let (zeros, t) = s.read(&mut fs, &mut net, t, h(2), stack, 8).unwrap();
        assert_eq!(zeros, [0; 8]);
        assert_eq!(s.stats().pageins, 0);
        assert_eq!(s.swap_files().count(), 0);
        assert_eq!(fs.stats().lookups, lookups);
        // The heap's first page-out creates its file, and only it.
        let heap = VirtAddr::new(SegmentKind::Heap, 0);
        let t = s.write(&mut fs, &mut net, t, h(2), heap, b"paged").unwrap();
        let t = s.flush_dirty(&mut fs, &mut net, t, h(2)).unwrap();
        assert_eq!(
            s.swap_files().collect::<Vec<_>>(),
            [SpritePath::new("/swap/lazy.heap")]
        );
        assert!(s.segment(SegmentKind::Stack).backing().is_none());
        assert_eq!(fs.stats().lookups, lookups + 1);
        // Later page-outs reuse it.
        let t = s.write(&mut fs, &mut net, t, h(2), heap, b"again").unwrap();
        s.flush_dirty(&mut fs, &mut net, t, h(2)).unwrap();
        assert_eq!(fs.stats().lookups, lookups + 1);
        assert_eq!(s.stats().pageouts, 2);
    }

    /// A space whose first `pages` heap pages hold distinct bytes, all
    /// dirty, and the bytes.
    fn dirty_heap(
        fs: &mut SpriteFs,
        net: &mut Transport,
        tag: &str,
        pages: u64,
    ) -> (AddressSpace, Vec<u8>, SimTime) {
        let (prog, t) = fs
            .create(
                net,
                SimTime::ZERO,
                h(1),
                SpritePath::new(format!("/bin/{tag}")),
            )
            .unwrap();
        let mut s = AddressSpace::create(tag, prog, 4, pages, 4);
        let heap: Vec<u8> = (0..pages * PAGE_SIZE).map(|i| (i % 253) as u8).collect();
        let t = s
            .write(fs, net, t, h(1), VirtAddr::new(SegmentKind::Heap, 0), &heap)
            .unwrap();
        (s, heap, t)
    }

    #[test]
    fn a_flush_sends_one_page_out_per_run() {
        let (mut net, mut fs) = setup();
        let (mut s, _, t) = dirty_heap(&mut fs, &mut net, "mb", 256);
        s.flush_dirty(&mut fs, &mut net, t, h(1)).unwrap();
        assert_eq!(
            net.rpc_table().get(RpcOp::VmPageFlush).calls,
            64,
            "1 MB in 16 KB runs"
        );
        assert_eq!(s.stats().pageouts, 256);
        assert_eq!(fs.stats().pageouts, 256);
    }

    /// Partitions the `n`th attempt of `op`, counting from 1.
    #[derive(Debug)]
    struct LoseNth {
        op: RpcOp,
        n: u32,
        seen: u32,
    }

    impl LinkPolicy for LoseNth {
        fn verdict(&mut self, op: RpcOp, _: SimTime, _: HostId, _: Option<HostId>) -> LinkVerdict {
            if op == self.op {
                self.seen += 1;
                if self.seen == self.n {
                    return LinkVerdict::Partitioned;
                }
            }
            LinkVerdict::Deliver
        }
    }

    #[test]
    fn a_failed_run_leaves_itself_and_every_later_page_dirty() {
        let (mut net, mut fs) = setup();
        let (mut s, heap, t) = dirty_heap(&mut fs, &mut net, "lost", 12);
        let op = RpcOp::VmPageFlush;
        net.set_policy(Box::new(LoseNth { op, n: 2, seen: 0 }));
        let err = s.flush_dirty(&mut fs, &mut net, t, h(1)).unwrap_err();
        assert!(matches!(err, FsError::Rpc(_)), "{err}");
        let dirty: Vec<bool> = s.heap.pages.iter().map(|p| p.dirty).collect();
        assert_eq!(dirty, [[false; 4], [true; 4], [true; 4]].concat());
        // Once the link heals, the next flush sends the two runs left.
        net.set_policy(Box::new(Ideal));
        let before = net.rpc_table().get(op).calls;
        let t = s
            .flush_dirty(&mut fs, &mut net, t + SimDuration::from_secs(1), h(1))
            .unwrap();
        assert_eq!(net.rpc_table().get(op).calls - before, 2);
        s.drop_residency();
        let a = VirtAddr::new(SegmentKind::Heap, 0);
        let (back, _) = s
            .read(&mut fs, &mut net, t, h(2), a, heap.len() as u64)
            .unwrap();
        assert!(back == heap, "every byte reads back");
    }

    /// A space whose `pages` heap pages hold distinct bytes, except
    /// `skip`, which is never written, flushed and dropped: every written
    /// page lives only in the swap file. Returns the heap's bytes too.
    fn flushed_heap(
        fs: &mut SpriteFs,
        net: &mut Transport,
        tag: &str,
        pages: u64,
        skip: Option<u64>,
    ) -> (AddressSpace, Vec<u8>, SimTime) {
        let (prog, mut t) = fs
            .create(
                net,
                SimTime::ZERO,
                h(1),
                SpritePath::new(format!("/bin/{tag}")),
            )
            .unwrap();
        let mut s = AddressSpace::create(tag, prog, 4, pages, 4);
        let mut heap: Vec<u8> = (0..pages * PAGE_SIZE).map(|i| (i % 253) as u8).collect();
        for (page, bytes) in (0..).zip(heap.chunks_mut(PAGE_SIZE as usize)) {
            if Some(page) == skip {
                bytes.fill(0);
            } else {
                let a = VirtAddr::new(SegmentKind::Heap, page * PAGE_SIZE);
                t = s.write(fs, net, t, h(1), a, bytes).unwrap();
            }
        }
        let t = s.flush_dirty(fs, net, t, h(1)).unwrap();
        s.drop_residency();
        (s, heap, t)
    }

    fn page_fetches(net: &Transport) -> u64 {
        net.rpc_table().get(RpcOp::VmPageFetch).calls
    }

    #[test]
    fn a_sequential_read_pages_in_one_run_per_stripe_unit() {
        for pages in 1..=9 {
            let (mut net, mut fs) = setup();
            let (mut s, heap, t) = flushed_heap(&mut fs, &mut net, "seq", pages, None);
            let a = VirtAddr::new(SegmentKind::Heap, 0);
            let faults = s.stats().faults;
            let (back, _) = s
                .read(&mut fs, &mut net, t, h(2), a, pages * PAGE_SIZE)
                .unwrap();
            assert!(back == heap, "{pages} pages read back");
            assert_eq!(page_fetches(&net), pages.div_ceil(4), "{pages} pages");
            assert_eq!(s.stats().faults - faults, pages.div_ceil(4));
            assert_eq!(s.stats().pageins, pages);
            assert_eq!(fs.stats().pageins, pages);
            assert_eq!(s.dirty_pages(), 0, "paged-in pages are clean");
        }
    }

    #[test]
    fn a_page_in_run_stops_before_a_page_not_only_in_the_file() {
        for blocker in ["resident", "dirty", "zero-fill", "copy-on-reference"] {
            let (mut net, mut fs) = setup();
            let skip = (blocker == "zero-fill").then_some(2);
            let (mut s, mut heap, mut t) = flushed_heap(&mut fs, &mut net, blocker, 8, skip);
            // Page 2 stops the run from page 0; touching it pages in 2 and 3.
            let page2 = VirtAddr::new(SegmentKind::Heap, 2 * PAGE_SIZE);
            match blocker {
                "resident" => t = s.read(&mut fs, &mut net, t, h(2), page2, 1).unwrap().1,
                "dirty" | "copy-on-reference" => {
                    t = s.write(&mut fs, &mut net, t, h(1), page2, b"!").unwrap();
                    heap[2 * PAGE_SIZE as usize] = b'!';
                }
                _ => {}
            }
            if blocker == "copy-on-reference" {
                s.leave_at_source(h(1));
            }
            let before = s.heap.pages[2].clone();
            let (fetches, pageins) = (page_fetches(&net), fs.stats().pageins);
            let a = VirtAddr::new(SegmentKind::Heap, 0);
            let (_, t) = s.read(&mut fs, &mut net, t, h(2), a, 1).unwrap();
            assert_eq!(page_fetches(&net) - fetches, 1, "{blocker}");
            assert_eq!(fs.stats().pageins - pageins, 2, "{blocker}: pages 0 and 1");
            let after = &s.heap.pages[2];
            assert_eq!((after.home, after.dirty), (before.home, before.dirty));
            let same = match (&after.frame, &before.frame) {
                (Some(x), Some(y)) => Arc::ptr_eq(x, y),
                (x, y) => x.is_none() && y.is_none(),
            };
            assert!(same, "{blocker}: page 2 untouched");
            let (back, _) = s
                .read(&mut fs, &mut net, t, h(2), a, heap.len() as u64)
                .unwrap();
            assert!(back == heap, "{blocker}: every byte reads back");
        }
    }

    #[test]
    fn a_striped_page_in_stays_in_its_unit_and_inside_the_file() {
        let mut net = Transport::new(CostModel::sun3(), 4);
        let mut fs = SpriteFs::new(FsConfig::default(), 4);
        fs.add_server(h(0), SpritePath::new("/"));
        fs.add_server(h(3), SpritePath::new("/"));
        let (prog, t) = fs
            .create(&mut net, SimTime::ZERO, h(1), SpritePath::new("/bin/st"))
            .unwrap();
        let mut s = AddressSpace::create("st", prog, 4, 12, 4);
        // Pages 0-5 hold bytes; pages 6-11 are read as zeros, so they turn
        // into page-ins from the file too, past its last block.
        let written: Vec<u8> = (0..6 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        let a = VirtAddr::new(SegmentKind::Heap, 0);
        let t = s.write(&mut fs, &mut net, t, h(1), a, &written).unwrap();
        let tail = VirtAddr::new(SegmentKind::Heap, 6 * PAGE_SIZE);
        let (_, t) = s
            .read(&mut fs, &mut net, t, h(1), tail, 6 * PAGE_SIZE)
            .unwrap();
        let t = s.flush_dirty(&mut fs, &mut net, t, h(1)).unwrap();
        s.drop_residency();
        let requests = |fs: &SpriteFs| {
            fs.server_loads()
                .iter()
                .map(|l| l.requests)
                .collect::<Vec<_>>()
        };
        let served = requests(&fs);
        // A fault mid-unit reads to the unit's end, not into the next one.
        let mid = VirtAddr::new(SegmentKind::Heap, 2 * PAGE_SIZE);
        let (_, t) = s.read(&mut fs, &mut net, t, h(2), mid, 1).unwrap();
        assert_eq!((page_fetches(&net), fs.stats().pageins), (1, 2));
        let (back, _) = s
            .read(&mut fs, &mut net, t, h(2), a, 12 * PAGE_SIZE)
            .unwrap();
        assert!(back[..written.len()] == written);
        assert!(back[written.len()..].iter().all(|&b| b == 0));
        // Pages 0-1, then 4-5 (the file ends there), then one zero page
        // for each fault past the end.
        assert_eq!(page_fetches(&net), 1 + 1 + 1 + 6);
        assert_eq!(fs.stats().pageins, 12);
        let now = requests(&fs);
        assert!(
            served.iter().zip(&now).all(|(a, b)| b > a),
            "both servers page in"
        );
    }

    /// Drops every attempt of `op`, so each send of it gives up.
    #[derive(Debug)]
    struct DropEvery(RpcOp);

    impl LinkPolicy for DropEvery {
        fn verdict(&mut self, op: RpcOp, _: SimTime, _: HostId, _: Option<HostId>) -> LinkVerdict {
            if op == self.0 {
                LinkVerdict::Drop
            } else {
                LinkVerdict::Deliver
            }
        }
    }

    #[test]
    fn a_failed_page_in_installs_none_of_its_run() {
        let (mut net, mut fs) = setup();
        let (mut s, heap, t) = flushed_heap(&mut fs, &mut net, "drop", 8, None);
        net.set_policy(Box::new(DropEvery(RpcOp::VmPageFetch)));
        let a = VirtAddr::new(SegmentKind::Heap, 0);
        let len = heap.len() as u64;
        let err = s.read(&mut fs, &mut net, t, h(2), a, len).unwrap_err();
        assert!(matches!(err, FsError::Rpc(_)), "{err}");
        assert!(s
            .heap
            .pages
            .iter()
            .all(|p| p.home == PageHome::BackingFile && p.frame.is_none()));
        assert_eq!((s.stats().pageins, fs.stats().pageins), (0, 0));
        net.set_policy(Box::new(Ideal));
        let t = t + SimDuration::from_secs(60);
        let (back, _) = s.read(&mut fs, &mut net, t, h(2), a, len).unwrap();
        assert!(back == heap, "the retry reads the flushed bytes");
        assert_eq!(s.stats().pageins, 8);
    }

    #[test]
    fn an_isolated_fault_in_a_flushed_unit_pays_for_its_run() {
        // What a unit at a time costs a process that touches one page: a
        // one-byte read of a flushed unit moves all four pages, a 38.0 ms
        // round trip on the Sun-3, where one page costs 11.65 ms (here the
        // last page of a unit, which reads alone).
        let (mut net, mut fs) = setup();
        let (mut s, _, t) = flushed_heap(&mut fs, &mut net, "iso", 8, None);
        let fault = net.cost().context_switch;
        for (page, pages, wire_us) in [(0, 4, 38_000), (7, 1, 11_650)] {
            let t0 = t + SimDuration::from_secs(1 + page);
            let a = VirtAddr::new(SegmentKind::Heap, page * PAGE_SIZE);
            let before = fs.stats().pageins;
            let (_, t1) = s.read(&mut fs, &mut net, t0, h(2), a, 1).unwrap();
            assert_eq!(fs.stats().pageins - before, pages, "page {page}");
            assert_eq!(
                t1.elapsed_since(t0),
                fault + SimDuration::from_micros(wire_us),
                "page {page}"
            );
        }
    }

    #[test]
    fn accounting_totals() {
        let (mut net, mut fs) = setup();
        let (mut s, t) = space(&mut fs, &mut net, "p8");
        assert_eq!(s.total_pages(), 4 + 32 + 8);
        assert_eq!(s.resident_pages(), 0);
        s.write(
            &mut fs,
            &mut net,
            t,
            h(1),
            VirtAddr::new(SegmentKind::Heap, 0),
            &vec![1; 2 * PAGE_SIZE as usize],
        )
        .unwrap();
        assert_eq!(s.resident_pages(), 2);
    }
}
