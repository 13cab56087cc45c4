//! File-server state.
//!
//! Each server owns a set of domains (subtrees) of the shared name space,
//! stores file contents, tracks which clients have each file open in which
//! mode, and runs the cache-consistency protocol \[NWO88\]: caching is
//! disabled for a file that is concurrently write-shared, and a client
//! opening a file last written by a different client forces that writer's
//! dirty blocks back first. The server's CPU is a real simulated resource —
//! name lookups and block operations queue on it, and its saturation is what
//! limits parallel compilation (E5) exactly as Nelson predicted \[Nel88\].

use std::sync::Arc;

use sprite_net::{HostId, PAGE_SIZE};
use sprite_sim::{DetHashMap, DetHashSet, SimDuration, SlottedResource};

use crate::recency::Recency;
use crate::{FileId, FileKind, OpenMode, SpritePath};

/// One client's open instances of one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenRecord {
    /// The client host.
    pub host: HostId,
    /// Mode of this open instance.
    pub mode: OpenMode,
    /// Number of streams this host has open in this mode.
    pub count: u32,
}

/// One page of bytes, shared copy-on-write between the file servers'
/// block tables, the client block caches and the address spaces paging
/// through them: handing a page between any two moves a reference, not
/// `PAGE_SIZE` bytes. A writer copies first (`Arc::make_mut`) whenever
/// another holder still shares it.
pub type Frame = Arc<[u8]>;

/// Writes `chunk` at byte `within` of a block whose written prefix is
/// `slot` (`None` reads as empty), copying at most once. A write from the
/// block's start over all of the prefix makes the chunk the new frame (a
/// whole block always is); one inside the prefix copies the frame only if
/// another holder shares it; one past its end assembles the grown prefix on
/// the stack, then allocates it once.
pub(crate) fn write_frame(slot: &mut Option<Frame>, within: usize, chunk: &[u8]) {
    let upto = within + chunk.len();
    let covers = within == 0 && slot.as_ref().is_none_or(|f| f.len() <= upto);
    match slot {
        _ if covers => *slot = Some(Frame::from(chunk)),
        Some(frame) if frame.len() >= upto => {
            Arc::make_mut(frame)[within..upto].copy_from_slice(chunk);
        }
        _ => {
            let old = slot.as_deref().unwrap_or_default();
            let kept = old.len().min(within);
            let mut page = [0; PAGE_SIZE as usize];
            page[..kept].copy_from_slice(&old[..kept]);
            page[within..upto].copy_from_slice(chunk);
            *slot = Some(Frame::from(&page[..upto]));
        }
    }
}

/// Server-side state for one file.
///
/// The authoritative contents are a block table, one optional [`Frame`]
/// per `PAGE_SIZE` block, plus the written length. A block's frame holds
/// only the written prefix of that block, so a short file tail stays
/// short; bytes past a frame's end, and blocks never written, read as
/// zeros up to the written length. Reads return exactly what one
/// contiguous, zero-extended image would.
#[derive(Debug)]
pub struct ServerFile {
    blocks: Vec<Option<Frame>>,
    /// End of the furthest write, zero-length writes included.
    written: u64,
    /// Bumped each time a client opens the file for writing; clients use it
    /// to detect stale cached blocks (sequential write-sharing).
    pub version: u64,
    /// What kind of object this is.
    pub kind: FileKind,
    /// False when concurrent write-sharing has disabled client caching.
    pub cacheable: bool,
    /// Which hosts have the file open, per mode.
    pub opens: Vec<OpenRecord>,
    /// The client that most recently had the file open for writing (it may
    /// hold dirty blocks the server must recall before another host reads).
    pub last_writer: Option<HostId>,
    /// Size including delayed writes still cached at clients. Size updates
    /// travel with write RPC batches in the real system, so the server's
    /// notion of length is current even when data is not.
    noted_size: u64,
}

impl ServerFile {
    fn new(kind: FileKind) -> Self {
        ServerFile {
            blocks: Vec::new(),
            written: 0,
            version: 1,
            kind,
            cacheable: !matches!(kind, FileKind::Pseudo { .. }),
            opens: Vec::new(),
            last_writer: None,
            noted_size: 0,
        }
    }

    /// The file's logical length, counting delayed writes still cached at
    /// clients.
    pub fn logical_size(&self) -> u64 {
        self.noted_size.max(self.written)
    }

    /// Records that a client's cached write extended the file to `end`.
    pub fn note_logical_size(&mut self, end: u64) {
        self.noted_size = self.noted_size.max(end);
    }

    /// Hosts with the file open at all.
    pub(crate) fn open_hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        let mut seen = DetHashSet::default();
        self.opens
            .iter()
            .filter(move |r| seen.insert(r.host))
            .map(|r| r.host)
    }

    /// Hosts with the file open for writing.
    pub(crate) fn writer_hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        let mut seen = DetHashSet::default();
        self.opens
            .iter()
            .filter(|r| r.mode.writes())
            .filter(move |r| seen.insert(r.host))
            .map(|r| r.host)
    }

    /// True if distinct hosts share the file while at least one writes —
    /// the condition under which Sprite disables caching.
    pub(crate) fn concurrently_write_shared(&self) -> bool {
        let Some(first) = self.opens.first() else {
            return false;
        };
        self.opens.iter().any(|r| r.host != first.host)
            && self.opens.iter().any(|r| r.mode.writes())
    }

    fn add_open(&mut self, host: HostId, mode: OpenMode) {
        if let Some(r) = self
            .opens
            .iter_mut()
            .find(|r| r.host == host && r.mode == mode)
        {
            r.count += 1;
        } else {
            self.opens.push(OpenRecord {
                host,
                mode,
                count: 1,
            });
        }
    }

    fn remove_open(&mut self, host: HostId, mode: OpenMode) -> bool {
        if let Some(pos) = self
            .opens
            .iter()
            .position(|r| r.host == host && r.mode == mode)
        {
            self.opens[pos].count -= 1;
            if self.opens[pos].count == 0 {
                self.opens.remove(pos);
            }
            true
        } else {
            false
        }
    }

    /// Reads `len` bytes at `offset` (short reads at end of file).
    pub fn read_at(&self, offset: u64, len: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.read_into(offset, len, &mut out);
        out
    }

    /// Appends the bytes [`ServerFile::read_at`] would return to `out`.
    pub(crate) fn read_into(&self, offset: u64, len: u64, out: &mut Vec<u8>) {
        let end = offset.saturating_add(len).min(self.written);
        let mut pos = offset.min(end);
        out.reserve((end - pos) as usize);
        while pos < end {
            let block = pos / PAGE_SIZE;
            let block_start = block * PAGE_SIZE;
            let from = (pos - block_start) as usize;
            let to = ((end - block_start).min(PAGE_SIZE)) as usize;
            let stored = self.stored(block);
            let bytes = &stored[from.min(stored.len())..to.min(stored.len())];
            out.extend_from_slice(bytes);
            out.resize(out.len() + (to - from - bytes.len()), 0);
            pos = block_start + to as u64;
        }
    }

    /// Writes `bytes` at `offset`, growing the file if needed. A write
    /// covering a block's whole written prefix stores a fresh frame; any
    /// other copies the block's frame on write (see `write_frame`).
    pub fn write_at(&mut self, offset: u64, bytes: &[u8]) {
        let end = offset + bytes.len() as u64;
        self.written = self.written.max(end);
        let mut pos = offset;
        while pos < end {
            let block = pos / PAGE_SIZE;
            let block_start = block * PAGE_SIZE;
            let within = (pos - block_start) as usize;
            let upto = ((end - block_start).min(PAGE_SIZE)) as usize;
            let src = (pos - offset) as usize;
            write_frame(self.slot(block), within, &bytes[src..src + (upto - within)]);
            pos = block_start + upto as u64;
        }
    }

    /// Stores `frame` as block `block` by reference, exactly as
    /// `write_at(block * PAGE_SIZE, &frame)` would store its bytes. A frame
    /// shorter than a page is written by copy.
    pub fn put_frame(&mut self, block: u64, frame: Frame) {
        if frame.len() == PAGE_SIZE as usize {
            self.written = self.written.max((block + 1) * PAGE_SIZE);
            *self.slot(block) = Some(frame);
        } else {
            self.write_at(block * PAGE_SIZE, &frame);
        }
    }

    /// Block `block` as a full page: the stored frame itself when the block
    /// was written whole, a zero-filled copy for a short tail, a gap or a
    /// block past the end of the file.
    pub fn frame(&self, block: u64) -> Frame {
        match self.block_frame(block) {
            Some(frame) if frame.len() == PAGE_SIZE as usize => Arc::clone(frame),
            _ => {
                let mut page = self.read_block(block);
                page.resize(PAGE_SIZE as usize, 0);
                Frame::from(page)
            }
        }
    }

    /// Reads one whole block (short at end of file).
    pub fn read_block(&self, block: u64) -> Vec<u8> {
        self.read_at(block * PAGE_SIZE, PAGE_SIZE)
    }

    /// The bytes [`ServerFile::read_block`] returns, as a frame, or `None`
    /// when they are empty. The stored frame itself when it holds exactly
    /// those bytes (a whole block, or a written short tail); a copy when
    /// they run past it into zeros (a gap, or a stored prefix shorter than
    /// the written length).
    pub(crate) fn read_block_frame(&self, block: u64) -> Option<Frame> {
        let len = self
            .written
            .saturating_sub(block * PAGE_SIZE)
            .min(PAGE_SIZE) as usize;
        if len == 0 {
            return None;
        }
        match self.block_frame(block) {
            Some(frame) if frame.len() == len => Some(Arc::clone(frame)),
            _ => {
                let stored = self.stored(block);
                let mut page = [0; PAGE_SIZE as usize];
                page[..stored.len()].copy_from_slice(stored);
                Some(Frame::from(&page[..len]))
            }
        }
    }

    fn block_frame(&self, block: u64) -> Option<&Frame> {
        self.blocks.get(block as usize)?.as_ref()
    }

    /// The written prefix of block `block` (empty if never written).
    fn stored(&self, block: u64) -> &[u8] {
        self.block_frame(block).map_or(&[], |f| f)
    }

    fn slot(&mut self, block: u64) -> &mut Option<Frame> {
        let i = block as usize;
        if self.blocks.len() <= i {
            self.blocks.resize(i + 1, None);
        }
        &mut self.blocks[i]
    }
}

/// Consistency work a client open triggers, computed by the server.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConsistencyActions {
    /// Hosts that must flush their dirty blocks of the file to the server
    /// before the open completes (sequential write-sharing).
    pub flush_from: Vec<HostId>,
    /// Hosts that must drop all cached blocks of the file because caching
    /// is now disabled (concurrent write-sharing), including the opener.
    pub invalidate_on: Vec<HostId>,
    /// Whether the file is cacheable after this open.
    pub cacheable: bool,
    /// True when the opener's own cached blocks are still current — nobody
    /// else wrote the file since the opener last did. The opener may then
    /// keep its cache across the version bump instead of refetching.
    pub opener_cache_current: bool,
}

/// One file server.
#[derive(Debug)]
pub struct ServerState {
    /// The machine this server runs on.
    pub host: HostId,
    /// The server's CPU; lookups and block service queue here.
    pub cpu: SlottedResource,
    namespace: DetHashMap<SpritePath, FileId>,
    files: DetHashMap<FileId, ServerFile>,
    /// Server main-memory block cache residency, in LRU order. Contents
    /// always live in `files`; this set only decides whether service costs
    /// a disk access.
    mem_cache: Recency<(FileId, u64)>,
    mem_capacity: usize,
    disk_reads: u64,
    block_ops: u64,
}

impl ServerState {
    /// Creates a server on `host` with a block cache of `mem_capacity`
    /// blocks.
    pub fn new(host: HostId, mem_capacity: usize) -> Self {
        ServerState {
            host,
            cpu: SlottedResource::new(),
            namespace: DetHashMap::default(),
            files: DetHashMap::default(),
            mem_cache: Recency::new(),
            mem_capacity: mem_capacity.max(1),
            disk_reads: 0,
            block_ops: 0,
        }
    }

    /// Registers a new file under `path`. Returns `None` if the name exists.
    pub fn create(&mut self, path: SpritePath, id: FileId, kind: FileKind) -> Option<FileId> {
        if self.namespace.contains_key(&path) {
            return None;
        }
        self.namespace.insert(path, id);
        self.files.insert(id, ServerFile::new(kind));
        Some(id)
    }

    /// Looks a path up in this server's namespace.
    pub fn lookup(&self, path: &SpritePath) -> Option<FileId> {
        self.namespace.get(path).copied()
    }

    /// Removes a name and its file. Returns true if it existed.
    pub fn unlink(&mut self, path: &SpritePath) -> bool {
        if let Some(id) = self.namespace.remove(path) {
            self.files.remove(&id);
            self.mem_cache.retain(|(f, _)| *f != id);
            true
        } else {
            false
        }
    }

    /// Accesses a file's state.
    pub fn file(&self, id: FileId) -> Option<&ServerFile> {
        self.files.get(&id)
    }

    /// Mutable access to a file's state.
    pub fn file_mut(&mut self, id: FileId) -> Option<&mut ServerFile> {
        self.files.get_mut(&id)
    }

    /// Number of files stored.
    pub(crate) fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Total disk reads performed (server cache misses).
    pub(crate) fn disk_reads(&self) -> u64 {
        self.disk_reads
    }

    /// Total time requests waited for this server's CPU: each one's wait
    /// from its arrival at the server to the start of its service.
    pub(crate) fn queue_wait(&self) -> SimDuration {
        self.cpu.wait_time()
    }

    /// Block touches served by this server (memory cache hits and misses).
    pub fn block_ops(&self) -> u64 {
        self.block_ops
    }

    /// The consistency actions an open by `host` in `mode` needs, computed
    /// as if its open record were already added. The caller carries them
    /// out and only then commits the open with
    /// [`ServerState::commit_open`]; this changes nothing, so an open whose
    /// actions fail leaves no record, version bump or last writer behind.
    ///
    /// # Panics
    ///
    /// Panics if the file does not exist (callers look up first).
    pub(crate) fn grant_open(
        &self,
        id: FileId,
        host: HostId,
        mode: OpenMode,
    ) -> ConsistencyActions {
        let file = self.files.get(&id).expect("open of unknown file");
        // Sequential write-sharing: a different host wrote this file last
        // and may hold dirty blocks; recall them so this open sees current
        // data [NWO88].
        let flush_from = file
            .last_writer
            .filter(|&w| w != host)
            .into_iter()
            .collect();
        // Concurrent write-sharing once the record is added: caching is
        // disabled for every host holding the file, the opener included.
        let shared = file.opens.iter().any(|r| r.host != host)
            && (mode.writes() || file.opens.iter().any(|r| r.mode.writes()));
        let mut invalidate_on = Vec::new();
        if shared && file.cacheable {
            invalidate_on.extend(file.open_hosts());
            if !invalidate_on.contains(&host) {
                invalidate_on.push(host);
            }
        }
        ConsistencyActions {
            flush_from,
            invalidate_on,
            cacheable: file.cacheable && !shared,
            opener_cache_current: file.last_writer.is_none_or(|w| w == host),
        }
    }

    /// Commits an open [`ServerState::grant_open`] granted: adds `host`'s
    /// record, and for a write open bumps the version and makes `host` the
    /// last writer; concurrent write-sharing disables caching. Returns the
    /// version the file had before the commit.
    ///
    /// # Panics
    ///
    /// Panics if the file does not exist.
    pub(crate) fn commit_open(&mut self, id: FileId, host: HostId, mode: OpenMode) -> u64 {
        let file = self.files.get_mut(&id).expect("open of unknown file");
        let replaced = file.version;
        file.add_open(host, mode);
        if mode.writes() {
            file.version += 1;
            file.last_writer = Some(host);
        }
        if file.concurrently_write_shared() {
            file.cacheable = false;
        }
        replaced
    }

    /// Registers a close by `host`. Re-enables caching when the file is no
    /// longer concurrently write-shared. Returns false for a bogus close.
    pub fn close(&mut self, id: FileId, host: HostId, mode: OpenMode) -> bool {
        let Some(file) = self.files.get_mut(&id) else {
            return false;
        };
        let ok = file.remove_open(host, mode);
        if ok && !file.concurrently_write_shared() {
            file.cacheable = true;
        }
        ok
    }

    /// Moves an open record of a migrating stream to `to`: from `from`
    /// when the source host dropped its last reference, or as an added
    /// record when the source keeps one (the stream is now shared). Part
    /// of the stream-migration protocol (Ch. 5.3): the I/O server is the
    /// one place that atomically updates which host holds the stream. No
    /// recall runs (the protocol already flushed the source host). Returns
    /// false, changing nothing, for a file the server does not store or a
    /// `from` record it does not hold.
    pub(crate) fn move_open(
        &mut self,
        id: FileId,
        from: Option<HostId>,
        to: HostId,
        mode: OpenMode,
    ) -> bool {
        let Some(file) = self.files.get_mut(&id) else {
            return false;
        };
        if from.is_some_and(|from| !file.remove_open(from, mode)) {
            return false;
        }
        file.add_open(to, mode);
        if mode.writes() {
            // A write stream arriving on a new host is a write-open for
            // consistency purposes: bump the version so blocks cached
            // elsewhere under the old version read as stale.
            file.version += 1;
            file.last_writer = Some(to);
        }
        // Migration can create or destroy concurrent write-sharing.
        file.cacheable = !file.concurrently_write_shared();
        true
    }

    /// Touches a block in the server memory cache; returns true if it was
    /// resident (no disk access needed).
    pub(crate) fn touch_block(&mut self, id: FileId, block: u64) -> bool {
        self.block_ops += 1;
        // `block_ops` never resets, so it doubles as the recency stamp.
        if self.mem_cache.touch((id, block), self.block_ops) {
            return true;
        }
        self.disk_reads += 1;
        while self.mem_cache.len() > self.mem_capacity {
            self.mem_cache.pop_oldest();
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> ServerState {
        ServerState::new(HostId::new(0), 64)
    }

    /// Grants and commits an open, as `SpriteFs::open` does when its
    /// consistency actions succeed.
    fn open(s: &mut ServerState, id: FileId, host: HostId, mode: OpenMode) -> ConsistencyActions {
        let actions = s.grant_open(id, host, mode);
        s.commit_open(id, host, mode);
        actions
    }

    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    #[test]
    fn create_lookup_unlink() {
        let mut s = server();
        let p = SpritePath::new("/a/b");
        assert!(s
            .create(p.clone(), FileId::new(1), FileKind::Regular)
            .is_some());
        assert!(s
            .create(p.clone(), FileId::new(2), FileKind::Regular)
            .is_none());
        assert_eq!(s.lookup(&p), Some(FileId::new(1)));
        assert!(s.unlink(&p));
        assert!(!s.unlink(&p));
        assert_eq!(s.lookup(&p), None);
    }

    #[test]
    fn read_write_round_trip() {
        let mut f = ServerFile::new(FileKind::Regular);
        f.write_at(10, b"hello");
        assert_eq!(f.logical_size(), 15);
        assert_eq!(f.read_at(10, 5), b"hello");
        assert_eq!(f.read_at(12, 100), b"llo");
        assert_eq!(f.read_at(100, 5), b"");
    }

    #[test]
    fn single_host_open_is_cacheable_with_no_actions() {
        let mut s = server();
        s.create(SpritePath::new("/f"), FileId::new(1), FileKind::Regular);
        let a = open(&mut s, FileId::new(1), h(1), OpenMode::ReadWrite);
        assert!(a.cacheable);
        assert!(a.flush_from.is_empty());
        assert!(a.invalidate_on.is_empty());
    }

    #[test]
    fn sequential_write_sharing_recalls_from_last_writer() {
        let mut s = server();
        s.create(SpritePath::new("/f"), FileId::new(1), FileKind::Regular);
        open(&mut s, FileId::new(1), h(1), OpenMode::Write);
        s.close(FileId::new(1), h(1), OpenMode::Write);
        let a = open(&mut s, FileId::new(1), h(2), OpenMode::Read);
        assert_eq!(a.flush_from, vec![h(1)]);
        assert!(a.cacheable, "no concurrent sharing, still cacheable");
    }

    #[test]
    fn write_open_bumps_version() {
        let mut s = server();
        s.create(SpritePath::new("/f"), FileId::new(1), FileKind::Regular);
        let v0 = s.file(FileId::new(1)).unwrap().version;
        open(&mut s, FileId::new(1), h(1), OpenMode::Write);
        assert_eq!(s.file(FileId::new(1)).unwrap().version, v0 + 1);
        open(&mut s, FileId::new(1), h(1), OpenMode::Read);
        assert_eq!(s.file(FileId::new(1)).unwrap().version, v0 + 1);
    }

    #[test]
    fn concurrent_write_sharing_disables_caching() {
        let mut s = server();
        s.create(SpritePath::new("/f"), FileId::new(1), FileKind::Regular);
        open(&mut s, FileId::new(1), h(1), OpenMode::Write);
        let a = open(&mut s, FileId::new(1), h(2), OpenMode::Read);
        assert!(!a.cacheable);
        let mut inv = a.invalidate_on.clone();
        inv.sort();
        assert_eq!(inv, vec![h(1), h(2)]);
    }

    #[test]
    fn caching_reenabled_after_sharing_ends() {
        let mut s = server();
        s.create(SpritePath::new("/f"), FileId::new(1), FileKind::Regular);
        open(&mut s, FileId::new(1), h(1), OpenMode::Write);
        open(&mut s, FileId::new(1), h(2), OpenMode::Read);
        assert!(!s.file(FileId::new(1)).unwrap().cacheable);
        s.close(FileId::new(1), h(1), OpenMode::Write);
        assert!(s.file(FileId::new(1)).unwrap().cacheable);
    }

    #[test]
    fn move_open_transfers_sharing() {
        let mut s = server();
        s.create(SpritePath::new("/f"), FileId::new(1), FileKind::Regular);
        open(&mut s, FileId::new(1), h(1), OpenMode::Write);
        assert!(s.move_open(FileId::new(1), Some(h(1)), h(2), OpenMode::Write));
        let f = s.file(FileId::new(1)).unwrap();
        assert_eq!(f.open_hosts().collect::<Vec<_>>(), vec![h(2)]);
        assert_eq!(f.last_writer, Some(h(2)));
        assert!(f.cacheable);
        assert!(!s.move_open(FileId::new(1), Some(h(1)), h(3), OpenMode::Write));
    }

    #[test]
    fn migration_can_end_concurrent_sharing() {
        let mut s = server();
        s.create(SpritePath::new("/f"), FileId::new(1), FileKind::Regular);
        open(&mut s, FileId::new(1), h(1), OpenMode::Write);
        open(&mut s, FileId::new(1), h(2), OpenMode::Read);
        assert!(!s.file(FileId::new(1)).unwrap().cacheable);
        // The writer migrates to the reader's host: sharing collapses.
        s.move_open(FileId::new(1), Some(h(1)), h(2), OpenMode::Write);
        assert!(s.file(FileId::new(1)).unwrap().cacheable);
    }

    /// A residency set plus a queue in touch order, refreshed by a linear
    /// search: the reference for every hit, miss and victim of
    /// `touch_block`.
    struct ScanLru {
        resident: DetHashSet<(FileId, u64)>,
        order: std::collections::VecDeque<(FileId, u64)>,
        capacity: usize,
    }

    impl ScanLru {
        fn touch(&mut self, key: (FileId, u64)) -> bool {
            if self.resident.contains(&key) {
                let pos = self.order.iter().position(|k| *k == key).unwrap();
                self.order.remove(pos);
                self.order.push_back(key);
                return true;
            }
            self.resident.insert(key);
            self.order.push_back(key);
            while self.resident.len() > self.capacity {
                let old = self.order.pop_front().unwrap();
                self.resident.remove(&old);
            }
            false
        }

        fn unlink(&mut self, id: FileId) {
            self.resident.retain(|(f, _)| *f != id);
            self.order.retain(|(f, _)| *f != id);
        }
    }

    #[test]
    fn server_memory_cache_lru() {
        let mut s = ServerState::new(h(0), 2);
        assert!(!s.touch_block(FileId::new(1), 0), "first touch misses");
        assert!(s.touch_block(FileId::new(1), 0), "second touch hits");
        s.touch_block(FileId::new(1), 1);
        // LRU order after touches: 0 (hit), 1, 2 -> capacity 2 keeps {1,2}.
        s.touch_block(FileId::new(1), 2);
        assert!(!s.touch_block(FileId::new(1), 0), "block 0 was evicted");
        assert_eq!(s.disk_reads(), 4);

        // Differential: DetRng traces over four files, with unlinks that
        // re-create the file under the same id, at capacity 8.
        for seed in 0..32 {
            let mut rng = sprite_sim::DetRng::seed_from(seed);
            let mut s = ServerState::new(h(0), 8);
            let mut reference = ScanLru {
                resident: DetHashSet::default(),
                order: Default::default(),
                capacity: 8,
            };
            let paths: Vec<SpritePath> =
                (0..4).map(|i| SpritePath::new(format!("/f{i}"))).collect();
            for (i, p) in paths.iter().enumerate() {
                s.create(p.clone(), FileId::new(i as u64), FileKind::Regular);
            }
            let (mut touches, mut misses) = (0, 0);
            for op in 0..2_000 {
                let f = rng.pick_index(4);
                let id = FileId::new(f as u64);
                if rng.chance(0.02) {
                    assert!(s.unlink(&paths[f]));
                    reference.unlink(id);
                    s.create(paths[f].clone(), id, FileKind::Regular);
                } else {
                    let key = (id, rng.uniform_u64(6));
                    let hit = s.touch_block(key.0, key.1);
                    assert_eq!(hit, reference.touch(key), "seed {seed} op {op}: {key:?}");
                    touches += 1;
                    misses += u64::from(!hit);
                }
                assert_eq!(s.disk_reads(), misses, "seed {seed} op {op}");
                assert_eq!(s.block_ops(), touches, "seed {seed} op {op}");
            }
        }
    }

    #[test]
    fn double_close_rejected() {
        let mut s = server();
        s.create(SpritePath::new("/f"), FileId::new(1), FileKind::Regular);
        open(&mut s, FileId::new(1), h(1), OpenMode::Read);
        assert!(s.close(FileId::new(1), h(1), OpenMode::Read));
        assert!(!s.close(FileId::new(1), h(1), OpenMode::Read));
    }
}
