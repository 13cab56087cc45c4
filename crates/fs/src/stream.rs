//! Streams and shadow streams.
//!
//! A *stream* is Sprite's open-file object: it names a file, an access mode
//! and an access position. Streams are shared — `fork` gives parent and
//! child the *same* stream, so they share one access position. Process
//! migration can therefore leave a single stream referenced from two hosts;
//! when that happens the access position can no longer live safely in either
//! kernel, so Sprite moves it to the I/O server and marks the client-side
//! objects as *shadow streams* \[Wel90\]. Every subsequent read or write pays
//! a server round trip to use the shared offset — a genuine, measurable cost
//! of transparency that experiment E3/E12 quantifies.
//!
//! The table itself is a *generational slab*: a [`StreamId`] embeds the slot
//! index and the slot's generation at open time. Lookups are one bounds
//! check and one generation compare — no hashing — and a stale id (a stream
//! closed and its slot reused) fails the generation compare instead of
//! silently resolving to the unrelated stream now in that slot.

use std::cell::Cell;
use std::fmt;

use sprite_net::HostId;
use sprite_sim::StateDigest;

use crate::{FileId, FileKind, OpenMode};

/// Identifies one stream (open-file object) network-wide.
///
/// Packs `(slot, generation)` into 64 bits: the low half indexes the stream
/// table's slab, the high half must match the slot's current generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(u64);

impl StreamId {
    pub(crate) const fn pack(slot: u32, gen: u32) -> Self {
        StreamId(((gen as u64) << 32) | slot as u64)
    }

    pub(crate) const fn slot(self) -> u32 {
        self.0 as u32
    }

    pub(crate) const fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The raw packed identifier value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream{}.{}", self.slot(), self.generation())
    }
}

/// One open-file object, possibly referenced from several hosts.
#[derive(Debug, Clone)]
pub struct Stream {
    /// The file this stream reads/writes.
    pub file: FileId,
    /// The I/O server managing the file.
    pub server: HostId,
    /// Access mode fixed at open time.
    pub mode: OpenMode,
    /// What kind of object the file is.
    pub kind: FileKind,
    offset: u64,
    /// Reference counts per holding host (fork shares within a host;
    /// migration moves references between hosts). Almost always one or two
    /// entries, so a flat vector beats any map.
    holders: Vec<(HostId, u32)>,
}

impl Stream {
    /// Current access position.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Sets the access position (lseek).
    pub fn set_offset(&mut self, offset: u64) {
        self.offset = offset;
    }

    /// Advances the access position after a transfer of `n` bytes.
    pub fn advance(&mut self, n: u64) {
        self.offset += n;
    }

    /// Total references across all hosts.
    pub fn total_refs(&self) -> u32 {
        self.holders.iter().map(|(_, n)| n).sum()
    }

    /// References held by one host.
    pub fn refs_on(&self, host: HostId) -> u32 {
        self.holders
            .iter()
            .find(|(h, _)| *h == host)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// True when references exist on more than one host: the access
    /// position must then be managed at the I/O server (shadow streams).
    pub fn is_shadowed(&self) -> bool {
        self.holders.len() > 1
    }

    fn add_holder(&mut self, host: HostId, n: u32) {
        match self.holders.iter_mut().find(|(h, _)| *h == host) {
            Some((_, count)) => *count += n,
            None => self.holders.push((host, n)),
        }
    }

    /// Drops `n` references from `host`; returns `None` if the host holds
    /// fewer than `n`, otherwise whether the host dropped its last reference.
    fn drop_holder(&mut self, host: HostId, n: u32) -> Option<bool> {
        let pos = self.holders.iter().position(|(h, _)| *h == host)?;
        if self.holders[pos].1 < n {
            return None;
        }
        self.holders[pos].1 -= n;
        if self.holders[pos].1 == 0 {
            self.holders.remove(pos);
            Some(true)
        } else {
            Some(false)
        }
    }
}

/// One slab slot: the generation counts how many streams have lived here.
#[derive(Debug, Default)]
struct StreamSlot {
    gen: u32,
    stream: Option<Stream>,
}

/// The network-wide table of streams, as a generational slab.
///
/// In the real system each kernel has its own stream table with shadow
/// entries at servers; one logical table with per-host reference counts is
/// observationally equivalent in a single-address-space simulation and makes
/// the sharing invariants directly checkable.
#[derive(Debug, Default)]
pub struct StreamTable {
    slots: Vec<StreamSlot>,
    free: Vec<u32>,
    live: usize,
    high_water: usize,
    stale_lookups: Cell<u64>,
}

impl StreamTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        StreamTable::default()
    }

    /// Creates a stream for `host` on `file`.
    pub fn open(
        &mut self,
        file: FileId,
        server: HostId,
        kind: FileKind,
        mode: OpenMode,
        host: HostId,
    ) -> StreamId {
        let stream = Stream {
            file,
            server,
            mode,
            kind,
            offset: 0,
            holders: vec![(host, 1)],
        };
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(StreamSlot::default());
                (self.slots.len() - 1) as u32
            }
        };
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.stream.is_none(), "allocated a live slot");
        s.stream = Some(stream);
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        StreamId::pack(slot, s.gen)
    }

    /// Looks up a stream. Stale ids (the slot was reused since this id was
    /// minted) return `None`, never another stream.
    pub fn get(&self, id: StreamId) -> Option<&Stream> {
        let s = self.slots.get(id.slot() as usize)?;
        if s.gen != id.generation() {
            self.stale_lookups.set(self.stale_lookups.get() + 1);
            return None;
        }
        s.stream.as_ref()
    }

    /// Mutable access to a stream.
    pub fn get_mut(&mut self, id: StreamId) -> Option<&mut Stream> {
        let s = self.slots.get_mut(id.slot() as usize)?;
        if s.gen != id.generation() {
            self.stale_lookups.set(self.stale_lookups.get() + 1);
            return None;
        }
        s.stream.as_mut()
    }

    /// Number of live streams.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no streams are open.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Most streams ever simultaneously open (slab occupancy high-water).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Slots allocated (live + free); the slab's memory footprint.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Lookups that presented a stale (reused-slot) identifier.
    pub fn stale_lookups(&self) -> u64 {
        self.stale_lookups.get()
    }

    fn retire(&mut self, id: StreamId) {
        let slot = &mut self.slots[id.slot() as usize];
        debug_assert_eq!(slot.gen, id.generation(), "retiring a stale id");
        slot.stream = None;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(id.slot());
        self.live -= 1;
    }

    /// Adds a reference from `host` (fork duplicating a descriptor).
    /// Returns false for an unknown stream.
    pub fn add_ref(&mut self, id: StreamId, host: HostId) -> bool {
        match self.get_mut(id) {
            Some(s) => {
                s.add_holder(host, 1);
                true
            }
            None => false,
        }
    }

    /// Drops one reference from `host`. Returns what remains.
    pub fn release(&mut self, id: StreamId, host: HostId) -> ReleaseOutcome {
        let Some(s) = self.get_mut(id) else {
            return ReleaseOutcome::UnknownStream;
        };
        let Some(host_dropped) = s.drop_holder(host, 1) else {
            return ReleaseOutcome::NotAHolder;
        };
        if s.holders.is_empty() {
            self.retire(id);
            ReleaseOutcome::StreamClosed
        } else {
            let shadowed = s.is_shadowed();
            ReleaseOutcome::StillOpen {
                host_dropped_file_ref: host_dropped,
                shadowed,
            }
        }
    }

    /// Moves `n` references from `from` to `to` (process migration).
    /// Returns the stream's shadowing state after the move, or `None` if the
    /// stream or references do not exist.
    pub fn move_refs(
        &mut self,
        id: StreamId,
        from: HostId,
        to: HostId,
        n: u32,
    ) -> Option<MoveOutcome> {
        let s = self.get_mut(id)?;
        if s.refs_on(from) < n {
            return None;
        }
        let from_dropped = s.drop_holder(from, n).expect("refs checked");
        s.add_holder(to, n);
        Some(MoveOutcome {
            shadowed: s.is_shadowed(),
            from_dropped_file_ref: from_dropped,
        })
    }

    /// Iterates over all live streams in slot order (diagnostics, invariant
    /// checks).
    pub fn iter(&self) -> impl Iterator<Item = (StreamId, &Stream)> {
        self.slots.iter().enumerate().filter_map(|(i, slot)| {
            slot.stream
                .as_ref()
                .map(|s| (StreamId::pack(i as u32, slot.gen), s))
        })
    }

    /// Folds every live stream (in slot order) plus the slab's occupancy
    /// counters into `d`.
    pub fn digest_into(&self, d: &mut StateDigest) {
        let Self {
            slots,
            free: _, // derivable from slots (the vacant ids)
            live,
            high_water,
            stale_lookups,
        } = self;
        d.write_usize(*live);
        d.write_usize(*high_water);
        d.write_usize(slots.len());
        d.write_u64(stale_lookups.get());
        for (id, s) in self.iter() {
            d.write_u64(id.raw());
            d.write_u64(s.file.raw());
            d.write_usize(s.server.index());
            d.write_u8(s.mode as u8);
            match s.kind {
                FileKind::Regular => d.write_u8(0),
                FileKind::Backing => d.write_u8(1),
                FileKind::Pseudo {
                    server_process_host,
                } => {
                    d.write_u8(2);
                    d.write_usize(server_process_host.index());
                }
            }
            d.write_u64(s.offset);
            d.write_usize(s.holders.len());
            for &(host, refs) in &s.holders {
                d.write_usize(host.index());
                d.write_u32(refs);
            }
        }
    }
}

/// Result of dropping a stream reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseOutcome {
    /// No such stream.
    UnknownStream,
    /// The host did not hold a reference.
    NotAHolder,
    /// The last reference anywhere disappeared; the file close should
    /// propagate to the server.
    StreamClosed,
    /// References remain.
    StillOpen {
        /// This host dropped its last reference (server open-record for the
        /// host should be released).
        host_dropped_file_ref: bool,
        /// Whether the stream is still shadowed after the release.
        shadowed: bool,
    },
}

/// Result of migrating stream references between hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveOutcome {
    /// True if the stream is now referenced from more than one host and the
    /// access position must be managed at the I/O server.
    pub shadowed: bool,
    /// True if the source host no longer references the stream at all.
    pub from_dropped_file_ref: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    fn table_with_stream() -> (StreamTable, StreamId) {
        let mut t = StreamTable::new();
        let id = t.open(
            FileId::new(1),
            h(0),
            FileKind::Regular,
            OpenMode::ReadWrite,
            h(1),
        );
        (t, id)
    }

    #[test]
    fn open_creates_single_holder() {
        let (t, id) = table_with_stream();
        let s = t.get(id).unwrap();
        assert_eq!(s.total_refs(), 1);
        assert_eq!(s.refs_on(h(1)), 1);
        assert!(!s.is_shadowed());
        assert_eq!(s.offset(), 0);
    }

    #[test]
    fn fork_shares_offset() {
        let (mut t, id) = table_with_stream();
        assert!(t.add_ref(id, h(1)));
        t.get_mut(id).unwrap().advance(100);
        let s = t.get(id).unwrap();
        assert_eq!(s.total_refs(), 2);
        assert_eq!(s.offset(), 100, "parent and child share one position");
        assert!(!s.is_shadowed(), "same-host sharing needs no shadow");
    }

    #[test]
    fn migration_of_one_ref_creates_shadow() {
        let (mut t, id) = table_with_stream();
        t.add_ref(id, h(1)); // forked child stays home
        let outcome = t.move_refs(id, h(1), h(2), 1).unwrap();
        assert!(outcome.shadowed, "refs now on two hosts");
        assert!(!outcome.from_dropped_file_ref);
        assert!(t.get(id).unwrap().is_shadowed());
    }

    #[test]
    fn migration_of_sole_ref_does_not_shadow() {
        let (mut t, id) = table_with_stream();
        let outcome = t.move_refs(id, h(1), h(2), 1).unwrap();
        assert!(!outcome.shadowed);
        assert!(outcome.from_dropped_file_ref);
        assert_eq!(t.get(id).unwrap().refs_on(h(2)), 1);
    }

    #[test]
    fn move_more_refs_than_held_fails() {
        let (mut t, id) = table_with_stream();
        assert!(t.move_refs(id, h(1), h(2), 2).is_none());
        assert!(t.move_refs(id, h(9), h(2), 1).is_none());
    }

    #[test]
    fn release_sequences() {
        let (mut t, id) = table_with_stream();
        t.add_ref(id, h(1));
        t.move_refs(id, h(1), h(2), 1);
        // Two holders now: h1 x1, h2 x1.
        match t.release(id, h(1)) {
            ReleaseOutcome::StillOpen {
                host_dropped_file_ref,
                shadowed,
            } => {
                assert!(host_dropped_file_ref);
                assert!(!shadowed, "back to a single host");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(t.release(id, h(2)), ReleaseOutcome::StreamClosed);
        assert_eq!(t.release(id, h(2)), ReleaseOutcome::UnknownStream);
        assert!(t.is_empty());
    }

    #[test]
    fn release_by_non_holder() {
        let (mut t, id) = table_with_stream();
        assert_eq!(t.release(id, h(5)), ReleaseOutcome::NotAHolder);
    }

    #[test]
    fn shadow_collapses_when_refs_reunite() {
        let (mut t, id) = table_with_stream();
        t.add_ref(id, h(1));
        t.move_refs(id, h(1), h(2), 1);
        assert!(t.get(id).unwrap().is_shadowed());
        // The stay-home process migrates to join the other: one host again.
        let outcome = t.move_refs(id, h(1), h(2), 1).unwrap();
        assert!(!outcome.shadowed);
        assert_eq!(t.get(id).unwrap().refs_on(h(2)), 2);
    }

    #[test]
    fn stale_id_does_not_resolve_after_slot_reuse() {
        let (mut t, id) = table_with_stream();
        assert_eq!(t.release(id, h(1)), ReleaseOutcome::StreamClosed);
        // The next open reuses the freed slot at a new generation.
        let id2 = t.open(
            FileId::new(2),
            h(0),
            FileKind::Regular,
            OpenMode::Read,
            h(2),
        );
        assert_eq!(id2.slot(), id.slot(), "slot was reused");
        assert_ne!(id2.generation(), id.generation());
        assert!(t.get(id).is_none(), "stale id must not resolve");
        assert!(t.get_mut(id).is_none());
        assert!(!t.add_ref(id, h(1)));
        assert_eq!(t.release(id, h(2)), ReleaseOutcome::UnknownStream);
        assert_eq!(t.get(id2).unwrap().file, FileId::new(2));
        assert!(t.stale_lookups() >= 3);
    }

    #[test]
    fn occupancy_high_water_tracks_peak() {
        let mut t = StreamTable::new();
        let ids: Vec<StreamId> = (0..5)
            .map(|i| {
                t.open(
                    FileId::new(i),
                    h(0),
                    FileKind::Regular,
                    OpenMode::Read,
                    h(1),
                )
            })
            .collect();
        assert_eq!(t.high_water(), 5);
        for id in &ids {
            t.release(*id, h(1));
        }
        assert!(t.is_empty());
        assert_eq!(t.high_water(), 5, "high water survives the drain");
        assert_eq!(t.capacity(), 5, "slots are recycled, not dropped");
    }
}
