//! The calendar queue — the workspace's pending-event set.
//!
//! Month-long runs execute tens of millions of events, so this is the
//! hottest data structure in the repository. Instead of a binary heap
//! (O(log n) per operation) the queue keeps an array of time buckets, each
//! `width` microseconds wide, covering one "year" of `nbuckets * width`
//! microseconds (Brown 1988). Enqueue drops an entry into the bucket its
//! timestamp maps to — O(1). When the cursor reaches a non-empty bucket,
//! dequeue sorts it once and then drains it from the head, so a bucket of k
//! entries costs O(log k) per pop even when all k share one timestamp (a
//! barrier window on a one-minute lattice); a doubling/halving resize
//! policy keeps buckets small in the common case. Entries beyond the
//! current year wait in a binary min-heap and migrate into buckets as years
//! advance; when every bucket is empty the queue jumps straight to the year
//! of the next overflow entry instead of ticking through empty buckets.
//!
//! The queue is generic over its entry type so that both the serial
//! [`crate::Engine`] (closure events keyed `(time, seq)`) and the sharded
//! conservative-parallel engine in [`crate::shard`] (data events keyed
//! `(time, cell, seq)`) share one implementation — and one set of effort
//! counters ([`EngineCounters`]).

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use crate::stats::EngineCounters;

/// An entry the calendar can hold: a timestamp plus a tie-break key. The
/// triple `(at_micros, tie.0, tie.1)` must totally order entries; the queue
/// pops them in ascending order of that triple.
pub(crate) trait CalendarEntry {
    /// Absolute simulated time of the entry, in microseconds.
    fn at_micros(&self) -> u64;
    /// Tie-break key applied after the timestamp.
    fn tie(&self) -> (u64, u64);
}

/// Full ordering key of an entry.
fn key<T: CalendarEntry>(e: &T) -> (u64, u64, u64) {
    let (a, b) = e.tie();
    (e.at_micros(), a, b)
}

/// An overflow entry, ordered by reversed key so that the max-heap
/// [`BinaryHeap`] yields the soonest entry first.
struct Soonest<T>(T);

impl<T: CalendarEntry> PartialEq for Soonest<T> {
    fn eq(&self, other: &Self) -> bool {
        key(&self.0) == key(&other.0)
    }
}

impl<T: CalendarEntry> Eq for Soonest<T> {}

impl<T: CalendarEntry> PartialOrd for Soonest<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: CalendarEntry> Ord for Soonest<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        key(&other.0).cmp(&key(&self.0))
    }
}

/// Outcome of asking the calendar for the next due entry.
pub(crate) enum Pop<T> {
    /// Nothing pending at all.
    Empty,
    /// The next entry lies beyond the deadline; it stays queued.
    Parked,
    /// The earliest entry, removed from the queue.
    Event(T),
}

const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 16;
/// The calendar year covers this multiple of the observed event spread.
/// Steady-state periodic workloads keep a pending set spanning one period;
/// a year many periods long means re-armed ticks almost always land inside
/// the current year (O(1) bucket insert) instead of in the overflow heap.
const YEAR_SPREAD_FACTOR: u64 = 16;
/// Buckets allocated per pending entry at rebuild. Together with the factor
/// above this targets ~2 entries per occupied bucket.
const BUCKETS_PER_EVENT: usize = 8;

/// The bucketed pending-event set. All times are in microseconds.
pub(crate) struct Calendar<T> {
    buckets: Vec<Vec<T>>,
    /// The cursor's bucket once a pop or peek has reached it: sorted by key
    /// and drained from the head. While this is non-empty,
    /// `buckets[cursor]` is empty and pushes into that bucket land here by
    /// binary search.
    front: VecDeque<T>,
    /// Microseconds per bucket (>= 1).
    width: u64,
    /// Start of bucket 0's window for the current rotation.
    year_start: u64,
    /// Next bucket index to inspect.
    cursor: usize,
    /// Entries at or beyond `year_end()`, soonest on top.
    overflow: BinaryHeap<Soonest<T>>,
    len: usize,
    /// Rebuild when `len` exceeds this (set to 2x the size at last rebuild).
    grow_at: usize,
    /// Rebuild when `len` drops below this (1/4 the size at last rebuild).
    shrink_at: usize,
}

impl<T: CalendarEntry> Calendar<T> {
    pub(crate) fn new() -> Self {
        Calendar {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            front: VecDeque::new(),
            width: 1_000,
            year_start: 0,
            cursor: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            grow_at: 32,
            shrink_at: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn year_len(&self) -> u64 {
        // Widths are clamped at resize so this cannot overflow.
        self.width * self.buckets.len() as u64
    }

    fn year_end(&self) -> u64 {
        self.year_start.saturating_add(self.year_len())
    }

    /// Inserts without resize bookkeeping.
    fn place(&mut self, ev: T, counters: &mut EngineCounters) {
        let at = ev.at_micros();
        debug_assert!(at >= self.year_start, "entry behind the calendar year");
        if at >= self.year_end() {
            self.overflow.push(Soonest(ev));
            return;
        }
        let idx = ((at - self.year_start) / self.width) as usize;
        if idx < self.cursor {
            // The cursor may already have advanced past this bucket (it moves
            // forward whenever a pop or peek scans over empty buckets, e.g.
            // while a shard is parked at a window boundary). Pushing behind it
            // must pull it back, or the entry becomes invisible until the
            // year wraps. The sorted bucket it leaves goes back unsorted.
            if !self.front.is_empty() {
                let cursor = self.cursor;
                self.buckets[cursor].extend(self.front.drain(..));
            }
            self.cursor = idx;
        } else if idx == self.cursor && !self.front.is_empty() {
            // An entry the serial engine schedules at `now` carries the
            // largest seq, so it lands at the tail without shifting the
            // entries still due.
            let k = key(&ev);
            let mut probes = 0;
            let pos = self.front.partition_point(|e| {
                probes += 1;
                key(e) < k
            });
            counters.keys_compared += probes;
            self.front.insert(pos, ev);
            return;
        }
        self.buckets[idx].push(ev);
    }

    pub(crate) fn push(&mut self, ev: T, counters: &mut EngineCounters) {
        let at = ev.at_micros();
        if self.len == 0 {
            // Re-anchor the calendar on the first entry after an idle spell
            // so `cursor`/`year_start` never have to run backwards.
            self.year_start = at - at % self.width;
            self.cursor = 0;
        } else if at < self.year_start {
            // An entry before the anchor (only possible from external
            // scheduling between runs, never from handlers — they schedule
            // at or after `now`). Rare enough to just re-anchor everything.
            let mut events = self.gather();
            events.push(ev);
            self.rebuild(events, counters);
            return;
        }
        self.place(ev, counters);
        self.len += 1;
        if self.len > self.grow_at {
            self.resize(counters);
        }
    }

    /// Drains every pending entry into one unordered list.
    fn gather(&mut self) -> Vec<T> {
        let mut events: Vec<T> = Vec::with_capacity(self.len);
        events.extend(self.front.drain(..));
        for b in &mut self.buckets {
            events.append(b);
        }
        events.extend(self.overflow.drain().map(|e| e.0));
        events
    }

    /// Rebuilds with a bucket count and width matched to the current entry
    /// population.
    fn resize(&mut self, counters: &mut EngineCounters) {
        let events = self.gather();
        self.rebuild(events, counters);
    }

    fn rebuild(&mut self, events: Vec<T>, counters: &mut EngineCounters) {
        counters.resizes += 1;
        let n = events.len();
        self.grow_at = (2 * n).max(32);
        self.shrink_at = n / 4;
        let nbuckets = (BUCKETS_PER_EVENT * n.max(1))
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        if self.buckets.len() != nbuckets {
            self.buckets = (0..nbuckets).map(|_| Vec::new()).collect();
        }
        self.cursor = 0;
        self.len = n;
        if events.is_empty() {
            return;
        }
        let min = events.iter().map(|e| e.at_micros()).min().unwrap();
        let max = events.iter().map(|e| e.at_micros()).max().unwrap();
        // Size the year to several times the occupied span (see
        // YEAR_SPREAD_FACTOR); clamp so `width * nbuckets` stays far from
        // u64 overflow.
        let span = max - min;
        self.width = (YEAR_SPREAD_FACTOR.saturating_mul(span) / nbuckets as u64)
            .clamp(1, u64::MAX / (4 * nbuckets as u64));
        self.year_start = min - min % self.width;
        for ev in events {
            self.place(ev, counters);
        }
    }

    /// Advances to the year containing the next pending entry. Caller
    /// guarantees every bucket is empty and the overflow heap is not.
    fn advance_year(&mut self, counters: &mut EngineCounters) {
        debug_assert!(self.front.is_empty());
        let next_at = self
            .overflow
            .peek()
            .map(|e| e.0.at_micros())
            .expect("pending entries beyond the drained year are in overflow");
        let contiguous_end = self.year_end().saturating_add(self.year_len());
        self.year_start = if next_at < contiguous_end {
            // The next entry lives in the very next year: roll forward.
            self.year_end()
        } else {
            // Far-future gap: jump straight to the entry's year.
            next_at - next_at % self.width
        };
        self.cursor = 0;
        let year_end = self.year_end();
        while let Some(top) = self.overflow.peek_mut() {
            if top.0.at_micros() >= year_end {
                break;
            }
            let ev = PeekMut::pop(top).0;
            counters.overflow_migrations += 1;
            let idx = ((ev.at_micros() - self.year_start) / self.width) as usize;
            self.buckets[idx].push(ev);
        }
    }

    /// Timestamp of the earliest entry in the cursor's bucket, or `None` if
    /// that bucket is empty. The first visit to a bucket of two or more
    /// entries sorts it into `front`; a lone entry, the common case since
    /// rebuilds aim at ~2 entries per occupied bucket, stays where it is.
    #[inline]
    fn head_at(&mut self, counters: &mut EngineCounters) -> Option<u64> {
        if self.front.is_empty() {
            match self.buckets[self.cursor].as_slice() {
                [] => return None,
                [lone] => return Some(lone.at_micros()),
                _ => self.fill_front(counters),
            }
        }
        self.front.front().map(T::at_micros)
    }

    /// Removes the entry [`Calendar::head_at`] reported.
    fn take_head(&mut self) -> T {
        self.front
            .pop_front()
            .or_else(|| self.buckets[self.cursor].pop())
            .expect("head_at found a head")
    }

    /// Moves the cursor's bucket into the empty `front`, sorted.
    fn fill_front(&mut self, counters: &mut EngineCounters) {
        self.front.extend(self.buckets[self.cursor].drain(..));
        let mut compared = 0;
        self.front.make_contiguous().sort_unstable_by(|a, b| {
            compared += 1;
            key(a).cmp(&key(b))
        });
        counters.keys_compared += compared;
    }

    /// Removes and returns the earliest entry, unless it lies beyond
    /// `deadline` (microseconds, inclusive).
    pub(crate) fn pop_due(
        &mut self,
        deadline: Option<u64>,
        counters: &mut EngineCounters,
    ) -> Pop<T> {
        if self.len == 0 {
            return Pop::Empty;
        }
        loop {
            while self.cursor < self.buckets.len() {
                counters.buckets_scanned += 1;
                // All entries in this bucket precede every entry in later
                // buckets and in overflow; its head is the global minimum.
                if let Some(at) = self.head_at(counters) {
                    if deadline.is_some_and(|d| at > d) {
                        return Pop::Parked;
                    }
                    let ev = self.take_head();
                    self.len -= 1;
                    if self.len < self.shrink_at {
                        self.resize(counters);
                    }
                    return Pop::Event(ev);
                }
                self.cursor += 1;
            }
            // Every bucket drained; the remaining entries are all overflow.
            if let Some(d) = deadline {
                if self.overflow.peek().is_some_and(|e| e.0.at_micros() > d) {
                    return Pop::Parked;
                }
            }
            self.advance_year(counters);
        }
    }

    /// Timestamp of the earliest pending entry without removing it. Advances
    /// the cursor over drained buckets (and migrates overflow years) exactly
    /// as [`Calendar::pop_due`] would, so a following pop takes the answer
    /// without another search. Used by the sharded engine to pick the next
    /// barrier window.
    pub(crate) fn next_time(&mut self, counters: &mut EngineCounters) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        loop {
            while self.cursor < self.buckets.len() {
                counters.buckets_scanned += 1;
                if let Some(at) = self.head_at(counters) {
                    return Some(at);
                }
                self.cursor += 1;
            }
            self.advance_year(counters);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Entry {
        at: u64,
        seq: u64,
    }

    impl CalendarEntry for Entry {
        fn at_micros(&self) -> u64 {
            self.at
        }
        fn tie(&self) -> (u64, u64) {
            (self.seq, 0)
        }
    }

    /// A same-timestamp burst drains in key order at O(log k) comparisons
    /// per pop, including entries re-pushed at `now` mid-drain (they land
    /// in the sorted bucket). Picking each minimum by a scan would compare
    /// about k/2 keys per pop here.
    #[test]
    fn same_timestamp_burst_drains_in_order_at_log_cost() {
        const BURST: u64 = 10_000;
        const NOW: u64 = 60_000_000;
        let mut counters = EngineCounters::default();
        let mut cal = Calendar::new();
        // Push the burst in a scrambled seq order so the sort has work.
        for i in 0..BURST {
            let seq = (i * 7_919) % BURST;
            cal.push(Entry { at: NOW, seq }, &mut counters);
        }
        let mut next_seq = BURST;
        let mut popped = Vec::new();
        while let Pop::Event(e) = cal.pop_due(None, &mut counters) {
            if popped.len() % 3 == 0 && next_seq < 2 * BURST {
                cal.push(
                    Entry {
                        at: e.at,
                        seq: next_seq,
                    },
                    &mut counters,
                );
                next_seq += 1;
            }
            popped.push((e.at, e.seq));
        }
        let want: Vec<(u64, u64)> = (0..next_seq).map(|s| (NOW, s)).collect();
        assert_eq!(popped, want, "pop order is not key order");
        let pops = popped.len() as u64;
        assert!(
            counters.keys_compared <= 32 * pops,
            "{} key comparisons for {pops} pops",
            counters.keys_compared
        );
        assert!(counters.keys_compared > 0);
    }
}
