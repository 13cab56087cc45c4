//! The calendar queue — the workspace's pending-event set.
//!
//! Month-long runs execute tens of millions of events, so this is the
//! hottest data structure in the repository. Instead of a binary heap
//! (O(log n) per operation) the queue keeps an array of time buckets, each
//! `width` microseconds wide, covering one "year" of `nbuckets * width`
//! microseconds (Brown 1988). Enqueue drops an entry into the bucket its
//! timestamp maps to — O(1). When the cursor reaches a non-empty bucket,
//! dequeue sorts it once into the *front* (a drain deque) and then takes
//! entries from its head. A push into the cursor's bucket after that is
//! O(1) as well: it joins the front's tail when its time is not before the
//! tail's (on a one-minute lattice, every push at `now` and a barrier's
//! deliveries at the window's timestamp) and otherwise parks in the bucket
//! until the next head lookup merges everything parked there with one
//! stable sort over the nearly sorted front, rather than one shift of the
//! front per entry.
//! Entries beyond the current year wait in a binary min-heap and migrate
//! into buckets as years advance; when every bucket is empty the queue
//! jumps straight to the year of the next overflow entry instead of
//! ticking through empty buckets.
//!
//! Brown's queue is only fast while the bucket width tracks the spacing of
//! the entries being dequeued. A doubling/halving resize sizes the year
//! from the span of the pending entries, and that span is zero when they
//! all share one timestamp (a cluster seeded at one instant), which would
//! pin a 1 µs width. So every year advance — the one moment every bucket is
//! empty and the width can change without re-placing anything — also
//! measures the gap from the last dequeued entry to the next one and widens
//! the year to [`YEAR_SPREAD_FACTOR`] such gaps if it is shorter. On a
//! one-minute lattice this settles after the first simulated minute at a
//! 16-minute year.
//!
//! The queue stamps every push from its own counter and pops in `(time,
//! stamp)` order, so ties break by push order for both the serial
//! [`crate::Engine`] and the sharded engine in [`crate::shard`], which
//! share it and its effort counters ([`EngineCounters`]). A bucket holds
//! its entries in push order, so k entries at one timestamp sort in k − 1
//! comparisons; any bucket costs O(log k) comparisons per pop.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::mem;

use crate::stats::EngineCounters;

/// A queued item with its timestamp (microseconds) and push stamp.
struct Entry<T> {
    at: u64,
    stamp: u64,
    item: T,
}

impl<T> Entry<T> {
    /// The pop-order key: time, then push order.
    fn key(&self) -> (u64, u64) {
        (self.at, self.stamp)
    }
}

/// An overflow entry, ordered by reversed key so that the max-heap
/// [`BinaryHeap`] yields the soonest entry first.
struct Soonest<T>(Entry<T>);

impl<T> PartialEq for Soonest<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}

impl<T> Eq for Soonest<T> {}

impl<T> PartialOrd for Soonest<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Soonest<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.key().cmp(&self.0.key())
    }
}

/// Outcome of asking the calendar for the next due entry.
pub(crate) enum Pop<T> {
    /// Nothing pending at all.
    Empty,
    /// The next entry, at this timestamp, lies beyond the deadline; it
    /// stays queued.
    Parked(u64),
    /// The earliest entry, removed from the queue, with its timestamp.
    Event(u64, T),
}

const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 16;
/// The calendar year covers this multiple of the observed event spread: the
/// span of the pending entries at a rebuild, and at least this many
/// dequeue gaps after a year advance. Steady-state periodic workloads keep
/// a pending set spanning one period; a year many periods long means
/// re-armed ticks almost always land inside the current year (O(1) bucket
/// insert) instead of in the overflow heap.
const YEAR_SPREAD_FACTOR: u64 = 16;
/// Buckets allocated per pending entry at rebuild. Together with the factor
/// above this targets ~2 entries per occupied bucket.
const BUCKETS_PER_EVENT: usize = 8;

/// The bucketed pending-event set. All times are in microseconds.
pub(crate) struct Calendar<T> {
    buckets: Vec<Vec<Entry<T>>>,
    /// The cursor's bucket once a pop or peek has reached it: sorted by key
    /// and drained from the head. While this is non-empty, `buckets[cursor]`
    /// holds only pushes parked below its tail (see `place`).
    front: VecDeque<Entry<T>>,
    /// Microseconds per bucket (>= 1).
    width: u64,
    /// Timestamp of the most recently popped entry; a year advance sizes
    /// the width from the gap between it and the next entry.
    last_pop_at: u64,
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
    /// The stamp of the next push.
    next_stamp: u64,
}

impl<T> Calendar<T> {
    pub(crate) fn new() -> Self {
        Calendar {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            front: VecDeque::new(),
            width: 1_000,
            last_pop_at: 0,
            year_start: 0,
            cursor: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            grow_at: 32,
            shrink_at: 0,
            next_stamp: 0,
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
    fn place(&mut self, ev: Entry<T>, counters: &mut EngineCounters) {
        let at = ev.at;
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
        } else if idx == self.cursor {
            if let Some(tail) = self.front.back() {
                // Only a push meets a non-empty front, and it carries the
                // newest stamp, so it sorts after the tail unless its time
                // is earlier. Earlier entries park in the bucket below until
                // the next `head_at`, so a run of them is merged once, not
                // shifted in one by one.
                debug_assert!(ev.stamp > tail.stamp, "only a push meets the front");
                counters.keys_compared += 1;
                if at >= tail.at {
                    self.front.push_back(ev);
                    return;
                }
            }
        }
        self.buckets[idx].push(ev);
    }

    /// Queues `item` at `at` (microseconds), stamped after every earlier
    /// push: of two entries at one time, the one pushed first pops first.
    pub(crate) fn push(&mut self, at: u64, item: T, counters: &mut EngineCounters) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let ev = Entry { at, stamp, item };
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
    fn gather(&mut self) -> Vec<Entry<T>> {
        let mut events = Vec::with_capacity(self.len);
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

    /// Re-places `events` with the stamps they hold, so pop order survives.
    fn rebuild(&mut self, events: Vec<Entry<T>>, counters: &mut EngineCounters) {
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
        let min = events.iter().map(|e| e.at).min().unwrap();
        let max = events.iter().map(|e| e.at).max().unwrap();
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

    /// Advances to the year containing the next pending entry, widening
    /// the buckets first if the year is shorter than [`YEAR_SPREAD_FACTOR`]
    /// gaps between the last popped entry and the next one. Caller
    /// guarantees every bucket is empty and the overflow heap is not, so the
    /// width can change without re-placing anything.
    fn advance_year(&mut self, counters: &mut EngineCounters) {
        debug_assert!(self.front.is_empty());
        let next_at = self
            .overflow
            .peek()
            .map(|e| e.0.at)
            .expect("pending entries beyond the drained year are in overflow");
        let year_end = self.year_end();
        let contiguous_end = year_end.saturating_add(self.year_len());
        let spread = YEAR_SPREAD_FACTOR.saturating_mul(next_at.saturating_sub(self.last_pop_at));
        if self.year_len() < spread {
            // The dequeued spacing outgrew the year (or a zero-span rebuild
            // pinned a 1 µs width). Widening never shrinks the year, so a
            // roll-forward below still reaches `next_at`.
            let nbuckets = self.buckets.len() as u64;
            self.width = (spread / nbuckets).clamp(1, u64::MAX / (4 * nbuckets));
        }
        self.year_start = if next_at < contiguous_end {
            // The next entry lives in the very next year: roll forward.
            year_end
        } else {
            // Far-future gap: jump straight to the entry's year.
            next_at - next_at % self.width
        };
        self.cursor = 0;
        let year_end = self.year_end();
        while let Some(top) = self.overflow.peek_mut() {
            if top.0.at >= year_end {
                break;
            }
            let ev = PeekMut::pop(top).0;
            counters.overflow_migrations += 1;
            let idx = ((ev.at - self.year_start) / self.width) as usize;
            self.buckets[idx].push(ev);
        }
    }

    /// Timestamp of the earliest entry in the cursor's bucket, or `None` if
    /// that bucket is empty. The first visit to a bucket of two or more
    /// entries sorts it into `front`, and entries parked in the bucket since
    /// are merged in here; a lone entry, the common case since rebuilds aim
    /// at ~2 entries per occupied bucket, stays where it is.
    #[inline]
    fn head_at(&mut self, counters: &mut EngineCounters) -> Option<u64> {
        match (self.front.is_empty(), self.buckets[self.cursor].as_slice()) {
            (true, []) => return None,
            (true, [lone]) => return Some(lone.at),
            (false, []) => {}
            _ => self.fill_front(counters),
        }
        self.front.front().map(|e| e.at)
    }

    /// Removes the entry [`Calendar::head_at`] reported.
    fn take_head(&mut self) -> Entry<T> {
        self.front
            .pop_front()
            .or_else(|| self.buckets[self.cursor].pop())
            .expect("head_at found a head")
    }

    /// Moves the cursor's bucket into `front`, sorted. The bucket gives up
    /// its buffer: an empty front takes it over, and a non-empty one drops
    /// it once the parked entries are appended, so a bucket that held a
    /// whole barrier window keeps no capacity for the rest of the run. The
    /// stable sort then merges the sorted front with the parked run, which
    /// is cheap because a bucket holds its entries in push order: sorted
    /// already where they share a timestamp.
    fn fill_front(&mut self, counters: &mut EngineCounters) {
        let bucket = mem::take(&mut self.buckets[self.cursor]);
        if self.front.is_empty() {
            self.front = VecDeque::from(bucket);
        } else {
            self.front.extend(bucket);
        }
        let mut compared = 0;
        self.front.make_contiguous().sort_by(|a, b| {
            compared += 1;
            a.key().cmp(&b.key())
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
                        return Pop::Parked(at);
                    }
                    let ev = self.take_head();
                    self.last_pop_at = at;
                    self.len -= 1;
                    if self.len < self.shrink_at {
                        self.resize(counters);
                    }
                    return Pop::Event(at, ev.item);
                }
                self.cursor += 1;
            }
            // Every bucket drained; the remaining entries are all overflow.
            if let Some(d) = deadline {
                let next_at = self.overflow.peek().map(|e| e.0.at);
                if let Some(at) = next_at.filter(|&at| at > d) {
                    return Pop::Parked(at);
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
    use std::collections::BTreeSet;

    use super::*;
    use crate::DetRng;

    /// A one-timestamp burst drains in push order, entries re-pushed at
    /// `now` mid-drain included: they join the sorted front's tail after
    /// one comparison each. The bucket sits in push order, so sorting it
    /// when the cursor arrives takes one comparison per entry too, where a
    /// burst sorted by any other tie key costs O(log k) per pop. Each
    /// rebuild as the queue shrinks re-sorts what is left, under a quarter
    /// of what the previous one held, so those re-sorts add under a third.
    #[test]
    fn same_timestamp_burst_drains_in_push_order_at_one_comparison_per_pop() {
        const BURST: u64 = 10_000;
        const NOW: u64 = 60_000_000;
        let mut counters = EngineCounters::default();
        let mut cal = Calendar::new();
        for i in 0..BURST {
            cal.push(NOW, i, &mut counters);
        }
        let mut next = BURST;
        let mut popped = Vec::new();
        while let Pop::Event(at, i) = cal.pop_due(None, &mut counters) {
            if popped.len() % 3 == 0 {
                cal.push(at, next, &mut counters);
                next += 1;
            }
            popped.push((at, i));
        }
        let want: Vec<(u64, u64)> = (0..next).map(|i| (NOW, i)).collect();
        assert_eq!(popped, want, "pop order is not push order");
        let pops = popped.len() as u64;
        assert!(
            counters.keys_compared <= pops + pops / 3,
            "{} key comparisons for {pops} pops",
            counters.keys_compared
        );
        assert!(counters.keys_compared > 0);
    }

    /// One bucket holding several timestamps, pushed latest first, drains
    /// in `(time, push)` order at O(log k) comparisons per pop: the front
    /// sorts on time before stamp.
    #[test]
    fn descending_times_in_one_bucket_drain_in_time_then_push_order() {
        const NOW: u64 = 60_000_000;
        const DAY: u64 = 1_440 * NOW;
        const K: u64 = 4_096;
        const STAMPS: u64 = 64;
        let mut counters = EngineCounters::default();
        let mut cal = Calendar::new();
        // A far entry keeps every rebuild's buckets wider than the burst.
        cal.push(NOW + DAY, K, &mut counters);
        for i in 0..K {
            cal.push(NOW + STAMPS - 1 - i / (K / STAMPS), i, &mut counters);
        }
        assert_eq!(cal.next_time(&mut counters), Some(NOW));
        assert_eq!(cal.front.len() as u64, K, "the burst shares one bucket");
        let mut popped = Vec::new();
        while let Pop::Event(at, i) = cal.pop_due(Some(NOW + DAY - 1), &mut counters) {
            popped.push((at, i));
        }
        let mut want = popped.clone();
        want.sort_unstable();
        assert_eq!(popped, want, "pop order is not (time, push) order");
        assert_eq!(popped.len() as u64, K);
        let compared = counters.keys_compared;
        assert!(
            compared <= u64::from(K.ilog2()) * K,
            "{compared} key comparisons for {K} pops"
        );
    }

    /// A calendar and a `BTreeSet` reference model keyed on `(time, push
    /// index)` fed the same operations, compared after every one. Each
    /// entry's item is its push index.
    struct Checked {
        cal: Calendar<u64>,
        reference: BTreeSet<(u64, u64)>,
        counters: EngineCounters,
        pushes: u64,
    }

    impl Checked {
        fn new() -> Self {
            Checked {
                cal: Calendar::new(),
                reference: BTreeSet::new(),
                counters: EngineCounters::default(),
                pushes: 0,
            }
        }

        fn push(&mut self, at: u64) {
            let i = self.pushes;
            self.pushes += 1;
            self.cal.push(at, i, &mut self.counters);
            self.reference.insert((at, i));
            self.check_len();
        }

        /// `pop_due`, checked against the reference; the popped time.
        fn pop(&mut self, deadline: Option<u64>) -> Option<u64> {
            let want = self.reference.first().copied();
            let got = match self.cal.pop_due(deadline, &mut self.counters) {
                Pop::Empty => {
                    assert_eq!(want, None, "calendar empty, reference is not");
                    None
                }
                Pop::Parked(at) => {
                    let d = deadline.expect("parked without a deadline");
                    assert!(at > d, "parked at deadline {d} with {want:?} due");
                    assert_eq!(Some(at), want.map(|k| k.0), "parked head time");
                    None
                }
                Pop::Event(at, i) => {
                    assert_eq!(Some((at, i)), want, "popped out of (time, push) order");
                    if let Some(d) = deadline {
                        assert!(at <= d, "popped {i} at {at} past deadline {d}");
                    }
                    self.reference.pop_first();
                    Some(at)
                }
            };
            self.check_len();
            got
        }

        /// `next_time`, checked against the reference.
        fn peek(&mut self) -> Option<u64> {
            let got = self.cal.next_time(&mut self.counters);
            assert_eq!(got, self.reference.first().map(|k| k.0), "next_time");
            self.check_len();
            got
        }

        fn check_len(&self) {
            assert_eq!(self.cal.len(), self.reference.len(), "len");
        }
    }

    /// The call pattern of a `ShardedEngine` shard against a reference set.
    /// Each case seeds a burst at one timestamp (so every rebuild sees a
    /// zero span), then runs barrier windows: peek the next time, pop up to
    /// the window's deadline until the queue parks with the next bucket
    /// sorted into its front, and push the window's deliveries in time
    /// order. Handlers re-arm on the one-minute lattice, days ahead, or off
    /// the lattice, and push at `now`, which parks below the front's tail
    /// whenever the front holds a later time. What is left drains through
    /// the serial engine's undeadlined pop.
    #[test]
    fn matches_a_reference_set_under_the_sharded_call_pattern() {
        const MINUTE: u64 = 60_000_000;
        const DAY: u64 = 1_440 * MINUTE;
        let mut rng = DetRng::seed_from(0xCA1E);
        for case in 0..12 {
            let far = [0.0, 0.02, 0.2][case % 3];
            let mut q = Checked::new();
            let cells = 16 + rng.uniform_u64(600);
            let start = MINUTE * (1 + rng.uniform_u64(60));
            for _ in 0..cells {
                q.push(start);
            }
            let mut outbox = Vec::new();
            for _ in 0..16 {
                let Some(t) = q.peek() else { break };
                let t_end = t + MINUTE;
                while let Some(at) = q.pop(Some(t_end - 1)) {
                    if rng.chance(far) {
                        q.push(at + DAY * (1 + rng.uniform_u64(3)));
                    } else {
                        match rng.pick_index(16) {
                            0 => {}
                            1 | 2 => q.push(at),
                            3 => q.push(at + 1 + rng.uniform_u64(MINUTE)),
                            _ => q.push(at + MINUTE),
                        }
                    }
                    if rng.chance(0.3) {
                        outbox.push(t_end + MINUTE * rng.uniform_u64(2));
                    }
                    if rng.chance(0.05) {
                        q.peek();
                    }
                }
                outbox.sort_unstable();
                for at in outbox.drain(..) {
                    q.push(at);
                }
            }
            while let Some(at) = q.pop(None) {
                if rng.chance(0.05) {
                    q.push(at);
                }
            }
            assert!(q.reference.is_empty());
        }
    }
}
