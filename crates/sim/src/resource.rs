//! Simulated contended resources.
//!
//! The evaluation's most important *shape* — the pmake speedup curve bending
//! over as hosts are added (E5) — comes from contention for serial resources:
//! the file server's CPU and the shared Ethernet. [`SlottedResource`] is the
//! one model of all of them: each host's CPU, each file server's and migd's,
//! and the wire. It is a non-preemptive single server whose schedule is a
//! calendar of busy intervals, and it serves each demand in the earliest idle
//! gap at or after the demand's arrival, so demands are served in the order
//! they arrive even when the event loop books them out of order.

use crate::{SimDuration, SimTime};

/// A serial resource (a CPU, a disk, the Ethernet) whose schedule is an
/// explicit busy-interval calendar: a demand arriving at `now` is served in
/// the earliest idle gap at or after `now`, even when later bookings
/// already occupy the frontier.
///
/// Serving in the gap rather than after the last booking (a busy horizon)
/// matters because the event loop executes causally-related RPC chains
/// atomically: a request, its server service, and its reply all acquire
/// resources within one event, at timestamps spread across the whole round
/// trip. Under a busy-horizon model the *next* event's request — which
/// arrives earlier in simulated time — queues behind the entire previous
/// chain, so message latency and server time leak into occupancy and every
/// chain serializes end to end. Gap-filling restores arrival-order service:
/// a message transmits in the idle window between two already-scheduled
/// transmissions, exactly as a real CSMA wire would; a file server or migd
/// serves a request arriving at `t` before one a client booked for
/// `t + 1 s`; and server-side parallelism (e.g. a striped file-service
/// group) can genuinely overlap service with wire transfers. Given the same
/// bookings, a demand never starts later than `max(now, horizon)`.
///
/// The calendar keeps at most [`MAX_SLOTS`] intervals. Past the cap the two
/// oldest merge into one, forfeiting the idle gap between them; that
/// coalescing costs O(1) amortized. A placement gallops back from the
/// newest interval (1, 2, 4, … intervals at a time) to the bracket holding
/// the arrival time, bisects only that bracket, then walks the busy
/// intervals it cannot fit before. Most arrivals land at or near the
/// frontier, so the search costs a probe or two rather than a bisection of
/// the whole calendar; an arrival `k` intervals back costs O(log k).
///
/// # Examples
///
/// ```
/// use sprite_sim::{SlottedResource, SimDuration, SimTime};
///
/// let mut wire = SlottedResource::new();
/// // A transfer scheduled out-of-order at t=10ms...
/// let late = wire.acquire(SimTime::from_micros(10_000), SimDuration::from_millis(1));
/// assert_eq!(late.as_micros(), 11_000);
/// // ...does not delay an earlier-arriving transfer that fits before it.
/// let early = wire.acquire(SimTime::ZERO, SimDuration::from_millis(1));
/// assert_eq!(early.as_micros(), 1_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SlottedResource {
    /// Sorted, disjoint busy intervals `(start, end)`, merged when they
    /// touch. The calendar is `busy[head..]`: coalescing advances `head`
    /// instead of shifting the vector, and the dead prefix is dropped once
    /// it reaches `MAX_SLOTS` entries.
    busy: Vec<(SimTime, SimTime)>,
    head: usize,
    busy_time: SimDuration,
    wait_time: SimDuration,
    requests: u64,
}

/// Upper bound on tracked busy intervals (old gaps beyond it are forfeited).
pub const MAX_SLOTS: usize = 256;

impl SlottedResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        SlottedResource::default()
    }

    /// Submits a demand of `d` at time `now`; serves it in the earliest
    /// idle gap at or after `now` and returns the completion time.
    pub fn acquire(&mut self, now: SimTime, d: SimDuration) -> SimTime {
        self.requests += 1;
        self.busy_time += d;
        // Find the earliest gap at or after `now` that fits `d`: skip
        // intervals wholly behind `now`, then walk the frontier.
        let head = self.head;
        let mut start = now;
        let mut i = self.first_ending_after(now);
        while i < self.busy.len() {
            let (s, e) = self.busy[i];
            if start + d <= s {
                break; // Fits in the gap before interval `i`.
            }
            start = start.max_of(e);
            i += 1;
        }
        self.wait_time += start.elapsed_since(now);
        let end = start + d;
        let merge_prev = i > head && self.busy[i - 1].1 == start;
        let merge_next = i < self.busy.len() && self.busy[i].0 == end;
        match (merge_prev, merge_next) {
            (true, true) => {
                self.busy[i - 1].1 = self.busy[i].1;
                self.busy.remove(i);
            }
            (true, false) => self.busy[i - 1].1 = end,
            (false, true) => self.busy[i].0 = start,
            (false, false) => self.busy.insert(i, (start, end)),
        }
        if self.busy.len() - head > MAX_SLOTS {
            // Coalesce the two oldest intervals; the forfeited gap between
            // them is long past any reachable arrival time.
            self.busy[head + 1].0 = self.busy[head].0;
            self.head += 1;
            if self.head == MAX_SLOTS {
                self.busy.drain(..MAX_SLOTS);
                self.head = 0;
            }
        }
        end
    }

    /// The index of the first live interval ending after `now` (the
    /// calendar's length if none does): the `partition_point` of
    /// `e <= now` over `busy[head..]`, found by galloping back from the
    /// newest interval. Ends increase along the calendar, so the probes
    /// bracket the point and a bisection of the bracket finds it.
    fn first_ending_after(&self, now: SimTime) -> usize {
        // Every interval at or past `hi` ends after `now`.
        let mut hi = self.busy.len();
        let mut step = 1;
        let lo = loop {
            if hi < self.head + step {
                break self.head;
            }
            let probe = hi - step;
            if self.busy[probe].1 <= now {
                break probe + 1;
            }
            hi = probe;
            step *= 2;
        };
        let i = lo + self.busy[lo..hi].partition_point(|&(_, e)| e <= now);
        debug_assert_eq!(
            i,
            self.head + self.busy[self.head..].partition_point(|&(_, e)| e <= now),
            "the gallop missed the partition point"
        );
        i
    }

    /// The end of the last booking (the busy horizon).
    pub fn horizon(&self) -> SimTime {
        self.busy.last().map(|&(_, e)| e).unwrap_or(SimTime::ZERO)
    }

    /// The busy calendar: sorted, disjoint, non-touching `(start, end)`
    /// intervals. Exposed read-only so property tests can check the
    /// schedule's invariants differentially against a reference model.
    pub fn busy_intervals(&self) -> &[(SimTime, SimTime)] {
        &self.busy[self.head..]
    }

    /// Total busy (service) time accumulated.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Total queueing delay: the sum over demands of the wait from each
    /// one's arrival to the start of its slot.
    pub fn wait_time(&self) -> SimDuration {
        self.wait_time
    }

    /// Number of demands served.
    pub fn requests(&self) -> u64 {
        self.requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = SlottedResource::new();
        assert_eq!(r.acquire(t(5_000), d(3_000)), t(8_000));
        assert_eq!(r.wait_time(), SimDuration::ZERO);
    }

    #[test]
    fn contended_demands_serialize() {
        let mut r = SlottedResource::new();
        assert_eq!(r.acquire(t(0), d(10_000)), t(10_000));
        // Arrives mid-service: waits out the remaining 6ms.
        assert_eq!(r.acquire(t(4_000), d(10_000)), t(20_000));
        assert_eq!(r.acquire(t(0), d(10_000)), t(30_000));
        assert_eq!(r.wait_time(), d(6_000 + 20_000));
    }

    #[test]
    fn gaps_leave_the_resource_idle() {
        let mut r = SlottedResource::new();
        r.acquire(t(0), d(1_000));
        assert_eq!(r.acquire(t(100_000), d(1_000)), t(101_000));
        assert_eq!(r.busy_time(), d(2_000));
        assert_eq!(r.requests(), 2);
    }

    #[test]
    fn slotted_fills_gaps_left_by_out_of_order_arrivals() {
        let mut w = SlottedResource::new();
        // A chain schedules its request at 0 and its reply at 5ms.
        assert_eq!(w.acquire(t(0), d(1_000)), t(1_000));
        assert_eq!(w.acquire(t(5_000), d(1_000)), t(6_000));
        // An earlier-arriving message fits in the idle window between them
        // instead of queueing at the 6ms horizon.
        assert_eq!(w.acquire(t(1_500), d(1_000)), t(2_500));
        // A demand too large for any gap lands after the horizon.
        assert_eq!(w.acquire(t(0), d(3_000)), t(9_000));
        assert_eq!(w.horizon(), t(9_000));
        assert_eq!(w.busy_time(), d(6_000));
        assert_eq!(w.requests(), 4);
    }

    #[test]
    fn slotted_merges_touching_intervals() {
        let mut w = SlottedResource::new();
        w.acquire(t(0), d(1_000));
        w.acquire(t(2_000), d(1_000));
        // Exactly fills the gap: all three merge into one interval, and the
        // next arrival at 0 queues at the horizon.
        w.acquire(t(1_000), d(1_000));
        assert_eq!(w.acquire(t(0), d(500)), t(3_500));
    }

    #[test]
    fn slotted_interval_count_stays_bounded() {
        let mut w = SlottedResource::new();
        // Thousands of isolated transmissions far apart.
        for i in 0..10_000u64 {
            w.acquire(t(i * 10_000), d(10));
        }
        assert_eq!(w.requests(), 10_000);
        assert_eq!(w.busy_time(), d(100_000));
    }
}
