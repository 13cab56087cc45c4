//! Property tests for [`SlottedResource`], the gap-filling busy-interval
//! calendar behind the shared Ethernet and every simulated CPU.
//!
//! The implementation keeps a sorted vector of busy intervals, places each
//! demand with a search that gallops back from the newest interval plus a
//! frontier walk, merges touching neighbours in four cases, and coalesces
//! the two oldest intervals when the calendar outgrows [`MAX_SLOTS`]. Each
//! of those steps is easy to get subtly wrong, so this suite checks the
//! structure differentially: a naive O(n²) reference model re-derives every
//! placement by scanning all candidate gaps, then merges touching intervals
//! and coalesces the oldest pair past the cap the obvious way. Under
//! DetRng-generated out-of-order schedules long enough to pass the cap, the
//! two must agree completion-time for completion-time and interval for
//! interval. Two schedule shapes feed that comparison: one jumps the
//! frontier forward, the other sits on a coarse grid with arrivals sent
//! back before the oldest interval, the two edges of the gallop.
//! Structural invariants — intervals sorted, disjoint and non-touching; a
//! placement never starting before its arrival; accumulated busy time
//! exactly tiling the calendar until the first coalesce — are asserted
//! after every single acquire, and the coalescing path gets its own
//! long-schedule sweep proving the calendar stays bounded without ever
//! losing service time. A host CPU, driven through `Cluster::run_cpu`
//! under the same schedules, must place every burst where the reference
//! does, and no placement may start later than `max(now, horizon)`: the
//! calendar serves in arrival order and never worse than a busy horizon.
//!
//! [`SlottedResource`]: sprite::sim::SlottedResource
//! [`MAX_SLOTS`]: sprite::sim::MAX_SLOTS

use sprite::fs::SpritePath;
use sprite::kernel::Cluster;
use sprite::net::{CostModel, HostId};
use sprite::sim::{DetRng, SimDuration, SimTime, SlottedResource, MAX_SLOTS};

mod common;

const SEEDS: u64 = 40;
/// Long enough to trip the [`MAX_SLOTS`] coalescing path many times over.
const COALESCE_OPS: usize = 2_000;

/// The reference model: the same scheduling contract as
/// [`SlottedResource`], derived the expensive, obviously-correct way. For
/// each demand it considers every candidate start — the arrival time and
/// the end of every existing interval — and takes the earliest one whose
/// window overlaps nothing. It then rebuilds the calendar's shape the
/// obvious way: every pair of touching intervals merges, and while more than
/// [`MAX_SLOTS`] intervals remain the two oldest merge into one, forfeiting
/// the idle gap between them. Quadratic and allocation-happy: exactly what
/// the production structure must agree with, interval for interval.
#[derive(Default)]
struct NaiveCalendar {
    busy: Vec<(SimTime, SimTime)>,
    /// How many times the two oldest intervals were merged past the cap.
    coalesced: usize,
}

impl NaiveCalendar {
    fn acquire(&mut self, now: SimTime, d: SimDuration) -> SimTime {
        let mut candidates: Vec<SimTime> = self
            .busy
            .iter()
            .map(|&(_, e)| e)
            .filter(|&e| e > now)
            .collect();
        candidates.push(now);
        candidates.sort();
        for &start in &candidates {
            let end = start + d;
            let clash = self.busy.iter().any(|&(s, e)| s < end && start < e);
            if !clash {
                self.busy.push((start, end));
                self.busy.sort();
                self.normalize();
                return end;
            }
        }
        unreachable!("the slot after the horizon always fits");
    }

    fn normalize(&mut self) {
        let mut merged: Vec<(SimTime, SimTime)> = Vec::new();
        for &(s, e) in &self.busy {
            match merged.last_mut() {
                Some(last) if last.1 == s => last.1 = e,
                _ => merged.push((s, e)),
            }
        }
        while merged.len() > MAX_SLOTS {
            merged[1].0 = merged[0].0;
            merged.remove(0);
            self.coalesced += 1;
        }
        self.busy = merged;
    }
}

/// A DetRng schedule of (arrival, demand) pairs mixing in-order arrivals,
/// out-of-order arrivals behind the frontier, and occasional far jumps —
/// the traffic shape that exercises gap placement and merging.
fn schedule(seed: u64, ops: usize) -> Vec<(SimTime, SimDuration)> {
    let mut rng = DetRng::seed_from(seed);
    let mut base = 0u64;
    (0..ops)
        .map(|_| {
            if rng.chance(0.3) {
                // Jump the frontier forward, leaving idle gaps behind.
                base += 2_000 + rng.uniform_u64(20_000);
            }
            let now = base + rng.uniform_u64(8_000);
            let d = 1 + rng.uniform_u64(3_000);
            (SimTime::from_micros(now), SimDuration::from_micros(d))
        })
        .collect()
}

/// A DetRng schedule for the gallop's edges. Times sit on a 100 µs grid,
/// so arrivals often fall exactly on an interval's end (the `e <= now` tie
/// at a bracket edge), and one arrival in twenty is sent back to time zero,
/// before every live interval ends (where the gallop must stop at the
/// calendar's head).
fn edge_schedule(seed: u64, ops: usize) -> Vec<(SimTime, SimDuration)> {
    let mut rng = DetRng::seed_from(seed ^ 0xed9e);
    let mut base = 0u64;
    (0..ops)
        .map(|_| {
            if rng.chance(0.3) {
                base += 100 * (20 + rng.uniform_u64(200));
            }
            let now = if rng.chance(0.05) {
                0
            } else {
                base + 100 * rng.uniform_u64(80)
            };
            let d = 100 * (1 + rng.uniform_u64(30));
            (SimTime::from_micros(now), SimDuration::from_micros(d))
        })
        .collect()
}

/// The schedule shapes the placement comparison runs.
type Shape = (&'static str, fn(u64, usize) -> Vec<(SimTime, SimDuration)>);
const SHAPES: [Shape; 2] = [("frontier", schedule), ("edges", edge_schedule)];

/// Asserts the calendar's structural invariants: strictly ordered,
/// disjoint, non-touching (touching neighbours must have merged),
/// non-empty intervals.
fn assert_calendar_well_formed(r: &SlottedResource, ctx: &str) {
    let busy = r.busy_intervals();
    for (i, &(s, e)) in busy.iter().enumerate() {
        assert!(s < e, "{ctx}: interval {i} is empty or inverted ({s}, {e})");
        if i + 1 < busy.len() {
            assert!(
                e < busy[i + 1].0,
                "{ctx}: intervals {i} and {} touch or overlap",
                i + 1
            );
        }
    }
    if let Some(&(_, last)) = busy.last() {
        assert_eq!(r.horizon(), last, "{ctx}: horizon is not the last end");
    }
}

/// Sum of the calendar's interval lengths.
fn calendar_span(r: &SlottedResource) -> SimDuration {
    r.busy_intervals()
        .iter()
        .map(|&(s, e)| e.elapsed_since(s))
        .fold(SimDuration::ZERO, |acc, d| acc + d)
}

#[test]
fn slotted_placements_match_the_naive_reference_model() {
    let cases: Vec<(Shape, u64)> = SHAPES
        .iter()
        .flat_map(|&shape| (0..SEEDS).map(move |seed| (shape, seed)))
        .collect();
    common::sweep(&cases, 4, |&((shape, make), seed)| {
        let mut fast = SlottedResource::new();
        let mut naive = NaiveCalendar::default();
        let mut total = SimDuration::ZERO;
        for (op, &(now, d)) in make(seed, COALESCE_OPS).iter().enumerate() {
            let horizon = fast.horizon();
            let got = fast.acquire(now, d);
            let want = naive.acquire(now, d);
            assert!(
                got <= horizon.max_of(now) + d,
                "{shape} seed {seed} op {op}: placed past max(now, horizon)"
            );
            assert_eq!(
                got, want,
                "{shape} seed {seed} op {op}: placement diverged from the \
                 reference (arrival {now}, demand {d})"
            );
            assert!(
                got.elapsed_since(now) >= d,
                "{shape} seed {seed} op {op}: service started before its arrival"
            );
            total += d;
            let ctx = format!("{shape} seed {seed} op {op}");
            assert_calendar_well_formed(&fast, &ctx);
            assert_eq!(
                fast.busy_intervals(),
                naive.busy.as_slice(),
                "{ctx}: calendar diverged from the reference"
            );
            assert!(fast.busy_intervals().len() <= MAX_SLOTS, "{ctx}");
            // Until the first coalesce the calendar tiles the demands
            // exactly: no service time lost, none double-booked. After it,
            // forfeited gaps only add span.
            if naive.coalesced == 0 {
                assert_eq!(
                    calendar_span(&fast),
                    total,
                    "{ctx}: calendar span stopped tiling the accumulated demands"
                );
            } else {
                assert!(calendar_span(&fast) >= total, "{ctx}: lost busy span");
            }
        }
        assert!(
            naive.coalesced > 0,
            "{shape} seed {seed}: the schedule never reached MAX_SLOTS"
        );
        assert_eq!(
            fast.busy_time(),
            total,
            "{shape} seed {seed}: busy_time drifted"
        );
    });
}

#[test]
fn coalescing_bounds_the_calendar_without_losing_busy_time() {
    let seeds: Vec<u64> = (0..SEEDS).collect();
    common::sweep(&seeds, 4, |&seed| {
        let mut r = SlottedResource::new();
        let mut rng = DetRng::seed_from(seed ^ 0xc0a1);
        let mut total = SimDuration::ZERO;
        let mut base = 0u64;
        for op in 0..COALESCE_OPS {
            // Widely-spaced isolated transmissions force one interval per
            // demand, overflowing MAX_SLOTS over and over.
            base += 10_000 + rng.uniform_u64(10_000);
            let now = SimTime::from_micros(base);
            let d = SimDuration::from_micros(1 + rng.uniform_u64(2_000));
            let done = r.acquire(now, d);
            total += d;
            assert!(
                done.elapsed_since(now) >= d,
                "seed {seed} op {op}: service started before its arrival"
            );
            assert!(
                r.busy_intervals().len() <= MAX_SLOTS,
                "seed {seed} op {op}: calendar outgrew MAX_SLOTS"
            );
        }
        let ctx = format!("seed {seed} after {COALESCE_OPS} ops");
        assert_calendar_well_formed(&r, &ctx);
        // Coalescing forfeits *idle gaps*, never service time: the calendar
        // span can only grow past the accumulated demands, and the busy
        // accounting must equal them exactly.
        assert_eq!(r.busy_time(), total, "{ctx}: busy_time lost service time");
        assert!(
            calendar_span(&r) >= total,
            "{ctx}: coalesced calendar lost busy span"
        );
    });
}

#[test]
fn differential_runs_replay_byte_identically() {
    // The schedule is a pure function of its seed: replaying seed 11 must
    // produce the identical calendar, completion times included.
    let run = || {
        let mut r = SlottedResource::new();
        let ends: Vec<SimTime> = schedule(11, COALESCE_OPS)
            .into_iter()
            .map(|(now, d)| r.acquire(now, d))
            .collect();
        (ends, r.busy_intervals().to_vec(), r.busy_time())
    };
    assert_eq!(run(), run(), "seed 11: replay diverged");
}

#[test]
fn host_cpu_bursts_land_in_the_reference_slot_never_past_the_horizon() {
    let cases: Vec<(Shape, u64)> = SHAPES
        .iter()
        .flat_map(|&shape| (0..SEEDS / 4).map(move |seed| (shape, seed)))
        .collect();
    common::sweep(&cases, 4, |&((shape, make), seed)| {
        let host = HostId::new(1);
        let mut cluster = Cluster::new(CostModel::sun3(), 2);
        cluster.add_file_server(HostId::new(0), SpritePath::new("/"));
        let sh = SpritePath::new("/bin/sh");
        let t = cluster
            .install_program(SimTime::ZERO, sh.clone(), 8 * 1024)
            .unwrap();
        let (pid, _) = cluster.spawn(t, host, &sh, 8, 4).unwrap();
        let mut naive = NaiveCalendar::default();
        let mut horizon = SimTime::ZERO;
        for (op, &(now, d)) in make(seed, COALESCE_OPS).iter().enumerate() {
            let done = cluster.run_cpu(now, pid, d).unwrap();
            let ctx = format!("{shape} seed {seed} op {op} (arrival {now}, demand {d})");
            assert_eq!(done, naive.acquire(now, d), "{ctx}: not the reference slot");
            assert!(
                done <= horizon.max_of(now) + d,
                "{ctx}: started past max(now, horizon)"
            );
            horizon = horizon.max_of(done);
        }
    });
}
