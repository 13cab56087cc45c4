//! Event-engine throughput microbench: calendar queue vs the seed's
//! binary-heap engine on a periodic-tick-heavy workload.
//!
//! The workload models what the experiment harness actually does all day:
//! a cluster's worth of per-host daemons each waking on a fixed period
//! (load-average updates, host-selector reports) with a cheap handler, so
//! scheduling overhead — not handler work — dominates. The reference engine
//! below reproduces the seed implementation: a `BinaryHeap` of boxed
//! `FnOnce` closures, one fresh allocation per tick. The real engine uses
//! `schedule_periodic`, which boxes each daemon's handler once and re-arms
//! it in place.
//!
//! Prints events/sec for both engines, the throughput ratio, and the
//! calendar engine's effort counters, and exits non-zero unless both
//! engines executed the same events, the calendar boxed one handler per
//! daemon and every later tick re-armed it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use sprite_sim::{Engine, SimDuration, SimTime};

// ---------------------------------------------------------------------------
// Reference engine: the seed's BinaryHeap-of-boxed-FnOnce implementation.
// ---------------------------------------------------------------------------

type RefHandler<S> = Box<dyn FnOnce(&mut S, &mut RefEngine<S>)>;

struct RefScheduled<S> {
    at: SimTime,
    seq: u64,
    run: RefHandler<S>,
}

impl<S> PartialEq for RefScheduled<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<S> Eq for RefScheduled<S> {}
impl<S> PartialOrd for RefScheduled<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for RefScheduled<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: invert so the earliest (time, seq) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct RefEngine<S> {
    now: SimTime,
    next_seq: u64,
    queue: BinaryHeap<RefScheduled<S>>,
}

impl<S> RefEngine<S> {
    fn new() -> Self {
        RefEngine {
            now: SimTime::ZERO,
            next_seq: 0,
            queue: BinaryHeap::new(),
        }
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule_in<F>(&mut self, delay: SimDuration, handler: F)
    where
        F: FnOnce(&mut S, &mut RefEngine<S>) + 'static,
    {
        let at = self.now + delay;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(RefScheduled {
            at,
            seq,
            run: Box::new(handler),
        });
    }

    fn run(&mut self, state: &mut S) -> u64 {
        let mut executed = 0;
        while let Some(ev) = self.queue.pop() {
            self.now = ev.at;
            (ev.run)(state, self);
            executed += 1;
        }
        executed
    }
}

// ---------------------------------------------------------------------------
// Workload: DAEMONS periodic ticks at staggered phases over HORIZON.
// ---------------------------------------------------------------------------

const DAEMONS: u64 = 50;
const PERIOD_SECS: u64 = 5;
const HORIZON_SECS: u64 = 12 * 3600;

struct World {
    ticks: u64,
    acc: u64,
}

fn tick_work(world: &mut World, daemon: u64, now: SimTime) {
    world.ticks += 1;
    // A cheap, branchy stand-in for a daemon's bookkeeping.
    world.acc = world
        .acc
        .wrapping_mul(6364136223846793005)
        .wrapping_add(daemon ^ now.as_micros());
}

fn run_reference() -> (u64, f64) {
    let mut world = World { ticks: 0, acc: 0 };
    let mut engine = RefEngine::new();
    let horizon = SimTime::ZERO + SimDuration::from_secs(HORIZON_SECS);
    // Seed style: every tick boxes a fresh closure for the next one.
    fn arm(engine: &mut RefEngine<World>, daemon: u64, horizon: SimTime) {
        engine.schedule_in(SimDuration::from_secs(PERIOD_SECS), move |w, e| {
            tick_work(w, daemon, e.now());
            if e.now() < horizon {
                arm(e, daemon, horizon);
            }
        });
    }
    for d in 0..DAEMONS {
        // Stagger phases so ticks do not all collide on one timestamp.
        let phase = SimDuration::from_millis(d * 97);
        engine.schedule_in(phase, move |w, e| {
            tick_work(w, d, e.now());
            arm(e, d, horizon);
        });
    }
    let start = Instant::now();
    let executed = engine.run(&mut world);
    let secs = start.elapsed().as_secs_f64();
    black_box(world.acc);
    (executed, secs)
}

fn run_calendar() -> (u64, f64, sprite_sim::EngineCounters) {
    let mut world = World { ticks: 0, acc: 0 };
    let mut engine: Engine<World> = Engine::new();
    let horizon = SimTime::ZERO + SimDuration::from_secs(HORIZON_SECS);
    for d in 0..DAEMONS {
        let phase = SimDuration::from_millis(d * 97);
        engine.schedule_periodic(
            phase,
            SimDuration::from_secs(PERIOD_SECS),
            move |w: &mut World, e: &mut Engine<World>| {
                tick_work(w, d, e.now());
                e.now() < horizon
            },
        );
    }
    let start = Instant::now();
    engine.run(&mut world);
    let secs = start.elapsed().as_secs_f64();
    black_box(world.acc);
    (engine.events_executed(), secs, engine.counters())
}

fn main() {
    println!(
        "engine_throughput: {DAEMONS} daemons, {PERIOD_SECS}s period, \
         {HORIZON_SECS}s horizon"
    );
    // Warm up both paths once, then measure the best of three runs to damp
    // scheduler noise on shared machines.
    run_reference();
    run_calendar();
    let mut best_ref = f64::INFINITY;
    let mut ref_events = 0;
    for _ in 0..3 {
        let (n, s) = run_reference();
        ref_events = n;
        best_ref = best_ref.min(s);
    }
    let mut best_cal = f64::INFINITY;
    let mut cal_events = 0;
    let mut counters = sprite_sim::EngineCounters::default();
    for _ in 0..3 {
        let (n, s, c) = run_calendar();
        cal_events = n;
        counters = c;
        best_cal = best_cal.min(s);
    }
    let ref_rate = ref_events as f64 / best_ref;
    let cal_rate = cal_events as f64 / best_cal;
    println!(
        "reference (BinaryHeap + box/tick): {ref_events:>9} events in {:>8.2?} = {:>12.0} ev/s",
        std::time::Duration::from_secs_f64(best_ref),
        ref_rate
    );
    println!(
        "calendar  (schedule_periodic):     {cal_events:>9} events in {:>8.2?} = {:>12.0} ev/s",
        std::time::Duration::from_secs_f64(best_cal),
        cal_rate
    );
    println!("throughput ratio: {:.2}x", cal_rate / ref_rate);
    println!("calendar counters: {counters}");
    let avoided = counters.periodic_reschedules as f64
        / (counters.periodic_reschedules + counters.handler_allocations) as f64;
    println!(
        "allocations avoided by periodic re-arm: {:.1}% ({} re-arms vs {} boxed handlers)",
        avoided * 100.0,
        counters.periodic_reschedules,
        counters.handler_allocations
    );
    assert_eq!(ref_events, cal_events, "engines must execute the same work");
    assert_eq!(
        counters.handler_allocations, DAEMONS,
        "one boxed handler per daemon"
    );
    assert_eq!(
        counters.periodic_reschedules,
        cal_events - DAEMONS,
        "every tick but each daemon's first is a re-arm"
    );
}
