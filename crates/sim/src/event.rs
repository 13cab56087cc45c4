//! The discrete-event engine.
//!
//! Simulated kernels execute their protocols *synchronously* on shared
//! cluster state (mirroring Sprite's synchronous kernel-to-kernel RPCs) and
//! merely account for simulated time; the engine interleaves *workload-level*
//! activities — jobs finishing CPU bursts, users returning to workstations,
//! load daemons ticking. An event is a closure over the simulation state
//! `S`; handlers may schedule further events.
//!
//! Ties are broken by insertion order, which together with the seeded RNG
//! makes whole simulations deterministic.
//!
//! # The calendar queue
//!
//! Month-long runs execute millions of events, the vast majority of them
//! recurring daemon ticks, so the pending-event set lives in the calendar
//! queue of [`crate::calendar`] — O(1) amortized push/pop, shared with the
//! sharded conservative-parallel engine in [`crate::shard`]. The calendar
//! stamps each push, so events at one time run in the order they were
//! scheduled.
//!
//! Recurring work uses [`Engine::schedule_periodic`]: the handler is boxed
//! **once** and re-armed in place after each tick, so a month of load-daemon
//! ticks costs one allocation instead of one per tick. The counters in
//! [`EngineCounters`] (via [`Engine::counters`]) make both effects visible:
//! `periodic_reschedules` counts the allocations avoided and
//! `buckets_scanned` the calendar's search effort.

use crate::calendar::{Calendar, Pop};
use crate::digest::Checkpoint;
use crate::stats::EngineCounters;
use crate::{SimDuration, SimTime};

/// An event handler: runs at its scheduled time with exclusive access to the
/// simulation state and the engine (to schedule follow-on events).
pub type Handler<S> = Box<dyn FnOnce(&mut S, &mut Engine<S>)>;

/// A periodic handler: runs every period until it returns `false`.
pub type PeriodicHandler<S> = Box<dyn FnMut(&mut S, &mut Engine<S>) -> bool>;

enum Action<S> {
    Once(Handler<S>),
    Periodic {
        every: SimDuration,
        tick: PeriodicHandler<S>,
    },
}

/// The replay-audit seam: a state-hash function sampled every `every`
/// executed events, accumulating a digest stream (see [`crate::StateDigest`]).
struct Audit<S> {
    every: u64,
    hash: Box<dyn Fn(&S) -> u64>,
    stream: Vec<Checkpoint>,
}

/// A discrete-event simulation engine over state `S`.
///
/// # Examples
///
/// ```
/// use sprite_sim::{Engine, SimDuration, SimTime};
///
/// let mut engine = Engine::new();
/// engine.schedule_in(SimDuration::from_secs(1), |count: &mut u32, eng| {
///     *count += 1;
///     eng.schedule_in(SimDuration::from_secs(2), |count, _| *count += 10);
/// });
/// let mut count = 0;
/// engine.run(&mut count);
/// assert_eq!(count, 11);
/// assert_eq!(engine.now(), SimTime::ZERO + SimDuration::from_secs(3));
/// ```
///
/// Recurring work re-arms one boxed handler instead of boxing a new closure
/// per tick:
///
/// ```
/// use sprite_sim::{Engine, SimDuration};
///
/// let mut engine = Engine::new();
/// engine.schedule_periodic(
///     SimDuration::from_secs(5),
///     SimDuration::from_secs(5),
///     |ticks: &mut u32, _| {
///         *ticks += 1;
///         *ticks < 10 // keep ticking until the tenth
///     },
/// );
/// let mut ticks = 0;
/// engine.run(&mut ticks);
/// assert_eq!(ticks, 10);
/// assert_eq!(engine.counters().periodic_reschedules, 9);
/// ```
pub struct Engine<S> {
    now: SimTime,
    queue: Calendar<Action<S>>,
    deadline: Option<SimTime>,
    counters: EngineCounters,
    audit: Option<Audit<S>>,
}

impl<S> Default for Engine<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> Engine<S> {
    /// Creates an engine with the clock at time zero and an empty queue.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: Calendar::new(),
            deadline: None,
            counters: EngineCounters::default(),
            audit: None,
        }
    }

    /// Arms the replay auditor: after every `every` executed events the
    /// engine calls `hash` on the simulation state and appends a
    /// [`Checkpoint`] to the audit stream. Two runs of the same scenario
    /// replay identically iff their streams match checkpoint for
    /// checkpoint; retrieve the stream with [`Engine::take_audit_stream`].
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn audit_every<F>(&mut self, every: u64, hash: F)
    where
        F: Fn(&S) -> u64 + 'static,
    {
        assert!(every > 0, "audit interval must be positive");
        self.audit = Some(Audit {
            every,
            hash: Box::new(hash),
            stream: Vec::new(),
        });
    }

    /// Takes the accumulated audit checkpoint stream, leaving the auditor
    /// armed with an empty stream. Empty if [`Engine::audit_every`] was
    /// never called.
    pub fn take_audit_stream(&mut self) -> Vec<Checkpoint> {
        match &mut self.audit {
            Some(a) => std::mem::take(&mut a.stream),
            None => Vec::new(),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.counters.events_executed
    }

    /// The number of events still waiting to run.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Engine effort counters: events executed, calendar buckets scanned,
    /// periodic re-arms (allocations avoided), and so on.
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// Stops the run loop once the clock would pass `at`; events scheduled
    /// later stay in the queue (useful for warm-up/measure phases).
    pub fn set_deadline(&mut self, at: SimTime) {
        self.deadline = Some(at);
    }

    /// Schedules `handler` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn schedule_at<F>(&mut self, at: SimTime, handler: F)
    where
        F: FnOnce(&mut S, &mut Engine<S>) + 'static,
    {
        assert!(at >= self.now, "cannot schedule into the past");
        self.counters.handler_allocations += 1;
        self.queue.push(
            at.as_micros(),
            Action::Once(Box::new(handler)),
            &mut self.counters,
        );
    }

    /// Schedules `handler` to run `delay` after the current time.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, handler: F)
    where
        F: FnOnce(&mut S, &mut Engine<S>) + 'static,
    {
        self.schedule_at(self.now + delay, handler);
    }

    /// Schedules `tick` to first run at absolute time `first` and then every
    /// `every` thereafter, for as long as it returns `true`. The handler is
    /// boxed once and re-armed in place — a month of daemon ticks costs one
    /// allocation.
    ///
    /// Each tick re-arms after its handler returns, so events the handler
    /// schedules for the next occurrence's timestamp run before it.
    ///
    /// # Panics
    ///
    /// Panics if `first` is in the simulated past or `every` is zero.
    pub fn schedule_periodic_at<F>(&mut self, first: SimTime, every: SimDuration, tick: F)
    where
        F: FnMut(&mut S, &mut Engine<S>) -> bool + 'static,
    {
        assert!(first >= self.now, "cannot schedule into the past");
        assert!(!every.is_zero(), "periodic events need a positive period");
        self.counters.handler_allocations += 1;
        let tick = Box::new(tick);
        self.queue.push(
            first.as_micros(),
            Action::Periodic { every, tick },
            &mut self.counters,
        );
    }

    /// Schedules `tick` to first run `first_in` from now and then every
    /// `every` thereafter, for as long as it returns `true`.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn schedule_periodic<F>(&mut self, first_in: SimDuration, every: SimDuration, tick: F)
    where
        F: FnMut(&mut S, &mut Engine<S>) -> bool + 'static,
    {
        self.schedule_periodic_at(self.now + first_in, every, tick);
    }

    /// Runs events until the queue is empty (or the deadline passes).
    pub fn run(&mut self, state: &mut S) {
        while self.step(state) {}
    }

    /// Runs a single event. Returns `false` when there is nothing left to do
    /// (or the next event lies beyond the deadline).
    pub fn step(&mut self, state: &mut S) -> bool {
        match self
            .queue
            .pop_due(self.deadline.map(|d| d.as_micros()), &mut self.counters)
        {
            Pop::Empty => false,
            Pop::Parked(_) => {
                // Leave the event queued; the clock parks at the deadline.
                let deadline = self.deadline.expect("parked without a deadline");
                self.now = self.now.max_of(deadline);
                false
            }
            Pop::Event(at, action) => {
                let at = SimTime::from_micros(at);
                debug_assert!(at >= self.now, "event queue went backwards");
                self.now = at;
                self.counters.events_executed += 1;
                match action {
                    Action::Once(run) => run(state, self),
                    Action::Periodic { every, mut tick } => {
                        if tick(state, self) {
                            self.counters.periodic_reschedules += 1;
                            self.queue.push(
                                (at + every).as_micros(),
                                Action::Periodic { every, tick },
                                &mut self.counters,
                            );
                        }
                    }
                }
                if let Some(audit) = &mut self.audit {
                    if self.counters.events_executed.is_multiple_of(audit.every) {
                        audit.stream.push(Checkpoint {
                            events: self.counters.events_executed,
                            at: self.now,
                            digest: (audit.hash)(state),
                        });
                    }
                }
                true
            }
        }
    }
}

impl<S> std::fmt::Debug for Engine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.counters.events_executed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_in_time_order() {
        let mut engine: Engine<Vec<u32>> = Engine::new();
        engine.schedule_in(SimDuration::from_secs(3), |log, _| log.push(3));
        engine.schedule_in(SimDuration::from_secs(1), |log, _| log.push(1));
        engine.schedule_in(SimDuration::from_secs(2), |log, _| log.push(2));
        let mut log = Vec::new();
        engine.run(&mut log);
        assert_eq!(log, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut engine: Engine<Vec<u32>> = Engine::new();
        for i in 0..10 {
            engine.schedule_at(SimTime::from_micros(500), move |log, _| log.push(i));
        }
        let mut log = Vec::new();
        engine.run(&mut log);
        assert_eq!(log, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_recursively() {
        let mut engine: Engine<u64> = Engine::new();
        fn tick(countdown: &mut u64, engine: &mut Engine<u64>) {
            if *countdown > 0 {
                *countdown -= 1;
                engine.schedule_in(SimDuration::from_millis(10), tick);
            }
        }
        engine.schedule_in(SimDuration::ZERO, tick);
        let mut countdown = 100;
        engine.run(&mut countdown);
        assert_eq!(countdown, 0);
        assert_eq!(engine.now().as_micros(), 100 * 10_000);
        assert_eq!(engine.events_executed(), 101);
    }

    #[test]
    fn deadline_parks_the_clock() {
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule_in(SimDuration::from_secs(1), |c: &mut u32, _| *c += 1);
        engine.schedule_in(SimDuration::from_secs(10), |c: &mut u32, _| *c += 100);
        engine.set_deadline(SimTime::ZERO + SimDuration::from_secs(5));
        let mut count = 0;
        engine.run(&mut count);
        assert_eq!(count, 1);
        assert_eq!(engine.pending(), 1);
        assert_eq!(engine.now(), SimTime::ZERO + SimDuration::from_secs(5));
    }

    #[test]
    fn deadline_parks_on_far_future_overflow_events() {
        // The pending event sits in the overflow list (centuries away); the
        // deadline check must fire without migrating years forward forever.
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule_in(
            SimDuration::from_secs(500 * 365 * 86_400),
            |c: &mut u32, _| *c += 1,
        );
        engine.set_deadline(SimTime::ZERO + SimDuration::from_secs(1));
        let mut count = 0;
        engine.run(&mut count);
        assert_eq!(count, 0);
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule_in(SimDuration::from_secs(1), |_, eng| {
            eng.schedule_at(SimTime::ZERO, |_, _| {});
        });
        engine.run(&mut 0);
    }

    #[test]
    fn periodic_events_rearm_without_reallocating() {
        let mut engine: Engine<Vec<u64>> = Engine::new();
        engine.schedule_periodic(
            SimDuration::from_secs(5),
            SimDuration::from_secs(5),
            |log: &mut Vec<u64>, eng| {
                log.push(eng.now().as_micros());
                log.len() < 1000
            },
        );
        let mut log = Vec::new();
        engine.run(&mut log);
        assert_eq!(log.len(), 1000);
        assert_eq!(log[0], 5_000_000);
        assert_eq!(log[999], 5_000_000 * 1000);
        let c = engine.counters();
        assert_eq!(c.events_executed, 1000);
        assert_eq!(c.periodic_reschedules, 999);
        // One boxed handler for a thousand ticks.
        assert_eq!(c.handler_allocations, 1);
    }

    #[test]
    fn periodic_and_oneshot_interleave_deterministically() {
        let mut engine: Engine<Vec<&'static str>> = Engine::new();
        engine.schedule_periodic(
            SimDuration::from_secs(2),
            SimDuration::from_secs(2),
            |log: &mut Vec<&'static str>, eng| {
                log.push("tick");
                eng.now() < SimTime::ZERO + SimDuration::from_secs(6)
            },
        );
        engine.schedule_at(
            SimTime::ZERO + SimDuration::from_secs(2),
            |log: &mut Vec<&'static str>, _| log.push("oneshot@2"),
        );
        engine.schedule_at(
            SimTime::ZERO + SimDuration::from_secs(4),
            |log: &mut Vec<&'static str>, _| log.push("oneshot@4"),
        );
        let mut log = Vec::new();
        engine.run(&mut log);
        // The periodic event was inserted first, so it wins the t=2 tie; its
        // re-arm at t=4 is pushed after the pre-scheduled oneshot.
        assert_eq!(log, vec!["tick", "oneshot@2", "oneshot@4", "tick", "tick"]);
    }

    #[test]
    fn periodic_stop_drops_the_handler() {
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule_periodic(
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
            |count: &mut u32, _| {
                *count += 1;
                false
            },
        );
        let mut count = 0;
        engine.run(&mut count);
        assert_eq!(count, 1);
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn sparse_far_future_events_jump_years() {
        // Events days apart with a microsecond-scale initial width: the
        // queue must jump across empty years rather than scan them.
        let mut engine: Engine<Vec<u64>> = Engine::new();
        for d in 1..=30u64 {
            engine.schedule_at(
                SimTime::ZERO + SimDuration::from_secs(d * 86_400),
                move |log: &mut Vec<u64>, _| log.push(d),
            );
        }
        let mut log = Vec::new();
        engine.run(&mut log);
        assert_eq!(log, (1..=30).collect::<Vec<_>>());
        // Bucket scans must stay within a small multiple of events executed.
        let c = engine.counters();
        assert!(
            c.buckets_scanned < 30 * 64,
            "scanned {} buckets for 30 events",
            c.buckets_scanned
        );
    }

    #[test]
    fn audit_samples_at_event_count_checkpoints() {
        let mut engine: Engine<u64> = Engine::new();
        engine.audit_every(3, |state| *state);
        for i in 1..=10u64 {
            engine.schedule_at(SimTime::from_micros(i * 100), move |s: &mut u64, _| *s += i);
        }
        let mut state = 0u64;
        engine.run(&mut state);
        let stream = engine.take_audit_stream();
        // 10 events, every=3 -> checkpoints after events 3, 6, 9.
        assert_eq!(
            stream.iter().map(|c| c.events).collect::<Vec<_>>(),
            vec![3, 6, 9]
        );
        assert_eq!(stream[0].at, SimTime::from_micros(300));
        assert_eq!(stream[0].digest, 1 + 2 + 3);
        assert_eq!(stream[2].digest, (1..=9).sum::<u64>());
        // The stream was taken; a fresh run accumulates from empty.
        assert!(engine.take_audit_stream().is_empty());
    }

    #[test]
    fn identical_runs_produce_identical_audit_streams() {
        let run = || {
            let mut engine: Engine<u64> = Engine::new();
            engine.audit_every(2, |s| {
                let mut d = crate::StateDigest::new();
                d.write_u64(*s);
                d.finish()
            });
            for i in 1..=7u64 {
                engine.schedule_at(SimTime::from_micros(i * 10), move |s: &mut u64, _| {
                    *s = s.wrapping_mul(31).wrapping_add(i)
                });
            }
            let mut state = 0u64;
            engine.run(&mut state);
            engine.take_audit_stream()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    #[should_panic(expected = "audit interval must be positive")]
    fn audit_interval_zero_panics() {
        let mut engine: Engine<u64> = Engine::new();
        engine.audit_every(0, |_| 0);
    }

    #[test]
    fn queue_grows_and_shrinks_through_resize() {
        let mut engine: Engine<u64> = Engine::new();
        for i in 0..10_000u64 {
            engine.schedule_at(SimTime::from_micros(i * 37 + 1), move |sum: &mut u64, _| {
                *sum += i
            });
        }
        let mut sum = 0;
        engine.run(&mut sum);
        assert_eq!(sum, (0..10_000).sum::<u64>());
        let c = engine.counters();
        assert!(c.resizes > 0, "ten thousand events must trigger resizes");
        // Amortized O(1): scans bounded by a small constant per event.
        assert!(
            c.buckets_scanned < 8 * c.events_executed,
            "scanned {} buckets for {} events",
            c.buckets_scanned,
            c.events_executed
        );
    }
}
