//! Synthetic user-activity traces.
//!
//! The thesis's production study (Ch. 8) is driven by real users arriving
//! at and leaving their workstations. We reproduce the *process* behind the
//! numbers it reports — "65-70% of hosts in Sprite are idle on average
//! during the day, with up to 80% idle at night and on weekends" — with a
//! two-state alternating-renewal model per host: exponential active and
//! idle periods whose means depend on the hour of day and the day of week.
//! Mutka/Livny-style long idle stretches \[ML87\] come out of the night/
//! weekend regime automatically.

use std::cell::Cell;

use sprite_net::HostId;
use sprite_sim::{DetRng, SimDuration, SimTime};

/// Seconds in an hour/day/week of simulated time.
pub const HOUR: u64 = 3_600;
/// Seconds in a day.
pub const DAY: u64 = 24 * HOUR;
/// Seconds in a week (simulations start on a Monday at midnight).
pub const WEEK: u64 = 7 * DAY;

/// Hour of day (0-23) at `t`.
pub fn hour_of(t: SimTime) -> u64 {
    (t.as_micros() / 1_000_000 % DAY) / HOUR
}

/// True on Saturday/Sunday (simulated time starts Monday 00:00).
pub fn is_weekend(t: SimTime) -> bool {
    let day = t.as_micros() / 1_000_000 / DAY % 7;
    day >= 5
}

/// True during working hours on a weekday.
pub fn is_working_hours(t: SimTime) -> bool {
    !is_weekend(t) && (9..18).contains(&hour_of(t))
}

/// Parameters of the per-host activity model.
#[derive(Debug, Clone, Copy)]
pub struct ActivityModel {
    /// Mean length of an at-console session during working hours.
    pub day_active_mean: SimDuration,
    /// Mean length of an idle gap during working hours.
    pub day_idle_mean: SimDuration,
    /// Mean at-console session length off hours.
    pub off_active_mean: SimDuration,
    /// Mean idle gap off hours.
    pub off_idle_mean: SimDuration,
}

impl Default for ActivityModel {
    /// Calibrated so ~1/3 of hosts are busy during the day and ~1/5 or less
    /// at night and on weekends — the fractions Chapter 8 reports.
    fn default() -> Self {
        ActivityModel {
            day_active_mean: SimDuration::from_secs(20 * 60),
            day_idle_mean: SimDuration::from_secs(40 * 60),
            off_active_mean: SimDuration::from_secs(8 * 60),
            off_idle_mean: SimDuration::from_secs(80 * 60),
        }
    }
}

impl ActivityModel {
    fn means_at(&self, t: SimTime) -> (SimDuration, SimDuration) {
        if is_working_hours(t) {
            (self.day_active_mean, self.day_idle_mean)
        } else {
            (self.off_active_mean, self.off_idle_mean)
        }
    }
}

/// One console transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivityEvent {
    /// When the transition happens.
    pub at: SimTime,
    /// The user's state *from* this instant.
    pub active: bool,
}

/// A host's activity trace over a horizon.
///
/// Lookups move an internal cursor through a [`Cell`], so a trace is
/// `Send` but not `Sync`: each thread queries traces of its own.
#[derive(Debug, Clone)]
pub struct ActivityTrace {
    /// The host this trace belongs to.
    pub host: HostId,
    events: Vec<ActivityEvent>,
    /// The last lookup's answer. Simulations query forward in time, a
    /// minute or so apart, so the next answer is nearly always the same
    /// event or the one after it. Only a shortcut: a lookup's result never
    /// depends on it.
    cursor: Cell<Cursor>,
}

/// Where an [`ActivityTrace`] lookup landed: event `index`, which holds
/// until `until` (µs; `u64::MAX` after the last event).
#[derive(Debug, Clone, Copy)]
struct Cursor {
    index: usize,
    event: ActivityEvent,
    until: u64,
}

impl Cursor {
    fn at(events: &[ActivityEvent], index: usize) -> Self {
        Cursor {
            index,
            event: events[index],
            until: events.get(index + 1).map_or(u64::MAX, |e| e.at.as_micros()),
        }
    }
}

impl ActivityTrace {
    /// Generates a trace for `host` covering `[0, horizon)`.
    pub fn generate(
        rng: &mut DetRng,
        model: &ActivityModel,
        host: HostId,
        horizon: SimDuration,
    ) -> Self {
        let end = SimTime::ZERO + horizon;
        let mut events = Vec::new();
        let mut t = SimTime::ZERO;
        // Start idle with a random phase so hosts do not move in lockstep.
        let mut active = rng.chance(0.25);
        events.push(ActivityEvent { at: t, active });
        while t < end {
            let (active_mean, idle_mean) = model.means_at(t);
            let dwell = if active {
                rng.exponential(active_mean)
            } else {
                rng.exponential(idle_mean)
            };
            t += dwell.max(SimDuration::from_secs(1));
            active = !active;
            if t < end {
                events.push(ActivityEvent { at: t, active });
            }
        }
        ActivityTrace {
            host,
            cursor: Cell::new(Cursor::at(&events, 0)),
            events,
        }
    }

    /// The transitions, in time order.
    pub fn events(&self) -> &[ActivityEvent] {
        &self.events
    }

    /// The last transition at or before `t`. These lookups run millions of
    /// times in the month-long production simulations, so one that lands
    /// in the cursor's event is answered from the cursor alone (inlined
    /// into the caller).
    #[inline]
    fn last_transition_before(&self, t: SimTime) -> ActivityEvent {
        let c = self.cursor.get();
        if c.event.at <= t && t.as_micros() < c.until {
            return c.event;
        }
        self.seek(t)
    }

    /// Moves the cursor to the last transition at or before `t`: the event
    /// after the cursor's when `t` lands in it (one comparison; in
    /// month_in_life about 1 lookup in 80, against 1 in 2,900 that jumps
    /// further), otherwise a binary search of all the events. They are
    /// strictly ordered by time and `generate` always records one at t = 0,
    /// so there is one.
    fn seek(&self, t: SimTime) -> ActivityEvent {
        let next = self.cursor.get().index + 1;
        let step = self.events.get(next).is_some_and(|e| e.at <= t)
            && self.events.get(next + 1).is_none_or(|e| t < e.at);
        let i = if step {
            next
        } else {
            self.events.partition_point(|e| e.at <= t) - 1
        };
        self.cursor.set(Cursor::at(&self.events, i));
        self.events[i]
    }

    /// Whether the user is at the console at `t`.
    #[inline]
    pub fn active_at(&self, t: SimTime) -> bool {
        self.last_transition_before(t).active
    }

    /// How long the console has been untouched at `t` (zero while active).
    #[inline]
    pub fn idle_duration_at(&self, t: SimTime) -> SimDuration {
        let e = self.last_transition_before(t);
        if e.active {
            SimDuration::ZERO
        } else {
            t.elapsed_since(e.at)
        }
    }
}

/// Fraction of hosts idle at `t` given their traces.
pub fn fraction_idle(traces: &[ActivityTrace], t: SimTime) -> f64 {
    if traces.is_empty() {
        return 0.0;
    }
    let idle = traces.iter().filter(|tr| !tr.active_at(t)).count();
    idle as f64 / traces.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_helpers() {
        let monday_10am = SimTime::ZERO + SimDuration::from_secs(10 * HOUR);
        assert_eq!(hour_of(monday_10am), 10);
        assert!(!is_weekend(monday_10am));
        assert!(is_working_hours(monday_10am));
        let saturday_noon = SimTime::ZERO + SimDuration::from_secs(5 * DAY + 12 * HOUR);
        assert!(is_weekend(saturday_noon));
        assert!(!is_working_hours(saturday_noon));
        let monday_3am = SimTime::ZERO + SimDuration::from_secs(3 * HOUR);
        assert!(!is_working_hours(monday_3am));
    }

    #[test]
    fn traces_cover_the_horizon_in_order() {
        let mut rng = DetRng::seed_from(1);
        let tr = ActivityTrace::generate(
            &mut rng,
            &ActivityModel::default(),
            HostId::new(0),
            SimDuration::from_secs(2 * DAY),
        );
        let evs = tr.events();
        assert!(!evs.is_empty());
        for w in evs.windows(2) {
            assert!(w[0].at < w[1].at, "events strictly ordered");
            assert_ne!(w[0].active, w[1].active, "states alternate");
        }
    }

    #[test]
    fn idle_fractions_match_the_thesis_bands() {
        let mut rng = DetRng::seed_from(7);
        let model = ActivityModel::default();
        let traces: Vec<ActivityTrace> = (0..200)
            .map(|i| {
                ActivityTrace::generate(
                    &mut rng,
                    &model,
                    HostId::new(i),
                    SimDuration::from_secs(WEEK),
                )
            })
            .collect();
        // Average over weekday working hours (Mon-Fri, 9-18).
        let mut day = Vec::new();
        let mut night = Vec::new();
        for day_idx in 0..7u64 {
            for hour in 0..24u64 {
                let t =
                    SimTime::ZERO + SimDuration::from_secs(day_idx * DAY + hour * HOUR + 30 * 60);
                let f = fraction_idle(&traces, t);
                if is_working_hours(t) {
                    day.push(f);
                } else {
                    night.push(f);
                }
            }
        }
        let day_avg = day.iter().sum::<f64>() / day.len() as f64;
        let night_avg = night.iter().sum::<f64>() / night.len() as f64;
        assert!(
            (0.60..0.78).contains(&day_avg),
            "daytime idle fraction {day_avg} outside the 65-70% band"
        );
        assert!(
            night_avg > 0.75,
            "off-hours idle fraction {night_avg} should reach ~80%"
        );
        assert!(night_avg > day_avg);
    }

    #[test]
    fn idle_duration_tracks_last_activity() {
        let mut rng = DetRng::seed_from(3);
        let tr = ActivityTrace::generate(
            &mut rng,
            &ActivityModel::default(),
            HostId::new(0),
            SimDuration::from_secs(DAY),
        );
        // Find an idle->active transition and check durations around it.
        let evs = tr.events();
        if let Some(w) = evs.windows(2).find(|w| !w[0].active && w[1].active) {
            let mid = w[0].at + w[1].at.elapsed_since(w[0].at) / 2;
            assert_eq!(
                tr.idle_duration_at(mid),
                mid.elapsed_since(w[0].at),
                "idle duration counts from the idle period's start"
            );
            assert_eq!(tr.idle_duration_at(w[1].at), SimDuration::ZERO);
        }
    }

    #[test]
    fn same_seed_reproduces_the_same_trace() {
        let model = ActivityModel::default();
        let a = ActivityTrace::generate(
            &mut DetRng::seed_from(9),
            &model,
            HostId::new(0),
            SimDuration::from_secs(DAY),
        );
        let b = ActivityTrace::generate(
            &mut DetRng::seed_from(9),
            &model,
            HostId::new(0),
            SimDuration::from_secs(DAY),
        );
        assert_eq!(a.events(), b.events());
    }
}
