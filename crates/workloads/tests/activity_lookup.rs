//! Equivalence test: [`ActivityTrace`]'s cursor lookups against a binary
//! search over its events.
//!
//! `active_at` and `idle_duration_at` answer from a cursor that remembers
//! the previous lookup. The reference answers every query from scratch
//! with `partition_point`. They must agree at every event, one microsecond
//! on either side of it, on every minute (so on every hour boundary), at
//! t = 0 and past the horizon, whether the queries arrive in time order
//! (the simulations' order) or shuffled (so the cursor is as often ahead
//! of the query as behind it).

use sprite_net::HostId;
use sprite_sim::{DetRng, SimDuration, SimTime};
use sprite_workloads::{ActivityModel, ActivityTrace, DAY, HOUR};

/// `(active, idle duration)` at `t`, by binary search.
fn reference(trace: &ActivityTrace, t: SimTime) -> (bool, SimDuration) {
    let events = trace.events();
    match events.partition_point(|e| e.at <= t).checked_sub(1) {
        Some(i) if events[i].active => (true, SimDuration::ZERO),
        Some(i) => (false, t.elapsed_since(events[i].at)),
        None => (false, t.elapsed_since(SimTime::ZERO)),
    }
}

fn us(micros: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(micros)
}

/// Every instant the lookups must get right, in time order.
fn query_times(trace: &ActivityTrace, horizon: SimDuration) -> Vec<SimTime> {
    let mut times = vec![SimTime::ZERO];
    for e in trace.events() {
        let at = e.at.as_micros();
        times.extend([us(at.saturating_sub(1)), e.at, us(at + 1)]);
    }
    // Every minute (the simulations' tick), which includes every hour
    // boundary, to two hours past the horizon.
    let end = horizon.as_micros();
    for minute in 0..=(end + 2 * HOUR * 1_000_000) / 60_000_000 {
        times.push(us(minute * 60_000_000));
    }
    times.extend([
        us(end - 1),
        us(end),
        us(end + 1),
        us(end + DAY * 1_000_000),
        us(u64::MAX),
    ]);
    times.sort_unstable();
    times
}

fn shuffle(times: &mut [SimTime], rng: &mut DetRng) {
    for i in (1..times.len()).rev() {
        let j = rng.uniform_u64(i as u64 + 1) as usize;
        times.swap(i, j);
    }
}

fn check(trace: &ActivityTrace, times: &[SimTime], order: &str) {
    for &t in times {
        let (active, idle) = reference(trace, t);
        assert_eq!(trace.active_at(t), active, "{order} active_at({t})");
        assert_eq!(
            trace.idle_duration_at(t),
            idle,
            "{order} idle_duration_at({t})"
        );
    }
}

#[test]
fn cursor_lookups_match_binary_search_in_any_order() {
    let model = ActivityModel::default();
    let horizon = SimDuration::from_secs(3 * DAY);
    let mut rng = DetRng::seed_from(47);
    for host in 0..24 {
        let trace = ActivityTrace::generate(&mut rng, &model, HostId::new(host), horizon);
        // A copy whose cursor stays on the first event until it is queried.
        let fresh = trace.clone();
        let mut times = query_times(&trace, horizon);
        assert!(times.len() > 3 * trace.events().len());
        check(&trace, &times, "forward");
        shuffle(&mut times, &mut rng);
        check(&trace, &times, "shuffled after a forward pass");
        check(&fresh, &times, "shuffled from the first event");
        // Back to time order after the cursor was left anywhere.
        times.sort_unstable();
        check(&trace, &times, "forward again");
    }
}
