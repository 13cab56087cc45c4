//! Statistics collection for experiment harnesses.
//!
//! The benchmark binaries report the same kinds of aggregates the paper's
//! tables do: means, standard deviations, percentiles and simple
//! distributions. Everything here is deliberately small and allocation-light
//! so it can be sprinkled through hot simulation paths.

use std::fmt;

use crate::SimDuration;

/// Online mean/variance/min/max over `f64` observations (Welford's method).
///
/// # Examples
///
/// ```
/// use sprite_sim::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.std_dev() - 2.138).abs() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds a duration observation in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (0 with fewer than two observations).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Smallest observation (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        let OnlineStats {
            count,
            mean,
            m2,
            min,
            max,
        } = *other;
        if count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = count as f64;
        let delta = mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += m2 + delta * delta * n1 * n2 / total;
        self.count += count;
        self.min = self.min.min(min);
        self.max = self.max.max(max);
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min(),
            self.max()
        )
    }
}

/// A sample reservoir supporting exact percentiles; stores every observation.
///
/// The paper's figures that show distributions (process lifetimes, idle
/// periods) come from full traces, so keeping all samples is faithful and
/// the volumes are modest.
///
/// # Examples
///
/// ```
/// use sprite_sim::Samples;
///
/// let mut s = Samples::new();
/// for x in 1..=100 {
///     s.record(x as f64);
/// }
/// assert_eq!(s.percentile(50.0), 50.0);
/// assert_eq!(s.percentile(100.0), 100.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
    }

    /// Adds a duration observation in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `p`-th percentile (nearest-rank), `p` in `[0, 100]`.
    /// Returns 0 for an empty set.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let rank = ((p / 100.0) * self.values.len() as f64).ceil() as usize;
        self.values[rank.clamp(1, self.values.len()) - 1]
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// A read-only view of the raw observations (unspecified order).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Effort counters for the event engine's calendar queue.
///
/// These make the engine's cost model observable: `events_executed` is the
/// work done, `buckets_scanned` the calendar's search effort (amortized O(1)
/// means it stays within a small multiple of events executed),
/// `periodic_reschedules` the number of ticks that re-armed an existing
/// boxed handler instead of allocating a new one, and
/// `handler_allocations` the closures actually boxed — so
/// `periodic_reschedules / (periodic_reschedules + handler_allocations)`
/// is the fraction of allocations the periodic path avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Events executed so far.
    pub events_executed: u64,
    /// Boxed handlers created (`schedule_at`/`schedule_in` once each,
    /// `schedule_periodic` once per *installation*, not per tick).
    pub handler_allocations: u64,
    /// Periodic ticks re-armed in place — each is one avoided allocation
    /// and one avoided enqueue of a fresh closure.
    pub periodic_reschedules: u64,
    /// Calendar buckets inspected while searching for the next event.
    pub buckets_scanned: u64,
    /// Key comparisons made to order the cursor's bucket on `(time, push
    /// stamp)`: sorting it when the cursor reaches it, checking a push
    /// into it against the sorted front's tail (times only, as a push
    /// carries the newest stamp), and merging the pushes parked below that
    /// tail (one stable sort over the front). O(log k) per pop for a
    /// bucket of k entries, and one per entry when they share a timestamp,
    /// since a bucket holds them in push order. Comparisons inside the
    /// overflow heap are not counted, so a run that sends most events
    /// through the heap reports fewer comparisons than it makes.
    pub keys_compared: u64,
    /// Events migrated from the overflow heap into buckets as the calendar
    /// advanced years.
    pub overflow_migrations: u64,
    /// Calendar rebuilds (grow, shrink, or re-anchor).
    pub resizes: u64,
}

impl EngineCounters {
    /// Adds another queue's counters to these. Destructured exhaustively,
    /// so a new counter cannot be left out of the sum.
    pub fn merge(&mut self, other: &EngineCounters) {
        let EngineCounters {
            events_executed,
            handler_allocations,
            periodic_reschedules,
            buckets_scanned,
            keys_compared,
            overflow_migrations,
            resizes,
        } = *other;
        self.events_executed += events_executed;
        self.handler_allocations += handler_allocations;
        self.periodic_reschedules += periodic_reschedules;
        self.buckets_scanned += buckets_scanned;
        self.keys_compared += keys_compared;
        self.overflow_migrations += overflow_migrations;
        self.resizes += resizes;
    }
}

impl fmt::Display for EngineCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "events={} allocs={} rearm={} scans={} keys={} migrations={} resizes={}",
            self.events_executed,
            self.handler_allocations,
            self.periodic_reschedules,
            self.buckets_scanned,
            self.keys_compared,
            self.overflow_migrations,
            self.resizes
        )
    }
}

/// A fixed set of labelled counters, printed as a table row; used by the
/// harness for message/operation counts.
///
/// # Examples
///
/// ```
/// use sprite_sim::Counter;
///
/// let mut c = Counter::default();
/// c.add(3);
/// c.add(4);
/// assert_eq!(c.get(), 7);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increments by one.
    pub fn bump(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        s.record(10.0);
        assert_eq!(s.mean(), 10.0);
        assert_eq!(s.std_dev(), 0.0);
        s.record(20.0);
        assert_eq!(s.mean(), 15.0);
        assert_eq!(s.min(), 10.0);
        assert_eq!(s.max(), 20.0);
        assert!((s.std_dev() - (50.0f64).sqrt()).abs() < 1e-9);
        assert_eq!(s.sum(), 30.0);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let mut all = OnlineStats::new();
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for i in 0..100 {
            let x = (i as f64) * 0.37 + ((i * i) % 17) as f64;
            all.record(x);
            if i % 2 == 0 {
                left.record(x);
            } else {
                right.record(x);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.std_dev() - all.std_dev()).abs() < 1e-9);
        assert_eq!(left.min(), all.min());
        assert_eq!(left.max(), all.max());
    }

    #[test]
    fn merge_into_empty() {
        let mut empty = OnlineStats::new();
        let mut other = OnlineStats::new();
        other.record(5.0);
        empty.merge(&other);
        assert_eq!(empty.mean(), 5.0);
        let mut other2 = OnlineStats::new();
        other2.merge(&OnlineStats::new());
        assert_eq!(other2.count(), 0);
    }

    /// A Default-built accumulator of positive samples must report their
    /// true minimum, directly and after a merge.
    #[test]
    fn a_default_accumulator_reports_the_true_minimum() {
        let mut s = OnlineStats::default();
        s.record(12.5);
        s.record(9.0);
        assert_eq!((s.min(), s.max()), (9.0, 12.5));
        let mut other = OnlineStats::default();
        other.record(38.0);
        s.merge(&other);
        assert_eq!((s.min(), s.max()), (9.0, 38.0));
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = Samples::new();
        for x in [15.0, 20.0, 35.0, 40.0, 50.0] {
            s.record(x);
        }
        assert_eq!(s.percentile(30.0), 20.0);
        assert_eq!(s.percentile(40.0), 20.0);
        assert_eq!(s.percentile(50.0), 35.0);
        assert_eq!(s.percentile(100.0), 50.0);
        assert_eq!(s.percentile(0.0), 15.0);
    }

    #[test]
    fn empty_samples_are_zero() {
        let mut s = Samples::new();
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn duration_recording() {
        let mut s = OnlineStats::new();
        s.record_duration(SimDuration::from_millis(1_500));
        assert!((s.mean() - 1.5).abs() < 1e-12);
        let mut v = Samples::new();
        v.record_duration(SimDuration::from_secs(2));
        assert_eq!(v.mean(), 2.0);
    }

    #[test]
    fn engine_counters_merge_sums_every_field() {
        let one = EngineCounters {
            events_executed: 1,
            handler_allocations: 2,
            periodic_reschedules: 3,
            buckets_scanned: 4,
            keys_compared: 5,
            overflow_migrations: 6,
            resizes: 7,
        };
        let mut total = one;
        total.merge(&one);
        assert_eq!(
            total.to_string(),
            "events=2 allocs=4 rearm=6 scans=8 keys=10 migrations=12 resizes=14"
        );
    }

    #[test]
    fn counters() {
        let mut c = Counter::default();
        c.bump();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.to_string(), "10");
    }
}
