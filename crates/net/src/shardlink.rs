//! Cross-shard link policy for the conservative-parallel engine.
//!
//! The sharded engine in `sprite_sim` admits parallelism through one
//! physical fact: a message between hosts takes at least
//! [`CostModel::min_link_latency`] to arrive, so a partition of the cluster
//! cannot affect another partition sooner than that. The engine turns the
//! bound into a barrier *cadence* (its lookahead) and requires every
//! cross-cell send to declare a latency at or above it.
//!
//! [`ShardLink`] is the adapter between the two layers. It owns the cost
//! model and a chosen cadence, checks once at construction that the cadence
//! respects the hardware floor, and quantizes each payload's raw link
//! latency *up* onto the cadence lattice. Quantizing up is conservative —
//! a message never arrives earlier than the hardware would deliver it — and
//! it aligns deliveries with barrier boundaries, so a cross-shard send made
//! in window `k` is merged at barrier `k` and executed no earlier than
//! window `k+1`, which is exactly the invariant the deterministic merge
//! needs.
//!
//! The m02 macrobenchmark runs its hosts on a one-simulated-minute activity
//! lattice and picks that minute as the cadence: raw latencies (hundreds of
//! microseconds) all quantize to a single tick, so sharding changes nothing
//! observable about the workload — which is the point.

use crate::cost::CostModel;
use sprite_sim::SimDuration;

/// Maps the [`CostModel`]'s link timings onto a barrier cadence for the
/// sharded engine. Construction fails (panics) if the cadence undercuts the
/// hardware's minimum link latency, because then quantization could not be
/// an inflation and the conservative argument would not hold.
#[derive(Debug, Clone)]
pub struct ShardLink {
    cost: CostModel,
    cadence: SimDuration,
}

impl ShardLink {
    /// Binds a cost model to a barrier cadence.
    ///
    /// # Panics
    ///
    /// Panics if `cadence` is zero or below
    /// `CostModel::min_link_latency`.
    pub fn new(cost: CostModel, cadence: SimDuration) -> Self {
        assert!(
            cadence > SimDuration::ZERO,
            "shard barrier cadence must be positive"
        );
        assert!(
            cadence >= cost.min_link_latency(),
            "shard barrier cadence {cadence} undercuts the hardware's \
             minimum link latency {}",
            cost.min_link_latency()
        );
        ShardLink { cost, cadence }
    }

    /// The engine lookahead this link supports: the barrier cadence itself.
    pub fn lookahead(&self) -> SimDuration {
        self.cadence
    }

    /// The underlying cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// What the hardware would charge for a one-way message of `bytes`:
    /// wire latency plus serialization time. This is the floor the
    /// quantized latency inflates from.
    pub(crate) fn raw_latency(&self, bytes: u64) -> SimDuration {
        self.cost.message_latency + self.cost.wire_time(bytes)
    }

    /// Number of whole cadence ticks a one-way message of `bytes` spans —
    /// always at least one.
    pub(crate) fn ticks_for(&self, bytes: u64) -> u64 {
        let raw = self.raw_latency(bytes).as_micros();
        let cadence = self.cadence.as_micros();
        raw.div_ceil(cadence).max(1)
    }

    /// The latency to declare on a cross-cell send carrying `bytes`: the
    /// raw link latency rounded *up* to the cadence lattice. Guaranteed
    /// `>= self.lookahead()` and `>= self.raw_latency(bytes)`, which makes
    /// it safe for the sharded engine and conservative with respect to the
    /// hardware.
    pub fn latency(&self, bytes: u64) -> SimDuration {
        self.cadence * self.ticks_for(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minute() -> SimDuration {
        SimDuration::from_secs(60)
    }

    #[test]
    fn sun3_floor_is_the_one_way_message_latency() {
        let c = CostModel::sun3();
        assert_eq!(c.min_link_latency(), c.message_latency);
        assert_eq!(c.min_link_latency(), SimDuration::from_micros(650));
    }

    #[test]
    fn small_messages_quantize_to_exactly_one_tick() {
        let link = ShardLink::new(CostModel::sun3(), minute());
        assert_eq!(link.ticks_for(0), 1);
        assert_eq!(link.ticks_for(1024), 1);
        assert_eq!(link.latency(1024), minute());
        assert_eq!(link.lookahead(), minute());
    }

    #[test]
    fn bulk_payloads_span_multiple_ticks() {
        // At 480 KB/s a minute moves 28.8 MB; 40 MB needs a second tick.
        let link = ShardLink::new(CostModel::sun3(), minute());
        assert_eq!(link.ticks_for(27 * 1024 * 1024), 1);
        assert_eq!(link.ticks_for(40 * 1024 * 1024), 2);
        assert_eq!(link.latency(40 * 1024 * 1024), minute() * 2);
    }

    #[test]
    fn quantized_latency_dominates_both_bounds() {
        let link = ShardLink::new(CostModel::sun3(), SimDuration::from_micros(650));
        for bytes in [0u64, 100, 4096, 1 << 20] {
            let q = link.latency(bytes);
            assert!(q >= link.lookahead(), "lookahead bound violated");
            assert!(q >= link.raw_latency(bytes), "hardware bound violated");
        }
    }

    #[test]
    fn tight_cadence_tracks_the_raw_latency() {
        // Cadence equal to the floor: a 4 KB message's raw latency is
        // 650us + 4096/480000 s ~= 9183us -> ceil(9183/650) = 15 ticks.
        let link = ShardLink::new(CostModel::sun3(), SimDuration::from_micros(650));
        assert_eq!(link.ticks_for(4096), 15);
    }

    #[test]
    #[should_panic(expected = "undercuts the hardware's minimum link latency")]
    fn cadence_below_the_floor_is_rejected() {
        let _ = ShardLink::new(CostModel::sun3(), SimDuration::from_micros(100));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_cadence_is_rejected() {
        let _ = ShardLink::new(CostModel::sun3(), SimDuration::ZERO);
    }
}
