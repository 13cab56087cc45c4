//! The simulated Ethernet and RPC transport.
//!
//! Sprite kernels cooperate through a synchronous remote-procedure-call
//! system \[Wel86\] modelled on Birrell–Nelson \[BN84\]: the calling kernel
//! blocks until the reply arrives, large payloads are split into fragments,
//! and every host shares one 10 Mbit Ethernet. [`Network`] reproduces that
//! structure:
//!
//! * the wire is a single [`SlottedResource`] — concurrent transfers
//!   serialize, which is what eventually throttles migration-heavy
//!   workloads, but a transfer arriving between two already-scheduled
//!   transmissions uses the idle gap, as on a real CSMA wire;
//! * an RPC costs two message latencies, two processing steps, and wire
//!   occupancy for both payloads; the callee's CPU can optionally be charged
//!   so busy servers queue;
//! * bulk transfers pay per-fragment overhead, matching the observation that
//!   whole-image VM transfer "can take many seconds, even using the highest
//!   transfer rate allowed by the network" (Ch. 4);
//! * every message and byte is counted, because the host-selection
//!   comparison (E10) reports messages per operation.

use sprite_sim::{Counter, FcfsResource, SimDuration, SimTime, SlottedResource, StateDigest};

use crate::{CostModel, HostId};

/// Message categories, tallied separately for the evaluation tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// An RPC request.
    Request,
    /// An RPC reply.
    Reply,
    /// One fragment of a bulk transfer.
    Fragment,
    /// A broadcast/multicast datagram.
    Multicast,
}

/// Aggregate traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Total messages of any kind put on the wire.
    pub messages: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// RPC round trips completed.
    pub rpcs: u64,
    /// Multicast datagrams sent.
    pub multicasts: u64,
}

/// The completion of a network operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the operation finished (reply received / last fragment landed).
    pub done: SimTime,
}

impl Delivery {
    /// The elapsed duration from `start` to completion.
    pub fn elapsed(self, start: SimTime) -> SimDuration {
        self.done.elapsed_since(start)
    }
}

/// The shared network connecting every simulated host.
///
/// Its send methods are crate-private: every message goes through the
/// typed [`Transport`](crate::Transport), which charges this network and
/// books the send in the per-op [`RpcTable`](crate::RpcTable).
///
/// # Examples
///
/// ```
/// use sprite_net::{CostModel, HostId, RpcOp, Transport};
/// use sprite_sim::SimTime;
///
/// let mut net = Transport::new(CostModel::sun3(), 4);
/// let t0 = SimTime::ZERO;
/// let done = net.send(RpcOp::SignalForward, t0, HostId::new(0), HostId::new(1), None)?;
/// // A small RPC takes ~2.6ms plus wire time for the payloads.
/// assert!(done.elapsed(t0).as_micros() > 2_600);
/// assert_eq!(net.stats().rpcs, 1);
/// # Ok::<(), sprite_net::RpcError>(())
/// ```
#[derive(Debug)]
pub struct Network {
    cost: CostModel,
    wire: SlottedResource,
    hosts: usize,
    stats: NetStats,
    sent_by_host: Vec<Counter>,
}

impl Network {
    /// Creates a network of `hosts` machines with the given cost model.
    pub fn new(cost: CostModel, hosts: usize) -> Self {
        Network {
            cost,
            wire: SlottedResource::new(),
            hosts,
            stats: NetStats::default(),
            sent_by_host: vec![Counter::default(); hosts],
        }
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Number of attached hosts.
    pub fn host_count(&self) -> usize {
        self.hosts
    }

    /// Traffic totals so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Messages sent by one host.
    pub fn sent_by(&self, host: HostId) -> u64 {
        self.sent_by_host[host.index()].get()
    }

    /// Folds the network's observable state into `d`: traffic totals, the
    /// shared wire's busy horizon, and per-host send counters.
    pub fn digest_into(&self, d: &mut StateDigest) {
        let Self {
            cost: _, // immutable latency/bandwidth constants
            wire,
            hosts: _, // immutable cluster size
            stats,
            sent_by_host,
        } = self;
        let NetStats {
            messages,
            bytes,
            rpcs,
            multicasts,
        } = *stats;
        for v in [messages, bytes, rpcs, multicasts] {
            d.write_u64(v);
        }
        d.write_u64(wire.horizon().as_micros());
        for c in sent_by_host {
            d.write_u64(c.get());
        }
    }

    /// Resets the traffic counters (measurement-phase boundaries); the wire's
    /// busy horizon is preserved.
    pub fn reset_stats(&mut self) {
        self.stats = NetStats::default();
        for c in &mut self.sent_by_host {
            *c = Counter::default();
        }
    }

    fn put_on_wire(
        &mut self,
        now: SimTime,
        from: HostId,
        kind: MessageKind,
        bytes: u64,
    ) -> SimTime {
        debug_assert!(from.index() < self.hosts, "unknown sender {from}");
        let occupancy = self.cost.wire_time(bytes.max(64));
        let sent = self.wire.acquire(now, occupancy);
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        if kind == MessageKind::Multicast {
            self.stats.multicasts += 1;
        }
        self.sent_by_host[from.index()].bump();
        sent + self.cost.message_latency
    }

    /// Performs a synchronous RPC from `from` to `to`. If `server_cpu` is
    /// supplied, the callee's processing queues on that resource, so a busy
    /// server delays the reply (this is how file-server saturation limits
    /// pmake speedup). Returns the completion of the round trip.
    ///
    /// `extra_service` is additional server-side service time beyond the
    /// fixed RPC dispatch cost (e.g. a name lookup or a disk access).
    #[expect(clippy::too_many_arguments)]
    pub(crate) fn rpc(
        &mut self,
        now: SimTime,
        from: HostId,
        to: HostId,
        request_bytes: u64,
        reply_bytes: u64,
        extra_service: SimDuration,
        server_cpu: Option<&mut FcfsResource>,
    ) -> Delivery {
        debug_assert!(from != to, "RPC to self: {from} -> {to}");
        // Client marshals and transmits the request.
        let marshalled = now + self.cost.rpc_processing;
        let arrived = self.put_on_wire(marshalled, from, MessageKind::Request, request_bytes);
        // Server processes (possibly queued behind other work).
        let service = self.cost.rpc_processing + extra_service;
        let served = match server_cpu {
            Some(cpu) => cpu.acquire(arrived, service),
            None => arrived + service,
        };
        // Server transmits the reply.
        let replied = self.put_on_wire(served, to, MessageKind::Reply, reply_bytes);
        self.stats.rpcs += 1;
        Delivery { done: replied }
    }

    /// Transfers `bytes` of bulk data from `from` to `to` through the
    /// fragmenting RPC path; returns when the final acknowledgement lands.
    pub(crate) fn bulk(&mut self, now: SimTime, from: HostId, to: HostId, bytes: u64) -> Delivery {
        debug_assert!(from != to, "bulk transfer to self: {from} -> {to}");
        let fragments = self.cost.fragments_for(bytes);
        let mut clock = now;
        let mut remaining = bytes;
        for _ in 0..fragments {
            let chunk = remaining.min(self.cost.fragment_bytes);
            remaining -= chunk;
            clock += self.cost.fragment_overhead;
            clock = self.put_on_wire(clock, from, MessageKind::Fragment, chunk);
        }
        // Single acknowledgement for the whole transfer.
        let acked = self.put_on_wire(clock, to, MessageKind::Reply, 64);
        self.stats.rpcs += 1;
        Delivery { done: acked }
    }

    /// Sends a single one-way datagram (no reply, no retransmission) —
    /// MOSIX-style load dissemination uses these rather than full RPCs.
    pub(crate) fn datagram(
        &mut self,
        now: SimTime,
        from: HostId,
        to: HostId,
        bytes: u64,
    ) -> Delivery {
        debug_assert!(from != to, "datagram to self: {from} -> {to}");
        let done = self.put_on_wire(now, from, MessageKind::Request, bytes);
        Delivery { done }
    }

    /// Broadcasts `bytes` to every host; returns when the datagram has
    /// reached all of them (one wire occupancy — that is the point of
    /// multicast \[TL88\]).
    pub(crate) fn multicast(&mut self, now: SimTime, from: HostId, bytes: u64) -> Delivery {
        let done = self.put_on_wire(now, from, MessageKind::Multicast, bytes);
        Delivery { done }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(hosts: usize) -> Network {
        Network::new(CostModel::sun3(), hosts)
    }

    #[test]
    fn small_rpc_close_to_published_round_trip() {
        let mut n = net(2);
        let d = n.rpc(
            SimTime::ZERO,
            HostId::new(0),
            HostId::new(1),
            64,
            64,
            SimDuration::ZERO,
            None,
        );
        let rtt = d.elapsed(SimTime::ZERO);
        // 2.6ms fixed cost plus two minimum-size wire occupancies.
        let wire = n.cost().wire_time(64) * 2;
        assert_eq!(rtt, SimDuration::from_micros(2_600) + wire);
    }

    #[test]
    fn rpc_counts_messages_and_bytes() {
        let mut n = net(2);
        n.rpc(
            SimTime::ZERO,
            HostId::new(0),
            HostId::new(1),
            100,
            200,
            SimDuration::ZERO,
            None,
        );
        let s = n.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 300);
        assert_eq!(s.rpcs, 1);
        assert_eq!(n.sent_by(HostId::new(0)), 1);
        assert_eq!(n.sent_by(HostId::new(1)), 1);
    }

    #[test]
    fn busy_server_delays_reply() {
        let mut n = net(2);
        let mut cpu = FcfsResource::new();
        // Server busy for 50ms.
        cpu.acquire(SimTime::ZERO, SimDuration::from_millis(50));
        let d = n.rpc(
            SimTime::ZERO,
            HostId::new(0),
            HostId::new(1),
            64,
            64,
            SimDuration::ZERO,
            Some(&mut cpu),
        );
        assert!(d.done > SimTime::ZERO + SimDuration::from_millis(50));
    }

    #[test]
    fn extra_service_extends_round_trip() {
        let mut n = net(2);
        let plain = n
            .rpc(
                SimTime::ZERO,
                HostId::new(0),
                HostId::new(1),
                64,
                64,
                SimDuration::ZERO,
                None,
            )
            .elapsed(SimTime::ZERO);
        let mut n2 = net(2);
        let served = n2
            .rpc(
                SimTime::ZERO,
                HostId::new(0),
                HostId::new(1),
                64,
                64,
                SimDuration::from_millis(20),
                None,
            )
            .elapsed(SimTime::ZERO);
        assert_eq!(served, plain + SimDuration::from_millis(20));
    }

    #[test]
    fn bulk_transfer_scales_with_size() {
        let mut n = net(2);
        let a = HostId::new(0);
        let b = HostId::new(1);
        let one_mb = n.bulk(SimTime::ZERO, a, b, 1 << 20).elapsed(SimTime::ZERO);
        let mut n2 = net(2);
        let four_mb = n2.bulk(SimTime::ZERO, a, b, 4 << 20).elapsed(SimTime::ZERO);
        // Four megabytes should take ~4x as long as one (within fixed costs).
        let ratio = four_mb.as_secs_f64() / one_mb.as_secs_f64();
        assert!(
            (3.5..4.5).contains(&ratio),
            "expected ~4x scaling, got {ratio}"
        );
        // And ~1MB at ~480KB/s is on the order of seconds, as the paper says.
        assert!(one_mb > SimDuration::from_secs(2));
        assert!(one_mb < SimDuration::from_secs(4));
    }

    #[test]
    fn concurrent_transfers_share_the_wire() {
        let mut n = net(3);
        let solo = {
            let mut n1 = net(2);
            n1.bulk(SimTime::ZERO, HostId::new(0), HostId::new(1), 1 << 20)
                .elapsed(SimTime::ZERO)
        };
        // Two simultaneous 1MB transfers between disjoint host pairs.
        let d1 = n.bulk(SimTime::ZERO, HostId::new(0), HostId::new(1), 1 << 20);
        let d2 = n.bulk(SimTime::ZERO, HostId::new(2), HostId::new(1), 1 << 20);
        let last = d1.done.max_of(d2.done).elapsed_since(SimTime::ZERO);
        assert!(
            last.as_secs_f64() > 1.8 * solo.as_secs_f64(),
            "shared wire should nearly double completion: solo={solo} both={last}"
        );
    }

    #[test]
    fn multicast_occupies_wire_once() {
        let mut n = net(50);
        n.multicast(SimTime::ZERO, HostId::new(7), 128);
        let s = n.stats();
        assert_eq!(s.messages, 1);
        assert_eq!(s.multicasts, 1);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut n = net(2);
        n.rpc(
            SimTime::ZERO,
            HostId::new(0),
            HostId::new(1),
            64,
            64,
            SimDuration::ZERO,
            None,
        );
        n.reset_stats();
        assert_eq!(n.stats().messages, 0);
        assert_eq!(n.sent_by(HostId::new(0)), 0);
    }

    #[test]
    fn datagram_is_cheaper_than_rpc() {
        let mut n = net(2);
        let d1 = n
            .datagram(SimTime::ZERO, HostId::new(0), HostId::new(1), 96)
            .elapsed(SimTime::ZERO);
        let mut n2 = net(2);
        let d2 = n2
            .rpc(
                SimTime::ZERO,
                HostId::new(0),
                HostId::new(1),
                96,
                64,
                SimDuration::ZERO,
                None,
            )
            .elapsed(SimTime::ZERO);
        assert!(d1 < d2 / 2, "one-way {d1} vs round trip {d2}");
        assert_eq!(n.stats().messages, 1);
        assert_eq!(n.stats().rpcs, 0, "datagrams are not RPCs");
    }

    #[test]
    fn per_host_send_counters_track_sources() {
        let mut n = net(3);
        n.datagram(SimTime::ZERO, HostId::new(2), HostId::new(0), 64);
        n.multicast(SimTime::ZERO, HostId::new(2), 64);
        n.rpc(
            SimTime::ZERO,
            HostId::new(1),
            HostId::new(0),
            64,
            64,
            SimDuration::ZERO,
            None,
        );
        assert_eq!(n.sent_by(HostId::new(2)), 2);
        assert_eq!(n.sent_by(HostId::new(1)), 1);
        assert_eq!(n.sent_by(HostId::new(0)), 1, "the RPC reply");
    }

    #[test]
    fn bulk_fragment_count_matches_cost_model() {
        let mut n = net(2);
        let bytes = 100 * 1024;
        let expect = n.cost().fragments_for(bytes);
        n.bulk(SimTime::ZERO, HostId::new(0), HostId::new(1), bytes);
        // fragments + one acknowledgement
        assert_eq!(n.stats().messages, expect + 1);
    }

    #[test]
    fn zero_byte_messages_still_cost_a_minimum() {
        let mut n = net(2);
        let d = n.rpc(
            SimTime::ZERO,
            HostId::new(0),
            HostId::new(1),
            0,
            0,
            SimDuration::ZERO,
            None,
        );
        assert!(d.elapsed(SimTime::ZERO) >= SimDuration::from_micros(2_600));
    }
}
