//! Decentralized gossip load dissemination (the MOSIX direction, grown
//! up): batched pushes, bounded caches, allocation-free local selection.
//!
//! The 1985 MOSIX scheme \[BS85\] is one configuration of it,
//! [`GossipDissemination::mosix`]: every report pushes a single-entry
//! batch to each peer, every host caches the whole cluster, and selection
//! trusts the freshest reports first. That shape sinks at cluster scale —
//! O(hosts) update traffic per interval and O(hosts²) cache memory — so
//! [`GossipDissemination::new`] builds the production shape of the same
//! idea:
//!
//! * **batched**: one `hostsel-gossip` message carries the sender's own
//!   entry and its `f − 1` freshest others ([`GOSSIP_ENTRY_BYTES`] each
//!   behind a [`CONTROL_BYTES`] header), so second-hand news rides along
//!   and load traffic is O(k·f) per host-interval instead of O(hosts)
//!   queries;
//! * **transition-triggered with a refresh floor**: a host pushes when its
//!   availability flips (the same suppression the central server uses)
//!   and otherwise at most every `refresh_every` report ticks, keeping
//!   total bytes within a small multiple of the centralized design;
//! * **bounded**: each host's view is a [`LoadCache`] of at most
//!   [`GOSSIP_CACHE_SLOTS`] entries, whose storage grows only with what it
//!   holds; stale entries are skipped by age at query time, never eagerly
//!   evicted;
//! * **local**: selection ranks the requester's own cache through the
//!   reusable [`Ranker`] — no RPC, no per-query allocation, no hashing.
//!
//! Fanout targets come from the seeded [`DetRng`], so every run is
//! byte-identical for a given seed regardless of `--jobs`/`--shards`.

use sprite_net::{HostId, RpcOp, Transport, CONTROL_BYTES, GOSSIP_ENTRY_BYTES};
use sprite_sim::{DetRng, SimDuration, SimTime};

use crate::cache::{CacheEntry, LoadCache, RankOrder, Ranker};
use crate::load::{AvailabilityPolicy, HostInfo};
use crate::selectors::{HostSelector, SelectorStats};

/// Default bound on each host's load cache: enough for good placement at
/// any cluster size without O(hosts²) memory.
pub const GOSSIP_CACHE_SLOTS: usize = 64;

/// Decentralized gossip dissemination with local selection.
#[derive(Debug)]
pub struct GossipDissemination {
    policy: AvailabilityPolicy,
    hosts: usize,
    fanout: usize,
    batch: usize,
    /// Gossip at least every this many report ticks even without an
    /// availability transition (1 = every report).
    refresh_every: u32,
    /// Entries older than this are distrusted at selection time.
    max_age: SimDuration,
    /// How selection ranks the trusted entries.
    rank_order: RankOrder,
    rng: DetRng,
    /// caches[h] = what host h believes about its peers (self included).
    caches: Vec<LoadCache>,
    last_gossiped_available: Vec<Option<bool>>,
    reports_since_gossip: Vec<u32>,
    batch_scratch: Vec<CacheEntry>,
    ranker: Ranker,
    stats: SelectorStats,
}

impl GossipDissemination {
    /// Creates the gossip fabric for `hosts` hosts: each push goes to
    /// `fanout` DetRng-chosen peers and carries the sender's own entry and
    /// its `batch − 1` freshest others. Defaults: gossip on every report
    /// (`refresh_every` 1), trust entries up to 15 minutes old, rank
    /// [`RankOrder::IdlestFirst`], cache [`GOSSIP_CACHE_SLOTS`] entries per
    /// host.
    pub fn new(
        hosts: usize,
        fanout: usize,
        batch: usize,
        policy: AvailabilityPolicy,
        seed: u64,
    ) -> Self {
        let slots = GOSSIP_CACHE_SLOTS.min(hosts.max(1));
        GossipDissemination {
            policy,
            hosts,
            fanout: fanout.max(1),
            batch: batch.max(1),
            refresh_every: 1,
            max_age: SimDuration::from_secs(15 * 60),
            rank_order: RankOrder::IdlestFirst,
            rng: DetRng::seed_from(seed),
            caches: vec![LoadCache::new(slots); hosts],
            last_gossiped_available: vec![None; hosts],
            reports_since_gossip: vec![0; hosts],
            batch_scratch: Vec::with_capacity(batch.max(1)),
            ranker: Ranker::with_capacity(slots),
            stats: SelectorStats::default(),
        }
    }

    /// MOSIX's load-vector gossip \[BS85\]: on every report each host
    /// pushes its own entry alone to `fanout` random peers, every host can
    /// cache the whole cluster, entries up to 20 s old are trusted, and
    /// selection ranks [`RankOrder::FreshestFirst`] (aging weighs recent
    /// reports more).
    pub fn mosix(hosts: usize, fanout: usize, policy: AvailabilityPolicy, seed: u64) -> Self {
        let mut g = Self::new(hosts, fanout, 1, policy, seed);
        g.set_max_age(SimDuration::from_secs(20));
        g.set_cache_capacity(hosts);
        g.set_rank_order(RankOrder::FreshestFirst);
        g
    }

    /// Gossip only every `ticks` reports when availability is unchanged
    /// (transitions always push immediately). The knob that trades
    /// staleness against wire bytes.
    pub fn set_refresh_every(&mut self, ticks: u32) {
        self.refresh_every = ticks.max(1);
    }

    /// How old a cache entry may be and still be trusted at selection.
    pub fn set_max_age(&mut self, max_age: SimDuration) {
        self.max_age = max_age;
    }

    /// How selection ranks the entries young enough to trust.
    pub(crate) fn set_rank_order(&mut self, order: RankOrder) {
        self.rank_order = order;
    }

    /// Rebuilds every host's cache with `slots` slots (drops cached
    /// state; intended for construction-time tuning and benchmarks).
    pub fn set_cache_capacity(&mut self, slots: usize) {
        let slots = slots.max(1);
        self.caches = vec![LoadCache::new(slots); self.hosts];
        self.ranker = Ranker::with_capacity(slots);
    }

    /// Injects one observation directly into `owner`'s cache — warmup for
    /// drivers and benchmarks (bypasses the wire on purpose).
    pub fn prime(&mut self, owner: HostId, info: HostInfo, written: SimTime) {
        self.caches[owner.index()].insert(CacheEntry { info, written });
    }

    /// Times the ranking scratch had to reallocate (0 after warmup).
    pub fn ranker_grows(&self) -> u64 {
        self.ranker.grows()
    }

    /// Entries currently cached by `owner`.
    pub fn cached_entries(&self, owner: HostId) -> usize {
        self.caches[owner.index()].len()
    }
}

impl HostSelector for GossipDissemination {
    fn name(&self) -> &'static str {
        "gossip"
    }

    fn report(&mut self, net: &mut Transport, now: SimTime, info: HostInfo) -> SimTime {
        let h = info.host.index();
        self.caches[h].insert(CacheEntry { info, written: now });
        let avail = self.policy.is_available(&info);
        let changed = self.last_gossiped_available[h]
            .map(|prev| prev != avail)
            .unwrap_or(true);
        self.reports_since_gossip[h] += 1;
        if !changed && self.reports_since_gossip[h] < self.refresh_every {
            // Suppressed: the local cache refreshed above at no wire cost.
            return now;
        }
        self.reports_since_gossip[h] = 0;
        self.last_gossiped_available[h] = Some(avail);
        // One batch serves every peer this round: the sender's own (just
        // refreshed) state first, then its freshest entries about others.
        self.caches[h].freshest_into(self.batch - 1, info.host, &mut self.batch_scratch);
        self.batch_scratch
            .insert(0, CacheEntry { info, written: now });
        let bytes = CONTROL_BYTES + self.batch_scratch.len() as u64 * GOSSIP_ENTRY_BYTES;
        let mut t = now;
        for _ in 0..self.fanout {
            let peer = HostId::new(self.rng.uniform_u64(self.hosts as u64) as u32);
            if peer == info.host {
                continue;
            }
            self.stats.messages += 1;
            match net.send_datagram(RpcOp::HostselGossip, t, info.host, peer, bytes) {
                Ok(d) => {
                    t = d.done;
                    let pi = peer.index();
                    for e in &self.batch_scratch {
                        if e.info.host != peer {
                            self.caches[pi].insert(*e);
                        }
                    }
                }
                // The push vanished: the peer keeps older entries, which
                // age out of trust if no later round gets through.
                Err(e) => t = e.at(),
            }
        }
        t
    }

    fn select(
        &mut self,
        _net: &mut Transport,
        now: SimTime,
        requester: HostId,
        truth: &[HostInfo],
    ) -> (Option<HostId>, SimTime) {
        // Selection is purely local, a bounded in-memory scan rather than a
        // round trip: charge one table scan.
        let t = now + SimDuration::from_micros(200);
        // Only entries young enough to trust are ranked, so staleness is
        // bounded by `max_age`; within that window the longest-idle host is
        // the best bet, as for the server designs [ML87], unless the rank
        // order says freshest first.
        let cache = &mut self.caches[requester.index()];
        let picked = self
            .ranker
            .pick(
                cache.entries(),
                now,
                Some(self.max_age),
                requester,
                &self.policy,
                self.rank_order,
                truth,
                &mut self.stats,
            )
            .map(|e| e.info.host);
        if let Some(host) = picked {
            // Anticipate load locally so this requester will not dump its
            // next process on the same host [BSW89].
            if let Some(load) = cache.load_mut(host) {
                *load += 1.0;
            }
        }
        self.stats.book_select(now, picked, t)
    }

    fn release(
        &mut self,
        _net: &mut Transport,
        now: SimTime,
        requester: HostId,
        host: HostId,
    ) -> SimTime {
        if let Some(load) = self.caches[requester.index()].load_mut(host) {
            *load = (*load - 1.0).max(0.0);
        }
        now
    }

    fn stats(&self) -> &SelectorStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprite_net::CostModel;

    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    fn net(hosts: usize) -> Transport {
        Transport::new(CostModel::sun3(), hosts)
    }

    fn idle_world(n: u32) -> Vec<HostInfo> {
        (0..n)
            .map(|i| HostInfo::idle_host(h(i), SimDuration::from_secs(60 + u64::from(i))))
            .collect()
    }

    #[test]
    fn gossip_traffic_is_batched_and_bounded() {
        let world = idle_world(50);
        let mut s = GossipDissemination::new(50, 2, 8, AvailabilityPolicy::default(), 7);
        let mut n = net(50);
        let mut t = SimTime::ZERO;
        for info in &world {
            t = s.report(&mut n, t, *info);
        }
        let row = n.rpc_table().get(RpcOp::HostselGossip);
        assert!(row.calls > 0);
        assert!(
            row.calls <= 50 * 2,
            "at most k messages per host-report, got {}",
            row.calls
        );
        // Every message is a header plus at most f entries.
        let max_bytes = CONTROL_BYTES + 8 * GOSSIP_ENTRY_BYTES;
        assert!(
            row.bytes <= row.calls * max_bytes,
            "O(k*f) bytes per report"
        );
        assert!(row.bytes >= row.calls * (CONTROL_BYTES + GOSSIP_ENTRY_BYTES));
    }

    /// A push carries its sender's own state even when the sender already
    /// caches a full batch of same-stamp entries from lower-id hosts: here
    /// every host reports at one instant, so only a host's own push can
    /// tell anyone about the highest-id hosts.
    #[test]
    fn every_push_carries_its_senders_own_entry() {
        let world = idle_world(8);
        let mut s = GossipDissemination::new(8, 3, 2, AvailabilityPolicy::default(), 7);
        let mut n = net(8);
        for info in &world {
            s.report(&mut n, SimTime::ZERO, *info);
        }
        for sender in 0..8 {
            let heard = (0..8)
                .filter(|&peer| peer != sender)
                .any(|peer| s.caches[peer].get(h(sender as u32)).is_some());
            assert!(heard, "no peer heard of host {sender}");
        }
    }

    /// MOSIX's configuration pushes on every report, one single-entry
    /// datagram per peer, and trusts the freshest report first where the
    /// default configuration takes the idlest host.
    #[test]
    fn mosix_pushes_single_entries_on_every_report_and_ranks_freshest_first() {
        let policy = AvailabilityPolicy::default();
        let world = idle_world(10);
        let mut s = GossipDissemination::mosix(10, 4, policy, 7);
        let mut n = net(10);
        let mut pushed = Vec::new();
        for _ in 0..2 {
            for info in &world {
                s.report(&mut n, SimTime::ZERO, *info);
            }
            pushed.push(s.stats().messages);
        }
        assert!(pushed[1] > pushed[0], "an unchanged report still pushes");
        let row = n.rpc_table().get(RpcOp::HostselGossip);
        assert_eq!(row.calls, pushed[1]);
        assert_eq!(row.bytes, row.calls * (CONTROL_BYTES + GOSSIP_ENTRY_BYTES));

        let at = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
        let pick = |mut s: GossipDissemination| {
            s.prime(
                h(1),
                HostInfo::idle_host(h(2), SimDuration::from_secs(600)),
                at(10),
            );
            s.prime(
                h(1),
                HostInfo::idle_host(h(3), SimDuration::from_secs(100)),
                at(15),
            );
            s.select(&mut net(4), at(20), h(1), &idle_world(4)).0
        };
        assert_eq!(
            pick(GossipDissemination::mosix(4, 4, policy, 7)),
            Some(h(3))
        );
        assert_eq!(
            pick(GossipDissemination::new(4, 4, 1, policy, 7)),
            Some(h(2))
        );
    }

    #[test]
    fn suppressed_reports_send_nothing_until_refresh_floor() {
        let world = idle_world(10);
        let mut s = GossipDissemination::new(10, 2, 4, AvailabilityPolicy::default(), 7);
        s.set_refresh_every(3);
        let mut n = net(10);
        let feed = |s: &mut GossipDissemination, n: &mut Transport| {
            let mut t = SimTime::ZERO;
            for info in &world {
                t = s.report(n, t, *info);
            }
        };
        feed(&mut s, &mut n); // first report: everyone transitions
        let first = s.stats().messages;
        assert!(first > 0);
        feed(&mut s, &mut n); // unchanged, below refresh floor
        feed(&mut s, &mut n);
        assert_eq!(s.stats().messages, first, "suppressed rounds stay silent");
        feed(&mut s, &mut n); // third unchanged round hits the floor
        assert!(s.stats().messages > first, "refresh floor forces a push");
    }

    #[test]
    fn transition_pushes_immediately_despite_refresh_floor() {
        let mut world = idle_world(6);
        let mut s = GossipDissemination::new(6, 2, 4, AvailabilityPolicy::default(), 7);
        s.set_refresh_every(1000);
        let mut n = net(6);
        let mut t = SimTime::ZERO;
        for info in &world {
            t = s.report(&mut n, t, *info);
        }
        let after_first = s.stats().messages;
        // Host 3's owner comes back: availability flips, push fires at once.
        world[3].console_active = true;
        let _ = s.report(&mut n, t, world[3]);
        assert!(s.stats().messages > after_first);
    }

    #[test]
    fn selection_is_local_and_allocation_free_after_warmup() {
        let world = idle_world(32);
        let mut s = GossipDissemination::new(32, 3, 8, AvailabilityPolicy::default(), 11);
        let mut n = net(32);
        let mut t = SimTime::ZERO;
        for _ in 0..4 {
            for info in &world {
                t = s.report(&mut n, t, *info);
            }
        }
        let wire_before = n.stats().messages;
        let probes_before = sprite_sim::take_hash_probes();
        let mut granted = 0;
        for _ in 0..10 {
            let (pick, t2) = s.select(&mut n, t, h(1), &world);
            t = t2;
            granted += usize::from(pick.is_some());
        }
        assert!(granted > 0);
        assert_eq!(
            n.stats().messages,
            wire_before,
            "select never touches the wire"
        );
        assert_eq!(
            sprite_sim::take_hash_probes() - probes_before,
            0,
            "the ranking fast path must not hash"
        );
        assert_eq!(s.ranker_grows(), 0, "pre-sized scratch must not reallocate");
    }

    #[test]
    fn staleness_is_recorded_per_grant() {
        let mut s = GossipDissemination::new(4, 2, 4, AvailabilityPolicy::default(), 5);
        let written = SimTime::ZERO + SimDuration::from_secs(100);
        s.prime(
            h(1),
            HostInfo::idle_host(h(2), SimDuration::from_secs(600)),
            written,
        );
        let world = idle_world(4);
        let now = written + SimDuration::from_secs(40);
        let mut n = net(4);
        let (pick, _) = s.select(&mut n, now, h(1), &world);
        assert_eq!(pick, Some(h(2)));
        assert_eq!(s.stats().info_age.count(), 1);
        assert!((s.stats().info_age.mean() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn same_seed_same_fanout_schedule() {
        let world = idle_world(20);
        let drive = |seed: u64| {
            let mut s = GossipDissemination::new(20, 2, 6, AvailabilityPolicy::default(), seed);
            let mut n = net(20);
            let mut t = SimTime::ZERO;
            for _ in 0..3 {
                for info in &world {
                    t = s.report(&mut n, t, *info);
                }
            }
            (s.stats().messages, n.stats().bytes, n.stats().messages)
        };
        assert_eq!(drive(99), drive(99));
        assert_ne!(drive(99), drive(100), "different seed, different schedule");
    }
}
