//! Sharded coordinators: the intermediate point between one central
//! daemon and fully decentralized gossip.
//!
//! Hosts are hashed across `c` coordinator daemons with the same
//! [`HostPartition`] round-robin the parallel simulation engine uses, so
//! the cluster layer and the engine agree about shard membership for
//! free. Each host reports availability *transitions* to its own shard's
//! coordinator (one-way, like the central design); a selection is one
//! `hostsel-shard-query` round trip to the requester's home coordinator,
//! falling through deterministically to the next shards (bounded by the
//! probe limit) when the home shard has nothing to offer. The assignment
//! table is global across coordinators — in Sprite terms the daemons
//! share state through the ordinary recovery protocol — so the
//! architecture keeps the central server's no-double-assign guarantee
//! while dividing both the queue and the table `c` ways.

use std::collections::BTreeMap;

use sprite_net::{
    HostId, HostPartition, RpcError, RpcOp, Transport, CONTROL_BYTES, LOAD_REPORT_BYTES,
};
use sprite_sim::{FcfsResource, SimDuration, SimTime};

use crate::cache::{CacheEntry, LoadCache, RankOrder, Ranker};
use crate::load::{AvailabilityPolicy, HostInfo};
use crate::selectors::{truth_available, HostSelector, SelectorStats};

/// One coordinator daemon: its host, its shard's load table, its CPU.
#[derive(Debug)]
struct Coordinator {
    host: HostId,
    table: LoadCache,
    cpu: FcfsResource,
}

/// Host selection sharded across `c` coordinator daemons.
#[derive(Debug)]
pub struct ShardedCoordinator {
    policy: AvailabilityPolicy,
    part: HostPartition,
    coords: Vec<Coordinator>,
    /// host -> (requester, owning shard); global so no coordinator can
    /// double-assign a host another shard's probe handed out.
    assigned: BTreeMap<HostId, (HostId, usize)>,
    last_reported_available: BTreeMap<HostId, bool>,
    /// Extra coordinators a miss may probe beyond the home shard.
    probe_limit: usize,
    per_request_service: SimDuration,
    max_age: SimDuration,
    ranker: Ranker,
    stats: SelectorStats,
}

impl ShardedCoordinator {
    /// Creates `coordinators` daemons over a cluster of `hosts` machines;
    /// daemon `s` runs on host `s` and owns the hosts `HostPartition`
    /// assigns to shard `s`. A miss probes every other shard in
    /// deterministic ring order by default ([`Self::set_probe_limit`]
    /// bounds it).
    pub fn new(hosts: usize, coordinators: usize, policy: AvailabilityPolicy) -> Self {
        let part = HostPartition::new(hosts.max(1) as u32, coordinators);
        let sizes = part.sizes();
        let coords = (0..part.nshards())
            .map(|s| Coordinator {
                host: HostId::new(s as u32),
                table: LoadCache::new(sizes[s]),
                cpu: FcfsResource::new(),
            })
            .collect();
        let largest = sizes.iter().copied().max().unwrap_or(1);
        ShardedCoordinator {
            policy,
            part,
            coords,
            assigned: BTreeMap::new(),
            last_reported_available: BTreeMap::new(),
            probe_limit: part.nshards().saturating_sub(1),
            per_request_service: SimDuration::from_micros(500),
            // Coordinator tables are refreshed by their shard's reports;
            // the horizon only guards against a shard going silent.
            max_age: SimDuration::from_secs(30 * 24 * 3600),
            ranker: Ranker::with_capacity(largest),
            stats: SelectorStats::default(),
        }
    }

    /// Number of coordinator daemons (after [`HostPartition`] clamping).
    pub fn coordinator_count(&self) -> usize {
        self.coords.len()
    }

    /// Caps how many *additional* coordinators a selection may probe
    /// after its home shard misses.
    pub fn set_probe_limit(&mut self, limit: usize) {
        self.probe_limit = limit;
    }

    /// Hosts currently assigned out.
    pub fn assigned_count(&self) -> usize {
        self.assigned.len()
    }

    /// One `hostsel-shard-query` round trip to shard `shard`'s daemon
    /// (local acquire when the requester hosts the daemon).
    fn query(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        from: HostId,
        shard: usize,
    ) -> Result<SimTime, RpcError> {
        self.stats.messages += 2;
        let coord = &mut self.coords[shard];
        if from == coord.host {
            Ok(coord.cpu.acquire(
                now + net.cost().context_switch * 2,
                self.per_request_service,
            ))
        } else {
            Ok(net
                .send_with_service(
                    RpcOp::HostselShardQuery,
                    now,
                    from,
                    coord.host,
                    self.per_request_service,
                    Some(&mut coord.cpu),
                )?
                .done)
        }
    }
}

impl HostSelector for ShardedCoordinator {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn report(&mut self, net: &mut Transport, now: SimTime, info: HostInfo) -> SimTime {
        let shard = self.part.shard_of(info.host);
        let avail = self.policy.is_available(&info);
        let changed = self
            .last_reported_available
            .get(&info.host)
            .map(|prev| *prev != avail)
            .unwrap_or(true);
        if !changed {
            // Transition-suppressed, like the central server: the shard's
            // table refreshes silently at no network cost.
            self.coords[shard]
                .table
                .insert(CacheEntry { info, written: now });
            return now;
        }
        let coord_host = self.coords[shard].host;
        if info.host == coord_host {
            self.last_reported_available.insert(info.host, avail);
            self.coords[shard]
                .table
                .insert(CacheEntry { info, written: now });
            return now;
        }
        self.stats.messages += 1;
        match net.send_datagram(
            RpcOp::HostselReport,
            now,
            info.host,
            coord_host,
            LOAD_REPORT_BYTES,
        ) {
            Ok(d) => {
                self.last_reported_available.insert(info.host, avail);
                self.coords[shard]
                    .table
                    .insert(CacheEntry { info, written: now });
                d.done
            }
            // The transition never reached the daemon: the shard table
            // keeps the stale entry until the next timer tick re-announces.
            Err(e) => e.at(),
        }
    }

    fn select(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        requester: HostId,
        truth: &[HostInfo],
    ) -> (Option<HostId>, SimTime) {
        self.stats.requests += 1;
        let nshards = self.part.nshards();
        let home = self.part.shard_of(requester);
        let probes = (self.probe_limit + 1).min(nshards);
        let mut t = now;
        for i in 0..probes {
            let shard = (home + i) % nshards;
            match self.query(net, t, requester, shard) {
                Ok(done) => t = done,
                // This daemon is unreachable; the ring moves on.
                Err(e) => {
                    t = e.at();
                    continue;
                }
            }
            let assigned = &self.assigned;
            let ranked = self.ranker.rank(
                &self.coords[shard].table,
                now,
                self.max_age,
                requester,
                &self.policy,
                RankOrder::IdlestFirst,
                |host| !assigned.contains_key(&host),
            );
            let mut chosen: Option<CacheEntry> = None;
            for e in ranked {
                if truth_available(truth, &self.policy, e.info.host) {
                    chosen = Some(*e);
                    break;
                }
                // The shard table said available but the world moved on.
                self.stats.conflicts += 1;
            }
            if let Some(e) = chosen {
                self.assigned.insert(e.info.host, (requester, shard));
                self.stats.info_age.record_duration(e.age(now));
                // Anticipate load before the process lands [BSW89].
                if let Some(load) = self.coords[shard].table.load_mut(e.info.host) {
                    *load += 1.0;
                }
                self.stats.granted += 1;
                self.stats
                    .select_latency
                    .record_duration(t.elapsed_since(now));
                return (Some(e.info.host), t);
            }
        }
        self.stats.denied += 1;
        self.stats
            .select_latency
            .record_duration(t.elapsed_since(now));
        (None, t)
    }

    fn release(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        requester: HostId,
        host: HostId,
    ) -> SimTime {
        let shard = match self.assigned.remove(&host) {
            Some((_, shard)) => shard,
            None => self.part.shard_of(host),
        };
        if let Some(load) = self.coords[shard].table.load_mut(host) {
            *load = (*load - 1.0).max(0.0);
        }
        let coord_host = self.coords[shard].host;
        if requester == coord_host {
            return now;
        }
        // A one-way release notice, cheaper than the central round trip;
        // the assignment is already cleared locally, so a lost notice
        // costs nothing but a stale load estimate that the next report
        // transition corrects.
        self.stats.messages += 1;
        match net.send_datagram(
            RpcOp::HostselRelease,
            now,
            requester,
            coord_host,
            CONTROL_BYTES,
        ) {
            Ok(d) => d.done,
            Err(e) => e.at(),
        }
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

    fn feed(s: &mut ShardedCoordinator, n: &mut Transport, world: &[HostInfo]) {
        let mut t = SimTime::ZERO;
        for info in world {
            t = s.report(n, t, *info);
        }
    }

    #[test]
    fn coordinators_split_the_report_fanin() {
        let world = idle_world(40);
        let mut s = ShardedCoordinator::new(40, 4, AvailabilityPolicy::default());
        assert_eq!(s.coordinator_count(), 4);
        let mut n = net(40);
        feed(&mut s, &mut n, &world);
        // Every host reported its first transition to its own shard's
        // coordinator; daemons 0..4 self-report locally.
        assert_eq!(n.rpc_table().get(RpcOp::HostselReport).calls, 36);
        // Unchanged state is suppressed, exactly like the central server.
        let before = s.stats().messages;
        feed(&mut s, &mut n, &world);
        assert_eq!(s.stats().messages, before);
    }

    #[test]
    fn home_shard_first_then_deterministic_ring_probes() {
        // Only a host in shard 1 is available: a shard-0 requester must
        // miss at home and find it on the probe.
        let mut world = idle_world(8);
        for info in &mut world {
            if info.host.index() % 4 != 1 {
                info.console_active = true;
            }
        }
        world[5].console_active = true; // leave only host 1 available
        let mut s = ShardedCoordinator::new(8, 4, AvailabilityPolicy::default());
        let mut n = net(8);
        feed(&mut s, &mut n, &world);
        let (pick, _) = s.select(&mut n, SimTime::ZERO, h(0), &world);
        assert_eq!(pick, Some(h(1)), "found via the ring probe");
        assert_eq!(
            n.rpc_table().get(RpcOp::HostselShardQuery).calls,
            1,
            "home daemon is local to h0; one remote probe to shard 1"
        );
    }

    #[test]
    fn probe_limit_bounds_the_ring() {
        let mut world = idle_world(8);
        for info in &mut world {
            if info.host.index() % 4 != 3 {
                info.console_active = true;
            }
        }
        let mut s = ShardedCoordinator::new(8, 4, AvailabilityPolicy::default());
        s.set_probe_limit(1);
        let mut n = net(8);
        feed(&mut s, &mut n, &world);
        // Requester in shard 0 may only probe shards 0 and 1; the only
        // available hosts live in shard 3.
        let (pick, _) = s.select(&mut n, SimTime::ZERO, h(0), &world);
        assert_eq!(pick, None, "bounded probing must give up");
        s.set_probe_limit(3);
        let (pick, _) = s.select(&mut n, SimTime::ZERO, h(0), &world);
        assert!(pick.is_some());
    }

    #[test]
    fn assignment_table_is_global_across_shards() {
        let world = idle_world(6);
        let mut s = ShardedCoordinator::new(6, 3, AvailabilityPolicy::default());
        let mut n = net(6);
        feed(&mut s, &mut n, &world);
        let mut picked = sprite_sim::DetHashSet::default();
        let mut t = SimTime::ZERO;
        loop {
            let (pick, t2) = s.select(&mut n, t, h(0), &world);
            t = t2;
            match pick {
                Some(p) => assert!(picked.insert(p), "double-assigned {p}"),
                None => break,
            }
        }
        assert_eq!(picked.len(), 5, "every other host granted exactly once");
        assert_eq!(s.assigned_count(), 5);
    }

    #[test]
    fn release_returns_the_host_and_decrements_load() {
        let world = idle_world(4);
        let mut s = ShardedCoordinator::new(4, 2, AvailabilityPolicy::default());
        let mut n = net(4);
        feed(&mut s, &mut n, &world);
        let (pick, t) = s.select(&mut n, SimTime::ZERO, h(0), &world);
        let host = pick.expect("a host");
        let t = s.release(&mut n, t, h(0), host);
        assert_eq!(s.assigned_count(), 0);
        let (again, _) = s.select(&mut n, t, h(0), &world);
        assert_eq!(again, Some(host), "released host is selectable again");
    }
}
