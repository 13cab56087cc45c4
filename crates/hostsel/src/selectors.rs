//! The four host-selection architectures of Chapter 6.
//!
//! Sprite needed to answer "which idle host should take this process?" and
//! the thesis compares four ways to organize the answer (Table 6.2):
//!
//! * **shared file** — the original Sprite design: every host writes its
//!   status into one file; selectors read the whole file under a lock. The
//!   file is write-shared, so caching is disabled and every access pounds
//!   the file server.
//! * **central server** — the final design (`migd`): a user-level daemon
//!   reached through a pseudo-device holds the state and the assignment
//!   table; selection and release are one round trip each (56 ms end to end
//!   on DECstation-era hardware \[DO91\]).
//! * **probabilistic distributed** — MOSIX-style \[BS85\]: each host gossips
//!   its load to a few random peers; selection is purely local but the
//!   information is stale, so picks conflict. It is one configuration of
//!   [`GossipDissemination`](crate::GossipDissemination), built by
//!   [`GossipDissemination::mosix`](crate::GossipDissemination::mosix).
//! * **multicast** — Theimer/Lantz-style \[TL88\]: no state at all; ask the
//!   network and take whoever answers. Cheap selections, but every idle
//!   host answers every query, so traffic scales with cluster size.
//!
//! Every implementation counts its messages, its conflicts (picks that turn
//! out stale against ground truth) and its selection latency; experiment
//! E10 tabulates them side by side. Each books a select's outcome through
//! [`SelectorStats`], and each that keeps a table picks through one
//! [`Ranker`] walk.

use std::collections::BTreeMap;

use sprite_net::{
    wire_size, HostId, HostPartition, RpcError, RpcOp, Transport, CONTROL_BYTES, LOAD_REPORT_BYTES,
};
use sprite_sim::{OnlineStats, SimDuration, SimTime, SlottedResource};

use crate::cache::{CacheEntry, RankOrder, Ranker};
use crate::load::{AvailabilityPolicy, HostInfo};

/// Counters every selector keeps.
#[derive(Debug, Clone, Default)]
pub struct SelectorStats {
    /// Selection requests received.
    pub requests: u64,
    /// Requests granted a host.
    pub granted: u64,
    /// Requests denied (no host available).
    pub denied: u64,
    /// Picks that proved stale against ground truth and were retried.
    pub conflicts: u64,
    /// Control messages sent (status updates + selection traffic).
    pub messages: u64,
    /// End-to-end selection latency.
    pub select_latency: OnlineStats,
    /// Age of the granted host's cached entry at grant time (seconds) —
    /// the staleness the architecture acted on. Selectors without
    /// age-stamped state leave it empty.
    pub info_age: OnlineStats,
}

impl SelectorStats {
    /// Books one select that began at `start` and answered `picked` at
    /// `done` — a request, granted or denied, and its latency — and hands
    /// the answer back for the selector to return.
    pub(crate) fn book_select(
        &mut self,
        start: SimTime,
        picked: Option<HostId>,
        done: SimTime,
    ) -> (Option<HostId>, SimTime) {
        self.requests += 1;
        if picked.is_some() {
            self.granted += 1;
        } else {
            self.denied += 1;
        }
        self.select_latency
            .record_duration(done.elapsed_since(start));
        (picked, done)
    }
}

/// A host-selection architecture.
///
/// The simulation driver calls [`HostSelector::report`] periodically for
/// each host (the per-host load daemon), [`HostSelector::select`] when a
/// process wants an idle host, and [`HostSelector::release`] when it gives
/// one back. `truth` at selection time is the ground-truth host state the
/// architecture may only have a stale view of; implementations use it to
/// detect (and count) conflicts, never to cheat their own view.
///
/// # Examples
///
/// ```
/// use sprite_hostsel::{AvailabilityPolicy, CentralServer, HostInfo, HostSelector};
/// use sprite_net::{CostModel, HostId, Transport};
/// use sprite_sim::{SimDuration, SimTime};
///
/// let mut net = Transport::new(CostModel::sun3(), 4);
/// let mut migd = CentralServer::new(HostId::new(0), AvailabilityPolicy::default());
/// // Load daemons report in...
/// let world: Vec<HostInfo> = (0..4)
///     .map(|i| HostInfo::idle_host(HostId::new(i), SimDuration::from_secs(600)))
///     .collect();
/// let mut t = SimTime::ZERO;
/// for info in &world {
///     t = migd.report(&mut net, t, *info);
/// }
/// // ...and a user on host 1 asks for an idle machine.
/// let (host, _t) = migd.select(&mut net, t, HostId::new(1), &world);
/// assert!(host.is_some());
/// ```
pub trait HostSelector {
    /// Architecture name for tables.
    fn name(&self) -> &'static str;

    /// Periodic status report from `info.host`'s load daemon.
    fn report(&mut self, net: &mut Transport, now: SimTime, info: HostInfo) -> SimTime;

    /// Picks one available host for `requester`, or `None`.
    fn select(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        requester: HostId,
        truth: &[HostInfo],
    ) -> (Option<HostId>, SimTime);

    /// Returns `host` to the pool.
    fn release(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        requester: HostId,
        host: HostId,
    ) -> SimTime;

    /// Counters so far.
    fn stats(&self) -> &SelectorStats;
}

// ---------------------------------------------------------------------------
// Central server (migd)
// ---------------------------------------------------------------------------

/// One daemon process: its host and its CPU.
#[derive(Debug)]
struct Daemon {
    host: HostId,
    cpu: SlottedResource,
}

/// What the daemons know about one host.
#[derive(Debug, Clone, Copy, Default)]
struct HostRecord {
    /// The host's state as last reported to its daemon, stamped with the
    /// report's time, so grants can report the information age they acted
    /// on.
    state: Option<CacheEntry>,
    /// The availability the host last got through to its daemon, to
    /// suppress no-change traffic.
    reported_available: Option<bool>,
    /// The requester the host is assigned to while it is out.
    holder: Option<HostId>,
}

/// The migration daemon `migd`, Sprite's final architecture: one daemon
/// ([`new`](Self::new)) or the same daemon spread over `c` hosts
/// ([`sharded`](Self::sharded)).
///
/// Each host reports its idle/busy transitions to its own daemon. A
/// selection asks the requester's home daemon first and walks the ring of
/// the others only while each comes up empty; select and release each cost
/// one `hostsel-query` round trip per daemon asked. The host table is one
/// table indexed by host id (daemon `s` keeps the hosts whose index is
/// `≡ s (mod c)`, as [`HostPartition`] assigns them), so a report costs
/// O(1) at any cluster size, and the assignments in it are global: no
/// daemon hands out a host another daemon granted.
#[derive(Debug)]
pub struct CentralServer {
    policy: AvailabilityPolicy,
    part: HostPartition,
    /// `daemons[s]` serves the hosts of shard `s`.
    daemons: Vec<Daemon>,
    /// `table[i]` describes host `i`; it grows as hosts appear.
    table: Vec<HostRecord>,
    per_request_service: SimDuration,
    ranker: Ranker,
    stats: SelectorStats,
}

impl CentralServer {
    /// Creates the daemon on `server`.
    pub fn new(server: HostId, policy: AvailabilityPolicy) -> Self {
        Self::with_daemons(HostPartition::new(1, 1), [server], 0, policy)
    }

    /// Spreads the daemon over `daemons` hosts of a `hosts`-host cluster
    /// (clamped like [`HostPartition`]): daemon `s` runs on host `s` and
    /// serves the hosts of shard `s`.
    pub fn sharded(hosts: usize, daemons: usize, policy: AvailabilityPolicy) -> Self {
        let part = HostPartition::new(hosts.max(1) as u32, daemons);
        let servers = (0..part.nshards() as u32).map(HostId::new);
        Self::with_daemons(part, servers, hosts, policy)
    }

    fn with_daemons(
        part: HostPartition,
        servers: impl IntoIterator<Item = HostId>,
        hosts: usize,
        policy: AvailabilityPolicy,
    ) -> Self {
        CentralServer {
            policy,
            part,
            daemons: servers
                .into_iter()
                .map(|host| Daemon {
                    host,
                    cpu: SlottedResource::new(),
                })
                .collect(),
            table: vec![HostRecord::default(); hosts],
            per_request_service: SimDuration::from_micros(500),
            ranker: Ranker::default(),
            stats: SelectorStats::default(),
        }
    }

    /// Hosts currently assigned out.
    pub fn assigned_count(&self) -> usize {
        self.table.iter().filter(|r| r.holder.is_some()).count()
    }

    fn record_mut(&mut self, host: HostId) -> &mut HostRecord {
        let i = host.index();
        if i >= self.table.len() {
            self.table.resize(i + 1, HostRecord::default());
        }
        &mut self.table[i]
    }

    /// One `hostsel-query` round trip from `from` to daemon `shard` (a
    /// local acquire of its CPU when `from` hosts it).
    fn round_trip(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        from: HostId,
        shard: usize,
    ) -> Result<SimTime, RpcError> {
        self.stats.messages += 2;
        let daemon = &mut self.daemons[shard];
        if from == daemon.host {
            Ok(daemon.cpu.acquire(
                now + net.cost().context_switch * 2,
                self.per_request_service,
            ))
        } else {
            let size = wire_size(RpcOp::HostselQuery);
            Ok(net
                .send_sized(
                    RpcOp::HostselQuery,
                    now,
                    from,
                    daemon.host,
                    size.request,
                    size.reply,
                    self.per_request_service,
                    Some(&mut daemon.cpu),
                )?
                .done)
        }
    }

    /// Daemon `shard`'s search: its longest-idle available host not
    /// already assigned out (Mutka and Livny say long-idle hosts stay idle
    /// \[ML87\]), checked against ground truth.
    fn grant(
        &mut self,
        now: SimTime,
        shard: usize,
        requester: HostId,
        truth: &[HostInfo],
    ) -> Option<HostId> {
        let own = self.table.iter().skip(shard).step_by(self.daemons.len());
        let e = self.ranker.pick(
            own.filter(|r| r.holder.is_none()).filter_map(|r| r.state),
            now,
            None,
            requester,
            &self.policy,
            RankOrder::IdlestFirst,
            truth,
            &mut self.stats,
        )?;
        let record = &mut self.table[e.info.host.index()];
        record.holder = Some(requester);
        // Flood prevention: count the incoming process against the host's
        // load before it arrives [BSW89].
        if let Some(state) = &mut record.state {
            state.info.load += 1.0;
        }
        Some(e.info.host)
    }
}

impl HostSelector for CentralServer {
    fn name(&self) -> &'static str {
        if self.daemons.len() == 1 {
            "central-server"
        } else {
            "sharded"
        }
    }

    fn report(&mut self, net: &mut Transport, now: SimTime, info: HostInfo) -> SimTime {
        // Only idle/busy *transitions* are reported — Theimer and Lantz
        // showed a central server scales to thousands of clients when
        // updates are limited this way [TL88].
        let avail = self.policy.is_available(&info);
        let daemon = self.daemons[self.part.shard_of(info.host)].host;
        let changed = self.record_mut(info.host).reported_available != Some(avail);
        let done = if changed && info.host != daemon {
            self.stats.messages += 1;
            match net.send_datagram(
                RpcOp::HostselReport,
                now,
                info.host,
                daemon,
                LOAD_REPORT_BYTES,
            ) {
                Ok(d) => d.done,
                // The transition report never reached the daemon: its
                // table keeps the stale entry, and the host will
                // re-announce the (still unacknowledged) transition on
                // its next timer tick.
                Err(e) => return e.at(),
            }
        } else {
            // No change, or the daemon's own host: the table refreshes
            // locally at no network cost.
            now
        };
        let record = self.record_mut(info.host);
        record.reported_available = Some(avail);
        record.state = Some(CacheEntry { info, written: now });
        done
    }

    fn select(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        requester: HostId,
        truth: &[HostInfo],
    ) -> (Option<HostId>, SimTime) {
        let home = self.part.shard_of(requester);
        let mut t = now;
        let mut picked = None;
        for shard in (home..self.daemons.len()).chain(0..home) {
            match self.round_trip(net, t, requester, shard) {
                Ok(done) => t = done,
                // This daemon is unreachable: the walk moves on, and the
                // request is denied once no daemon is left to ask.
                Err(e) => {
                    t = e.at();
                    continue;
                }
            }
            picked = self.grant(now, shard, requester, truth);
            if picked.is_some() {
                break;
            }
        }
        self.stats.book_select(now, picked, t)
    }

    fn release(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        requester: HostId,
        host: HostId,
    ) -> SimTime {
        let t = match self.round_trip(net, now, requester, self.part.shard_of(host)) {
            Ok(t) => t,
            // A lost release leaves the daemon's table stale: the host
            // stays assigned out until somebody reaches the daemon again.
            Err(e) => return e.at(),
        };
        let record = self.record_mut(host);
        record.holder = None;
        if let Some(state) = &mut record.state {
            state.info.load = (state.info.load - 1.0).max(0.0);
        }
        t
    }

    fn stats(&self) -> &SelectorStats {
        &self.stats
    }
}

// ---------------------------------------------------------------------------
// Shared file
// ---------------------------------------------------------------------------

/// The original Sprite design: host state in one write-shared file.
#[derive(Debug)]
pub struct SharedFileBoard {
    file_server: HostId,
    policy: AvailabilityPolicy,
    entries: BTreeMap<HostId, CacheEntry>,
    assigned: BTreeMap<HostId, HostId>,
    server_cpu: SlottedResource,
    entry_bytes: u64,
    ranker: Ranker,
    stats: SelectorStats,
}

impl SharedFileBoard {
    /// Creates the board stored on `file_server`.
    pub fn new(file_server: HostId, policy: AvailabilityPolicy) -> Self {
        SharedFileBoard {
            file_server,
            policy,
            entries: BTreeMap::new(),
            assigned: BTreeMap::new(),
            server_cpu: SlottedResource::new(),
            entry_bytes: CONTROL_BYTES,
            ranker: Ranker::default(),
            stats: SelectorStats::default(),
        }
    }

    fn server_rpc(
        &mut self,
        net: &mut Transport,
        op: RpcOp,
        now: SimTime,
        from: HostId,
        req: u64,
        reply: u64,
    ) -> Result<SimTime, RpcError> {
        self.stats.messages += 2;
        let service = net.cost().cache_block_op;
        if from == self.file_server {
            Ok(self.server_cpu.acquire(now, service))
        } else {
            Ok(net
                .send_sized(
                    op,
                    now,
                    from,
                    self.file_server,
                    req,
                    reply,
                    service,
                    Some(&mut self.server_cpu),
                )?
                .done)
        }
    }

    /// The fallible body of [`HostSelector::select`]: lock, read the whole
    /// board, pick, write the assignment, unlock. Any RPC that cannot reach
    /// the file server aborts the sequence (the lock lease simply expires).
    fn try_select(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        requester: HostId,
        truth: &[HostInfo],
    ) -> Result<(Option<HostId>, SimTime), RpcError> {
        // Lock the file.
        let mut t = self.server_rpc(
            net,
            RpcOp::HostselQuery,
            now,
            requester,
            CONTROL_BYTES,
            CONTROL_BYTES,
        )?;
        // Read the whole table, uncached, a block at a time.
        let total = self.entries.len() as u64 * self.entry_bytes;
        let blocks = total.div_ceil(sprite_net::PAGE_SIZE).max(1);
        for _ in 0..blocks {
            t = self.server_rpc(
                net,
                RpcOp::HostselQuery,
                t,
                requester,
                CONTROL_BYTES,
                sprite_net::PAGE_SIZE,
            )?;
        }
        let assigned = &self.assigned;
        let chosen = self
            .ranker
            .pick(
                (self.entries.values().copied()).filter(|e| !assigned.contains_key(&e.info.host)),
                now,
                None,
                requester,
                &self.policy,
                RankOrder::IdlestFirst,
                truth,
                &mut self.stats,
            )
            .map(|e| e.info.host);
        if let Some(host) = chosen {
            // Write the assignment entry, then unlock. The entry exists
            // only once the write reaches the board.
            t = self.server_rpc(
                net,
                RpcOp::HostselQuery,
                t,
                requester,
                self.entry_bytes + CONTROL_BYTES,
                CONTROL_BYTES,
            )?;
            self.assigned.insert(host, requester);
        }
        // Unlock.
        t = self.server_rpc(
            net,
            RpcOp::HostselQuery,
            t,
            requester,
            CONTROL_BYTES,
            CONTROL_BYTES,
        )?;
        Ok((chosen, t))
    }
}

impl HostSelector for SharedFileBoard {
    fn name(&self) -> &'static str {
        "shared-file"
    }

    fn report(&mut self, net: &mut Transport, now: SimTime, info: HostInfo) -> SimTime {
        // The file is concurrently write-shared by every host, so client
        // caching is off and *every* update is a server write.
        match self.server_rpc(
            net,
            RpcOp::HostselReport,
            now,
            info.host,
            self.entry_bytes + CONTROL_BYTES,
            CONTROL_BYTES,
        ) {
            Ok(t) => {
                self.entries
                    .insert(info.host, CacheEntry { info, written: now });
                t
            }
            // The write never reached the board: the file keeps the host's
            // old (stale) entry until a later report gets through.
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
        let (chosen, t) = match self.try_select(net, now, requester, truth) {
            Ok(r) => r,
            // Somewhere in the lock/read/write/unlock chain the file
            // server became unreachable: the selection is denied.
            Err(e) => (None, e.at()),
        };
        self.stats.book_select(now, chosen, t)
    }

    fn release(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        requester: HostId,
        host: HostId,
    ) -> SimTime {
        match self.server_rpc(
            net,
            RpcOp::HostselRelease,
            now,
            requester,
            self.entry_bytes + CONTROL_BYTES,
            CONTROL_BYTES,
        ) {
            Ok(t) => {
                self.assigned.remove(&host);
                t
            }
            // The board still shows the host as assigned; it stays
            // unselectable until a successful write clears the entry.
            Err(e) => e.at(),
        }
    }

    fn stats(&self) -> &SelectorStats {
        &self.stats
    }
}

// ---------------------------------------------------------------------------
// Multicast query
// ---------------------------------------------------------------------------

/// Stateless multicast: ask everyone, take whoever answers first \[TL88\].
#[derive(Debug)]
pub struct MulticastQuery {
    policy: AvailabilityPolicy,
    /// Hosts already handed out (the requesters remember; the network does
    /// not — this mirrors the paper's observation that the querying
    /// approach has "no global information about previous assignments").
    claimed: BTreeMap<HostId, HostId>,
    stats: SelectorStats,
}

impl MulticastQuery {
    /// Creates the stateless selector.
    pub fn new(policy: AvailabilityPolicy) -> Self {
        MulticastQuery {
            policy,
            claimed: BTreeMap::new(),
            stats: SelectorStats::default(),
        }
    }
}

impl HostSelector for MulticastQuery {
    fn name(&self) -> &'static str {
        "multicast"
    }

    fn report(&mut self, _net: &mut Transport, now: SimTime, _info: HostInfo) -> SimTime {
        // No advance state: nothing to report.
        now
    }

    fn select(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        requester: HostId,
        truth: &[HostInfo],
    ) -> (Option<HostId>, SimTime) {
        // One query on the wire...
        self.stats.messages += 1;
        let mut t =
            match net.send_multicast(RpcOp::HostselMulticast, now, requester, LOAD_REPORT_BYTES) {
                Ok(d) => d.done,
                // Nobody heard the query: nobody answers.
                Err(e) => return self.stats.book_select(now, None, e.at()),
            };
        // ...and every available host replies. This reply implosion is what
        // limits the design to a few hundred hosts [TL88].
        let mut responders: Vec<HostId> = truth
            .iter()
            .filter(|i| {
                i.host != requester
                    && self.policy.is_available(i)
                    && !self.claimed.contains_key(&i.host)
            })
            .map(|i| i.host)
            .collect();
        responders.sort();
        let mut heard: Vec<HostId> = Vec::new();
        for r in &responders {
            self.stats.messages += 1;
            match net.send_datagram(RpcOp::HostselReply, t, *r, requester, CONTROL_BYTES) {
                Ok(d) => {
                    t = d.done;
                    heard.push(*r);
                }
                // A reply that never arrives drops that host from the
                // requester's view of who volunteered.
                Err(e) => t = e.at(),
            }
        }
        let chosen = heard.first().copied();
        if let Some(host) = chosen {
            self.claimed.insert(host, requester);
        }
        self.stats.book_select(now, chosen, t)
    }

    fn release(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        requester: HostId,
        host: HostId,
    ) -> SimTime {
        // The claim lives in the requester's memory, so it is forgotten
        // even if the courtesy release datagram below is lost.
        self.claimed.remove(&host);
        if requester == host {
            return now;
        }
        self.stats.messages += 1;
        match net.send_datagram(RpcOp::HostselRelease, now, requester, host, CONTROL_BYTES) {
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

    /// Ground truth: hosts 1..n idle for (60 + i) seconds; host 0 busy.
    fn truth(n: u32) -> Vec<HostInfo> {
        (0..n)
            .map(|i| {
                if i == 0 {
                    HostInfo {
                        host: h(0),
                        load: 2.0,
                        idle: SimDuration::ZERO,
                        console_active: true,
                        speed: 1.0,
                    }
                } else {
                    HostInfo::idle_host(h(i), SimDuration::from_secs(60 + i as u64))
                }
            })
            .collect()
    }

    fn feed_reports<S: HostSelector + ?Sized>(s: &mut S, net: &mut Transport, truth: &[HostInfo]) {
        let mut t = SimTime::ZERO;
        for info in truth {
            t = s.report(net, t, *info);
        }
    }

    fn selectors(n: usize) -> Vec<Box<dyn HostSelector>> {
        let policy = AvailabilityPolicy::default();
        vec![
            Box::new(CentralServer::new(h(0), policy)),
            Box::new(SharedFileBoard::new(h(0), policy)),
            Box::new(crate::GossipDissemination::mosix(n, 4, policy, 42)),
            Box::new(MulticastQuery::new(policy)),
            Box::new(CentralServer::sharded(n, 2, policy)),
            Box::new(crate::GossipDissemination::new(n, 4, 8, policy, 42)),
        ]
    }

    /// Two available hosts: h2 is a baseline-class machine idle for 300 s,
    /// h4 is a 4× machine idle for only 100 s. Effective idleness ranks
    /// h4 first (100 s × 4 > 300 s × 1) for every architecture that ranks
    /// by idle time; with the classes equalized the same architectures all
    /// fall back to the raw-idle order and pick h2, proving the shift comes
    /// from the hardware class and nothing else. Both contenders sit in the
    /// same shard (even hosts, 2 daemons) so the sharded daemon's walk
    /// order cannot decide for it.
    #[test]
    fn fast_recently_idle_beats_slow_long_idle() {
        let world_with = |fast_speed: f64| -> Vec<HostInfo> {
            (0..6u32)
                .map(|i| match i {
                    2 => HostInfo::idle_host(h(2), SimDuration::from_secs(300)),
                    4 => HostInfo {
                        speed: fast_speed,
                        ..HostInfo::idle_host(h(4), SimDuration::from_secs(100))
                    },
                    _ => HostInfo {
                        host: h(i),
                        load: 2.0,
                        idle: SimDuration::ZERO,
                        console_active: true,
                        speed: 1.0,
                    },
                })
                .collect()
        };
        let policy = AvailabilityPolicy::default();
        let ranking: Vec<Box<dyn Fn() -> Box<dyn HostSelector>>> = vec![
            Box::new(move || Box::new(CentralServer::new(h(0), policy))),
            Box::new(move || Box::new(SharedFileBoard::new(h(0), policy))),
            Box::new(move || Box::new(CentralServer::sharded(6, 2, policy))),
            Box::new(move || Box::new(crate::GossipDissemination::new(6, 4, 8, policy, 42))),
        ];
        for (world, expect, label) in [
            (world_with(4.0), h(4), "heterogeneous: fast-busy wins"),
            (world_with(1.0), h(2), "homogeneous: idlest wins"),
        ] {
            for make in &ranking {
                let mut s = make();
                let mut n = net(6);
                for _ in 0..8 {
                    feed_reports(s.as_mut(), &mut n, &world);
                }
                let (pick, _) = s.select(&mut n, SimTime::ZERO, h(1), &world);
                assert_eq!(pick, Some(expect), "{}: {}", s.name(), label);
            }
        }
    }

    /// migd serves requests in the order they arrive: a release issued at
    /// `t` is not queued behind a select the controller already booked for
    /// `t + 1 s`, so it completes one `hostsel-query` round trip after `t`,
    /// exactly as it does on a daemon with nothing booked.
    #[test]
    fn a_release_is_not_queued_behind_a_later_select() {
        let world = truth(6);
        let t = SimTime::from_micros(10_000_000);
        let release_done = |book_later_select: bool| {
            let mut s = CentralServer::new(h(0), AvailabilityPolicy::default());
            let mut n = net(6);
            feed_reports(&mut s, &mut n, &world);
            let (held, _) = s.select(&mut n, SimTime::from_micros(5_000_000), h(1), &world);
            if book_later_select {
                let later = SimTime::from_micros(11_000_000);
                let (other, done) = s.select(&mut n, later, h(1), &world);
                assert!(other.is_some() && done > later);
            }
            s.release(&mut n, t, h(1), held.expect("a host was granted"))
        };
        let size = wire_size(RpcOp::HostselQuery);
        let service = SimDuration::from_micros(500);
        let Ok(round_trip) = net(6).send_sized(
            RpcOp::HostselQuery,
            t,
            h(1),
            h(0),
            size.request,
            size.reply,
            service,
            None,
        ) else {
            panic!("an ideal link delivers");
        };
        assert_eq!(release_done(false), round_trip.done);
        assert_eq!(release_done(true), round_trip.done);
    }

    #[test]
    fn every_architecture_finds_an_idle_host() {
        let world = truth(8);
        for mut s in selectors(8) {
            let mut n = net(8);
            // Gossip needs several rounds to spread information.
            for _ in 0..8 {
                feed_reports(s.as_mut(), &mut n, &world);
            }
            let (pick, t) = s.select(&mut n, SimTime::ZERO, h(1), &world);
            let pick = pick.unwrap_or_else(|| panic!("{} found no host", s.name()));
            assert_ne!(pick, h(0), "{}: busy host must not be picked", s.name());
            assert_ne!(pick, h(1), "{}: requester must not self-select", s.name());
            assert!(t >= SimTime::ZERO);
            assert_eq!(s.stats().granted, 1, "{}", s.name());
        }
    }

    #[test]
    fn no_architecture_double_assigns() {
        let world = truth(5); // 4 available hosts (2,3,4 + ...), requester h1
        for mut s in selectors(5) {
            let mut n = net(5);
            for _ in 0..8 {
                feed_reports(s.as_mut(), &mut n, &world);
            }
            let mut picked = sprite_sim::DetHashSet::default();
            let mut t = SimTime::ZERO;
            loop {
                let (pick, t2) = s.select(&mut n, t, h(1), &world);
                t = t2;
                match pick {
                    Some(p) => assert!(picked.insert(p), "{} double-assigned {p}", s.name()),
                    None => break,
                }
                if picked.len() > 5 {
                    panic!("{} granted more hosts than exist", s.name());
                }
            }
            assert!(
                !picked.is_empty(),
                "{} should grant at least one host",
                s.name()
            );
        }
    }

    #[test]
    fn released_hosts_become_selectable_again() {
        let world = truth(3); // only h2 is available
        for mut s in selectors(3) {
            let mut n = net(3);
            for _ in 0..8 {
                feed_reports(s.as_mut(), &mut n, &world);
            }
            let (p1, t) = s.select(&mut n, SimTime::ZERO, h(1), &world);
            assert_eq!(p1, Some(h(2)), "{}", s.name());
            let (none, t) = s.select(&mut n, t, h(1), &world);
            assert_eq!(none, None, "{}: the only host is taken", s.name());
            let t = s.release(&mut n, t, h(1), h(2));
            // Refresh state (central server needs no refresh; gossip does).
            for _ in 0..8 {
                feed_reports(s.as_mut(), &mut n, &world);
            }
            let (p2, _) = s.select(&mut n, t, h(1), &world);
            assert_eq!(p2, Some(h(2)), "{} must reissue released host", s.name());
        }
    }

    #[test]
    fn stale_information_causes_conflicts_not_bad_grants() {
        // Tell the selectors the world is idle, then flip ground truth.
        let idle_world = truth(6);
        let mut busy_world = idle_world.clone();
        for i in &mut busy_world {
            i.console_active = true;
            i.idle = SimDuration::ZERO;
        }
        for mut s in selectors(6) {
            if s.name() == "multicast" {
                continue; // stateless: it has no stale view by construction
            }
            let mut n = net(6);
            for _ in 0..8 {
                feed_reports(s.as_mut(), &mut n, &idle_world);
            }
            let (pick, _) = s.select(&mut n, SimTime::ZERO, h(1), &busy_world);
            assert_eq!(pick, None, "{} granted an unavailable host", s.name());
            assert!(
                s.stats().conflicts > 0,
                "{} should have recorded conflicts",
                s.name()
            );
        }
    }

    #[test]
    fn multicast_message_count_scales_with_available_hosts() {
        let world = truth(40);
        let mut s = MulticastQuery::new(AvailabilityPolicy::default());
        let mut n = net(40);
        s.select(&mut n, SimTime::ZERO, h(1), &world);
        // 1 query + 38 replies (39 idle hosts minus the requester... host 0 busy).
        assert_eq!(s.stats().messages, 1 + 38);
    }

    #[test]
    fn central_server_suppresses_no_change_updates() {
        let world = truth(10);
        let mut s = CentralServer::new(h(0), AvailabilityPolicy::default());
        let mut n = net(10);
        feed_reports(&mut s, &mut n, &world);
        let first = s.stats().messages;
        feed_reports(&mut s, &mut n, &world);
        assert_eq!(
            s.stats().messages,
            first,
            "identical state must produce no new update traffic"
        );
    }

    #[test]
    fn central_server_prefers_longest_idle() {
        let world = truth(6);
        let mut s = CentralServer::new(h(0), AvailabilityPolicy::default());
        let mut n = net(6);
        feed_reports(&mut s, &mut n, &world);
        let (pick, _) = s.select(&mut n, SimTime::ZERO, h(1), &world);
        assert_eq!(pick, Some(h(5)), "host 5 has been idle longest");
    }

    #[test]
    fn burst_of_requests_cannot_flood_one_host() {
        // Ten requests arrive before any load report could reflect the
        // earlier grants: anticipation (flood prevention [BSW89]) must
        // spread them anyway.
        let world = truth(12);
        let mut s = CentralServer::new(h(0), AvailabilityPolicy::default());
        let mut n = net(12);
        feed_reports(&mut s, &mut n, &world);
        let mut granted = Vec::new();
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            let (pick, t2) = s.select(&mut n, t, h(1), &world);
            t = t2;
            if let Some(p) = pick {
                granted.push(p);
            }
        }
        let unique: sprite_sim::DetHashSet<_> = granted.iter().collect();
        assert_eq!(unique.len(), granted.len(), "each grant a distinct host");
        assert!(granted.len() >= 9, "ten idle hosts minus the requester");
    }

    #[test]
    fn mosix_tables_age_out_stale_entries() {
        let world = truth(6);
        let mut s = crate::GossipDissemination::mosix(6, 5, AvailabilityPolicy::default(), 17);
        let mut n = net(6);
        for _ in 0..8 {
            feed_reports(&mut s, &mut n, &world);
        }
        // Far in the future every gossip entry is older than max_age: the
        // selector must refuse rather than act on ancient information.
        let much_later = SimTime::ZERO + SimDuration::from_secs(3600);
        let (pick, _) = s.select(&mut n, much_later, h(1), &world);
        assert_eq!(pick, None, "aged-out entries must not be trusted");
    }

    /// A release is a round trip, as in `migd`: one that cannot reach the
    /// daemon leaves the host assigned, so nobody else is handed it.
    #[test]
    fn a_lost_release_leaves_the_host_assigned() {
        use sprite_net::FaultPlan;

        // Only host 4 is available; requesters 3 and 5 host no daemon.
        let mut world = truth(6);
        for info in &mut world {
            info.console_active = info.host != h(4);
        }
        for c in 1..=3 {
            let mut s = CentralServer::sharded(6, c, AvailabilityPolicy::default());
            let mut n = net(6);
            feed_reports(&mut s, &mut n, &world);
            let (pick, t) = s.select(&mut n, SimTime::ZERO, h(5), &world);
            assert_eq!(pick, Some(h(4)), "c = {c}");
            // Cut the requester off from every daemon, then give the host back.
            n.set_policy(Box::new(FaultPlan::new(0, 0.0).with_partition(
                vec![h(5)],
                t,
                t + SimDuration::from_secs(3600),
            )));
            let t = s.release(&mut n, t, h(5), h(4));
            assert_eq!(s.assigned_count(), 1, "c = {c}: the release never arrived");
            let (again, _) = s.select(&mut n, t, h(3), &world);
            assert_eq!(again, None, "c = {c}: the host is still out");
        }
    }

    #[test]
    fn daemons_split_the_report_fanin() {
        let world = truth(40);
        let mut s = CentralServer::sharded(40, 4, AvailabilityPolicy::default());
        let mut n = net(40);
        feed_reports(&mut s, &mut n, &world);
        // Every host reported its first transition to its own daemon;
        // daemons 0..4 report locally.
        assert_eq!(n.rpc_table().get(RpcOp::HostselReport).calls, 36);
    }

    #[test]
    fn selection_asks_the_home_daemon_first_then_walks_the_ring() {
        // Only host 1, in shard 1, is available: a shard-0 requester must
        // miss at home and find it at the next daemon.
        let mut world = truth(8);
        for info in &mut world {
            info.console_active = info.host != h(1);
        }
        let mut s = CentralServer::sharded(8, 4, AvailabilityPolicy::default());
        let mut n = net(8);
        feed_reports(&mut s, &mut n, &world);
        let (pick, _) = s.select(&mut n, SimTime::ZERO, h(4), &world);
        assert_eq!(pick, Some(h(1)), "found at the second daemon");
        assert_eq!(
            n.rpc_table().get(RpcOp::HostselQuery).calls,
            2,
            "one round trip to the home daemon on h0, one to shard 1's on h1"
        );
    }

    #[test]
    fn lost_load_reports_leave_the_central_table_stale() {
        use sprite_net::FaultPlan;

        let mut world = truth(4);
        world[2].idle = SimDuration::from_secs(600); // most attractive host
        let mut s = CentralServer::new(h(0), AvailabilityPolicy::default());
        let mut n = net(4);
        feed_reports(&mut s, &mut n, &world);

        // Cut host 2 off, then have it report that its owner came back.
        let start = SimTime::ZERO + SimDuration::from_secs(1);
        n.set_policy(Box::new(FaultPlan::new(0, 0.0).with_partition(
            vec![h(2)],
            start,
            start + SimDuration::from_secs(3600),
        )));
        world[2] = HostInfo {
            host: h(2),
            load: 3.0,
            idle: SimDuration::ZERO,
            console_active: true,
            speed: 1.0,
        };
        let t = s.report(&mut n, start, world[2]);

        // The transition report was lost: the daemon still advertises the
        // now-busy host, tries it first, and pays a conflict against
        // ground truth instead of granting it.
        let before = s.stats().conflicts;
        let (pick, _) = s.select(&mut n, t, h(1), &world);
        assert!(pick.is_some(), "another idle host exists");
        assert_ne!(pick, Some(h(2)), "ground truth vetoes the stale entry");
        assert!(
            s.stats().conflicts > before,
            "the stale advertisement must cost a conflict"
        );
    }

    #[test]
    fn shared_file_reads_grow_with_cluster_size() {
        let small = truth(8);
        let big = truth(250);
        let mut msgs = Vec::new();
        for world in [&small, &big] {
            let mut s = SharedFileBoard::new(h(0), AvailabilityPolicy::default());
            let mut n = net(world.len());
            feed_reports(&mut s, &mut n, world);
            let before = s.stats().messages;
            s.select(&mut n, SimTime::ZERO, h(1), world);
            msgs.push(s.stats().messages - before);
        }
        assert!(
            msgs[1] > msgs[0],
            "reading a bigger board must cost more messages: {msgs:?}"
        );
    }
}
