//! Bounded, age-stamped load caches and the allocation-free ranking fast
//! path every stateful selection architecture ranks through.
//!
//! A per-host cache must stay small at 10 000 hosts. [`LoadCache`] keeps
//! its slots as columns (host ids, age stamps, load snapshots), so finding
//! a host scans only the 4-byte ids (256 bytes at the default 64 slots)
//! and hashes nothing. The columns grow with the entries held, by doubling, so an
//! empty cache allocates nothing and a full one holds room for at most
//! the next power of two of its capacity (four at least). Inserts refresh
//! an existing entry in place or, when the cache is full, overwrite the
//! *stalest* slot, found by a scan of the 8-byte stamps alone; among equal
//! stamps the victim is the first (lowest) slot. Stale entries are never
//! eagerly evicted — readers simply skip anything older than their trust
//! horizon, the same epoch/age discipline the fault layer uses for stale
//! load reports. [`Ranker`] is the query side for any table of
//! [`CacheEntry`]s — these caches, the central daemon's host table, the
//! shared file's board: one reusable scratch buffer, sorted in place, with
//! a growth counter so benchmarks can assert the steady state allocates
//! nothing.

use sprite_net::HostId;
use sprite_sim::{SimDuration, SimTime};

use crate::load::{AvailabilityPolicy, HostInfo};
use crate::selectors::SelectorStats;

/// One cached observation of a peer's load state.
#[derive(Debug, Clone, Copy)]
pub struct CacheEntry {
    /// The observed state.
    pub info: HostInfo,
    /// When the origin host measured it (not when it arrived here), so a
    /// relayed entry ages from its measurement, never from its last hop.
    pub written: SimTime,
}

impl CacheEntry {
    /// The entry's age at `now`.
    pub fn age(&self, now: SimTime) -> SimDuration {
        now.saturating_elapsed_since(self.written)
    }
}

/// A bounded, age-stamped load cache.
///
/// Slot `i` is `(hosts[i], written[i], infos[i])`. Slots fill in order and
/// are only ever overwritten, so the occupied slots are exactly `0..len`.
/// The host id and the stamp are keys — of every lookup and of the victim
/// scan — so only [`insert`](Self::insert) changes them.
#[derive(Debug, Clone)]
pub struct LoadCache {
    capacity: usize,
    hosts: Vec<HostId>,
    written: Vec<SimTime>,
    /// `infos[i].host == hosts[i]` always.
    infos: Vec<HostInfo>,
}

impl LoadCache {
    /// An empty cache of `capacity` slots (at least one). Nothing is
    /// allocated until entries arrive.
    pub fn new(capacity: usize) -> Self {
        LoadCache {
            capacity: capacity.max(1),
            hosts: Vec::new(),
            written: Vec::new(),
            infos: Vec::new(),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Inserts or refreshes an observation. An existing entry for the same
    /// host is replaced only by a fresher stamp (relays cannot roll time
    /// backwards). When the cache is full the stalest slot — the first one
    /// holding the minimum stamp — is overwritten, unless the newcomer is
    /// staler still. Returns whether the entry was stored.
    #[inline]
    pub fn insert(&mut self, entry: CacheEntry) -> bool {
        match self.slot_of(entry.info.host) {
            Some(slot) if entry.written < self.written[slot] => false,
            Some(slot) => {
                self.written[slot] = entry.written;
                self.infos[slot] = entry.info;
                true
            }
            None => self.insert_new(entry),
        }
    }

    /// [`insert`](Self::insert) for a host with no slot yet.
    fn insert_new(&mut self, entry: CacheEntry) -> bool {
        let host = entry.info.host;
        if self.hosts.len() < self.capacity {
            self.hosts.push(host);
            self.written.push(entry.written);
            self.infos.push(entry.info);
            return true;
        }
        let stalest = *self.written.iter().min().expect("a full cache has slots");
        // Never replace a fresher observation with a staler one.
        if entry.written < stalest {
            return false;
        }
        let victim = self
            .written
            .iter()
            .position(|&w| w == stalest)
            .expect("the minimum is present");
        self.hosts[victim] = host;
        self.written[victim] = entry.written;
        self.infos[victim] = entry.info;
        true
    }

    /// The cached load of `host`, mutable for anticipation and release
    /// bookkeeping. Only the load is handed out: the host id and the stamp
    /// are keys, which [`insert`](Self::insert) alone may change.
    pub fn load_mut(&mut self, host: HostId) -> Option<&mut f64> {
        let slot = self.slot_of(host)?;
        Some(&mut self.infos[slot].load)
    }

    /// The cached entry for `host`, if any.
    pub fn get(&self, host: HostId) -> Option<CacheEntry> {
        self.slot_of(host).map(|slot| self.entry(slot))
    }

    /// Every occupied slot, in slot order (callers needing a deterministic
    /// ranking sort through [`Ranker`], never iterate raw slots into
    /// scheduling decisions).
    pub fn entries(&self) -> impl Iterator<Item = CacheEntry> + '_ {
        self.infos
            .iter()
            .zip(&self.written)
            .map(|(&info, &written)| CacheEntry { info, written })
    }

    /// Copies the up-to-`limit` freshest entries of hosts other than
    /// `except` into `out` (freshest first, host id breaking ties), reusing
    /// `out`'s storage. Gossip fills its batches this way, behind the
    /// sender's own entry: one pass over the slots in which a slot staler
    /// than the batch's tail costs one stamp comparison, and no allocation
    /// once `out` has warmed up.
    pub fn freshest_into(&self, limit: usize, except: HostId, out: &mut Vec<CacheEntry>) {
        out.clear();
        if limit == 0 {
            return;
        }
        // Does (written, host) rank ahead of `o`? Keys never tie: one slot
        // per host.
        let ahead = |written: SimTime, host: HostId, o: &CacheEntry| {
            (written, o.info.host) > (o.written, host)
        };
        // Once the batch is full, the stamp of its tail.
        let mut floor = SimTime::ZERO;
        for (slot, (&written, &host)) in self.written.iter().zip(&self.hosts).enumerate() {
            if written < floor || host == except {
                continue;
            }
            if out.len() == limit {
                if !ahead(written, host, &out[limit - 1]) {
                    continue;
                }
                out.pop();
            }
            let pos = out
                .iter()
                .position(|o| ahead(written, host, o))
                .unwrap_or(out.len());
            out.insert(pos, self.entry(slot));
            if out.len() == limit {
                floor = out[limit - 1].written;
            }
        }
    }

    fn entry(&self, slot: usize) -> CacheEntry {
        CacheEntry {
            info: self.infos[slot],
            written: self.written[slot],
        }
    }

    #[inline]
    fn slot_of(&self, host: HostId) -> Option<usize> {
        self.hosts.iter().position(|&h| h == host)
    }
}

/// How [`Ranker::rank`] orders surviving candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankOrder {
    /// Freshest observation first (MOSIX aging: recent reports weigh more
    /// \[BS85\]), then longest idle, then lowest host id.
    FreshestFirst,
    /// Longest idle first (Mutka and Livny: long-idle hosts stay idle
    /// \[ML87\]), then lowest host id.
    IdlestFirst,
}

/// The allocation-free ranking fast path: one reusable scratch buffer,
/// sorted in place by an unstable sort (itself allocation-free for `Copy`
/// elements), plus a growth counter so benchmarks can assert the
/// warmed-up path never reallocates.
#[derive(Debug, Default)]
pub struct Ranker {
    scratch: Vec<CacheEntry>,
    grows: u64,
}

impl Ranker {
    /// A ranker whose scratch is pre-sized for caches of `capacity`
    /// entries, so the first query does not count as a growth.
    pub fn with_capacity(capacity: usize) -> Self {
        Ranker {
            scratch: Vec::with_capacity(capacity),
            grows: 0,
        }
    }

    /// Times the scratch buffer had to reallocate. Zero after warmup is
    /// the fast-path invariant the core_ops microbenchmark gates on.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Ranks the trustworthy `candidates` for `requester`: entries no
    /// older than `max_age` (any age when `None`) that `policy` calls
    /// available, `requester` itself excluded. Anything else a caller
    /// rules out (hosts already assigned, say) it filters from the
    /// iterator. Stale entries are *skipped, not evicted* — the table the
    /// candidates come from is untouched, and a fresher observation can
    /// still revive the entry.
    pub fn rank(
        &mut self,
        candidates: impl IntoIterator<Item = CacheEntry>,
        now: SimTime,
        max_age: Option<SimDuration>,
        requester: HostId,
        policy: &AvailabilityPolicy,
        order: RankOrder,
    ) -> &[CacheEntry] {
        let cap_before = self.scratch.capacity();
        self.scratch.clear();
        for e in candidates {
            if e.info.host != requester
                && max_age.is_none_or(|max_age| e.age(now) <= max_age)
                && policy.is_available(&e.info)
            {
                self.scratch.push(e);
            }
        }
        // Both orders rank the idle key by *effective* idleness — idle time
        // weighted by hardware class — so a fast machine that freed up
        // recently outranks a slow one idle for longer. `total_cmp` keeps
        // the sort deterministic; at speed 1.0 everywhere the order matches
        // the old raw-idle comparison exactly.
        match order {
            RankOrder::FreshestFirst => self.scratch.sort_unstable_by(|a, b| {
                b.written
                    .cmp(&a.written)
                    .then(b.info.effective_idle().total_cmp(&a.info.effective_idle()))
                    .then(a.info.host.cmp(&b.info.host))
            }),
            RankOrder::IdlestFirst => self.scratch.sort_unstable_by(|a, b| {
                b.info
                    .effective_idle()
                    .total_cmp(&a.info.effective_idle())
                    .then(a.info.host.cmp(&b.info.host))
            }),
        }
        if self.scratch.capacity() != cap_before {
            self.grows += 1;
        }
        &self.scratch
    }

    /// Ranks `candidates` as [`rank`](Self::rank) does, then walks the
    /// ranking against ground truth: each candidate `truth` does not show
    /// available counts one conflict in `stats` (the table said available
    /// but the world moved on), and the first one it confirms is the pick,
    /// its age at `now` recorded in `stats.info_age`.
    #[expect(clippy::too_many_arguments)]
    pub(crate) fn pick(
        &mut self,
        candidates: impl IntoIterator<Item = CacheEntry>,
        now: SimTime,
        max_age: Option<SimDuration>,
        requester: HostId,
        policy: &AvailabilityPolicy,
        order: RankOrder,
        truth: &[HostInfo],
        stats: &mut SelectorStats,
    ) -> Option<CacheEntry> {
        let ranked = self.rank(candidates, now, max_age, requester, policy, order);
        for e in ranked {
            let confirmed = truth
                .iter()
                .find(|i| i.host == e.info.host)
                .is_some_and(|i| policy.is_available(i));
            if confirmed {
                stats.info_age.record_duration(e.age(now));
                return Some(*e);
            }
            stats.conflicts += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn entry(host: u32, written_secs: u64, idle_secs: u64) -> CacheEntry {
        CacheEntry {
            info: HostInfo::idle_host(h(host), SimDuration::from_secs(idle_secs)),
            written: t(written_secs),
        }
    }

    #[test]
    fn insert_refreshes_and_rejects_rollback() {
        let mut c = LoadCache::new(4);
        assert!(c.insert(entry(1, 10, 60)));
        assert!(c.insert(entry(1, 20, 90)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(h(1)).map(|e| e.written), Some(t(20)));
        // A staler relay of the same host must not roll the entry back.
        assert!(!c.insert(entry(1, 5, 600)));
        assert_eq!(c.get(h(1)).map(|e| e.written), Some(t(20)));
    }

    #[test]
    fn full_cache_overwrites_the_stalest_slot() {
        let mut c = LoadCache::new(3);
        c.insert(entry(1, 30, 60));
        c.insert(entry(2, 10, 60)); // stalest
        c.insert(entry(3, 20, 60));
        assert!(c.insert(entry(4, 40, 60)));
        assert!(c.get(h(2)).is_none(), "stalest entry was the victim");
        assert!(c.get(h(4)).is_some());
        // An entry staler than everything cached is dropped, not stored.
        assert!(!c.insert(entry(5, 1, 60)));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn freshest_into_orders_and_bounds_the_batch() {
        let mut c = LoadCache::new(8);
        for (host, w) in [(1, 10), (2, 40), (3, 30), (4, 20)] {
            c.insert(entry(host, w, 60));
        }
        let mut batch = Vec::new();
        let hosts = |batch: &[CacheEntry]| -> Vec<u32> {
            batch.iter().map(|e| e.info.host.index() as u32).collect()
        };
        c.freshest_into(3, h(9), &mut batch);
        assert_eq!(
            hosts(&batch),
            vec![2, 3, 4],
            "freshest three, freshest first"
        );
        c.freshest_into(3, h(3), &mut batch);
        assert_eq!(hosts(&batch), vec![2, 4, 1], "the excepted host is skipped");
    }

    #[test]
    fn rank_skips_stale_without_evicting() {
        let mut c = LoadCache::new(4);
        c.insert(entry(1, 0, 60));
        c.insert(entry(2, 100, 60));
        let mut r = Ranker::with_capacity(4);
        let now = t(110);
        let max_age = SimDuration::from_secs(30);
        let ranked = r.rank(
            c.entries(),
            now,
            Some(max_age),
            h(9),
            &AvailabilityPolicy::default(),
            RankOrder::FreshestFirst,
        );
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].info.host, h(2));
        // The stale entry is still cached — skipped, not evicted.
        assert!(c.get(h(1)).is_some());
    }

    #[test]
    fn rank_orders_and_filters() {
        let mut c = LoadCache::new(8);
        c.insert(entry(1, 50, 60));
        c.insert(entry(2, 50, 600));
        c.insert(entry(3, 50, 300));
        let mut r = Ranker::with_capacity(8);
        let now = t(55);
        let age = Some(SimDuration::from_secs(60));
        let policy = AvailabilityPolicy::default();
        let mut ranked = |requester: u32, skip: u32| -> Vec<HostId> {
            let candidates = c.entries().filter(|e| e.info.host != h(skip));
            r.rank(
                candidates,
                now,
                age,
                h(requester),
                &policy,
                RankOrder::IdlestFirst,
            )
            .iter()
            .map(|e| e.info.host)
            .collect()
        };
        assert_eq!(ranked(9, 9), vec![h(2), h(3), h(1)]);
        assert_eq!(
            ranked(9, 2),
            vec![h(3), h(1)],
            "callers filter the candidates"
        );
        assert_eq!(
            ranked(2, 9),
            vec![h(3), h(1)],
            "requester never self-selects"
        );
        let old: Vec<HostId> = r
            .rank(
                c.entries(),
                t(200),
                None,
                h(9),
                &policy,
                RankOrder::IdlestFirst,
            )
            .iter()
            .map(|e| e.info.host)
            .collect();
        assert_eq!(
            old,
            vec![h(2), h(3), h(1)],
            "no age limit trusts everything"
        );
    }

    #[test]
    fn warmed_ranker_never_grows() {
        let mut c = LoadCache::new(64);
        for i in 0..64 {
            c.insert(entry(i, 50, 60 + u64::from(i)));
        }
        let mut r = Ranker::with_capacity(c.capacity());
        for _ in 0..100 {
            let ranked = r.rank(
                c.entries(),
                t(55),
                Some(SimDuration::from_secs(60)),
                h(999),
                &AvailabilityPolicy::default(),
                RankOrder::FreshestFirst,
            );
            assert_eq!(ranked.len(), 64);
        }
        assert_eq!(r.grows(), 0, "pre-sized scratch must never reallocate");
    }
}
