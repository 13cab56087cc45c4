//! Differential test: [`LoadCache`] against the slot-scan cache it
//! replaced.
//!
//! [`SlotScan`] is that cache kept as the reference model: one
//! `Option<CacheEntry>` per slot, a linear scan for every insert and
//! lookup, and the victim found by scanning for the first slot that holds
//! the minimum stamp. The column-stored [`LoadCache`] must agree with it
//! after every operation: the same `insert` results, `len`, `get`
//! for every host, slot-order `entries()` (so the same victims) and the
//! same `freshest_into` batches for every limit from 0 to 8, each leaving
//! out one host.
//!
//! Cases are generated from [`DetRng`] with fixed seeds. They cover
//! capacities 1, 2, 3, 8 and 64, host pools smaller and larger than the
//! capacity, stamps drawn from a few values so that most comparisons tie,
//! stale relays of already-cached hosts, and load bookkeeping through
//! `load_mut`. The `heavy-tests` feature multiplies the operation count.

use sprite_hostsel::{CacheEntry, HostInfo, LoadCache};
use sprite_net::HostId;
use sprite_sim::{DetRng, SimDuration, SimTime};

fn ops(base: usize) -> usize {
    if cfg!(feature = "heavy-tests") {
        base * 8
    } else {
        base
    }
}

/// The reference model: the slot-scan cache.
struct SlotScan {
    slots: Vec<Option<CacheEntry>>,
    /// Evictions that chose among two or more slots holding the minimum
    /// stamp, where the first-slot rule decided the victim.
    tied_evictions: usize,
}

impl SlotScan {
    fn new(capacity: usize) -> Self {
        SlotScan {
            slots: vec![None; capacity.max(1)],
            tied_evictions: 0,
        }
    }

    fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    fn insert(&mut self, entry: CacheEntry) -> bool {
        let mut free: Option<usize> = None;
        let mut stalest: Option<(usize, SimTime)> = None;
        for (i, slot) in self.slots.iter().enumerate() {
            match slot {
                Some(e) if e.info.host == entry.info.host => {
                    if entry.written >= e.written {
                        self.slots[i] = Some(entry);
                        return true;
                    }
                    return false;
                }
                Some(e) => {
                    if stalest.map(|(_, w)| e.written < w).unwrap_or(true) {
                        stalest = Some((i, e.written));
                    }
                }
                None => {
                    if free.is_none() {
                        free = Some(i);
                    }
                }
            }
        }
        if let Some(i) = free {
            self.slots[i] = Some(entry);
            return true;
        }
        match stalest {
            Some((i, w)) if entry.written >= w => {
                let ties = self.entries().filter(|e| e.written == w).count();
                if ties > 1 {
                    self.tied_evictions += 1;
                }
                self.slots[i] = Some(entry);
                true
            }
            _ => false,
        }
    }

    fn get_mut(&mut self, host: HostId) -> Option<&mut CacheEntry> {
        self.slots
            .iter_mut()
            .flatten()
            .find(|e| e.info.host == host)
    }

    fn get(&self, host: HostId) -> Option<&CacheEntry> {
        self.slots.iter().flatten().find(|e| e.info.host == host)
    }

    fn entries(&self) -> impl Iterator<Item = &CacheEntry> {
        self.slots.iter().flatten()
    }

    fn freshest_into(&self, limit: usize, except: HostId, out: &mut Vec<CacheEntry>) {
        out.clear();
        for e in self.entries().filter(|e| e.info.host != except) {
            let pos = out
                .iter()
                .position(|o| (e.written, o.info.host.index()) > (o.written, e.info.host.index()))
                .unwrap_or(out.len());
            if pos < limit {
                if out.len() == limit {
                    out.pop();
                }
                out.insert(pos, *e);
            }
        }
    }
}

/// Everything observable about an entry, as one comparable value.
fn key(e: &CacheEntry) -> (u32, u64, u64, u64, bool, u64) {
    (
        e.info.host.index() as u32,
        e.written.as_micros(),
        e.info.load.to_bits(),
        e.info.idle.as_micros(),
        e.info.console_active,
        e.info.speed.to_bits(),
    )
}

fn keys<'a>(entries: impl Iterator<Item = &'a CacheEntry>) -> Vec<(u32, u64, u64, u64, bool, u64)> {
    entries.map(key).collect()
}

fn assert_same(model: &SlotScan, cache: &LoadCache, pool: u32, ctx: &str) {
    assert_eq!(cache.len(), model.len(), "{ctx}: len");
    assert_eq!(cache.is_empty(), model.len() == 0, "{ctx}: is_empty");
    let got: Vec<CacheEntry> = cache.entries().collect();
    assert_eq!(keys(got.iter()), keys(model.entries()), "{ctx}: slot order");
    for host in 0..pool {
        let host = HostId::new(host);
        assert_eq!(
            cache.get(host).as_ref().map(key),
            model.get(host).map(key),
            "{ctx}: get({host})"
        );
    }
    let (mut want, mut got) = (Vec::new(), Vec::new());
    for limit in 0..=8 {
        // Cycle the excepted host through the pool and one host outside it.
        let except = HostId::new(limit as u32 % (pool + 1));
        model.freshest_into(limit, except, &mut want);
        cache.freshest_into(limit, except, &mut got);
        assert_eq!(
            keys(got.iter()),
            keys(want.iter()),
            "{ctx}: freshest_into({limit}, {except})"
        );
    }
}

/// Drives one cache and its model through `n` random operations and
/// returns how many evictions the first-slot tie rule decided.
fn run(seed: u64, capacity: usize, pool: u32, n: usize) -> usize {
    let mut rng = DetRng::seed_from(seed);
    let mut model = SlotScan::new(capacity);
    let mut cache = LoadCache::new(capacity);
    assert_eq!(cache.capacity(), capacity);
    // Stamps live on a coarse lattice so that most of them tie: the clock
    // advances one tick now and then, and an entry is stamped between
    // three ticks ago and now (a relayed, second-hand observation).
    let mut tick = 0u64;
    for op in 0..n {
        let ctx = format!("seed {seed} capacity {capacity} pool {pool} op {op}");
        if rng.chance(0.1) {
            tick += 1;
        }
        let host = HostId::new(rng.uniform_u64(u64::from(pool)) as u32);
        match rng.uniform_u64(10) {
            // Anticipation and release bookkeeping on the load.
            0 => {
                let delta = if rng.chance(0.5) { 1.0 } else { -1.0 };
                let want = model.get_mut(host).map(|e| {
                    e.info.load = (e.info.load + delta).max(0.0);
                    e.info.load
                });
                let got = cache.load_mut(host).map(|load| {
                    *load = (*load + delta).max(0.0);
                    *load
                });
                assert_eq!(got, want, "{ctx}: load_mut");
            }
            // A stale relay: older than what is cached for this host.
            1 => {
                if let Some(cached) = model.get(host).map(|e| e.written.as_micros()) {
                    let stale = cached.saturating_sub(1 + rng.uniform_u64(3) * 60_000_000);
                    let entry = entry(&mut rng, host, stale);
                    assert_eq!(cache.insert(entry), model.insert(entry), "{ctx}: stale");
                }
            }
            _ => {
                let back = rng.uniform_u64(4).min(tick);
                let entry = entry(&mut rng, host, (tick - back) * 60_000_000);
                assert_eq!(cache.insert(entry), model.insert(entry), "{ctx}: insert");
            }
        }
        assert_same(&model, &cache, pool, &ctx);
    }
    model.tied_evictions
}

fn entry(rng: &mut DetRng, host: HostId, written_us: u64) -> CacheEntry {
    CacheEntry {
        info: HostInfo {
            host,
            load: rng.uniform_u64(3) as f64,
            idle: SimDuration::from_secs(rng.uniform_u64(3_600)),
            console_active: rng.chance(0.3),
            speed: 1.0,
        },
        written: SimTime::ZERO + SimDuration::from_micros(written_us),
    }
}

#[test]
fn column_cache_matches_the_slot_scan_model() {
    for (i, capacity) in [1usize, 2, 3, 8, 64].into_iter().enumerate() {
        let pools = [
            (capacity as u32 / 2).max(1),
            capacity as u32,
            capacity as u32 + 1,
            3 * capacity as u32 + 5,
        ];
        let mut tied = 0;
        for (j, pool) in pools.into_iter().enumerate() {
            let seed = 0x10ad_cace ^ ((i as u64) << 8) ^ j as u64;
            tied += run(seed, capacity, pool, ops(1_500));
        }
        // The cases must hit the first-slot tie rule, or they would not
        // tell it apart from any other choice among equal stamps.
        if capacity > 1 {
            assert!(tied > 20, "capacity {capacity}: only {tied} tied evictions");
        }
    }
}
