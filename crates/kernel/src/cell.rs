//! One cluster host as a partitionable simulation cell.
//!
//! The m02 macrobenchmark runs thousands of hosts for a simulated month.
//! The serial [`crate::Cluster`] walks that scale fine but holds the whole
//! cluster in one mutable state bag, so it cannot shard. [`HostCell`] is the
//! partitioned counterpart: each host owns *only its own* state and talks to
//! other hosts exclusively through messages, which is exactly the shape the
//! conservative-parallel `sprite_sim::ShardedEngine` requires — and
//! incidentally the shape the real Sprite cluster had, since kernels shared
//! nothing but the wire.
//!
//! The model is the paper's idle-host-harvesting loop, on a one-simulated-
//! minute lattice (the engine lookahead; see `sprite_net::ShardLink`):
//!
//! * each host alternates **active** (user at the console) and **idle**
//!   regimes with exponential dwell times, Zhou-style;
//! * an active host spawns batch jobs (heavy-tailed bounded-Pareto CPU
//!   demand); if its CPU is busy it tries to *migrate* the job to an idle
//!   host from its load cache, the decentralized flavour of Sprite's
//!   centralized migration server;
//! * hosts refresh the load cache by probing random peers (probe/reply, two
//!   one-minute hops);
//! * when a user returns to a host running foreign jobs, the jobs are
//!   **evicted** home — the paper's defining policy choice;
//! * completed foreign jobs notify their home host, which does the
//!   accounting.
//!
//! Idle hosts with nothing running do not tick every minute: they arm one
//! timer at the end of the regime, and any message that gives them work
//! re-arms a minute-cadence timer. A bumped `epoch` marks the superseded
//! timer stale (timers cannot be cancelled). This cuts the month-long event
//! count by roughly the cluster's idle fraction and is invisible to
//! results — wake-up times are pure functions of local state.

use sprite_net::HostId;
use sprite_sim::{Cell, CellCtx, CellId, DetRng, SimDuration, SimTime, StateDigest};

/// Simulated minutes, the workload lattice unit.
const MINUTE: SimDuration = SimDuration::from_secs(60);
/// Mean length of an active (user-present) regime, minutes.
const ACTIVE_MEAN_MIN: u64 = 20;
/// Mean length of an idle regime, minutes. One third of wall time active
/// matches the "one-third of hosts idle even at the busiest times" framing
/// inverted for the evaluation's daytime mix.
const IDLE_MEAN_MIN: u64 = 40;
/// Per-active-minute probability of spawning a batch job. Calibrated so a
/// 5 000-host month executes ~1.3 million process lifetimes.
const SPAWN_PER_ACTIVE_MINUTE: f64 = 0.0185;
/// Bounded-Pareto job CPU demand: tail index and support, in minutes.
const JOB_ALPHA: f64 = 1.3;
const JOB_MIN_MINUTES: u64 = 1;
const JOB_MAX_MINUTES: u64 = 240;
/// Per-active-minute probability of refreshing the load cache by probing a
/// random peer.
const PROBE_PER_ACTIVE_MINUTE: f64 = 0.1;
/// Per-active-minute probability of pushing a gossip batch (own load plus
/// the best cached loads) to a random peer — one hop where a probe costs
/// two, so second-hand knowledge spreads at half the wire price.
const GOSSIP_PER_ACTIVE_MINUTE: f64 = 0.05;
/// Entries per gossip batch, own load included.
pub(crate) const GOSSIP_BATCH: usize = 4;
/// Load-cache capacity: how many peers' last-known loads a host remembers.
const LOAD_CACHE_SLOTS: usize = 8;

/// Identity of one batch job: the host that spawned it and that host's
/// serial number for it. Tags make completion/eviction accounting exact
/// without any global job table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTag {
    /// Host the job belongs to (where its user sits).
    pub home: CellId,
    /// Spawn serial number at the home host.
    pub serial: u64,
}

/// Messages hosts exchange. Every variant crosses at least one barrier
/// window (one simulated minute) in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostMsg {
    /// "How busy are you?" — load-cache refresh request.
    Probe,
    /// Answer to [`HostMsg::Probe`]: the sender's run-queue length.
    LoadReply(u32),
    /// Unsolicited load-vector push: up to `GOSSIP_BATCH` (4) `(host,
    /// load)` pairs (the sender's own load first), merged into the
    /// receiver's cache with no reply.
    Gossip([(CellId, u32); GOSSIP_BATCH], u8),
    /// Migrate a job to the receiver: tag plus remaining CPU minutes.
    Place(JobTag, u64),
    /// A foreign job bounced home (user returned, or the target was busy
    /// when it arrived): tag plus remaining CPU minutes.
    Evicted(JobTag, u64),
    /// A foreign job finished; the home host does the accounting.
    Done(JobTag),
}

/// One queued or running job on a host.
#[derive(Debug, Clone, Copy)]
struct Job {
    tag: JobTag,
    remaining_min: u64,
}

/// One load-cache entry: a peer and its last reported run-queue length.
#[derive(Debug, Clone, Copy)]
struct CacheSlot {
    host: CellId,
    load: u32,
}

/// Per-host outcome counters, summed by the m02 report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCellStats {
    /// Jobs this host's user spawned.
    pub spawned: u64,
    /// Of those, jobs that ran to completion (anywhere).
    pub completed: u64,
    /// Jobs sent away at spawn time.
    pub migrated_out: u64,
    /// Foreign jobs accepted onto this host.
    pub migrated_in: u64,
    /// Foreign jobs this host evicted when its user returned (or bounced
    /// on arrival because the user was already there).
    pub evicted: u64,
    /// Probes this host answered.
    pub probes_answered: u64,
    /// Probes this host sent.
    pub probes_sent: u64,
    /// Gossip batches this host pushed.
    pub gossip_sent: u64,
    /// Gossip entries this host merged into its cache.
    pub gossip_merged: u64,
}

/// A host in the partitioned cluster model. See the module docs for the
/// workload; see `sprite_sim::ShardedEngine` for the execution contract.
pub struct HostCell {
    id: CellId,
    nhosts: u32,
    rng: DetRng,
    /// User at the console?
    active: bool,
    /// Lattice minute the current regime ends.
    regime_end_min: u64,
    /// FCFS run queue; only the head makes progress each minute.
    run_queue: Vec<Job>,
    cache: Vec<CacheSlot>,
    /// Timer-staleness epoch (see module docs) — doubles as the timer
    /// token.
    epoch: u64,
    /// Lattice minute of the current fresh timer.
    next_wake_min: u64,
    next_serial: u64,
    stats: HostCellStats,
}

impl HostCell {
    /// Builds host `id` of `nhosts`, deterministically seeded: the cell's
    /// RNG stream is a pure function of `(seed, id)` and never touches any
    /// other host's stream.
    pub fn new(id: CellId, nhosts: u32, seed: u64) -> Self {
        let mut rng = DetRng::seed_from(
            seed ^ (u64::from(id).wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        // Hosts start in a random phase of the active/idle cycle so minute
        // zero is not a synchronized cluster-wide regime flip.
        let active = rng.chance(ACTIVE_MEAN_MIN as f64 / (ACTIVE_MEAN_MIN + IDLE_MEAN_MIN) as f64);
        let mean = if active {
            ACTIVE_MEAN_MIN
        } else {
            IDLE_MEAN_MIN
        };
        let first = 1 + rng.uniform_u64(2 * mean); // uniform residual phase
        HostCell {
            id,
            nhosts,
            rng,
            active,
            regime_end_min: first,
            run_queue: Vec::new(),
            cache: Vec::new(),
            epoch: 0,
            next_wake_min: 0,
            next_serial: 0,
            stats: HostCellStats::default(),
        }
    }

    /// This host's [`HostId`] in the kernel layer's terms.
    pub fn host(&self) -> HostId {
        HostId::new(self.id)
    }

    /// Outcome counters.
    pub fn stats(&self) -> HostCellStats {
        self.stats
    }

    /// Current run-queue length (local + foreign jobs).
    pub fn load(&self) -> u32 {
        self.run_queue.len() as u32
    }

    fn sample_regime_minutes(&mut self, mean_min: u64) -> u64 {
        let d = self.rng.exponential(MINUTE * mean_min);
        (d.as_micros() / MINUTE.as_micros()).max(1)
    }

    fn sample_job_minutes(&mut self) -> u64 {
        let d = self.rng.bounded_pareto(
            MINUTE * JOB_MIN_MINUTES,
            MINUTE * JOB_MAX_MINUTES,
            JOB_ALPHA,
        );
        (d.as_micros() / MINUTE.as_micros()).max(JOB_MIN_MINUTES)
    }

    /// A uniformly random peer that is not this host.
    fn random_peer(&mut self) -> CellId {
        debug_assert!(self.nhosts > 1);
        let t = self.rng.uniform_u64(u64::from(self.nhosts) - 1) as u32;
        if t >= self.id {
            t + 1
        } else {
            t
        }
    }

    /// Records a load report, replacing the peer's old slot or the
    /// highest-load slot when full (we care about remembering idle hosts).
    fn cache_insert(&mut self, host: CellId, load: u32) {
        if let Some(slot) = self.cache.iter_mut().find(|s| s.host == host) {
            slot.load = load;
            return;
        }
        if self.cache.len() < LOAD_CACHE_SLOTS {
            self.cache.push(CacheSlot { host, load });
            return;
        }
        let worst = self
            .cache
            .iter()
            .enumerate()
            .max_by_key(|(i, s)| (s.load, *i))
            .map(|(i, _)| i)
            .unwrap();
        if self.cache[worst].load > load {
            self.cache[worst] = CacheSlot { host, load };
        }
    }

    /// Picks a believed-idle peer from the cache, bumping its cached load
    /// so back-to-back spawns fan out instead of dogpiling one target.
    fn pick_idle_target(&mut self) -> Option<CellId> {
        let best = self
            .cache
            .iter()
            .enumerate()
            .filter(|(_, s)| s.load == 0)
            .map(|(i, _)| i)
            .next()?;
        self.cache[best].load += 1;
        Some(self.cache[best].host)
    }

    /// Arms the next fresh timer: minute cadence while there is anything to
    /// do, else one shot at the end of the idle regime.
    fn arm_next(&mut self, now_min: u64, ctx: &mut CellCtx<'_, HostMsg>) {
        let wake = if self.active || !self.run_queue.is_empty() {
            now_min + 1
        } else {
            self.regime_end_min.max(now_min + 1)
        };
        self.next_wake_min = wake;
        ctx.timer_at(SimTime::from_micros(wake * MINUTE.as_micros()), self.epoch);
    }

    /// A message gave a sleeping host work: supersede its long timer with a
    /// next-minute tick.
    fn wake_soon(&mut self, now: SimTime, ctx: &mut CellCtx<'_, HostMsg>) {
        let now_min = now.as_micros() / MINUTE.as_micros();
        if self.next_wake_min > now_min + 1 {
            self.epoch += 1;
            self.next_wake_min = now_min + 1;
            ctx.timer_at(now + MINUTE, self.epoch);
        }
    }

    /// Evicts every foreign job (the user is back), sending each home with
    /// its remaining demand.
    fn evict_foreign(&mut self, ctx: &mut CellCtx<'_, HostMsg>) {
        let mut i = 0;
        while i < self.run_queue.len() {
            if self.run_queue[i].tag.home != self.id {
                let job = self.run_queue.remove(i);
                self.stats.evicted += 1;
                ctx.send(job.tag.home, HostMsg::Evicted(job.tag, job.remaining_min));
            } else {
                i += 1;
            }
        }
    }
}

impl Cell for HostCell {
    type Msg = HostMsg;

    fn on_timer(&mut self, now: SimTime, token: u64, ctx: &mut CellCtx<'_, HostMsg>) {
        if token != self.epoch {
            return; // superseded by wake_soon
        }
        let now_min = now.as_micros() / MINUTE.as_micros();

        // Regime flip.
        if now_min >= self.regime_end_min {
            self.active = !self.active;
            let mean = if self.active {
                ACTIVE_MEAN_MIN
            } else {
                IDLE_MEAN_MIN
            };
            let len = self.sample_regime_minutes(mean);
            self.regime_end_min = now_min + len;
            if self.active {
                self.evict_foreign(ctx);
            }
        }

        if self.active && self.nhosts > 1 {
            // Load-cache refresh.
            if self.rng.chance(PROBE_PER_ACTIVE_MINUTE) {
                let peer = self.random_peer();
                self.stats.probes_sent += 1;
                ctx.send(peer, HostMsg::Probe);
            }
            // Decentralized dissemination: push own load plus cached loads
            // to a random peer, spreading second-hand knowledge one hop at
            // a time.
            if self.rng.chance(GOSSIP_PER_ACTIVE_MINUTE) {
                let peer = self.random_peer();
                let mut batch = [(0u32, 0u32); GOSSIP_BATCH];
                batch[0] = (self.id, self.load());
                let mut n: u8 = 1;
                for slot in &self.cache {
                    if usize::from(n) >= GOSSIP_BATCH {
                        break;
                    }
                    if slot.host == peer {
                        continue;
                    }
                    batch[usize::from(n)] = (slot.host, slot.load);
                    n += 1;
                }
                self.stats.gossip_sent += 1;
                ctx.send(peer, HostMsg::Gossip(batch, n));
            }
            // Job spawn, migrated out if this CPU is busy and an idle peer
            // is known.
            if self.rng.chance(SPAWN_PER_ACTIVE_MINUTE) {
                let tag = JobTag {
                    home: self.id,
                    serial: self.next_serial,
                };
                self.next_serial += 1;
                self.stats.spawned += 1;
                let remaining_min = self.sample_job_minutes();
                let target = if self.run_queue.is_empty() {
                    None
                } else {
                    self.pick_idle_target()
                };
                match target {
                    Some(peer) => {
                        self.stats.migrated_out += 1;
                        ctx.send(peer, HostMsg::Place(tag, remaining_min));
                    }
                    None => self.run_queue.push(Job { tag, remaining_min }),
                }
            }
        } else if self.active && self.rng.chance(SPAWN_PER_ACTIVE_MINUTE) {
            // Single-host cluster: everything runs locally.
            let tag = JobTag {
                home: self.id,
                serial: self.next_serial,
            };
            self.next_serial += 1;
            self.stats.spawned += 1;
            let remaining_min = self.sample_job_minutes();
            self.run_queue.push(Job { tag, remaining_min });
        }

        // One minute of FCFS CPU for the head job.
        if let Some(head) = self.run_queue.first_mut() {
            head.remaining_min -= 1;
            if head.remaining_min == 0 {
                let job = self.run_queue.remove(0);
                if job.tag.home == self.id {
                    self.stats.completed += 1;
                } else {
                    ctx.send(job.tag.home, HostMsg::Done(job.tag));
                }
            }
        }

        self.arm_next(now_min, ctx);
    }

    fn on_message(
        &mut self,
        now: SimTime,
        from: CellId,
        msg: HostMsg,
        ctx: &mut CellCtx<'_, HostMsg>,
    ) {
        match msg {
            HostMsg::Probe => {
                self.stats.probes_answered += 1;
                ctx.send(from, HostMsg::LoadReply(self.load()));
            }
            HostMsg::LoadReply(load) => {
                self.cache_insert(from, load);
            }
            HostMsg::Gossip(batch, n) => {
                for &(host, load) in &batch[..usize::from(n)] {
                    if host != self.id {
                        self.stats.gossip_merged += 1;
                        self.cache_insert(host, load);
                    }
                }
            }
            HostMsg::Place(tag, remaining_min) => {
                if self.active {
                    // The user beat the job here: bounce it straight home.
                    self.stats.evicted += 1;
                    ctx.send(tag.home, HostMsg::Evicted(tag, remaining_min));
                } else {
                    self.stats.migrated_in += 1;
                    self.run_queue.push(Job { tag, remaining_min });
                    self.wake_soon(now, ctx);
                }
            }
            HostMsg::Evicted(tag, remaining_min) => {
                // Our job came home; it waits its turn on our own CPU.
                self.run_queue.push(Job { tag, remaining_min });
                self.wake_soon(now, ctx);
            }
            HostMsg::Done(tag) => {
                debug_assert_eq!(tag.home, self.id);
                self.stats.completed += 1;
            }
        }
    }

    fn digest_into(&self, d: &mut StateDigest) {
        let Self {
            id,
            nhosts: _, // immutable cluster size, fixed at construction
            rng,
            active,
            regime_end_min,
            run_queue,
            cache,
            epoch,
            next_wake_min,
            next_serial,
            stats,
        } = self;
        d.write_u32(*id);
        d.write_bool(*active);
        d.write_u64(*regime_end_min);
        d.write_u64(*epoch);
        d.write_u64(*next_wake_min);
        d.write_u64(*next_serial);
        // RNG state is real per-host state: folding it turns a divergence
        // in variate consumption order (which may not change any decision
        // for a while) into an immediate digest mismatch.
        for w in rng.state_words() {
            d.write_u64(w);
        }
        d.write_usize(run_queue.len());
        for job in run_queue {
            d.write_u32(job.tag.home);
            d.write_u64(job.tag.serial);
            d.write_u64(job.remaining_min);
        }
        d.write_usize(cache.len());
        for slot in cache {
            d.write_u32(slot.host);
            d.write_u32(slot.load);
        }
        let HostCellStats {
            spawned,
            completed,
            migrated_out,
            migrated_in,
            evicted,
            probes_answered,
            probes_sent,
            gossip_sent,
            gossip_merged,
        } = *stats;
        for v in [
            spawned,
            completed,
            migrated_out,
            migrated_in,
            evicted,
            probes_answered,
            probes_sent,
            gossip_sent,
            gossip_merged,
        ] {
            d.write_u64(v);
        }
    }
}

/// Builds the cell population for an m02-style run and seeds each host's
/// first tick (staggered by ID across the first simulated minute-lattice
/// steps would break lattice alignment, so all hosts tick from minute one).
pub fn build_cluster_cells(nhosts: u32, seed: u64) -> Vec<HostCell> {
    (0..nhosts)
        .map(|id| HostCell::new(id, nhosts, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprite_sim::ShardedEngine;

    const LOOKAHEAD: SimDuration = MINUTE;

    fn run(
        nhosts: u32,
        days: u64,
        seed: u64,
        nshards: usize,
        workers: usize,
    ) -> (Vec<sprite_sim::Checkpoint>, Vec<HostCellStats>) {
        let cells = build_cluster_cells(nhosts, seed);
        let mut eng = ShardedEngine::new(cells, nshards, LOOKAHEAD);
        eng.set_workers(workers);
        eng.audit_every_windows(60); // roughly hourly
        for id in 0..nhosts {
            eng.seed_timer(id, SimTime::from_micros(MINUTE.as_micros()), 0);
        }
        eng.run(SimTime::from_micros(days * 24 * 60 * MINUTE.as_micros()));
        let stats = eng.cells().map(|c| c.stats()).collect();
        (eng.take_audit_stream(), stats)
    }

    #[test]
    fn cluster_digest_stream_is_partition_invariant() {
        let (reference, ref_stats) = run(37, 1, 7, 1, 1);
        assert!(!reference.is_empty());
        for (nshards, workers) in [(2, 1), (4, 2), (5, 5)] {
            let (stream, stats) = run(37, 1, 7, nshards, workers);
            assert_eq!(
                stream, reference,
                "digest stream diverged at {nshards} shards / {workers} workers"
            );
            assert_eq!(stats, ref_stats);
        }
    }

    #[test]
    fn the_cluster_does_real_work() {
        let (_, stats) = run(50, 2, 11, 4, 1);
        let spawned: u64 = stats.iter().map(|s| s.spawned).sum();
        let completed: u64 = stats.iter().map(|s| s.completed).sum();
        let migrated: u64 = stats.iter().map(|s| s.migrated_out).sum();
        let evicted: u64 = stats.iter().map(|s| s.evicted).sum();
        let probes: u64 = stats.iter().map(|s| s.probes_sent).sum();
        assert!(spawned > 100, "expected a busy cluster, got {spawned} jobs");
        assert!(
            completed > spawned / 2,
            "most short jobs should finish: {completed}/{spawned}"
        );
        assert!(migrated > 0, "migration never engaged");
        assert!(probes > 0, "load cache never refreshed");
        let gossiped: u64 = stats.iter().map(|s| s.gossip_sent).sum();
        let merged: u64 = stats.iter().map(|s| s.gossip_merged).sum();
        assert!(gossiped > 0, "gossip dissemination never engaged");
        assert!(merged > 0, "gossip batches never merged");
        // Eviction is rarer (user must return mid-job) but the policy
        // must be exercised at this scale.
        assert!(evicted > 0, "eviction policy never exercised");
    }

    #[test]
    fn jobs_are_conserved() {
        // Every spawned job is either completed or still queued somewhere
        // (including in-flight Evicted/Done notices at the horizon).
        let (_, stats) = run(30, 3, 3, 3, 1);
        let spawned: u64 = stats.iter().map(|s| s.spawned).sum();
        let completed: u64 = stats.iter().map(|s| s.completed).sum();
        assert!(completed <= spawned);
        assert!(spawned > 0);
    }

    #[test]
    fn seeds_change_the_outcome() {
        let (a, _) = run(20, 1, 1, 2, 1);
        let (b, _) = run(20, 1, 2, 2, 1);
        assert_ne!(a, b, "different seeds should give different histories");
    }

    #[test]
    fn single_host_cluster_runs_everything_locally() {
        let (_, stats) = run(1, 2, 5, 1, 1);
        assert_eq!(stats[0].migrated_out, 0);
        assert_eq!(stats[0].probes_sent, 0);
    }
}
