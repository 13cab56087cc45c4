//! What a workload run returns, and the statistics taken from it.

use std::time::Instant;

use sprite_core::{MigrationReport, MigrationTotals};
use sprite_fs::FsStats;
use sprite_kernel::Cluster;
use sprite_net::{HostId, RpcOp, RpcTable};
use sprite_sim::{EngineCounters, SimDuration, StateDigest};

use crate::probe::{Layer, Probe};

/// When a workload stops issuing operations.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until this instant, but never before the sample is complete.
    Until(Instant),
    /// Exactly this many operations (at least the sample).
    Ops(usize),
}

impl Budget {
    /// Whether the workload may start operation number `done` (0-based).
    pub fn more(&self, done: usize, sample_done: bool) -> bool {
        match *self {
            Budget::Until(t) => !sample_done || Instant::now() < t,
            Budget::Ops(n) => done < n,
        }
    }
}

/// Runs epochs 0, 1, 2, … through `epoch(index, in_sample, out)`, which
/// returns whether the epoch ran to its end, until the budget is spent.
/// The first `sample_epochs` epochs form the sample and always complete.
pub fn run_epochs<P: Probe>(
    probe: &P,
    name: &'static str,
    budget: Budget,
    sample_epochs: u64,
    mut epoch: impl FnMut(u64, bool, &mut Outcome) -> bool,
) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    probe.span(Layer::Bench, "run", || {
        for i in 0.. {
            let in_sample = i < sample_epochs;
            if !budget.more(out.op_ns.len(), !in_sample)
                || !probe.span(Layer::Bench, name, || epoch(i, in_sample, &mut out))
            {
                break;
            }
            out.sample_done(i + 1 >= sample_epochs);
        }
    });
    out.elapsed_ns = since(start);
    out
}

/// Host `i` of a cluster.
pub fn host(i: usize) -> HostId {
    HostId::new(u32::try_from(i).expect("host index fits in u32"))
}

/// The `i`-th sub-seed of `seed` (splitmix64), so epoch, replication and
/// build `i` of a run are pure functions of `(seed, i)`.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Correctness checks; a run with any failure exits 1.
#[derive(Debug, Default)]
pub struct Checks {
    pub run: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn ensure(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok && self.failures.len() < 20 {
            self.failures.push(what());
        }
    }
}

/// Simulated-system statistics, summed over the sample. The sample is a
/// fixed prefix of each run (a number of epochs or operations), so these
/// numbers depend on the seed alone, never on how fast the host is.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Jobs in the sample: batch jobs, user jobs, builds or moved
    /// processes, by workload.
    pub jobs: u64,
    /// Summed simulated latency of those jobs, in milliseconds.
    pub job_ms: f64,
    /// Messages the simulated system sent.
    pub messages: u64,
    pub digest: StateDigest,
    pub layers: LayerCounts,
}

impl Sample {
    pub fn job_ms_mean(&self) -> f64 {
        ratio(self.job_ms, self.jobs as f64)
    }

    pub fn msgs_per_job(&self) -> f64 {
        ratio(self.messages as f64, self.jobs as f64)
    }
}

/// The RPC ops whose traffic the per-layer metrics break out.
pub const RPC_OPS: [RpcOp; 10] = [
    RpcOp::MigrateNegotiate,
    RpcOp::MigrateState,
    RpcOp::VmPageFlush,
    RpcOp::FsLookup,
    RpcOp::FsOpen,
    RpcOp::FsBlockRead,
    RpcOp::FsBlockWrite,
    RpcOp::HostselGossip,
    RpcOp::CkptWrite,
    RpcOp::CkptRestore,
];

/// Work counters per layer over the sample. Every workload reports every
/// field; a layer a workload does not reach stays zero.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    pub engine: EngineCounters,
    pub engine_messages: u64,
    pub pcb_high_water: u64,
    pub stale_lookups: u64,
    pub migrations: u64,
    pub evictions: u64,
    pub ckpt_moves: u64,
    pub migration_failures: u64,
    pub migration_aborts: u64,
    /// Simulated time per migration phase: negotiate, vm, streams, state,
    /// commit.
    pub phase_ms: [f64; 5],
    pub vm_pages_moved: u64,
    pub vm_bytes_moved: u64,
    pub ckpt_image_bytes: u64,
    pub fs: FsStats,
    /// Worst file server's busy share of the simulated time it served.
    pub fs_server_util_max: f64,
    pub rpc: RpcTable,
    pub net_messages: u64,
    pub net_bytes: u64,
    pub hostsel_requests: u64,
    pub hostsel_granted: u64,
    pub pmake_targets: u64,
    pub pmake_remote: u64,
}

/// The FS counters the per-layer metrics report.
fn fs_counts(f: &FsStats) -> [u64; 8] {
    [
        f.lookups,
        f.opens,
        f.block_fetches,
        f.block_writebacks,
        f.pageins,
        f.pageouts,
        f.name_cache_hits,
        f.replica_hits,
    ]
}

impl LayerCounts {
    /// The counters a cluster keeps (process slab, FS, network) after its
    /// file servers served `span` of simulated time.
    pub fn of_cluster(c: &Cluster, span: SimDuration) -> LayerCounts {
        let slab = c.proc_slab_stats();
        let net = c.net.stats();
        LayerCounts {
            pcb_high_water: slab.high_water as u64,
            stale_lookups: slab.stale_lookups + c.fs.streams().stale_lookups(),
            fs: c.fs.stats(),
            fs_server_util_max: ratio(c.fs.server_busy_max().as_secs_f64(), span.as_secs_f64()),
            rpc: c.net.rpc_table().clone(),
            net_messages: net.messages,
            net_bytes: net.bytes,
            ..LayerCounts::default()
        }
    }

    pub fn add_totals(&mut self, t: &MigrationTotals) {
        self.migrations += t.migrations;
        self.evictions += t.evictions;
        self.migration_failures += t.failures;
        self.migration_aborts += t.aborts;
    }

    /// Counts one migration's phases and VM transfer.
    pub fn add_migration(&mut self, r: &MigrationReport) {
        let p = &r.phases;
        for (acc, d) in self.phase_ms.iter_mut().zip([
            p.negotiate,
            p.virtual_memory,
            p.streams,
            p.process_state,
            p.commit,
        ]) {
            *acc += d.as_millis_f64();
        }
        if let Some(vm) = &r.vm {
            self.vm_pages_moved += vm.pages_moved;
            self.vm_bytes_moved += vm.bytes_moved;
        }
    }

    /// Adds another epoch's counters; peaks take the maximum. Destructured
    /// exhaustively, so a new counter cannot be left out.
    pub fn merge(&mut self, o: &LayerCounts) {
        let LayerCounts {
            engine,
            engine_messages,
            pcb_high_water,
            stale_lookups,
            migrations,
            evictions,
            ckpt_moves,
            migration_failures,
            migration_aborts,
            phase_ms,
            vm_pages_moved,
            vm_bytes_moved,
            ckpt_image_bytes,
            fs,
            fs_server_util_max,
            rpc,
            net_messages,
            net_bytes,
            hostsel_requests,
            hostsel_granted,
            pmake_targets,
            pmake_remote,
        } = o;
        let e = &mut self.engine;
        e.events_executed += engine.events_executed;
        e.handler_allocations += engine.handler_allocations;
        e.periodic_reschedules += engine.periodic_reschedules;
        e.buckets_scanned += engine.buckets_scanned;
        e.overflow_migrations += engine.overflow_migrations;
        e.resizes += engine.resizes;
        let f = &mut self.fs;
        f.lookups += fs.lookups;
        f.opens += fs.opens;
        f.block_fetches += fs.block_fetches;
        f.block_writebacks += fs.block_writebacks;
        f.pageins += fs.pageins;
        f.pageouts += fs.pageouts;
        f.name_cache_hits += fs.name_cache_hits;
        f.replica_hits += fs.replica_hits;
        for (acc, v) in self.phase_ms.iter_mut().zip(phase_ms) {
            *acc += v;
        }
        self.pcb_high_water = self.pcb_high_water.max(*pcb_high_water);
        self.fs_server_util_max = self.fs_server_util_max.max(*fs_server_util_max);
        self.rpc.merge(rpc);
        for (acc, v) in [
            (&mut self.engine_messages, engine_messages),
            (&mut self.stale_lookups, stale_lookups),
            (&mut self.migrations, migrations),
            (&mut self.evictions, evictions),
            (&mut self.ckpt_moves, ckpt_moves),
            (&mut self.migration_failures, migration_failures),
            (&mut self.migration_aborts, migration_aborts),
            (&mut self.vm_pages_moved, vm_pages_moved),
            (&mut self.vm_bytes_moved, vm_bytes_moved),
            (&mut self.ckpt_image_bytes, ckpt_image_bytes),
            (&mut self.net_messages, net_messages),
            (&mut self.net_bytes, net_bytes),
            (&mut self.hostsel_requests, hostsel_requests),
            (&mut self.hostsel_granted, hostsel_granted),
            (&mut self.pmake_targets, pmake_targets),
            (&mut self.pmake_remote, pmake_remote),
        ] {
            *acc += v;
        }
    }

    /// Folds every counter into `d`, so the run digest covers them.
    pub fn digest_into(&self, d: &mut StateDigest) {
        let e = &self.engine;
        for v in [
            e.events_executed,
            e.buckets_scanned,
            e.overflow_migrations,
            e.resizes,
            self.engine_messages,
            self.pcb_high_water,
            self.stale_lookups,
            self.migrations,
            self.evictions,
            self.ckpt_moves,
            self.migration_failures,
            self.migration_aborts,
            self.vm_pages_moved,
            self.vm_bytes_moved,
            self.ckpt_image_bytes,
            self.net_messages,
            self.net_bytes,
            self.hostsel_requests,
            self.hostsel_granted,
            self.pmake_targets,
            self.pmake_remote,
        ]
        .into_iter()
        .chain(fs_counts(&self.fs))
        {
            d.write_u64(v);
        }
        for v in self.phase_ms {
            d.write_u64(v.to_bits());
        }
        d.write_u64(self.fs_server_util_max.to_bits());
        self.rpc.digest_into(d);
    }
}

/// Host time of one epoch: a fresh world and the operations run on it.
#[derive(Debug, Clone, Copy)]
pub struct EpochTime {
    pub ops: usize,
    /// The whole epoch: world build, operations, checks, teardown.
    pub wall_ns: u64,
    /// The world build alone.
    pub world_ns: u64,
    /// Whether the epoch ran all its operations.
    pub complete: bool,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Host time of each timed operation, in order.
    pub op_ns: Vec<u64>,
    pub epochs: Vec<EpochTime>,
    /// Host time of the whole timed phase.
    pub elapsed_ns: u64,
    /// Operations in which a layer call returned an error.
    pub failed: u64,
    /// Engine events executed over the whole run (not just the sample).
    pub run_events: u64,
    pub checks: Checks,
    pub sample: Sample,
    /// Whether the run reached the end of its sample.
    pub sample_complete: bool,
    /// Peak resident memory when the sample completed.
    pub sample_rss_mb: f64,
}

impl Outcome {
    /// Marks the sample complete once `done`, reading peak memory then: the
    /// sample is fixed work, while the rest of a run grows with host speed.
    pub fn sample_done(&mut self, done: bool) {
        if done && !self.sample_complete {
            self.sample_complete = true;
            self.sample_rss_mb = peak_rss_mb();
        }
    }

    /// The run digest: the sample's folded statistics.
    pub fn digest(&self) -> u64 {
        let mut d = self.sample.digest;
        d.write_u64(self.sample.jobs);
        d.write_u64(self.sample.job_ms.to_bits());
        d.write_u64(self.sample.messages);
        self.sample.layers.digest_into(&mut d);
        d.finish()
    }
}

/// Nanoseconds since `t`.
pub fn since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `p`-quantile (0..=1) of `values`, interpolating between ranks.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)` gives
/// them (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([q(1), q(2), q(3)])
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn sub_seeds_differ() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    }
}
