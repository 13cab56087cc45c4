//! M2 — partitioned-parallel determinism macrobench.
//!
//! The conservative-parallel engine's contract is audacious enough to need
//! its own macrobench: shard a **5 000-host** cluster (100× the thesis's
//! 50 workstations) across worker threads, run a simulated month of
//! idle-host harvesting (~1.3 million process lifetimes), and produce a
//! digest stream **byte-identical** to the serial run's — same checkpoints,
//! same event counts, same digests, for any `--shards` / worker count.
//!
//! Each invocation drives the workload twice: once serial (1 shard, 1
//! worker) and once sharded (the `--shards` request), then compares the two
//! audit streams checkpoint by checkpoint. The stdout block prints only
//! partition-invariant facts — job totals, window/event/message counts, the
//! folded stream digest — so `scripts/bench_check.sh` can byte-compare it
//! across `--shards` values exactly like the golden tables. Partition-
//! *dependent* facts (per-shard effort, cross-shard message counts,
//! barrier-stall time, wall seconds) go to stderr and the JSON sidecar.
//!
//! Unlike m01, this is not in the default set: it prints only when the id
//! `m02[=HOSTS:DAYS]` is named, after the default set's blocks, so the
//! golden stdout of a plain run is untouched.

use std::time::Instant;

use sprite_kernel::build_cluster_cells;
use sprite_net::{CostModel, ShardLink};
use sprite_sim::{
    Checkpoint, EngineCounters, ShardCounters, ShardedEngine, SimDuration, SimTime, StateDigest,
    WorkerCounters,
};

use crate::runner::{Experiment, Report};
use crate::support::{JsonObject, TableWriter};

/// Hosts in the full m02 cluster.
pub(crate) const FULL_HOSTS: u32 = 5_000;
/// Simulated days in the full run.
pub(crate) const FULL_DAYS: u64 = 30;
/// Master seed.
pub const FULL_SEED: u64 = 53;
/// Checkpoint cadence in barrier windows (one window covers one simulated
/// minute): daily at full scale, hourly for short runs — a pure function
/// of the parameters, so every partitioning checkpoints identically.
pub fn audit_every_windows(params: M02Params) -> u64 {
    (params.days * 1_440 / FULL_DAYS).clamp(60, 1_440)
}

/// Workload size knobs (the seed stays fixed so "same params" always means
/// "same history").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct M02Params {
    /// Cluster size.
    pub hosts: u32,
    /// Simulated days.
    pub days: u64,
}

/// The full-scale parameters.
pub const FULL: M02Params = M02Params {
    hosts: FULL_HOSTS,
    days: FULL_DAYS,
};

/// Cluster-wide job accounting, summed over every host's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobTotals {
    /// Jobs spawned.
    pub spawned: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs placed on a remote host at spawn.
    pub migrated: u64,
    /// Foreign jobs evicted home.
    pub evicted: u64,
    /// Load probes sent.
    pub probes: u64,
}

/// One drive of the workload at a given partitioning.
#[derive(Debug, Clone)]
pub struct M02Run {
    /// Logical shards.
    pub shards: usize,
    /// Effective worker threads (bounded by the machine).
    pub workers: usize,
    /// Barrier windows executed.
    pub windows: u64,
    /// Events executed (partition-invariant).
    pub events: u64,
    /// Messages delivered (partition-invariant).
    pub messages: u64,
    /// Messages that crossed shards (partition-*dependent*).
    pub cross_messages: u64,
    /// The digest stream.
    pub audit: Vec<Checkpoint>,
    /// Per-shard effort.
    pub shard_counters: Vec<ShardCounters>,
    /// Per-worker wall time split into execute, merge and barrier wait.
    pub worker_stalls: Vec<WorkerCounters>,
    /// Calendar-queue effort summed over shards (partition-*dependent*).
    pub queue: EngineCounters,
    /// Cluster-wide job accounting.
    pub jobs: JobTotals,
    /// Wall-clock seconds for this drive.
    pub wall_seconds: f64,
}

impl M02Run {
    /// Host nanoseconds per executed event.
    pub(crate) fn ns_per_event(&self) -> f64 {
        self.wall_seconds * 1e9 / self.events.max(1) as f64
    }

    /// Calendar key comparisons per executed event.
    pub(crate) fn keys_compared_per_event(&self) -> f64 {
        self.queue.keys_compared as f64 / self.events.max(1) as f64
    }
}

/// Serial-vs-sharded comparison, the unit the gate checks.
#[derive(Debug, Clone)]
pub struct M02Report {
    /// Workload size.
    pub params: M02Params,
    /// The 1-shard / 1-worker reference drive.
    pub serial: M02Run,
    /// The requested-partitioning drive.
    pub sharded: M02Run,
    /// Whether the two digest streams are identical (checkpoint counts,
    /// event counts, times and digests all equal).
    pub digest_match: bool,
}

/// Drives the workload once. `shards` is the logical partition count;
/// `workers` is the requested thread count (0 = auto), which the engine
/// clamps to `[1, shards]`.
pub fn drive(params: M02Params, shards: usize, workers: usize) -> M02Run {
    let link = ShardLink::new(CostModel::sun3(), SimDuration::from_secs(60));
    let cells = build_cluster_cells(params.hosts, FULL_SEED);
    let mut eng = ShardedEngine::new(cells, shards, link.lookahead());
    eng.set_workers(workers);
    eng.audit_every_windows(audit_every_windows(params));
    let start = Instant::now();
    eng.set_stall_clock(std::sync::Arc::new(move || {
        start.elapsed().as_nanos() as u64
    }));
    for id in 0..params.hosts {
        eng.seed_timer(id, SimTime::from_micros(60_000_000), 0);
    }
    let wall = Instant::now();
    eng.run(SimTime::from_micros(params.days * 24 * 60 * 60_000_000));
    let wall_seconds = wall.elapsed().as_secs_f64();

    let mut jobs = JobTotals::default();
    for cell in eng.cells() {
        let s = cell.stats();
        jobs.spawned += s.spawned;
        jobs.completed += s.completed;
        jobs.migrated += s.migrated_out;
        jobs.evicted += s.evicted;
        jobs.probes += s.probes_sent;
    }
    M02Run {
        shards: eng.nshards(),
        workers: eng.worker_stalls().len().max(1),
        windows: eng.windows(),
        events: eng.events_executed(),
        messages: eng.messages_delivered(),
        cross_messages: eng.cross_shard_messages(),
        shard_counters: eng.shard_counters(),
        worker_stalls: eng.worker_stalls().to_vec(),
        queue: eng.queue_counters(),
        jobs,
        wall_seconds,
        audit: eng.take_audit_stream(),
    }
}

/// Runs the serial reference and the sharded drive and compares streams.
pub fn run(params: M02Params, shards: usize) -> M02Report {
    let serial = drive(params, 1, 1);
    let sharded = drive(params, shards, 0);
    let digest_match = serial.audit == sharded.audit;
    M02Report {
        params,
        serial,
        sharded,
        digest_match,
    }
}

/// Folds a digest stream into one u64 so the table can print "the whole
/// stream" in a line.
pub(crate) fn stream_digest(audit: &[Checkpoint]) -> u64 {
    let mut d = StateDigest::new();
    d.write_usize(audit.len());
    for c in audit {
        d.write_u64(c.events);
        d.write_u64(c.at.as_micros());
        d.write_u64(c.digest);
    }
    d.finish()
}

/// Renders the stdout block. Everything here is partition-invariant, so
/// the block must be byte-identical for every `--shards` value — that is
/// what `scripts/bench_check.sh` enforces.
pub fn render(r: &M02Report) -> String {
    let mut t = TableWriter::new(
        &format!(
            "M2: partitioned-parallel determinism macrobench ({} hosts x {} simulated days, seed {})",
            r.params.hosts, r.params.days, FULL_SEED
        ),
        &["metric", "value"],
    );
    let jobs = &r.serial.jobs;
    t.row(&["jobs: spawned".into(), jobs.spawned.to_string()]);
    t.row(&["jobs: completed".into(), jobs.completed.to_string()]);
    t.row(&[
        "jobs: migrated at spawn".into(),
        format!(
            "{} ({:.0}%)",
            jobs.migrated,
            100.0 * jobs.migrated as f64 / jobs.spawned.max(1) as f64
        ),
    ]);
    t.row(&["jobs: evicted home".into(), jobs.evicted.to_string()]);
    t.row(&["load probes sent".into(), jobs.probes.to_string()]);
    t.row(&["barrier windows".into(), r.serial.windows.to_string()]);
    t.row(&["events executed".into(), r.serial.events.to_string()]);
    t.row(&["messages delivered".into(), r.serial.messages.to_string()]);
    t.row(&[
        "digest checkpoints".into(),
        r.serial.audit.len().to_string(),
    ]);
    t.row(&[
        "digest stream (folded)".into(),
        format!("{:016x}", stream_digest(&r.serial.audit)),
    ]);
    t.row(&[
        "sharded stream identical".into(),
        if r.digest_match {
            "yes"
        } else {
            "NO — DIVERGED"
        }
        .to_string(),
    ]);
    t.note("the sharded drive re-runs the same workload partitioned across");
    t.note("worker threads; its digest stream must match the serial stream");
    t.note("byte for byte (shard/worker counts and wall time are on stderr)");
    t.render()
}

/// Total barrier-stall nanoseconds across a drive's workers.
pub(crate) fn total_stall_ns(run: &M02Run) -> u64 {
    run.worker_stalls.iter().map(|w| w.stall_ns).sum()
}

/// One worker's time split, in seconds: "w0 exec 1.234s merge 0.123s wait
/// 0.012s".
pub(crate) fn worker_split(w: &WorkerCounters) -> String {
    format!(
        "w{} exec {:.3}s merge {:.3}s wait {:.3}s",
        w.worker,
        w.execute_ns as f64 / 1e9,
        w.merge_ns as f64 / 1e9,
        w.stall_ns as f64 / 1e9
    )
}

/// M2 as a runner experiment: one unit driving `params` serially and then
/// on `shards` shards. It fails when the two digest streams differ.
pub fn experiment(params: M02Params, shards: usize) -> Experiment {
    Experiment::single(
        "m02",
        "partitioned-parallel determinism macrobench",
        u64::from(params.hosts) * params.days,
        move || report(&run(params, shards)),
    )
}

fn report(r: &M02Report) -> Report {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let (serial, sharded) = (&r.serial, &r.sharded);
    let speedup = serial.wall_seconds / sharded.wall_seconds.max(1e-9);
    let days = r.params.days as f64;
    let stall_seconds = total_stall_ns(sharded) as f64 / 1e9;
    let mut stderr = vec![
        format!(
            "[timing] m02: serial {:.2}s, sharded {:.2}s ({} shards on {} workers, {cores} cores), speedup {speedup:.2}x",
            serial.wall_seconds, sharded.wall_seconds, sharded.shards, sharded.workers,
        ),
        format!(
            "[timing] m02: wall per simulated day: serial {:.3}s, sharded {:.3}s; \
             serial {:.0} ns and {:.2} key comparisons per event",
            serial.wall_seconds / days,
            sharded.wall_seconds / days,
            serial.ns_per_event(),
            serial.keys_compared_per_event(),
        ),
        format!(
            "[counters] m02: {} cross-shard of {} messages, barrier stall {stall_seconds:.3}s across {} workers ({})",
            sharded.cross_messages,
            sharded.messages,
            sharded.workers,
            sharded.worker_stalls.iter().map(worker_split).collect::<Vec<_>>().join(", "),
        ),
    ];
    stderr.extend(sharded.shard_counters.iter().map(|s| {
        format!(
            "[counters] m02 shard {}: {} cells, {} events, {} timers, {} sent, {} in",
            s.shard, s.cells, s.events, s.timers_set, s.messages_sent, s.messages_in
        )
    }));
    let json = JsonObject::new()
        .text(
            "description",
            "partitioned-parallel determinism macrobench (sharded month)",
        )
        .num("hosts", r.params.hosts)
        .num("days", r.params.days)
        .num("seed", FULL_SEED)
        .num("shards", sharded.shards)
        .num("workers", sharded.workers)
        .num("cores", cores)
        .num("serial_wall_seconds", format!("{:.3}", serial.wall_seconds))
        .num(
            "sharded_wall_seconds",
            format!("{:.3}", sharded.wall_seconds),
        )
        .num(
            "serial_wall_per_sim_day_seconds",
            format!("{:.4}", serial.wall_seconds / days),
        )
        .num(
            "sharded_wall_per_sim_day_seconds",
            format!("{:.4}", sharded.wall_seconds / days),
        )
        .num("speedup", format!("{speedup:.3}"))
        .num(
            "serial_ns_per_event",
            format!("{:.1}", serial.ns_per_event()),
        )
        .num(
            "serial_keys_compared_per_event",
            format!("{:.3}", serial.keys_compared_per_event()),
        )
        .num("windows", serial.windows)
        .num("events", serial.events)
        .num("messages", serial.messages)
        .num("cross_shard_messages", sharded.cross_messages)
        .num("barrier_stall_seconds", format!("{stall_seconds:.3}"))
        .num("jobs_spawned", serial.jobs.spawned)
        .num("jobs_completed", serial.jobs.completed)
        .num("jobs_migrated", serial.jobs.migrated)
        .num("jobs_evicted", serial.jobs.evicted)
        .num("digest_checkpoints", serial.audit.len())
        .text(
            "digest_stream",
            &format!("{:016x}", stream_digest(&serial.audit)),
        )
        .num("digest_match", r.digest_match)
        .rows(
            "shard_counters",
            sharded.shard_counters.iter().map(|s| {
                JsonObject::new()
                    .num("shard", s.shard)
                    .num("cells", s.cells)
                    .num("events", s.events)
                    .num("timers_set", s.timers_set)
                    .num("messages_sent", s.messages_sent)
                    .num("messages_in", s.messages_in)
            }),
        )
        .rows(
            "worker_stalls",
            sharded.worker_stalls.iter().map(|w| {
                JsonObject::new()
                    .num("worker", w.worker)
                    .num("execute_ns", w.execute_ns)
                    .num("merge_ns", w.merge_ns)
                    .num("stall_ns", w.stall_ns)
            }),
        );
    let tag = format!(
        "m02: {} digest checkpoints, serial vs sharded",
        serial.audit.len()
    );
    Report {
        blocks: vec![(render(r), Some(tag))],
        json: Some(("m02", json)),
        stderr,
        failure: (!r.digest_match)
            .then(|| "sharded digest stream diverged from serial".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_m02_streams_match_and_do_work() {
        let params = M02Params { hosts: 60, days: 1 };
        let report = run(params, 4);
        assert!(report.digest_match, "sharded stream diverged");
        assert!(!report.serial.audit.is_empty());
        assert!(report.serial.jobs.spawned > 0);
        assert!(report.serial.jobs.migrated > 0);
        assert_eq!(report.serial.events, report.sharded.events);
        assert_eq!(report.serial.messages, report.sharded.messages);
        assert_eq!(report.sharded.shards, 4);
        // Rendering is partition-invariant by construction: it reads only
        // the serial drive and the match flag.
        let text = render(&report);
        assert!(text.contains("sharded stream identical"));
        assert!(text.contains("yes"));
    }

    #[test]
    fn stream_digest_is_sensitive() {
        let a = run(M02Params { hosts: 20, days: 1 }, 2);
        let b = run(M02Params { hosts: 21, days: 1 }, 2);
        assert_ne!(
            stream_digest(&a.serial.audit),
            stream_digest(&b.serial.audit)
        );
    }
}
