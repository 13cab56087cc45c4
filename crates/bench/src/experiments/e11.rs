//! E11 — A month in the life of the cluster (Ch. 8 production study).
//!
//! Thirty simulated days on a 50-workstation cluster: users come and go by
//! the diurnal activity traces; while at the console they launch jobs,
//! which the system exec-migrates to idle hosts chosen by the central
//! server; when an owner returns to a machine harbouring foreign work,
//! eviction kicks in. The thesis's month-long numbers this mirrors: total
//! processor utilization around 2.3%, most remote execution at exec time,
//! evictions rare but prompt.
//!
//! Jobs execute as one-minute CPU bursts so eviction can interrupt them —
//! the remaining bursts simply continue on the home machine.
//!
//! The driver is the event engine: one `schedule_periodic` minute tick
//! carries the whole study (the periodic path re-arms a single boxed
//! handler instead of allocating one closure per simulated minute). The
//! month is split into independent replications with [`DetRng::fork`]ed
//! seeds so the experiment runner can execute them on separate threads and
//! [`merge`] the reports deterministically.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sprite_fs::SpritePath;
use sprite_hostsel::{AvailabilityPolicy, CentralServer, HostInfo, HostSelector};
use sprite_kernel::{Cluster, ProcessId};
use sprite_net::HostId;
use sprite_sim::{Checkpoint, DetRng, Engine, SimDuration, SimTime};
use sprite_workloads::{ActivityModel, ActivityTrace, DAY};

use crate::runner::{Experiment, Report};
use crate::support::{h, rpc_table_text, standard_cluster, standard_migrator, TableWriter};

/// Outcome of the month-long run (or of one replication of it).
#[derive(Debug, Clone, Default)]
pub struct MonthReport {
    /// Hosts simulated.
    pub hosts: usize,
    /// Simulated days.
    pub days: u64,
    /// Jobs launched.
    pub jobs: u64,
    /// Jobs placed on a remote host at exec time.
    pub remote_jobs: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Eviction latency average (seconds).
    pub mean_eviction_secs: f64,
    /// Total CPU consumed by jobs (seconds).
    pub cpu_seconds: f64,
    /// Overall processor utilization across the cluster.
    pub utilization: f64,
    /// Migrations of every kind (from the migration engine).
    pub migrations: u64,
    /// Events the simulation engine executed to drive this run.
    pub sim_events: u64,
    /// Peak live processes in the cluster's PCB slab.
    pub proc_slab_high_water: u64,
    /// Peak live streams in the FS stream table.
    pub stream_slab_high_water: u64,
    /// Slab lookups rejected for a stale generation (should stay 0).
    pub stale_handle_lookups: u64,
    /// Per-op RPC traffic recorded by the typed transport.
    pub rpc: sprite_net::RpcTable,
    /// Raw network message total (equals `rpc.total_messages()`).
    pub net_messages: u64,
    /// Raw network byte total (equals `rpc.total_bytes()`).
    pub net_bytes: u64,
    /// Host selections requested (one per job launch).
    pub hostsel_requests: u64,
    /// Mean host-selection latency in milliseconds — the round trip for
    /// server architectures, the local cache scan for gossip.
    pub hostsel_select_mean_ms: f64,
    /// Wire bytes spent on host selection (all `hostsel-*` ops combined).
    pub hostsel_bytes: u64,
}

struct ActiveJob {
    pid: ProcessId,
    remaining: SimDuration,
    granted_host: Option<HostId>,
}

/// Everything a replication mutates, owned by the event engine's state.
struct World {
    cluster: Cluster,
    migrator: sprite_core::Migrator,
    selector: Box<dyn HostSelector>,
    rng: DetRng,
    traces: Vec<ActivityTrace>,
    jobs: Vec<ActiveJob>,
    // (completion, job index) for in-flight bursts.
    bursts: BinaryHeap<Reverse<(SimTime, usize)>>,
    was_active: Vec<bool>,
    burst: SimDuration,
    report: MonthReport,
    eviction_latency_total: f64,
}

/// One simulated minute: selector reports, owner-return evictions, burst
/// completions, and new job launches — the same order the thesis's trace
/// replay applies them.
fn minute_tick(w: &mut World, t: SimTime) {
    // Console state + selector reports.
    let world: Vec<HostInfo> = w
        .traces
        .iter()
        .map(|tr| HostInfo {
            host: tr.host,
            load: w.cluster.host(tr.host).resident().len() as f64,
            idle: tr.idle_duration_at(t),
            console_active: tr.active_at(t),
            speed: 1.0,
        })
        .collect();
    for info in &world {
        w.cluster.host_mut(info.host).console_active = info.console_active;
        w.selector.report(&mut w.cluster.net, t, *info);
    }
    // Owners returning to hosts with foreign processes trigger eviction.
    for i in 0..w.traces.len() {
        let active = w.traces[i].active_at(t);
        if active && !w.was_active[i] && w.cluster.foreign_on(h(i as u32)).next().is_some() {
            let reports = w
                .migrator
                .evict_all(&mut w.cluster, t, h(i as u32))
                .expect("evict");
            for r in &reports {
                w.eviction_latency_total += r.total_time.as_secs_f64();
                w.report.evictions += 1;
            }
        }
        w.was_active[i] = active;
    }
    // Burst completions due by now.
    while let Some(&Reverse((done, idx))) = w.bursts.peek() {
        if done > t {
            break;
        }
        w.bursts.pop();
        let job = &mut w.jobs[idx];
        if job.remaining.is_zero() {
            // Job finished: exit and release its host.
            let t2 = w.cluster.exit(done, job.pid, 0).expect("exit");
            if let Some(gh) = job.granted_host.take() {
                w.selector
                    .release(&mut w.cluster.net, t2, job.pid.home(), gh);
            }
        } else {
            let chunk = job.remaining.min(w.burst);
            job.remaining -= chunk;
            w.report.cpu_seconds += chunk.as_secs_f64();
            let done2 = w.cluster.run_cpu(done, job.pid, chunk).expect("burst");
            w.bursts.push(Reverse((done2, idx)));
        }
    }
    // Active users launch jobs now and then (~a few per hour).
    for ti in 0..w.traces.len() {
        if w.traces[ti].active_at(t) && w.rng.chance(0.04) {
            let home = w.traces[ti].host;
            let (pid, t1) = w
                .cluster
                .spawn(t, home, &SpritePath::new("/bin/sim"), 32, 8)
                .expect("spawn");
            w.report.jobs += 1;
            // Exec-time placement through the central server.
            let (choice, t2) = w.selector.select(&mut w.cluster.net, t1, home, &world);
            let (start_at, granted) = match choice {
                Some(target) => {
                    let r = w
                        .migrator
                        .exec_migrate(
                            &mut w.cluster,
                            t2,
                            pid,
                            target,
                            &SpritePath::new("/bin/sim"),
                            32,
                            8,
                        )
                        .expect("exec migrate");
                    w.report.remote_jobs += 1;
                    (r.resumed_at, Some(target))
                }
                None => (t2, None),
            };
            let cpu = w
                .rng
                .jittered(SimDuration::from_secs(100), SimDuration::from_secs(40))
                .max(SimDuration::from_secs(10));
            w.jobs.push(ActiveJob {
                pid,
                remaining: cpu,
                granted_host: granted,
            });
            let idx = w.jobs.len() - 1;
            w.bursts.push(Reverse((start_at, idx)));
        }
    }
}

/// Runs one replication from an explicit RNG (forked by the caller for
/// parallel replications). Keep `hosts`/`days` small in tests; the full
/// table merges five 6-day replications over 50 hosts.
pub fn run_seeded(hosts: usize, days: u64, rng: DetRng) -> MonthReport {
    run_inner(hosts, days, rng, None, default_selector()).0
}

/// The selector the golden month uses: the thesis's central server on host 0.
pub(crate) fn default_selector() -> Box<dyn HostSelector> {
    Box::new(CentralServer::new(h(0), AvailabilityPolicy::default()))
}

/// Runs one replication through an arbitrary selection architecture — the
/// macrobench drives the same month through gossip dissemination to price
/// the central server out of the hot path.
pub fn run_seeded_with(
    hosts: usize,
    days: u64,
    rng: DetRng,
    selector: Box<dyn HostSelector>,
) -> MonthReport {
    run_inner(hosts, days, rng, None, selector).0
}

/// Runs one replication with the engine's audit hook armed: every `every`
/// executed events the cluster's [`Cluster::digest`] is checkpointed. The
/// returned stream is what the `audit` experiment compares across `--jobs`
/// values — identical replication, identical stream, regardless of which
/// thread ran it.
pub(crate) fn run_audited(
    hosts: usize,
    days: u64,
    rng: DetRng,
    every: u64,
) -> (MonthReport, Vec<Checkpoint>) {
    run_inner(hosts, days, rng, Some(every), default_selector())
}

/// `run_audited` through an arbitrary selection architecture.
pub fn run_audited_with(
    hosts: usize,
    days: u64,
    rng: DetRng,
    every: u64,
    selector: Box<dyn HostSelector>,
) -> (MonthReport, Vec<Checkpoint>) {
    run_inner(hosts, days, rng, Some(every), selector)
}

fn run_inner(
    hosts: usize,
    days: u64,
    mut rng: DetRng,
    audit_every: Option<u64>,
    selector: Box<dyn HostSelector>,
) -> (MonthReport, Vec<Checkpoint>) {
    let (cluster, setup_done) = standard_cluster(hosts);
    let model = ActivityModel::default();
    let horizon = SimDuration::from_secs(days * DAY);
    let traces: Vec<ActivityTrace> = (0..hosts)
        .map(|i| ActivityTrace::generate(&mut rng, &model, h(i as u32), horizon))
        .collect();

    let mut world = World {
        cluster,
        migrator: standard_migrator(hosts),
        selector,
        rng,
        traces,
        jobs: Vec::new(),
        bursts: BinaryHeap::new(),
        was_active: vec![false; hosts],
        burst: SimDuration::from_secs(60),
        report: MonthReport {
            hosts,
            days,
            ..MonthReport::default()
        },
        eviction_latency_total: 0.0,
    };

    let step = SimDuration::from_secs(60);
    let start = SimTime::ZERO.max_of(setup_done);
    let end = SimTime::ZERO + horizon;
    let mut engine: Engine<World> = Engine::new();
    if let Some(every) = audit_every {
        engine.audit_every(every, |w: &World| w.cluster.digest());
    }
    engine.schedule_periodic_at(start, step, move |w: &mut World, e: &mut Engine<World>| {
        let t = e.now();
        minute_tick(w, t);
        t + step < end
    });
    engine.run(&mut world);
    let audit_stream = engine.take_audit_stream();

    let mut report = world.report;
    report.utilization = report.cpu_seconds / (hosts as f64 * horizon.as_secs_f64());
    report.mean_eviction_secs = if report.evictions == 0 {
        0.0
    } else {
        world.eviction_latency_total / report.evictions as f64
    };
    report.migrations = world.migrator.totals().migrations;
    report.sim_events = engine.events_executed();
    let sel = world.selector.stats();
    report.hostsel_requests = sel.requests;
    report.hostsel_select_mean_ms = sel.select_latency.mean() * 1e3;
    report.rpc = world.cluster.net.rpc_table().clone();
    report.hostsel_bytes = [
        sprite_net::RpcOp::HostselQuery,
        sprite_net::RpcOp::HostselReport,
        sprite_net::RpcOp::HostselRelease,
        sprite_net::RpcOp::HostselGossip,
    ]
    .iter()
    .map(|&op| report.rpc.get(op).bytes)
    .sum();
    let net = world.cluster.net.stats();
    report.net_messages = net.messages;
    report.net_bytes = net.bytes;
    let slab = world.cluster.proc_slab_stats();
    report.proc_slab_high_water = slab.high_water as u64;
    report.stale_handle_lookups = slab.stale_lookups + world.cluster.fs.streams().stale_lookups();
    report.stream_slab_high_water = world.cluster.fs.streams().high_water() as u64;
    (report, audit_stream)
}

/// Runs the study from a bare seed (single replication).
pub fn run(hosts: usize, days: u64, seed: u64) -> MonthReport {
    run_seeded(hosts, days, DetRng::seed_from(seed))
}

/// Per-replication RNGs, forked *serially* from the master seed so the set
/// of replication streams is identical no matter how many threads later
/// execute them — this is the determinism contract of the parallel runner.
pub fn replication_rngs(seed: u64, reps: usize) -> Vec<DetRng> {
    let mut master = DetRng::seed_from(seed);
    (0..reps).map(|_| master.fork()).collect()
}

/// Merges replication reports: counts add, latency averages weight by
/// eviction count, and utilization renormalizes over the combined horizon.
pub fn merge(reports: &[MonthReport]) -> MonthReport {
    let mut out = MonthReport::default();
    let mut latency_total = 0.0;
    let mut select_total = 0.0;
    for r in reports {
        out.hosts = r.hosts;
        out.days += r.days;
        out.jobs += r.jobs;
        out.remote_jobs += r.remote_jobs;
        out.evictions += r.evictions;
        out.cpu_seconds += r.cpu_seconds;
        out.migrations += r.migrations;
        out.sim_events += r.sim_events;
        out.proc_slab_high_water = out.proc_slab_high_water.max(r.proc_slab_high_water);
        out.stream_slab_high_water = out.stream_slab_high_water.max(r.stream_slab_high_water);
        out.stale_handle_lookups += r.stale_handle_lookups;
        out.rpc.merge(&r.rpc);
        out.net_messages += r.net_messages;
        out.net_bytes += r.net_bytes;
        out.hostsel_requests += r.hostsel_requests;
        out.hostsel_bytes += r.hostsel_bytes;
        select_total += r.hostsel_select_mean_ms * r.hostsel_requests as f64;
        latency_total += r.mean_eviction_secs * r.evictions as f64;
    }
    out.utilization =
        out.cpu_seconds / (out.hosts.max(1) as f64 * (out.days * DAY) as f64).max(1.0);
    out.mean_eviction_secs = if out.evictions == 0 {
        0.0
    } else {
        latency_total / out.evictions as f64
    };
    out.hostsel_select_mean_ms = if out.hostsel_requests == 0 {
        0.0
    } else {
        select_total / out.hostsel_requests as f64
    };
    out
}

/// Replication plan for the full table: 5 × 6 days = 30 simulated days.
pub(crate) const FULL_HOSTS: usize = 50;
/// Days per replication in the full table.
pub(crate) const FULL_REP_DAYS: u64 = 6;
/// Replications in the full table.
pub(crate) const FULL_REPS: usize = 5;
/// Master seed for the full table.
pub const FULL_SEED: u64 = 41;

/// Renders the table from a report merged over `reps` replications.
pub fn render(r: &MonthReport, reps: usize) -> String {
    let mut t = TableWriter::new(
        &format!(
            "E11: a month in the life ({} hosts, {} days; {} replications)",
            r.hosts, r.days, reps
        ),
        &["metric", "value"],
    );
    t.row(&["jobs launched".into(), r.jobs.to_string()]);
    t.row(&[
        "remote (exec-time placed)".into(),
        format!(
            "{} ({:.0}%)",
            r.remote_jobs,
            100.0 * r.remote_jobs as f64 / r.jobs.max(1) as f64
        ),
    ]);
    t.row(&["migrations (all kinds)".into(), r.migrations.to_string()]);
    t.row(&["evictions".into(), r.evictions.to_string()]);
    t.row(&[
        "mean eviction latency".into(),
        format!("{:.2}s", r.mean_eviction_secs),
    ]);
    t.row(&[
        "cluster CPU utilization".into(),
        format!("{:.2}%", r.utilization * 100.0),
    ]);
    t.note("paper: month-long utilization ~2.3%; most remote execution happens at exec");
    t.note("time; evictions are rare and fast relative to the owner's session");
    t.render()
}

/// E11 as a runner experiment: one unit per replication, its RNG forked
/// serially from `seed`, merged into one month.
pub fn experiment(hosts: usize, days: u64, seed: u64, reps: usize) -> Experiment {
    let units = replication_rngs(seed, reps)
        .into_iter()
        .map(|rng| (5_000, move || run_seeded(hosts, days, rng)));
    Experiment::new(
        "e11",
        "a month in the life",
        units,
        |reports: Vec<MonthReport>| Report::table(render(&merge(&reports), reports.len())),
    )
}

/// The per-op RPC breakdown of one E11 day on 8 hosts, printed only when
/// named (`rpc-table`).
pub(crate) fn rpc_experiment() -> Experiment {
    Experiment::single(
        "rpc-table",
        "per-op RPC traffic of one E11 day",
        100,
        || {
            let r = run(8, 1, FULL_SEED);
            let title = "Per-op RPC traffic (serial drive: E11 month, 8 hosts x 1 day)";
            let tag = format!(
                "rpc-table: NetStats saw {} messages / {} bytes",
                r.net_messages, r.net_bytes
            );
            Report {
                blocks: vec![(rpc_table_text(title, &r.rpc), Some(tag))],
                ..Report::default()
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn month_study_shapes() {
        // Small but real: 8 hosts, 2 days.
        let r = run(8, 2, 3);
        assert!(r.jobs > 10, "jobs {}", r.jobs);
        assert!(
            r.remote_jobs as f64 >= 0.5 * r.jobs as f64,
            "most jobs should place remotely: {}/{}",
            r.remote_jobs,
            r.jobs
        );
        // Utilization is low single digits of percent, as in the thesis.
        assert!(
            r.utilization > 0.001 && r.utilization < 0.15,
            "utilization {:.4}",
            r.utilization
        );
        assert_eq!(r.migrations, r.remote_jobs + r.evictions);
        // The engine drove one tick per simulated minute.
        assert!(r.sim_events >= 2 * 24 * 60 - 2, "events {}", r.sim_events);
        // Every wire byte is attributed to a typed op.
        assert!(!r.rpc.is_empty());
        assert_eq!(r.rpc.total_messages(), r.net_messages);
        assert_eq!(r.rpc.total_bytes(), r.net_bytes);
    }

    #[test]
    fn evictions_happen_and_are_fast() {
        let r = run(6, 4, 13);
        if r.evictions > 0 {
            assert!(
                r.mean_eviction_secs < 5.0,
                "evictions should be fast: {}s",
                r.mean_eviction_secs
            );
        }
    }

    #[test]
    fn merged_replications_preserve_invariants() {
        let reports: Vec<MonthReport> = replication_rngs(7, 3)
            .into_iter()
            .map(|rng| run_seeded(6, 1, rng))
            .collect();
        let m = merge(&reports);
        assert_eq!(m.days, 3);
        assert_eq!(m.jobs, reports.iter().map(|r| r.jobs).sum::<u64>());
        assert_eq!(m.migrations, m.remote_jobs + m.evictions);
        let cpu: f64 = reports.iter().map(|r| r.cpu_seconds).sum();
        assert!((m.cpu_seconds - cpu).abs() < 1e-9);
        assert!(m.utilization > 0.0);
    }

    #[test]
    fn audited_runs_match_unaudited_reports_and_each_other() {
        let rngs = replication_rngs(41, 2);
        let plain = run_seeded(4, 1, rngs[0].clone());
        let (audited, stream_a) = run_audited(4, 1, rngs[0].clone(), 100);
        let (_, stream_b) = run_audited(4, 1, rngs[1].clone(), 100);
        // Auditing observes the run without perturbing it.
        assert_eq!(plain.jobs, audited.jobs);
        assert_eq!(plain.sim_events, audited.sim_events);
        assert!(
            !stream_a.is_empty(),
            "a day of minutes must hit checkpoints"
        );
        for (i, cp) in stream_a.iter().enumerate() {
            assert_eq!(cp.events, 100 * (i as u64 + 1));
        }
        // Re-running the same forked RNG reproduces the stream exactly.
        let (_, again) = run_audited(4, 1, rngs[0].clone(), 100);
        assert_eq!(stream_a, again);
        // Different replication RNGs diverge somewhere in their digests.
        assert_ne!(stream_a, stream_b);
    }

    #[test]
    fn replication_rngs_are_independent_of_thread_count() {
        // Forking is serial on the master stream: calling it twice gives the
        // same streams, which is what makes parallel execution repeatable.
        let a: Vec<MonthReport> = replication_rngs(41, 3)
            .into_iter()
            .map(|rng| run_seeded(4, 1, rng))
            .collect();
        let b: Vec<MonthReport> = replication_rngs(41, 3)
            .into_iter()
            .map(|rng| run_seeded(4, 1, rng))
            .collect();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.jobs, y.jobs);
            assert_eq!(x.remote_jobs, y.remote_jobs);
            assert_eq!(x.evictions, y.evictions);
            assert_eq!(x.sim_events, y.sim_events);
        }
    }
}
