//! M1 — cluster-scale macrobench for the slab-arena data plane.
//!
//! Two production-shaped workloads at more than double the thesis's
//! cluster size (120 hosts vs. the 50-workstation Sprite cluster):
//!
//! 1. an E11-style "month in the life" — diurnal console activity,
//!    exec-time placement through the central server, owner-return
//!    evictions — run as serial replications;
//! 2. an E6-style batch of 100 independent simulations fanned out over
//!    the borrowed machines by the pmake engine.
//!
//! The point is scale: process and stream churn at 120 hosts exercises
//! the generational PCB/stream slabs, the interned path table and the
//! deterministic hash maps hard enough that their occupancy counters mean
//! something. The table reports those data-plane counters next to the
//! workload results; `experiments --json` records them in the
//! `macrobench` block of `BENCH_experiments.json`.
//!
//! The id `m01` is in the default set, after the 19 tables, so
//! `experiments_output.txt` pins the table byte for byte.

use sprite_fs::SpritePath;
use sprite_hostsel::{AvailabilityPolicy, GossipDissemination, HostSelector};
use sprite_pmake::{prepare_sources, run_build, Action, DepGraph, PmakeConfig};
use sprite_sim::{DetRng, SimDuration};
use sprite_workloads::simulation_batch;

use crate::experiments::e11;
use crate::runner::{hash_probes_total, Experiment, Report};
use crate::support::{
    h, secs, sharded_cluster, standard_migrator, warmed_sharded_selector, JsonObject, TableWriter,
};

/// Hosts in the macrobench cluster (the thesis cluster was ~50).
pub const MACRO_HOSTS: usize = 120;
/// Days per month replication.
pub const MACRO_REP_DAYS: u64 = 3;
/// Month replications.
pub const MACRO_REPS: usize = 2;
/// Independent simulations in the batch workload.
pub const MACRO_SIM_JOBS: usize = 100;
/// Master seed.
pub const MACRO_SEED: u64 = 47;
/// Host-selection daemons the batch workload spreads its hosts across.
pub const MACRO_COORDINATORS: usize = 4;
/// File-server daemons striping the batch workload's root domain.
pub const MACRO_FS_SHARDS: usize = 2;

/// The month's selection architecture: gossip dissemination tuned for the
/// driver's one-minute report cadence — fanout 1, batches of 4 entries, a
/// refresh floor every 30th report (an unchanged host still re-gossips
/// twice an hour) and entries trusted for 45 minutes. This replaces the
/// central server whose 500 µs service queue cost 615 ms per selection at
/// 120 hosts.
pub fn month_selector(rep: usize) -> Box<dyn HostSelector> {
    let mut g = GossipDissemination::new(
        MACRO_HOSTS,
        1,
        4,
        AvailabilityPolicy::default(),
        MACRO_SEED ^ 0x6055 ^ (rep as u64).wrapping_mul(0x9e37),
    );
    g.set_refresh_every(30);
    g.set_max_age(SimDuration::from_secs(45 * 60));
    Box::new(g)
}

/// Everything the macrobench measured, for the table and the JSON sidecar.
#[derive(Debug, Clone)]
pub struct MacroReport {
    /// Cluster size.
    pub hosts: usize,
    /// The merged month-in-the-life report.
    pub month: e11::MonthReport,
    /// Simulation-batch job count.
    pub sim_jobs: usize,
    /// Simulation-batch makespan.
    pub sim_makespan: SimDuration,
    /// Simulation-batch effective utilization (%).
    pub sim_utilization_pct: f64,
    /// Peak live PCBs across both workloads' clusters.
    pub proc_slab_high_water: u64,
    /// PCB slots ever allocated (peak table footprint).
    pub proc_slab_capacity: u64,
    /// Peak live streams across both workloads' clusters.
    pub stream_slab_high_water: u64,
    /// Generation-mismatch lookups across both workloads (must be 0: the
    /// simulation never dereferences a dead process on purpose).
    pub stale_handle_lookups: u64,
    /// Per-op RPC traffic across both workloads (month + batch).
    pub rpc: sprite_net::RpcTable,
    /// Raw network message total across both workloads.
    pub net_messages: u64,
    /// Raw network byte total across both workloads.
    pub net_bytes: u64,
    /// Host selections requested across both workloads.
    pub hostsel_requests: u64,
    /// Mean host-selection latency across both workloads (milliseconds).
    pub hostsel_select_mean_ms: f64,
    /// Wire bytes spent on host selection (all `hostsel-*` ops, both
    /// workloads).
    pub hostsel_bytes: u64,
    /// File-server daemons striping the batch workload's root domain.
    pub fs_shards: usize,
    /// Block fetches the batch workload served from replica peers.
    pub fs_replica_hits: u64,
    /// Busy time of the batch workload's worst-loaded file-server daemon.
    pub fs_server_busy_max: SimDuration,
}

fn simulation_graph(count: usize, mean_cpu: SimDuration, seed: u64) -> DepGraph {
    let jobs = simulation_batch(&mut DetRng::seed_from(seed), count, mean_cpu);
    let mut g = DepGraph::new();
    for j in &jobs {
        g.add_target(
            &format!("/sim/run{}.out", j.index),
            Action::Compile(sprite_workloads::CompileJob {
                src: format!("/sim/params{}.in", j.index),
                headers: Vec::new(),
                obj: format!("/sim/run{}.out", j.index),
                src_bytes: 2 * 1024,
                obj_bytes: j.result_bytes,
                cpu: j.cpu,
            }),
            &[],
        );
    }
    g
}

/// Runs both workloads serially and returns the combined report.
pub fn run() -> MacroReport {
    // Part 1: the month, as serial replications of the E11 world, placed
    // through gossip dissemination instead of the central server.
    let month_reports: Vec<e11::MonthReport> = e11::replication_rngs(MACRO_SEED, MACRO_REPS)
        .into_iter()
        .enumerate()
        .map(|(rep, rng)| {
            e11::run_seeded_with(MACRO_HOSTS, MACRO_REP_DAYS, rng, month_selector(rep))
        })
        .collect();
    let month = e11::merge(&month_reports);

    // Part 2: 100 independent simulations over the borrowed machines, with
    // the root domain striped across MACRO_FS_SHARDS server daemons. The
    // home host sits just past the server group.
    let graph = simulation_graph(
        MACRO_SIM_JOBS,
        SimDuration::from_secs(400),
        MACRO_SEED ^ 0xa5,
    );
    let home = h(MACRO_FS_SHARDS as u32);
    let (mut cluster, t0) = sharded_cluster(MACRO_HOSTS, MACRO_FS_SHARDS);
    let mut migrator = standard_migrator(MACRO_HOSTS);
    let mut selector = warmed_sharded_selector(
        &mut cluster,
        MACRO_HOSTS,
        MACRO_COORDINATORS,
        MACRO_FS_SHARDS as u32 + 1,
    );
    let t = prepare_sources(&mut cluster, &graph, home, t0).expect("prepare");
    let build = run_build(
        &mut cluster,
        &mut migrator,
        &mut selector,
        home,
        &graph,
        &PmakeConfig::default(),
        t,
    )
    .expect("build");
    let procs = cluster.proc_slab_stats();
    let streams = cluster.fs.streams();
    let mut rpc = month.rpc.clone();
    rpc.merge(cluster.net.rpc_table());
    let batch_net = cluster.net.stats();

    // Host-selection totals: the month's gossip placements plus the batch's
    // sharded daemon's queries, latency weighted by request count.
    let batch_sel = selector.stats();
    let hostsel_requests = month.hostsel_requests + batch_sel.requests;
    let hostsel_select_mean_ms = if hostsel_requests == 0 {
        0.0
    } else {
        (month.hostsel_select_mean_ms * month.hostsel_requests as f64
            + batch_sel.select_latency.mean() * 1e3 * batch_sel.requests as f64)
            / hostsel_requests as f64
    };
    let hostsel_bytes = month.hostsel_bytes
        + [
            sprite_net::RpcOp::HostselQuery,
            sprite_net::RpcOp::HostselReport,
            sprite_net::RpcOp::HostselRelease,
            sprite_net::RpcOp::HostselGossip,
        ]
        .iter()
        .map(|&op| cluster.net.rpc_table().get(op).bytes)
        .sum::<u64>();

    MacroReport {
        rpc,
        hostsel_requests,
        hostsel_select_mean_ms,
        hostsel_bytes,
        fs_shards: cluster.fs.fs_shards(),
        fs_replica_hits: cluster.fs.stats().replica_hits,
        fs_server_busy_max: cluster.fs.server_busy_max(),
        net_messages: month.net_messages + batch_net.messages,
        net_bytes: month.net_bytes + batch_net.bytes,
        hosts: MACRO_HOSTS,
        sim_jobs: graph.len(),
        sim_makespan: build.makespan,
        sim_utilization_pct: build.effective_parallelism * 100.0,
        proc_slab_high_water: month.proc_slab_high_water.max(procs.high_water as u64),
        proc_slab_capacity: procs.capacity as u64,
        stream_slab_high_water: month
            .stream_slab_high_water
            .max(streams.high_water() as u64),
        stale_handle_lookups: month.stale_handle_lookups
            + procs.stale_lookups
            + streams.stale_lookups(),
        month,
    }
}

/// Renders the macrobench table.
pub fn render(r: &MacroReport) -> String {
    let mut t = TableWriter::new(
        &format!(
            "M1: cluster-scale macrobench ({} hosts; {}-day month x{} + {} simulations)",
            r.hosts, MACRO_REP_DAYS, MACRO_REPS, r.sim_jobs
        ),
        &["metric", "value"],
    );
    t.row(&["month: jobs launched".into(), r.month.jobs.to_string()]);
    t.row(&[
        "month: remote (exec-time placed)".into(),
        format!(
            "{} ({:.0}%)",
            r.month.remote_jobs,
            100.0 * r.month.remote_jobs as f64 / r.month.jobs.max(1) as f64
        ),
    ]);
    t.row(&["month: evictions".into(), r.month.evictions.to_string()]);
    t.row(&[
        "month: cluster CPU utilization".into(),
        format!("{:.2}%", r.month.utilization * 100.0),
    ]);
    t.row(&[
        "month: engine events".into(),
        r.month.sim_events.to_string(),
    ]);
    t.row(&["sims: makespan".into(), secs(r.sim_makespan)]);
    t.row(&[
        "sims: effective utilization".into(),
        format!("{:.0}%", r.sim_utilization_pct),
    ]);
    t.row(&[
        "data plane: PCB slab high-water".into(),
        r.proc_slab_high_water.to_string(),
    ]);
    t.row(&[
        "data plane: PCB slots allocated".into(),
        r.proc_slab_capacity.to_string(),
    ]);
    t.row(&[
        "data plane: stream slab high-water".into(),
        r.stream_slab_high_water.to_string(),
    ]);
    t.row(&[
        "data plane: stale handle lookups".into(),
        r.stale_handle_lookups.to_string(),
    ]);
    t.row(&[
        "rpc: typed ops seen".into(),
        r.rpc.rows().count().to_string(),
    ]);
    t.row(&["rpc: messages".into(), r.rpc.total_messages().to_string()]);
    t.row(&["rpc: bytes".into(), r.rpc.total_bytes().to_string()]);
    t.row(&["hostsel: selections".into(), r.hostsel_requests.to_string()]);
    t.row(&[
        "hostsel: mean select latency".into(),
        format!("{:.3}ms", r.hostsel_select_mean_ms),
    ]);
    t.row(&["hostsel: wire bytes".into(), r.hostsel_bytes.to_string()]);
    t.row(&["fs: server shards (batch)".into(), r.fs_shards.to_string()]);
    t.row(&[
        "fs: replica hits (batch)".into(),
        r.fs_replica_hits.to_string(),
    ]);
    t.row(&[
        "fs: worst server busy (batch)".into(),
        secs(r.fs_server_busy_max),
    ]);
    t.note("slab slots are reused through free lists: the table footprint is the");
    t.note("high-water mark, not the process count; stale lookups must stay 0;");
    t.note("rpc totals equal the raw NetStats counters (every byte is typed)");
    t.render()
}

/// M1 as a runner experiment: one unit running both workloads. The merge
/// also records the process-wide interned-path and hash-probe counts.
pub fn experiment() -> Experiment {
    Experiment::new(
        "m01",
        "cluster-scale data-plane macrobench",
        [(10_000, run)],
        |mut reports: Vec<MacroReport>| report(&reports.pop().expect("the unit ran")),
    )
}

fn report(r: &MacroReport) -> Report {
    let json = JsonObject::new()
        .text("id", "m01")
        .text(
            "description",
            "cluster-scale data-plane macrobench (month + 100 simulations)",
        )
        .num("hosts", r.hosts)
        .num("proc_slab_high_water", r.proc_slab_high_water)
        .num("stream_slab_high_water", r.stream_slab_high_water)
        .num("stale_handle_lookups", r.stale_handle_lookups)
        .num("interned_paths", SpritePath::interned_count())
        .num("hash_probes", hash_probes_total())
        .num("rpc_total_messages", r.rpc.total_messages())
        .num("rpc_total_bytes", r.rpc.total_bytes())
        .num("net_messages", r.net_messages)
        .num("net_bytes", r.net_bytes)
        .num("hostsel_requests", r.hostsel_requests)
        .num(
            "hostsel_select_mean_ms",
            format!("{:.3}", r.hostsel_select_mean_ms),
        )
        .num("hostsel_bytes", r.hostsel_bytes)
        .num("fs_shards", r.fs_shards)
        .num("fs_replica_hits", r.fs_replica_hits)
        .num(
            "fs_server_busy_max_seconds",
            format!("{:.3}", r.fs_server_busy_max.as_secs_f64()),
        )
        .rows(
            "rpc_table",
            r.rpc.rows().map(|(op, row)| {
                JsonObject::new()
                    .text("op", op.label())
                    .num("calls", row.calls)
                    .num("messages", row.messages)
                    .num("bytes", row.bytes)
                    .num("mean_rtt_ms", format!("{:.3}", row.rtt.mean() * 1e3))
            }),
        );
    Report {
        json: Some(("macrobench", json)),
        stderr: vec![format!(
            "[counters] m01 slabs: pcb high-water {}, stream high-water {}, stale lookups {}",
            r.proc_slab_high_water, r.stream_slab_high_water, r.stale_handle_lookups
        )],
        ..Report::table(render(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_macro_run_is_clean() {
        // A scaled-down pass through the same code path: slabs populated,
        // no stale dereferences, simulations all complete.
        let graph = simulation_graph(8, SimDuration::from_secs(40), 7);
        let (mut cluster, t0) = sharded_cluster(10, MACRO_FS_SHARDS);
        let mut migrator = standard_migrator(10);
        let mut selector = warmed_sharded_selector(&mut cluster, 10, 2, MACRO_FS_SHARDS as u32 + 1);
        let home = h(MACRO_FS_SHARDS as u32);
        let t = prepare_sources(&mut cluster, &graph, home, t0).expect("prepare");
        let build = run_build(
            &mut cluster,
            &mut migrator,
            &mut selector,
            home,
            &graph,
            &PmakeConfig::default(),
            t,
        )
        .expect("build");
        assert_eq!(build.targets_built, graph.len());
        assert_eq!(cluster.fs.fs_shards(), MACRO_FS_SHARDS);
        let procs = cluster.proc_slab_stats();
        assert!(procs.high_water > 0, "slab saw live processes");
        assert_eq!(procs.stale_lookups, 0, "no stale PCB handles");
        assert_eq!(cluster.fs.streams().stale_lookups(), 0);
    }
}
