//! E5 — pmake speedup vs. number of hosts, with a file-server axis.
//!
//! The headline load-sharing result: recompiling a program with pmake
//! spread across idle hosts. Speedup climbs with hosts, then bends over —
//! partly Amdahl's law (the sequential link step) \[Amd67\], partly file
//! server saturation on name lookups, exactly as Nelson predicted \[Nel88\].
//! The thesis reports ~300% effective utilization for a 12-way parallel
//! compilation.
//!
//! The sharded file service adds a second axis: with the root domain
//! striped across N server daemons the per-daemon lookup/block load drops,
//! and the host count at which the curve bends over (the saturation
//! crossover) moves right.

use sprite_pmake::{prepare_sources, run_build, DepGraph, PmakeConfig};
use sprite_sim::{DetRng, SimDuration};
use sprite_workloads::CompileWorkload;

use crate::support::{h, secs, sharded_cluster, standard_migrator, warmed_selector, TableWriter};

/// One cluster-size measurement.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// File-server daemons striping the root domain.
    pub fs_shards: usize,
    /// Hosts in the cluster (including servers and home).
    pub hosts: usize,
    /// Build makespan.
    pub makespan: SimDuration,
    /// Speedup over the single-host baseline.
    pub speedup: f64,
    /// total CPU / makespan.
    pub effective_parallelism: f64,
    /// Jobs that ran remotely.
    pub remote_builds: usize,
    /// Worst-loaded server daemon's CPU utilization during the build (its
    /// busy time from the end of `prepare_sources` on, over the makespan).
    pub server_utilization: f64,
    /// Block fetches served by replica peers instead of the home server.
    pub replica_hits: u64,
}

/// The classic workload: long compiles, compute-bound (the shape tests).
fn classic_workload(files: usize) -> CompileWorkload {
    CompileWorkload {
        files,
        mean_cpu: SimDuration::from_secs(10),
        link_cpu: SimDuration::from_secs(6),
        ..CompileWorkload::default()
    }
}

/// The table's sweep workload: many short compiles over small files with a
/// very wide shared-header fan-out. Byte traffic stays light (the shared
/// Ethernet never saturates) while every header open costs the server
/// per-component lookup CPU — so the file server's processor, exactly the
/// resource Nelson identified \[Nel88\], is what saturates first, and the
/// servers axis has something to relieve.
fn sweep_workload(files: usize) -> CompileWorkload {
    CompileWorkload {
        files,
        mean_cpu: SimDuration::from_millis(500),
        mean_src_bytes: 4 * 1024,
        headers_per_file: 32,
        header_pool: 8,
        link_cpu: SimDuration::from_secs(2),
    }
}

fn one_build(
    hosts: usize,
    workload: &CompileWorkload,
    use_migration: bool,
    seed: u64,
    fs_shards: usize,
) -> (SimDuration, f64, usize, u64) {
    let (mut cluster, t0) = sharded_cluster(hosts, fs_shards);
    let mut migrator = standard_migrator(hosts);
    // The server hosts plus the home host are busy; the rest are idle
    // targets (at one shard: host 0 server, host 1 home, as always).
    let home = h(fs_shards as u32);
    let mut selector = warmed_selector(&mut cluster, hosts, fs_shards as u32 + 1);
    let graph = DepGraph::from_workload(workload, &mut DetRng::seed_from(seed));
    let t = prepare_sources(&mut cluster, &graph, home, t0).expect("prepare");
    let busy_before = cluster.fs.server_loads();
    let config = PmakeConfig {
        use_migration,
        ..PmakeConfig::default()
    };
    let report = run_build(
        &mut cluster,
        &mut migrator,
        &mut selector,
        home,
        &graph,
        &config,
        t,
    )
    .expect("build");
    let busy_max = cluster
        .fs
        .server_loads()
        .iter()
        .zip(&busy_before)
        .map(|(after, before)| after.busy - before.busy)
        .max()
        .unwrap_or(SimDuration::ZERO);
    let util = busy_max.as_secs_f64() / report.makespan.as_secs_f64();
    (
        report.makespan,
        util,
        report.remote_builds,
        cluster.fs.stats().replica_hits,
    )
}

/// Runs the sweep over host counts at `fs_shards` file-server daemons.
/// `files` compilations per build. Host counts too small to fit the server
/// group plus a distinct home host are skipped.
pub(crate) fn run_sharded(
    host_counts: &[usize],
    workload: &CompileWorkload,
    seed: u64,
    fs_shards: usize,
) -> Vec<SpeedupRow> {
    // Baseline: everything on the home host of the classic one-server
    // layout, so speedups are comparable across shard counts.
    let (serial, _, _, _) = one_build(3, workload, false, seed, 1);
    // Nominal compute demand, for the effective-parallelism column.
    let total_cpu =
        workload.files as f64 * workload.mean_cpu.as_secs_f64() + workload.link_cpu.as_secs_f64();
    let mut rows = Vec::new();
    for &hosts in host_counts {
        if hosts < fs_shards + 1 {
            continue;
        }
        let (makespan, server_utilization, remote_builds, replica_hits) =
            one_build(hosts, workload, true, seed, fs_shards);
        let speedup = serial.as_secs_f64() / makespan.as_secs_f64();
        rows.push(SpeedupRow {
            fs_shards,
            hosts,
            makespan,
            speedup,
            effective_parallelism: total_cpu / makespan.as_secs_f64(),
            remote_builds,
            server_utilization,
            replica_hits,
        });
    }
    rows
}

/// The classic compute-bound single-server sweep (the shape tests).
pub fn run(host_counts: &[usize], files: usize, seed: u64) -> Vec<SpeedupRow> {
    run_sharded(host_counts, &classic_workload(files), seed, 1)
}

/// The host count at which a sweep's speedup curve bends over: the first
/// point whose marginal speedup per added host falls below `threshold`
/// (the curve's last host count if it never does). A curve that keeps
/// climbing crosses over later — the sharding win in one number.
pub fn crossover(rows: &[SpeedupRow], threshold: f64) -> usize {
    for w in rows.windows(2) {
        let added = (w[1].hosts - w[0].hosts) as f64;
        if (w[1].speedup - w[0].speedup) / added < threshold {
            return w[0].hosts;
        }
    }
    rows.last().map(|r| r.hosts).unwrap_or(0)
}

/// Marginal-speedup threshold defining the saturation crossover.
pub(crate) const CROSSOVER_THRESHOLD: f64 = 0.15;

/// Host counts and workload size the printed table sweeps.
pub(crate) const TABLE_HOSTS: [usize; 8] = [2, 3, 4, 6, 8, 10, 12, 16];
/// Shard counts the printed table sweeps.
pub(crate) const TABLE_SHARDS: [usize; 3] = [1, 2, 4];
/// Compilations per build in the printed table.
pub(crate) const TABLE_FILES: usize = 96;
/// Workload seed for the printed table.
pub(crate) const TABLE_SEED: u64 = 5;

/// Runs the full printed sweep: every shard count in [`TABLE_SHARDS`] over
/// [`TABLE_HOSTS`], on the FS-heavy sweep workload.
pub(crate) fn run_table_sweep() -> Vec<Vec<SpeedupRow>> {
    let workload = sweep_workload(TABLE_FILES);
    TABLE_SHARDS
        .iter()
        .map(|&s| run_sharded(&TABLE_HOSTS, &workload, TABLE_SEED, s))
        .collect()
}

/// Renders the table (the figure's data series, with the servers axis).
pub fn table() -> String {
    let sweeps = run_table_sweep();
    let mut t = TableWriter::new(
        "E5: pmake speedup vs hosts and FS shards (96 short compiles, 32 header opens each)",
        &[
            "shards",
            "hosts",
            "makespan(s)",
            "speedup",
            "eff-par",
            "remote",
            "worst-srv-util",
            "replica-hits",
        ],
    );
    for rows in &sweeps {
        for r in rows {
            t.row(&[
                r.fs_shards.to_string(),
                r.hosts.to_string(),
                secs(r.makespan),
                format!("{:.2}", r.speedup),
                format!("{:.2}", r.effective_parallelism),
                r.remote_builds.to_string(),
                format!("{:.0}%", r.server_utilization * 100.0),
                r.replica_hits.to_string(),
            ]);
        }
    }
    for rows in &sweeps {
        if let Some(first) = rows.first() {
            t.note(format!(
                "saturation crossover at {} shard(s): {} hosts (marginal speedup < {:.2}/host)",
                first.fs_shards,
                crossover(rows, CROSSOVER_THRESHOLD),
                CROSSOVER_THRESHOLD,
            ));
        }
    }
    t.note("paper shape: speedup rises with hosts then saturates (sequential link +");
    t.note("file-server contention); striping the domain moves the bend to the right");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_rises_then_saturates() {
        let rows = run(&[2, 6, 12], 16, 7);
        assert!(rows[1].speedup > rows[0].speedup, "6 hosts beat 2");
        // Marginal gain per added host shrinks.
        let marginal1 = (rows[1].speedup - rows[0].speedup) / 4.0;
        let marginal2 = (rows[2].speedup - rows[1].speedup) / 6.0;
        assert!(
            marginal2 < marginal1,
            "saturation expected: marginals {marginal1:.3} then {marginal2:.3}"
        );
        // Effective parallelism in the ~3x band the thesis reports for
        // 12-way builds (wide tolerance: this is a shape check).
        assert!(
            rows[2].effective_parallelism > 2.0 && rows[2].effective_parallelism < 9.0,
            "eff par {}",
            rows[2].effective_parallelism
        );
    }

    #[test]
    fn server_works_harder_with_more_hosts() {
        let rows = run(&[2, 12], 16, 9);
        assert!(rows[1].server_utilization > rows[0].server_utilization);
    }

    #[test]
    fn sharding_reduces_worst_server_load() {
        let w = sweep_workload(16);
        let flat = run_sharded(&[12], &w, 11, 1);
        let split = run_sharded(&[12], &w, 11, 2);
        // The worst daemon's busy time: its utilization over the makespan.
        let busy_max = |r: &SpeedupRow| r.server_utilization * r.makespan.as_secs_f64();
        assert!(
            busy_max(&split[0]) < busy_max(&flat[0]),
            "2 shards should lighten the worst daemon: {:.3} s vs {:.3} s",
            busy_max(&split[0]),
            busy_max(&flat[0]),
        );
    }

    #[test]
    fn crossover_finds_the_bend() {
        let mk = |hosts, speedup| SpeedupRow {
            fs_shards: 1,
            hosts,
            makespan: SimDuration::from_secs(1),
            speedup,
            effective_parallelism: 0.0,
            remote_builds: 0,
            server_utilization: 0.0,
            replica_hits: 0,
        };
        let rows = vec![mk(2, 1.0), mk(4, 2.0), mk(8, 2.2), mk(16, 2.3)];
        assert_eq!(crossover(&rows, 0.15), 4);
        let rising = vec![mk(2, 1.0), mk(4, 2.0), mk(8, 4.0)];
        assert_eq!(crossover(&rising, 0.15), 8, "never bends: last point");
    }

    #[test]
    fn small_host_counts_are_skipped_for_wide_groups() {
        let rows = run_sharded(&[2, 3, 6], &sweep_workload(8), 13, 4);
        assert_eq!(rows.len(), 1, "only 6 hosts fits a 4-server group");
        assert_eq!(rows[0].hosts, 6);
    }
}
