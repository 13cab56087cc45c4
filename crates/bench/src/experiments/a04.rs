//! A4 — Ablation: a second file server.
//!
//! Welch's thesis asks how Sprite scales when servers handle many more
//! clients \[Wel90\], and the migration thesis names the file server as the
//! resource migration stresses first. Splitting the swap/paging domain
//! onto its own server can offload only paging: a swap file exists once
//! its segment pages out, and a parallel build, whose compiles migrate at
//! exec, never pages out, so the split leaves the root's load unchanged.

use sprite_fs::SpritePath;
use sprite_net::HostId;
use sprite_pmake::{prepare_sources, run_build, DepGraph, PmakeConfig};
use sprite_sim::{DetRng, SimDuration};
use sprite_workloads::CompileWorkload;

use crate::support::{
    h, secs, server_busy, standard_cluster, standard_migrator, warmed_selector, TableWriter,
};

/// One topology's measurement.
#[derive(Debug, Clone)]
pub struct ServerSplitRow {
    /// Topology label.
    pub topology: &'static str,
    /// Build makespan.
    pub makespan: SimDuration,
    /// Root server CPU utilization during the build.
    pub root_util: f64,
    /// Swap server utilization (zero when there is no second server).
    pub swap_util: f64,
}

fn one(split_swap: bool, hosts: usize, seed: u64) -> ServerSplitRow {
    let (mut cluster, t0) = standard_cluster(hosts);
    let swap_server = HostId::new(hosts as u32 - 1);
    if split_swap {
        cluster.add_file_server(swap_server, SpritePath::new("/swap"));
    }
    let mut migrator = standard_migrator(hosts);
    // Reserve the servers and home from selection; the last host is kept
    // out of the worker pool in BOTH topologies so the comparison holds
    // the compile-host count constant.
    let mut selector = warmed_selector(&mut cluster, hosts - 1, 2);
    let graph = DepGraph::from_workload(
        &CompileWorkload {
            files: 24,
            mean_cpu: SimDuration::from_secs(10),
            link_cpu: SimDuration::from_secs(6),
            ..CompileWorkload::default()
        },
        &mut DetRng::seed_from(seed),
    );
    let t = prepare_sources(&mut cluster, &graph, h(1), t0).expect("prepare");
    let root_before = server_busy(&cluster, h(0));
    let swap_before = server_busy(&cluster, swap_server);
    let report = run_build(
        &mut cluster,
        &mut migrator,
        &mut selector,
        h(1),
        &graph,
        &PmakeConfig::default(),
        t,
    )
    .expect("build");
    let util = |busy: SimDuration| busy.as_secs_f64() / report.makespan.as_secs_f64();
    let root_util = util(server_busy(&cluster, h(0)) - root_before);
    let swap_util = util(server_busy(&cluster, swap_server) - swap_before);
    ServerSplitRow {
        topology: if split_swap {
            "root + swap server"
        } else {
            "single server"
        },
        makespan: report.makespan,
        root_util,
        swap_util,
    }
}

/// Runs both topologies.
pub fn run(hosts: usize, seed: u64) -> Vec<ServerSplitRow> {
    vec![one(false, hosts, seed), one(true, hosts, seed)]
}

/// Renders the table.
pub fn table() -> String {
    let rows = run(14, 71);
    let mut t = TableWriter::new(
        "A4 (ablation): splitting /swap onto a second file server (24-file pmake)",
        &["topology", "makespan(s)", "root-util", "swap-util"],
    );
    for r in &rows {
        t.row(&[
            r.topology.to_string(),
            secs(r.makespan),
            format!("{:.1}%", r.root_util * 100.0),
            format!("{:.1}%", r.swap_util * 100.0),
        ]);
    }
    t.note("a pmake build never pages out: each compile migrates at exec and a swap file");
    t.note("exists only once its segment pages out, so /swap idles and the split sheds nothing");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_server_offloads_the_root() {
        let rows = run(12, 5);
        let single = &rows[0];
        let split = &rows[1];
        assert!(
            split.root_util < single.root_util,
            "root util should drop: {} vs {}",
            split.root_util,
            single.root_util
        );
        assert!(split.swap_util > 0.0);
        assert!(split.makespan <= single.makespan + SimDuration::from_secs(1));
    }
}
