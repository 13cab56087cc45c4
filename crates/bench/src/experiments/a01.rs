//! A1 — Ablation: client name caching.
//!
//! Nelson estimated that caching name-to-file translations at clients
//! "would reduce file server utilization by as much as a factor of two"
//! \[Nel88\], and the thesis concludes that "name caching is imperative if
//! the full benefits of migration are to be exploited" (Ch. 7). Sprite did
//! not have it; this ablation adds it and reruns the parallel-compilation
//! experiment to see how far the speedup ceiling moves.

use sprite_fs::FsConfig;
use sprite_net::CostModel;
use sprite_pmake::{prepare_sources, run_build, DepGraph, PmakeConfig};
use sprite_sim::{DetRng, SimDuration};
use sprite_workloads::CompileWorkload;

use crate::support::{
    cluster_with, h, secs, server_busy, standard_migrator, warmed_selector, TableWriter,
};

/// One configuration's build measurement.
#[derive(Debug, Clone)]
pub struct NameCacheRow {
    /// Whether client name caching was on.
    pub name_caching: bool,
    /// Hosts in the cluster.
    pub hosts: usize,
    /// Build makespan.
    pub makespan: SimDuration,
    /// Server lookups actually performed.
    pub lookups: u64,
    /// Opens served from client name caches.
    pub cache_hits: u64,
    /// File-server CPU utilization during the build.
    pub server_utilization: f64,
}

fn one(hosts: usize, name_caching: bool, seed: u64) -> NameCacheRow {
    let (mut cluster, t0) = cluster_with(
        CostModel::sun3(),
        hosts,
        FsConfig {
            client_name_caching: name_caching,
            ..FsConfig::default()
        },
    );
    let mut migrator = standard_migrator(hosts);
    let mut selector = warmed_selector(&mut cluster, hosts, 2);
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
    cluster.fs.reset_stats();
    let busy_before = server_busy(&cluster, h(0));
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
    let stats = cluster.fs.stats();
    let build_busy = server_busy(&cluster, h(0)) - busy_before;
    NameCacheRow {
        name_caching,
        hosts,
        makespan: report.makespan,
        lookups: stats.lookups,
        cache_hits: stats.name_cache_hits,
        server_utilization: build_busy.as_secs_f64() / report.makespan.as_secs_f64(),
    }
}

/// Runs the ablation over cluster sizes.
pub fn run(host_counts: &[usize], seed: u64) -> Vec<NameCacheRow> {
    let mut rows = Vec::new();
    for &hosts in host_counts {
        rows.push(one(hosts, false, seed));
        rows.push(one(hosts, true, seed));
    }
    rows
}

/// Renders the table.
pub fn table() -> String {
    let rows = run(&[6, 12, 16], 61);
    let mut t = TableWriter::new(
        "A1 (ablation): client name caching during a 24-file pmake",
        &[
            "hosts",
            "name-cache",
            "makespan(s)",
            "lookups",
            "hits",
            "srv-util",
        ],
    );
    for r in &rows {
        t.row(&[
            r.hosts.to_string(),
            if r.name_caching { "on" } else { "off" }.to_string(),
            secs(r.makespan),
            r.lookups.to_string(),
            r.cache_hits.to_string(),
            format!("{:.1}%", r.server_utilization * 100.0),
        ]);
    }
    t.note("Nelson's prediction [Nel88]: name caching roughly halves server lookups;");
    t.note("Sprite shipped without it and the thesis calls it imperative at scale");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_caching_cuts_lookups_and_helps_the_build() {
        let rows = run(&[10], 3);
        let off = &rows[0];
        let on = &rows[1];
        assert!(on.cache_hits > 30, "hits {}", on.cache_hits);
        // Creates (object files) still pay full lookups, so the drop is on
        // the open path only; a build's processes never page out, so they
        // create no swap files.
        assert!(
            (on.lookups as f64) < 0.85 * off.lookups as f64,
            "lookups {} vs {}",
            on.lookups,
            off.lookups
        );
        assert!(on.server_utilization < off.server_utilization);
        assert!(on.makespan <= off.makespan);
    }
}
