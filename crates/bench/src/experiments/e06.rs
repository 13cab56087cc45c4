//! E6 — Effective processor utilization: pmake vs. independent simulations.
//!
//! The thesis contrasts a 12-way parallel compilation (~300% effective
//! utilization) with a batch of 100 independent simulations (>800%): the
//! compilation is bounded by its sequential link and the file server, while
//! coarse-grained independent jobs keep every borrowed host busy
//! (Ch. 7.4). Both workloads run through the same pmake engine here — the
//! simulation batch is simply a dependency graph with no barrier.

use sprite_pmake::{prepare_sources, run_build, Action, DepGraph, PmakeConfig};
use sprite_sim::{DetRng, SimDuration};
use sprite_workloads::{simulation_batch, CompileWorkload};

use crate::support::{h, secs, standard_cluster, standard_migrator, warmed_selector, TableWriter};

/// One workload's measurement.
#[derive(Debug, Clone)]
pub(crate) struct UtilizationRow {
    /// Workload label.
    pub workload: &'static str,
    /// Jobs in the workload.
    pub jobs: usize,
    /// Makespan.
    pub makespan: SimDuration,
    /// Total CPU demand.
    pub total_cpu: SimDuration,
    /// Effective utilization (total CPU / makespan), as a percentage.
    pub effective_utilization_pct: f64,
}

fn graph_for_simulations(count: usize, mean_cpu: SimDuration, seed: u64) -> DepGraph {
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

fn run_graph(graph: &DepGraph, hosts: usize, label: &'static str) -> UtilizationRow {
    let (mut cluster, t0) = standard_cluster(hosts);
    let mut migrator = standard_migrator(hosts);
    let mut selector = warmed_selector(&mut cluster, hosts, 2);
    let t = prepare_sources(&mut cluster, graph, h(1), t0).expect("prepare");
    let report = run_build(
        &mut cluster,
        &mut migrator,
        &mut selector,
        h(1),
        graph,
        &PmakeConfig::default(),
        t,
    )
    .expect("build");
    UtilizationRow {
        workload: label,
        jobs: graph.len(),
        makespan: report.makespan,
        total_cpu: report.total_cpu,
        effective_utilization_pct: report.effective_parallelism * 100.0,
    }
}

/// Runs both workloads on a cluster with `idle_hosts` borrowed machines.
pub fn run(idle_hosts: usize, seed: u64) -> Vec<UtilizationRow> {
    let hosts = idle_hosts + 2; // server + home
                                // Short compiles relative to their I/O and launch overheads — the
                                // regime in which the thesis measured ~300% for a 12-way build.
    let pmake_graph = DepGraph::from_workload(
        &CompileWorkload {
            files: 24,
            mean_cpu: SimDuration::from_secs(5),
            link_cpu: SimDuration::from_secs(8),
            ..CompileWorkload::default()
        },
        &mut DetRng::seed_from(seed),
    );
    let sim_graph = graph_for_simulations(100, SimDuration::from_secs(300), seed);
    vec![
        run_graph(&pmake_graph, hosts, "24-way pmake"),
        run_graph(&sim_graph, hosts, "100 simulations"),
    ]
}

/// Renders the table.
pub fn table() -> String {
    let rows = run(12, 11);
    let mut t = TableWriter::new(
        "E6: effective processor utilization (12 idle hosts)",
        &["workload", "jobs", "makespan(s)", "cpu(s)", "utilization"],
    );
    for r in &rows {
        t.row(&[
            r.workload.to_string(),
            r.jobs.to_string(),
            secs(r.makespan),
            secs(r.total_cpu),
            format!("{:.0}%", r.effective_utilization_pct),
        ]);
    }
    t.note("paper: ~300% for a 12-way pmake vs >800% for 100 independent simulations —");
    t.note("coarse independent jobs exploit borrowed hosts far better than compilations");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulations_beat_pmake_by_a_wide_margin() {
        let rows = run(8, 3);
        let pmake = &rows[0];
        let sims = &rows[1];
        assert!(
            sims.effective_utilization_pct > 1.5 * pmake.effective_utilization_pct,
            "sims {:.0}% vs pmake {:.0}%",
            sims.effective_utilization_pct,
            pmake.effective_utilization_pct
        );
        // Simulations approach the number of borrowed hosts.
        assert!(sims.effective_utilization_pct > 600.0);
        // pmake sits in the few-hundred-percent band, nowhere near the
        // host count.
        assert!(pmake.effective_utilization_pct > 150.0);
        assert!(pmake.effective_utilization_pct < 600.0);
    }
}
