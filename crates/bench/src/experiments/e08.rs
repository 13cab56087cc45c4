//! E8 — Eviction: reclaiming a workstation for its returning owner.
//!
//! When a user comes back, every foreign process must leave (Ch. 8.3) —
//! Sprite's autonomy guarantee. We park N foreign processes with varying
//! dirty images on a host, have the owner return, and measure how long
//! until the machine is foreign-free. Sprite's flush strategy makes this
//! scale with dirty data, not image size.

use sprite_fs::SpritePath;
use sprite_sim::SimDuration;

use crate::support::{
    dirty_heap, h, pages_for_mb, secs, standard_cluster, standard_migrator, TableWriter,
};

/// One eviction scenario's measurement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EvictionRow {
    /// Foreign processes on the workstation.
    pub foreign: usize,
    /// Dirty megabytes per process.
    pub dirty_mb: f64,
    /// Time from the owner's return until the host is foreign-free.
    pub reclaim_time: SimDuration,
    /// Mean per-process eviction time.
    pub per_process: SimDuration,
}

/// Runs the eviction matrix.
pub fn run(foreign_counts: &[usize], dirty_mbs: &[f64]) -> Vec<EvictionRow> {
    let mut rows = Vec::new();
    for &n in foreign_counts {
        for &mb in dirty_mbs {
            let hosts = n + 3;
            let (mut cluster, mut t) = standard_cluster(hosts);
            let mut migrator = standard_migrator(hosts);
            // Home hosts 2..2+n each send one process to host 1.
            let victim = h(1);
            for i in 0..n {
                let home = h(2 + i as u32);
                let (pid, t1) = cluster
                    .spawn(t, home, &SpritePath::new("/bin/sim"), pages_for_mb(mb), 8)
                    .expect("spawn");
                let r = migrator
                    .migrate(&mut cluster, t1, pid, victim)
                    .expect("migrate");
                let t2 = dirty_heap(&mut cluster, r.resumed_at, pid, mb);
                t = t2;
            }
            assert_eq!(cluster.foreign_on(victim).count(), n);
            // The owner returns.
            cluster.host_mut(victim).console_active = true;
            let reports = migrator.evict_all(&mut cluster, t, victim).expect("evict");
            assert!(cluster.foreign_on(victim).next().is_none());
            let reclaim = reports
                .last()
                .map(|r| r.resumed_at.elapsed_since(t))
                .unwrap_or(SimDuration::ZERO);
            let per = if n == 0 {
                SimDuration::ZERO
            } else {
                reclaim / n as u64
            };
            rows.push(EvictionRow {
                foreign: n,
                dirty_mb: mb,
                reclaim_time: reclaim,
                per_process: per,
            });
        }
    }
    rows
}

/// Renders the table.
pub fn table() -> String {
    let rows = run(&[1, 2, 4, 8], &[0.0, 1.0, 4.0]);
    let mut t = TableWriter::new(
        "E8: workstation reclaim time on owner return",
        &["foreign", "dirtyMB/proc", "reclaim(s)", "per-proc(s)"],
    );
    for r in &rows {
        t.row(&[
            r.foreign.to_string(),
            format!("{:.1}", r.dirty_mb),
            secs(r.reclaim_time),
            secs(r.per_process),
        ]);
    }
    t.note("paper shape: reclaim grows with foreign count and dirty data;");
    t.note("clean processes evict in well under a second each with the flush strategy");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reclaim_scales_with_processes_and_dirt() {
        let rows = run(&[1, 4], &[0.0, 2.0]);
        let find = |n: usize, mb: f64| {
            *rows
                .iter()
                .find(|r| r.foreign == n && (r.dirty_mb - mb).abs() < 1e-9)
                .unwrap()
        };
        assert!(find(4, 0.0).reclaim_time > find(1, 0.0).reclaim_time);
        assert!(find(1, 2.0).reclaim_time > find(1, 0.0).reclaim_time);
        // A clean process evicts in under a second.
        assert!(find(1, 0.0).reclaim_time < SimDuration::from_secs(1));
    }

    #[test]
    fn eviction_lands_processes_back_home() {
        // Covered structurally in run() via assertions; exercise one case.
        let rows = run(&[2], &[0.5]);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].reclaim_time > SimDuration::ZERO);
    }
}
