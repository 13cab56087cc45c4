//! E1 — Migration cost breakdown (the paper's cost-components table).
//!
//! Migrates a trivial process and reports where the time goes: negotiation,
//! virtual memory, open streams, process state, and commit/resume. Rows
//! vary the number of open files and the dirty heap size, and the last row
//! shows the exec-time path for contrast. The published result this
//! reproduces: a trivial migration costs tens to a few hundred
//! milliseconds, dominated by per-file and per-dirty-page costs, with
//! exec-time migration the cheapest way to move work.

use sprite_fs::{OpenMode, SpritePath};
use sprite_kernel::ProcessId;
use sprite_sim::SimTime;

use crate::support::{
    dirty_heap, h, ms, pages_for_mb, standard_cluster, standard_migrator, TableWriter,
};

/// One configuration's measurement.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// Open files during the migration.
    pub open_files: usize,
    /// Dirty heap in megabytes.
    pub dirty_mb: f64,
    /// The migration report.
    pub report: sprite_core::MigrationReport,
}

fn spawn_with_files(
    cluster: &mut sprite_kernel::Cluster,
    t: SimTime,
    files: usize,
    dirty_mb: f64,
    tag: usize,
) -> (ProcessId, SimTime) {
    let (pid, mut t) = cluster
        .spawn(
            t,
            h(1),
            &SpritePath::new("/bin/sim"),
            pages_for_mb(dirty_mb),
            8,
        )
        .expect("spawn");
    for i in 0..files {
        let path = SpritePath::new(format!("/data/e01.{tag}.{i}"));
        cluster
            .fs
            .create(&mut cluster.net, t, h(1), path.clone())
            .expect("create");
        let (fd, t2) = cluster
            .open_fd(t, pid, path, OpenMode::ReadWrite)
            .expect("open");
        let t3 = cluster
            .write_fd(t2, pid, fd, &[0xe1u8; 2048])
            .expect("write");
        t = t3;
    }
    let t = dirty_heap(cluster, t, pid, dirty_mb);
    (pid, t)
}

/// Runs the experiment and returns the measured rows.
pub fn run() -> Vec<BreakdownRow> {
    let mut rows = Vec::new();
    for (tag, (files, dirty_mb)) in [
        (0usize, 0.0f64),
        (2, 0.0),
        (8, 0.0),
        (0, 0.25),
        (0, 1.0),
        (4, 1.0),
    ]
    .into_iter()
    .enumerate()
    {
        let (mut cluster, t) = standard_cluster(4);
        let mut migrator = standard_migrator(4);
        let (pid, t) = spawn_with_files(&mut cluster, t, files, dirty_mb, tag);
        let report = migrator
            .migrate(&mut cluster, t, pid, h(2))
            .expect("migrate");
        rows.push(BreakdownRow {
            open_files: files,
            dirty_mb,
            report,
        });
    }
    rows
}

/// Exec-time migration of an equivalent trivial process, for the last row.
pub(crate) fn run_exec_row() -> sprite_core::MigrationReport {
    let (mut cluster, t) = standard_cluster(4);
    let mut migrator = standard_migrator(4);
    let (pid, t) = spawn_with_files(&mut cluster, t, 2, 1.0, 99);
    migrator
        .exec_migrate(
            &mut cluster,
            t,
            pid,
            h(2),
            &SpritePath::new("/bin/sim"),
            64,
            8,
        )
        .expect("exec migrate")
}

/// Renders the table.
pub fn table() -> String {
    let rows = run();
    let exec = run_exec_row();
    let mut t = TableWriter::new(
        "E1: migration cost breakdown (ms)",
        &[
            "files",
            "dirtyMB",
            "negotiate",
            "vm",
            "streams",
            "state",
            "commit",
            "total",
            "freeze",
        ],
    );
    for r in &rows {
        let p = &r.report.phases;
        t.row(&[
            r.open_files.to_string(),
            format!("{:.2}", r.dirty_mb),
            ms(p.negotiate),
            ms(p.virtual_memory),
            ms(p.streams),
            ms(p.process_state),
            ms(p.commit),
            ms(r.report.total_time),
            ms(r.report.freeze_time),
        ]);
    }
    let p = &exec.phases;
    t.row(&[
        "2*".into(),
        "1.00*".into(),
        ms(p.negotiate),
        ms(p.virtual_memory),
        ms(p.streams),
        ms(p.process_state),
        ms(p.commit),
        ms(exec.total_time),
        ms(exec.freeze_time),
    ]);
    t.note("last row (*): exec-time migration — the old image is discarded, vm = 0");
    t.note("paper shape: base cost tens of ms; grows linearly with files and dirty pages");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_shapes_match_the_paper() {
        let rows = run();
        // A trivial migration is fast (well under a second on Sun-3s).
        let trivial = &rows[0].report;
        assert!(trivial.total_time.as_millis_f64() < 300.0);
        // More open files => more stream-transfer time.
        assert!(rows[2].report.phases.streams > rows[0].report.phases.streams);
        // More dirty memory => more VM time.
        assert!(rows[4].report.phases.virtual_memory > rows[3].report.phases.virtual_memory);
        assert!(rows[3].report.phases.virtual_memory > rows[0].report.phases.virtual_memory);
        // Exec-time migration moves no VM and beats the 1MB active row.
        let exec = run_exec_row();
        assert!(exec.vm.is_none());
        assert!(exec.total_time < rows[4].report.total_time);
    }

    #[test]
    fn table_renders() {
        let s = table();
        assert!(s.contains("E1"));
        assert!(s.lines().count() > 8);
    }
}
