//! E3 — Migration time vs. number of open files.
//!
//! Each open stream must be moved through its I/O server (flush dirty
//! blocks, update open records, possibly grow a shadow stream), so
//! migration cost grows linearly with the open-file count — one of the
//! per-unit costs in the paper's breakdown table. Dirty cached data makes
//! each file more expensive than a clean one.

use sprite_fs::{OpenMode, SpritePath};
use sprite_sim::SimDuration;

use crate::support::{h, ms, standard_cluster, standard_migrator, TableWriter};

/// One measurement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FilesRow {
    /// Open files at migration time.
    pub files: usize,
    /// Whether each file had a dirty cached block.
    pub dirty: bool,
    /// Stream-transfer phase time.
    pub streams_phase: SimDuration,
    /// Whole-migration time.
    pub total: SimDuration,
}

/// Runs the sweep.
pub fn run(counts: &[usize]) -> Vec<FilesRow> {
    let mut rows = Vec::new();
    for &files in counts {
        for dirty in [false, true] {
            let (mut cluster, t) = standard_cluster(4);
            let mut migrator = standard_migrator(4);
            let (pid, mut t) = cluster
                .spawn(t, h(1), &SpritePath::new("/bin/sim"), 8, 4)
                .expect("spawn");
            for i in 0..files {
                let path = SpritePath::new(format!("/data/e03.{i}"));
                cluster
                    .fs
                    .create(&mut cluster.net, t, h(1), path.clone())
                    .expect("create");
                let (fd, t2) = cluster
                    .open_fd(t, pid, path, OpenMode::ReadWrite)
                    .expect("open");
                t = t2;
                if dirty {
                    t = cluster.write_fd(t, pid, fd, &[3u8; 4096]).expect("write");
                }
            }
            let report = migrator
                .migrate(&mut cluster, t, pid, h(2))
                .expect("migrate");
            rows.push(FilesRow {
                files,
                dirty,
                streams_phase: report.phases.streams,
                total: report.total_time,
            });
        }
    }
    rows
}

/// Renders the table.
pub fn table() -> String {
    let rows = run(&[0, 1, 2, 4, 8, 16, 32, 64]);
    let mut t = TableWriter::new(
        "E3: migration cost vs open files",
        &[
            "files",
            "cached-dirty",
            "streams(ms)",
            "total(ms)",
            "ms/file",
        ],
    );
    for r in &rows {
        let per_file = if r.files == 0 {
            "-".to_string()
        } else {
            format!("{:.2}", r.streams_phase.as_millis_f64() / r.files as f64)
        };
        t.row(&[
            r.files.to_string(),
            if r.dirty { "yes" } else { "no" }.to_string(),
            ms(r.streams_phase),
            ms(r.total),
            per_file,
        ]);
    }
    t.note("paper shape: linear in open files (an I/O-server update per stream),");
    t.note("with a higher per-file constant when dirty cached blocks must flush first");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_grows_linearly_with_files() {
        let rows = run(&[4, 16]);
        let clean4 = rows.iter().find(|r| r.files == 4 && !r.dirty).unwrap();
        let clean16 = rows.iter().find(|r| r.files == 16 && !r.dirty).unwrap();
        let ratio = clean16.streams_phase.as_secs_f64() / clean4.streams_phase.as_secs_f64();
        assert!((3.0..5.5).contains(&ratio), "expected ~4x, got {ratio}");
    }

    #[test]
    fn dirty_files_cost_more() {
        let rows = run(&[8]);
        let clean = rows.iter().find(|r| !r.dirty).unwrap();
        let dirty = rows.iter().find(|r| r.dirty).unwrap();
        assert!(dirty.streams_phase > clean.streams_phase);
    }

    #[test]
    fn zero_files_has_zero_stream_phase() {
        let rows = run(&[0]);
        assert!(rows.iter().all(|r| r.streams_phase == SimDuration::ZERO));
    }
}
