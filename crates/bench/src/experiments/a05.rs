//! A5 — Ablation: checkpoint/restart vs. true migration.
//!
//! The related-work baseline (Smith/Ioannidis \[SI89\], Alonso/Kyrimis
//! \[AK88\], Condor's batch model \[LLM88\]): dump the image to a file, start a
//! fresh process elsewhere, read it back. Measured with
//! [`checkpoint_move`], the same checkpoint mechanism F2 and the benchmark
//! measure. It costs at least twice the image in server traffic and — the
//! thesis's real objection — breaks transparency: new PID, severed family,
//! dropped descriptors.

use sprite_core::checkpoint_move;
use sprite_fs::{OpenMode, SpritePath};
use sprite_kernel::{Cluster, ProcessId};
use sprite_sim::SimDuration;
use sprite_vm::{CkptStrategy, SegmentKind, VirtAddr};

use crate::support::{h, pages_for_mb, secs, standard_cluster, standard_migrator, TableWriter};

/// One size point, both mechanisms.
#[derive(Debug, Clone)]
pub(crate) struct AlternativeRow {
    /// Image megabytes (dirty heap).
    pub image_mb: f64,
    /// True migration time.
    pub migration: SimDuration,
    /// Checkpoint/restart time.
    pub checkpoint: SimDuration,
    /// Checkpoint / migration cost ratio.
    pub ratio: f64,
    /// Descriptors the checkpointed process lost.
    pub descriptors_lost: usize,
    /// Whether the replacement kept the original PID.
    pub pid_preserved: bool,
}

/// Runs the comparison across image sizes.
pub fn run(sizes_mb: &[f64]) -> Vec<AlternativeRow> {
    let mut rows = Vec::new();
    for &mb in sizes_mb {
        let (mut cluster, t) = standard_cluster(5);
        let mut migrator = standard_migrator(5);
        let pages = pages_for_mb(mb);
        let dirty = vec![0x5cu8; (mb * 1024.0 * 1024.0) as usize];
        let make = |cluster: &mut Cluster, t, tag: usize| {
            let (pid, t) = cluster
                .spawn(t, h(1), &SpritePath::new("/bin/sim"), pages, 8)
                .expect("spawn");
            let path = SpritePath::new(format!("/a05/{mb}.{tag}"));
            cluster
                .fs
                .create(&mut cluster.net, t, h(1), path.clone())
                .expect("create");
            let (_, t) = cluster
                .open_fd(t, pid, path, OpenMode::ReadWrite)
                .expect("open");
            let mut sp = cluster.pcb_mut(pid).unwrap().space.take().unwrap();
            let t = sp
                .write(
                    &mut cluster.fs,
                    &mut cluster.net,
                    t,
                    h(1),
                    VirtAddr::new(SegmentKind::Heap, 0),
                    &dirty,
                )
                .expect("dirty");
            cluster.pcb_mut(pid).unwrap().space = Some(sp);
            (pid, t)
        };
        let (a, t) = make(&mut cluster, t, 0);
        let (b, t) = make(&mut cluster, t, 1);
        let real = migrator.migrate(&mut cluster, t, a, h(2)).expect("migrate");
        let fds = |cluster: &Cluster, pid: ProcessId| cluster.pcb(pid).unwrap().open_fds().count();
        let fds_before = fds(&cluster, b);
        let ckpt = checkpoint_move(
            &mut cluster,
            real.resumed_at,
            b,
            h(3),
            CkptStrategy::FullImage,
        )
        .expect("ckpt");
        rows.push(AlternativeRow {
            image_mb: mb,
            migration: real.total_time,
            checkpoint: ckpt.total_time,
            ratio: ckpt.total_time.as_secs_f64() / real.total_time.as_secs_f64(),
            descriptors_lost: fds_before - fds(&cluster, ckpt.new_pid),
            pid_preserved: ckpt.new_pid == b,
        });
    }
    rows
}

/// Renders the table.
pub fn table() -> String {
    let rows = run(&[0.25, 1.0, 4.0]);
    let mut t = TableWriter::new(
        "A5 (ablation): checkpoint/restart vs transparent migration",
        &[
            "imageMB",
            "migration(s)",
            "checkpoint(s)",
            "ratio",
            "fds lost",
            "pid kept",
        ],
    );
    for r in &rows {
        t.row(&[
            format!("{:.2}", r.image_mb),
            secs(r.migration),
            secs(r.checkpoint),
            format!("{:.1}x", r.ratio),
            r.descriptors_lost.to_string(),
            if r.pid_preserved { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.note("checkpoint/restart ships the image through the server twice and boots a");
    t.note("fresh process — and 'migration' this way loses the PID, the parent and");
    t.note("every open descriptor (the thesis's 'restricted' migration, Ch. 2.2);");
    t.note("the image is block-aligned (index blocks, then one block per page), and");
    t.note("the dump, the restore and the migration's flush each move runs of up to");
    t.note("4 blocks, one RPC a run: 2.2x at every size");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpointing_costs_more_and_breaks_transparency() {
        let rows = run(&[1.0]);
        let r = &rows[0];
        assert!(r.ratio > 1.3, "ratio {:.2}", r.ratio);
        assert_eq!(r.descriptors_lost, 1);
        assert!(!r.pid_preserved);
    }

    #[test]
    fn gap_grows_with_image_size() {
        let rows = run(&[0.25, 4.0]);
        let small_gap = rows[0].checkpoint.saturating_sub(rows[0].migration);
        let big_gap = rows[1].checkpoint.saturating_sub(rows[1].migration);
        assert!(big_gap > small_gap);
    }
}
