//! Choosing between live migration and checkpoint/restart — and doing
//! either with full rollback.
//!
//! PR-4's eviction machinery always moved work by *live migration*. On an
//! unreliable cluster that is not always the right call: a long-running
//! process on a crash-prone host is better served by periodic checkpoints
//! (bounded work loss, restartable anywhere, paid for in steady-state
//! checkpoint I/O) than by a migration that preserves everything but loses
//! *all* accumulated work when a crash beats the eviction to it. This
//! module makes the choice explicit: [`preferred_mechanism`] compares the
//! expected overhead rates of the two mechanisms under a given MTBF using
//! Young's checkpoint-interval approximation, [`checkpoint_move`] performs
//! a planned move via the [`sprite_vm::checkpoint`]/[`sprite_vm::restore`]
//! seam with migration-grade rollback, and [`restart_from_image`] rebuilds
//! a crashed process from its last image.

use sprite_fs::{FsError, SpritePath};
use sprite_kernel::{Cluster, KernelError, ProcessId};
use sprite_net::HostId;
use sprite_sim::{SimDuration, SimTime};
use sprite_vm::{
    checkpoint, restore, CkptError, CkptReport, CkptStrategy, RestoreReport, SegmentKind,
};

use crate::protocol::{MigrationError, MigrationResult};

/// How a process's computation moves (or survives) across hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// Live migration: freeze, transfer, resume — full transparency, but a
    /// crash before the (reactive) migration loses all work since start.
    Migrate,
    /// Periodic checkpoint to the shared FS plus restart-elsewhere: work
    /// loss bounded by the checkpoint interval, at a steady-state I/O cost.
    Checkpoint,
}

impl Mechanism {
    /// Short stable label for tables and digests.
    pub fn label(&self) -> &'static str {
        match self {
            Mechanism::Migrate => "migrate",
            Mechanism::Checkpoint => "checkpoint",
        }
    }
}

impl std::fmt::Display for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Young's approximation of the optimal checkpoint interval: τ = √(2·M·c)
/// for mean time between failures `M` and per-checkpoint cost `c`, floored
/// at `c` itself (checkpointing cannot usefully run back-to-back).
pub fn young_interval(mtbf: SimDuration, ckpt_cost: SimDuration) -> SimDuration {
    let m = mtbf.as_secs_f64();
    let c = ckpt_cost.as_secs_f64();
    let tau = (2.0 * m * c).sqrt();
    SimDuration::from_secs_f64(tau.max(c))
}

/// Which mechanism wastes less time per unit of useful work under failures
/// arriving every `mtbf` on average.
///
/// Checkpointing at Young's interval τ pays `c/τ` of steady-state overhead
/// plus, per failure, half an interval of lost work and one restart:
/// rate ≈ c/τ + (τ/2 + r)/M. Pure live migration pays nothing in steady
/// state but, per failure, the accumulated work at risk plus one migration
/// to get off the doomed host: rate ≈ (L/2 + m)/M (on average a crash
/// lands halfway through the exposure window `L`). The checkpoint rate
/// falls like 1/√M while the migration rate falls like 1/M, so migration
/// always wins for reliable-enough hosts and checkpointing for flaky
/// ones — the crossover the `f02` experiment maps.
pub fn preferred_mechanism(
    mtbf: SimDuration,
    ckpt_cost: SimDuration,
    restart_cost: SimDuration,
    migrate_cost: SimDuration,
    work_at_risk: SimDuration,
) -> Mechanism {
    let m = mtbf.as_secs_f64().max(1e-9);
    let c = ckpt_cost.as_secs_f64();
    let tau = young_interval(mtbf, ckpt_cost).as_secs_f64().max(1e-9);
    let ckpt_rate = c / tau + (tau / 2.0 + restart_cost.as_secs_f64()) / m;
    let mig_rate = (work_at_risk.as_secs_f64() / 2.0 + migrate_cost.as_secs_f64()) / m;
    if ckpt_rate < mig_rate {
        Mechanism::Checkpoint
    } else {
        Mechanism::Migrate
    }
}

/// What a planned checkpoint-move did.
#[derive(Debug, Clone)]
pub struct CkptMoveReport {
    /// The process that was checkpointed (now a zombie at the source).
    pub old_pid: ProcessId,
    /// Its replacement on the target, memory restored from the image.
    pub new_pid: ProcessId,
    /// Source host.
    pub from: HostId,
    /// Target host.
    pub to: HostId,
    /// The checkpoint half (write side).
    pub ckpt: CkptReport,
    /// The restore half (read side).
    pub restore: RestoreReport,
    /// Wall time from initiation to the replacement being runnable.
    pub total_time: SimDuration,
    /// When the replacement could run.
    pub resumed_at: SimTime,
}

fn fs_err_at(e: &FsError, fallback: SimTime) -> SimTime {
    match e {
        FsError::Rpc(rpc) => rpc.at(),
        _ => fallback,
    }
}

fn ckpt_err_into(pid: ProcessId, e: CkptError) -> MigrationError {
    match e {
        CkptError::Fs(fs) => MigrationError::Kernel(KernelError::Fs(fs)),
        CkptError::Corrupt { detail } => MigrationError::NotMigratable(pid, detail),
    }
}

/// The image path [`checkpoint_move`] and the periodic-checkpoint callers
/// use for `pid`; hashing the text routes it to a `ShardGroup` server.
pub fn image_path(pid: ProcessId) -> SpritePath {
    SpritePath::new(format!("/ckpt/image.{pid}"))
}

/// Moves `pid` to `to` by checkpoint/restart through the typed VM seam,
/// with the same all-or-nothing discipline as the migration protocol:
///
/// - a failure while *writing* the image rolls back completely — the
///   process thaws runnable at the source and the partial (trailerless)
///   image can never be restored;
/// - a failure while *restoring* kills the half-restored replacement (it
///   never runs) and keeps the completed image on the FS, so the move can
///   be retried with [`restart_from_image`] once the fault heals. The
///   original is gone by then — exactly the window checkpoint/restart
///   accepts and live migration does not.
///
/// A cross-class move pays the kernel's translation surcharge before the
/// replacement may run, mirroring [`crate::Migrator::migrate`].
///
/// # Errors
///
/// See [`MigrationError`]; FS and transport faults arrive as
/// [`MigrationError::Kernel`], a corrupt image as
/// [`MigrationError::NotMigratable`].
pub fn checkpoint_move(
    cluster: &mut Cluster,
    now: SimTime,
    pid: ProcessId,
    to: HostId,
    strategy: CkptStrategy,
) -> MigrationResult<CkptMoveReport> {
    let (from, program, heap_pages, stack_pages) = {
        let pcb = cluster
            .pcb(pid)
            .ok_or(MigrationError::Kernel(KernelError::NoSuchProcess(pid)))?;
        let space = pcb
            .space
            .as_ref()
            .ok_or(MigrationError::NotMigratable(pid, "no address space"))?;
        (
            pcb.current,
            pcb.program
                .clone()
                .ok_or(MigrationError::NotMigratable(pid, "no program"))?,
            space.segment(SegmentKind::Heap).page_count(),
            space.segment(SegmentKind::Stack).page_count(),
        )
    };
    if from == to {
        return Err(MigrationError::AlreadyThere(pid));
    }

    // Freeze and dump. Any failure here is a clean rollback: the space goes
    // back, the process thaws, and whatever half-written image remains has
    // no trailer, so a later restore refuses it.
    cluster.freeze(pid)?;
    let path = image_path(pid);
    let mut space = cluster
        .pcb_mut(pid)
        .expect("checked above")
        .space
        .take()
        .expect("checked above");
    let dumped = checkpoint(
        &mut space,
        strategy,
        &mut cluster.fs,
        &mut cluster.net,
        now,
        from,
        path.clone(),
    );
    cluster.pcb_mut(pid).expect("checked above").space = Some(space);
    let (image, ckpt_report) = match dumped {
        Ok(ok) => ok,
        Err(e) => {
            cluster.thaw(pid)?;
            return Err(ckpt_err_into(pid, e));
        }
    };
    let t = ckpt_report.completed_at;

    // The image is durable: the original's job is done. From here the
    // computation's only embodiment is the image (plus the replacement
    // being built from it): a new PID and home, no parent and no
    // descriptors, the thesis's "restricted" migration (Ch. 2.2).
    let t = cluster.exit(t, pid, 0)?;
    let (new_pid, restore_report) =
        restart_from_image(cluster, t, to, &program, heap_pages, stack_pages, &path)?;
    let t = restore_report.resumed_at
        + cluster.translation_surcharge(from, to, restore_report.pages_restored);

    // Durable move complete: the image has served its purpose.
    let t = match cluster.fs.unlink(&mut cluster.net, t, to, &path) {
        Ok(t2) => t2,
        Err(_) => t,
    };
    cluster.trace.record(t, "ckpt-move", || {
        format!(
            "{pid} checkpoint-moved {from} -> {to} as {new_pid} ({} bytes)",
            image.image_bytes
        )
    });
    Ok(CkptMoveReport {
        old_pid: pid,
        new_pid,
        from,
        to,
        ckpt: ckpt_report,
        restore: restore_report,
        total_time: t.elapsed_since(now),
        resumed_at: t,
    })
}

/// Rebuilds a process on `to` from a checkpoint image — the recovery path
/// after the original's host crashed (or after [`checkpoint_move`] failed
/// restoring). A fresh process with `program`'s geometry is spawned and the
/// image read back through the shard group; if the restore fails the fresh
/// process is discarded unrun and the image is kept, so recovery can be
/// retried once the fault heals. Returns the new PID and the restore cost.
pub fn restart_from_image(
    cluster: &mut Cluster,
    now: SimTime,
    to: HostId,
    program: &SpritePath,
    heap_pages: u64,
    stack_pages: u64,
    image: &SpritePath,
) -> MigrationResult<(ProcessId, RestoreReport)> {
    let (new_pid, t) = cluster.spawn(now, to, program, heap_pages, stack_pages)?;
    let mut fresh = cluster
        .pcb_mut(new_pid)
        .expect("just spawned")
        .space
        .take()
        .expect("spawned with a space");
    let restored = restore(&mut fresh, &mut cluster.fs, &mut cluster.net, t, to, image);
    cluster.pcb_mut(new_pid).expect("spawned").space = Some(fresh);
    match restored {
        Ok(r) => Ok((new_pid, r)),
        Err(e) => {
            let at = match &e {
                CkptError::Fs(fs) => fs_err_at(fs, t),
                CkptError::Corrupt { .. } => t,
            };
            let _ = cluster.exit(at, new_pid, 1);
            Err(ckpt_err_into(new_pid, e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprite_fs::OpenMode;
    use sprite_kernel::ProcState;
    use sprite_net::{CostModel, PAGE_SIZE};
    use sprite_vm::VirtAddr;

    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    fn setup() -> (Cluster, SimTime) {
        let mut c = Cluster::new(CostModel::sun3(), 5);
        c.add_file_server(h(0), SpritePath::new("/"));
        let t = c
            .install_program(SimTime::ZERO, SpritePath::new("/bin/sim"), 32 * 1024)
            .unwrap();
        (c, t)
    }

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn mechanism_choice_is_monotonic_in_mtbf() {
        // c = 2 s, r = 5 s, m = 1 s, L = 600 s of work at risk.
        let pick =
            |mtbf: u64| preferred_mechanism(secs(mtbf), secs(2), secs(5), secs(1), secs(600));
        assert_eq!(pick(60), Mechanism::Checkpoint, "flaky host");
        assert_eq!(pick(1_000_000), Mechanism::Migrate, "reliable host");
        // Monotonic: once migration wins it keeps winning as MTBF grows.
        let mut migrating = false;
        for mtbf in (60..100_000).step_by(500) {
            match pick(mtbf) {
                Mechanism::Migrate => migrating = true,
                Mechanism::Checkpoint => {
                    assert!(!migrating, "checkpoint regained at mtbf={mtbf}s")
                }
            }
        }
        assert!(migrating, "migration must win eventually");
    }

    #[test]
    fn checkpoint_move_transfers_memory_and_cleans_up() {
        let (mut c, t) = setup();
        let (parent, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        let (pid, t) = c.fork(t, parent).unwrap();
        let mut sp = c.pcb_mut(pid).unwrap().space.take().unwrap();
        let t = sp
            .write(
                &mut c.fs,
                &mut c.net,
                t,
                h(1),
                VirtAddr::new(SegmentKind::Heap, 0),
                b"moved by image",
            )
            .unwrap();
        c.pcb_mut(pid).unwrap().space = Some(sp);
        c.fs.create(&mut c.net, t, h(1), SpritePath::new("/doomed"))
            .unwrap();
        let (_, t) = c
            .open_fd(t, pid, SpritePath::new("/doomed"), OpenMode::ReadWrite)
            .unwrap();

        let report = checkpoint_move(&mut c, t, pid, h(2), CkptStrategy::FullImage).unwrap();
        assert_eq!(report.from, h(1));
        assert_eq!(report.to, h(2));
        let mut sp = c.pcb_mut(report.new_pid).unwrap().space.take().unwrap();
        let (mem, _) = sp
            .read(
                &mut c.fs,
                &mut c.net,
                report.resumed_at,
                h(2),
                VirtAddr::new(SegmentKind::Heap, 0),
                14,
            )
            .unwrap();
        c.pcb_mut(report.new_pid).unwrap().space = Some(sp);
        assert_eq!(mem, b"moved by image");
        // The image was consumed.
        assert!(c
            .fs
            .open(
                &mut c.net,
                report.resumed_at,
                h(2),
                image_path(pid),
                OpenMode::Read
            )
            .is_err());
        // But everything the thesis calls "transparency" broke: a new PID
        // and home, no parent, no descriptors, and the original is a
        // zombie its parent will reap, never to run again.
        assert_ne!(report.new_pid, pid);
        assert_ne!(report.new_pid.home(), pid.home());
        let replacement = c.pcb(report.new_pid).unwrap();
        assert!(replacement.parent.is_none());
        assert_eq!(replacement.open_fds().count(), 0);
        assert_eq!(c.pcb(pid).map(|p| p.state), Some(ProcState::Zombie));
    }

    #[test]
    fn cross_class_move_pays_the_translation_surcharge() {
        let mk = |speed: f64| {
            let (mut c, t) = setup();
            c.set_host_speed(h(2), speed);
            let (pid, t) = c
                .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
                .unwrap();
            let mut sp = c.pcb_mut(pid).unwrap().space.take().unwrap();
            let t = sp
                .write(
                    &mut c.fs,
                    &mut c.net,
                    t,
                    h(1),
                    VirtAddr::new(SegmentKind::Heap, 0),
                    &vec![3u8; 2 * PAGE_SIZE as usize],
                )
                .unwrap();
            c.pcb_mut(pid).unwrap().space = Some(sp);
            checkpoint_move(&mut c, t, pid, h(2), CkptStrategy::FullImage)
                .unwrap()
                .total_time
        };
        let same_class = mk(1.0);
        let cross_class = mk(2.0);
        assert!(
            cross_class > same_class,
            "cross-class {cross_class} must exceed same-class {same_class}"
        );
    }

    #[test]
    fn restart_from_image_recovers_a_crashed_process() {
        let (mut c, t) = setup();
        let (pid, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        let mut sp = c.pcb_mut(pid).unwrap().space.take().unwrap();
        let t = sp
            .write(
                &mut c.fs,
                &mut c.net,
                t,
                h(1),
                VirtAddr::new(SegmentKind::Heap, PAGE_SIZE),
                b"rises again",
            )
            .unwrap();
        let (_, ck) = checkpoint(
            &mut sp,
            CkptStrategy::FullImage,
            &mut c.fs,
            &mut c.net,
            t,
            h(1),
            image_path(pid),
        )
        .unwrap();
        c.pcb_mut(pid).unwrap().space = Some(sp);

        // The host dies, taking the process with it.
        let t = ck.completed_at;
        c.crash_host(t, h(1));

        let (new_pid, r) = restart_from_image(
            &mut c,
            t + SimDuration::from_secs(1),
            h(3),
            &SpritePath::new("/bin/sim"),
            16,
            4,
            &image_path(pid),
        )
        .unwrap();
        let mut sp = c.pcb_mut(new_pid).unwrap().space.take().unwrap();
        let (mem, _) = sp
            .read(
                &mut c.fs,
                &mut c.net,
                r.resumed_at,
                h(3),
                VirtAddr::new(SegmentKind::Heap, PAGE_SIZE),
                11,
            )
            .unwrap();
        c.pcb_mut(new_pid).unwrap().space = Some(sp);
        assert_eq!(mem, b"rises again");
    }
}
