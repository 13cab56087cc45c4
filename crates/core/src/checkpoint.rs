//! Checkpoint/restart "migration" — the related-work baseline.
//!
//! Several contemporaries moved work between hosts by checkpointing a
//! process to a file and restarting it elsewhere: Smith and Ioannidis's
//! remote `fork()` \[SI89\], Alonso and Kyrimis's facility \[AK88\], and
//! Condor's batch model over Remote UNIX [Lit87, LLM88]. The thesis calls
//! this "restricted" migration: "the new process would not have the same
//! process identifier or parent process, and it might not have the same
//! access to network connections or other open files" (Ch. 2.2).
//!
//! This module implements that design faithfully — image to a file through
//! the shared FS, fresh process on the target, image restored — so the
//! experiment suite can measure both its *cost* (the whole image crosses
//! the network twice, via the server) and its *transparency losses* (new
//! PID, severed family, dropped descriptors), side by side with true
//! migration.

use sprite_fs::{OpenMode, SpritePath};
use sprite_kernel::{Cluster, KernelError, ProcessId};
use sprite_net::{HostId, PAGE_SIZE};
use sprite_sim::{SimDuration, SimTime};
use sprite_vm::{SegmentKind, VirtAddr};

use crate::protocol::{MigrationError, MigrationResult};

/// What a checkpoint/restart transfer did — and what it broke.
#[derive(Debug, Clone)]
pub struct CheckpointReport {
    /// The process that was checkpointed (now gone).
    pub old_pid: ProcessId,
    /// The replacement created on the target — a *different* process.
    pub new_pid: ProcessId,
    /// Source host.
    pub from: HostId,
    /// Target host.
    pub to: HostId,
    /// Bytes written to (and later read from) the checkpoint file.
    pub image_bytes: u64,
    /// Descriptors the original held that the replacement silently lost.
    pub descriptors_lost: usize,
    /// Whether the original had a parent that the replacement is no longer
    /// a child of.
    pub family_severed: bool,
    /// Wall time from initiation until the replacement can run with its
    /// memory restored.
    pub total_time: SimDuration,
    /// When the replacement resumed.
    pub resumed_at: SimTime,
}

/// Moves `pid`'s computation to `to` by checkpoint/restart. The original
/// process is destroyed; a new one (new PID, new home, no descriptors, no
/// parent) is created on `to` with the same heap/stack contents.
///
/// # Errors
///
/// Fails if the process does not exist or the file system rejects the
/// checkpoint I/O. There is deliberately no version negotiation or console
/// check — these facilities ran above the kernel and had no such
/// protections.
pub fn checkpoint_restart(
    cluster: &mut Cluster,
    now: SimTime,
    pid: ProcessId,
    to: HostId,
) -> MigrationResult<CheckpointReport> {
    let (from, program, parent, fd_count, heap_pages, stack_pages) = {
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
            pcb.parent,
            pcb.open_fds().count(),
            space.segment(SegmentKind::Heap).page_count(),
            space.segment(SegmentKind::Stack).page_count(),
        )
    };

    // 1. Dump the writable image into a checkpoint file (rcp-style, via the
    //    shared FS — these systems used ordinary file copies).
    let ckpt_path = SpritePath::new(format!("/tmp/ckpt.{pid}"));
    let (_, t) = cluster
        .fs
        .create(&mut cluster.net, now, from, ckpt_path.clone())
        .map_err(KernelError::Fs)?;
    let (ckpt_w, t) = cluster
        .fs
        .open(
            &mut cluster.net,
            t,
            from,
            ckpt_path.clone(),
            OpenMode::Write,
        )
        .map_err(KernelError::Fs)?;
    let mut t = t;
    let mut image_bytes = 0u64;
    let mut heap_image = Vec::new();
    {
        let mut space = cluster
            .pcb_mut(pid)
            .expect("checked above")
            .space
            .take()
            .expect("checked above");
        for (seg, pages) in [
            (SegmentKind::Heap, heap_pages),
            (SegmentKind::Stack, stack_pages),
        ] {
            let (bytes, t2) = space
                .read(
                    &mut cluster.fs,
                    &mut cluster.net,
                    t,
                    from,
                    VirtAddr::new(seg, 0),
                    pages * PAGE_SIZE,
                )
                .map_err(KernelError::Fs)?;
            t = cluster
                .fs
                .write(&mut cluster.net, t2, from, ckpt_w, &bytes)
                .map_err(KernelError::Fs)?;
            image_bytes += bytes.len() as u64;
            if seg == SegmentKind::Heap {
                heap_image = bytes;
            }
        }
        cluster.pcb_mut(pid).expect("checked").space = Some(space);
    }
    let t = cluster
        .fs
        .close(&mut cluster.net, t, from, ckpt_w)
        .map_err(KernelError::Fs)?;

    // 2. The original dies. Its descriptors close; its parent (if any)
    //    reaps a corpse that will never be the "same" process again.
    let t = cluster.exit(t, pid, 0)?;

    // 3. A brand-new process starts on the target and reads the image back.
    let (new_pid, t) = cluster.spawn(t, to, &program, heap_pages, stack_pages)?;
    let (ckpt_r, t) = cluster
        .fs
        .open(&mut cluster.net, t, to, ckpt_path.clone(), OpenMode::Read)
        .map_err(KernelError::Fs)?;
    let t = cluster
        .fs
        .read(
            &mut cluster.net,
            t,
            to,
            ckpt_r,
            image_bytes,
            &mut Vec::new(),
        )
        .map_err(KernelError::Fs)?;
    let mut t = cluster
        .fs
        .close(&mut cluster.net, t, to, ckpt_r)
        .map_err(KernelError::Fs)?;
    {
        let mut space = cluster
            .pcb_mut(new_pid)
            .expect("just spawned")
            .space
            .take()
            .expect("spawned with a space");
        t = space
            .write(
                &mut cluster.fs,
                &mut cluster.net,
                t,
                to,
                VirtAddr::new(SegmentKind::Heap, 0),
                &heap_image,
            )
            .map_err(KernelError::Fs)?;
        cluster.pcb_mut(new_pid).expect("spawned").space = Some(space);
    }
    let _ = cluster
        .fs
        .unlink(&mut cluster.net, t, to, &ckpt_path)
        .map_err(KernelError::Fs)?;

    Ok(CheckpointReport {
        old_pid: pid,
        new_pid,
        from,
        to,
        image_bytes,
        descriptors_lost: fd_count,
        family_severed: parent.is_some(),
        total_time: t.elapsed_since(now),
        resumed_at: t,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MigrationConfig, Migrator};
    use sprite_net::CostModel;

    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    fn setup() -> (Cluster, SimTime) {
        let mut c = Cluster::new(CostModel::sun3(), 4);
        c.add_file_server(h(0), SpritePath::new("/"));
        let t = c
            .install_program(SimTime::ZERO, SpritePath::new("/bin/sim"), 32 * 1024)
            .unwrap();
        (c, t)
    }

    #[test]
    fn checkpoint_restart_moves_memory_but_breaks_identity() {
        let (mut c, t) = setup();
        let (parent, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        let (pid, t) = c.fork(t, parent).unwrap();
        // Give it memory and an open file.
        let t = {
            let mut sp = c.pcb_mut(pid).unwrap().space.take().unwrap();
            let t2 = sp
                .write(
                    &mut c.fs,
                    &mut c.net,
                    t,
                    h(1),
                    VirtAddr::new(SegmentKind::Heap, 0),
                    b"survives",
                )
                .unwrap();
            c.pcb_mut(pid).unwrap().space = Some(sp);
            t2
        };
        c.fs.create(&mut c.net, t, h(1), SpritePath::new("/doomed"))
            .unwrap();
        let (_fd, t) = c
            .open_fd(t, pid, SpritePath::new("/doomed"), OpenMode::ReadWrite)
            .unwrap();

        let report = checkpoint_restart(&mut c, t, pid, h(2)).unwrap();
        // Memory content made it.
        let mut sp = c.pcb_mut(report.new_pid).unwrap().space.take().unwrap();
        let (mem, _) = sp
            .read(
                &mut c.fs,
                &mut c.net,
                report.resumed_at,
                h(2),
                VirtAddr::new(SegmentKind::Heap, 0),
                8,
            )
            .unwrap();
        c.pcb_mut(report.new_pid).unwrap().space = Some(sp);
        assert_eq!(mem, b"survives");
        // But everything the thesis calls "transparency" broke:
        assert_ne!(report.new_pid, pid, "new process identifier");
        assert_ne!(report.new_pid.home(), pid.home(), "home changed too");
        assert!(report.family_severed);
        assert_eq!(report.descriptors_lost, 1);
        // The original is dead — a zombie its parent will reap, never to
        // run again.
        assert_eq!(
            c.pcb(pid).map(|p| p.state),
            Some(sprite_kernel::ProcState::Zombie)
        );
        assert!(c.pcb(report.new_pid).unwrap().parent.is_none());
        assert_eq!(c.pcb(report.new_pid).unwrap().open_fds().count(), 0);
    }

    #[test]
    fn true_migration_is_cheaper_and_lossless_for_the_same_image() {
        let (mut c, t) = setup();
        // Two identical processes with 64 dirty pages each.
        let dirty = vec![7u8; 64 * PAGE_SIZE as usize];
        let make = |c: &mut Cluster, t: SimTime| {
            let (pid, t) = c
                .spawn(t, h(1), &SpritePath::new("/bin/sim"), 80, 8)
                .unwrap();
            let mut sp = c.pcb_mut(pid).unwrap().space.take().unwrap();
            let t = sp
                .write(
                    &mut c.fs,
                    &mut c.net,
                    t,
                    h(1),
                    VirtAddr::new(SegmentKind::Heap, 0),
                    &dirty,
                )
                .unwrap();
            c.pcb_mut(pid).unwrap().space = Some(sp);
            (pid, t)
        };
        let (a, t) = make(&mut c, t);
        let (b, t) = make(&mut c, t);
        let mut migrator = Migrator::new(MigrationConfig::default(), 4);
        let real = migrator.migrate(&mut c, t, a, h(2)).unwrap();
        let ckpt = checkpoint_restart(&mut c, real.resumed_at, b, h(3)).unwrap();
        assert!(
            ckpt.total_time > real.total_time,
            "checkpoint {} should cost more than migration {}: the whole \
             image transits the server twice and a fresh process boots",
            ckpt.total_time,
            real.total_time
        );
        // And the real migration kept the PID.
        assert_eq!(c.pcb(a).unwrap().pid, a);
    }
}
