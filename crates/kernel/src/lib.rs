//! The simulated Sprite kernel: processes, kernel calls and the
//! transparency machinery migration depends on.
//!
//! A [`Cluster`] holds every host's kernel state plus the shared network and
//! file system. Processes carry home-encoding [`ProcessId`]s, children of
//! foreign processes inherit their parent's home, and kernel calls follow
//! the Appendix-A dispositions ([`KernelCall`]): handled locally, forwarded
//! to the home kernel, or routed through the file system.
//!
//! The migration mechanism itself lives in the `sprite-core` crate and
//! drives this one through the freeze/relocate/thaw primitives.

#![warn(missing_docs)]

pub(crate) mod appendix_a;
mod builder;
mod calls;
mod cell;
mod cluster;
mod pid;
mod proc;
mod proc_table;

pub use builder::ClusterBuilder;
pub use calls::{Disposition, KernelCall};
pub use cell::{build_cluster_cells, HostCell, HostCellStats, HostMsg, JobTag};
pub use cluster::{Cluster, HostState, KernelError, KernelResult, KernelStats, Program};
pub use pid::ProcessId;
pub use proc::{Pcb, ProcState, Signal};
pub use proc_table::SlabStats;

#[cfg(test)]
mod tests {
    use super::*;
    use sprite_fs::{OpenMode, SpritePath};
    use sprite_net::{CostModel, HostId};
    use sprite_sim::{SimDuration, SimTime};

    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    fn cluster() -> (Cluster, SimTime) {
        let mut c = Cluster::new(CostModel::sun3(), 4);
        c.add_file_server(h(0), SpritePath::new("/"));
        let t = c
            .install_program(SimTime::ZERO, SpritePath::new("/bin/cc"), 40 * 1024)
            .unwrap();
        let t = c
            .install_program(t, SpritePath::new("/bin/sh"), 8 * 1024)
            .unwrap();
        (c, t)
    }

    #[test]
    fn spawn_creates_active_process_at_home() {
        let (mut c, t) = cluster();
        let (pid, t1) = c
            .spawn(t, h(1), &SpritePath::new("/bin/cc"), 16, 4)
            .unwrap();
        assert!(t1 > t);
        let p = c.pcb(pid).unwrap();
        assert_eq!(p.current, h(1));
        assert_eq!(pid.home(), h(1));
        assert!(!p.is_foreign());
        assert_eq!(p.state, ProcState::Active);
        assert_eq!(c.host(h(1)).resident(), &[pid]);
        assert_eq!(c.locate(pid), Some(h(1)));
    }

    #[test]
    fn unknown_program_is_an_error() {
        let (mut c, t) = cluster();
        assert!(matches!(
            c.spawn(t, h(1), &SpritePath::new("/bin/nope"), 4, 4),
            Err(KernelError::NoSuchProgram(_))
        ));
    }

    #[test]
    fn fork_copies_image_and_shares_streams() {
        let (mut c, t) = cluster();
        let (parent, t) = c.spawn(t, h(1), &SpritePath::new("/bin/sh"), 8, 4).unwrap();
        c.fs.create(&mut c.net, t, h(1), SpritePath::new("/tmp/log"))
            .unwrap();
        let (fd, t) = c
            .open_fd(t, parent, SpritePath::new("/tmp/log"), OpenMode::ReadWrite)
            .unwrap();
        let t = c.write_fd(t, parent, fd, b"parent").unwrap();
        let (child, t) = c.fork(t, parent).unwrap();
        assert_eq!(child.home(), h(1));
        assert_eq!(c.pcb(child).unwrap().parent, Some(parent));
        // The child shares the parent's stream: writing from the child
        // advances the same access position.
        let t = c.write_fd(t, child, fd, b"+child").unwrap();
        let stream = c.pcb(parent).unwrap().fd(fd).unwrap();
        assert_eq!(c.fs.streams().get(stream).unwrap().offset(), 12);
        assert_eq!(c.fs.streams().get(stream).unwrap().total_refs(), 2);
        let _ = t;
    }

    #[test]
    fn exec_replaces_image() {
        let (mut c, t) = cluster();
        let (pid, t) = c.spawn(t, h(1), &SpritePath::new("/bin/sh"), 8, 4).unwrap();
        let before = c.pcb(pid).unwrap().space.as_ref().unwrap().total_pages();
        let t2 = c.exec(t, pid, &SpritePath::new("/bin/cc"), 32, 8).unwrap();
        assert!(t2 > t);
        let after = c.pcb(pid).unwrap().space.as_ref().unwrap().total_pages();
        assert_ne!(before, after);
        assert_eq!(
            c.pcb(pid).unwrap().program,
            Some(SpritePath::new("/bin/cc"))
        );
        assert_eq!(c.stats().execs, 1);
    }

    #[test]
    fn exit_and_wait_reap_children() {
        let (mut c, t) = cluster();
        let (parent, t) = c.spawn(t, h(1), &SpritePath::new("/bin/sh"), 8, 4).unwrap();
        let (child, t) = c.fork(t, parent).unwrap();
        let (none, t) = c.wait(t, parent).unwrap();
        assert!(none.is_none(), "child still running");
        let t = c.exit(t, child, 0).unwrap();
        assert_eq!(c.pcb(child).unwrap().state, ProcState::Zombie);
        assert!(c.host(h(1)).resident().iter().all(|p| *p != child));
        let (reaped, _t) = c.wait(t, parent).unwrap();
        assert_eq!(reaped, Some((child, 0)));
        assert!(c.pcb(child).is_none());
    }

    #[test]
    fn orphaned_zombie_is_reaped_immediately() {
        let (mut c, t) = cluster();
        let (pid, t) = c.spawn(t, h(1), &SpritePath::new("/bin/sh"), 8, 4).unwrap();
        let _ = c.exit(t, pid, 3).unwrap();
        assert!(c.pcb(pid).is_none(), "no parent => no zombie lingers");
    }

    #[test]
    fn double_exit_is_rejected() {
        let (mut c, t) = cluster();
        let (parent, t) = c.spawn(t, h(1), &SpritePath::new("/bin/sh"), 8, 4).unwrap();
        let (child, t) = c.fork(t, parent).unwrap();
        let t = c.exit(t, child, 0).unwrap();
        assert!(matches!(c.exit(t, child, 0), Err(KernelError::BadState(_))));
    }

    #[test]
    fn signals_reach_migrated_processes() {
        let (mut c, t) = cluster();
        let (pid, t) = c.spawn(t, h(1), &SpritePath::new("/bin/sh"), 8, 4).unwrap();
        // Manually relocate (the migration protocol normally does this).
        c.freeze(pid).unwrap();
        c.relocate(pid, h(2)).unwrap();
        c.thaw(pid).unwrap();
        assert!(c.pcb(pid).unwrap().is_foreign());
        assert_eq!(c.locate(pid), Some(h(2)));
        // Signal sent from a third host routes via home to the current host.
        let msgs_before = c.net.stats().rpcs;
        let t2 = c.kill(t, h(3), pid, Signal::Usr1).unwrap();
        assert!(c.net.stats().rpcs >= msgs_before + 2, "two forwarding hops");
        assert!(t2 > t);
        assert_eq!(c.take_signals(pid).collect::<Vec<_>>(), vec![Signal::Usr1]);
        assert!(c.take_signals(pid).next().is_none());
    }

    #[test]
    fn kill_signal_terminates() {
        let (mut c, t) = cluster();
        let (parent, t) = c.spawn(t, h(1), &SpritePath::new("/bin/sh"), 8, 4).unwrap();
        let (child, t) = c.fork(t, parent).unwrap();
        c.kill(t, h(1), child, Signal::Kill).unwrap();
        assert_eq!(c.pcb(child).unwrap().state, ProcState::Zombie);
    }

    #[test]
    fn forwarded_calls_cost_more_when_foreign() {
        let (mut c, t) = cluster();
        let (pid, t) = c.spawn(t, h(1), &SpritePath::new("/bin/sh"), 8, 4).unwrap();
        let local_gettime = c.kernel_call(t, pid, KernelCall::GetTimeOfDay).unwrap();
        c.freeze(pid).unwrap();
        c.relocate(pid, h(2)).unwrap();
        c.thaw(pid).unwrap();
        let t2 = local_gettime;
        let remote_gettime = c.kernel_call(t2, pid, KernelCall::GetTimeOfDay).unwrap();
        let local_cost = local_gettime.elapsed_since(t);
        let remote_cost = remote_gettime.elapsed_since(t2);
        assert!(
            remote_cost > local_cost * 5,
            "forwarding should dominate: local {local_cost} remote {remote_cost}"
        );
        // getpid stays cheap even for a foreign process.
        let t3 = c
            .kernel_call(remote_gettime, pid, KernelCall::GetPid)
            .unwrap();
        assert_eq!(t3.elapsed_since(remote_gettime), local_cost);
        assert_eq!(c.stats().calls_forwarded, 1);
    }

    #[test]
    fn run_cpu_queues_on_the_host() {
        let (mut c, t) = cluster();
        let (a, t) = c.spawn(t, h(1), &SpritePath::new("/bin/sh"), 8, 4).unwrap();
        let (b, t) = c.spawn(t, h(1), &SpritePath::new("/bin/sh"), 8, 4).unwrap();
        let done_a = c.run_cpu(t, a, SimDuration::from_secs(1)).unwrap();
        let done_b = c.run_cpu(t, b, SimDuration::from_secs(1)).unwrap();
        assert_eq!(done_b.elapsed_since(done_a), SimDuration::from_secs(1));
        assert_eq!(c.pcb(a).unwrap().cpu_used, SimDuration::from_secs(1));
    }

    #[test]
    fn run_cpu_fills_the_gap_before_a_later_booking() {
        let (mut c, t) = cluster();
        let (a, t) = c.spawn(t, h(1), &SpritePath::new("/bin/sh"), 8, 4).unwrap();
        let (b, t) = c.spawn(t, h(1), &SpritePath::new("/bin/sh"), 8, 4).unwrap();
        // `b`'s burst is booked ten seconds ahead; `a`'s, issued now, fits
        // in the idle gap before it and is not queued behind it.
        let later = t + SimDuration::from_secs(10);
        let done_b = c.run_cpu(later, b, SimDuration::from_secs(1)).unwrap();
        let done_a = c.run_cpu(t, a, SimDuration::from_secs(2)).unwrap();
        assert_eq!(done_a, t + SimDuration::from_secs(2));
        assert_eq!(done_b, later + SimDuration::from_secs(1));
    }

    #[test]
    fn relocate_requires_frozen() {
        let (mut c, t) = cluster();
        let (pid, _t) = c.spawn(t, h(1), &SpritePath::new("/bin/sh"), 8, 4).unwrap();
        assert!(matches!(
            c.relocate(pid, h(2)),
            Err(KernelError::BadState(_))
        ));
        c.freeze(pid).unwrap();
        assert!(matches!(c.freeze(pid), Err(KernelError::BadState(_))));
        c.relocate(pid, h(2)).unwrap();
        c.thaw(pid).unwrap();
        assert!(matches!(c.thaw(pid), Err(KernelError::BadState(_))));
        assert_eq!(c.host(h(1)).resident().len(), 0);
        assert_eq!(c.host(h(2)).resident(), &[pid]);
        assert_eq!(c.foreign_on(h(2)).collect::<Vec<_>>(), vec![pid]);
    }

    #[test]
    fn exec_keeps_descriptors_open() {
        let (mut c, t) = cluster();
        let (pid, t) = c.spawn(t, h(1), &SpritePath::new("/bin/sh"), 8, 4).unwrap();
        c.fs.create(&mut c.net, t, h(1), SpritePath::new("/persist"))
            .unwrap();
        let (fd, t) = c
            .open_fd(t, pid, SpritePath::new("/persist"), OpenMode::ReadWrite)
            .unwrap();
        let t = c.write_fd(t, pid, fd, b"pre-exec").unwrap();
        let t = c.exec(t, pid, &SpritePath::new("/bin/cc"), 16, 4).unwrap();
        // The descriptor survives exec (no close-on-exec modelled), with
        // its access position intact — standard UNIX semantics.
        let t = c.write_fd(t, pid, fd, b"+post").unwrap();
        let stream = c.pcb(pid).unwrap().fd(fd).unwrap();
        c.fs.seek(stream, 0).unwrap();
        let mut data = Vec::new();
        c.read_fd(t, pid, fd, 32, &mut data).unwrap();
        assert_eq!(&data, b"pre-exec+post");
    }

    #[test]
    fn zombies_cannot_run_or_fork() {
        let (mut c, t) = cluster();
        let (parent, t) = c.spawn(t, h(1), &SpritePath::new("/bin/sh"), 8, 4).unwrap();
        let (child, t) = c.fork(t, parent).unwrap();
        let t = c.exit(t, child, 0).unwrap();
        assert!(matches!(
            c.run_cpu(t, child, SimDuration::from_secs(1)),
            Err(KernelError::BadState(_))
        ));
        assert!(matches!(c.fork(t, child), Err(KernelError::BadState(_))));
        assert!(matches!(
            c.exec(t, child, &SpritePath::new("/bin/cc"), 4, 4),
            Err(KernelError::BadState(_))
        ));
        assert!(matches!(
            c.kill(t, h(1), child, Signal::Usr1),
            Err(KernelError::BadState(_))
        ));
    }

    #[test]
    fn fd_io_round_trip_through_kernel() {
        let (mut c, t) = cluster();
        let (pid, t) = c.spawn(t, h(1), &SpritePath::new("/bin/sh"), 8, 4).unwrap();
        c.fs.create(&mut c.net, t, h(1), SpritePath::new("/data"))
            .unwrap();
        let (fd, t) = c
            .open_fd(t, pid, SpritePath::new("/data"), OpenMode::ReadWrite)
            .unwrap();
        let t = c.write_fd(t, pid, fd, b"kernel io").unwrap();
        let stream = c.pcb(pid).unwrap().fd(fd).unwrap();
        c.fs.seek(stream, 0).unwrap();
        let mut data = Vec::new();
        let t = c.read_fd(t, pid, fd, 9, &mut data).unwrap();
        assert_eq!(data, b"kernel io");
        let t = c.close_fd(t, pid, fd).unwrap();
        assert!(matches!(
            c.read_fd(t, pid, fd, 1, &mut data),
            Err(KernelError::BadFd(_))
        ));
    }
}
