//! Process control blocks.

use sprite_fs::{SpritePath, StreamId};
use sprite_net::HostId;
use sprite_sim::{SimDuration, SimTime, StateDigest};
use sprite_vm::AddressSpace;

use crate::ProcessId;

/// Coarse process lifecycle state. The simulation schedules work at the
/// granularity of whole CPU bursts, so the fine running/ready distinction
/// collapses into [`ProcState::Active`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Runnable or running on its current host.
    Active,
    /// Frozen mid-migration: may execute on no host (the "freeze time" the
    /// VM-strategy comparison measures).
    Frozen,
    /// Exited, waiting for the parent to reap it.
    Zombie,
}

/// UNIX-style signals, the subset the evaluation exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signal {
    /// Unblockable kill.
    Kill,
    /// Polite termination request.
    Term,
    /// User-defined signal.
    Usr1,
    /// Request to migrate back home (eviction uses this).
    MigrateHome,
}

/// One process's kernel state.
///
/// The fields mirror what Sprite's migration mechanism must encapsulate and
/// transfer (Ch. 4.2): the address space, the open-file table, scheduling
/// accounting, signal state and the process-family links that stay rooted at
/// the home host.
#[derive(Debug)]
pub struct Pcb {
    /// The process's identifier; encodes the home host.
    pub pid: ProcessId,
    /// Parent, if still tracked.
    pub parent: Option<ProcessId>,
    /// Host the process is currently executing on.
    pub current: HostId,
    /// The home kernel's forwarding pointer: where this process runs when
    /// it is away from home (`None` at home). This folds the old
    /// cluster-wide `locations` side-map into the PCB slot — the home
    /// kernel's answer to "where is pid?" lives with the process itself.
    pub forwarded: Option<HostId>,
    /// Process group, rooted at the home host (family operations resolve
    /// there, which is why `getpgrp`/`setpgrp` forward home when foreign).
    pub pgrp: u32,
    /// Lifecycle state.
    pub state: ProcState,
    /// The virtual-memory image (absent for kernel-internal daemons).
    pub space: Option<AddressSpace>,
    /// Open-file table: index is the file descriptor.
    pub fds: Vec<Option<StreamId>>,
    /// Program being executed, for diagnostics.
    pub program: Option<SpritePath>,
    /// Accumulated CPU time.
    pub cpu_used: SimDuration,
    /// Signals delivered but not yet consumed.
    pub pending_signals: Vec<Signal>,
    /// Exit status once the process has exited.
    pub exit_status: Option<i32>,
    /// Live children.
    pub children: Vec<ProcessId>,
    /// True if the process maps writable memory shared with another
    /// process on its host. Sprite "simply disallows migration for
    /// processes using it" (Ch. 4.2.1) — maintaining distributed shared
    /// memory \[LH89\] would change sharing costs too dramatically.
    pub shares_writable_memory: bool,
    /// How many times this process has migrated.
    pub migrations: u32,
    /// Creation time.
    pub created_at: SimTime,
}

impl Pcb {
    /// Creates an active PCB at `host`.
    pub fn new(pid: ProcessId, parent: Option<ProcessId>, host: HostId, now: SimTime) -> Self {
        Pcb {
            pid,
            parent,
            pgrp: pid.seq(),
            current: host,
            forwarded: None,
            state: ProcState::Active,
            space: None,
            fds: Vec::new(),
            program: None,
            cpu_used: SimDuration::ZERO,
            pending_signals: Vec::new(),
            exit_status: None,
            children: Vec::new(),
            shares_writable_memory: false,
            migrations: 0,
            created_at: now,
        }
    }

    /// True if the process executes away from its home host.
    pub fn is_foreign(&self) -> bool {
        self.current != self.pid.home()
    }

    /// Installs a stream in the lowest free descriptor slot; returns the fd.
    pub(crate) fn install_fd(&mut self, stream: StreamId) -> usize {
        for (i, slot) in self.fds.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(stream);
                return i;
            }
        }
        self.fds.push(Some(stream));
        self.fds.len() - 1
    }

    /// Looks up a descriptor.
    pub fn fd(&self, fd: usize) -> Option<StreamId> {
        self.fds.get(fd).copied().flatten()
    }

    /// Clears a descriptor slot, returning the stream it held.
    pub(crate) fn clear_fd(&mut self, fd: usize) -> Option<StreamId> {
        self.fds.get_mut(fd).and_then(|slot| slot.take())
    }

    /// All open streams, with their descriptor numbers.
    pub fn open_fds(&self) -> impl Iterator<Item = (usize, StreamId)> + '_ {
        self.fds
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (i, s)))
    }

    /// Folds the PCB's observable state into `d`. Identity is hashed as
    /// `(home, seq)` — slot handles are an implementation detail of the
    /// process table and stay out of digests.
    pub fn digest_into(&self, d: &mut StateDigest) {
        let Self {
            pid,
            parent,
            current,
            forwarded,
            pgrp,
            state,
            space,
            fds,
            program,
            cpu_used,
            pending_signals,
            exit_status,
            children,
            shares_writable_memory,
            migrations,
            created_at,
        } = self;
        d.write_usize(pid.home().index());
        d.write_u32(pid.seq());
        match parent {
            Some(p) => {
                d.write_u8(1);
                d.write_usize(p.home().index());
                d.write_u32(p.seq());
            }
            None => d.write_u8(0),
        }
        d.write_usize(current.index());
        d.write_opt_u64(forwarded.map(|h| h.index() as u64));
        d.write_u32(*pgrp);
        d.write_u8(*state as u8);
        match space {
            Some(space) => {
                d.write_u8(1);
                d.write_u64(space.total_pages());
                d.write_u64(space.resident_pages());
                d.write_u64(space.dirty_pages());
            }
            None => d.write_u8(0),
        }
        d.write_usize(fds.len());
        for (fd, stream) in self.open_fds() {
            d.write_usize(fd);
            d.write_u64(stream.raw());
        }
        match program {
            Some(p) => {
                d.write_u8(1);
                d.write_str(p.as_str());
            }
            None => d.write_u8(0),
        }
        d.write_u64(cpu_used.as_micros());
        d.write_usize(pending_signals.len());
        for s in pending_signals {
            d.write_u8(*s as u8);
        }
        d.write_opt_u64(exit_status.map(|s| s as u64));
        d.write_usize(children.len());
        for c in children {
            d.write_usize(c.home().index());
            d.write_u32(c.seq());
        }
        d.write_bool(*shares_writable_memory);
        d.write_u32(*migrations);
        d.write_u64(created_at.as_micros());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(h: u32, s: u32) -> ProcessId {
        ProcessId::new(HostId::new(h), s)
    }

    #[test]
    fn foreignness_follows_current_host() {
        let mut p = Pcb::new(pid(1, 1), None, HostId::new(1), SimTime::ZERO);
        assert!(!p.is_foreign());
        p.current = HostId::new(2);
        assert!(p.is_foreign());
    }

    #[test]
    fn fd_table_reuses_lowest_slot() {
        // Mint real stream IDs through a real (tiny) file system.
        use sprite_fs::{FsConfig, OpenMode, SpriteFs};
        use sprite_net::{CostModel, Transport};
        let mut net = Transport::new(CostModel::sun3(), 2);
        let mut fs = SpriteFs::new(FsConfig::default(), 2);
        fs.add_server(HostId::new(0), SpritePath::new("/"));
        let h1 = HostId::new(1);
        let t0 = SimTime::ZERO;
        let mut mint = |name: &str| {
            fs.create(&mut net, t0, h1, SpritePath::new(name)).unwrap();
            fs.open(&mut net, t0, h1, SpritePath::new(name), OpenMode::Read)
                .unwrap()
                .0
        };
        let (s0, s1, s2) = (mint("/a"), mint("/b"), mint("/c"));

        let mut p = Pcb::new(pid(1, 1), None, h1, SimTime::ZERO);
        let a = p.install_fd(s0);
        let b = p.install_fd(s1);
        assert_eq!((a, b), (0, 1));
        assert_eq!(p.clear_fd(0), Some(s0));
        let c = p.install_fd(s2);
        assert_eq!(c, 0, "lowest free descriptor is reused, as in UNIX");
        assert_eq!(p.fd(1), Some(s1));
        assert_eq!(p.fd(7), None);
        assert_eq!(p.open_fds().count(), 2);
    }
}
