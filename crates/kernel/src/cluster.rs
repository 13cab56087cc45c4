//! The simulated Sprite cluster: every host's kernel state plus the shared
//! network and file system.
//!
//! "Each host runs a distinct copy of the Sprite kernel, but the kernels
//! work closely together using a remote-procedure-call mechanism" (Ch. 3.2).
//! In the simulation all kernels live in one address space — [`Cluster`] —
//! and their cooperation costs are charged through the shared typed
//! [`Transport`] (one [`RpcOp`] per kind of cross-kernel interaction). The
//! migration mechanism (the `sprite-core` crate) mutates this structure
//! through the primitives at the bottom of the impl: freeze/thaw,
//! relocation, and access to PCBs and hosts.
//!
//! PCBs live in a generational slab ([`crate::proc_table`]): PIDs minted
//! here carry a slot handle so lookups are a generation compare, stale
//! handles fail instead of aliasing recycled slots, and iteration stays in
//! PID order — the order every per-process cost charge relies on.

use sprite_fs::{FileId, FsConfig, FsError, OpenMode, SpriteFs, SpritePath};
use sprite_net::{CostModel, HostId, RpcError, RpcOp, SendError, Transport, PAGE_SIZE};
use sprite_sim::{DetHashMap, SimDuration, SimTime, SlottedResource, StateDigest, Trace};
use sprite_vm::AddressSpace;

use crate::calls::{Disposition, KernelCall};
use crate::proc::{Pcb, ProcState, Signal};
use crate::proc_table::{ProcTable, SlabStats};
use crate::ProcessId;

/// Per-host kernel state.
#[derive(Debug)]
pub struct HostState {
    /// This host's identity.
    pub id: HostId,
    /// The host CPU; workload bursts and RPC service queue here.
    pub cpu: SlottedResource,
    /// Whether the workstation's owner is at the console (drives idle-host
    /// detection and eviction policy).
    pub console_active: bool,
    /// CPU-speed multiplier for this host's hardware class: compute bursts
    /// finish `speed`× faster than on a baseline (1.0) machine. Sprite's
    /// cluster mixed Sun-2s and Sun-3s; placement that ignores class picks
    /// a long-idle slow machine over a briefly-busy fast one.
    speed: f64,
    resident: Vec<ProcessId>,
}

impl HostState {
    fn new(id: HostId) -> Self {
        HostState {
            id,
            cpu: SlottedResource::new(),
            console_active: false,
            speed: 1.0,
            resident: Vec::new(),
        }
    }

    /// This host's CPU-speed multiplier (1.0 = baseline class).
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Sets the host's hardware class as a CPU-speed multiplier, clamped
    /// to a sane positive range. Hosts sharing a multiplier form a class;
    /// migrating between classes pays a translation surcharge.
    pub(crate) fn set_speed(&mut self, speed: f64) {
        self.speed = speed.clamp(0.05, 100.0);
    }

    /// Processes currently executing on this host, in PID order.
    pub fn resident(&self) -> &[ProcessId] {
        &self.resident
    }

    fn add(&mut self, pid: ProcessId) {
        debug_assert!(!self.resident.contains(&pid), "{pid} already resident");
        self.resident.push(pid);
        self.resident.sort();
    }

    fn remove(&mut self, pid: ProcessId) {
        self.resident.retain(|p| *p != pid);
    }
}

/// Why a kernel operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// Unknown process.
    NoSuchProcess(ProcessId),
    /// The process is in the wrong state for the operation.
    BadState(ProcessId),
    /// Unknown program path.
    NoSuchProgram(SpritePath),
    /// Descriptor not open.
    BadFd(usize),
    /// Underlying file-system failure.
    Fs(FsError),
    /// A kernel-to-kernel RPC failed (timeout, partition, or peer crash)
    /// and the operation could not complete. Transient losses the kernel
    /// absorbs (signal forwards, home notifications) never surface this —
    /// only operations whose semantics require the remote answer do.
    Rpc(RpcError),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::NoSuchProcess(p) => write!(f, "no such process: {p}"),
            KernelError::BadState(p) => write!(f, "process {p} is in the wrong state"),
            KernelError::NoSuchProgram(p) => write!(f, "no such program: {p}"),
            KernelError::BadFd(fd) => write!(f, "bad file descriptor {fd}"),
            KernelError::Fs(e) => write!(f, "file system: {e}"),
            KernelError::Rpc(e) => write!(f, "rpc failed: {e}"),
        }
    }
}

impl std::error::Error for KernelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KernelError::Fs(e) => Some(e),
            KernelError::Rpc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FsError> for KernelError {
    fn from(e: FsError) -> Self {
        // An FS failure that was really a transport failure keeps its RPC
        // identity, so callers can match on transience uniformly.
        match e {
            FsError::Rpc(rpc) => KernelError::Rpc(rpc),
            other => KernelError::Fs(other),
        }
    }
}

impl From<RpcError> for KernelError {
    fn from(e: RpcError) -> Self {
        KernelError::Rpc(e)
    }
}

impl From<SendError> for KernelError {
    fn from(e: SendError) -> Self {
        KernelError::Rpc(e.into())
    }
}

/// Result alias for kernel operations.
pub type KernelResult<T> = Result<T, KernelError>;

/// Aggregate kernel activity counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelStats {
    /// Processes created (spawn + fork).
    pub created: u64,
    /// Forks performed.
    pub forks: u64,
    /// Execs performed.
    pub execs: u64,
    /// Exits.
    pub exits: u64,
    /// Signals delivered.
    pub signals: u64,
    /// Kernel calls handled locally.
    pub calls_local: u64,
    /// Kernel calls forwarded to home kernels.
    pub calls_forwarded: u64,
    /// Kernel calls routed through the file system.
    pub calls_fs: u64,
    /// Signal forwards lost to network faults (delivery is best-effort, as
    /// with UNIX `kill` once the request leaves the caller).
    pub signal_losses: u64,
    /// Home-kernel notifications (fork/exit bookkeeping) lost to faults.
    pub notify_losses: u64,
    /// Processes killed by fail-stop crash recovery ([`Cluster::crash_host`]).
    pub fault_kills: u64,
}

/// A registered program: its executable file and text size.
#[derive(Debug, Clone, Copy)]
pub struct Program {
    /// The executable file in the shared FS.
    pub file: FileId,
    /// Code pages the program needs.
    pub code_pages: u64,
}

/// The whole simulated cluster.
///
/// # Examples
///
/// ```
/// use sprite_kernel::Cluster;
/// use sprite_net::{CostModel, HostId};
/// use sprite_fs::SpritePath;
/// use sprite_sim::SimTime;
///
/// # fn main() -> Result<(), sprite_kernel::KernelError> {
/// let mut cluster = Cluster::new(CostModel::sun3(), 4);
/// cluster.add_file_server(HostId::new(0), SpritePath::new("/"));
/// let t0 = SimTime::ZERO;
/// let t1 = cluster.install_program(t0, SpritePath::new("/bin/cc"), 64 * 1024)?;
/// let (pid, _t2) = cluster.spawn(t1, HostId::new(1), &SpritePath::new("/bin/cc"), 32, 8)?;
/// assert_eq!(cluster.pcb(pid).unwrap().current, HostId::new(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Cluster {
    /// The shared Ethernet + typed RPC transport.
    pub net: Transport,
    /// The shared file system.
    pub fs: SpriteFs,
    /// Optional narrative log of cluster events (disabled by default; turn
    /// on with [`Cluster::enable_trace`] for examples and debugging).
    pub trace: Trace,
    hosts: Vec<HostState>,
    procs: ProcTable,
    next_seq: Vec<u32>,
    programs: DetHashMap<SpritePath, Program>,
    stats: KernelStats,
    next_swap_tag: u64,
}

impl Cluster {
    /// Creates a cluster of `hosts` machines. Add at least one file server
    /// before creating processes.
    pub fn new(cost: CostModel, hosts: usize) -> Self {
        Cluster::with_fs_config(cost, hosts, FsConfig::default())
    }

    /// Creates a cluster with explicit file-system tunables.
    pub fn with_fs_config(cost: CostModel, hosts: usize, fs_config: FsConfig) -> Self {
        Cluster {
            net: Transport::new(cost, hosts),
            fs: SpriteFs::new(fs_config, hosts),
            trace: Trace::disabled(),
            hosts: (0..hosts)
                .map(|i| HostState::new(HostId::new(i as u32)))
                .collect(),
            procs: ProcTable::new(),
            next_seq: vec![1; hosts],
            programs: DetHashMap::default(),
            stats: KernelStats::default(),
            next_swap_tag: 0,
        }
    }

    /// Declares `host` a file server for the subtree at `prefix`.
    pub fn add_file_server(&mut self, host: HostId, prefix: SpritePath) {
        self.fs.add_server(host, prefix);
    }

    /// Declares a striped file-service group: every host in `servers`
    /// exports `prefix`, and names beneath it spread across the group by
    /// path-text hashing (see [`sprite_fs::ShardMap`]). One host is the
    /// classic single-server domain.
    pub fn add_sharded_file_service(&mut self, servers: &[HostId], prefix: SpritePath) {
        for host in servers {
            self.fs.add_server(*host, prefix.clone());
        }
    }

    /// Starts recording a narrative of cluster events (spawns, execs,
    /// migrations, exits, signals), keeping the most recent `capacity`
    /// lines. The transport starts its own `"rpc"` narrative alongside.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Trace::enabled(capacity);
        self.net.enable_trace(capacity);
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Read access to a host.
    pub fn host(&self, id: HostId) -> &HostState {
        &self.hosts[id.index()]
    }

    /// Mutable access to a host (the migration engine and the host-selection
    /// daemons use this).
    pub fn host_mut(&mut self, id: HostId) -> &mut HostState {
        &mut self.hosts[id.index()]
    }

    /// All hosts.
    pub fn hosts(&self) -> impl Iterator<Item = &HostState> {
        self.hosts.iter()
    }

    /// Sets `host`'s hardware class as a CPU-speed multiplier (1.0 =
    /// baseline). Compute bursts on the host finish `speed`× faster.
    pub fn set_host_speed(&mut self, host: HostId, speed: f64) {
        self.hosts[host.index()].set_speed(speed);
    }

    /// Extra kernel-state translation time a migration or checkpoint restart
    /// pays when it crosses hardware classes. Same-class moves are free; a
    /// cross-class move pays a fixed relink cost plus a per-page term on the
    /// destination's CPU (register/layout translation scales with the image),
    /// all divided by the destination's speed.
    pub fn translation_surcharge(&self, from: HostId, to: HostId, pages: u64) -> SimDuration {
        let fs = self.hosts[from.index()].speed;
        let ts = self.hosts[to.index()].speed;
        if fs.to_bits() == ts.to_bits() {
            return SimDuration::ZERO;
        }
        let base = SimDuration::from_millis(5) + SimDuration::from_micros(40) * pages as f64;
        base * (1.0 / ts)
    }

    /// Read access to a PCB.
    pub fn pcb(&self, pid: ProcessId) -> Option<&Pcb> {
        self.procs.get(pid)
    }

    /// Mutable access to a PCB.
    pub fn pcb_mut(&mut self, pid: ProcessId) -> Option<&mut Pcb> {
        self.procs.get_mut(pid)
    }

    /// All live processes in PID order.
    pub fn processes(&self) -> impl Iterator<Item = &Pcb> {
        self.procs.iter()
    }

    /// PIDs of foreign processes on `host` (candidates for eviction), in
    /// PID order. Borrows the host's resident list — no allocation.
    pub fn foreign_on(&self, host: HostId) -> impl Iterator<Item = ProcessId> + '_ {
        self.hosts[host.index()]
            .resident
            .iter()
            .copied()
            .filter(move |pid| pid.home() != host)
    }

    /// Where `pid` currently runs, as its home kernel would answer: the
    /// forwarding pointer if the process is away from home, its current
    /// host otherwise.
    pub fn locate(&self, pid: ProcessId) -> Option<HostId> {
        self.procs
            .get(pid)
            .map(|p| p.forwarded.unwrap_or(p.current))
    }

    /// Kernel activity counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Occupancy and staleness counters for the process slab (the
    /// data-plane counters report prints these next to the stream table's).
    pub fn proc_slab_stats(&self) -> SlabStats {
        self.procs.stats()
    }

    /// Folds the cluster's observable state into `d`: every live PCB in
    /// PID order, every host's CPU horizon / console flag / resident list,
    /// the per-host PID sequence counters, the kernel activity counters,
    /// and — by delegation — the transport and the file system. This is
    /// the replay auditor's view of "the state of the world": two runs
    /// whose digests match at every checkpoint traversed identical
    /// trajectories.
    pub fn digest_into(&self, d: &mut StateDigest) {
        let Self {
            net,
            fs,
            trace: _, // human-facing narration, not simulation state
            hosts,
            procs,
            next_seq,
            programs: _, // immutable program images registered before runs
            stats,
            next_swap_tag,
        } = self;
        let slab = procs.stats();
        d.write_usize(slab.live);
        d.write_usize(slab.high_water);
        d.write_u64(slab.stale_lookups);
        for pcb in procs.iter() {
            pcb.digest_into(d);
        }
        for host in hosts {
            let HostState {
                id: _, // implied by the host's position in the fold
                cpu,
                console_active,
                speed,
                resident,
            } = host;
            d.write_u64(cpu.horizon().as_micros());
            d.write_u64(cpu.requests());
            d.write_bool(*console_active);
            d.write_u64(speed.to_bits());
            d.write_usize(resident.len());
            for pid in resident {
                d.write_usize(pid.home().index());
                d.write_u32(pid.seq());
            }
        }
        for seq in next_seq {
            d.write_u32(*seq);
        }
        let KernelStats {
            created,
            forks,
            execs,
            exits,
            signals,
            calls_local,
            calls_forwarded,
            calls_fs,
            signal_losses,
            notify_losses,
            fault_kills,
        } = *stats;
        for v in [
            created,
            forks,
            execs,
            exits,
            signals,
            calls_local,
            calls_forwarded,
            calls_fs,
            signal_losses,
            notify_losses,
            fault_kills,
            *next_swap_tag,
        ] {
            d.write_u64(v);
        }
        net.digest_into(d);
        fs.digest_into(d);
    }

    /// The cluster's full state digest as one `u64` — what the engine's
    /// audit hook samples at each checkpoint.
    pub fn digest(&self) -> u64 {
        let mut d = StateDigest::new();
        self.digest_into(&mut d);
        d.finish()
    }

    /// A registered program.
    pub fn program(&self, path: &SpritePath) -> Option<Program> {
        self.programs.get(path).copied()
    }

    fn fresh_swap_tag(&mut self, pid: ProcessId) -> String {
        self.next_swap_tag += 1;
        format!("{pid}.{}", self.next_swap_tag)
    }

    // ----- programs -----------------------------------------------------------

    /// Installs an executable of `text_bytes` at `path` (what a compiler or
    /// the system installation would have produced). Returns completion.
    pub fn install_program(
        &mut self,
        now: SimTime,
        path: SpritePath,
        text_bytes: u64,
    ) -> KernelResult<SimTime> {
        let server = self.fs.resolve(&path)?;
        let (file, t) = self.fs.create(&mut self.net, now, server, path.clone())?;
        let (stream, t) = self
            .fs
            .open(&mut self.net, t, server, path.clone(), OpenMode::Write)?;
        // Deterministic pseudo-text so code pages have checkable content.
        let text: Vec<u8> = (0..text_bytes).map(|i| (i % 251) as u8).collect();
        let t = self.fs.write(&mut self.net, t, server, stream, &text)?;
        let t = self.fs.close(&mut self.net, t, server, stream)?;
        self.programs.insert(
            path,
            Program {
                file,
                code_pages: text_bytes.div_ceil(PAGE_SIZE).max(1),
            },
        );
        Ok(t)
    }

    // ----- process lifecycle -----------------------------------------------------

    /// Creates a process on `host` running `program`. The new process's
    /// home is `host`.
    pub fn spawn(
        &mut self,
        now: SimTime,
        host: HostId,
        program: &SpritePath,
        heap_pages: u64,
        stack_pages: u64,
    ) -> KernelResult<(ProcessId, SimTime)> {
        let prog = self
            .programs
            .get(program)
            .copied()
            .ok_or_else(|| KernelError::NoSuchProgram(program.clone()))?;
        let seq = self.next_seq[host.index()];
        self.next_seq[host.index()] += 1;
        // Provisional (handle-less) PID: only its Display feeds the swap
        // tag; the slab mints the real handle below.
        let tag = self.fresh_swap_tag(ProcessId::new(host, seq));
        let space = AddressSpace::create(&tag, prog.file, prog.code_pages, heap_pages, stack_pages);
        let pid = self.procs.insert(host, seq, |pid| {
            let mut pcb = Pcb::new(pid, None, host, now);
            pcb.space = Some(space);
            pcb.program = Some(program.clone());
            pcb
        });
        self.hosts[host.index()].add(pid);
        self.stats.created += 1;
        let t = now + self.net.cost().context_switch;
        self.trace
            .record(t, "proc", || format!("{pid} spawned on {host} ({program})"));
        Ok((pid, t))
    }

    /// Forks `parent`. The child runs on the parent's current host but its
    /// home is the parent's home — children of foreign processes belong to
    /// the same user session (Ch. 4.2).
    pub fn fork(&mut self, now: SimTime, parent: ProcessId) -> KernelResult<(ProcessId, SimTime)> {
        let (parent, host, home, parent_program, parent_pgrp) = {
            let p = self
                .procs
                .get(parent)
                .ok_or(KernelError::NoSuchProcess(parent))?;
            if p.state != ProcState::Active {
                return Err(KernelError::BadState(parent));
            }
            (p.pid, p.current, p.pid.home(), p.program.clone(), p.pgrp)
        };
        let seq = self.next_seq[home.index()];
        self.next_seq[home.index()] += 1;
        // Copy the address space (take/put-back to appease the borrow rules).
        let parent_space = self
            .procs
            .get_mut(parent)
            .expect("checked above")
            .space
            .take();
        let (child_space, mut t) = match parent_space {
            Some(mut space) => {
                let tag = self.fresh_swap_tag(ProcessId::new(home, seq));
                let r = space.fork_copy(&mut self.fs, &mut self.net, now, host, &tag);
                self.procs.get_mut(parent).expect("checked").space = Some(space);
                let (s, t) = r?;
                (Some(s), t)
            }
            None => (None, now),
        };
        // Duplicate the descriptor table; parent and child share streams
        // (and therefore access positions). The parent's PCB is read in
        // place while the FS charges the dups — no descriptor list is
        // collected.
        let mut child_pcb = Pcb::new(ProcessId::new(home, seq), Some(parent), host, now);
        child_pcb.pgrp = parent_pgrp;
        {
            let p = self.procs.get(parent).expect("checked above");
            for (fd, stream) in p.open_fds() {
                self.fs.dup(stream, host)?;
                while child_pcb.fds.len() < fd {
                    child_pcb.fds.push(None);
                }
                child_pcb.fds.push(Some(stream));
            }
        }
        child_pcb.space = child_space;
        child_pcb.program = parent_program;
        // A child born on a foreign host is immediately "away from home":
        // the home kernel's forwarding pointer is set at birth.
        if host != home {
            child_pcb.forwarded = Some(host);
        }
        let child = self.procs.insert(home, seq, |pid| {
            child_pcb.pid = pid;
            child_pcb
        });
        self.hosts[host.index()].add(child);
        self.procs
            .get_mut(parent)
            .expect("checked")
            .children
            .push(child);
        // A foreign parent's fork notifies the home kernel so the family
        // bookkeeping there stays current. The notification is best-effort:
        // the child exists either way, and the home kernel's view catches
        // up at the next successful family operation.
        if host != home {
            match self.net.send(RpcOp::ProcNotifyHome, t, host, home, None) {
                Ok(d) => t = d.done,
                Err(e) => {
                    t = e.at();
                    self.stats.notify_losses += 1;
                    self.trace
                        .record(t, "fault", || format!("fork notify to {home} lost: {e}"));
                }
            }
        }
        t += self.net.cost().context_switch;
        self.stats.created += 1;
        self.stats.forks += 1;
        self.trace
            .record(t, "proc", || format!("{parent} forked {child} on {host}"));
        Ok((child, t))
    }

    /// Replaces `pid`'s image with `program` (exec). Only the executable's
    /// header is read eagerly; text demand-pages from the file, which is
    /// why exec-time migration is nearly free (Ch. 4.2.1). The old image
    /// is freed through [`Cluster::free_space`].
    pub fn exec(
        &mut self,
        now: SimTime,
        pid: ProcessId,
        program: &SpritePath,
        heap_pages: u64,
        stack_pages: u64,
    ) -> KernelResult<SimTime> {
        let prog = self
            .programs
            .get(program)
            .copied()
            .ok_or_else(|| KernelError::NoSuchProgram(program.clone()))?;
        let host = {
            let p = self.procs.get(pid).ok_or(KernelError::NoSuchProcess(pid))?;
            if p.state != ProcState::Active {
                return Err(KernelError::BadState(pid));
            }
            p.current
        };
        // Read the executable header.
        let (stream, t) =
            self.fs
                .open(&mut self.net, now, host, program.clone(), OpenMode::Read)?;
        let t = self
            .fs
            .read(&mut self.net, t, host, stream, 512, &mut Vec::new())?;
        let t = self.fs.close(&mut self.net, t, host, stream)?;
        let t = self.free_space(t, pid);
        let tag = self.fresh_swap_tag(pid);
        let space = AddressSpace::create(&tag, prog.file, prog.code_pages, heap_pages, stack_pages);
        let p = self.procs.get_mut(pid).expect("checked above");
        p.space = Some(space);
        p.program = Some(program.clone());
        self.stats.execs += 1;
        let t = t + self.net.cost().context_switch;
        self.trace
            .record(t, "proc", || format!("{pid} exec {program} on {host}"));
        Ok(t)
    }

    /// Terminates `pid` with `status`. Streams close, the image is freed
    /// through [`Cluster::free_space`], and the PCB lingers as a zombie
    /// until the parent waits (or is reaped immediately if no parent
    /// remains).
    pub fn exit(&mut self, now: SimTime, pid: ProcessId, status: i32) -> KernelResult<SimTime> {
        let (pid, host, home, parent) = {
            let p = self.procs.get(pid).ok_or(KernelError::NoSuchProcess(pid))?;
            if p.state == ProcState::Zombie {
                return Err(KernelError::BadState(pid));
            }
            (p.pid, p.current, p.pid.home(), p.parent)
        };
        let mut t = now;
        // Close every open stream, reading the descriptor table in place
        // while the FS charges the closes (disjoint borrows, no fd list
        // collected). Exit is fail-stop local: a close whose server RPC
        // fails is recorded and skipped — the process dies on this kernel
        // no matter what the network does, so the local state transition
        // below must run unconditionally. (The stream itself was released
        // locally before the charge; only the server's view goes stale.)
        {
            let p = self.procs.get(pid).expect("checked above");
            for (fd, stream) in p.open_fds() {
                match self.fs.close(&mut self.net, t, host, stream) {
                    Ok(done) => t = done,
                    Err(FsError::Rpc(e)) => {
                        t = e.at();
                        self.stats.notify_losses += 1;
                        self.trace.record(t, "fault", || {
                            format!("{pid} exit: close of fd {fd} lost: {e}")
                        });
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        }
        t = self.free_space(t, pid);
        {
            let p = self.procs.get_mut(pid).expect("checked above");
            p.fds.clear();
            p.state = ProcState::Zombie;
            p.exit_status = Some(status);
            // The home kernel drops its forwarding entry.
            p.forwarded = None;
        }
        self.hosts[host.index()].remove(pid);
        // A foreign exit reports home: the home kernel owns the family
        // state. Best-effort — the process is dead on this kernel already.
        if host != home {
            match self.net.send(RpcOp::ProcNotifyHome, t, host, home, None) {
                Ok(d) => t = d.done,
                Err(e) => {
                    t = e.at();
                    self.stats.notify_losses += 1;
                    self.trace
                        .record(t, "fault", || format!("exit notify to {home} lost: {e}"));
                }
            }
        }
        self.stats.exits += 1;
        self.trace
            .record(t, "proc", || format!("{pid} exited ({status}) on {host}"));
        let parent_alive = parent.map(|pp| self.procs.contains(pp)).unwrap_or(false);
        if !parent_alive {
            self.reap(pid);
        }
        Ok(t)
    }

    /// Frees `pid`'s address space: the PCB drops it, and the current host
    /// unlinks each swap file the space created (see
    /// [`AddressSpace::swap_files`]). Exit, exec and exec-time migration's
    /// discard of the old image all free it here. The unlinks are
    /// best-effort, like exit's closes: a lost unlink counts one
    /// `notify_losses` and leaves its file on the server, and an unlink
    /// that finds no file has nothing to do. Returns when the last unlink
    /// completes — `now` for a space that never paged out.
    pub fn free_space(&mut self, now: SimTime, pid: ProcessId) -> SimTime {
        let Some(p) = self.procs.get_mut(pid) else {
            return now;
        };
        let host = p.current;
        let Some(space) = p.space.take() else {
            return now;
        };
        let mut t = now;
        for path in space.swap_files() {
            match self.fs.unlink(&mut self.net, t, host, &path) {
                Ok(done) => t = done,
                Err(FsError::Rpc(e)) => {
                    t = e.at();
                    self.stats.notify_losses += 1;
                    self.trace
                        .record(t, "fault", || format!("{pid}: unlink of {path} lost: {e}"));
                }
                Err(_) => {}
            }
        }
        t
    }

    /// Waits for any zombie child of `parent`; returns the reaped child and
    /// its status, or `None` if no child is ready. Waiting is a
    /// family operation, so a foreign parent forwards it home.
    pub fn wait(
        &mut self,
        now: SimTime,
        parent: ProcessId,
    ) -> KernelResult<(Option<(ProcessId, i32)>, SimTime)> {
        let (host, home) = {
            let p = self
                .procs
                .get(parent)
                .ok_or(KernelError::NoSuchProcess(parent))?;
            (p.current, p.pid.home())
        };
        let mut t = now + self.net.cost().local_kernel_call;
        if host != home {
            // Waiting needs the home kernel's answer; a transport failure
            // surfaces to the caller, who may retry after the backoff.
            t = self
                .net
                .send(RpcOp::HomeCallForward, t, host, home, None)?
                .done;
            self.stats.calls_forwarded += 1;
        }
        // Scan the child list in place (two shared borrows of the table;
        // the old code cloned the whole list per call).
        let ready = self
            .procs
            .get(parent)
            .expect("checked above")
            .children
            .iter()
            .copied()
            .find(|c| {
                self.procs
                    .get(*c)
                    .map(|p| p.state == ProcState::Zombie)
                    .unwrap_or(false)
            });
        match ready {
            Some(child) => {
                let status = self
                    .procs
                    .get(child)
                    .and_then(|p| p.exit_status)
                    .unwrap_or(0);
                self.reap(child);
                self.procs
                    .get_mut(parent)
                    .expect("parent checked")
                    .children
                    .retain(|c| *c != child);
                Ok((Some((child, status)), t))
            }
            None => Ok((None, t)),
        }
    }

    fn reap(&mut self, pid: ProcessId) {
        if let Some(p) = self.procs.remove(pid) {
            debug_assert_eq!(p.state, ProcState::Zombie, "reaping a live process");
            // Orphan any remaining children (init-style).
            for c in p.children {
                if let Some(cp) = self.procs.get_mut(c) {
                    cp.parent = None;
                    if cp.state == ProcState::Zombie {
                        self.reap(c);
                    }
                }
            }
        }
    }

    /// Sends `signal` from `from_host` to `target`. Delivery resolves the
    /// target's location through its home kernel — the signal reaches the
    /// process wherever it has migrated, which is exactly the transparency
    /// obligation (Ch. 4.3).
    pub fn kill(
        &mut self,
        now: SimTime,
        from_host: HostId,
        target: ProcessId,
        signal: Signal,
    ) -> KernelResult<SimTime> {
        let home = target.home();
        let current = {
            let p = self
                .procs
                .get(target)
                .ok_or(KernelError::NoSuchProcess(target))?;
            if p.state == ProcState::Zombie {
                return Err(KernelError::BadState(target));
            }
            p.current
        };
        let mut t = now + self.net.cost().local_kernel_call;
        // Hop 1: to the home kernel (which knows the current location).
        // Signal delivery is best-effort past this point — like UNIX kill,
        // success means "the request left the caller", so a forwarding hop
        // lost to a fault drops the signal rather than failing the call.
        if from_host != home {
            match self
                .net
                .send(RpcOp::SignalForward, t, from_host, home, None)
            {
                Ok(d) => t = d.done,
                Err(e) => {
                    self.stats.signal_losses += 1;
                    self.trace
                        .record(e.at(), "fault", || format!("signal to {target} lost: {e}"));
                    return Ok(e.at());
                }
            }
        }
        // Hop 2: home forwards to wherever the process runs.
        if home != current {
            match self.net.send(RpcOp::SignalForward, t, home, current, None) {
                Ok(d) => t = d.done,
                Err(e) => {
                    self.stats.signal_losses += 1;
                    self.trace
                        .record(e.at(), "fault", || format!("signal to {target} lost: {e}"));
                    return Ok(e.at());
                }
            }
        }
        self.procs
            .get_mut(target)
            .expect("checked above")
            .pending_signals
            .push(signal);
        self.stats.signals += 1;
        if signal == Signal::Kill {
            t = self.exit(t, target, 128 + 9)?;
        }
        Ok(t)
    }

    /// Drains `pid`'s pending signals, keeping the PCB's signal buffer (and
    /// its capacity) in place — delivery after a drain reuses the same
    /// allocation instead of growing a fresh `Vec`.
    pub fn take_signals(&mut self, pid: ProcessId) -> impl Iterator<Item = Signal> + '_ {
        self.procs
            .get_mut(pid)
            .into_iter()
            .flat_map(|p| p.pending_signals.drain(..))
    }

    // ----- kernel calls & CPU ----------------------------------------------------

    /// Services one kernel call for `pid`, charging the Appendix-A
    /// disposition: local calls cost a kernel crossing; forwarded calls add
    /// a round trip to the home kernel when the process is foreign.
    pub fn kernel_call(
        &mut self,
        now: SimTime,
        pid: ProcessId,
        call: KernelCall,
    ) -> KernelResult<SimTime> {
        let (current, home) = {
            let p = self.procs.get(pid).ok_or(KernelError::NoSuchProcess(pid))?;
            (p.current, p.pid.home())
        };
        let local = self.net.cost().local_kernel_call;
        match call.disposition() {
            Disposition::Local => {
                self.stats.calls_local += 1;
                Ok(now + local)
            }
            Disposition::ForwardHome => {
                if current == home {
                    self.stats.calls_local += 1;
                    Ok(now + local)
                } else {
                    self.stats.calls_forwarded += 1;
                    // A home-forwarded call needs the home kernel's answer;
                    // transport failures surface to the caller.
                    Ok(self
                        .net
                        .send(RpcOp::HomeCallForward, now + local, current, home, None)?
                        .done)
                }
            }
            Disposition::FileSystem => {
                // The caller performs the real FS operation through
                // `Cluster::fs`; this entry point only accounts the trap.
                self.stats.calls_fs += 1;
                Ok(now + local)
            }
        }
    }

    /// Runs `pid` on its current host's CPU for `demand`; returns when the
    /// burst completes (in the host's first idle slot from `now` that fits
    /// it, so work booked for later on that host delays it only when the
    /// gap before that work is too short).
    pub fn run_cpu(
        &mut self,
        now: SimTime,
        pid: ProcessId,
        demand: SimDuration,
    ) -> KernelResult<SimTime> {
        let host = {
            let p = self.procs.get(pid).ok_or(KernelError::NoSuchProcess(pid))?;
            if p.state != ProcState::Active {
                return Err(KernelError::BadState(pid));
            }
            p.current
        };
        // The hardware class scales service time: a burst of nominal work
        // `demand` occupies a speed-s CPU for demand/s.
        let h = &mut self.hosts[host.index()];
        let service = if h.speed == 1.0 {
            demand
        } else {
            demand * (1.0 / h.speed)
        };
        let done = h.cpu.acquire(now, service);
        let p = self.procs.get_mut(pid).expect("checked above");
        p.cpu_used += demand;
        Ok(done)
    }

    // ----- descriptor-level FS convenience ----------------------------------------

    /// Opens `path` for `pid`, installing a descriptor.
    pub fn open_fd(
        &mut self,
        now: SimTime,
        pid: ProcessId,
        path: SpritePath,
        mode: OpenMode,
    ) -> KernelResult<(usize, SimTime)> {
        let host = self.current_of(pid)?;
        let (stream, t) = self.fs.open(&mut self.net, now, host, path, mode)?;
        let p = self.procs.get_mut(pid).expect("looked up");
        Ok((p.install_fd(stream), t))
    }

    /// Reads up to `len` bytes from a descriptor into `buf`, which is
    /// cleared first.
    pub fn read_fd(
        &mut self,
        now: SimTime,
        pid: ProcessId,
        fd: usize,
        len: u64,
        buf: &mut Vec<u8>,
    ) -> KernelResult<SimTime> {
        let host = self.current_of(pid)?;
        let stream = self
            .procs
            .get(pid)
            .and_then(|p| p.fd(fd))
            .ok_or(KernelError::BadFd(fd))?;
        Ok(self.fs.read(&mut self.net, now, host, stream, len, buf)?)
    }

    /// Writes to a descriptor.
    pub fn write_fd(
        &mut self,
        now: SimTime,
        pid: ProcessId,
        fd: usize,
        bytes: &[u8],
    ) -> KernelResult<SimTime> {
        let host = self.current_of(pid)?;
        let stream = self
            .procs
            .get(pid)
            .and_then(|p| p.fd(fd))
            .ok_or(KernelError::BadFd(fd))?;
        Ok(self.fs.write(&mut self.net, now, host, stream, bytes)?)
    }

    /// Closes a descriptor.
    pub fn close_fd(&mut self, now: SimTime, pid: ProcessId, fd: usize) -> KernelResult<SimTime> {
        let host = self.current_of(pid)?;
        let stream = self
            .procs
            .get_mut(pid)
            .and_then(|p| p.clear_fd(fd))
            .ok_or(KernelError::BadFd(fd))?;
        Ok(self.fs.close(&mut self.net, now, host, stream)?)
    }

    fn current_of(&self, pid: ProcessId) -> KernelResult<HostId> {
        self.procs
            .get(pid)
            .map(|p| p.current)
            .ok_or(KernelError::NoSuchProcess(pid))
    }

    // ----- migration primitives (used by sprite-core) -------------------------------

    /// Freezes a process at a migration-safe point.
    pub fn freeze(&mut self, pid: ProcessId) -> KernelResult<()> {
        let p = self
            .procs
            .get_mut(pid)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        if p.state != ProcState::Active {
            return Err(KernelError::BadState(pid));
        }
        p.state = ProcState::Frozen;
        Ok(())
    }

    /// Resumes a frozen process.
    pub fn thaw(&mut self, pid: ProcessId) -> KernelResult<()> {
        let p = self
            .procs
            .get_mut(pid)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        if p.state != ProcState::Frozen {
            return Err(KernelError::BadState(pid));
        }
        p.state = ProcState::Active;
        Ok(())
    }

    /// Rebinds a frozen process to `to`: host resident lists, the PCB's
    /// current host, and the home kernel's forwarding pointer all update
    /// together. The caller (the migration protocol) charges the network
    /// costs; this is the state change the protocol's final RPC commits.
    pub fn relocate(&mut self, pid: ProcessId, to: HostId) -> KernelResult<()> {
        let (pid, from) = {
            let p = self
                .procs
                .get_mut(pid)
                .ok_or(KernelError::NoSuchProcess(pid))?;
            if p.state != ProcState::Frozen {
                return Err(KernelError::BadState(pid));
            }
            let from = p.current;
            p.current = to;
            p.migrations += 1;
            p.forwarded = if to == p.pid.home() { None } else { Some(to) };
            (p.pid, from)
        };
        self.hosts[from.index()].remove(pid);
        self.hosts[to.index()].add(pid);
        Ok(())
    }

    // ----- fail-stop crash recovery ------------------------------------------------

    /// Applies the fail-stop consequences of host `dead` crashing at `now`
    /// (Ch. 3.6 fault model, after DEMOS/MP \[PM83\]): every process resident
    /// on the dead host dies with it; every remote process whose *home*
    /// kernel was `dead` is killed by its current host (the home kernel
    /// owned its family state and location, so the process cannot continue
    /// transparently without it); and a process still demand-loading pages
    /// from an image left on `dead` loses those pages and dies too.
    ///
    /// Only local state changes — a dead host can neither send nor receive,
    /// so no RPCs are charged. The caller is expected to have installed a
    /// [`sprite_net::FaultPlan`] with the matching crash
    /// ([`FaultPlan::with_crash`](sprite_net::FaultPlan::with_crash)) so
    /// the transport refuses traffic to `dead` from the same instant.
    /// Returns the number of processes killed.
    pub fn crash_host(&mut self, now: SimTime, dead: HostId) -> usize {
        let live: Vec<ProcessId> = self
            .procs
            .iter()
            .filter(|p| p.state != ProcState::Zombie)
            .map(|p| p.pid)
            .collect();
        let mut killed = 0;
        for pid in live {
            // A cascade reap from an earlier victim may have removed this
            // process already.
            let Some(p) = self.procs.get_mut(pid) else {
                continue;
            };
            let resident_there = p.current == dead;
            let home_died = p.pid.home() == dead;
            // Residual dependency (Ch. 2.3): copy-on-reference pages still
            // owed by the dead host evaporate, and the process with them.
            let pages_lost = p.space.as_mut().map_or(0, |s| s.source_host_failed(dead));
            if resident_there || home_died || pages_lost > 0 {
                self.fault_kill(now, pid, dead);
                killed += 1;
            }
        }
        self.trace.record(now, "fault", || {
            format!("{dead} crashed; {killed} processes killed")
        });
        killed
    }

    /// Kills `pid` locally because `dead` crashed: the state transition of
    /// [`Cluster::exit`] without any stream closes, swap-file unlinks or
    /// home notification — the peer those RPCs would talk to may be gone,
    /// and fail-stop recovery must not block on an unreachable host. So
    /// the swap files a killed process created stay on their servers.
    fn fault_kill(&mut self, now: SimTime, pid: ProcessId, dead: HostId) {
        let Some(p) = self.procs.get_mut(pid) else {
            return;
        };
        let (pid, host, parent) = (p.pid, p.current, p.parent);
        p.fds.clear();
        p.space = None;
        p.state = ProcState::Zombie;
        p.exit_status = Some(128 + 9);
        p.forwarded = None;
        self.hosts[host.index()].remove(pid);
        self.stats.exits += 1;
        self.stats.fault_kills += 1;
        self.trace.record(now, "fault", || {
            format!("{pid} killed on {host} by crash of {dead}")
        });
        let parent_alive = parent.map(|pp| self.procs.contains(pp)).unwrap_or(false);
        if !parent_alive {
            self.reap(pid);
        }
    }
}
