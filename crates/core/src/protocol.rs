//! The process-migration protocol.
//!
//! This is the paper's primary contribution (Ch. 4): move a running process
//! between Sprite kernels so that neither the process nor anything it
//! interacts with can tell it moved, except by running faster or slower.
//!
//! A migration proceeds in the order Sprite used:
//!
//! 1. **validate** — the process must be active and migratable, and both
//!    kernels must speak the same *migration version*. Migration touches so
//!    much kernel state that it "often breaks when seemingly unrelated parts
//!    of the kernel are modified"; version numbers keep mismatched kernels
//!    from corrupting each other (Ch. 4.4).
//! 2. **negotiate** — one RPC asks the target to accept the process; a
//!    workstation whose owner has returned may refuse.
//! 3. **freeze** — the process reaches a safe point and stops executing.
//! 4. **per-module state transfer** — each kernel module encapsulates and
//!    transfers its own state: virtual memory (by the configured
//!    [`VmStrategy`]), open streams (through the I/O servers, growing shadow
//!    streams where sharing demands), then the process/scheduling/signal
//!    state itself.
//! 5. **commit** — the kernels atomically rebind the process to the target,
//!    and the home kernel's forwarding entry is updated so signals and
//!    location-dependent calls keep working.
//! 6. **resume** — the target thaws the process.
//!
//! Exec-time migration ([`Migrator::exec_migrate`]) short-circuits step 4's
//! VM transfer entirely: the old image is discarded and the new program
//! demand-pages on the target, which is why Sprite steers most migrations
//! through `exec` (Ch. 4.2.1).

use sprite_fs::{FsError, SpritePath, StreamId};
use sprite_kernel::{Cluster, KernelError, ProcessId};
use sprite_net::{HostId, RpcError, RpcOp, SendError};
use sprite_sim::{SimDuration, SimTime};
use sprite_vm::{transfer, TransferParams, TransferReport, VmStrategy};

/// How many times eviction retries a migration that failed on a
/// *transient* transport fault (a timed-out RPC from message loss). The
/// owner wants the workstation back, so eviction keeps trying through a
/// lossy network; persistent failures (partition, peer crash) surface
/// immediately — retrying into a dead link only delays the owner further.
pub const EVICTION_RETRY_LIMIT: u32 = 3;

/// Migration tunables.
#[derive(Debug, Clone)]
pub struct MigrationConfig {
    /// How virtual memory crosses hosts.
    pub vm_strategy: VmStrategy,
    /// Workload assumptions for the VM transfer.
    pub transfer_params: TransferParams,
    /// Refuse to migrate onto a host whose owner is at the console.
    pub respect_console: bool,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            vm_strategy: VmStrategy::SpriteFlush,
            transfer_params: TransferParams::default(),
            respect_console: true,
        }
    }
}

/// Why a migration failed. Failures leave the process runnable at the
/// source — migration is all-or-nothing from the process's viewpoint.
#[derive(Debug)]
pub enum MigrationError {
    /// The two kernels implement different migration protocols.
    VersionMismatch {
        /// Source host and its version.
        from: (HostId, u32),
        /// Target host and its version.
        to: (HostId, u32),
    },
    /// The target declined (owner at console, or capacity policy).
    TargetRefused(HostId),
    /// Migrating to the host the process is already on.
    AlreadyThere(ProcessId),
    /// The process cannot migrate (e.g. it shares writable memory; Sprite
    /// simply disallows those — Ch. 4.2.1).
    NotMigratable(ProcessId, &'static str),
    /// A kernel-to-kernel RPC failed mid-protocol (timeout after retries,
    /// partition, or peer crash). The migration aborted and the process
    /// was rolled back to runnable at the source.
    Rpc(RpcError),
    /// Kernel or file-system failure underneath.
    Kernel(KernelError),
}

impl MigrationError {
    /// The transport failure underneath, if this error is one.
    pub fn rpc_failure(&self) -> Option<&RpcError> {
        match self {
            MigrationError::Rpc(e) => Some(e),
            _ => None,
        }
    }

    /// True if retrying the migration could plausibly succeed (the failure
    /// was message loss, not a partition or a dead peer).
    pub fn is_transient(&self) -> bool {
        self.rpc_failure().is_some_and(|e| e.is_transient())
    }
}

impl std::fmt::Display for MigrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationError::VersionMismatch { from, to } => write!(
                f,
                "migration version mismatch: {} has v{} but {} has v{}",
                from.0, from.1, to.0, to.1
            ),
            MigrationError::TargetRefused(h) => write!(f, "target {h} refused the process"),
            MigrationError::AlreadyThere(p) => write!(f, "{p} is already on the target host"),
            MigrationError::NotMigratable(p, why) => write!(f, "{p} cannot migrate: {why}"),
            MigrationError::Rpc(e) => write!(f, "rpc failed: {e}"),
            MigrationError::Kernel(e) => write!(f, "kernel: {e}"),
        }
    }
}

impl std::error::Error for MigrationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MigrationError::Rpc(e) => Some(e),
            MigrationError::Kernel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KernelError> for MigrationError {
    fn from(e: KernelError) -> Self {
        match e {
            KernelError::Rpc(rpc) => MigrationError::Rpc(rpc),
            other => MigrationError::Kernel(other),
        }
    }
}

impl From<FsError> for MigrationError {
    fn from(e: FsError) -> Self {
        match e {
            FsError::Rpc(rpc) => MigrationError::Rpc(rpc),
            other => MigrationError::Kernel(KernelError::Fs(other)),
        }
    }
}

impl From<RpcError> for MigrationError {
    fn from(e: RpcError) -> Self {
        MigrationError::Rpc(e)
    }
}

impl From<SendError> for MigrationError {
    fn from(e: SendError) -> Self {
        MigrationError::Rpc(e.into())
    }
}

/// Result alias for migration operations.
pub type MigrationResult<T> = Result<T, MigrationError>;

/// Time spent in each phase of one migration — the rows of the paper's
/// cost-breakdown table (E1).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseBreakdown {
    /// Negotiation RPC with the target.
    pub negotiate: SimDuration,
    /// Virtual-memory transfer (flush / copy / page tables).
    pub virtual_memory: SimDuration,
    /// Open-stream transfer through the I/O servers.
    pub streams: SimDuration,
    /// Encapsulating and shipping the process/signal/scheduling state.
    pub process_state: SimDuration,
    /// Commit + home notification + resume.
    pub commit: SimDuration,
}

impl PhaseBreakdown {
    /// Total across phases.
    pub fn total(&self) -> SimDuration {
        self.negotiate + self.virtual_memory + self.streams + self.process_state + self.commit
    }
}

/// What one migration did and cost.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// The migrated process.
    pub pid: ProcessId,
    /// Source host.
    pub from: HostId,
    /// Target host.
    pub to: HostId,
    /// Time the process could execute nowhere.
    pub freeze_time: SimDuration,
    /// Wall-clock time for the whole protocol.
    pub total_time: SimDuration,
    /// Per-phase costs.
    pub phases: PhaseBreakdown,
    /// The VM transfer's own report (absent for exec-time migration, which
    /// moves no VM at all).
    pub vm: Option<TransferReport>,
    /// Streams transferred.
    pub streams_moved: u64,
    /// Streams that became shadowed (shared across hosts) by this move.
    pub shadows_created: u64,
    /// When the process resumed on the target.
    pub resumed_at: SimTime,
}

/// Aggregate migration activity.
#[derive(Debug, Clone, Copy, Default)]
pub struct MigrationTotals {
    /// Successful migrations (including evictions and exec-time).
    pub migrations: u64,
    /// Of which were at exec time.
    pub exec_migrations: u64,
    /// Of which were evictions back home.
    pub evictions: u64,
    /// Migrations refused or failed.
    pub failures: u64,
    /// Of the failures, migrations aborted *after* the freeze point and
    /// rolled back: the process was thawed runnable at the source, exactly
    /// once, on exactly one host (counted in `failures` too).
    pub aborts: u64,
    /// Sum of freeze time across migrations.
    pub total_freeze: SimDuration,
}

/// The migration engine.
///
/// # Examples
///
/// ```
/// use sprite_core::{MigrationConfig, Migrator};
/// use sprite_fs::SpritePath;
/// use sprite_kernel::Cluster;
/// use sprite_net::{CostModel, HostId};
/// use sprite_sim::SimTime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut cluster = Cluster::new(CostModel::sun3(), 3);
/// cluster.add_file_server(HostId::new(0), SpritePath::new("/"));
/// let t = cluster.install_program(SimTime::ZERO, SpritePath::new("/bin/sim"), 32 * 1024)?;
/// let (pid, t) = cluster.spawn(t, HostId::new(1), &SpritePath::new("/bin/sim"), 64, 16)?;
///
/// let mut migrator = Migrator::new(MigrationConfig::default(), cluster.host_count());
/// let report = migrator.migrate(&mut cluster, t, pid, HostId::new(2))?;
/// assert_eq!(cluster.pcb(pid).unwrap().current, HostId::new(2));
/// println!("froze for {}", report.freeze_time);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Migrator {
    config: MigrationConfig,
    /// Per-host migration protocol version (Ch. 4.4).
    versions: Vec<u32>,
    totals: MigrationTotals,
}

impl Migrator {
    /// Creates a migration engine for a cluster of `hosts`, all running the
    /// same migration version.
    pub fn new(config: MigrationConfig, hosts: usize) -> Self {
        Migrator {
            config,
            versions: vec![1; hosts],
            totals: MigrationTotals::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MigrationConfig {
        &self.config
    }

    /// Replaces the VM strategy (the E2 sweep uses this).
    pub fn set_vm_strategy(&mut self, strategy: VmStrategy) {
        self.config.vm_strategy = strategy;
    }

    /// Marks `host` as running migration version `v` (simulating a kernel
    /// upgraded ahead of its peers).
    pub fn set_kernel_version(&mut self, host: HostId, v: u32) {
        self.versions[host.index()] = v;
    }

    /// Aggregate counters.
    pub fn totals(&self) -> MigrationTotals {
        self.totals
    }

    fn validate(&self, cluster: &Cluster, pid: ProcessId, to: HostId) -> MigrationResult<HostId> {
        let pcb = cluster
            .pcb(pid)
            .ok_or(MigrationError::Kernel(KernelError::NoSuchProcess(pid)))?;
        let from = pcb.current;
        if from == to {
            return Err(MigrationError::AlreadyThere(pid));
        }
        let (vf, vt) = (self.versions[from.index()], self.versions[to.index()]);
        if vf != vt {
            return Err(MigrationError::VersionMismatch {
                from: (from, vf),
                to: (to, vt),
            });
        }
        if pcb.shares_writable_memory {
            return Err(MigrationError::NotMigratable(
                pid,
                "shares writable memory with another process",
            ));
        }
        if self.config.respect_console && cluster.host(to).console_active {
            return Err(MigrationError::TargetRefused(to));
        }
        Ok(from)
    }

    /// Size of the encapsulated process state: PCB plus per-stream and
    /// per-signal records (Ch. 4.2 lists the modules).
    fn process_state_bytes(cluster: &Cluster, pid: ProcessId) -> u64 {
        let pcb = cluster.pcb(pid).expect("validated");
        1024 + 256 * pcb.open_fds().count() as u64 + 64 * pcb.pending_signals.len() as u64
    }

    /// Aborts a migration that failed after the freeze point: streams
    /// already moved to the target come back, the process thaws, and it is
    /// runnable at the source as though the migration never started —
    /// "on any error the process keeps running at the source". Returns the
    /// error so call sites can `return Err(self.abort(...))`.
    #[expect(clippy::too_many_arguments)]
    fn abort(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        pid: ProcessId,
        from: HostId,
        to: HostId,
        moved_streams: &[StreamId],
        err: MigrationError,
    ) -> MigrationError {
        let mut t = now;
        for stream in moved_streams {
            // Moving a stream back crosses the same faulty network. If the
            // undo is lost too, the I/O server keeps the target-side open
            // record; the server is the synchronization point, so the
            // record re-syncs at the stream's next successful operation.
            match cluster
                .fs
                .migrate_stream(&mut cluster.net, t, *stream, to, from, 1)
            {
                Ok((_, t2)) => t = t2,
                Err(FsError::Rpc(e)) => {
                    t = e.at();
                    cluster.trace.record(t, "fault", || {
                        format!("{pid} abort: stream undo to {from} lost: {e}")
                    });
                }
                Err(_) => {}
            }
        }
        // The freeze/thaw pair is local state; thaw cannot fail here
        // because abort only runs once, on a process this call froze.
        cluster.thaw(pid).expect("aborting a frozen process");
        self.totals.failures += 1;
        self.totals.aborts += 1;
        cluster.trace.record(t, "fault", || {
            format!("{pid} migration {from} -> {to} aborted, runnable at source: {err}")
        });
        err
    }

    /// Migrates `pid` to `to`, moving its entire execution state.
    ///
    /// # Errors
    ///
    /// See [`MigrationError`]; on any error the process keeps running at the
    /// source as though nothing happened.
    pub fn migrate(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        pid: ProcessId,
        to: HostId,
    ) -> MigrationResult<MigrationReport> {
        let from = match self.validate(cluster, pid, to) {
            Ok(f) => f,
            Err(e) => {
                self.totals.failures += 1;
                return Err(e);
            }
        };
        let mut phases = PhaseBreakdown::default();

        // Phase 1: negotiation — will the target take it? A transport
        // failure here costs nothing to undo: the process never froze.
        let t = match cluster
            .net
            .send(RpcOp::MigrateNegotiate, now, from, to, None)
        {
            Ok(d) => d.done,
            Err(e) => {
                self.totals.failures += 1;
                return Err(e.into());
            }
        };
        phases.negotiate = t.elapsed_since(now);

        // Phase 2: freeze at a safe point. From here on, every failure
        // goes through [`Migrator::abort`] so the process thaws runnable
        // at the source.
        cluster.freeze(pid)?;
        let frozen_at = t;

        // Phase 3: virtual memory, by the configured strategy. The address
        // space is taken out of the PCB while the transfer engine works on
        // it, then reinstalled — mirroring how Sprite's VM module
        // encapsulated its own state independent of the process module. A
        // failed transfer leaves every page where it was (see
        // [`sprite_vm::transfer`]), so the abort has no VM state to undo.
        let space = cluster.pcb_mut(pid).expect("validated").space.take();
        let (vm_report, t) = match space {
            Some(mut sp) => {
                let r = transfer(
                    &mut sp,
                    self.config.vm_strategy,
                    &mut cluster.fs,
                    &mut cluster.net,
                    t,
                    from,
                    to,
                    &self.config.transfer_params,
                );
                cluster.pcb_mut(pid).expect("validated").space = Some(sp);
                match r {
                    Ok(r) => {
                        let done = r.resumed_at;
                        (Some(r), done)
                    }
                    Err(e) => {
                        let at = match &e {
                            FsError::Rpc(rpc) => rpc.at(),
                            _ => t,
                        };
                        return Err(self.abort(cluster, at, pid, from, to, &[], e.into()));
                    }
                }
            }
            None => (None, t),
        };
        phases.virtual_memory = t.elapsed_since(frozen_at);

        // Phase 4: open streams, one I/O-server update each. On failure,
        // streams that already moved come back in the abort.
        let fds: Vec<_> = cluster
            .pcb(pid)
            .expect("validated")
            .open_fds()
            .map(|(_, s)| s)
            .collect();
        let streams_start = t;
        let mut t = t;
        let mut shadows = 0u64;
        let mut moved: Vec<StreamId> = Vec::new();
        for stream in &fds {
            match cluster
                .fs
                .migrate_stream(&mut cluster.net, t, *stream, from, to, 1)
            {
                Ok((outcome, t2)) => {
                    if outcome.shadowed {
                        shadows += 1;
                    }
                    t = t2;
                    moved.push(*stream);
                }
                Err(e) => {
                    let at = match &e {
                        FsError::Rpc(rpc) => rpc.at(),
                        _ => t,
                    };
                    return Err(self.abort(cluster, at, pid, from, to, &moved, e.into()));
                }
            }
        }
        phases.streams = t.elapsed_since(streams_start);

        // Phase 5: the process module's own state.
        let state_start = t;
        let bytes = Self::process_state_bytes(cluster, pid);
        let pack = cluster.net.cost().process_state_pack;
        let t = match cluster
            .net
            .stream_bulk(RpcOp::MigrateState, t + pack, from, to, bytes)
        {
            Ok(d) => d.done + pack,
            Err(e) => {
                let at = e.at();
                return Err(self.abort(cluster, at, pid, from, to, &fds, e.into()));
            }
        };
        phases.process_state = t.elapsed_since(state_start);

        // A move across hardware classes pays a kernel-state translation
        // surcharge before the process may resume: machine-dependent state
        // (register layout, page-table shape) is re-encoded for the
        // destination class, scaling with the resident image. Same-class
        // moves pay nothing, so homogeneous clusters are unaffected.
        let resident = cluster
            .pcb(pid)
            .expect("validated")
            .space
            .as_ref()
            .map_or(0, |s| s.resident_pages());
        let t = t + cluster.translation_surcharge(from, to, resident);

        // Phase 6: commit — rebind the process, tell the home kernel, resume.
        // Relocation is the local atomic rebind (it updates the home
        // kernel's forwarding pointer with it); a lost commit notification
        // only delays the home kernel's bookkeeping, so it is best-effort.
        let commit_start = t;
        cluster.relocate(pid, to)?;
        let home = pid.home();
        let mut t = t;
        if to != home && from != home {
            // Neither endpoint is the home kernel; it learns by RPC.
            match cluster.net.send(RpcOp::MigrateCommit, t, to, home, None) {
                Ok(d) => t = d.done,
                Err(e) => {
                    t = e.at();
                    cluster.trace.record(t, "fault", || {
                        format!("{pid} commit notify to {home} lost: {e}")
                    });
                }
            }
        }
        t += cluster.net.cost().context_switch;
        cluster.thaw(pid)?;
        phases.commit = t.elapsed_since(commit_start);

        let freeze_time = match &vm_report {
            // The process ran during pre-copy rounds; only the final round
            // (plus everything after it) counts as frozen.
            Some(r) => t.elapsed_since(frozen_at) - (r.total_time - r.freeze_time),
            None => t.elapsed_since(frozen_at),
        };
        self.totals.migrations += 1;
        self.totals.total_freeze += freeze_time;
        cluster.trace.record(t, "migrate", || {
            format!("{pid} migrated {from} -> {to} (froze {freeze_time})")
        });
        Ok(MigrationReport {
            pid,
            from,
            to,
            freeze_time,
            total_time: t.elapsed_since(now),
            phases,
            vm: vm_report,
            streams_moved: fds.len() as u64,
            shadows_created: shadows,
            resumed_at: t,
        })
    }

    /// Exec-time migration: replace the image with `program` *on another
    /// host*. "If migration occurs during an exec, the new address space is
    /// created on the destination machine so there is no virtual memory to
    /// transfer" (Ch. 4.2.1).
    #[expect(clippy::too_many_arguments)]
    pub fn exec_migrate(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        pid: ProcessId,
        to: HostId,
        program: &SpritePath,
        heap_pages: u64,
        stack_pages: u64,
    ) -> MigrationResult<MigrationReport> {
        let from = match self.validate(cluster, pid, to) {
            Ok(f) => f,
            Err(e) => {
                self.totals.failures += 1;
                return Err(e);
            }
        };
        let mut phases = PhaseBreakdown::default();
        let t = match cluster
            .net
            .send(RpcOp::MigrateNegotiate, now, from, to, None)
        {
            Ok(d) => d.done,
            Err(e) => {
                self.totals.failures += 1;
                return Err(e.into());
            }
        };
        phases.negotiate = t.elapsed_since(now);
        cluster.freeze(pid)?;
        let frozen_at = t;

        // The old image is kept until the streams and process state have
        // safely crossed: the exec has not happened yet, so an aborted
        // exec-migration must leave the process able to keep running (and
        // exec locally) at the source. Discarding it here used to make
        // mid-protocol faults unrecoverable.
        phases.virtual_memory = SimDuration::ZERO;

        // Streams survive exec (modulo close-on-exec, not modelled) and
        // must follow the process.
        let fds: Vec<_> = cluster
            .pcb(pid)
            .expect("validated")
            .open_fds()
            .map(|(_, s)| s)
            .collect();
        let mut t = t;
        let mut shadows = 0u64;
        let mut moved: Vec<StreamId> = Vec::new();
        for stream in &fds {
            match cluster
                .fs
                .migrate_stream(&mut cluster.net, t, *stream, from, to, 1)
            {
                Ok((outcome, t2)) => {
                    if outcome.shadowed {
                        shadows += 1;
                    }
                    t = t2;
                    moved.push(*stream);
                }
                Err(e) => {
                    let at = match &e {
                        FsError::Rpc(rpc) => rpc.at(),
                        _ => t,
                    };
                    return Err(self.abort(cluster, at, pid, from, to, &moved, e.into()));
                }
            }
        }
        phases.streams = t.elapsed_since(frozen_at);

        let state_start = t;
        let bytes = Self::process_state_bytes(cluster, pid) + 2048; // plus exec arguments/environment
        let pack = cluster.net.cost().process_state_pack;
        let t = match cluster
            .net
            .stream_bulk(RpcOp::MigrateState, t + pack, from, to, bytes)
        {
            Ok(d) => d.done + pack,
            Err(e) => {
                let at = e.at();
                return Err(self.abort(cluster, at, pid, from, to, &fds, e.into()));
            }
        };
        phases.process_state = t.elapsed_since(state_start);

        // The point of no return: discard the image, rebind, resume on
        // the target. The commit notification is best-effort, as in
        // [`Migrator::migrate`].
        let commit_start = t;
        cluster.pcb_mut(pid).expect("validated").space = None;
        cluster.relocate(pid, to)?;
        cluster.thaw(pid)?;
        let home = pid.home();
        let mut t = t;
        if to != home && from != home {
            match cluster.net.send(RpcOp::MigrateCommit, t, to, home, None) {
                Ok(d) => t = d.done,
                Err(e) => {
                    t = e.at();
                    cluster.trace.record(t, "fault", || {
                        format!("{pid} commit notify to {home} lost: {e}")
                    });
                }
            }
        }
        // The exec itself now runs on the target host.
        let t = match cluster.exec(t, pid, program, heap_pages, stack_pages) {
            Ok(t) => t,
            Err(e) => {
                // Post-commit: the process is already rebound to the
                // target; a failed exec surfaces like a local exec failure
                // there, with the process alive and imageless.
                self.totals.failures += 1;
                return Err(e.into());
            }
        };
        phases.commit = t.elapsed_since(commit_start);

        let freeze_time = t.elapsed_since(frozen_at);
        self.totals.migrations += 1;
        self.totals.exec_migrations += 1;
        self.totals.total_freeze += freeze_time;
        cluster.trace.record(t, "migrate", || {
            format!("{pid} exec-migrated {from} -> {to} running {program}")
        });
        Ok(MigrationReport {
            pid,
            from,
            to,
            freeze_time,
            total_time: t.elapsed_since(now),
            phases,
            vm: None,
            streams_moved: fds.len() as u64,
            shadows_created: shadows,
            resumed_at: t,
        })
    }

    /// Evicts every foreign process from `host`, migrating each back to its
    /// home machine — what happens when a workstation's owner returns
    /// (Ch. 8.3). Returns the individual reports; the host is foreign-free
    /// afterwards.
    pub fn evict_all(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        host: HostId,
    ) -> MigrationResult<Vec<MigrationReport>> {
        let foreign: Vec<_> = cluster.foreign_on(host).collect();
        let mut reports = Vec::with_capacity(foreign.len());
        let mut t = now;
        for pid in foreign {
            let home = pid.home();
            let mut attempts = 0u32;
            let report = loop {
                // Eviction must succeed even if the owner is at the home
                // console — it is the user's own process coming back.
                let respect = std::mem::replace(&mut self.config.respect_console, false);
                let r = self.migrate(cluster, t, pid, home);
                self.config.respect_console = respect;
                match r {
                    Ok(report) => break report,
                    Err(e) => {
                        attempts += 1;
                        // Transient losses retry (the abort already rolled
                        // the process back to runnable here); persistent
                        // faults and non-transport errors surface.
                        if attempts >= EVICTION_RETRY_LIMIT || !e.is_transient() {
                            return Err(e);
                        }
                        if let Some(rpc) = e.rpc_failure() {
                            t = rpc.at();
                        }
                        cluster.trace.record(t, "fault", || {
                            format!("eviction of {pid} retrying after {e}")
                        });
                    }
                }
            };
            t = report.resumed_at;
            self.totals.evictions += 1;
            reports.push(report);
        }
        Ok(reports)
    }

    /// Eviction with re-selection: instead of sending every evicted process
    /// straight home (where its owner may be working), ask the given
    /// candidate list for another idle host first, falling back home only
    /// when none accepts. The thesis discusses this alternative — evicted
    /// long-running jobs would rather keep their borrowed speed than crowd
    /// the home machine (Ch. 8.3).
    ///
    /// `candidates` is the eviction-time pick order (typically from the
    /// host-selection facility); hosts that refuse (console active, version
    /// skew) are skipped. Returns the reports plus how many processes found
    /// a new foreign host rather than going home.
    pub fn evict_all_reselecting(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        host: HostId,
        candidates: &[HostId],
    ) -> MigrationResult<(Vec<MigrationReport>, usize)> {
        let foreign: Vec<_> = cluster.foreign_on(host).collect();
        let mut reports = Vec::with_capacity(foreign.len());
        let mut resettled = 0usize;
        let mut t = now;
        let mut next_candidate = 0usize;
        for pid in foreign {
            let mut placed = None;
            while next_candidate < candidates.len() {
                let target = candidates[next_candidate];
                next_candidate += 1;
                if target == host || target == pid.home() {
                    continue;
                }
                match self.migrate(cluster, t, pid, target) {
                    Ok(report) => {
                        placed = Some(report);
                        break;
                    }
                    Err(MigrationError::TargetRefused(_))
                    | Err(MigrationError::VersionMismatch { .. }) => continue,
                    // A candidate behind a lossy or severed link is as
                    // useless as one that refused; try the next.
                    Err(e) if e.rpc_failure().is_some() => {
                        if let Some(rpc) = e.rpc_failure() {
                            t = rpc.at();
                        }
                        continue;
                    }
                    Err(other) => return Err(other),
                }
            }
            let report = match placed {
                Some(r) => {
                    resettled += 1;
                    r
                }
                None => {
                    let respect = std::mem::replace(&mut self.config.respect_console, false);
                    let r = self.migrate(cluster, t, pid, pid.home());
                    self.config.respect_console = respect;
                    r?
                }
            };
            t = report.resumed_at;
            self.totals.evictions += 1;
            reports.push(report);
        }
        Ok((reports, resettled))
    }
}
