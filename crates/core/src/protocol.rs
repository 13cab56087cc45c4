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
//! 6. **resume** — the target thaws the process; a best-effort notice tells
//!    the home kernel when neither endpoint is home.
//!
//! Each phase has one implementation, a private `Migrator` helper, and the
//! entry points are straight-line sequences of those helpers.
//! [`Migrator::migrate`] adds the VM transfer to step 4 and the context
//! switch to step 6. Exec-time migration ([`Migrator::exec_migrate`])
//! skips the VM transfer entirely: the old image is discarded at the commit
//! and the new program demand-pages on the target, which is why Sprite
//! steers most migrations through `exec` (Ch. 4.2.1). A failure before the
//! commit leaves the process runnable at the source; an exec that fails
//! after it kills the process, whose old image is gone. Eviction
//! ([`Migrator::evict_all`], [`Migrator::evict_all_reselecting`]) is a
//! migration home (Ch. 8.3) that retries a transient loss.

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
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            vm_strategy: VmStrategy::SpriteFlush,
            transfer_params: TransferParams::default(),
        }
    }
}

/// Why a migration failed. Failures before the commit leave the process
/// runnable at the source — migration is all-or-nothing from the process's
/// viewpoint. Only an exec that fails after an exec-time migration's commit
/// kills the process, as a failed exec past its point of no return would.
#[derive(Debug)]
pub enum MigrationError {
    /// The two kernels implement different migration protocols.
    VersionMismatch {
        /// Source host and its version.
        from: (HostId, u32),
        /// Target host and its version.
        to: (HostId, u32),
    },
    /// The target declined (owner at console, or capacity policy). A
    /// process's own home never refuses it.
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
        // An owner at the console refuses guests, but not the user's own
        // process coming back home.
        if cluster.host(to).console_active && to != pid.home() {
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

    /// Validates the move, asks the target to accept the process, and
    /// freezes it at a safe point. A failure counts once and leaves nothing
    /// to undo: the process never froze.
    fn negotiate_and_freeze(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        pid: ProcessId,
        to: HostId,
    ) -> MigrationResult<Move> {
        let negotiated = self.validate(cluster, pid, to).and_then(|from| {
            let d = cluster
                .net
                .send(RpcOp::MigrateNegotiate, now, from, to, None)?;
            Ok((from, d.done))
        });
        let (from, frozen_at) = negotiated.inspect_err(|_| self.totals.failures += 1)?;
        cluster.freeze(pid)?;
        Ok(Move {
            pid,
            from,
            to,
            started: now,
            frozen_at,
            phases: PhaseBreakdown {
                negotiate: frozen_at.elapsed_since(now),
                ..PhaseBreakdown::default()
            },
            vm: None,
            streams_moved: 0,
            shadows_created: 0,
        })
    }

    /// Moves the virtual memory by the configured strategy. The address
    /// space is taken out of the PCB while the transfer engine works on it,
    /// then reinstalled — mirroring how Sprite's VM module encapsulated its
    /// own state independent of the process module. A failed transfer
    /// leaves every page where it was (see [`sprite_vm::transfer`]), so the
    /// abort has no VM state to undo.
    fn transfer_vm(&mut self, cluster: &mut Cluster, mv: &mut Move) -> MigrationResult<SimTime> {
        let t = mv.frozen_at;
        let Some(mut space) = cluster.pcb_mut(mv.pid).expect("validated").space.take() else {
            return Ok(t);
        };
        let moved = transfer(
            &mut space,
            self.config.vm_strategy,
            &mut cluster.fs,
            &mut cluster.net,
            t,
            mv.from,
            mv.to,
            &self.config.transfer_params,
        );
        cluster.pcb_mut(mv.pid).expect("validated").space = Some(space);
        let report = moved.map_err(|e| self.abort(cluster, t, mv, &[], e.into()))?;
        mv.phases.virtual_memory = report.resumed_at.elapsed_since(t);
        mv.vm = Some(report);
        Ok(report.resumed_at)
    }

    /// Moves the open streams, one I/O-server update each, then ships the
    /// process module's own state plus `extra_bytes`. A failed stream
    /// aborts with the streams moved so far, and a failed state transfer
    /// aborts with all of them.
    fn move_streams_and_state(
        &mut self,
        cluster: &mut Cluster,
        mv: &mut Move,
        start: SimTime,
        extra_bytes: u64,
    ) -> MigrationResult<SimTime> {
        let fds: Vec<StreamId> = cluster
            .pcb(mv.pid)
            .expect("validated")
            .open_fds()
            .map(|(_, s)| s)
            .collect();
        let mut t = start;
        for (i, &stream) in fds.iter().enumerate() {
            match cluster
                .fs
                .migrate_stream(&mut cluster.net, t, stream, mv.from, mv.to, 1)
            {
                Ok((outcome, t2)) => {
                    mv.shadows_created += u64::from(outcome.shadowed);
                    t = t2;
                }
                Err(e) => return Err(self.abort(cluster, t, mv, &fds[..i], e.into())),
            }
        }
        mv.phases.streams = t.elapsed_since(start);
        mv.streams_moved = fds.len() as u64;

        let state_start = t;
        let bytes = Self::process_state_bytes(cluster, mv.pid) + extra_bytes;
        let pack = cluster.net.cost().process_state_pack;
        let t = match cluster
            .net
            .stream_bulk(RpcOp::MigrateState, t + pack, mv.from, mv.to, bytes)
        {
            Ok(d) => d.done + pack,
            Err(e) => return Err(self.abort(cluster, t, mv, &fds, e.into())),
        };
        mv.phases.process_state = t.elapsed_since(state_start);
        Ok(t)
    }

    /// Aborts a migration that failed after the freeze point: streams
    /// already moved to the target come back, the process thaws, and it is
    /// runnable at the source as though the migration never started —
    /// "on any error the process keeps running at the source". The undo
    /// starts when the failed send gave up (`now` if no send failed).
    /// Returns the error so call sites can `return Err(self.abort(...))`.
    fn abort(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        mv: &Move,
        moved_streams: &[StreamId],
        err: MigrationError,
    ) -> MigrationError {
        let Move { pid, from, to, .. } = *mv;
        let mut t = err.rpc_failure().map_or(now, RpcError::at);
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

    /// Commits the move: the local atomic rebind (which updates the home
    /// kernel's forwarding pointer with it), the thaw, and then the
    /// commit notice to the home kernel when neither endpoint is home. A
    /// lost notice only delays the home kernel's bookkeeping, so it is
    /// best-effort.
    fn commit(cluster: &mut Cluster, mv: &Move, t: SimTime) -> MigrationResult<SimTime> {
        let Move { pid, from, to, .. } = *mv;
        cluster.relocate(pid, to)?;
        cluster.thaw(pid)?;
        let home = pid.home();
        if to == home || from == home {
            return Ok(t);
        }
        match cluster.net.send(RpcOp::MigrateCommit, t, to, home, None) {
            Ok(d) => Ok(d.done),
            Err(e) => {
                let t = e.at();
                cluster.trace.record(t, "fault", || {
                    format!("{pid} commit notify to {home} lost: {e}")
                });
                Ok(t)
            }
        }
    }

    /// Counts the finished move and builds its report. The process ran
    /// during pre-copy rounds, so only the final round (plus everything
    /// after it) counts as frozen.
    fn finish(&mut self, mv: Move, t: SimTime) -> MigrationReport {
        let ran = mv
            .vm
            .as_ref()
            .map_or(SimDuration::ZERO, |r| r.total_time - r.freeze_time);
        let freeze_time = t.elapsed_since(mv.frozen_at) - ran;
        self.totals.migrations += 1;
        self.totals.total_freeze += freeze_time;
        MigrationReport {
            pid: mv.pid,
            from: mv.from,
            to: mv.to,
            freeze_time,
            total_time: t.elapsed_since(mv.started),
            phases: mv.phases,
            vm: mv.vm,
            streams_moved: mv.streams_moved,
            shadows_created: mv.shadows_created,
            resumed_at: t,
        }
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
        let mut mv = self.negotiate_and_freeze(cluster, now, pid, to)?;
        let t = self.transfer_vm(cluster, &mut mv)?;
        let t = self.move_streams_and_state(cluster, &mut mv, t, 0)?;

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
        let commit_start = t + cluster.translation_surcharge(mv.from, to, resident);
        let t = Self::commit(cluster, &mv, commit_start)? + cluster.net.cost().context_switch;
        mv.phases.commit = t.elapsed_since(commit_start);

        let report = self.finish(mv, t);
        cluster.trace.record(t, "migrate", || {
            format!(
                "{pid} migrated {} -> {to} (froze {})",
                report.from, report.freeze_time
            )
        });
        Ok(report)
    }

    /// Exec-time migration: replace the image with `program` *on another
    /// host*. "If migration occurs during an exec, the new address space is
    /// created on the destination machine so there is no virtual memory to
    /// transfer" (Ch. 4.2.1).
    ///
    /// # Errors
    ///
    /// See [`MigrationError`]. A failure before the commit leaves the
    /// process running its old image at the source. Past the commit the old
    /// image is gone, so an exec that then fails kills the process, as a
    /// failed exec past its point of no return does on any Unix.
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
        let mut mv = self.negotiate_and_freeze(cluster, now, pid, to)?;
        // The old image is kept until the streams and process state have
        // safely crossed: the exec has not happened yet, so an aborted
        // exec-migration must leave the process able to keep running (and
        // exec locally) at the source. Streams survive exec (modulo
        // close-on-exec, not modelled) and must follow the process; the
        // state carries the exec arguments and environment.
        let frozen_at = mv.frozen_at;
        let t = self.move_streams_and_state(cluster, &mut mv, frozen_at, EXEC_ARGS_BYTES)?;

        // The point of no return: free the old image at the source (which
        // unlinks any swap files it created), rebind, resume on the
        // target, where the exec itself now runs.
        let commit_start = t;
        let t = cluster.free_space(t, pid);
        let t = Self::commit(cluster, &mv, t)?;
        let t = match cluster.exec(t, pid, program, heap_pages, stack_pages) {
            Ok(t) => t,
            Err(e) => {
                let e = MigrationError::from(e);
                let at = e.rpc_failure().map_or(t, RpcError::at);
                // Exit is fail-stop local: the process dies here whatever
                // the network does, with the status a crash kill uses.
                let _ = cluster.exit(at, pid, 128 + 9);
                self.totals.failures += 1;
                return Err(e);
            }
        };
        mv.phases.commit = t.elapsed_since(commit_start);

        let report = self.finish(mv, t);
        self.totals.exec_migrations += 1;
        cluster.trace.record(t, "migrate", || {
            format!(
                "{pid} exec-migrated {} -> {to} running {program}",
                report.from
            )
        });
        Ok(report)
    }

    /// Evicts every foreign process from `host`, migrating each back to its
    /// home machine — what happens when a workstation's owner returns
    /// (Ch. 8.3). Returns the individual reports; the host is foreign-free
    /// afterwards. This is [`Migrator::evict_all_reselecting`] with no
    /// candidates.
    pub fn evict_all(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        host: HostId,
    ) -> MigrationResult<Vec<MigrationReport>> {
        self.evict_all_reselecting(cluster, now, host, &[])
            .map(|(reports, _)| reports)
    }

    /// Eviction with re-selection: instead of sending every evicted process
    /// straight home (where its owner may be working), ask the given
    /// candidate list for another idle host first, falling back home only
    /// when none accepts. The thesis discusses this alternative — evicted
    /// long-running jobs would rather keep their borrowed speed than crowd
    /// the home machine (Ch. 8.3).
    ///
    /// `candidates` is the eviction-time pick order (typically from the
    /// host-selection facility), shared by all the evicted processes in
    /// turn; hosts that refuse (console active, version skew) are skipped.
    /// The trip home retries a transient loss up to
    /// [`EVICTION_RETRY_LIMIT`] times, and is accepted even with the owner
    /// at the home console. Returns the reports plus how many processes
    /// found a new foreign host rather than going home.
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
        let mut candidates = candidates.iter().copied();
        for pid in foreign {
            let mut placed = None;
            for target in candidates.by_ref() {
                if target == host || target == pid.home() {
                    continue;
                }
                match self.migrate(cluster, t, pid, target) {
                    Ok(report) => {
                        placed = Some(report);
                        break;
                    }
                    Err(MigrationError::TargetRefused(_))
                    | Err(MigrationError::VersionMismatch { .. }) => {}
                    // A candidate behind a lossy or severed link is as
                    // useless as one that refused; try the next.
                    Err(e) => match e.rpc_failure() {
                        Some(rpc) => t = rpc.at(),
                        None => return Err(e),
                    },
                }
            }
            let report = match placed {
                Some(r) => {
                    resettled += 1;
                    r
                }
                None => self.migrate_home(cluster, t, pid)?,
            };
            t = report.resumed_at;
            self.totals.evictions += 1;
            reports.push(report);
        }
        Ok((reports, resettled))
    }

    /// Migrates `pid` home for an eviction. The owner wants the
    /// workstation back, so a transient loss (the abort already rolled the
    /// process back to runnable here) retries from when it gave up;
    /// persistent faults and non-transport errors surface.
    fn migrate_home(
        &mut self,
        cluster: &mut Cluster,
        mut t: SimTime,
        pid: ProcessId,
    ) -> MigrationResult<MigrationReport> {
        let mut attempts = 0u32;
        loop {
            let e = match self.migrate(cluster, t, pid, pid.home()) {
                Ok(report) => return Ok(report),
                Err(e) => e,
            };
            attempts += 1;
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
}

/// Bytes of exec arguments and environment that ride along with the
/// process state of an exec-time migration.
const EXEC_ARGS_BYTES: u64 = 2048;

/// One migration in flight: who moves where, when it started and froze,
/// and what each phase has cost and moved so far.
struct Move {
    pid: ProcessId,
    from: HostId,
    to: HostId,
    started: SimTime,
    frozen_at: SimTime,
    phases: PhaseBreakdown,
    vm: Option<TransferReport>,
    streams_moved: u64,
    shadows_created: u64,
}
