//! The parallel build engine.
//!
//! Drives a [`DepGraph`] to completion on a simulated Sprite cluster:
//! ready targets are launched by a controller process at the home
//! workstation, each as a fresh process that is *exec-time migrated* to an
//! idle host chosen by the host-selection facility — exactly the structure
//! of Sprite's pmake (Ch. 7.4). Compilations read their sources and write
//! their objects through the shared file system, so the file server's CPU
//! and the Ethernet are genuinely contended; the sequential link step at
//! the end is the Amdahl bottleneck.
//!
//! The baseline configuration (`use_migration = false`) runs every job on
//! the home host, giving the serial time the speedup figures divide by.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sprite_sim::{DetHashMap, DetHashSet};

use sprite_core::{MigrationError, Migrator};
use sprite_fs::{FsError, OpenMode, SpritePath};
use sprite_hostsel::{HostInfo, HostSelector};
use sprite_kernel::{Cluster, KernelError, ProcessId};
use sprite_net::HostId;
use sprite_sim::{SimDuration, SimTime};

use crate::graph::{Action, DepGraph, Readiness};

/// Build-engine tunables.
#[derive(Debug, Clone)]
pub struct PmakeConfig {
    /// Controller bookkeeping per job launch (dependency analysis, fork).
    pub launch_overhead: SimDuration,
    /// Ship jobs to idle hosts (true) or run everything at home (baseline).
    pub use_migration: bool,
    /// Maximum jobs in flight at once (pmake's job window).
    pub max_parallel: usize,
    /// Compile jobs allowed to run concurrently on the home host itself.
    /// Real pmake kept the user's own machine responsive by running at most
    /// a job or two locally; unplaced jobs *wait* for a host to free up
    /// rather than piling onto the home CPU.
    pub local_slots: usize,
}

impl Default for PmakeConfig {
    fn default() -> Self {
        PmakeConfig {
            launch_overhead: SimDuration::from_millis(50),
            use_migration: true,
            max_parallel: 64,
            local_slots: 1,
        }
    }
}

/// What a build run did.
#[derive(Debug, Clone)]
pub struct PmakeReport {
    /// Wall-clock time from start to the last target's completion.
    pub makespan: SimDuration,
    /// When the build finished.
    pub finished_at: SimTime,
    /// Targets built.
    pub targets_built: usize,
    /// Jobs that ran on a remote (migrated-to) host.
    pub remote_builds: usize,
    /// Jobs that ran at home.
    pub local_builds: usize,
    /// Total CPU consumed by build jobs.
    pub total_cpu: SimDuration,
    /// `total_cpu / makespan` — the "effective processor utilization" the
    /// thesis reports (≈3.0 for a 12-way pmake).
    pub effective_parallelism: f64,
}

/// Why a build failed.
#[derive(Debug)]
pub enum PmakeError {
    /// Kernel-level failure.
    Kernel(KernelError),
    /// Migration failure that was not a simple refusal.
    Migration(MigrationError),
}

impl std::fmt::Display for PmakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmakeError::Kernel(e) => write!(f, "kernel: {e}"),
            PmakeError::Migration(e) => write!(f, "migration: {e}"),
        }
    }
}

impl std::error::Error for PmakeError {}

impl From<KernelError> for PmakeError {
    fn from(e: KernelError) -> Self {
        PmakeError::Kernel(e)
    }
}

impl From<FsError> for PmakeError {
    fn from(e: FsError) -> Self {
        PmakeError::Kernel(KernelError::Fs(e))
    }
}

impl From<MigrationError> for PmakeError {
    fn from(e: MigrationError) -> Self {
        PmakeError::Migration(e)
    }
}

/// Ground-truth host snapshot used by the selector for conflict detection.
pub fn cluster_truth(cluster: &Cluster, busy_threshold: usize) -> Vec<HostInfo> {
    cluster
        .hosts()
        .map(|h| HostInfo {
            host: h.id,
            load: h.resident().len() as f64,
            idle: if h.console_active || h.resident().len() > busy_threshold {
                SimDuration::ZERO
            } else {
                SimDuration::from_secs(3600)
            },
            console_active: h.console_active,
            speed: 1.0,
        })
        .collect()
}

/// Creates the source tree and the compiler binary; run before the
/// measured build. Each distinct input is written once, however many
/// compiles include it: a shared header is created by its first includer.
pub fn prepare_sources(
    cluster: &mut Cluster,
    graph: &DepGraph,
    home: HostId,
    now: SimTime,
) -> Result<SimTime, PmakeError> {
    let mut t = now;
    let cc = SpritePath::new("/bin/cc");
    if cluster.program(&cc).is_none() {
        t = cluster.install_program(t, cc, 48 * 1024)?;
    }
    let mut written: DetHashSet<&str> = DetHashSet::default();
    let write_file = |cluster: &mut Cluster,
                      t: SimTime,
                      name: &str,
                      bytes: u64|
     -> Result<SimTime, PmakeError> {
        let path = SpritePath::new(name);
        if cluster.fs.resolve(&path).is_err() {
            return Ok(t);
        }
        match cluster.fs.create(&mut cluster.net, t, home, path.clone()) {
            Ok((_, t2)) => {
                let (s, t3) = cluster
                    .fs
                    .open(&mut cluster.net, t2, home, path, OpenMode::Write)?;
                let data = vec![b'c'; bytes as usize];
                let t4 = cluster.fs.write(&mut cluster.net, t3, home, s, &data)?;
                Ok(cluster.fs.close(&mut cluster.net, t4, home, s)?)
            }
            Err(FsError::AlreadyExists(_)) => Ok(t),
            Err(e) => Err(e.into()),
        }
    };
    for i in 0..graph.len() {
        if let Action::Compile(job) = &graph.target(i).action {
            let inputs = [(&job.src, job.src_bytes)]
                .into_iter()
                .chain(job.headers.iter().map(|hdr| (hdr, 8 * 1024)));
            for (name, bytes) in inputs {
                if written.insert(name) {
                    t = write_file(cluster, t, name, bytes)?;
                }
            }
        }
    }
    Ok(t)
}

/// One job advances one file-system operation (or one compute burst) per
/// simulation event. The granularity matters: a real compile blocks per
/// *syscall*, so two jobs on different hosts interleave their RPCs at the
/// file server and on the wire. Batching a whole read phase into a single
/// event would serialize entire open/read/close chains — including their
/// message latencies — through the shared-resource queues, and no amount
/// of server-side parallelism could then improve the makespan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Open the next input file (or move to Compute when none remain).
    ReadOpen,
    /// Read one chunk from the open input.
    ReadChunk,
    /// Close the drained input.
    ReadClose,
    Compute,
    /// Create + open the output file.
    WriteOpen,
    /// Write the output bytes.
    WriteChunk,
    /// Close the output.
    WriteClose,
    Finish,
}

#[derive(Debug)]
struct RunningJob {
    pid: ProcessId,
    host: HostId,
    remote: bool,
    phase: Phase,
    fd: Option<usize>,
    /// Inputs still to open, popped from the back: the source first, then
    /// the headers in reverse.
    read_remaining: Vec<SpritePath>,
}

/// Runs `graph` to completion. See the module docs for the execution model.
///
/// # Errors
///
/// Fails on kernel/file-system errors or unexpected migration failures;
/// a selector simply finding no idle host is not an error (the job runs at
/// home).
pub fn run_build(
    cluster: &mut Cluster,
    migrator: &mut Migrator,
    selector: &mut dyn HostSelector,
    home: HostId,
    graph: &DepGraph,
    config: &PmakeConfig,
    start: SimTime,
) -> Result<PmakeReport, PmakeError> {
    let mut readiness = Readiness::new(graph);
    let mut waiting: Vec<usize> = readiness.initial().collect();
    let mut built = 0usize;
    let mut jobs: DetHashMap<usize, RunningJob> = DetHashMap::default();
    let mut queue: BinaryHeap<Reverse<(SimTime, u64, usize)>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    let mut controller_free = start;
    let mut remote_builds = 0usize;
    let mut local_builds = 0usize;
    let mut local_in_flight = 0usize;
    let mut total_cpu = SimDuration::ZERO;
    let mut finished_at = start;
    let cc = SpritePath::new("/bin/cc");
    // Every read of the build fills this one buffer.
    let mut buf = Vec::new();

    // Place as many waiting (ready) jobs as hosts (or local slots) allow.
    // Unplaceable jobs stay queued until a completion frees capacity —
    // pmake's job window.
    macro_rules! launch_waiting {
        ($now:expr) => {{
            let now: SimTime = $now;
            controller_free = controller_free.max_of(now);
            while let Some(&tgt) = waiting.first() {
                if jobs.len() >= config.max_parallel {
                    break;
                }
                let is_link = matches!(graph.target(tgt).action, Action::Link { .. });
                // Decide placement before spawning anything.
                let mut placement: Option<HostId> = None;
                let mut t_sel = controller_free;
                if config.use_migration && !is_link {
                    let truth = cluster_truth(cluster, 0);
                    let (choice, t2) =
                        selector.select(&mut cluster.net, controller_free, home, &truth);
                    t_sel = t2;
                    placement = choice;
                }
                let run_locally = placement.is_none();
                if run_locally && !is_link && local_in_flight >= config.local_slots {
                    // Nowhere to put it: hold the job until capacity frees.
                    break;
                }
                waiting.remove(0);
                let (pid, t1) = cluster.spawn(t_sel, home, &cc, 64, 16)?;
                let mut host = home;
                let mut remote = false;
                let mut t_placed = t1;
                if let Some(target_host) = placement {
                    let report =
                        migrator.exec_migrate(cluster, t1, pid, target_host, &cc, 64, 16)?;
                    host = target_host;
                    remote = true;
                    t_placed = report.resumed_at;
                }
                if remote {
                    remote_builds += 1;
                } else {
                    local_builds += 1;
                    if !is_link {
                        local_in_flight += 1;
                    }
                }
                let read_remaining = match &graph.target(tgt).action {
                    Action::Compile(job) => job
                        .headers
                        .iter()
                        .chain([&job.src])
                        .map(SpritePath::new)
                        .collect(),
                    Action::Link { inputs, .. } => inputs.iter().map(SpritePath::new).collect(),
                    Action::Phony => Vec::new(),
                };
                jobs.insert(
                    tgt,
                    RunningJob {
                        pid,
                        host,
                        remote,
                        phase: Phase::ReadOpen,
                        fd: None,
                        read_remaining,
                    },
                );
                seq += 1;
                queue.push(Reverse((t_placed, seq, tgt)));
                controller_free = t1 + config.launch_overhead;
            }
        }};
    }

    launch_waiting!(start);

    while let Some(Reverse((t, _, tgt))) = queue.pop() {
        let job = jobs.get_mut(&tgt).expect("queued job exists");
        let next_time: SimTime;
        match job.phase {
            Phase::ReadOpen => match job.read_remaining.pop() {
                Some(path) => {
                    let (fd, t2) = cluster.open_fd(t, job.pid, path, OpenMode::Read)?;
                    job.fd = Some(fd);
                    job.phase = Phase::ReadChunk;
                    next_time = t2;
                }
                None => {
                    job.phase = Phase::Compute;
                    next_time = t;
                }
            },
            Phase::ReadChunk => {
                let fd = job.fd.expect("input open");
                let t2 = cluster.read_fd(t, job.pid, fd, 16 * 1024, &mut buf)?;
                if buf.is_empty() {
                    job.phase = Phase::ReadClose;
                }
                next_time = t2;
            }
            Phase::ReadClose => {
                let fd = job.fd.take().expect("input open");
                next_time = cluster.close_fd(t, job.pid, fd)?;
                job.phase = Phase::ReadOpen;
            }
            Phase::Compute => {
                let cpu = match &graph.target(tgt).action {
                    Action::Compile(j) => j.cpu,
                    Action::Link { cpu, .. } => *cpu,
                    Action::Phony => SimDuration::ZERO,
                };
                total_cpu += cpu;
                let t2 = if cpu.is_zero() {
                    t
                } else {
                    cluster.run_cpu(t, job.pid, cpu)?
                };
                job.phase = Phase::WriteOpen;
                next_time = t2;
            }
            Phase::WriteOpen => {
                let out_path = match &graph.target(tgt).action {
                    Action::Compile(j) => Some(&j.obj),
                    Action::Link { output, .. } => Some(output),
                    Action::Phony => None,
                };
                match out_path {
                    Some(path) => {
                        let sp = SpritePath::new(path);
                        let mut t2 = t;
                        match cluster
                            .fs
                            .create(&mut cluster.net, t2, job.host, sp.clone())
                        {
                            Ok((_, t3)) => t2 = t3,
                            Err(FsError::AlreadyExists(_)) => {}
                            Err(e) => return Err(e.into()),
                        }
                        let (fd, t3) = cluster.open_fd(t2, job.pid, sp, OpenMode::Write)?;
                        job.fd = Some(fd);
                        job.phase = Phase::WriteChunk;
                        next_time = t3;
                    }
                    None => {
                        job.phase = Phase::Finish;
                        next_time = t;
                    }
                }
            }
            Phase::WriteChunk => {
                let out_bytes = match &graph.target(tgt).action {
                    Action::Compile(j) => j.obj_bytes,
                    Action::Link { .. } => 128 * 1024,
                    Action::Phony => 0,
                };
                let fd = job.fd.expect("output open");
                let data = vec![b'o'; out_bytes as usize];
                next_time = cluster.write_fd(t, job.pid, fd, &data)?;
                job.phase = Phase::WriteClose;
            }
            Phase::WriteClose => {
                let fd = job.fd.take().expect("output open");
                next_time = cluster.close_fd(t, job.pid, fd)?;
                job.phase = Phase::Finish;
            }
            Phase::Finish => {
                let mut t2 = cluster.exit(t, job.pid, 0)?;
                if job.remote {
                    t2 = selector.release(&mut cluster.net, t2, home, job.host);
                } else if !matches!(graph.target(tgt).action, Action::Link { .. }) {
                    local_in_flight = local_in_flight.saturating_sub(1);
                }
                jobs.remove(&tgt);
                built += 1;
                finished_at = finished_at.max_of(t2);
                readiness.complete(tgt, &mut waiting);
                launch_waiting!(t2);
                continue;
            }
        }
        seq += 1;
        queue.push(Reverse((next_time, seq, tgt)));
    }

    debug_assert_eq!(built, graph.len(), "all targets built");
    let makespan = finished_at.elapsed_since(start);
    let effective_parallelism = if makespan.is_zero() {
        0.0
    } else {
        total_cpu.as_secs_f64() / makespan.as_secs_f64()
    };
    Ok(PmakeReport {
        makespan,
        finished_at,
        targets_built: built,
        remote_builds,
        local_builds,
        total_cpu,
        effective_parallelism,
    })
}
