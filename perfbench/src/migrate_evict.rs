//! `migrate_evict`: the write-path workload.
//!
//! Closed loop, one client: the next move starts when the previous one has
//! finished. Each timed operation moves one process: spawn it with a heap
//! of 0.25 to 4 MB and dirty all of it; then either `Migrator::migrate` it
//! to an idle host, dirty a quarter of the heap there and `evict_all` it
//! home (3 moves in 4), or `checkpoint_move` it with `DirtyOnly` images
//! (1 in 4); finally read the heap back, check every byte and exit. Every
//! heap size and mechanism appears equally often in each epoch, in a
//! seeded order, so the sample's simulated costs hardly depend on the seed.
//!
//! Epochs of 40 moves run on a fresh 32-host cluster with the root striped
//! over two file servers, because `Cluster::exit` never unlinks a process's
//! `/swap` backing files: a cluster kept for the whole run would grow by
//! about 1.5 MB of host memory per move. Fixing that leak belongs to the
//! kernel, outside the benchmark.
//!
//! Host time goes to dirty-page flushes, FS page-outs, checkpoint image
//! writes and bulk transfers: the paper's migration-cost view. A VM or
//! migration-protocol change shows here.

use std::time::Instant;

use sprite_core::{checkpoint_move, MigrationConfig, Migrator};
use sprite_fs::{SpriteFs, SpritePath};
use sprite_kernel::{Cluster, ClusterBuilder, ProcessId};
use sprite_net::{HostId, Transport, PAGE_SIZE};
use sprite_sim::{DetRng, SimTime};
use sprite_vm::{AddressSpace, CkptStrategy, SegmentKind, VirtAddr};

use crate::measure::{
    host as h, run_epochs, since, sub_seed, Budget, EpochTime, LayerCounts, Outcome,
};
use crate::probe::{Layer, Probe};

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub hosts: usize,
    pub fs_shards: usize,
    /// Moves per epoch (a fresh cluster each epoch); a multiple of 20 keeps
    /// every heap size and mechanism equally frequent.
    pub epoch_moves: u64,
    /// Leading epochs whose statistics form the sample.
    pub sample_epochs: u64,
}

pub const FULL: Size = Size {
    hosts: 32,
    fs_shards: 2,
    epoch_moves: 40,
    sample_epochs: 5,
};

/// Heap sizes, in KB.
const HEAP_KB: [u64; 5] = [256, 512, 1024, 2048, 4096];
/// Input bytes: heap contents are slices of this pool at seeded offsets.
const POOL_BYTES: usize = 5 << 20;
const STACK_PAGES: u64 = 4;

fn heap_addr(offset: u64) -> VirtAddr {
    VirtAddr::new(SegmentKind::Heap, offset)
}

/// One epoch's plan: (heap size index, by checkpoint?) for each move,
/// every pair equally often, in seeded order.
fn plan(rng: &mut DetRng, moves: u64) -> Vec<(usize, bool)> {
    let sizes = HEAP_KB.len() as u64;
    let mut plan: Vec<(usize, bool)> = (0..moves)
        .map(|k| ((k % sizes) as usize, (k / sizes) % 4 == 3))
        .collect();
    for i in (1..plan.len()).rev() {
        let j = rng.uniform_u64(i as u64 + 1) as usize;
        plan.swap(i, j);
    }
    plan
}

fn world<P: Probe>(size: &Size, probe: &P) -> Result<(Cluster, SimTime), String> {
    let servers: Vec<HostId> = (0..size.fs_shards).map(h).collect();
    probe.call(Layer::Kernel, "build_cluster", || {
        ClusterBuilder::new(size.hosts)
            .sharded_file_service(&servers, "/")
            .program("/bin/sim", 32 * 1024)
            .build()
            .map_err(|e| e.to_string())
    })
}

/// The run's input bytes, a pure function of the seed.
fn pool(seed: u64) -> Vec<u8> {
    let mut rng = DetRng::seed_from(seed);
    (0..POOL_BYTES / 8)
        .flat_map(|_| rng.next_u64().to_le_bytes())
        .collect()
}

/// Runs `f` on `pid`'s address space with the cluster's FS and transport.
fn with_space<T>(
    cluster: &mut Cluster,
    pid: ProcessId,
    f: impl FnOnce(&mut AddressSpace, &mut SpriteFs, &mut Transport) -> Result<T, String>,
) -> Result<T, String> {
    let mut space = cluster
        .pcb_mut(pid)
        .and_then(|p| p.space.take())
        .ok_or_else(|| format!("{pid} has no address space"))?;
    let out = f(&mut space, &mut cluster.fs, &mut cluster.net);
    if let Some(p) = cluster.pcb_mut(pid) {
        p.space = Some(space);
    }
    out
}

fn write<P: Probe>(
    probe: &P,
    cluster: &mut Cluster,
    t: SimTime,
    pid: ProcessId,
    host: HostId,
    offset: u64,
    data: &[u8],
) -> Result<SimTime, String> {
    probe.call(Layer::Vm, "write", || {
        with_space(cluster, pid, |space, fs, net| {
            space
                .write(fs, net, t, host, heap_addr(offset), data)
                .map_err(|e| e.to_string())
        })
    })
}

fn read<P: Probe>(
    probe: &P,
    cluster: &mut Cluster,
    t: SimTime,
    pid: ProcessId,
    host: HostId,
    len: u64,
) -> Result<(Vec<u8>, SimTime), String> {
    probe.call(Layer::Vm, "read", || {
        with_space(cluster, pid, |space, fs, net| {
            space
                .read(fs, net, t, host, heap_addr(0), len)
                .map_err(|e| e.to_string())
        })
    })
}

/// What one move cost the simulated process.
struct Moved {
    /// Simulated time the process could run nowhere, in ms.
    frozen_ms: f64,
    done: SimTime,
}

struct Mover<'a, P> {
    probe: &'a P,
    cluster: &'a mut Cluster,
    migrator: &'a mut Migrator,
    pool: &'a [u8],
    layers: LayerCounts,
}

impl<P: Probe> Mover<'_, P> {
    /// One move of a fresh process between `home` and `target`. Errors
    /// are failed layer calls; check failures go to `checks`.
    #[allow(clippy::too_many_arguments)]
    fn one(
        &mut self,
        t: SimTime,
        home: HostId,
        target: HostId,
        heap_kb: u64,
        by_checkpoint: bool,
        rng: &mut DetRng,
        checks: &mut crate::measure::Checks,
    ) -> Result<Moved, String> {
        let probe = self.probe;
        let len = heap_kb * 1024;
        let pages = len / PAGE_SIZE;
        let slack = (self.pool.len() - len as usize) as u64;
        let a_off = rng.uniform_u64(slack) as usize;
        let heap = &self.pool[a_off..a_off + len as usize];
        let cluster = &mut *self.cluster;
        let (pid, t) = probe
            .call(Layer::Kernel, "spawn", || {
                cluster.spawn(t, home, &SpritePath::new("/bin/sim"), pages, STACK_PAGES)
            })
            .map_err(|e| e.to_string())?;
        let t = write(probe, cluster, t, pid, home, 0, heap)?;

        if by_checkpoint {
            let report = probe
                .span(Layer::Core, "checkpoint_move", || {
                    checkpoint_move(cluster, t, pid, target, CkptStrategy::DirtyOnly)
                })
                .map_err(|e| e.to_string())?;
            let new_pid = report.new_pid;
            let (back, t) = read(probe, cluster, report.resumed_at, new_pid, target, len)?;
            checks.ensure(back == heap, || {
                format!("{pid}: heap changed across checkpoint_move")
            });
            checks.ensure(
                report.restore.pages_restored == report.ckpt.pages_written,
                || {
                    format!(
                        "{pid}: restored {} pages of {} written",
                        report.restore.pages_restored, report.ckpt.pages_written
                    )
                },
            );
            let t = probe
                .call(Layer::Kernel, "exit", || cluster.exit(t, new_pid, 0))
                .map_err(|e| e.to_string())?;
            self.layers.ckpt_moves += 1;
            self.layers.ckpt_image_bytes += report.ckpt.image_bytes;
            return Ok(Moved {
                frozen_ms: report.total_time.as_millis_f64(),
                done: t,
            });
        }

        let migrator = &mut *self.migrator;
        let out = probe
            .span(Layer::Core, "migrate", || {
                migrator.migrate(cluster, t, pid, target)
            })
            .map_err(|e| e.to_string())?;
        let quarter = len / 4;
        let q_off = rng.uniform_u64((pages - pages / 4) + 1) * PAGE_SIZE;
        let b_off = rng.uniform_u64(slack) as usize;
        let patch = &self.pool[b_off..b_off + quarter as usize];
        let t = write(probe, cluster, out.resumed_at, pid, target, q_off, patch)?;
        let back_home = probe
            .span(Layer::Core, "evict_all", || {
                migrator.evict_all(cluster, t, target)
            })
            .map_err(|e| e.to_string())?;
        checks.ensure(back_home.len() == 1, || {
            format!("{pid}: eviction moved {} processes", back_home.len())
        });
        checks.ensure(cluster.locate(pid) == Some(home), || {
            format!("{pid} is not home after eviction")
        });
        let t = back_home.last().map_or(t, |r| r.resumed_at);
        let (back, t) = read(probe, cluster, t, pid, home, len)?;
        let q = q_off as usize;
        let qe = q + quarter as usize;
        checks.ensure(
            back.len() == heap.len()
                && back[..q] == heap[..q]
                && back[q..qe] == *patch
                && back[qe..] == heap[qe..],
            || format!("{pid}: heap changed across migrate and evict"),
        );
        let t = probe
            .call(Layer::Kernel, "exit", || cluster.exit(t, pid, 0))
            .map_err(|e| e.to_string())?;
        let frozen: f64 = std::iter::once(&out)
            .chain(&back_home)
            .map(|r| r.freeze_time.as_millis_f64())
            .sum();
        for r in std::iter::once(&out).chain(&back_home) {
            self.layers.add_migration(r);
        }
        Ok(Moved {
            frozen_ms: frozen,
            done: t,
        })
    }
}

pub fn run<P: Probe>(seed: u64, size: &Size, budget: Budget, probe: &P) -> Outcome {
    let pool = pool(seed);
    run_epochs(
        probe,
        "epoch",
        budget,
        size.sample_epochs,
        |epoch, in_sample, out| {
            run_epoch(
                sub_seed(seed, epoch),
                size,
                &pool,
                in_sample,
                budget,
                probe,
                out,
            )
        },
    )
}

/// Runs one epoch's moves; returns whether it ran to the end.
fn run_epoch<P: Probe>(
    seed: u64,
    size: &Size,
    pool: &[u8],
    in_sample: bool,
    budget: Budget,
    probe: &P,
    out: &mut Outcome,
) -> bool {
    let start = Instant::now();
    let Ok((mut cluster, mut t)) = world(size, probe) else {
        out.failed += 1;
        return false;
    };
    let world_ns = since(start);
    let ops_before = out.op_ns.len();
    let mut migrator = Migrator::new(MigrationConfig::default(), size.hosts);
    let mut rng = DetRng::seed_from(seed);
    let clients = size.hosts - size.fs_shards;
    let mut mover = Mover {
        probe,
        cluster: &mut cluster,
        migrator: &mut migrator,
        pool,
        layers: LayerCounts::default(),
    };
    let mut frozen_ms = 0.0;
    let mut complete = true;
    for (heap, by_checkpoint) in plan(&mut rng, size.epoch_moves) {
        if !budget.more(out.op_ns.len(), !in_sample) {
            complete = false;
            break;
        }
        let home = h(size.fs_shards + rng.uniform_u64(clients as u64) as usize);
        let mut target = h(size.fs_shards + rng.uniform_u64(clients as u64 - 1) as usize);
        if target >= home {
            target = h(target.index() + 1);
        }
        probe.next_op();
        let t0 = Instant::now();
        let moved = probe.span(Layer::Bench, "move", || {
            mover.one(
                t,
                home,
                target,
                HEAP_KB[heap],
                by_checkpoint,
                &mut rng,
                &mut out.checks,
            )
        });
        out.op_ns.push(since(t0));
        match moved {
            Ok(m) => {
                t = m.done;
                frozen_ms += m.frozen_ms;
                if in_sample {
                    out.sample.digest.write_u64(m.frozen_ms.to_bits());
                    out.sample.digest.write_u64(m.done.as_micros());
                }
            }
            Err(_) => out.failed += 1,
        }
    }
    let mut layers = std::mem::take(&mut mover.layers);
    layers.merge(&LayerCounts::of_cluster(
        &cluster,
        t.elapsed_since(SimTime::ZERO),
    ));
    layers.add_totals(&migrator.totals());
    out.checks.ensure(layers.stale_lookups == 0, || {
        format!("{} stale handle lookups", layers.stale_lookups)
    });
    if in_sample && complete {
        let s = &mut out.sample;
        s.jobs += size.epoch_moves;
        s.job_ms += frozen_ms;
        s.messages += layers.net_messages;
        s.digest.write_u64(cluster.digest());
        s.layers.merge(&layers);
    }
    probe.call(Layer::Bench, "drop_world", || drop(cluster));
    out.epochs.push(EpochTime {
        ops: out.op_ns.len() - ops_before,
        wall_ns: since(start),
        world_ns,
        complete,
    });
    complete
}
