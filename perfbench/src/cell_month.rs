//! `cell_month`: the engine-bound workload.
//!
//! Open loop: each host's user spawns bounded-Pareto batch jobs on the
//! host's own active/idle regime clock, whatever the cluster does. The
//! world is m02's partitioned cluster model (`build_cluster_cells`) on a
//! `ShardedEngine` with one shard and one worker, stepped through a 60 s
//! `ShardLink` cadence. Each epoch is a fresh cluster seeded from
//! `(seed, epoch)`; a timed operation advances it by one chunk of
//! simulated minutes.
//!
//! The one-minute lattice puts every event of a window in one calendar
//! bucket, so engine self time dominates host time and `HostCell` handlers
//! take a few percent. An engine change shows here; a hostsel, FS or VM
//! change does not.

use std::time::Instant;

use sprite_kernel::{build_cluster_cells, HostCell, HostMsg};
use sprite_net::{CostModel, ShardLink};
use sprite_sim::{Cell, CellCtx, CellId, ShardedEngine, SimDuration, SimTime, StateDigest};

use crate::measure::{run_epochs, since, sub_seed, Budget, EpochTime, LayerCounts, Outcome};
use crate::probe::{Layer, Probe};

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub hosts: u32,
    /// Simulated hours per epoch (a fresh cluster each epoch).
    pub epoch_hours: u64,
    /// Simulated minutes one timed operation advances.
    pub chunk_minutes: u64,
    /// Leading epochs whose statistics form the sample.
    pub sample_epochs: u64,
}

pub const FULL: Size = Size {
    hosts: 5_000,
    epoch_hours: 2,
    chunk_minutes: 10,
    sample_epochs: 6,
};

const MINUTE_US: u64 = 60_000_000;

/// A host cell whose handlers are timed, for traced runs.
pub struct Timed {
    cell: HostCell,
    calls: u64,
    ns: u64,
}

impl Timed {
    fn timed(&mut self, f: impl FnOnce(&mut HostCell)) {
        let t = Instant::now();
        f(&mut self.cell);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
    }
}

impl Cell for Timed {
    type Msg = HostMsg;

    fn on_timer(&mut self, now: SimTime, token: u64, ctx: &mut CellCtx<'_, HostMsg>) {
        self.timed(|c| c.on_timer(now, token, ctx));
    }

    fn on_message(
        &mut self,
        now: SimTime,
        from: CellId,
        msg: HostMsg,
        ctx: &mut CellCtx<'_, HostMsg>,
    ) {
        self.timed(|c| c.on_message(now, from, msg, ctx));
    }

    fn digest_into(&self, d: &mut StateDigest) {
        self.cell.digest_into(d);
    }
}

/// How the workload runs a host cell: bare when untraced, wrapped in
/// [`Timed`] when traced.
pub trait Host: Cell<Msg = HostMsg> {
    fn wrap(cell: HostCell) -> Self;
    fn cell(&self) -> &HostCell;
    /// Handler calls and host nanoseconds so far.
    fn handler_time(&self) -> (u64, u64);
}

impl Host for HostCell {
    fn wrap(cell: HostCell) -> Self {
        cell
    }
    fn cell(&self) -> &HostCell {
        self
    }
    fn handler_time(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl Host for Timed {
    fn wrap(cell: HostCell) -> Self {
        Timed {
            cell,
            calls: 0,
            ns: 0,
        }
    }
    fn cell(&self) -> &HostCell {
        &self.cell
    }
    fn handler_time(&self) -> (u64, u64) {
        (self.calls, self.ns)
    }
}

/// The cluster of one epoch, every host's first tick armed at minute one.
pub fn world<H: Host, P: Probe>(seed: u64, size: &Size, probe: &P) -> ShardedEngine<H> {
    let cells: Vec<H> = probe.call(Layer::Kernel, "build_cluster_cells", || {
        build_cluster_cells(size.hosts, seed)
            .into_iter()
            .map(H::wrap)
            .collect()
    });
    probe.call(Layer::Sim, "engine_new", || {
        let link = ShardLink::new(CostModel::sun3(), SimDuration::from_secs(60));
        let mut eng = ShardedEngine::new(cells, 1, link.lookahead());
        eng.set_workers(1);
        for id in 0..size.hosts {
            eng.seed_timer(id, SimTime::from_micros(MINUTE_US), 0);
        }
        eng
    })
}

pub fn run<P: Probe>(seed: u64, size: &Size, budget: Budget, probe: &P) -> Outcome {
    if P::ON {
        drive::<Timed, P>(seed, size, budget, probe)
    } else {
        drive::<HostCell, P>(seed, size, budget, probe)
    }
}

fn drive<H: Host, P: Probe>(seed: u64, size: &Size, budget: Budget, probe: &P) -> Outcome {
    let chunks = size.epoch_hours * 60 / size.chunk_minutes;
    run_epochs(
        probe,
        "epoch",
        budget,
        size.sample_epochs,
        |epoch, in_sample, out| {
            run_epoch::<H, P>(
                sub_seed(seed, epoch),
                size,
                chunks,
                in_sample,
                budget,
                probe,
                out,
            )
        },
    )
}

/// Runs one epoch's chunks; returns whether it ran to the end.
fn run_epoch<H: Host, P: Probe>(
    seed: u64,
    size: &Size,
    chunks: u64,
    in_sample: bool,
    budget: Budget,
    probe: &P,
    out: &mut Outcome,
) -> bool {
    let start = Instant::now();
    let mut eng = world::<H, P>(seed, size, probe);
    let world_ns = since(start);
    let ops_before = out.op_ns.len();
    let mut handled = (0u64, 0u64);
    // Job-minutes spent in run queues, sampled at each chunk end (Little's
    // law turns it into a mean residence per job).
    let mut job_minutes = 0u64;
    let mut complete = true;
    for c in 0..chunks {
        if !budget.more(out.op_ns.len(), !in_sample) {
            complete = false;
            break;
        }
        probe.next_op();
        let horizon = SimTime::from_micros((c + 1) * size.chunk_minutes * MINUTE_US);
        let t0 = Instant::now();
        probe.span(Layer::Sim, "run", || {
            eng.run(horizon);
            if P::ON {
                let now = eng
                    .cells()
                    .map(H::handler_time)
                    .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
                probe.book(
                    Layer::Kernel,
                    "cell_handler",
                    now.0 - handled.0,
                    now.1 - handled.1,
                );
                handled = now;
            }
        });
        out.op_ns.push(since(t0));
        if in_sample {
            let load: u64 = eng.cells().map(|h| u64::from(h.cell().load())).sum();
            job_minutes += load * size.chunk_minutes;
            for h in eng.cells() {
                h.digest_into(&mut out.sample.digest);
            }
        }
    }

    let stats = eng.cells().map(|h| h.cell().stats()).fold(
        sprite_kernel::HostCellStats::default(),
        |mut a, s| {
            a.spawned += s.spawned;
            a.completed += s.completed;
            a.migrated_out += s.migrated_out;
            a.evicted += s.evicted;
            a
        },
    );
    let shards = eng.shard_counters();
    let queue = eng.queue_counters();
    let sent: u64 = shards.iter().map(|s| s.messages_sent).sum();
    let checks = &mut out.checks;
    checks.ensure(stats.completed <= stats.spawned, || {
        format!("completed {} > spawned {}", stats.completed, stats.spawned)
    });
    checks.ensure(eng.events_executed() == queue.events_executed, || {
        format!(
            "engine events {} != calendar pops {}",
            eng.events_executed(),
            queue.events_executed
        )
    });
    checks.ensure(sent == eng.messages_delivered(), || {
        format!(
            "messages sent {sent} != delivered {}",
            eng.messages_delivered()
        )
    });
    out.run_events += eng.events_executed();

    if in_sample && complete {
        let s = &mut out.sample;
        s.jobs += stats.spawned;
        s.job_ms += job_minutes as f64 * 60_000.0;
        s.messages += eng.messages_delivered();
        s.layers.merge(&LayerCounts {
            engine: queue,
            engine_messages: eng.messages_delivered(),
            ..LayerCounts::default()
        });
        for v in [
            stats.spawned,
            stats.completed,
            stats.migrated_out,
            stats.evicted,
        ] {
            s.digest.write_u64(v);
        }
    }
    probe.call(Layer::Sim, "drop_world", || drop(eng));
    out.epochs.push(EpochTime {
        ops: out.op_ns.len() - ops_before,
        wall_ns: since(start),
        world_ns,
        complete,
    });
    complete
}
