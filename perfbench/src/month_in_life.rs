//! `month_in_life`: the paper's production use.
//!
//! Open loop: users come and go by diurnal activity traces and, while at
//! the console, launch jobs whatever the system's response; each job is
//! exec-time migrated to an idle host chosen through gossip dissemination
//! (m01's settings), runs as one-minute CPU bursts, and is evicted home
//! when the borrowed host's owner returns. This is the E11 world at 120
//! hosts, driven by one periodic minute tick on the event engine. Each
//! six-day replication is a fresh cluster with an RNG forked serially from
//! the seed; a timed operation is one simulated day.
//!
//! Host time goes to `hostsel.report`, activity-trace lookups,
//! `core.exec_migrate` and `kernel.spawn`; the engine runs one event per
//! simulated minute, well under 1% of host time. A hostsel change shows
//! here and nowhere else.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use sprite_core::{MigrationConfig, Migrator};
use sprite_fs::SpritePath;
use sprite_hostsel::{AvailabilityPolicy, GossipDissemination, HostInfo, HostSelector};
use sprite_kernel::{Cluster, ClusterBuilder, ProcessId};
use sprite_net::HostId;
use sprite_sim::{DetRng, Engine, SimDuration, SimTime};
use sprite_workloads::{ActivityModel, ActivityTrace, DAY};

use crate::measure::{host as h, run_epochs, since, Budget, EpochTime, LayerCounts, Outcome};
use crate::probe::{Layer, Probe};

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub hosts: usize,
    /// Simulated days per replication.
    pub days: u64,
    /// Leading replications whose statistics form the sample.
    pub sample_reps: u64,
}

/// Five six-day replications make E11's simulated month.
pub const FULL: Size = Size {
    hosts: 120,
    days: 6,
    sample_reps: 5,
};

/// Per-active-minute chance that a user at the console launches a job.
const LAUNCH_PER_MINUTE: f64 = 0.04;
/// Engine events between state-digest checkpoints (one simulated day).
const AUDIT_EVERY: u64 = 1_440;

struct Job {
    pid: ProcessId,
    remaining: SimDuration,
    granted: Option<HostId>,
}

#[derive(Default)]
struct RepStats {
    jobs: u64,
    remote: u64,
    evictions: u64,
    start_delay_ms: f64,
    failed: u64,
    layers: LayerCounts,
}

struct World<'p, P> {
    probe: &'p P,
    cluster: Cluster,
    migrator: Migrator,
    selector: GossipDissemination,
    rng: DetRng,
    traces: Vec<ActivityTrace>,
    jobs: Vec<Job>,
    /// (completion, job index) of in-flight bursts.
    bursts: BinaryHeap<Reverse<(SimTime, usize)>>,
    active: Vec<bool>,
    was_active: Vec<bool>,
    infos: Vec<HostInfo>,
    stats: RepStats,
    start: SimTime,
}

fn world<'p, P: Probe>(size: &Size, rep: u64, mut rng: DetRng, probe: &'p P) -> World<'p, P> {
    let (cluster, start) = probe.call(Layer::Kernel, "build_cluster", || {
        ClusterBuilder::new(size.hosts)
            .file_server(h(0), "/")
            .program("/bin/sim", 32 * 1024)
            .program("/bin/cc", 48 * 1024)
            .build()
            .expect("installing programs into a fresh cluster")
    });
    let traces = probe.call(Layer::Workloads, "trace_gen", || {
        let model = ActivityModel::default();
        let horizon = SimDuration::from_secs(size.days * DAY);
        (0..size.hosts)
            .map(|i| ActivityTrace::generate(&mut rng, &model, h(i), horizon))
            .collect()
    });
    let selector = probe.call(Layer::Hostsel, "build_selector", || {
        let mut g = GossipDissemination::new(
            size.hosts,
            1,
            4,
            AvailabilityPolicy::default(),
            0x6055 ^ rep.wrapping_mul(0x9e37),
        );
        g.set_refresh_every(30);
        g.set_max_age(SimDuration::from_secs(45 * 60));
        g
    });
    World {
        probe,
        cluster,
        migrator: Migrator::new(MigrationConfig::default(), size.hosts),
        selector,
        rng,
        traces,
        jobs: Vec::new(),
        bursts: BinaryHeap::new(),
        active: vec![false; size.hosts],
        was_active: vec![false; size.hosts],
        infos: Vec::with_capacity(size.hosts),
        stats: RepStats::default(),
        start,
    }
}

/// Replication RNGs are forked serially from one master stream.
fn rep_rngs(seed: u64) -> impl Iterator<Item = DetRng> {
    let mut master = DetRng::seed_from(seed);
    std::iter::repeat_with(move || master.fork())
}

/// One simulated minute, in E11's order: load reports, owner-return
/// evictions, burst completions, job launches.
fn minute_tick<P: Probe>(w: &mut World<'_, P>, t: SimTime) {
    let probe = w.probe;
    let (traces, active) = (&w.traces, &mut w.active);
    let idle: Vec<SimDuration> = probe.call(Layer::Workloads, "activity_lookup", || {
        traces
            .iter()
            .zip(active.iter_mut())
            .map(|(tr, a)| {
                *a = tr.active_at(t);
                tr.idle_duration_at(t)
            })
            .collect()
    });
    let (cluster, infos, active) = (&mut w.cluster, &mut w.infos, &w.active);
    probe.call(Layer::Kernel, "host_state", || {
        infos.clear();
        for (i, (&idle, &console)) in idle.iter().zip(active).enumerate() {
            let host = cluster.host_mut(h(i));
            host.console_active = console;
            infos.push(HostInfo {
                host: h(i),
                load: host.resident().len() as f64,
                idle,
                console_active: console,
                speed: 1.0,
            });
        }
    });
    let (selector, net, infos) = (&mut w.selector, &mut w.cluster.net, &w.infos);
    probe.call(Layer::Hostsel, "report", || {
        for info in infos {
            selector.report(net, t, *info);
        }
    });

    for i in 0..w.traces.len() {
        if w.active[i] && !w.was_active[i] && w.cluster.foreign_on(h(i)).next().is_some() {
            let (migrator, cluster) = (&mut w.migrator, &mut w.cluster);
            match probe.call(Layer::Core, "evict_all", || {
                migrator.evict_all(cluster, t, h(i))
            }) {
                Ok(reports) => {
                    for r in &reports {
                        w.stats.evictions += 1;
                        w.stats.layers.add_migration(r);
                    }
                }
                Err(_) => w.stats.failed += 1,
            }
        }
        w.was_active[i] = w.active[i];
    }

    while let Some(&Reverse((done, idx))) = w.bursts.peek() {
        if done > t {
            break;
        }
        w.bursts.pop();
        let (cluster, selector) = (&mut w.cluster, &mut w.selector);
        let job = &mut w.jobs[idx];
        if job.remaining.is_zero() {
            let pid = job.pid;
            match probe.call(Layer::Kernel, "exit", || cluster.exit(done, pid, 0)) {
                Ok(t2) => {
                    if let Some(gh) = job.granted.take() {
                        probe.call(Layer::Hostsel, "release", || {
                            selector.release(&mut cluster.net, t2, pid.home(), gh)
                        });
                    }
                }
                Err(_) => w.stats.failed += 1,
            }
        } else {
            let chunk = job.remaining.min(SimDuration::from_secs(60));
            job.remaining -= chunk;
            let pid = job.pid;
            match probe.call(Layer::Kernel, "run_cpu", || {
                cluster.run_cpu(done, pid, chunk)
            }) {
                Ok(done2) => w.bursts.push(Reverse((done2, idx))),
                Err(_) => w.stats.failed += 1,
            }
        }
    }

    for i in 0..w.traces.len() {
        if !(w.active[i] && w.rng.chance(LAUNCH_PER_MINUTE)) {
            continue;
        }
        let home = h(i);
        let cluster = &mut w.cluster;
        let spawned = probe.call(Layer::Kernel, "spawn", || {
            cluster.spawn(t, home, &SpritePath::new("/bin/sim"), 32, 8)
        });
        let Ok((pid, t1)) = spawned else {
            w.stats.failed += 1;
            continue;
        };
        w.stats.jobs += 1;
        let (selector, infos) = (&mut w.selector, &w.infos);
        let (choice, t2) = probe.call(Layer::Hostsel, "select", || {
            selector.select(&mut cluster.net, t1, home, infos)
        });
        let (start_at, granted) = match choice {
            Some(target) => {
                let migrator = &mut w.migrator;
                let migrated = probe.call(Layer::Core, "exec_migrate", || {
                    migrator.exec_migrate(
                        cluster,
                        t2,
                        pid,
                        target,
                        &SpritePath::new("/bin/sim"),
                        32,
                        8,
                    )
                });
                match migrated {
                    Ok(r) => {
                        w.stats.remote += 1;
                        w.stats.layers.add_migration(&r);
                        (r.resumed_at, Some(target))
                    }
                    Err(_) => {
                        w.stats.failed += 1;
                        (t2, None)
                    }
                }
            }
            None => (t2, None),
        };
        w.stats.start_delay_ms += start_at.elapsed_since(t).as_millis_f64();
        let cpu = w
            .rng
            .jittered(SimDuration::from_secs(100), SimDuration::from_secs(40))
            .max(SimDuration::from_secs(10));
        w.jobs.push(Job {
            pid,
            remaining: cpu,
            granted,
        });
        w.bursts.push(Reverse((start_at, w.jobs.len() - 1)));
    }
}

pub fn run<P: Probe>(seed: u64, size: &Size, budget: Budget, probe: &P) -> Outcome {
    let mut rngs = rep_rngs(seed);
    run_epochs(
        probe,
        "replication",
        budget,
        size.sample_reps,
        |rep, in_sample, out| {
            let rng = rngs.next().expect("the fork stream is endless");
            replication(size, rep, rng, in_sample, budget, probe, out)
        },
    )
}

/// Runs one replication day by day; returns whether it ran to the end.
fn replication<P: Probe>(
    size: &Size,
    rep: u64,
    rng: DetRng,
    in_sample: bool,
    budget: Budget,
    probe: &P,
    out: &mut Outcome,
) -> bool {
    let start = Instant::now();
    let mut w = world(size, rep, rng, probe);
    let world_ns = since(start);
    let ops_before = out.op_ns.len();
    let step = SimDuration::from_secs(60);
    let end = SimTime::ZERO + SimDuration::from_secs(size.days * DAY);
    let mut engine: Engine<World<'_, P>> = Engine::new();
    if in_sample {
        engine.audit_every(AUDIT_EVERY, |w: &World<'_, P>| w.cluster.digest());
    }
    engine.schedule_periodic_at(w.start, step, move |w: &mut World<'_, P>, e| {
        let t = e.now();
        let probe = w.probe;
        probe.call(Layer::Bench, "minute_tick", || minute_tick(w, t));
        t + step < end
    });
    let mut complete = true;
    for day in 1..=size.days {
        if !budget.more(out.op_ns.len(), !in_sample) {
            complete = false;
            break;
        }
        probe.next_op();
        let t0 = Instant::now();
        probe.span(Layer::Sim, "run", || {
            engine.set_deadline(SimTime::ZERO + SimDuration::from_secs(day * DAY));
            engine.run(&mut w);
        });
        out.op_ns.push(since(t0));
    }

    let mut layers = std::mem::take(&mut w.stats.layers);
    layers.merge(&LayerCounts::of_cluster(
        &w.cluster,
        end.elapsed_since(SimTime::ZERO),
    ));
    layers.engine = engine.counters();
    let totals = w.migrator.totals();
    layers.add_totals(&totals);
    let sel = w.selector.stats();
    layers.hostsel_requests = sel.requests;
    layers.hostsel_granted = sel.granted;
    let rpc = w.cluster.net.rpc_table();
    let checks = &mut out.checks;
    checks.ensure(
        rpc.total_messages() == layers.net_messages && rpc.total_bytes() == layers.net_bytes,
        || {
            format!(
                "rpc table {}/{} != net stats {}/{}",
                rpc.total_messages(),
                rpc.total_bytes(),
                layers.net_messages,
                layers.net_bytes
            )
        },
    );
    checks.ensure(layers.stale_lookups == 0, || {
        format!("{} stale handle lookups", layers.stale_lookups)
    });
    checks.ensure(
        totals.migrations == w.stats.remote + w.stats.evictions,
        || {
            format!(
                "migrations {} != remote jobs {} + evictions {}",
                totals.migrations, w.stats.remote, w.stats.evictions
            )
        },
    );
    out.failed += w.stats.failed;
    out.run_events += engine.events_executed();

    if in_sample && complete {
        let s = &mut out.sample;
        s.jobs += w.stats.jobs;
        s.job_ms += w.stats.start_delay_ms;
        s.messages += layers.net_messages;
        for cp in engine.take_audit_stream() {
            s.digest.write_u64(cp.events);
            s.digest.write_u64(cp.at.as_micros());
            s.digest.write_u64(cp.digest);
        }
        s.digest.write_u64(w.cluster.digest());
        s.layers.merge(&layers);
    }
    let probe = w.probe;
    probe.call(Layer::Bench, "drop_world", || drop((engine, w)));
    out.epochs.push(EpochTime {
        ops: out.op_ns.len() - ops_before,
        wall_ns: since(start),
        world_ns,
        complete,
    });
    complete
}
