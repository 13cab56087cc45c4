//! `pmake_build`: the read-path workload.
//!
//! Closed loop: pmake's job window launches the next compile only when a
//! running one completes. Each timed operation is one whole build on a
//! fresh 16-host cluster whose root domain is striped over two file
//! servers, with a central selector warmed with every host's state: 400
//! compiles of small sources, each opening 32 headers from a pool of 8,
//! then a 2 s link (e05's file-server-heavy shape). Build `i`'s graph is
//! seeded from `(seed, i)`; writing its sources is part of the world
//! build, which `setup_s` times.
//!
//! Host time goes to name lookups, header opens, block fetches, client and
//! name caches, read replicas and pmake's scheduling; there is no engine
//! work and no dirty VM. An FS read-path change shows here; `migrate_evict`
//! shows whether it cost the write path.

use std::time::Instant;

use sprite_core::{MigrationConfig, Migrator};
use sprite_hostsel::{AvailabilityPolicy, CentralServer, HostInfo, HostSelector, SelectorStats};
use sprite_kernel::{Cluster, ClusterBuilder};
use sprite_net::{HostId, Transport};
use sprite_pmake::{prepare_sources, run_build, DepGraph, PmakeConfig, PmakeError, PmakeReport};
use sprite_sim::{DetRng, SimDuration, SimTime};
use sprite_workloads::CompileWorkload;

use crate::measure::{
    host as h, run_epochs, since, sub_seed, Budget, EpochTime, LayerCounts, Outcome,
};
use crate::probe::{Layer, Probe};

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub hosts: usize,
    pub fs_shards: usize,
    /// Compiles per build.
    pub files: usize,
    /// Leading builds whose statistics form the sample.
    pub sample_builds: u64,
}

pub const FULL: Size = Size {
    hosts: 16,
    fs_shards: 2,
    files: 400,
    sample_builds: 20,
};

/// A selector whose calls are timed, for traced runs (`run_build` calls
/// the selector itself).
struct TimedSelector<'a, P> {
    inner: &'a mut CentralServer,
    probe: &'a P,
}

impl<P: Probe> HostSelector for TimedSelector<'_, P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn report(&mut self, net: &mut Transport, now: SimTime, info: HostInfo) -> SimTime {
        let inner = &mut *self.inner;
        self.probe
            .call(Layer::Hostsel, "report", || inner.report(net, now, info))
    }

    fn select(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        requester: HostId,
        truth: &[HostInfo],
    ) -> (Option<HostId>, SimTime) {
        let inner = &mut *self.inner;
        self.probe.call(Layer::Hostsel, "select", || {
            inner.select(net, now, requester, truth)
        })
    }

    fn release(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        requester: HostId,
        host: HostId,
    ) -> SimTime {
        let inner = &mut *self.inner;
        self.probe.call(Layer::Hostsel, "release", || {
            inner.release(net, now, requester, host)
        })
    }

    fn stats(&self) -> &SelectorStats {
        self.inner.stats()
    }
}

struct World {
    cluster: Cluster,
    migrator: Migrator,
    selector: CentralServer,
    graph: DepGraph,
    home: HostId,
    ready_at: SimTime,
}

/// Build `seed`'s world: cluster, warmed selector, graph and sources.
fn world<P: Probe>(seed: u64, size: &Size, probe: &P) -> Result<World, PmakeError> {
    let servers: Vec<HostId> = (0..size.fs_shards).map(h).collect();
    let (mut cluster, t) = probe.call(Layer::Kernel, "build_cluster", || {
        ClusterBuilder::new(size.hosts)
            .sharded_file_service(&servers, "/")
            .program("/bin/cc", 48 * 1024)
            .build()
    })?;
    // The servers and the home host are busy; the rest are idle targets.
    let home = h(size.fs_shards);
    let selector = probe.call(Layer::Hostsel, "warm_selector", || {
        let mut sel = CentralServer::new(h(0), AvailabilityPolicy::default());
        for i in 0..size.hosts {
            let info = if i <= size.fs_shards {
                HostInfo {
                    host: h(i),
                    load: 2.0,
                    idle: SimDuration::ZERO,
                    console_active: true,
                    speed: 1.0,
                }
            } else {
                HostInfo::idle_host(h(i), SimDuration::from_secs(3600))
            };
            sel.report(&mut cluster.net, SimTime::ZERO, info);
        }
        sel
    });
    let graph = probe.call(Layer::Pmake, "graph", || {
        let workload = CompileWorkload {
            files: size.files,
            mean_cpu: SimDuration::from_millis(500),
            mean_src_bytes: 4 * 1024,
            headers_per_file: 32,
            header_pool: 8,
            link_cpu: SimDuration::from_secs(2),
        };
        DepGraph::from_workload(&workload, &mut DetRng::seed_from(seed))
    });
    let ready_at = probe.span(Layer::Pmake, "prepare_sources", || {
        prepare_sources(&mut cluster, &graph, home, t)
    })?;
    Ok(World {
        cluster,
        migrator: Migrator::new(MigrationConfig::default(), size.hosts),
        selector,
        graph,
        home,
        ready_at,
    })
}

fn build<P: Probe>(w: &mut World, probe: &P) -> Result<PmakeReport, PmakeError> {
    let config = PmakeConfig::default();
    probe.span(Layer::Pmake, "run_build", || {
        let World {
            cluster,
            migrator,
            selector,
            graph,
            home,
            ready_at,
        } = w;
        if P::ON {
            let mut timed = TimedSelector {
                inner: selector,
                probe,
            };
            run_build(
                cluster, migrator, &mut timed, *home, graph, &config, *ready_at,
            )
        } else {
            run_build(
                cluster, migrator, selector, *home, graph, &config, *ready_at,
            )
        }
    })
}

pub fn run<P: Probe>(seed: u64, size: &Size, budget: Budget, probe: &P) -> Outcome {
    run_epochs(
        probe,
        "build",
        budget,
        size.sample_builds,
        |i, in_sample, out| one_build(sub_seed(seed, i), size, in_sample, probe, out),
    )
}

/// One epoch: a fresh world, then the timed build on it.
fn one_build<P: Probe>(
    seed: u64,
    size: &Size,
    in_sample: bool,
    probe: &P,
    out: &mut Outcome,
) -> bool {
    probe.next_op();
    let start = Instant::now();
    let built = world(seed, size, probe);
    let world_ns = since(start);
    let t0 = Instant::now();
    let built = built.and_then(|mut w| build(&mut w, probe).map(|r| (w, r)));
    out.op_ns.push(since(t0));
    match built {
        Ok((w, report)) => {
            account(&w, &report, in_sample, out);
            probe.call(Layer::Bench, "drop_world", || drop(w));
        }
        Err(_) => out.failed += 1,
    }
    out.epochs.push(EpochTime {
        ops: 1,
        wall_ns: since(start),
        world_ns,
        complete: true,
    });
    true
}

fn account(w: &World, report: &PmakeReport, in_sample: bool, out: &mut Outcome) {
    let c = &w.cluster;
    let mut layers = LayerCounts::of_cluster(c, report.finished_at.elapsed_since(SimTime::ZERO));
    layers.add_totals(&w.migrator.totals());
    let sel = w.selector.stats();
    layers.hostsel_requests = sel.requests;
    layers.hostsel_granted = sel.granted;
    layers.pmake_targets = report.targets_built as u64;
    layers.pmake_remote = report.remote_builds as u64;
    let checks = &mut out.checks;
    checks.ensure(report.targets_built == w.graph.len(), || {
        format!(
            "built {} of {} targets",
            report.targets_built,
            w.graph.len()
        )
    });
    checks.ensure(c.processes().next().is_none(), || {
        "processes left after the build".to_string()
    });
    checks.ensure(layers.stale_lookups == 0, || {
        format!("{} stale handle lookups", layers.stale_lookups)
    });
    if in_sample {
        let s = &mut out.sample;
        s.jobs += 1;
        s.job_ms += report.makespan.as_millis_f64();
        s.messages += layers.net_messages;
        s.digest.write_u64(c.digest());
        s.digest.write_u64(report.makespan.as_micros());
        s.layers.merge(&layers);
    }
}
