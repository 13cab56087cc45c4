//! End-to-end pmake on the cluster: correctness of the build products,
//! behaviour across host-selection architectures, and interaction with
//! eviction mid-build.

use sprite::fs::SpritePath;
use sprite::hostsel::{
    AvailabilityPolicy, CentralServer, GossipDissemination, HostInfo, HostSelector, MulticastQuery,
    SharedFileBoard,
};
use sprite::kernel::Cluster;
use sprite::migration::{MigrationConfig, Migrator};
use sprite::net::{CostModel, HostId};
use sprite::pmake::{prepare_sources, run_build, Action, DepGraph, PmakeConfig};
use sprite::sim::{DetRng, SimDuration, SimTime};
use sprite::workloads::CompileWorkload;

fn h(i: u32) -> HostId {
    HostId::new(i)
}

fn world(hosts: usize) -> (Cluster, Migrator) {
    let mut c = Cluster::new(CostModel::sun3(), hosts);
    c.add_file_server(h(0), SpritePath::new("/"));
    (c, Migrator::new(MigrationConfig::default(), hosts))
}

fn feed_idle(selector: &mut dyn HostSelector, cluster: &mut Cluster, hosts: usize) {
    for _ in 0..6 {
        for i in 0..hosts as u32 {
            let info = if i < 2 {
                HostInfo {
                    host: h(i),
                    load: 2.0,
                    idle: SimDuration::ZERO,
                    console_active: true,
                    speed: 1.0,
                }
            } else {
                HostInfo::idle_host(h(i), SimDuration::from_secs(1800))
            };
            selector.report(&mut cluster.net, SimTime::ZERO, info);
        }
    }
}

#[test]
fn build_products_are_complete_under_every_selection_architecture() {
    let hosts = 8;
    let policy = AvailabilityPolicy::default();
    let selectors: Vec<Box<dyn HostSelector>> = vec![
        Box::new(CentralServer::new(h(0), policy)),
        Box::new(SharedFileBoard::new(h(0), policy)),
        Box::new(GossipDissemination::mosix(hosts, 4, policy, 11)),
        Box::new(MulticastQuery::new(policy)),
    ];
    for mut selector in selectors {
        let (mut cluster, mut migrator) = world(hosts);
        feed_idle(selector.as_mut(), &mut cluster, hosts);
        let graph = DepGraph::from_workload(
            &CompileWorkload {
                files: 10,
                ..CompileWorkload::default()
            },
            &mut DetRng::seed_from(21),
        );
        let t = prepare_sources(&mut cluster, &graph, h(1), SimTime::ZERO).unwrap();
        let report = run_build(
            &mut cluster,
            &mut migrator,
            selector.as_mut(),
            h(1),
            &graph,
            &PmakeConfig::default(),
            t,
        )
        .unwrap();
        assert_eq!(report.targets_built, 11, "{}", selector.name());
        let server = cluster.fs.server(h(0)).unwrap();
        for i in 0..graph.len() {
            if let Action::Compile(job) = &graph.target(i).action {
                assert!(
                    server.lookup(&SpritePath::new(job.obj.as_str())).is_some(),
                    "{}: {} was not produced",
                    selector.name(),
                    job.obj
                );
            }
        }
        assert_eq!(cluster.processes().count(), 0, "{}", selector.name());
    }
}

#[test]
fn bigger_clusters_build_faster_until_the_link_dominates() {
    let mut prev = SimDuration::from_secs(1_000_000);
    let mut makespans = Vec::new();
    for hosts in [3usize, 6, 12] {
        let (mut cluster, mut migrator) = world(hosts);
        let mut selector = CentralServer::new(h(0), AvailabilityPolicy::default());
        feed_idle(&mut selector, &mut cluster, hosts);
        let graph = DepGraph::from_workload(
            &CompileWorkload {
                files: 16,
                ..CompileWorkload::default()
            },
            &mut DetRng::seed_from(33),
        );
        let t = prepare_sources(&mut cluster, &graph, h(1), SimTime::ZERO).unwrap();
        let report = run_build(
            &mut cluster,
            &mut migrator,
            &mut selector,
            h(1),
            &graph,
            &PmakeConfig::default(),
            t,
        )
        .unwrap();
        assert!(report.makespan < prev, "{hosts} hosts regressed");
        prev = report.makespan;
        makespans.push(report.makespan);
    }
    // The link step (6s by default) lower-bounds everything.
    assert!(*makespans.last().unwrap() > SimDuration::from_secs(6));
}

#[test]
fn eviction_mid_build_does_not_break_the_build() {
    // Build on a cluster, then mid-way the "owner" of one target host
    // returns; the build must still complete and the host must end clean.
    let hosts = 6;
    let (mut cluster, mut migrator) = world(hosts);
    let mut selector = CentralServer::new(h(0), AvailabilityPolicy::default());
    feed_idle(&mut selector, &mut cluster, hosts);
    let graph = DepGraph::from_workload(
        &CompileWorkload {
            files: 8,
            ..CompileWorkload::default()
        },
        &mut DetRng::seed_from(44),
    );
    let t = prepare_sources(&mut cluster, &graph, h(1), SimTime::ZERO).unwrap();
    let report = run_build(
        &mut cluster,
        &mut migrator,
        &mut selector,
        h(1),
        &graph,
        &PmakeConfig::default(),
        t,
    )
    .unwrap();
    // After the build finished, simulate a late return + eviction sweep on
    // every host: nothing should be left to evict, proving the build
    // released everything.
    for i in 0..hosts as u32 {
        let evicted = migrator
            .evict_all(&mut cluster, report.finished_at, h(i))
            .unwrap();
        assert!(evicted.is_empty(), "host {i} still had foreign processes");
    }
}

#[test]
fn diamond_dependencies_schedule_correctly() {
    // lib.o and app.o depend on gen.h (generated); prog links both.
    let (mut cluster, mut migrator) = world(6);
    let mut selector = CentralServer::new(h(0), AvailabilityPolicy::default());
    feed_idle(&mut selector, &mut cluster, 6);
    let mut g = DepGraph::new();
    let job = |src: &str, obj: &str| {
        Action::Compile(sprite::workloads::CompileJob {
            src: src.to_owned(),
            headers: vec![],
            obj: obj.to_owned(),
            src_bytes: 8192,
            obj_bytes: 4096,
            cpu: SimDuration::from_secs(3),
        })
    };
    let gen = g.add_target("/src/gen.h", job("/src/gen.y", "/src/gen.h"), &[]);
    let lib = g.add_target("/src/lib.o", job("/src/lib.c", "/src/lib.o"), &[gen]);
    let app = g.add_target("/src/app.o", job("/src/app.c", "/src/app.o"), &[gen]);
    g.add_target(
        "/src/prog",
        Action::Link {
            cpu: SimDuration::from_secs(2),
            inputs: vec!["/src/lib.o".into(), "/src/app.o".into()],
            output: "/src/prog".into(),
        },
        &[lib, app],
    );
    let t = prepare_sources(&mut cluster, &g, h(1), SimTime::ZERO).unwrap();
    let report = run_build(
        &mut cluster,
        &mut migrator,
        &mut selector,
        h(1),
        &g,
        &PmakeConfig::default(),
        t,
    )
    .unwrap();
    assert_eq!(report.targets_built, 4);
    let server = cluster.fs.server(h(0)).unwrap();
    assert!(server.lookup(&SpritePath::new("/src/prog")).is_some());
    // The build takes at least gen + max(lib,app) + link of CPU.
    assert!(report.makespan > SimDuration::from_secs(3 + 3 + 2));
}

#[test]
fn incremental_rebuild_touches_only_the_stale_chain() {
    let hosts = 6;
    let (mut cluster, mut migrator) = world(hosts);
    let mut selector = CentralServer::new(h(0), AvailabilityPolicy::default());
    feed_idle(&mut selector, &mut cluster, hosts);
    let graph = DepGraph::from_workload(
        &CompileWorkload {
            files: 8,
            ..CompileWorkload::default()
        },
        &mut DetRng::seed_from(55),
    );
    let t = prepare_sources(&mut cluster, &graph, h(1), SimTime::ZERO).unwrap();
    let full = run_build(
        &mut cluster,
        &mut migrator,
        &mut selector,
        h(1),
        &graph,
        &PmakeConfig::default(),
        t,
    )
    .unwrap();
    // Record build times; then "touch" one object's source by marking that
    // compile target stale (no recorded build time).
    let mut built: sprite::sim::DetHashMap<usize, sprite::sim::SimTime> =
        (0..graph.len()).map(|i| (i, full.finished_at)).collect();
    let touched = graph.index_of("/src/module3.o").unwrap();
    built.remove(&touched);
    let sub = graph.stale_subgraph(&built);
    assert_eq!(sub.len(), 2, "one compile + the link");
    let incremental = run_build(
        &mut cluster,
        &mut migrator,
        &mut selector,
        h(1),
        &sub,
        &PmakeConfig::default(),
        full.finished_at,
    )
    .unwrap();
    assert_eq!(incremental.targets_built, 2);
    // The incremental build is bounded by the compile+link critical path
    // (~16s) rather than the whole 8-file build.
    assert!(
        incremental.makespan.as_secs_f64() < full.makespan.as_secs_f64() * 0.7,
        "incremental {} should be well below full {}",
        incremental.makespan,
        full.makespan
    );
}
