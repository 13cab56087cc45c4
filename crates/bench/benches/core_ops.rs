//! Std-only microbenches over the core simulated operations.
//!
//! These measure the *wall-clock* cost of executing the simulation — useful
//! for keeping the harness fast — and, once per run, print the headline
//! simulated-time numbers so `cargo bench` output shows the reproduction
//! values alongside. Each scenario is timed with `std::time::Instant` over a
//! fixed iteration count (no external benchmark harness, so the suite builds
//! offline).

use std::hint::black_box;
use std::time::Instant;

use sprite_bench::support::{dirty_heap, h, standard_cluster, standard_migrator, warmed_selector};
use sprite_core::Migrator;
use sprite_fs::SpritePath;
use sprite_pmake::{prepare_sources, run_build, DepGraph, PmakeConfig};
use sprite_sim::{DetRng, SimDuration, SimTime};
use sprite_workloads::CompileWorkload;

/// Times `iters` runs of `f` (after one untimed warmup) and prints the mean.
fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let total = start.elapsed();
    let per_iter = total / iters;
    println!("{name:32} {per_iter:>12.2?}/iter   ({iters} iters, {total:.2?} total)");
}

fn bench_migration() {
    // Print the simulated headline number once.
    {
        let (mut cluster, t) = standard_cluster(4);
        let mut migrator = standard_migrator(4);
        let (pid, t) = cluster
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        let r = migrator.migrate(&mut cluster, t, pid, h(2)).unwrap();
        eprintln!(
            "[sim] trivial migration: total {} freeze {}",
            r.total_time, r.freeze_time
        );
    }
    bench("migrate_trivial_process", 200, || {
        let (mut cluster, t) = standard_cluster(4);
        let mut migrator = standard_migrator(4);
        let (pid, t) = cluster
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        black_box(migrator.migrate(&mut cluster, t, pid, h(2)).unwrap());
    });
    bench("migrate_1mb_dirty", 200, || {
        let (mut cluster, t) = standard_cluster(4);
        let mut migrator = standard_migrator(4);
        let (pid, t) = cluster
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 300, 8)
            .unwrap();
        let t = dirty_heap(&mut cluster, t, pid, 1.0);
        black_box(migrator.migrate(&mut cluster, t, pid, h(2)).unwrap());
    });
}

fn bench_pmake() {
    {
        let (mut cluster, t0) = standard_cluster(8);
        let mut migrator = standard_migrator(8);
        let mut selector = warmed_selector(&mut cluster, 8, 2);
        let graph = DepGraph::from_workload(
            &CompileWorkload {
                files: 12,
                ..CompileWorkload::default()
            },
            &mut DetRng::seed_from(1),
        );
        let t = prepare_sources(&mut cluster, &graph, h(1), t0).unwrap();
        let r = run_build(
            &mut cluster,
            &mut migrator,
            &mut selector,
            h(1),
            &graph,
            &PmakeConfig::default(),
            t,
        )
        .unwrap();
        eprintln!(
            "[sim] 12-file pmake on 8 hosts: makespan {} eff-par {:.2}",
            r.makespan, r.effective_parallelism
        );
    }
    bench("pmake_12_files_8_hosts", 50, || {
        let (mut cluster, t0) = standard_cluster(8);
        let mut migrator = standard_migrator(8);
        let mut selector = warmed_selector(&mut cluster, 8, 2);
        let graph = DepGraph::from_workload(
            &CompileWorkload {
                files: 12,
                ..CompileWorkload::default()
            },
            &mut DetRng::seed_from(1),
        );
        let t = prepare_sources(&mut cluster, &graph, h(1), t0).unwrap();
        black_box(
            run_build(
                &mut cluster,
                &mut migrator,
                &mut selector,
                h(1),
                &graph,
                &PmakeConfig::default(),
                t,
            )
            .unwrap(),
        );
    });
}

fn bench_fs_and_eviction() {
    bench("fs_write_read_64kb", 200, || {
        let (mut cluster, t) = standard_cluster(3);
        let (pid, t) = cluster
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 8, 4)
            .unwrap();
        cluster
            .fs
            .create(&mut cluster.net, t, h(1), SpritePath::new("/bench/data"))
            .unwrap();
        let (fd, t) = cluster
            .open_fd(
                t,
                pid,
                SpritePath::new("/bench/data"),
                sprite_fs::OpenMode::ReadWrite,
            )
            .unwrap();
        let t = cluster.write_fd(t, pid, fd, &[7u8; 65536]).unwrap();
        let stream = cluster.pcb(pid).unwrap().fd(fd).unwrap();
        cluster.fs.seek(stream, 0).unwrap();
        let mut data = Vec::new();
        black_box(cluster.read_fd(t, pid, fd, 65536, &mut data).unwrap());
        black_box(data);
    });
    bench("evict_4_foreign_processes", 100, || {
        let hosts = 7;
        let (mut cluster, mut t) = standard_cluster(hosts);
        let mut migrator: Migrator = standard_migrator(hosts);
        for i in 0..4u32 {
            let (pid, t1) = cluster
                .spawn(t, h(2 + i), &SpritePath::new("/bin/sim"), 16, 4)
                .unwrap();
            let r = migrator.migrate(&mut cluster, t1, pid, h(1)).unwrap();
            t = r.resumed_at + SimDuration::from_millis(1);
        }
        black_box(migrator.evict_all(&mut cluster, t, h(1)).unwrap());
    });
    bench("simulated_hour_of_gossip", 100, || {
        use sprite_hostsel::{AvailabilityPolicy, GossipDissemination, HostInfo, HostSelector};
        use sprite_net::{CostModel, HostId, Transport};
        let hosts = 50;
        let mut net = Transport::new(CostModel::sun3(), hosts);
        let mut sel = GossipDissemination::mosix(hosts, 4, AvailabilityPolicy::default(), 3);
        let mut t = SimTime::ZERO;
        for _ in 0..60 {
            for i in 0..hosts as u32 {
                let info = HostInfo::idle_host(HostId::new(i), SimDuration::from_secs(900));
                sel.report(&mut net, t, info);
            }
            t += SimDuration::from_secs(60);
        }
        black_box(sel.stats().messages);
    });
}

fn bench_hostsel_ranking() {
    use sprite_hostsel::{AvailabilityPolicy, GossipDissemination, HostInfo, HostSelector};
    use sprite_net::{CostModel, HostId, Transport};
    let hosts = 10_000;
    let mut net = Transport::new(CostModel::sun3(), hosts);
    let mut sel = GossipDissemination::new(hosts, 2, 8, AvailabilityPolicy::default(), 17);
    sel.set_cache_capacity(hosts);
    sel.set_max_age(SimDuration::from_secs(3600));
    let now = SimTime::ZERO + SimDuration::from_secs(1000);
    let world: Vec<HostInfo> = (0..hosts as u32)
        .map(|i| {
            HostInfo::idle_host(
                HostId::new(i),
                SimDuration::from_secs(60 + u64::from(i % 997)),
            )
        })
        .collect();
    let requester = HostId::new(0);
    for info in &world {
        sel.prime(requester, *info, now);
    }
    let mut t = now;
    sprite_sim::take_hash_probes(); // drain the thread counter
    bench("gossip_rank_10k_cached", 200, || {
        let (pick, t2) = sel.select(&mut net, t, requester, &world);
        let host = pick.expect("a warm cache always grants");
        t = sel.release(&mut net, t2, requester, host);
        black_box(host);
    });
    // The fast path's contract: a select is a scan over the cache slots and
    // the reusable scratch — no hashing, no allocation growth.
    assert_eq!(
        sprite_sim::take_hash_probes(),
        0,
        "the ranking fast path must not hash"
    );
    assert_eq!(
        sel.ranker_grows(),
        0,
        "pre-sized ranking scratch must not reallocate"
    );
    eprintln!(
        "[sim] gossip ranking scanned {} cached entries per select, hash- and allocation-free",
        sel.cached_entries(requester)
    );
}

fn main() {
    println!("core_ops microbench (std::time::Instant, mean of fixed iters)");
    bench_migration();
    bench_pmake();
    bench_fs_and_eviction();
    bench_hostsel_ranking();
}
