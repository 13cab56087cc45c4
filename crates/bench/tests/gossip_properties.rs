//! Property tests for the decentralized host-selection determinism claim:
//! gossip fanout comes from a seeded DetRng, so stdout tables and audit
//! digest streams are byte-identical for every `--jobs` and `--shards`
//! value, seed by seed.
//!
//! Three layers are swept:
//!
//! 1. the E10 decentralization sweep (central vs sharded vs gossip), whose
//!    cells run as separate runner units and merge by canonical index;
//! 2. the E11 month driven through [`GossipDissemination`] — the m01
//!    macrobench's placement path — with the engine's audit hook armed;
//! 3. the partitioned `HostCell` cluster, whose `HostMsg::Gossip` batches
//!    must not perturb the sharded engine's digest stream.

use sprite_bench::experiments::{e10, e11};
use sprite_bench::runner::{render_suite, run_suite};
use sprite_hostsel::{AvailabilityPolicy, GossipDissemination, HostSelector};
use sprite_kernel::{build_cluster_cells, HostCellStats};
use sprite_sim::{Checkpoint, DetRng, ShardedEngine, SimDuration, SimTime};

#[path = "../../../tests/common/mod.rs"]
mod common;

const SEEDS: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89];

#[test]
fn e10_sweep_stdout_is_jobs_invariant_for_every_seed() {
    let d = SimDuration::from_secs(300);
    // Two harness workers, each running its seed's sweep through the runner
    // on 4 jobs: the invariance claim is tested under a busier thread
    // schedule than a plain serial loop would give it.
    common::sweep(&SEEDS, 2, |&seed| {
        let stdout = |jobs| {
            render_suite(&run_suite(
                vec![e10::sweep_experiment(&[40], d, seed)],
                jobs,
            ))
        };
        assert_eq!(
            stdout(1),
            stdout(4),
            "seed {seed}: sweep table diverged between 1 and 4 jobs"
        );
    });
}

/// A month-in-the-life gossip selector shaped like the m01 macrobench's,
/// scaled to the test cluster.
fn month_gossip(hosts: usize, seed: u64) -> Box<dyn HostSelector> {
    let mut g = GossipDissemination::new(hosts, 1, 4, AvailabilityPolicy::default(), seed ^ 0x6055);
    g.set_refresh_every(5);
    g.set_max_age(SimDuration::from_secs(45 * 60));
    Box::new(g)
}

#[test]
fn gossip_month_audit_streams_are_replication_pure() {
    // Each replication is a pure function of its forked RNG and the gossip
    // seed — which thread runs it (and in what order) cannot matter. Replay
    // every replication twice, in opposite orders, and require identical
    // reports and identical digest streams.
    for seed in SEEDS {
        let rngs = e11::replication_rngs(seed, 2);
        let forward: Vec<_> = rngs
            .iter()
            .enumerate()
            .map(|(i, rng)| {
                e11::run_audited_with(6, 1, rng.clone(), 200, month_gossip(6, i as u64))
            })
            .collect();
        let backward: Vec<_> = rngs
            .iter()
            .enumerate()
            .rev()
            .map(|(i, rng)| {
                e11::run_audited_with(6, 1, rng.clone(), 200, month_gossip(6, i as u64))
            })
            .collect();
        for ((ra, sa), (rb, sb)) in forward.iter().zip(backward.iter().rev()) {
            assert_eq!(sa, sb, "seed {seed}: audit stream depended on run order");
            assert_eq!(ra.jobs, rb.jobs, "seed {seed}");
            assert_eq!(ra.remote_jobs, rb.remote_jobs, "seed {seed}");
            assert_eq!(ra.hostsel_requests, rb.hostsel_requests, "seed {seed}");
            assert_eq!(ra.hostsel_bytes, rb.hostsel_bytes, "seed {seed}");
            assert_eq!(ra.sim_events, rb.sim_events, "seed {seed}");
        }
        // The two replications must not be the same run in disguise.
        assert_ne!(
            forward[0].1, forward[1].1,
            "seed {seed}: forked replications collapsed"
        );
    }
}

#[test]
fn gossip_month_places_jobs_remotely() {
    // The decentralized month still does the thesis's job: most launches
    // leave home at exec time, and selection stays off the wire (gossip
    // bytes only, no query round trips).
    let rng = DetRng::seed_from(97);
    let r = e11::run_seeded_with(8, 2, rng, month_gossip(8, 97));
    assert!(r.jobs > 10, "jobs {}", r.jobs);
    assert!(
        r.remote_jobs as f64 >= 0.5 * r.jobs as f64,
        "most jobs should place remotely: {}/{}",
        r.remote_jobs,
        r.jobs
    );
    assert_eq!(
        r.rpc.get(sprite_net::RpcOp::HostselQuery).calls,
        0,
        "gossip placement must not issue query round trips"
    );
    assert!(
        r.rpc.get(sprite_net::RpcOp::HostselGossip).calls > 0,
        "gossip pushes must carry the load vectors"
    );
}

const CELL_HOSTS: u32 = 31;
const CELL_MINUTES: u64 = 4 * 60;

fn drive_cells(seed: u64, nshards: usize) -> (Vec<Checkpoint>, Vec<HostCellStats>) {
    let cells = build_cluster_cells(CELL_HOSTS, seed);
    let mut eng = ShardedEngine::new(cells, nshards, SimDuration::from_secs(60));
    eng.set_workers(0); // auto-detect
    eng.audit_every_windows(30);
    for id in 0..CELL_HOSTS {
        eng.seed_timer(id, SimTime::from_micros(60_000_000), 0);
    }
    eng.run(SimTime::from_micros(CELL_MINUTES * 60_000_000));
    let stats = eng.cells().map(|c| c.stats()).collect();
    (eng.take_audit_stream(), stats)
}

#[test]
fn kernel_gossip_batches_survive_resharding() {
    const SHARDS: [usize; 3] = [1, 2, 4];
    let units = common::seed_matrix!([3u64, 7, 11], SHARDS);
    let outcomes = common::sweep(&units, 3, |&(seed, nshards)| drive_cells(seed, nshards));
    for ((seed, _), group) in units
        .iter()
        .step_by(SHARDS.len())
        .zip(outcomes.chunks(SHARDS.len()))
    {
        let (reference, ref_stats) = &group[0];
        let gossiped: u64 = ref_stats.iter().map(|s| s.gossip_sent).sum();
        assert!(gossiped > 0, "seed {seed}: cell gossip never engaged");
        for (&nshards, (stream, stats)) in SHARDS.iter().zip(group).skip(1) {
            assert_eq!(
                stream, reference,
                "seed {seed}: digest stream diverged at {nshards} shards"
            );
            assert_eq!(stats, ref_stats, "seed {seed}: stats diverged");
        }
    }
}
