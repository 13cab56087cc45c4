//! Property test for the conservative-parallel engine's headline claim:
//! the digest stream of a sharded run is **byte-identical** to the serial
//! run's, for every seed and every shard count.
//!
//! The m02 macrobench checks one workload at one seed; this test sweeps
//! seeds × shard counts over the same host-cell cluster model, so a
//! partition-dependence bug that only shows under some RNG history has
//! forty chances per `cargo test -q` to surface. Worker counts are varied
//! too (serial reference runs single-threaded, sharded runs auto-detect),
//! so the thread schedule itself is exercised where the machine allows.

use sprite_kernel::{build_cluster_cells, HostCell};
use sprite_net::{CostModel, ShardLink};
use sprite_sim::{Checkpoint, EngineCounters, ShardCounters, ShardedEngine, SimTime};

#[path = "../../../tests/common/mod.rs"]
mod common;

const HOSTS: u32 = 31;
const SIM_MINUTES: u64 = 10 * 60; // ten simulated hours
const SEEDS: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89];
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Builds a `hosts`-cell cluster from `seed`, every host's first tick at
/// minute one, and runs it for `minutes` simulated minutes.
fn run_cluster(
    hosts: u32,
    seed: u64,
    nshards: usize,
    workers: usize,
    audit_every: u64,
    minutes: u64,
) -> ShardedEngine<HostCell> {
    let link = ShardLink::new(CostModel::sun3(), sprite_sim::SimDuration::from_secs(60));
    let cells = build_cluster_cells(hosts, seed);
    let mut eng = ShardedEngine::new(cells, nshards, link.lookahead());
    eng.set_workers(workers);
    eng.audit_every_windows(audit_every);
    for id in 0..hosts {
        eng.seed_timer(id, SimTime::from_micros(60_000_000), 0);
    }
    eng.run(SimTime::from_micros(minutes * 60_000_000));
    eng
}

fn drive(seed: u64, nshards: usize, workers: usize) -> (Vec<Checkpoint>, u64, u64) {
    let mut eng = run_cluster(HOSTS, seed, nshards, workers, 30, SIM_MINUTES);
    let events = eng.events_executed();
    let messages = eng.messages_delivered();
    (eng.take_audit_stream(), events, messages)
}

#[test]
fn digest_stream_is_seed_by_seed_identical_across_shard_counts() {
    // The shared harness drives every (seed, shards) cell across a worker
    // pool; results come back in canonical order, seed-major, so each
    // seed's group leads with its single-shard serial reference. Sharded
    // cells use workers = 0 (engine auto-detect): on a single-core machine
    // that still exercises the threaded path when the clamp allows more
    // than one worker.
    let units = common::seed_matrix!(SEEDS, SHARD_COUNTS);
    let outcomes = common::sweep(&units, 4, |&(seed, nshards)| {
        drive(seed, nshards, if nshards == 1 { 1 } else { 0 })
    });
    for (&seed, group) in SEEDS.iter().zip(outcomes.chunks(SHARD_COUNTS.len())) {
        let (reference, ref_events, ref_messages) = &group[0];
        assert!(
            !reference.is_empty(),
            "seed {seed}: the reference run produced no checkpoints"
        );
        for (&nshards, (stream, events, messages)) in SHARD_COUNTS.iter().zip(group).skip(1) {
            assert_eq!(
                stream, reference,
                "seed {seed}: digest stream diverged at {nshards} shards"
            );
            assert_eq!(
                events, ref_events,
                "seed {seed}: event count diverged at {nshards} shards"
            );
            assert_eq!(
                messages, ref_messages,
                "seed {seed}: message count diverged at {nshards} shards"
            );
        }
    }
}

#[test]
fn explicit_worker_counts_cannot_change_the_stream() {
    // Same partitioning, different thread counts: 4 shards on 1, 2 and 4
    // workers must agree exactly. The engine clamps workers only to the
    // shard count, so each count runs its own thread schedule even where
    // the machine has fewer cores.
    let worker_counts = [1usize, 2, 4];
    let streams = common::sweep(&worker_counts, 2, |&w| drive(7, 4, w).0);
    for (workers, stream) in worker_counts.iter().zip(&streams).skip(1) {
        assert_eq!(
            stream, &streams[0],
            "digest stream diverged at 4 shards / {workers} workers"
        );
    }
}

/// The calendar effort of one drive: queue counters summed over shards,
/// per-shard counters, and barrier windows.
fn effort(nshards: usize, workers: usize) -> (EngineCounters, Vec<ShardCounters>, u64) {
    let eng = run_cluster(64, 9, nshards, workers, 0, 24 * 60);
    (eng.queue_counters(), eng.shard_counters(), eng.windows())
}

#[test]
fn calendar_effort_is_worker_invariant_and_pinned_for_one_shard() {
    // Every shard runs execute, push merged mail, then ready its next
    // window, in that order, whichever worker owns it. Calling the next
    // window's lookup before the mail is pushed, or merging into another
    // worker's shards in a different order, moves these counters; the
    // one-shard values also pin the single-worker calendar work that the
    // cell_month benchmark digest folds.
    for nshards in [1, 2, 4] {
        let reference = effort(nshards, 1);
        for workers in [2, 4] {
            assert_eq!(
                effort(nshards, workers),
                reference,
                "calendar effort diverged at {nshards} shards / {workers} workers"
            );
        }
    }
    let (queue, shards, windows) = effort(1, 1);
    assert_eq!(
        queue,
        EngineCounters {
            events_executed: 39_719,
            handler_allocations: 0,
            periodic_reschedules: 0,
            buckets_scanned: 44_334,
            keys_compared: 50_576,
            overflow_migrations: 97,
            resizes: 2,
        }
    );
    assert_eq!(shards[0].events, 39_719);
    assert_eq!(windows, 1_439);
}
