//! Sharded file service properties: determinism across thread schedules
//! and replica consistency.
//!
//! The striped server group and its read replicas must not cost the
//! simulation its core guarantee — a run is a pure function of its seed.
//! These tests drive a randomized multi-host read/write workload against
//! every shard count, collecting a whole-cluster digest after each
//! operation, and demand the streams be byte-identical whether the units
//! run serially or across a worker pool. Alongside, every read checks the
//! bytes actually returned: after a remote write bumps a file's version,
//! no host — including one served by a stale peer replica — may observe
//! the old contents.

use sprite::fs::{OpenMode, SpritePath};
use sprite::kernel::Cluster;
use sprite::net::{CostModel, HostId};
use sprite::sim::{DetRng, SimTime};

mod common;

fn h(i: u32) -> HostId {
    HostId::new(i)
}

const SEEDS: u64 = 10;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// Client hosts beyond the server group.
const CLIENTS: u32 = 5;
const FILES: usize = 6;
const OPS: usize = 120;

/// A striped-root cluster: servers on hosts `0..shards`, clients after.
fn sharded_world(shards: usize, clients: u32) -> Cluster {
    let hosts = shards + clients as usize;
    let mut c = Cluster::new(CostModel::sun3(), hosts);
    let servers: Vec<HostId> = (0..shards as u32).map(h).collect();
    c.add_sharded_file_service(&servers, SpritePath::new("/"));
    c
}

fn file_path(i: usize) -> SpritePath {
    SpritePath::new(format!("/src/f{i}.dat"))
}

/// Deterministic payload for file `i`'s `n`-th version; length varies by
/// file so reads cross block boundaries on some files and not others.
fn payload(i: usize, n: u64) -> Vec<u8> {
    let len = 512 + 1024 * (i % 3) + 64 * i;
    (0..len)
        .map(|k| (i as u64 * 131 + n * 17 + k as u64) as u8)
        .collect()
}

/// Drives one randomized unit: create the files, then a stream of
/// read/write sessions from rotating client hosts. Returns the digest
/// after every operation. Panics if any read observes stale bytes.
fn drive(seed: u64, shards: usize) -> Vec<u64> {
    let mut c = sharded_world(shards, CLIENTS);
    let mut rng = DetRng::seed_from(seed);
    let home = h(shards as u32);
    let mut t = SimTime::ZERO;
    let mut versions = [0u64; FILES];
    let mut stream = Vec::with_capacity(OPS + FILES);
    for i in 0..FILES {
        c.fs.create(&mut c.net, t, home, file_path(i)).unwrap();
        let (sid, t1) =
            c.fs.open(&mut c.net, t, home, file_path(i), OpenMode::Write)
                .unwrap();
        let t1 =
            c.fs.write(&mut c.net, t1, home, sid, &payload(i, 0))
                .unwrap();
        t = c.fs.close(&mut c.net, t1, home, sid).unwrap();
        stream.push(c.digest());
    }
    for _ in 0..OPS {
        let i = rng.pick_index(FILES);
        let host = h(shards as u32 + rng.uniform_u64(CLIENTS as u64) as u32);
        if rng.chance(0.25) {
            // A write session: bump the file to its next version.
            versions[i] += 1;
            let body = payload(i, versions[i]);
            let (sid, t1) =
                c.fs.open(&mut c.net, t, host, file_path(i), OpenMode::Write)
                    .unwrap();
            let t1 = c.fs.write(&mut c.net, t1, host, sid, &body).unwrap();
            t = c.fs.close(&mut c.net, t1, host, sid).unwrap();
        } else {
            // A read session: whatever host serves it — home shard or a
            // peer replica — the bytes must match the latest version.
            let want = payload(i, versions[i]);
            let (sid, t1) =
                c.fs.open(&mut c.net, t, host, file_path(i), OpenMode::Read)
                    .unwrap();
            let mut got = Vec::new();
            let t1 =
                c.fs.read(&mut c.net, t1, host, sid, want.len() as u64, &mut got)
                    .unwrap();
            assert_eq!(
                got.len(),
                want.len(),
                "seed {seed} shards {shards}: short read of {}",
                file_path(i)
            );
            assert_eq!(
                got,
                want,
                "seed {seed} shards {shards}: stale read of {} at version {}",
                file_path(i),
                versions[i]
            );
            t = c.fs.close(&mut c.net, t1, host, sid).unwrap();
        }
        stream.push(c.digest());
    }
    stream
}

/// Runs every (seed, shards) unit across `jobs` workers via the shared
/// harness (atomic cursor, results in unit order — the same shape as the
/// suite's `--jobs` runner).
fn collect(jobs: usize) -> Vec<Vec<u64>> {
    let units = common::seed_matrix!(0..SEEDS, SHARD_COUNTS);
    common::sweep(&units, jobs, |&(s, k)| drive(s, k))
}

#[test]
fn digest_streams_are_identical_serial_and_threaded() {
    let serial = collect(1);
    let threaded = collect(4);
    assert_eq!(serial.len(), (SEEDS as usize) * SHARD_COUNTS.len());
    for (i, (s, t)) in serial.iter().zip(&threaded).enumerate() {
        assert_eq!(s, t, "unit {i} diverged between jobs=1 and jobs=4");
    }
}

#[test]
fn reruns_of_the_same_unit_are_byte_identical() {
    for &shards in &SHARD_COUNTS {
        assert_eq!(
            drive(3, shards),
            drive(3, shards),
            "shards {shards}: rerun diverged"
        );
    }
}

#[test]
fn replica_reads_after_remote_write_are_never_stale() {
    // A crafted hot file: five reader hosts in rotation accumulate enough
    // host switches (each first read is a real block fetch) to earn peer
    // replicas, then three *fresh* hosts fetch — at least one lands on a
    // peer in the serve rotation — then a remote write drops the set, and
    // a final read from every host must see the new bytes.
    let shards = 2;
    let warmers = 5u32;
    let fresh = 3u32;
    let clients = warmers + fresh;
    let mut c = sharded_world(shards, clients);
    let home = h(shards as u32);
    let path = SpritePath::new("/src/hot.h");
    let mut t = SimTime::ZERO;
    c.fs.create(&mut c.net, t, home, path.clone()).unwrap();
    let v1 = payload(0, 1);
    let (sid, t1) =
        c.fs.open(&mut c.net, t, home, path.clone(), OpenMode::Write)
            .unwrap();
    let t1 = c.fs.write(&mut c.net, t1, home, sid, &v1).unwrap();
    t = c.fs.close(&mut c.net, t1, home, sid).unwrap();
    // Rotate warm-up readers: each first read fetches, and the rotation's
    // host switches push the file past the heat threshold.
    for i in 0..warmers {
        let host = h(shards as u32 + i);
        let (sid, t1) =
            c.fs.open(&mut c.net, t, host, path.clone(), OpenMode::Read)
                .unwrap();
        let mut got = Vec::new();
        let t1 =
            c.fs.read(&mut c.net, t1, host, sid, v1.len() as u64, &mut got)
                .unwrap();
        assert_eq!(got, v1, "warm-up host {i}: wrong v1 bytes");
        t = c.fs.close(&mut c.net, t1, host, sid).unwrap();
    }
    // Fresh hosts fetch for the first time with the replica set live.
    for i in warmers..clients {
        let host = h(shards as u32 + i);
        let (sid, t1) =
            c.fs.open(&mut c.net, t, host, path.clone(), OpenMode::Read)
                .unwrap();
        let mut got = Vec::new();
        let t1 =
            c.fs.read(&mut c.net, t1, host, sid, v1.len() as u64, &mut got)
                .unwrap();
        assert_eq!(got, v1, "fresh host {i}: wrong v1 bytes");
        t = c.fs.close(&mut c.net, t1, host, sid).unwrap();
    }
    assert!(
        c.fs.stats().replica_hits > 0,
        "a fresh host's fetch must have been served by a peer replica"
    );
    // A write from a fresh client bumps the version and must invalidate
    // every peer replica.
    let writer = h(shards as u32 + clients - 1);
    let v2 = payload(0, 2);
    let (sid, t1) =
        c.fs.open(&mut c.net, t, writer, path.clone(), OpenMode::Write)
            .unwrap();
    let t1 = c.fs.write(&mut c.net, t1, writer, sid, &v2).unwrap();
    t = c.fs.close(&mut c.net, t1, writer, sid).unwrap();
    for i in 0..clients {
        let host = h(shards as u32 + i);
        let (sid, t1) =
            c.fs.open(&mut c.net, t, host, path.clone(), OpenMode::Read)
                .unwrap();
        let mut got = Vec::new();
        let t1 =
            c.fs.read(&mut c.net, t1, host, sid, v2.len() as u64, &mut got)
                .unwrap();
        assert_eq!(got, v2, "host {i} read stale bytes after the remote write");
        t = c.fs.close(&mut c.net, t1, host, sid).unwrap();
    }
}
