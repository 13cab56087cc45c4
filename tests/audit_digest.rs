//! The replay auditor's foundation: cluster state digests.
//!
//! Two runs of the same seeded scenario must produce identical digest
//! streams — that equivalence is what the `audit` experiment checks across
//! `--jobs` values. These tests pin the seam itself: digests are
//! reproducible, sensitive to every layer of state they cover (kernel,
//! network, file system), and sampled deterministically by the engine's
//! checkpoint hook.

use sprite::fs::{OpenMode, SpritePath};
use sprite::kernel::{build_cluster_cells, Cluster};
use sprite::net::{CostModel, HostId, RpcOp};
use sprite::sim::{Cell, Engine, ShardedEngine, SimDuration, SimTime, StateDigest};

fn h(i: u32) -> HostId {
    HostId::new(i)
}

/// A small deterministic scenario: spawn, fork, open, migrate, signal.
fn drive(steps: usize) -> Cluster {
    let mut c = Cluster::new(CostModel::sun3(), 4);
    c.add_file_server(h(0), SpritePath::new("/"));
    let t = c
        .install_program(SimTime::ZERO, SpritePath::new("/bin/sh"), 16 * 1024)
        .unwrap();
    let (leader, t) = c.spawn(t, h(1), &SpritePath::new("/bin/sh"), 8, 2).unwrap();
    let (child, t) = c.fork(t, leader).unwrap();
    let mut t = t;
    if steps > 1 {
        c.fs.create(&mut c.net, t, h(1), SpritePath::new("/data"))
            .unwrap();
        let (_, t2) = c
            .open_fd(t, child, SpritePath::new("/data"), OpenMode::ReadWrite)
            .unwrap();
        t = t2;
    }
    if steps > 2 {
        c.freeze(child).unwrap();
        c.relocate(child, h(2)).unwrap();
        c.thaw(child).unwrap();
        let _ = t;
    }
    c
}

#[test]
fn identical_scenarios_digest_identically() {
    assert_eq!(drive(3).digest(), drive(3).digest());
}

#[test]
fn digest_sees_every_layer() {
    // Each additional step touches a different subsystem (FS streams, then
    // migration + transport); the digest must move each time.
    let d1 = drive(1).digest();
    let d2 = drive(2).digest();
    let d3 = drive(3).digest();
    assert_ne!(d1, d2, "an opened stream must change the digest");
    assert_ne!(d2, d3, "a migration must change the digest");
    assert_ne!(d1, d3);
}

#[test]
fn digest_sees_kernel_counters_and_pcb_fields() {
    let mut a = drive(2);
    let b = drive(2);
    assert_eq!(a.digest(), b.digest());
    // Mutate one PCB field through the public seam; the digest must move.
    let pid = a.processes().next().unwrap().pid;
    a.pcb_mut(pid).unwrap().cpu_used += SimDuration::from_millis(1);
    assert_ne!(a.digest(), b.digest(), "cpu accounting must be covered");
}

#[test]
fn engine_checkpoints_cluster_digests_deterministically() {
    let run = || {
        let mut cluster = drive(2);
        let mut engine: Engine<Cluster> = Engine::new();
        // A tick that exercises kernel + FS + net state every 10 minutes.
        engine.audit_every(2, Cluster::digest);
        engine.schedule_periodic(
            SimDuration::from_secs(600),
            SimDuration::from_secs(600),
            |c: &mut Cluster, eng| {
                let now = eng.now();
                let pid = c.processes().next().unwrap().pid;
                c.pcb_mut(pid).unwrap().cpu_used += SimDuration::from_millis(7);
                let _ = c.net.send(RpcOp::SignalForward, now, h(1), h(0), None);
                eng.events_executed() < 12
            },
        );
        engine.run(&mut cluster);
        engine.take_audit_stream()
    };
    let (s1, s2) = (run(), run());
    assert!(!s1.is_empty(), "the periodic tick must hit checkpoints");
    assert_eq!(s1, s2, "identical runs must produce identical streams");
    // Checkpoints land on exact event-count multiples, in order.
    for (i, cp) in s1.iter().enumerate() {
        assert_eq!(cp.events, 2 * (i as u64 + 1));
    }
}

/// Pinned value of `drive(3).digest()`. Any change to what a `digest_into`
/// folds, or to the order it folds it in, moves this constant — a refactor
/// that must keep replay streams comparable has to keep it. The per-op RPC
/// and fault tables fold only the rows that saw traffic, each led by its
/// op's label, so adding or retiring an op that no run uses no longer
/// moves it; that change (with the unused `FaultRow::delays` counter
/// dropped) moved it once from `0xef6e_fe03_0a1b_6353`, with the
/// simulation unchanged. Creating swap files at a segment's first
/// page-out, not at every spawn and fork, moved it from
/// `0xd043_0fd7_6b9c_bd57`: the scenario never pages out, so it now
/// makes no swap-file lookups and stores no swap files. Folding each file
/// server's exact queue wait (the sum of each request's wait from its
/// arrival to its CPU slot) instead of the busy horizon sampled at each
/// dispatch moved it from `0x22a8_61f3_2646_5e47`: the scenario's open
/// is issued while the create still holds the server, and its schedule
/// is unchanged (folding the old sample kept the old value).
const DRIVE3_DIGEST: u64 = 0x197e_fb85_d66f_3bce;

#[test]
fn cluster_digest_value_is_pinned() {
    assert_eq!(
        drive(3).digest(),
        DRIVE3_DIGEST,
        "Cluster fold order or content changed"
    );
}

/// Pinned digest of host 3 of an 8-host m02 cell population after ten
/// simulated minutes on one shard.
const HOST_CELL_DIGEST: u64 = 0x711b_0180_5947_4c7f;

#[test]
fn host_cell_digest_value_is_pinned() {
    let minute = SimDuration::from_secs(60);
    let mut eng = ShardedEngine::new(build_cluster_cells(8, 42), 1, minute);
    for id in 0..8 {
        eng.seed_timer(id, SimTime::ZERO + minute, 0);
    }
    eng.run(SimTime::ZERO + minute * 10u64);
    let cell = eng.cells().nth(3).unwrap();
    let mut d = StateDigest::new();
    cell.digest_into(&mut d);
    assert_eq!(
        d.finish(),
        HOST_CELL_DIGEST,
        "HostCell fold order or content changed"
    );
}

#[test]
fn state_digest_is_stable_across_subsystem_composition() {
    // Folding the same cluster into two accumulators that already diverge
    // keeps them diverged: digest_into composes, it doesn't reset.
    let c = drive(2);
    let mut a = StateDigest::new();
    let mut b = StateDigest::new();
    b.write_u8(1);
    c.digest_into(&mut a);
    c.digest_into(&mut b);
    assert_ne!(a.finish(), b.finish());
}
