//! No backing file outlives its segment.
//!
//! A heap or stack segment's swap file is created just before the
//! segment's first page-out, and the kernel unlinks it when it frees the
//! address space: at exit, at exec, and when an exec-time migration
//! discards the old image. This drives one cluster through spawn, fork,
//! exec, exec-time migration, migration by every VM strategy, eviction,
//! checkpoint-move and exit, and after each step checks that the `/swap`
//! files the servers store are exactly the files the live address spaces
//! created.

use sprite::fs::{FileId, SpritePath};
use sprite::kernel::{Cluster, ProcessId};
use sprite::migration::{checkpoint_move, MigrationConfig, Migrator};
use sprite::net::{CostModel, HostId, PAGE_SIZE};
use sprite::sim::SimTime;
use sprite::vm::{CkptStrategy, SegmentKind, VirtAddr, VmStrategy};

fn h(i: u32) -> HostId {
    HostId::new(i)
}

fn program() -> SpritePath {
    SpritePath::new("/bin/app")
}

/// The backing files the live address spaces created, in id order.
fn created_by_live_spaces(c: &Cluster) -> Vec<FileId> {
    let mut files: Vec<FileId> = c
        .processes()
        .filter_map(|p| p.space.as_ref())
        .flat_map(|s| [SegmentKind::Heap, SegmentKind::Stack].map(|k| s.segment(k).backing()))
        .flatten()
        .collect();
    files.sort();
    files
}

/// The servers' swap files are exactly the live spaces' files; returns
/// how many there are.
fn check(c: &Cluster, step: &str) -> usize {
    let stored: Vec<FileId> = c.fs.backing_files().collect();
    assert_eq!(stored, created_by_live_spaces(c), "after {step}");
    stored.len()
}

/// Writes `pages` pages of `segment` in `pid`'s space on its current host.
fn dirty(c: &mut Cluster, t: SimTime, pid: ProcessId, segment: SegmentKind, pages: u64) -> SimTime {
    let host = c.pcb(pid).unwrap().current;
    let mut space = c.pcb_mut(pid).unwrap().space.take().unwrap();
    let bytes = vec![0x5a; (pages * PAGE_SIZE) as usize];
    let t = space
        .write(
            &mut c.fs,
            &mut c.net,
            t,
            host,
            VirtAddr::new(segment, 0),
            &bytes,
        )
        .unwrap();
    c.pcb_mut(pid).unwrap().space = Some(space);
    t
}

#[test]
fn no_backing_file_outlives_its_segment() {
    let mut c = Cluster::new(CostModel::sun3(), 6);
    c.add_file_server(h(0), SpritePath::new("/"));
    let t = c
        .install_program(SimTime::ZERO, program(), 16 * 1024)
        .unwrap();
    let mut m = Migrator::new(MigrationConfig::default(), 6);

    // Processes that never page out create no file.
    let (a, t) = c.spawn(t, h(1), &program(), 16, 4).unwrap();
    let t = dirty(&mut c, t, a, SegmentKind::Heap, 3);
    let (b, t) = c.fork(t, a).unwrap();
    let t = c.exec(t, b, &program(), 16, 4).unwrap();
    assert_eq!(check(&c, "spawn, fork and exec"), 0);

    // A flush creates the heap file; each later strategy leaves it, and
    // the flush that first finds dirty stack pages creates the stack file.
    let mut t = m.migrate(&mut c, t, a, h(2)).unwrap().resumed_at;
    assert_eq!(check(&c, "the first sprite-flush migration"), 1);
    t = dirty(&mut c, t, a, SegmentKind::Stack, 1);
    for (strategy, to) in [
        (VmStrategy::FullCopy, 3),
        (VmStrategy::PreCopy, 4),
        (VmStrategy::CopyOnReference, 5),
        (VmStrategy::SpriteFlush, 2),
    ] {
        m.set_vm_strategy(strategy);
        t = m.migrate(&mut c, t, a, h(to)).unwrap().resumed_at;
        check(&c, &format!("migration by {strategy}"));
    }
    assert_eq!(check(&c, "migration by every strategy"), 2);

    // Exec and exec-time migration unlink the old image's files.
    t = dirty(&mut c, t, b, SegmentKind::Heap, 2);
    t = m.migrate(&mut c, t, b, h(3)).unwrap().resumed_at;
    assert_eq!(check(&c, "migrating the forked child"), 3);
    t = c.exec(t, b, &program(), 16, 4).unwrap();
    assert_eq!(check(&c, "exec of a process that paged out"), 2);
    t = dirty(&mut c, t, b, SegmentKind::Heap, 1);
    t = m.migrate(&mut c, t, b, h(4)).unwrap().resumed_at;
    t = m
        .exec_migrate(&mut c, t, b, h(5), &program(), 16, 4)
        .unwrap()
        .resumed_at;
    assert_eq!(check(&c, "exec-time migration"), 2);

    // Eviction flushes a dirty guest home.
    t = dirty(&mut c, t, b, SegmentKind::Stack, 2);
    c.host_mut(h(5)).console_active = true;
    t = m.evict_all(&mut c, t, h(5)).unwrap()[0].resumed_at;
    assert_eq!(c.pcb(b).unwrap().current, h(1));
    assert_eq!(check(&c, "evict_all"), 3);

    // A checkpoint-move's exit unlinks the original's files, and the
    // restored replacement has not paged out.
    let moved = checkpoint_move(&mut c, t, a, h(4), CkptStrategy::FullImage).unwrap();
    assert_eq!(check(&c, "checkpoint_move"), 1);

    // Exit unlinks the rest.
    let t = c.exit(moved.resumed_at, moved.new_pid, 0).unwrap();
    c.exit(t, b, 0).unwrap();
    assert_eq!(check(&c, "exit"), 0);
    assert_eq!(c.stats().notify_losses, 0);
}
