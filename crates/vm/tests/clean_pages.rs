//! A page is clean only when its bytes are in its backing file or it is a
//! zero page.
//!
//! A copy-on-reference migration leaves a written page on the source, and
//! the fetch that brings it to the target must not make it clean: no
//! backing file holds its bytes yet. A later flush, or a dirty-only
//! checkpoint, would otherwise skip the page, and the process would read
//! zeros where it wrote. These tests write a heap page, migrate by every
//! VM strategy, and check the bytes after a second migration by every
//! strategy and after a checkpoint of either kind restored into a fresh
//! space.

use sprite_fs::{FileId, FsConfig, SpriteFs, SpritePath};
use sprite_net::{CostModel, HostId, Transport, PAGE_SIZE};
use sprite_sim::SimTime;
use sprite_vm::{
    checkpoint, restore, transfer, AddressSpace, CkptStrategy, SegmentKind, TransferParams,
    VirtAddr, VmStrategy,
};

fn h(i: u32) -> HostId {
    HostId::new(i)
}

/// Where the written bytes sit: across the boundary of heap pages 2 and 3.
fn addr() -> VirtAddr {
    VirtAddr::new(SegmentKind::Heap, 3 * PAGE_SIZE - 40)
}

fn payload() -> Vec<u8> {
    (0..100u8).map(|i| i.wrapping_mul(7) | 1).collect()
}

struct World {
    net: Transport,
    fs: SpriteFs,
    program: FileId,
    t: SimTime,
}

fn world() -> World {
    let mut net = Transport::new(CostModel::sun3(), 5);
    let mut fs = SpriteFs::new(FsConfig::default(), 5);
    fs.add_server(h(0), SpritePath::new("/"));
    let (program, t) = fs
        .create(&mut net, SimTime::ZERO, h(1), SpritePath::new("/bin/p"))
        .unwrap();
    World {
        net,
        fs,
        program,
        t,
    }
}

/// A space on host 1 with `payload` written at `addr`, migrated to host 2
/// by `first`.
fn written_and_migrated(w: &mut World, first: VmStrategy) -> AddressSpace {
    let mut space = AddressSpace::create("p", w.program, 2, 8, 4);
    w.t = space
        .write(&mut w.fs, &mut w.net, w.t, h(1), addr(), &payload())
        .unwrap();
    w.t = migrate(w, &mut space, first, h(1), h(2));
    space
}

fn migrate(
    w: &mut World,
    space: &mut AddressSpace,
    strategy: VmStrategy,
    from: HostId,
    to: HostId,
) -> SimTime {
    transfer(
        space,
        strategy,
        &mut w.fs,
        &mut w.net,
        w.t,
        from,
        to,
        &TransferParams::default(),
    )
    .unwrap()
    .resumed_at
}

fn read_back(w: &mut World, space: &mut AddressSpace, host: HostId) -> Vec<u8> {
    let (bytes, t) = space
        .read(
            &mut w.fs,
            &mut w.net,
            w.t,
            host,
            addr(),
            payload().len() as u64,
        )
        .unwrap();
    w.t = t;
    bytes
}

#[test]
fn written_pages_survive_a_read_between_any_two_migrations() {
    for first in VmStrategy::ALL {
        for second in VmStrategy::ALL {
            let case = format!("{first} then {second}");
            let mut w = world();
            let mut space = written_and_migrated(&mut w, first);
            assert_eq!(read_back(&mut w, &mut space, h(2)), payload(), "{case}");
            w.t = migrate(&mut w, &mut space, second, h(2), h(3));
            assert_eq!(read_back(&mut w, &mut space, h(3)), payload(), "{case}");
        }
    }
}

#[test]
fn written_pages_survive_a_checkpoint_after_any_migration() {
    for first in VmStrategy::ALL {
        for strategy in CkptStrategy::ALL {
            let case = format!("{first} then a {strategy} checkpoint");
            let mut w = world();
            let mut space = written_and_migrated(&mut w, first);
            let path = SpritePath::new("/ckpt/p");
            let (_, report) = checkpoint(
                &mut space,
                strategy,
                &mut w.fs,
                &mut w.net,
                w.t,
                h(2),
                path.clone(),
            )
            .unwrap();
            w.t = report.completed_at;
            let mut fresh = AddressSpace::create("q", w.program, 2, 8, 4);
            w.t = restore(&mut fresh, &mut w.fs, &mut w.net, w.t, h(3), &path)
                .unwrap()
                .resumed_at;
            assert_eq!(read_back(&mut w, &mut fresh, h(3)), payload(), "{case}");
        }
    }
}
