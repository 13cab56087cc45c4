//! Failure injection: the residual-dependency argument, executed.
//!
//! The thesis's case against copy-on-reference (Ch. 2.3) is that it ties a
//! migrated process to its old host's survival. These tests crash the
//! source host after each strategy's migration and observe who loses state.

use sprite_fs::{FsConfig, SpriteFs, SpritePath};
use sprite_net::{CostModel, HostId, Transport, PAGE_SIZE};
use sprite_sim::SimTime;
use sprite_vm::{transfer, AddressSpace, SegmentKind, TransferParams, VirtAddr, VmStrategy};

fn h(i: u32) -> HostId {
    HostId::new(i)
}

fn setup() -> (Transport, SpriteFs) {
    let net = Transport::new(CostModel::sun3(), 3);
    let mut fs = SpriteFs::new(FsConfig::default(), 3);
    fs.add_server(h(0), SpritePath::new("/"));
    (net, fs)
}

fn migrated_space(
    fs: &mut SpriteFs,
    net: &mut Transport,
    strategy: VmStrategy,
    tag: &str,
) -> (AddressSpace, SimTime, Vec<u8>) {
    let (prog, t) = fs
        .create(
            net,
            SimTime::ZERO,
            h(1),
            SpritePath::new(format!("/bin/{tag}")),
        )
        .unwrap();
    let mut space = AddressSpace::create(tag, prog, 2, 32, 4);
    let payload: Vec<u8> = (0..8 * PAGE_SIZE).map(|i| (i % 241) as u8).collect();
    let t = space
        .write(
            fs,
            net,
            t,
            h(1),
            VirtAddr::new(SegmentKind::Heap, 0),
            &payload,
        )
        .unwrap();
    let report = transfer(
        &mut space,
        strategy,
        fs,
        net,
        t,
        h(1),
        h(2),
        &TransferParams::default(),
    )
    .unwrap();
    (space, report.resumed_at, payload)
}

#[test]
fn copy_on_reference_loses_state_when_the_source_dies() {
    let (mut net, mut fs) = setup();
    let (mut space, t, payload) =
        migrated_space(&mut fs, &mut net, VmStrategy::CopyOnReference, "cor");
    // Touch one page first: it crossed the network and is safe.
    let (first, t) = space
        .read(
            &mut fs,
            &mut net,
            t,
            h(2),
            VirtAddr::new(SegmentKind::Heap, 0),
            64,
        )
        .unwrap();
    assert_eq!(first, payload[..64]);
    // The source host crashes.
    let lost = space.source_host_failed(h(1));
    assert!(lost > 0, "untouched pages were still owed by the source");
    // The untouched tail of the image is gone.
    let (tail, _) = space
        .read(
            &mut fs,
            &mut net,
            t,
            h(2),
            VirtAddr::new(SegmentKind::Heap, 7 * PAGE_SIZE),
            64,
        )
        .unwrap();
    assert_eq!(tail, vec![0u8; 64], "lost pages read as zero-fill damage");
    assert_ne!(
        tail,
        payload[7 * PAGE_SIZE as usize..7 * PAGE_SIZE as usize + 64]
    );
}

#[test]
fn sprite_flush_survives_the_same_crash_unscathed() {
    let (mut net, mut fs) = setup();
    let (mut space, t, payload) =
        migrated_space(&mut fs, &mut net, VmStrategy::SpriteFlush, "flush");
    let lost = space.source_host_failed(h(1));
    assert_eq!(lost, 0, "flush leaves nothing on the source");
    // The whole image is still reachable via the file server.
    let (back, _) = space
        .read(
            &mut fs,
            &mut net,
            t,
            h(2),
            VirtAddr::new(SegmentKind::Heap, 0),
            payload.len() as u64,
        )
        .unwrap();
    assert_eq!(back, payload);
}

#[test]
fn eagerly_copied_strategies_are_also_safe() {
    for strategy in [VmStrategy::FullCopy, VmStrategy::PreCopy] {
        let (mut net, mut fs) = setup();
        let (mut space, t, payload) = migrated_space(&mut fs, &mut net, strategy, "eager");
        assert_eq!(space.source_host_failed(h(1)), 0, "{strategy}");
        let (back, _) = space
            .read(
                &mut fs,
                &mut net,
                t,
                h(2),
                VirtAddr::new(SegmentKind::Heap, 0),
                payload.len() as u64,
            )
            .unwrap();
        assert_eq!(back, payload, "{strategy}");
    }
}

#[test]
fn a_crash_of_an_unrelated_host_is_harmless_even_for_cor() {
    let (mut net, mut fs) = setup();
    let (mut space, t, payload) =
        migrated_space(&mut fs, &mut net, VmStrategy::CopyOnReference, "bystander");
    assert_eq!(
        space.source_host_failed(h(0)),
        0,
        "wrong host: no pages owed"
    );
    let (back, _) = space
        .read(
            &mut fs,
            &mut net,
            t,
            h(2),
            VirtAddr::new(SegmentKind::Heap, 0),
            payload.len() as u64,
        )
        .unwrap();
    assert_eq!(back, payload);
}
