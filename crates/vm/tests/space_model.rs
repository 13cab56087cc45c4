//! Property test: an address space driven by arbitrary writes, reads,
//! flushes, residency drops and copy-on-reference hand-offs always reads
//! back the bytes a flat reference model predicts — no matter which host
//! touches it next. This is the memory-integrity half of migration transparency,
//! exercised harder than any single protocol run does.
//!
//! Each case draws two op lists, any mix of the ops and touches of a
//! flushed heap, and runs each twice: with the root on one server, and
//! striped over two. Page-outs and page-ins move runs of up to four pages
//! inside one stripe unit, so the 12 heap pages make three units, and on
//! the striped root the runs of neighbouring units go to different
//! servers.
//!
//! Cases come from [`DetRng`] with a fixed seed; `heavy-tests` multiplies
//! the case count.

use sprite_fs::{FsConfig, SpriteFs, SpritePath};
use sprite_net::{CostModel, HostId, Transport, PAGE_SIZE};
use sprite_sim::{DetRng, SimTime};
use sprite_vm::{AddressSpace, SegmentKind, VirtAddr};

const HEAP_PAGES: u64 = 12;

fn cases(base: usize) -> usize {
    if cfg!(feature = "heavy-tests") {
        base * 8
    } else {
        base
    }
}

#[derive(Debug, Clone)]
enum VmOp {
    Write {
        page: u8,
        off: u16,
        byte: u8,
        len: u8,
    },
    Read {
        page: u8,
    },
    FlushDirty,
    FlushAndDrop,
    LeaveAtSource,
    HopHost,
}

fn vm_op(rng: &mut DetRng) -> VmOp {
    // Writes weighted 4:1 against reads and each transfer/flush op.
    match rng.pick_index(9) {
        0..=3 => VmOp::Write {
            page: rng.uniform_u64(HEAP_PAGES) as u8,
            off: rng.uniform_u64(4000) as u16,
            byte: rng.uniform_u64(256) as u8,
            len: 1 + rng.uniform_u64(199) as u8,
        },
        4 => VmOp::FlushDirty,
        5 => VmOp::FlushAndDrop,
        6 => VmOp::LeaveAtSource,
        7 => VmOp::Read {
            page: rng.uniform_u64(HEAP_PAGES) as u8,
        },
        _ => VmOp::HopHost,
    }
}

/// Any mix of the ops above.
fn transfer_mix(rng: &mut DetRng) -> Vec<VmOp> {
    let nops = 1 + rng.pick_index(39);
    (0..nops).map(|_| vm_op(rng)).collect()
}

/// Touches of a flushed heap: a random subset of the pages is written
/// (the rest stay zero-fill, and some of those are read once, so they
/// page in from the file as zeros), flushed and dropped, then read and
/// written in a random order from hosts that hop at each flush-and-drop.
/// A page-in reads ahead to the end of its stripe unit, so the touch
/// order decides which runs go out.
fn flushed_heap_touches(rng: &mut DetRng) -> Vec<VmOp> {
    let mut ops = Vec::new();
    for page in 0..HEAP_PAGES as u8 {
        match rng.pick_index(4) {
            0 => {}
            1 => ops.push(VmOp::Read { page }),
            _ => ops.push(VmOp::Write {
                page,
                off: 0,
                byte: rng.uniform_u64(256) as u8,
                len: 255,
            }),
        }
    }
    ops.push(VmOp::FlushAndDrop);
    let touches = 1 + rng.pick_index(30);
    ops.extend((0..touches).map(|_| match rng.pick_index(8) {
        0..=4 => VmOp::Read {
            page: rng.uniform_u64(HEAP_PAGES) as u8,
        },
        5 | 6 => VmOp::Write {
            page: rng.uniform_u64(HEAP_PAGES) as u8,
            off: rng.uniform_u64(4000) as u16,
            byte: rng.uniform_u64(256) as u8,
            len: 1 + rng.uniform_u64(199) as u8,
        },
        _ => VmOp::FlushAndDrop,
    }));
    ops
}

#[test]
fn memory_matches_flat_model_under_any_transfer_mix() {
    let mut rng = DetRng::seed_from(0x5BACE);
    let mut striped_block_ops = [0; 2];
    for case in 0..cases(64) {
        for (mix, ops) in [
            ("mix", transfer_mix(&mut rng)),
            ("touches", flushed_heap_touches(&mut rng)),
        ] {
            // The ops run on hosts 1 to 3; the servers are never one of them.
            run_case(&format!("{mix} case {case} on one server"), &ops, &[0]);
            let served = run_case(&format!("{mix} case {case} striped"), &ops, &[0, 4]);
            for (total, ops) in striped_block_ops.iter_mut().zip(served) {
                *total += ops;
            }
        }
    }
    assert!(
        striped_block_ops.iter().all(|&ops| ops > 0),
        "both striped servers serve paging: {striped_block_ops:?}"
    );
}

/// Runs `ops` on a fresh address space whose root is exported by
/// `servers`, checking every read against the flat model. Returns the
/// block operations each server served.
fn run_case(case: &str, ops: &[VmOp], servers: &[u32]) -> Vec<u64> {
    let mut net = Transport::new(CostModel::sun3(), 5);
    let mut fs = SpriteFs::new(FsConfig::default(), 5);
    for &server in servers {
        fs.add_server(HostId::new(server), SpritePath::new("/"));
    }
    let (prog, t0) = fs
        .create(
            &mut net,
            SimTime::ZERO,
            HostId::new(1),
            SpritePath::new("/bin/pm"),
        )
        .unwrap();
    let mut space = AddressSpace::create("pm", prog, 2, HEAP_PAGES, 4);
    let mut t = t0;
    let mut model = vec![0u8; (HEAP_PAGES * PAGE_SIZE) as usize];
    let mut host = HostId::new(1);

    for op in ops.iter().cloned() {
        match op {
            VmOp::Write {
                page,
                off,
                byte,
                len,
            } => {
                let offset = page as u64 * PAGE_SIZE + off as u64;
                let len = (len as u64).min(HEAP_PAGES * PAGE_SIZE - offset);
                let data = vec![byte; len as usize];
                t = space
                    .write(
                        &mut fs,
                        &mut net,
                        t,
                        host,
                        VirtAddr::new(SegmentKind::Heap, offset),
                        &data,
                    )
                    .unwrap();
                model[offset as usize..(offset + len) as usize].fill(byte);
            }
            VmOp::Read { page } => {
                // A read pulls a page home from wherever it is; it
                // must not make a written page look clean.
                let offset = page as u64 * PAGE_SIZE;
                let (got, t1) = space
                    .read(
                        &mut fs,
                        &mut net,
                        t,
                        host,
                        VirtAddr::new(SegmentKind::Heap, offset),
                        PAGE_SIZE,
                    )
                    .unwrap();
                t = t1;
                let want = &model[offset as usize..(offset + PAGE_SIZE) as usize];
                assert_eq!(got, want, "{case}: page {page}");
            }
            VmOp::FlushDirty => {
                t = space.flush_dirty(&mut fs, &mut net, t, host).unwrap();
            }
            VmOp::FlushAndDrop => {
                // A Sprite-flush migration: flush, drop, hop.
                t = space.flush_dirty(&mut fs, &mut net, t, host).unwrap();
                space.drop_residency();
                host = HostId::new(1 + (host.index() as u32) % 3);
            }
            VmOp::LeaveAtSource => {
                // Copy-on-reference migration away from `host`.
                // Dirty pages travel as COR pages too (Accent kept them
                // at the source); our model keeps bytes, so only the
                // location bookkeeping changes.
                let old = host;
                space.leave_at_source(old);
                host = HostId::new(1 + (host.index() as u32) % 3);
            }
            VmOp::HopHost => {
                // Full-copy-style migration: resident pages travel in
                // memory; nothing changes but the host.
                host = HostId::new(1 + (host.index() as u32) % 3);
            }
        }
    }
    // Final read-back of the whole heap from wherever we ended up.
    let (mem, _) = space
        .read(
            &mut fs,
            &mut net,
            t,
            host,
            VirtAddr::new(SegmentKind::Heap, 0),
            HEAP_PAGES * PAGE_SIZE,
        )
        .unwrap();
    assert_eq!(mem, model, "{case}");
    fs.server_loads().iter().map(|l| l.block_ops).collect()
}
