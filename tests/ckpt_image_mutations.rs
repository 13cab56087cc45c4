//! Damaged checkpoint images restore whole or are refused, and never run.
//!
//! One finished image is read back and mutated with `DetRng`: cut short at
//! every block boundary and at seeded offsets inside blocks, seeded bits
//! flipped in the header, the index and the trailer, the record count
//! raised or lowered, and page blocks swapped, copied over one another or
//! duplicated. Each mutant is written as a fresh image and restored
//! through `restart_from_image`. A restore either succeeds with one
//! restored page per index entry or fails with its replacement exited,
//! never `Active`; nothing panics; and a mutant whose trailer is missing
//! or damaged, whose record count changed, or whose header or index has a
//! flipped bit (the header's checksum covers both) is always refused.
//! Page blocks carry no checksum, so a swapped, copied or duplicated page
//! block may restore. Run with `--nocapture` to see how each kind of
//! mutant ended.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use sprite::fs::{Frame, OpenMode, SpritePath};
use sprite::kernel::{Cluster, ProcState, ProcessId};
use sprite::migration::{restart_from_image, MigrationError};
use sprite::net::{CostModel, HostId, PAGE_SIZE};
use sprite::sim::{DetRng, SimDuration, SimTime};
use sprite::vm::{checkpoint, CkptStrategy, SegmentKind, VirtAddr, CKPT_HEADER_BYTES};

fn h(i: u32) -> HostId {
    HostId::new(i)
}

fn program() -> SpritePath {
    SpritePath::new("/bin/app")
}

const HEAP_PAGES: u64 = 448;
const STACK_PAGES: u64 = 8;
/// Heap and stack pages the process writes: 428 index entries, so the
/// index spills into a second block.
const WRITTEN: [(SegmentKind, u64); 2] = [(SegmentKind::Heap, 424), (SegmentKind::Stack, 4)];

/// Where each part of an image lies, in bytes. The header's record count
/// is bytes 4..8.
struct Layout {
    header: std::ops::Range<usize>,
    /// The `(segment tag, page index)` bytes of every page.
    index: Vec<std::ops::Range<usize>>,
    /// Each page's bytes.
    page: Vec<std::ops::Range<usize>>,
    trailer: std::ops::Range<usize>,
}

impl Layout {
    /// The header, then a `(tag, index)` entry per page padded to a block
    /// boundary, one block per page, and the trailer block: magic and
    /// record count.
    fn of(pages: u64) -> Layout {
        let block = PAGE_SIZE as usize;
        let header = CKPT_HEADER_BYTES as usize;
        let index_blocks = (header + 9 * pages as usize).div_ceil(block);
        let page_at = |i: usize| (index_blocks + i) * block;
        let trailer = page_at(pages as usize);
        Layout {
            header: 0..header,
            index: (0..pages as usize)
                .map(|i| header + 9 * i..header + 9 * (i + 1))
                .collect(),
            page: (0..pages as usize)
                .map(|i| page_at(i)..page_at(i + 1))
                .collect(),
            trailer: trailer..trailer + 8,
        }
    }
}

/// The cluster, the checkpointed process's image and what restoring it
/// must give back.
struct World {
    c: Cluster,
    t: SimTime,
    image: Vec<u8>,
    /// Each written page and the byte that fills it.
    fill: Vec<(SegmentKind, u64, u8)>,
}

fn fill_byte(segment: SegmentKind, page: u64) -> u8 {
    (page as u8).wrapping_mul(7) ^ (segment as u8) << 6 ^ 0x5a
}

/// Four hosts, a file server on host 0, and one process on host 1 whose
/// written pages each hold one byte value; its full image is checkpointed
/// to `/ckpt/original` and read back.
fn world() -> World {
    let mut c = Cluster::new(CostModel::sun3(), 4);
    c.add_file_server(h(0), SpritePath::new("/"));
    let t = c
        .install_program(SimTime::ZERO, program(), 24 * 1024)
        .unwrap();
    let (pid, mut t) = c
        .spawn(t, h(1), &program(), HEAP_PAGES, STACK_PAGES)
        .unwrap();
    let mut sp = c.pcb_mut(pid).unwrap().space.take().unwrap();
    let mut fill = Vec::new();
    for (segment, pages) in WRITTEN {
        for page in 0..pages {
            let byte = fill_byte(segment, page);
            let addr = VirtAddr::new(segment, page * PAGE_SIZE);
            t = sp
                .write(
                    &mut c.fs,
                    &mut c.net,
                    t,
                    h(1),
                    addr,
                    &[byte; PAGE_SIZE as usize],
                )
                .unwrap();
            fill.push((segment, page, byte));
        }
    }
    let path = SpritePath::new("/ckpt/original");
    let (image, report) = checkpoint(
        &mut sp,
        CkptStrategy::FullImage,
        &mut c.fs,
        &mut c.net,
        t,
        h(1),
        path.clone(),
    )
    .unwrap();
    c.pcb_mut(pid).unwrap().space = Some(sp);
    let (bytes, t) = read_image(&mut c, report.completed_at, &path);
    assert_eq!(bytes.len() as u64, image.image_bytes);
    World {
        c,
        t,
        image: bytes,
        fill,
    }
}

/// Every byte of the image at `path`, read a run of blocks at a time.
fn read_image(c: &mut Cluster, t: SimTime, path: &SpritePath) -> (Vec<u8>, SimTime) {
    let run = c.net.cost().run_blocks();
    let (s, mut t) =
        c.fs.open(&mut c.net, t, h(3), path.clone(), OpenMode::Read)
            .unwrap();
    let mut bytes = Vec::new();
    loop {
        let (blocks, t1) = c.fs.ckpt_read_blocks(&mut c.net, t, h(3), s, run).unwrap();
        t = t1;
        if blocks.is_empty() {
            break;
        }
        for block in blocks {
            bytes.extend_from_slice(&block);
        }
    }
    (bytes, c.fs.close(&mut c.net, t, h(3), s).unwrap())
}

/// Writes `bytes` as the image at `path`, a run of blocks at a time,
/// replacing any file there.
fn write_image(c: &mut Cluster, t: SimTime, path: &SpritePath, bytes: &[u8]) -> SimTime {
    let t = c.fs.unlink(&mut c.net, t, h(3), path).unwrap_or(t);
    let (_, t) = c.fs.create(&mut c.net, t, h(3), path.clone()).unwrap();
    let (s, mut t) =
        c.fs.open(&mut c.net, t, h(3), path.clone(), OpenMode::Write)
            .unwrap();
    let blocks: Vec<Frame> = bytes.chunks(PAGE_SIZE as usize).map(Frame::from).collect();
    for run in blocks.chunks(c.net.cost().run_blocks() as usize) {
        t = c.fs.ckpt_write_blocks(&mut c.net, t, h(3), s, run).unwrap();
    }
    c.fs.close(&mut c.net, t, h(3), s).unwrap()
}

/// The processes that are not zombies, in PID order.
fn live(c: &Cluster) -> Vec<ProcessId> {
    c.processes()
        .filter(|p| p.state != ProcState::Zombie)
        .map(|p| p.pid)
        .collect()
}

/// What must happen to a mutant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Restored whole or refused.
    Either,
    /// Refused.
    Refused,
}

/// How one restore ended: restored, or refused and why.
#[derive(Debug)]
enum Outcome {
    Restored,
    Refused(String),
}

/// Restores `bytes` as an image on host 2 and checks the invariants,
/// returning a violation, if any, beside the outcome.
fn restore(w: &mut World, label: &str, bytes: &[u8], expect: Expect) -> (Outcome, Vec<String>) {
    let path = SpritePath::new("/ckpt/mutant");
    let t = write_image(&mut w.c, w.t, &path, bytes);
    let before = live(&w.c);
    let result = catch_unwind(AssertUnwindSafe(|| {
        restart_from_image(
            &mut w.c,
            t,
            h(2),
            &program(),
            HEAP_PAGES,
            STACK_PAGES,
            &path,
        )
    }));
    w.t = t + SimDuration::from_secs(1);
    let mut bad = Vec::new();
    let Ok(result) = result else {
        bad.push(format!("{label}: restore panicked"));
        return (Outcome::Refused("panicked".into()), bad);
    };
    let after = live(&w.c);
    let outcome = match result {
        Ok((pid, report)) => {
            let claimed = count_of(bytes);
            if report.pages_restored != u64::from(claimed) {
                bad.push(format!(
                    "{label}: restored {} pages, the index holds {claimed}",
                    report.pages_restored
                ));
            }
            if expect == Expect::Refused {
                bad.push(format!("{label}: restored a mutant it must refuse"));
            }
            let added: Vec<_> = after.iter().filter(|p| !before.contains(p)).collect();
            if added != [&pid] || w.c.pcb(pid).unwrap().state != ProcState::Active {
                bad.push(format!(
                    "{label}: replacement {pid} not the one new live process"
                ));
            }
            w.t = w.c.exit(report.resumed_at, pid, 0).unwrap() + SimDuration::from_secs(1);
            Outcome::Restored
        }
        Err(e) => {
            if after != before {
                bad.push(format!(
                    "{label}: a refused restore left a live replacement"
                ));
            }
            Outcome::Refused(match e {
                MigrationError::NotMigratable(_, detail) => detail.to_string(),
                e => e.to_string(),
            })
        }
    };
    (outcome, bad)
}

/// Restores the unmutated image and checks every restored page.
fn restore_original(w: &mut World) {
    let image = w.image.clone();
    let path = SpritePath::new("/ckpt/control");
    let t = write_image(&mut w.c, w.t, &path, &image);
    let (pid, report) = restart_from_image(
        &mut w.c,
        t,
        h(2),
        &program(),
        HEAP_PAGES,
        STACK_PAGES,
        &path,
    )
    .unwrap();
    assert_eq!(report.pages_restored, w.fill.len() as u64);
    let mut sp = w.c.pcb_mut(pid).unwrap().space.take().unwrap();
    let mut t = report.resumed_at;
    for &(segment, page, byte) in &w.fill {
        let (back, t1) = sp
            .read(
                &mut w.c.fs,
                &mut w.c.net,
                t,
                h(2),
                VirtAddr::new(segment, page * PAGE_SIZE),
                PAGE_SIZE,
            )
            .unwrap();
        assert!(back.iter().all(|&b| b == byte), "{segment} page {page}");
        t = t1;
    }
    w.c.pcb_mut(pid).unwrap().space = Some(sp);
    w.t = w.c.exit(t, pid, 0).unwrap() + SimDuration::from_secs(1);
}

/// Flips one seeded bit in `range` of a copy of `image`.
fn flip(image: &[u8], range: std::ops::Range<usize>, rng: &mut DetRng) -> (Vec<u8>, usize) {
    let mut m = image.to_vec();
    let at = range.start + rng.pick_index(range.len());
    m[at] ^= 1 << rng.uniform_u64(8);
    (m, at)
}

/// The header's record count in `image`.
fn count_of(image: &[u8]) -> u32 {
    u32::from_le_bytes(image[4..8].try_into().unwrap())
}

#[test]
fn every_mutant_restores_whole_or_is_refused() {
    let mut w = world();
    restore_original(&mut w);
    let image = w.image.clone();
    let layout = Layout::of(w.fill.len() as u64);
    assert_eq!(count_of(&image) as usize, layout.page.len());
    let mut rng = DetRng::seed_from(0x5c4b_1e55);
    // (label, mutant, expectation), by kind.
    let mut mutants: Vec<(&str, String, Vec<u8>, Expect)> = Vec::new();
    let block = PAGE_SIZE as usize;
    for end in (0..image.len()).step_by(block) {
        mutants.push((
            "cut at a block",
            format!("cut at {end}"),
            image[..end].to_vec(),
            Expect::Refused,
        ));
    }
    for _ in 0..32 {
        let end = loop {
            let end = 1 + rng.pick_index(image.len() - 1);
            if !end.is_multiple_of(block) {
                break end;
            }
        };
        mutants.push((
            "cut inside a block",
            format!("cut at {end}"),
            image[..end].to_vec(),
            Expect::Refused,
        ));
    }
    for _ in 0..48 {
        let (m, at) = flip(&image, layout.header.clone(), &mut rng);
        mutants.push((
            "header bit",
            format!("header bit at {at}"),
            m,
            Expect::Refused,
        ));
    }
    for _ in 0..48 {
        let entry = layout.index[rng.pick_index(layout.index.len())].clone();
        let (m, at) = flip(&image, entry, &mut rng);
        mutants.push((
            "index bit",
            format!("index bit at {at}"),
            m,
            Expect::Refused,
        ));
    }
    for _ in 0..16 {
        let (m, at) = flip(&image, layout.trailer.clone(), &mut rng);
        mutants.push((
            "trailer bit",
            format!("trailer bit at {at}"),
            m,
            Expect::Refused,
        ));
    }
    let n = count_of(&image);
    let seeded = 1 + rng.uniform_u64(64) as u32;
    for (kind, count) in [
        ("count raised", n + 1),
        ("count raised", n + seeded),
        ("count raised", u32::MAX),
        ("count lowered", n - 1),
        ("count lowered", n - seeded),
        ("count lowered", 0),
    ] {
        let mut m = image.clone();
        m[4..8].copy_from_slice(&count.to_le_bytes());
        mutants.push((kind, format!("count {count}"), m, Expect::Refused));
    }
    for _ in 0..8 {
        let i = rng.pick_index(layout.page.len());
        let j = (i + 1 + rng.pick_index(layout.page.len() - 1)) % layout.page.len();
        let (pi, pj) = (layout.page[i].clone(), layout.page[j].clone());
        let mut swapped = image.clone();
        swapped[pi.clone()].copy_from_slice(&image[pj.clone()]);
        swapped[pj.clone()].copy_from_slice(&image[pi.clone()]);
        mutants.push((
            "pages swapped",
            format!("pages {i} and {j} swapped"),
            swapped,
            Expect::Either,
        ));
        let mut copied = image.clone();
        copied[pj.clone()].copy_from_slice(&image[pi.clone()]);
        mutants.push((
            "page copied over another",
            format!("page {i} over {j}"),
            copied,
            Expect::Either,
        ));
        let inserted = [&image[..pi.end], &image[pi.clone()], &image[pi.end..]].concat();
        mutants.push((
            "page duplicated",
            format!("page {i} twice"),
            inserted,
            Expect::Either,
        ));
    }

    let mut violations = Vec::new();
    // Per kind of mutant: how many restored, and each refusal's count.
    let mut tally: BTreeMap<&str, (u32, BTreeMap<String, u32>)> = BTreeMap::new();
    for (kind, label, m, expect) in &mutants {
        let (outcome, bad) = restore(&mut w, label, m, *expect);
        violations.extend(bad);
        let (restored, refused) = tally.entry(kind).or_default();
        match outcome {
            Outcome::Restored => *restored += 1,
            Outcome::Refused(why) => *refused.entry(why).or_default() += 1,
        }
    }
    for (kind, (restored, refused)) in &tally {
        println!("{kind}: {restored} restored");
        for (why, n) in refused {
            println!("    {n} refused: {why}");
        }
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}
