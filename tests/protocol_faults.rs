//! One fault at every send attempt of every migration and file-system
//! entry point.
//!
//! Each entry point first runs on a clean link, which counts its send
//! attempts `N`. Then, for every `n` in `0..N`, it runs again with one
//! fault injected at attempt `n`: a timeout (every retry of that send
//! lost), a partition, or a crashed peer. Every case must leave the
//! cluster in a state the paper's recovery semantics allow (Ch. 3.6), and
//! the whole table folds into one pinned digest per entry point, so a
//! change in how any single case ends moves that entry point's pin.
//!
//! `restart_from_image` restores a finished image, so a failed case must
//! also leave no runnable replacement and no open image stream, and the
//! kept image must restore on a fault-free retry.
//!
//! `exit` is fail-stop local: the process exits whatever the fault, and
//! the one send a fault costs (a stream close, a swap-file unlink or the
//! home notification) counts exactly one `notify_losses`.
//!
//! The file-system entry points (`fsync`, the last `close`, an `open`
//! that recalls dirty blocks, `migrate_stream`, and a `write` that evicts
//! a dirty block) check the file's contents: once the fault clears and
//! the writer flushes again, a reader on another host reads back every
//! byte of every `write` that returned `Ok`, and a failed write leaves
//! its block as it was.

use std::cell::Cell;
use std::rc::Rc;

use sprite::fs::{FileId, FsConfig, FsError, OpenMode, SpritePath, StreamId};
use sprite::kernel::{Cluster, KernelError, ProcState, ProcessId};
use sprite::migration::{
    checkpoint_move, image_path, restart_from_image, MigrationConfig, MigrationError,
    MigrationTotals, Migrator,
};
use sprite::net::{
    CostModel, HostId, LinkPolicy, LinkVerdict, RpcOp, MAX_SEND_ATTEMPTS, PAGE_SIZE,
};
use sprite::sim::{SimTime, StateDigest};
use sprite::vm::{checkpoint, CkptStrategy, SegmentKind, VirtAddr};

fn h(i: u32) -> HostId {
    HostId::new(i)
}

fn program() -> SpritePath {
    SpritePath::new("/bin/app")
}

/// The single fault a case injects.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// `MAX_SEND_ATTEMPTS` drops in a row: the send times out.
    Timeout,
    /// One attempt lands across a partition.
    Partitioned,
    /// One attempt finds its peer crashed.
    Crashed,
}

const FAULTS: [Fault; 3] = [Fault::Timeout, Fault::Partitioned, Fault::Crashed];

/// Counts every send attempt through a counter the test keeps, and rules
/// `fault` on attempt `at` (on `at..at + MAX_SEND_ATTEMPTS` for a timeout),
/// recording the op of the send the fault hit.
#[derive(Debug)]
struct OneFault {
    attempts: Rc<Cell<u32>>,
    fault: Option<(u32, Fault)>,
    hit: Rc<Cell<Option<RpcOp>>>,
}

impl OneFault {
    fn clean() -> Self {
        OneFault {
            attempts: Rc::new(Cell::new(0)),
            fault: None,
            hit: Rc::new(Cell::new(None)),
        }
    }
}

impl LinkPolicy for OneFault {
    fn verdict(&mut self, op: RpcOp, _: SimTime, _: HostId, _: Option<HostId>) -> LinkVerdict {
        let n = self.attempts.get();
        self.attempts.set(n + 1);
        let verdict = match self.fault {
            Some((at, Fault::Timeout)) if (at..at + MAX_SEND_ATTEMPTS).contains(&n) => {
                LinkVerdict::Drop
            }
            Some((at, Fault::Partitioned)) if n == at => LinkVerdict::Partitioned,
            Some((at, Fault::Crashed)) if n == at => LinkVerdict::PeerCrashed,
            _ => LinkVerdict::Deliver,
        };
        if verdict != LinkVerdict::Deliver {
            self.hit.set(Some(op));
        }
        verdict
    }
}

/// The entry points under test. `Migrate`, `ExecMigrate` and
/// `CheckpointMove` move the process homed on host 1 from home to host 5;
/// the evictions empty host 3, where both processes are guests;
/// `RestartFromImage` rebuilds that process on host 5 from the image a
/// clean checkpoint wrote; `Exit` ends that process on host 5, after a
/// migration there paged its heap out. The rest drive the file system in
/// [`fs_world`]: `Fsync` and `Close` flush the writer's stream on host 1,
/// `RecallOpen` opens the file for reading on host 2, `MigrateStream`
/// moves the writer's stream to host 2, and `EvictingWrite` writes one
/// block into the writer's full cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    Migrate,
    ExecMigrate,
    EvictAll,
    EvictReselecting,
    CheckpointMove,
    RestartFromImage,
    Exit,
    Fsync,
    Close,
    RecallOpen,
    MigrateStream,
    EvictingWrite,
}

impl Entry {
    fn evicts(self) -> bool {
        matches!(self, Entry::EvictAll | Entry::EvictReselecting)
    }

    fn drives_fs(self) -> bool {
        matches!(
            self,
            Entry::Fsync
                | Entry::Close
                | Entry::RecallOpen
                | Entry::MigrateStream
                | Entry::EvictingWrite
        )
    }
}

struct World {
    c: Cluster,
    m: Migrator,
    t: SimTime,
    pids: [ProcessId; 2],
}

/// Pages in the image `RestartFromImage` restores: the 3 dirty heap pages.
const IMAGE_PAGES: u64 = 3;

/// Six hosts and a file server on host 0. Two processes, homed on hosts 1
/// and 2, each with 3 dirty heap pages and one open read-write file with a
/// dirty cached block, which the stream transfer flushes. For
/// the evictions both first migrate to host 3, whose owner then returns;
/// host 4's owner is at the console, so host 4 refuses as a candidate. For
/// `RestartFromImage` the first process's image is written on a clean
/// link; the process keeps running at home. For `Exit` the first process
/// migrates to host 5, which creates its heap's swap file.
fn world(entry: Entry) -> World {
    let mut c = Cluster::new(CostModel::sun3(), 6);
    c.add_file_server(h(0), SpritePath::new("/"));
    let mut t = c
        .install_program(SimTime::ZERO, program(), 24 * 1024)
        .unwrap();
    let mut m = Migrator::new(MigrationConfig::default(), 6);
    let mut pids = Vec::new();
    for home in [1, 2] {
        let (pid, t1) = c.spawn(t, h(home), &program(), 16, 4).unwrap();
        let mut sp = c.pcb_mut(pid).unwrap().space.take().unwrap();
        let dirty = vec![home as u8; 3 * PAGE_SIZE as usize];
        let t2 = sp
            .write(
                &mut c.fs,
                &mut c.net,
                t1,
                h(home),
                VirtAddr::new(SegmentKind::Heap, 0),
                &dirty,
            )
            .unwrap();
        c.pcb_mut(pid).unwrap().space = Some(sp);
        let path = SpritePath::new(format!("/data/{home}"));
        let (_, t3) = c.fs.create(&mut c.net, t2, h(home), path.clone()).unwrap();
        let (fd, t4) = c.open_fd(t3, pid, path, OpenMode::ReadWrite).unwrap();
        t = c.write_fd(t4, pid, fd, b"dirty block").unwrap();
        pids.push(pid);
    }
    if entry.evicts() {
        for &pid in &pids {
            t = m.migrate(&mut c, t, pid, h(3)).unwrap().resumed_at;
        }
        c.host_mut(h(3)).console_active = true;
        c.host_mut(h(4)).console_active = true;
    }
    if entry == Entry::RestartFromImage {
        let pid = pids[0];
        let mut sp = c.pcb_mut(pid).unwrap().space.take().unwrap();
        let (image, report) = checkpoint(
            &mut sp,
            CkptStrategy::FullImage,
            &mut c.fs,
            &mut c.net,
            t,
            h(1),
            image_path(pid),
        )
        .unwrap();
        c.pcb_mut(pid).unwrap().space = Some(sp);
        assert_eq!(image.pages, IMAGE_PAGES);
        t = report.completed_at;
    }
    if entry == Entry::Exit {
        t = m.migrate(&mut c, t, pids[0], h(5)).unwrap().resumed_at;
        assert_eq!(c.fs.backing_files().count(), 1);
    }
    World {
        c,
        m,
        t,
        pids: [pids[0], pids[1]],
    }
}

/// Restores the first process's image on host 5 at `t`.
fn restart(
    c: &mut Cluster,
    t: SimTime,
    pid: ProcessId,
) -> Result<(ProcessId, u64, SimTime), MigrationError> {
    restart_from_image(c, t, h(5), &program(), 16, 4, &image_path(pid))
        .map(|(new_pid, r)| (new_pid, r.pages_restored, r.resumed_at))
}

/// Runs `entry` once: the `resumed_at` of each move it made, or its error.
fn run(entry: Entry, w: &mut World) -> Result<Vec<SimTime>, MigrationError> {
    let World { c, m, t, pids } = w;
    let (c, t, pid) = (c, *t, pids[0]);
    match entry {
        Entry::Migrate => m.migrate(c, t, pid, h(5)).map(|r| vec![r.resumed_at]),
        Entry::ExecMigrate => m
            .exec_migrate(c, t, pid, h(5), &program(), 16, 4)
            .map(|r| vec![r.resumed_at]),
        Entry::EvictAll => m
            .evict_all(c, t, h(3))
            .map(|rs| rs.iter().map(|r| r.resumed_at).collect()),
        Entry::EvictReselecting => m
            .evict_all_reselecting(c, t, h(3), &[h(4), h(5)])
            .map(|(rs, _)| rs.iter().map(|r| r.resumed_at).collect()),
        Entry::CheckpointMove => {
            checkpoint_move(c, t, pid, h(5), CkptStrategy::FullImage).map(|r| vec![r.resumed_at])
        }
        Entry::RestartFromImage => restart(c, t, pid).map(|(_, _, at)| vec![at]),
        Entry::Exit => c.exit(t, pid, 0).map(|at| vec![at]).map_err(Into::into),
        Entry::Fsync
        | Entry::Close
        | Entry::RecallOpen
        | Entry::MigrateStream
        | Entry::EvictingWrite => unreachable!("fs_case runs the file-system entry points"),
    }
}

/// The file the file-system entry points work on.
fn data_file() -> SpritePath {
    SpritePath::new("/data/f")
}

struct FsWorld {
    c: Cluster,
    t: SimTime,
    /// The writer's read-write stream, opened on host 1.
    stream: StreamId,
    /// What a reader must see: every byte of every write that returned
    /// `Ok`, in file order.
    expect: Vec<u8>,
}

/// Four hosts and a file server on host 0. A writer on host 1 holds a
/// read-write stream on [`data_file`] and has written 3 whole blocks of
/// distinct bytes, dirty in its cache. For `EvictingWrite` the writer's
/// cache holds 2 blocks, so writing the third evicted and wrote back the
/// first on the clean link, and the 2 dirty blocks fill the cache.
fn fs_world(entry: Entry) -> FsWorld {
    let mut config = FsConfig::default();
    if entry == Entry::EvictingWrite {
        config.client_cache_blocks = 2;
    }
    let mut c = Cluster::with_fs_config(CostModel::sun3(), 4, config);
    c.add_file_server(h(0), SpritePath::new("/"));
    let (_, t) =
        c.fs.create(&mut c.net, SimTime::ZERO, h(1), data_file())
            .unwrap();
    let (stream, mut t) =
        c.fs.open(&mut c.net, t, h(1), data_file(), OpenMode::ReadWrite)
            .unwrap();
    let mut expect = Vec::new();
    for byte in [b'a', b'b', b'c'] {
        let block = vec![byte; PAGE_SIZE as usize];
        t = c.fs.write(&mut c.net, t, h(1), stream, &block).unwrap();
        expect.extend_from_slice(&block);
    }
    FsWorld {
        c,
        t,
        stream,
        expect,
    }
}

/// Runs a file-system entry point once: its completion time, or its error.
fn run_fs(entry: Entry, w: &mut FsWorld) -> Result<SimTime, FsError> {
    let FsWorld {
        c,
        t,
        stream,
        expect,
    } = w;
    let (fs, net, t, s) = (&mut c.fs, &mut c.net, *t, *stream);
    match entry {
        Entry::Fsync => fs.fsync(net, t, h(1), s),
        Entry::Close => fs.close(net, t, h(1), s),
        Entry::RecallOpen => fs
            .open(net, t, h(2), data_file(), OpenMode::Read)
            .map(|(_, at)| at),
        Entry::MigrateStream => fs
            .migrate_stream(net, t, s, h(1), h(2), 1)
            .map(|(_, at)| at),
        Entry::EvictingWrite => {
            let block = vec![b'd'; PAGE_SIZE as usize];
            let result = fs.write(net, t, h(1), s, &block);
            if result.is_ok() {
                expect.extend_from_slice(&block);
            }
            result
        }
        _ => unreachable!("case runs the migration entry points"),
    }
}

/// After the fault clears: every host still holding the writer's stream
/// fsyncs it, then a reader on host 3 opens the file, which recalls any
/// blocks the last writer still holds dirty, and must read back exactly
/// `expect`. Returns when the read completed.
fn check_fs_contents(w: &mut FsWorld, at: SimTime, case: &str) -> SimTime {
    w.c.net.set_policy(Box::new(OneFault::clean()));
    let FsWorld {
        c, stream, expect, ..
    } = w;
    let mut t = at;
    for writer in [h(1), h(2)] {
        if c.fs
            .streams()
            .get(*stream)
            .is_some_and(|s| s.refs_on(writer) > 0)
        {
            t =
                c.fs.fsync(&mut c.net, t, writer, *stream)
                    .unwrap_or_else(|e| panic!("{case}: fsync on {writer:?}: {e}"));
        }
    }
    let (r, t) =
        c.fs.open(&mut c.net, t, h(3), data_file(), OpenMode::Read)
            .unwrap_or_else(|e| panic!("{case}: reader's open: {e}"));
    let mut got = Vec::new();
    let t =
        c.fs.read(&mut c.net, t, h(3), r, u64::MAX, &mut got)
            .unwrap_or_else(|e| panic!("{case}: reader's read: {e}"));
    let blocks = |bytes: &[u8]| -> Vec<String> {
        bytes
            .chunks(PAGE_SIZE as usize)
            .map(|b| format!("{}x{}", b.len(), b[0] as char))
            .collect()
    };
    assert!(
        got == *expect,
        "{case}: reader saw blocks {:?}, acknowledged writes were {:?}",
        blocks(&got),
        blocks(expect)
    );
    t
}

/// Runs one file-system case: returns the number of attempts the entry
/// point made and folds its outcome, the cluster and the reader's
/// completion into `d`.
fn fs_case(entry: Entry, fault: Option<(u32, Fault)>, d: &mut StateDigest) -> u32 {
    let label = format!("{entry:?} {fault:?}");
    let mut w = fs_world(entry);
    let policy = OneFault {
        fault,
        ..OneFault::clean()
    };
    let attempts = Rc::clone(&policy.attempts);
    w.c.net.set_policy(Box::new(policy));
    let result = run_fs(entry, &mut w);
    let at = match &result {
        Ok(done) => {
            d.write_u64(done.as_micros());
            *done
        }
        Err(e) => {
            d.write_str(&e.to_string());
            match e {
                FsError::Rpc(rpc) => rpc.at(),
                _ => w.t,
            }
        }
    };
    d.write_u64(w.c.digest());
    let attempts = attempts.get();
    d.write_u64(check_fs_contents(&mut w, at, &label).as_micros());
    attempts
}

/// When a failed call gave up: the instant of the send that failed, or
/// `t` when no send did.
fn gave_up_at(e: &MigrationError, t: SimTime) -> SimTime {
    match e {
        MigrationError::Rpc(rpc) | MigrationError::Kernel(KernelError::Fs(FsError::Rpc(rpc))) => {
            rpc.at()
        }
        _ => t,
    }
}

/// The processes that are not zombies, in PID order.
fn live(c: &Cluster) -> Vec<ProcessId> {
    c.processes()
        .filter(|p| p.state != ProcState::Zombie)
        .map(|p| p.pid)
        .collect()
}

/// A restore adds one live process, on host 5, or none when it fails;
/// a failed one closes the image stream it opened and leaves the image
/// whole, so a fault-free retry restores every page of it. Folds the
/// retry's outcome into `d`.
fn check_restart(
    w: &mut World,
    before: &Before,
    result: &Result<Vec<SimTime>, MigrationError>,
    case: &str,
    d: &mut StateDigest,
) {
    let after = live(&w.c);
    let Err(e) = result else {
        let added: Vec<_> = after.iter().filter(|p| !before.live.contains(p)).collect();
        assert_eq!(added.len(), 1, "{case}: {added:?} added");
        assert_eq!(w.c.pcb(*added[0]).unwrap().current, h(5), "{case}");
        return;
    };
    assert_eq!(
        after, before.live,
        "{case}: a failed restore left a replacement"
    );
    assert_eq!(
        w.c.fs.streams().len(),
        before.open_streams,
        "{case}: a failed restore left its image stream open"
    );
    w.c.net.set_policy(Box::new(OneFault::clean()));
    let at = gave_up_at(e, w.t);
    let (_, pages, resumed) = restart(&mut w.c, at, w.pids[0])
        .unwrap_or_else(|e| panic!("{case}: the retry failed: {e}"));
    assert_eq!(pages, IMAGE_PAGES, "{case}: retry restored {pages} pages");
    check_live_processes(&w.c, case);
    d.write_u64(resumed.as_micros());
}

/// Every live process is `Active`, has an address space, and is resident
/// on exactly one host, the one its PCB names.
fn check_live_processes(c: &Cluster, case: &str) {
    for p in c.processes().filter(|p| p.state != ProcState::Zombie) {
        assert_eq!(p.state, ProcState::Active, "{case}: {} not active", p.pid);
        assert!(p.space.is_some(), "{case}: {} has no address space", p.pid);
        let on: Vec<usize> = (0..c.host_count())
            .filter(|&i| c.host(h(i as u32)).resident().contains(&p.pid))
            .collect();
        assert_eq!(on, vec![p.current.index()], "{case}: {} residency", p.pid);
    }
}

/// The cluster before the call, which a failed call is checked against:
/// the moving process, the failure and loss counts, the live processes,
/// the open streams and the swap files.
struct Before {
    from: HostId,
    migrations: u32,
    streams: Vec<StreamId>,
    failures: u64,
    notify_losses: u64,
    live: Vec<ProcessId>,
    open_streams: usize,
    swap_files: Vec<FileId>,
}

/// A failed `migrate` or `exec_migrate` counts one failure, and one that
/// failed before its commit left the process at the source, holding its
/// streams there. `migrate` has no step after its commit that can fail.
fn check_single_move(
    entry: Entry,
    w: &World,
    before: &Before,
    result: &Result<Vec<SimTime>, MigrationError>,
    case: &str,
) {
    let failures = w.m.totals().failures - before.failures;
    assert_eq!(failures, u64::from(result.is_err()), "{case}: failures");
    if result.is_ok() {
        return;
    }
    let pcb = w.c.pcb(w.pids[0]);
    let committed = pcb.is_none_or(|p| p.migrations > before.migrations);
    assert!(
        !(committed && entry == Entry::Migrate),
        "{case}: failed after commit"
    );
    if committed {
        return;
    }
    let p = pcb.unwrap();
    assert_eq!(p.current, before.from, "{case}: not at the source");
    for &stream in &before.streams {
        let refs = w.c.fs.streams().get(stream).unwrap().refs_on(before.from);
        assert!(refs >= 1, "{case}: stream {stream:?} lost its source ref");
    }
}

/// The process exits whatever the fault, and the one send a fault costs
/// counts one `notify_losses`. The process's swap file is gone unless the
/// lost send was its unlink (a `fs-lookup`), which leaves it behind.
fn check_exit(w: &World, before: &Before, hit: Option<RpcOp>, case: &str) {
    assert!(
        !live(&w.c).contains(&w.pids[0]),
        "{case}: the process survived its exit"
    );
    let losses = w.c.stats().notify_losses - before.notify_losses;
    assert_eq!(losses, u64::from(hit.is_some()), "{case}: notify_losses");
    let left: Vec<FileId> = w.c.fs.backing_files().collect();
    let unlink_lost = hit == Some(RpcOp::FsLookup);
    let want = if unlink_lost {
        &before.swap_files[..]
    } else {
        &[]
    };
    assert_eq!(left, want, "{case}: swap files after exit ({hit:?} lost)");
}

/// Runs one case: returns the number of attempts the run made and folds
/// its outcome into `d`.
fn case(entry: Entry, fault: Option<(u32, Fault)>, d: &mut StateDigest) -> u32 {
    if entry.drives_fs() {
        return fs_case(entry, fault, d);
    }
    let label = format!("{entry:?} {fault:?}");
    let mut w = world(entry);
    let pcb = w.c.pcb(w.pids[0]).unwrap();
    let before = Before {
        from: pcb.current,
        migrations: pcb.migrations,
        streams: pcb.open_fds().map(|(_, s)| s).collect(),
        failures: w.m.totals().failures,
        notify_losses: w.c.stats().notify_losses,
        live: live(&w.c),
        open_streams: w.c.fs.streams().len(),
        swap_files: w.c.fs.backing_files().collect(),
    };
    let policy = OneFault {
        fault,
        ..OneFault::clean()
    };
    let (attempts, hit) = (Rc::clone(&policy.attempts), Rc::clone(&policy.hit));
    w.c.net.set_policy(Box::new(policy));
    let result = run(entry, &mut w);

    check_live_processes(&w.c, &label);
    if matches!(entry, Entry::Migrate | Entry::ExecMigrate) {
        check_single_move(entry, &w, &before, &result, &label);
    }
    // Eviction retries a transient loss, so one lost send never leaves a
    // guest behind on the owner's workstation.
    if entry.evicts() && matches!(fault, None | Some((_, Fault::Timeout))) {
        assert!(result.is_ok(), "{label}: {result:?}");
        assert_eq!(w.c.foreign_on(h(3)).count(), 0, "{label}: guests left");
    }
    if entry == Entry::Exit {
        assert!(result.is_ok(), "{label}: {result:?}");
        check_exit(&w, &before, hit.get(), &label);
    }

    match &result {
        Ok(resumed) => {
            d.write_usize(resumed.len());
            for t in resumed {
                d.write_u64(t.as_micros());
            }
        }
        Err(e) => d.write_str(&e.to_string()),
    }
    let MigrationTotals {
        migrations,
        exec_migrations,
        evictions,
        failures,
        aborts,
        total_freeze,
    } = w.m.totals();
    for v in [
        migrations,
        exec_migrations,
        evictions,
        failures,
        aborts,
        total_freeze.as_micros(),
    ] {
        d.write_u64(v);
    }
    d.write_u64(w.c.digest());
    let attempts = attempts.get();
    if entry == Entry::RestartFromImage {
        check_restart(&mut w, &before, &result, &label, d);
    }
    attempts
}

/// Runs an entry point's whole table: the clean run, then every fault at
/// every attempt. Returns the clean run's attempt count and the digest.
fn table(entry: Entry) -> (u32, u64) {
    let mut d = StateDigest::new();
    let n = case(entry, None, &mut d);
    for at in 0..n {
        for fault in FAULTS {
            case(entry, Some((at, fault)), &mut d);
        }
    }
    (n, d.finish())
}

/// Each entry point's clean attempt count and the digest of its table.
/// A change that alters how any case ends re-pins its entry point here
/// and says why in CHANGES.md. Swap files are created at a segment's
/// first page-out and unlinked when the space is freed, not created at
/// every spawn, fork and exec: that moved every digest, since each case's
/// cluster stores fewer files and its setup made fewer lookups. Page-outs
/// and checkpoint image transfers move runs of up to 4 consecutive
/// blocks, one RPC a run: that re-pinned every entry point that flushes
/// pages or writes or reads an image, in its run or in its setup.
const PINS: [(Entry, u32, u64); 12] = [
    // The heap file's create, inside the freeze (the flush is the heap's
    // first page-out), and the 3 dirty heap pages as one run: 8 attempts
    // when each page was its own page-out, 7 when spawn created the swap
    // files.
    (Entry::Migrate, 6, 0x11b8_ff1c_8aff_083c),
    // Attempts 4-6 are the exec's own I/O on the target (the header's
    // open, read and close), after the commit: a fault there kills the
    // process, whose old image is gone. The old image never paged out,
    // so freeing it sends nothing; 9 attempts when the exec created two
    // swap files.
    (Entry::ExecMigrate, 7, 0x4f59_62c3_3005_2e8b),
    // The setup's migrations to host 3 each flush 3 heap pages as one
    // run, so the digest moved with the same attempt count.
    (Entry::EvictAll, 6, 0x8ad3_a245_89ad_b785),
    // Attempts 0-3 move the first guest to host 5 (host 4 refuses);
    // 4-6 are the second guest's trip home, which retries a timeout.
    (Entry::EvictReselecting, 7, 0xc045_0e51_f382_4c45),
    // The image's 5 blocks (an index block, 3 page blocks and the
    // trailer) are 2 runs each way: 19 attempts when each block was its
    // own RPC, 21 when the restore's spawn created two swap files, 27
    // when 4,105-byte page records straddled blocks. Folding the file
    // servers' exact queue wait instead of the busy horizon sampled at
    // dispatch moved both image digests (this one from
    // 0x384a_f97d_6613_e610) with no change in schedule.
    (Entry::CheckpointMove, 13, 0x0e97_d082_5692_f36d),
    // The open, 2 run reads, the close; 7 attempts when each block was
    // its own read, 9 when the spawn created two swap files, 12 when page
    // records straddled blocks; 0x39b6_ff50_ba6a_8c23 before the exact
    // queue wait.
    (Entry::RestartFromImage, 4, 0xb0da_c15c_5729_d5c6),
    // The stream's close, the heap file's unlink and the home
    // notification: each is best-effort, so the process exits anyway.
    // The setup's migration flushes one run, which moved the digest.
    (Entry::Exit, 3, 0xb1fc_b9e0_e41c_39a7),
    // The three block write-backs.
    (Entry::Fsync, 3, 0xda59_bc65_c496_3b1d),
    // The write-backs, then the server's close.
    (Entry::Close, 4, 0x8b96_8ba8_cd1e_a200),
    // The open, the recall notice to host 1, its write-backs, and the
    // cache-disable notices to hosts 1 and 2. The server commits the
    // reader's open only after all of them, so a fault at attempts 1-6
    // leaves no open record behind and caching on for the writer.
    (Entry::RecallOpen, 7, 0xbc56_261f_79cc_162f),
    // The source's write-backs, then the stream transfer.
    (Entry::MigrateStream, 4, 0xa7f3_4727_2486_2605),
    // The evicted block's write-back, before the insert.
    (Entry::EvictingWrite, 1, 0x293e_2224_677d_1b70),
];

#[test]
fn one_fault_at_every_send_attempt_of_every_entry_point() {
    let moved: Vec<String> = PINS
        .iter()
        .filter_map(|&(entry, pinned_n, pinned)| {
            let (n, digest) = table(entry);
            ((n, digest) != (pinned_n, pinned))
                .then(|| format!("{entry:?}: {n} attempts, digest {digest:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "moved pins:\n{}", moved.join("\n"));
}
