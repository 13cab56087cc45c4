//! One fault at every send attempt of every migration entry point.
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

use std::cell::Cell;
use std::rc::Rc;

use sprite::fs::{FileId, FsError, OpenMode, SpritePath, StreamId};
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
/// migration there paged its heap out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    Migrate,
    ExecMigrate,
    EvictAll,
    EvictReselecting,
    CheckpointMove,
    RestartFromImage,
    Exit,
}

impl Entry {
    fn evicts(self) -> bool {
        matches!(self, Entry::EvictAll | Entry::EvictReselecting)
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
    }
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
/// cluster stores fewer files and its setup made fewer lookups.
const PINS: [(Entry, u32, u64); 7] = [
    // The flush is the heap's first page-out, so it creates the heap file
    // inside the freeze: one attempt more than the 7 made when spawn
    // created the swap files.
    (Entry::Migrate, 8, 0x4802_826c_07c6_e616),
    // Attempts 4-6 are the exec's own I/O on the target (the header's
    // open, read and close), after the commit: a fault there kills the
    // process, whose old image is gone. The old image never paged out,
    // so freeing it sends nothing; 9 attempts when the exec created two
    // swap files.
    (Entry::ExecMigrate, 7, 0x4f59_62c3_3005_2e8b),
    (Entry::EvictAll, 6, 0xc0c2_07e9_126b_0760),
    // Attempts 0-3 move the first guest to host 5 (host 4 refuses);
    // 4-6 are the second guest's trip home, which retries a timeout.
    (Entry::EvictReselecting, 7, 0x2346_a5e0_86e8_2738),
    // Block-aligned images: one block RPC per image block each way (an
    // index block, 3 page blocks and the trailer). The restore's spawn
    // creates no swap files, which took 2 attempts of the 21 before; with
    // 4,105-byte page records straddling blocks, the move made 27.
    (Entry::CheckpointMove, 19, 0xe2ae_edc6_7b76_fdbc),
    // The open, 5 block reads, the close; 9 attempts when the spawn
    // created two swap files, 12 when page records straddled blocks.
    (Entry::RestartFromImage, 7, 0x85db_0977_074a_e70d),
    // The stream's close, the heap file's unlink and the home
    // notification: each is best-effort, so the process exits anyway.
    (Entry::Exit, 3, 0xbf7c_6459_0621_0dff),
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
