//! End-to-end transparency: a process is migrated around the whole cluster
//! while it computes, does file I/O, forks and receives signals — and
//! nothing observable changes except its location.

use sprite::fs::{OpenMode, SpritePath};
use sprite::kernel::{Cluster, KernelCall, ProcState, Signal};
use sprite::migration::{MigrationConfig, MigrationError, Migrator};
use sprite::net::{CostModel, HostId};
use sprite::sim::{SimDuration, SimTime};
use sprite::vm::{SegmentKind, VirtAddr, VmStrategy};

fn h(i: u32) -> HostId {
    HostId::new(i)
}

fn world(hosts: usize) -> (Cluster, Migrator, SimTime) {
    let mut c = Cluster::new(CostModel::sun3(), hosts);
    c.add_file_server(h(0), SpritePath::new("/"));
    let t = c
        .install_program(SimTime::ZERO, SpritePath::new("/bin/app"), 24 * 1024)
        .unwrap();
    let m = Migrator::new(MigrationConfig::default(), hosts);
    (c, m, t)
}

#[test]
fn tour_of_the_cluster_preserves_everything() {
    let (mut c, mut m, t) = world(6);
    let (pid, t) = c
        .spawn(t, h(1), &SpritePath::new("/bin/app"), 64, 16)
        .unwrap();
    c.fs.create(&mut c.net, t, h(1), SpritePath::new("/users/tour/out"))
        .unwrap();
    let (fd, mut t) = c
        .open_fd(
            t,
            pid,
            SpritePath::new("/users/tour/out"),
            OpenMode::ReadWrite,
        )
        .unwrap();

    // Visit every other host, writing a chapter of memory and file at each.
    let stops = [h(2), h(3), h(4), h(5), h(1)];
    let mut expected_file = Vec::new();
    for (i, stop) in stops.iter().enumerate() {
        let here = c.pcb(pid).unwrap().current;
        let mem_chunk = vec![i as u8 + 1; 4096];
        let mut space = c.pcb_mut(pid).unwrap().space.take().unwrap();
        t = space
            .write(
                &mut c.fs,
                &mut c.net,
                t,
                here,
                VirtAddr::new(SegmentKind::Heap, (i * 4096) as u64),
                &mem_chunk,
            )
            .unwrap();
        c.pcb_mut(pid).unwrap().space = Some(space);
        let line = format!("chapter {i} written on {here}\n");
        t = c.write_fd(t, pid, fd, line.as_bytes()).unwrap();
        expected_file.extend_from_slice(line.as_bytes());

        let report = m.migrate(&mut c, t, pid, *stop).unwrap();
        t = report.resumed_at;
        assert_eq!(c.pcb(pid).unwrap().current, *stop);
        assert_eq!(c.pcb(pid).unwrap().state, ProcState::Active);
    }
    assert_eq!(c.pcb(pid).unwrap().migrations, 5);
    assert!(!c.pcb(pid).unwrap().is_foreign(), "ended back home");

    // Memory: every chapter readable, byte-exact, from the final host.
    let mut space = c.pcb_mut(pid).unwrap().space.take().unwrap();
    for i in 0..stops.len() {
        let (data, t2) = space
            .read(
                &mut c.fs,
                &mut c.net,
                t,
                h(1),
                VirtAddr::new(SegmentKind::Heap, (i * 4096) as u64),
                4096,
            )
            .unwrap();
        t = t2;
        assert_eq!(data, vec![i as u8 + 1; 4096], "chapter {i} corrupted");
    }
    c.pcb_mut(pid).unwrap().space = Some(space);

    // File: one coherent log, in order.
    let stream = c.pcb(pid).unwrap().fd(fd).unwrap();
    c.fs.seek(stream, 0).unwrap();
    let mut log = Vec::new();
    let t = c.read_fd(t, pid, fd, 4096, &mut log).unwrap();
    assert_eq!(log, expected_file);

    c.exit(t, pid, 0).unwrap();
}

#[test]
fn every_vm_strategy_survives_a_double_migration() {
    for strategy in VmStrategy::ALL {
        let (mut c, mut m, t) = world(4);
        m.set_vm_strategy(strategy);
        let (pid, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/app"), 64, 8)
            .unwrap();
        let pattern: Vec<u8> = (0..32_768u32).map(|i| (i % 250) as u8).collect();
        let mut space = c.pcb_mut(pid).unwrap().space.take().unwrap();
        let t = space
            .write(
                &mut c.fs,
                &mut c.net,
                t,
                h(1),
                VirtAddr::new(SegmentKind::Heap, 100),
                &pattern,
            )
            .unwrap();
        c.pcb_mut(pid).unwrap().space = Some(space);
        let r1 = m.migrate(&mut c, t, pid, h(2)).unwrap();
        let r2 = m.migrate(&mut c, r1.resumed_at, pid, h(3)).unwrap();
        let mut space = c.pcb_mut(pid).unwrap().space.take().unwrap();
        let (back, _) = space
            .read(
                &mut c.fs,
                &mut c.net,
                r2.resumed_at,
                h(3),
                VirtAddr::new(SegmentKind::Heap, 100),
                pattern.len() as u64,
            )
            .unwrap();
        c.pcb_mut(pid).unwrap().space = Some(space);
        assert_eq!(back, pattern, "{strategy}: double migration lost bytes");
    }
}

#[test]
fn forked_family_spans_hosts_and_signals_still_route() {
    let (mut c, mut m, t) = world(5);
    let (parent, t) = c
        .spawn(t, h(1), &SpritePath::new("/bin/app"), 16, 4)
        .unwrap();
    let (child_a, t) = c.fork(t, parent).unwrap();
    let (child_b, t) = c.fork(t, parent).unwrap();
    // Scatter the family.
    let r1 = m.migrate(&mut c, t, child_a, h(2)).unwrap();
    let r2 = m.migrate(&mut c, r1.resumed_at, child_b, h(3)).unwrap();
    let t = r2.resumed_at;
    // Signals from an unrelated host find everyone.
    let t = c.kill(t, h(4), parent, Signal::Usr1).unwrap();
    let t = c.kill(t, h(4), child_a, Signal::Usr1).unwrap();
    let t = c.kill(t, h(4), child_b, Signal::Usr1).unwrap();
    for pid in [parent, child_a, child_b] {
        assert_eq!(
            c.take_signals(pid).collect::<Vec<_>>(),
            vec![Signal::Usr1],
            "{pid} missed its signal"
        );
    }
    // The far-flung children exit; the parent reaps them from home.
    let t = c.exit(t, child_a, 7).unwrap();
    let t = c.exit(t, child_b, 9).unwrap();
    let (first, t) = c.wait(t, parent).unwrap();
    let (second, _t) = c.wait(t, parent).unwrap();
    let mut reaped: Vec<_> = [first.unwrap(), second.unwrap()].into();
    reaped.sort();
    assert_eq!(reaped, vec![(child_a, 7), (child_b, 9)]);
}

#[test]
fn migration_failures_leave_the_process_unharmed() {
    let (mut c, mut m, t) = world(4);
    let (pid, t) = c
        .spawn(t, h(1), &SpritePath::new("/bin/app"), 16, 4)
        .unwrap();
    // Version mismatch.
    m.set_kernel_version(h(2), 9);
    assert!(matches!(
        m.migrate(&mut c, t, pid, h(2)),
        Err(MigrationError::VersionMismatch { .. })
    ));
    // Console refusal.
    c.host_mut(h(3)).console_active = true;
    assert!(matches!(
        m.migrate(&mut c, t, pid, h(3)),
        Err(MigrationError::TargetRefused(_))
    ));
    // Still perfectly usable.
    assert_eq!(c.pcb(pid).unwrap().state, ProcState::Active);
    let done = c.kernel_call(t, pid, KernelCall::GetPid).unwrap();
    assert!(done > t);
    assert_eq!(m.totals().failures, 2);
    assert_eq!(m.totals().migrations, 0);
}

#[test]
fn shadow_streams_keep_shared_offsets_exact_across_three_hosts() {
    let (mut c, mut m, t) = world(5);
    let (parent, t) = c
        .spawn(t, h(1), &SpritePath::new("/bin/app"), 16, 4)
        .unwrap();
    c.fs.create(&mut c.net, t, h(1), SpritePath::new("/shared/log"))
        .unwrap();
    let (fd, t) = c
        .open_fd(
            t,
            parent,
            SpritePath::new("/shared/log"),
            OpenMode::ReadWrite,
        )
        .unwrap();
    let (kid1, t) = c.fork(t, parent).unwrap();
    let (kid2, t) = c.fork(t, parent).unwrap();
    let r1 = m.migrate(&mut c, t, kid1, h(2)).unwrap();
    let r2 = m.migrate(&mut c, r1.resumed_at, kid2, h(3)).unwrap();
    let mut t = r2.resumed_at;
    // All three write through one shared access position, round-robin.
    for round in 0..3 {
        for pid in [parent, kid1, kid2] {
            let msg = format!("[{round}:{pid}]");
            t = c.write_fd(t, pid, fd, msg.as_bytes()).unwrap();
        }
    }
    let stream = c.pcb(parent).unwrap().fd(fd).unwrap();
    assert!(c.fs.streams().get(stream).unwrap().is_shadowed());
    c.fs.seek(stream, 0).unwrap();
    let mut data = Vec::new();
    c.read_fd(t, parent, fd, 4096, &mut data).unwrap();
    let text = String::from_utf8(data).unwrap();
    // No interleaving corruption: the writes appear back to back.
    assert_eq!(text.matches('[').count(), 9);
    assert_eq!(text.matches(']').count(), 9);
    assert!(text.starts_with(&format!("[0:{parent}]")));
    assert!(text.contains(&format!("[2:{kid2}]")));
}

#[test]
fn eviction_under_load_is_clean_and_bounded() {
    let (mut c, mut m, mut t) = world(8);
    // Six different users' processes, all guests on host 1.
    let mut pids = Vec::new();
    for i in 2..8u32 {
        let (pid, t1) = c
            .spawn(t, h(i), &SpritePath::new("/bin/app"), 64, 8)
            .unwrap();
        let r = m.migrate(&mut c, t1, pid, h(1)).unwrap();
        // Some have dirty state, some do not.
        t = if i % 2 == 0 {
            let mut sp = c.pcb_mut(pid).unwrap().space.take().unwrap();
            let t2 = sp
                .write(
                    &mut c.fs,
                    &mut c.net,
                    r.resumed_at,
                    h(1),
                    VirtAddr::new(SegmentKind::Heap, 0),
                    &vec![9u8; 128 * 1024],
                )
                .unwrap();
            c.pcb_mut(pid).unwrap().space = Some(sp);
            t2
        } else {
            r.resumed_at
        };
        pids.push(pid);
    }
    assert_eq!(c.foreign_on(h(1)).count(), 6);
    c.host_mut(h(1)).console_active = true;
    let reports = m.evict_all(&mut c, t, h(1)).unwrap();
    assert_eq!(reports.len(), 6);
    let reclaim = reports.last().unwrap().resumed_at.elapsed_since(t);
    assert!(
        reclaim < SimDuration::from_secs(10),
        "reclaim took {reclaim}, too long for six small processes"
    );
    for pid in pids {
        assert_eq!(c.pcb(pid).unwrap().current, pid.home());
        assert_eq!(c.pcb(pid).unwrap().state, ProcState::Active);
    }
}
