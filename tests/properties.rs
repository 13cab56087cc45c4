//! Property-based tests over the core invariants.
//!
//! * The distributed file system, driven by arbitrary interleaved
//!   operations from several hosts, behaves exactly like one flat in-memory
//!   file system — the cache-consistency protocol may never lose or
//!   resurrect bytes.
//! * A process's memory and stream positions match a reference model after
//!   any sequence of writes and migrations.
//! * The central host-selection server never double-assigns and never hands
//!   out a console-active host.
//!
//! Cases are generated from [`DetRng`] with fixed seeds so every run (and
//! every failure) is reproducible; `heavy-tests` multiplies the case counts.

use sprite::fs::{FsConfig, OpenMode, SpriteFs, SpritePath, StreamId};
use sprite::hostsel::{AvailabilityPolicy, CentralServer, HostInfo, HostSelector};
use sprite::kernel::Cluster;
use sprite::migration::{MigrationConfig, Migrator};
use sprite::net::{CostModel, HostId, Transport};
use sprite::sim::{DetRng, SimDuration, SimTime};
use sprite::vm::{SegmentKind, VirtAddr};

const HOSTS: usize = 4;
const PATHS: usize = 4;

fn cases(base: usize) -> usize {
    if cfg!(feature = "heavy-tests") {
        base * 8
    } else {
        base
    }
}

fn h(i: u32) -> HostId {
    HostId::new(i)
}

fn path(i: usize) -> SpritePath {
    SpritePath::new(format!("/prop/file{i}"))
}

#[derive(Debug, Clone)]
enum FsOp {
    Open { host: u8, file: u8 },
    Write { stream: u8, byte: u8, len: u16 },
    Read { stream: u8, len: u16 },
    Seek { stream: u8, pos: u16 },
    Close { stream: u8 },
    MigrateStream { stream: u8, to: u8 },
}

fn fs_op(rng: &mut DetRng) -> FsOp {
    match rng.pick_index(6) {
        0 => FsOp::Open {
            host: 1 + rng.uniform_u64(HOSTS as u64 - 1) as u8,
            file: rng.uniform_u64(PATHS as u64) as u8,
        },
        1 => FsOp::Write {
            stream: rng.uniform_u64(256) as u8,
            byte: rng.uniform_u64(256) as u8,
            len: 1 + rng.uniform_u64(5999) as u16,
        },
        2 => FsOp::Read {
            stream: rng.uniform_u64(256) as u8,
            len: 1 + rng.uniform_u64(5999) as u16,
        },
        3 => FsOp::Seek {
            stream: rng.uniform_u64(256) as u8,
            pos: rng.uniform_u64(10000) as u16,
        },
        4 => FsOp::Close {
            stream: rng.uniform_u64(256) as u8,
        },
        _ => FsOp::MigrateStream {
            stream: rng.uniform_u64(256) as u8,
            to: 1 + rng.uniform_u64(HOSTS as u64 - 1) as u8,
        },
    }
}

/// Reference model: flat files and independent stream offsets.
#[derive(Debug, Default)]
struct Model {
    files: Vec<Vec<u8>>,
    // (file index, offset, host)
    streams: Vec<(usize, u64, u32)>,
}

/// The distributed FS with caching + consistency is observationally a
/// single flat file system under serialized multi-host access.
#[test]
fn fs_matches_flat_model() {
    let mut rng = DetRng::seed_from(0xF5);
    for case in 0..cases(64) {
        let nops = 1 + rng.pick_index(59);
        let ops: Vec<FsOp> = (0..nops).map(|_| fs_op(&mut rng)).collect();

        let mut net = Transport::new(CostModel::sun3(), HOSTS);
        let mut fs = SpriteFs::new(FsConfig::default(), HOSTS);
        fs.add_server(h(0), SpritePath::new("/"));
        let mut t = SimTime::ZERO;
        for i in 0..PATHS {
            let (_, t2) = fs.create(&mut net, t, h(1), path(i)).unwrap();
            t = t2;
        }
        let mut model = Model {
            files: vec![Vec::new(); PATHS],
            streams: Vec::new(),
        };
        // live streams: (StreamId, model index)
        let mut live: Vec<(StreamId, usize)> = Vec::new();

        for op in ops.clone() {
            match op {
                FsOp::Open { host, file } => {
                    let (sid, t2) = fs
                        .open(
                            &mut net,
                            t,
                            h(host as u32),
                            path(file as usize),
                            OpenMode::ReadWrite,
                        )
                        .unwrap();
                    t = t2;
                    model.streams.push((file as usize, 0, host as u32));
                    live.push((sid, model.streams.len() - 1));
                }
                FsOp::Write { stream, byte, len } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (sid, mi) = live[stream as usize % live.len()];
                    let (file, offset, host) = model.streams[mi];
                    let data = vec![byte; len as usize];
                    t = fs.write(&mut net, t, h(host), sid, &data).unwrap();
                    let f = &mut model.files[file];
                    let end = offset as usize + data.len();
                    if f.len() < end {
                        f.resize(end, 0);
                    }
                    f[offset as usize..end].copy_from_slice(&data);
                    model.streams[mi].1 = end as u64;
                }
                FsOp::Read { stream, len } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (sid, mi) = live[stream as usize % live.len()];
                    let (file, offset, host) = model.streams[mi];
                    let mut got = Vec::new();
                    t = fs
                        .read(&mut net, t, h(host), sid, len as u64, &mut got)
                        .unwrap();
                    let f = &model.files[file];
                    let start = (offset as usize).min(f.len());
                    let end = (offset as usize + len as usize).min(f.len());
                    assert_eq!(&got, &f[start..end], "case {case}: stale or lost bytes");
                    model.streams[mi].1 = offset + got.len() as u64;
                }
                FsOp::Seek { stream, pos } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (sid, mi) = live[stream as usize % live.len()];
                    fs.seek(sid, pos as u64).unwrap();
                    model.streams[mi].1 = pos as u64;
                }
                FsOp::Close { stream } => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = stream as usize % live.len();
                    let (sid, mi) = live.remove(idx);
                    let host = model.streams[mi].2;
                    t = fs.close(&mut net, t, h(host), sid).unwrap();
                }
                FsOp::MigrateStream { stream, to } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (sid, mi) = live[stream as usize % live.len()];
                    let from = model.streams[mi].2;
                    if from == to as u32 {
                        continue;
                    }
                    let (_, t2) = fs
                        .migrate_stream(&mut net, t, sid, h(from), h(to as u32), 1)
                        .unwrap();
                    t = t2;
                    model.streams[mi].2 = to as u32;
                }
            }
        }
        // Drain: close everything, then verify full contents byte-exactly
        // from a fresh reader on each host.
        while let Some((sid, mi)) = live.pop() {
            let host = model.streams[mi].2;
            t = fs.close(&mut net, t, h(host), sid).unwrap();
        }
        for (i, expect) in model.files.iter().enumerate() {
            for reader in 1..HOSTS as u32 {
                let (sid, t2) = fs
                    .open(&mut net, t, h(reader), path(i), OpenMode::Read)
                    .unwrap();
                let mut data = Vec::new();
                let t3 = fs
                    .read(
                        &mut net,
                        t2,
                        h(reader),
                        sid,
                        expect.len() as u64 + 64,
                        &mut data,
                    )
                    .unwrap();
                t = fs.close(&mut net, t3, h(reader), sid).unwrap();
                assert_eq!(
                    &data, expect,
                    "case {case}: file {i} wrong when read from host {reader}"
                );
            }
        }
    }
}

#[derive(Debug, Clone)]
enum ProcOp {
    WriteMem { page: u8, byte: u8 },
    Migrate { to: u8 },
    WriteFile { byte: u8, len: u16 },
}

fn proc_op(rng: &mut DetRng) -> ProcOp {
    match rng.pick_index(3) {
        0 => ProcOp::WriteMem {
            page: rng.uniform_u64(16) as u8,
            byte: rng.uniform_u64(256) as u8,
        },
        1 => ProcOp::Migrate {
            to: 1 + rng.uniform_u64(HOSTS as u64 - 1) as u8,
        },
        _ => ProcOp::WriteFile {
            byte: rng.uniform_u64(256) as u8,
            len: 1 + rng.uniform_u64(2999) as u16,
        },
    }
}

/// A process's memory image and file stream survive any interleaving of
/// writes and migrations, and the kernel's location bookkeeping stays
/// coherent.
#[test]
fn process_state_survives_arbitrary_migrations() {
    let mut rng = DetRng::seed_from(0x9C0C);
    for case in 0..cases(48) {
        let nops = 1 + rng.pick_index(39);
        let ops: Vec<ProcOp> = (0..nops).map(|_| proc_op(&mut rng)).collect();

        let mut cluster = Cluster::new(CostModel::sun3(), HOSTS);
        cluster.add_file_server(h(0), SpritePath::new("/"));
        let mut t = cluster
            .install_program(SimTime::ZERO, SpritePath::new("/bin/p"), 16 * 1024)
            .unwrap();
        let (pid, t1) = cluster
            .spawn(t, h(1), &SpritePath::new("/bin/p"), 16, 4)
            .unwrap();
        t = t1;
        cluster
            .fs
            .create(&mut cluster.net, t, h(1), SpritePath::new("/prop/out"))
            .unwrap();
        let (fd, t2) = cluster
            .open_fd(t, pid, SpritePath::new("/prop/out"), OpenMode::ReadWrite)
            .unwrap();
        t = t2;
        let mut migrator = Migrator::new(MigrationConfig::default(), HOSTS);

        let mut mem_model = vec![0u8; 16 * 4096];
        let mut mem_written = vec![false; 16 * 4096];
        let mut file_model: Vec<u8> = Vec::new();

        for op in ops {
            let here = cluster.pcb(pid).unwrap().current;
            match op {
                ProcOp::WriteMem { page, byte } => {
                    let offset = page as u64 * 4096 + (byte as u64 % 4000);
                    let data = [byte; 16];
                    let mut space = cluster.pcb_mut(pid).unwrap().space.take().unwrap();
                    t = space
                        .write(
                            &mut cluster.fs,
                            &mut cluster.net,
                            t,
                            here,
                            VirtAddr::new(SegmentKind::Heap, offset),
                            &data,
                        )
                        .unwrap();
                    cluster.pcb_mut(pid).unwrap().space = Some(space);
                    for k in 0..16usize {
                        mem_model[offset as usize + k] = byte;
                        mem_written[offset as usize + k] = true;
                    }
                }
                ProcOp::Migrate { to } => {
                    if h(to as u32) == here {
                        continue;
                    }
                    let r = migrator
                        .migrate(&mut cluster, t, pid, h(to as u32))
                        .unwrap();
                    t = r.resumed_at;
                    // Kernel bookkeeping is coherent after every move.
                    let pcb = cluster.pcb(pid).unwrap();
                    assert_eq!(pcb.current, h(to as u32));
                    assert!(cluster.host(h(to as u32)).resident().contains(&pid));
                    assert!(!cluster.host(here).resident().contains(&pid));
                    assert_eq!(cluster.locate(pid), Some(h(to as u32)));
                }
                ProcOp::WriteFile { byte, len } => {
                    let data = vec![byte; len as usize];
                    t = cluster.write_fd(t, pid, fd, &data).unwrap();
                    file_model.extend_from_slice(&data);
                }
            }
        }
        // Memory model check, from wherever the process ended up.
        let here = cluster.pcb(pid).unwrap().current;
        let mut space = cluster.pcb_mut(pid).unwrap().space.take().unwrap();
        let (mem, t2) = space
            .read(
                &mut cluster.fs,
                &mut cluster.net,
                t,
                here,
                VirtAddr::new(SegmentKind::Heap, 0),
                16 * 4096,
            )
            .unwrap();
        cluster.pcb_mut(pid).unwrap().space = Some(space);
        t = t2;
        for (i, (&expect, &written)) in mem_model.iter().zip(&mem_written).enumerate() {
            if written {
                assert_eq!(mem[i], expect, "case {case}: heap byte {i} corrupted");
            }
        }
        // File model check.
        let stream = cluster.pcb(pid).unwrap().fd(fd).unwrap();
        assert_eq!(
            cluster.fs.streams().get(stream).unwrap().offset(),
            file_model.len() as u64
        );
        cluster.fs.seek(stream, 0).unwrap();
        let mut data = Vec::new();
        cluster
            .read_fd(t, pid, fd, file_model.len() as u64 + 16, &mut data)
            .unwrap();
        assert_eq!(data, file_model, "case {case}");
    }
}

/// The central server, on one daemon or spread over two or three, never
/// double-assigns a host, never assigns a console-active host, and release
/// makes hosts grantable again.
#[test]
fn central_server_assignment_invariants() {
    let mut rng = DetRng::seed_from(0xCE27);
    for case in 0..cases(64) {
        let hosts = 8;
        let console: Vec<bool> = (0..hosts).map(|_| rng.chance(0.5)).collect();
        let nreq = 1 + rng.pick_index(39);
        let requests: Vec<(u8, bool)> = (0..nreq)
            .map(|_| (rng.uniform_u64(8) as u8, rng.chance(0.5)))
            .collect();
        let truth: Vec<HostInfo> = (0..hosts as u32)
            .map(|i| HostInfo {
                host: h(i),
                load: 0.0,
                idle: if console[i as usize] {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_secs(600)
                },
                console_active: console[i as usize],
                speed: 1.0,
            })
            .collect();
        for daemons in 1..=3 {
            let case = format!("case {case}, {daemons} daemon(s)");
            let mut net = Transport::new(CostModel::sun3(), hosts);
            let mut sel = CentralServer::sharded(hosts, daemons, AvailabilityPolicy::default());
            let mut t = SimTime::ZERO;
            for info in &truth {
                t = sel.report(&mut net, t, *info);
            }
            let mut granted: Vec<(HostId, HostId)> = Vec::new(); // (host, requester)
            for &(req, give_back) in &requests {
                let requester = h(req as u32);
                let (pick, t2) = sel.select(&mut net, t, requester, &truth);
                t = t2;
                if let Some(host) = pick {
                    assert!(
                        !console[host.index()],
                        "{case}: granted a console-active host"
                    );
                    assert_ne!(host, requester, "{case}: granted the requester itself");
                    assert!(
                        !granted.iter().any(|(g, _)| *g == host),
                        "{case}: double-assigned {host}"
                    );
                    granted.push((host, requester));
                }
                if give_back {
                    if let Some((host, owner)) = granted.pop() {
                        t = sel.release(&mut net, t, owner, host);
                    }
                }
                assert_eq!(sel.assigned_count(), granted.len(), "{case}");
            }
            // Everything released becomes grantable again.
            while let Some((host, owner)) = granted.pop() {
                t = sel.release(&mut net, t, owner, host);
            }
            let idle_count = console.iter().filter(|c| !**c).count();
            if idle_count > 1 {
                // Request from an active host (so it is not excluded as self).
                let requester = (0..8u32)
                    .find(|i| console[*i as usize])
                    .map(h)
                    .unwrap_or(h(0));
                let (pick, _) = sel.select(&mut net, t, requester, &truth);
                assert!(pick.is_some(), "{case}: released hosts must be selectable");
            }
        }
    }
}
