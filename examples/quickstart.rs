//! Quickstart: migrate a running process between workstations and watch it
//! keep its memory, its open files and its identity.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use sprite::fs::{OpenMode, SpritePath};
use sprite::kernel::{Cluster, KernelCall};
use sprite::migration::{MigrationConfig, Migrator};
use sprite::net::{CostModel, HostId};
use sprite::sim::SimTime;
use sprite::vm::{SegmentKind, VirtAddr};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A little Sprite cluster: host0 is the file server, host1 is the
    // user's workstation ("home"), host2 is an idle machine down the hall.
    let mut cluster = Cluster::new(CostModel::sun3(), 3);
    cluster.add_file_server(HostId::new(0), SpritePath::new("/"));
    let home = HostId::new(1);
    let idle = HostId::new(2);

    let t = cluster.install_program(SimTime::ZERO, SpritePath::new("/bin/crunch"), 32 * 1024)?;
    let (pid, t) = cluster.spawn(t, home, &SpritePath::new("/bin/crunch"), 128, 16)?;
    println!("spawned {pid} on {home} (its home)");

    // The process computes something into memory and logs to a file.
    let addr = VirtAddr::new(SegmentKind::Heap, 4096);
    let t = {
        let mut space = cluster.pcb_mut(pid).unwrap().space.take().unwrap();
        let t = space.write(
            &mut cluster.fs,
            &mut cluster.net,
            t,
            home,
            addr,
            b"partial result: 42",
        )?;
        cluster.pcb_mut(pid).unwrap().space = Some(space);
        t
    };
    cluster
        .fs
        .create(&mut cluster.net, t, home, SpritePath::new("/users/me/log"))?;
    let (fd, t) = cluster.open_fd(
        t,
        pid,
        SpritePath::new("/users/me/log"),
        OpenMode::ReadWrite,
    )?;
    let t = cluster.write_fd(t, pid, fd, b"started at home\n")?;

    // Migrate it to the idle host.
    let mut migrator = Migrator::new(MigrationConfig::default(), cluster.host_count());
    let report = migrator.migrate(&mut cluster, t, pid, idle)?;
    println!(
        "migrated {} -> {} in {} (frozen for {}); moved {} stream(s)",
        report.from, report.to, report.total_time, report.freeze_time, report.streams_moved
    );

    // Same memory...
    let t = report.resumed_at;
    let (data, t) = {
        let mut space = cluster.pcb_mut(pid).unwrap().space.take().unwrap();
        let r = space.read(&mut cluster.fs, &mut cluster.net, t, idle, addr, 18)?;
        cluster.pcb_mut(pid).unwrap().space = Some(space);
        r
    };
    println!(
        "memory after migration: {:?}",
        String::from_utf8_lossy(&data)
    );

    // ...same file descriptor, appending where it left off...
    let t = cluster.write_fd(t, pid, fd, b"continued on an idle host\n")?;
    let stream = cluster.pcb(pid).unwrap().fd(fd).unwrap();
    cluster.fs.seek(stream, 0)?;
    let mut log = Vec::new();
    let t = cluster.read_fd(t, pid, fd, 128, &mut log)?;
    print!("log file reads back:\n{}", String::from_utf8_lossy(&log));

    // ...and location-dependent kernel calls still behave as if at home —
    // they are transparently forwarded (and cost an RPC).
    let t2 = cluster.kernel_call(t, pid, KernelCall::GetTimeOfDay)?;
    println!(
        "gettimeofday while foreign: {} (forwarded home over the network)",
        t2.elapsed_since(t)
    );

    let t = cluster.exit(t2, pid, 0)?;
    println!("process exited cleanly at {t}");
    Ok(())
}
