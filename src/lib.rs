//! # Sprite process migration — a full reproduction in Rust
//!
//! This crate re-exports every subsystem of the reproduction of Douglis &
//! Ousterhout's Sprite process-migration work (ICDCS '87 / Douglis's 1990
//! thesis): a deterministic discrete-event Sprite cluster with a shared
//! file system, virtual memory that pages through backing files,
//! home-transparent kernels, the migration mechanism itself, host
//! selection, and the pmake workload engine.
//!
//! ## Quick start
//!
//! ```
//! use sprite::fs::SpritePath;
//! use sprite::kernel::Cluster;
//! use sprite::migration::{MigrationConfig, Migrator};
//! use sprite::net::{CostModel, HostId};
//! use sprite::sim::SimTime;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Three workstations; host 0 doubles as the file server.
//! let mut cluster = Cluster::new(CostModel::sun3(), 3);
//! cluster.add_file_server(HostId::new(0), SpritePath::new("/"));
//! let t = cluster.install_program(SimTime::ZERO, SpritePath::new("/bin/work"), 32 * 1024)?;
//!
//! // A process starts on its owner's workstation...
//! let (pid, t) = cluster.spawn(t, HostId::new(1), &SpritePath::new("/bin/work"), 64, 16)?;
//!
//! // ...and transparently moves to an idle machine.
//! let mut migrator = Migrator::new(MigrationConfig::default(), cluster.host_count());
//! let report = migrator.migrate(&mut cluster, t, pid, HostId::new(2))?;
//! assert_eq!(cluster.pcb(pid).unwrap().current, HostId::new(2));
//! println!("migrated in {} (froze {})", report.total_time, report.freeze_time);
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`sim`] | `sprite-sim` | simulated clock, event engine, RNG, statistics |
//! | [`net`] | `sprite-net` | shared Ethernet and the RPC transport over it, fault plan, cost model |
//! | [`fs`] | `sprite-fs` | distributed FS: servers, caches, streams, pseudo-devices |
//! | [`vm`] | `sprite-vm` | address spaces, demand paging, VM transfer strategies |
//! | [`kernel`] | `sprite-kernel` | processes, kernel calls, the cluster |
//! | [`migration`] | `sprite-core` | the migration mechanism (the paper's contribution) |
//! | [`hostsel`] | `sprite-hostsel` | load metrics and the four selection architectures |
//! | [`pmake`] | `sprite-pmake` | dependency graphs and the parallel build engine |
//! | [`workloads`] | `sprite-workloads` | activity traces, lifetimes, job mixes |

#![warn(missing_docs)]

/// Simulation substrate (re-export of `sprite-sim`).
pub mod sim {
    pub use sprite_sim::*;
}

/// Shared wire, RPC transport, fault plan and cost model (re-export of
/// `sprite-net`).
pub mod net {
    pub use sprite_net::*;
}

/// Distributed file system (re-export of `sprite-fs`).
pub mod fs {
    pub use sprite_fs::*;
}

/// Virtual memory (re-export of `sprite-vm`).
pub mod vm {
    pub use sprite_vm::*;
}

/// Kernel and cluster (re-export of `sprite-kernel`).
pub mod kernel {
    pub use sprite_kernel::*;
}

/// Process migration (re-export of `sprite-core`).
pub mod migration {
    pub use sprite_core::*;
}

/// Host selection (re-export of `sprite-hostsel`).
pub mod hostsel {
    pub use sprite_hostsel::*;
}

/// Parallel make (re-export of `sprite-pmake`).
pub mod pmake {
    pub use sprite_pmake::*;
}

/// Workload generation (re-export of `sprite-workloads`).
pub mod workloads {
    pub use sprite_workloads::*;
}
