//! Simulated hardware substrate: the shared 10 Mbit Ethernet, the Sprite
//! kernel-to-kernel RPC transport, and the era-calibrated [`CostModel`].
//!
//! Sprite's kernels "work closely together using a remote-procedure-call
//! mechanism" \[Wel86\]; every higher layer of this reproduction (file system,
//! virtual memory, migration, host selection) moves data exclusively through
//! the typed [`Transport`] over the shared [`Network`]. The network is a
//! *contended* resource — transfers serialize on the wire and busy server
//! CPUs queue — because contention is where the paper's most interesting
//! performance shapes come from.
//!
//! # Examples
//!
//! ```
//! use sprite_net::{CostModel, HostId, RpcOp, Transport};
//! use sprite_sim::SimTime;
//!
//! let mut net = Transport::new(CostModel::sun3(), 8);
//! let client = HostId::new(3);
//! let server = HostId::new(0);
//! let reply = net.send(RpcOp::FsBlockRead, SimTime::ZERO, client, server, None)?;
//! println!("RPC took {}", reply.elapsed(SimTime::ZERO));
//! # Ok::<(), sprite_net::RpcError>(())
//! ```

#![warn(missing_docs)]

mod cost;
mod fault;
mod host;
mod network;
mod partition;
mod shardlink;
mod transport;

pub use cost::{CostModel, PAGE_SIZE};
pub use fault::{
    backoff_after, CrashSchedule, DelayPolicy, DropPolicy, FaultPlan, FaultRow, FaultStats,
    LinkVerdict, PartitionPolicy, RpcError, RpcFailure, RpcResult, SendError, MAX_SEND_ATTEMPTS,
    RETRY_BACKOFF_BASE, RETRY_BACKOFF_CAP, RPC_TIMEOUT,
};
pub use host::HostId;
pub use network::{Delivery, MessageKind, NetStats, Network};
pub use partition::HostPartition;
pub use shardlink::ShardLink;
pub use transport::{
    wire_size, Ideal, LinkPolicy, OpStats, RpcOp, RpcTable, Transport, WireSize, CONTROL_BYTES,
    GOSSIP_ENTRY_BYTES, HANDLE_BYTES, LOAD_REPORT_BYTES, PAGE_REPLY_BYTES,
};
