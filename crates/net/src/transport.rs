//! The typed kernel-to-kernel RPC layer and the shared wire under it.
//!
//! Sprite's kernels "work closely together using a remote-procedure-call
//! mechanism" (Ch. 3.2) over one shared 10 Mbit Ethernet, modelled on
//! Birrell–Nelson \[BN84\]: the caller blocks until the reply arrives and
//! large payloads travel as fragments. The paper's evaluation reports
//! traffic *per operation kind* — migration RPCs, file-server calls,
//! host-selection multicasts. [`Transport`] owns the wire and is the one
//! seam every such interaction goes through; each send is tagged with an
//! [`RpcOp`].
//!
//! * The wire is one [`SlottedResource`]: concurrent transfers serialize,
//!   which is what eventually throttles migration-heavy workloads, but a
//!   transfer arriving between two scheduled transmissions uses the idle
//!   gap, as on a real CSMA wire.
//! * A round trip costs two message latencies, two processing steps and
//!   wire occupancy for both payloads; the callee's CPU can be charged so
//!   a busy server queues. A bulk transfer pays per-fragment overhead, so
//!   a whole-image VM transfer "can take many seconds" (Ch. 4). A
//!   multicast occupies the wire once \[TL88\].
//! * Every send is tallied in a per-op [`RpcTable`] (calls, messages,
//!   bytes, round-trip times) whose totals equal [`NetStats`], because the
//!   table records each send's counter deltas. Sends can be traced under
//!   `"rpc"`, failures under `"fault"`.
//! * Every attempt is ruled on by one [`LinkPolicy`], the fault-injection
//!   seam; the default [`Ideal`] always delivers. One attempt loop serves
//!   every send shape: a lost round-trip attempt waits out [`RPC_TIMEOUT`]
//!   and a bounded exponential backoff on the simulated clock before it is
//!   retried, a one-way send is never retried, and an exhausted or futile
//!   send surfaces an [`RpcError`] instead of panicking.
//!
//! Canonical request/reply payloads live in the [`wire_size`] table next
//! to the [`CostModel`].

use sprite_sim::{
    Counter, FcfsResource, OnlineStats, SimDuration, SimTime, SlottedResource, StateDigest, Trace,
};

use crate::fault::{
    backoff_after, FaultStats, LinkVerdict, RpcError, RpcFailure, SendError, MAX_SEND_ATTEMPTS,
    RPC_TIMEOUT,
};
use crate::{CostModel, HostId, PAGE_SIZE};

/// Smallest message the protocol sends: an RPC header with a status word
/// (also the wire's minimum charged payload).
pub const CONTROL_BYTES: u64 = 64;
/// A host's load/idle-time report (host id, load average, idle seconds,
/// console flag).
pub const LOAD_REPORT_BYTES: u64 = 96;
/// A request carrying a file handle or path component plus credentials.
pub const HANDLE_BYTES: u64 = 128;
/// A reply carrying one page of data plus the RPC header.
pub const PAGE_REPLY_BYTES: u64 = PAGE_SIZE + CONTROL_BYTES;
/// One entry of a gossiped load batch: host id, load average, idle
/// seconds and the sender-side age stamp, packed. A gossip message is
/// [`CONTROL_BYTES`] of header plus one of these per carried entry, so
/// load traffic is O(k·f) per host-interval instead of O(hosts) queries.
pub const GOSSIP_ENTRY_BYTES: u64 = 24;

/// Canonical request/reply payload sizes for one [`RpcOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSize {
    /// Request payload bytes (0 = caller-sized: bulk images, data writes).
    pub request: u64,
    /// Reply payload bytes (0 = one-way: datagrams and multicasts).
    pub reply: u64,
}

/// Generates [`RpcOp`], [`RpcOp::ALL`], [`RpcOp::label`] and [`wire_size`]
/// from one table with a row per op: its doc comment, variant, label and
/// `(request, reply)` sizes. An op cannot exist without a label, wire
/// sizes and a slot in `ALL`, so every per-op table covers every op.
macro_rules! rpc_ops {
    ($($(#[$doc:meta])* $op:ident => $label:literal, ($request:expr, $reply:expr);)+) => {
        /// Every kind of cross-kernel interaction the reproduction performs.
        ///
        /// One enum covers all five wire users — the migration protocol,
        /// process control, the shared file system, virtual memory, and host
        /// selection — so the per-op traffic table spans the whole simulation.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum RpcOp {
            $($(#[$doc])* $op,)+
        }

        impl RpcOp {
            /// Every op, in table order.
            pub const ALL: [RpcOp; [$($label),+].len()] = [$(RpcOp::$op),+];

            /// Stable lower-case label for tables, traces and JSON.
            pub fn label(self) -> &'static str {
                match self {
                    $(RpcOp::$op => $label,)+
                }
            }
        }

        /// Canonical wire sizes per op, in one place next to the
        /// [`CostModel`] whose 2.6 ms small-RPC round trip and ~480 KB/s bulk
        /// rate they ride on.
        ///
        /// A `request` of 0 means the payload is caller-sized (bulk images,
        /// block writes); a `reply` of 0 means the op is one-way (datagrams,
        /// multicasts). Dynamic payloads still go through the typed send
        /// methods — the table records the op's *fixed* part.
        pub fn wire_size(op: RpcOp) -> WireSize {
            let (request, reply) = match op {
                $(RpcOp::$op => ($request, $reply),)+
            };
            WireSize { request, reply }
        }
    };
}

rpc_ops! {
    /// Migration offer/accept handshake with the target kernel.
    MigrateNegotiate => "migrate-negotiate", (HANDLE_BYTES, CONTROL_BYTES);
    /// Bulk transfer of packed process state (PCB, fds, signal masks).
    MigrateState => "migrate-state", (0, CONTROL_BYTES);
    /// Commit notification to the home kernel after a migration lands.
    MigrateCommit => "migrate-commit", (CONTROL_BYTES, CONTROL_BYTES);
    /// Per-stream file handle transfer during migration.
    StreamTransfer => "stream-transfer", (HANDLE_BYTES, CONTROL_BYTES);
    /// A signal forwarded between kernels (home-routed delivery).
    SignalForward => "signal-forward", (CONTROL_BYTES, CONTROL_BYTES);
    /// A location-dependent kernel call forwarded to the home kernel.
    HomeCallForward => "home-call-forward", (CONTROL_BYTES, CONTROL_BYTES);
    /// Fork/exit bookkeeping sent to a foreign process's home kernel.
    ProcNotifyHome => "proc-notify-home", (HANDLE_BYTES, CONTROL_BYTES);
    /// File open (name + credentials out, handle + attributes back).
    FsOpen => "fs-open", (HANDLE_BYTES, HANDLE_BYTES);
    /// Name lookup for create/unlink (name out, status back).
    FsLookup => "fs-lookup", (HANDLE_BYTES, CONTROL_BYTES);
    /// File close (handle out, status back).
    FsClose => "fs-close", (CONTROL_BYTES, CONTROL_BYTES);
    /// Shared stream offset synchronization with the I/O server.
    FsShadowStream => "fs-shadow-stream", (CONTROL_BYTES, CONTROL_BYTES);
    /// Cache block read from the file server.
    FsBlockRead => "fs-block-read", (CONTROL_BYTES, PAGE_REPLY_BYTES);
    /// Cache block write-through/write-back to the file server.
    FsBlockWrite => "fs-block-write", (0, CONTROL_BYTES);
    /// Cache consistency traffic (dirty-block recall, open invalidation).
    FsConsistency => "fs-consistency", (CONTROL_BYTES, CONTROL_BYTES);
    /// Pseudo-device request/reply with a user-level server process.
    FsPseudo => "fs-pseudo", (0, 0);
    /// Dirty VM page flushed to its backing swap file.
    VmPageFlush => "vm-page-flush", (0, CONTROL_BYTES);
    /// VM page fetched from a backing file or the source host.
    VmPageFetch => "vm-page-fetch", (CONTROL_BYTES, PAGE_REPLY_BYTES);
    /// Bulk address-space image transfer (pages and page tables).
    VmBulkImage => "vm-bulk-image", (0, CONTROL_BYTES);
    /// Host-selection request/release round trip with a selection service.
    HostselQuery => "hostsel-query", (HANDLE_BYTES, HANDLE_BYTES);
    /// One-way load report to a selection service or gossip peer.
    HostselReport => "hostsel-report", (LOAD_REPORT_BYTES, 0);
    /// Broadcast query for idle hosts.
    HostselMulticast => "hostsel-multicast", (LOAD_REPORT_BYTES, 0);
    /// One-way reply from an idle host to a broadcast query.
    HostselReply => "hostsel-reply", (CONTROL_BYTES, 0);
    /// One-way release notice returning a borrowed host.
    HostselRelease => "hostsel-release", (CONTROL_BYTES, 0);
    /// One-way batched load-vector push to a DetRng-chosen gossip peer
    /// (header plus `f` [`GOSSIP_ENTRY_BYTES`] entries, caller-sized).
    // Caller-sized one-way: header + f gossip entries per message.
    HostselGossip => "hostsel-gossip", (0, 0);
    /// First-contact round trip that teaches a client which server of a
    /// striped FS domain owns a name (prefix-table fetch).
    FsShardRedirect => "fs-shard-redirect", (HANDLE_BYTES, HANDLE_BYTES);
    /// Block read served by (or replica pull to) a read-replica server
    /// peer instead of the file's home server.
    FsReplicaRead => "fs-replica-read", (CONTROL_BYTES, PAGE_REPLY_BYTES);
    /// Home-server notice dropping a peer's read replica after a
    /// write-open bumped the file version.
    FsReplicaInvalidate => "fs-replica-invalidate", (CONTROL_BYTES, CONTROL_BYTES);
    /// Checkpoint image write: one record of a process's frozen state
    /// streamed to its (sharded) image file. Caller-sized request.
    // Caller-sized request: header + page records, sized per write.
    CkptWrite => "ckpt-write", (0, CONTROL_BYTES);
    /// Checkpoint image read during restart-elsewhere: the reborn process
    /// pulls one record back from the image file's shard server.
    CkptRestore => "ckpt-restore", (CONTROL_BYTES, PAGE_REPLY_BYTES);
}

impl RpcOp {
    /// Row index in the per-op tables ([`RpcTable`], [`FaultStats`]): the
    /// discriminant, which is also the op's position in [`RpcOp::ALL`].
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for RpcOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-op traffic accumulated by a [`Transport`].
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// Completed sends (RPC round trips, bulk transfers or datagrams).
    pub calls: u64,
    /// Messages those sends put on the wire.
    pub messages: u64,
    /// Payload bytes those sends moved.
    pub bytes: u64,
    /// Distribution of completion times (seconds), caller clock to done.
    pub rtt: OnlineStats,
}

/// The per-operation traffic table: one [`OpStats`] row per [`RpcOp`].
///
/// Rows are filled from [`NetStats`] counter deltas, so
/// [`RpcTable::total_messages`]/[`RpcTable::total_bytes`] equal the
/// network's own totals as long as every send goes through the transport.
/// Under an injected-fault policy the invariant still holds: wire traffic
/// charged by lost attempts is folded into the op's message/byte counters
/// (via the same delta construction), while `calls` counts only sends that
/// completed.
#[derive(Debug, Clone)]
pub struct RpcTable {
    rows: Vec<OpStats>,
}

impl Default for RpcTable {
    fn default() -> Self {
        RpcTable {
            rows: vec![OpStats::default(); RpcOp::ALL.len()],
        }
    }
}

impl RpcTable {
    /// An empty table.
    pub fn new() -> Self {
        RpcTable::default()
    }

    fn record(&mut self, op: RpcOp, messages: u64, bytes: u64, rtt: SimDuration) {
        let row = &mut self.rows[op.index()];
        row.calls += 1;
        row.messages += messages;
        row.bytes += bytes;
        row.rtt.record_duration(rtt);
    }

    /// Wire traffic from a send that ultimately failed: counted so table
    /// totals keep matching [`NetStats`], but with no completed call or RTT.
    fn record_failure(&mut self, op: RpcOp, messages: u64, bytes: u64) {
        let row = &mut self.rows[op.index()];
        row.messages += messages;
        row.bytes += bytes;
    }

    /// The row for one op.
    pub fn get(&self, op: RpcOp) -> &OpStats {
        &self.rows[op.index()]
    }

    /// Ops that saw traffic, in table order.
    pub fn rows(&self) -> impl Iterator<Item = (RpcOp, &OpStats)> {
        RpcOp::ALL
            .iter()
            .map(|op| (*op, &self.rows[op.index()]))
            .filter(|(_, row)| row.calls > 0)
    }

    /// True if no op saw traffic.
    pub fn is_empty(&self) -> bool {
        self.rows().next().is_none()
    }

    /// Total sends across all ops.
    pub fn total_calls(&self) -> u64 {
        self.rows.iter().map(|r| r.calls).sum()
    }

    /// Total messages across all ops (equals [`NetStats::messages`]).
    pub fn total_messages(&self) -> u64 {
        self.rows.iter().map(|r| r.messages).sum()
    }

    /// Total bytes across all ops (equals [`NetStats::bytes`]).
    pub fn total_bytes(&self) -> u64 {
        self.rows.iter().map(|r| r.bytes).sum()
    }

    /// Folds the integer counters of each row that saw traffic into `d`,
    /// in table order, each row led by its op's label: an op that no run
    /// uses folds nothing, so adding or retiring one moves no digest. The
    /// RTT distributions are float aggregates and stay out (their count
    /// is in).
    pub fn digest_into(&self, d: &mut StateDigest) {
        let Self { rows } = self;
        for (op, row) in RpcOp::ALL.iter().zip(rows) {
            let OpStats {
                calls,
                messages,
                bytes,
                rtt,
            } = row;
            let counters = [*calls, *messages, *bytes, rtt.count()];
            if counters == [0; 4] {
                continue;
            }
            d.write_str(op.label());
            for v in counters {
                d.write_u64(v);
            }
        }
    }

    /// Merges another table into this one (replication merges).
    pub fn merge(&mut self, other: &RpcTable) {
        let Self { rows } = self;
        for (mine, theirs) in rows.iter_mut().zip(&other.rows) {
            let OpStats {
                calls,
                messages,
                bytes,
                rtt,
            } = theirs;
            mine.calls += calls;
            mine.messages += messages;
            mine.bytes += bytes;
            mine.rtt.merge(rtt);
        }
    }
}

/// Per-attempt hook every transport send passes through — the seam for
/// fault injection (drops, partitions, crashes) without touching call
/// sites. The policy rules on each attempt with a [`LinkVerdict`]; a retry
/// asks again at its own (later) simulated time, so time-windowed policies
/// see the clock advance. Tests substitute fakes through it.
pub trait LinkPolicy: std::fmt::Debug {
    /// Rules on one attempt of `op` at simulated time `now`. `to` is
    /// `None` for multicasts.
    fn verdict(&mut self, op: RpcOp, now: SimTime, from: HostId, to: Option<HostId>)
        -> LinkVerdict;
}

/// The default link policy: every attempt is delivered.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ideal;

impl LinkPolicy for Ideal {
    fn verdict(&mut self, _: RpcOp, _: SimTime, _: HostId, _: Option<HostId>) -> LinkVerdict {
        LinkVerdict::Deliver
    }
}

/// Aggregate traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Total messages of any kind put on the wire.
    pub messages: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// RPC round trips completed.
    pub rpcs: u64,
    /// Multicast datagrams sent.
    pub multicasts: u64,
}

/// The completion of a network operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the operation finished (reply received / last fragment landed).
    pub done: SimTime,
}

impl Delivery {
    /// The elapsed duration from `start` to completion.
    pub fn elapsed(self, start: SimTime) -> SimDuration {
        self.done.elapsed_since(start)
    }
}

/// The shared wire and the typed sends over it.
///
/// # Examples
///
/// ```
/// use sprite_net::{CostModel, HostId, RpcOp, Transport};
/// use sprite_sim::SimTime;
///
/// let mut net = Transport::new(CostModel::sun3(), 4);
/// let done = net.send(RpcOp::FsOpen, SimTime::ZERO, HostId::new(1), HostId::new(0), None)?;
/// // A small RPC takes ~2.6ms plus wire time for the payloads.
/// assert!(done.elapsed(SimTime::ZERO).as_micros() > 2_600);
/// let row = net.rpc_table().get(RpcOp::FsOpen);
/// assert_eq!((row.calls, row.messages), (1, 2));
/// assert_eq!(net.rpc_table().total_bytes(), net.stats().bytes);
/// # Ok::<(), sprite_net::RpcError>(())
/// ```
#[derive(Debug)]
pub struct Transport {
    cost: CostModel,
    wire: SlottedResource,
    stats: NetStats,
    sent_by_host: Vec<Counter>,
    table: RpcTable,
    faults: FaultStats,
    trace: Trace,
    policy: Box<dyn LinkPolicy>,
}

impl Transport {
    /// A transport over a fresh wire shared by `hosts` machines.
    pub fn new(cost: CostModel, hosts: usize) -> Self {
        Transport {
            cost,
            wire: SlottedResource::new(),
            stats: NetStats::default(),
            sent_by_host: vec![Counter::default(); hosts],
            table: RpcTable::new(),
            faults: FaultStats::new(),
            trace: Trace::disabled(),
            policy: Box::new(Ideal),
        }
    }

    /// Installs a link policy (replacing [`Ideal`]).
    pub fn set_policy(&mut self, policy: Box<dyn LinkPolicy>) {
        self.policy = policy;
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Number of attached hosts.
    pub fn host_count(&self) -> usize {
        self.sent_by_host.len()
    }

    /// Network-level traffic totals.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Messages sent by one host.
    pub fn sent_by(&self, host: HostId) -> u64 {
        self.sent_by_host[host.index()].get()
    }

    /// Resets the traffic counters, the per-op table *and* the fault table
    /// together, so every accounting view keeps matching [`NetStats`]
    /// across measurement phases. The wire's busy horizon is kept.
    pub fn reset_stats(&mut self) {
        self.stats = NetStats::default();
        for c in &mut self.sent_by_host {
            *c = Counter::default();
        }
        self.table = RpcTable::new();
        self.faults = FaultStats::new();
    }

    /// The per-op traffic table.
    pub fn rpc_table(&self) -> &RpcTable {
        &self.table
    }

    /// The per-op fault table (drops, partitions, crashes, retries).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.faults
    }

    /// Folds the transport's observable state into `d`: traffic totals,
    /// the wire's busy horizon, per-host send counters, the per-op RPC
    /// table and the per-op fault table.
    pub fn digest_into(&self, d: &mut StateDigest) {
        let Self {
            cost: _, // immutable latency/bandwidth constants
            wire,
            stats,
            sent_by_host,
            table,
            faults,
            trace: _,  // human-facing narration, not simulation state
            policy: _, // fault policy digests via the FaultStats it drives
        } = self;
        let NetStats {
            messages,
            bytes,
            rpcs,
            multicasts,
        } = *stats;
        for v in [messages, bytes, rpcs, multicasts] {
            d.write_u64(v);
        }
        d.write_u64(wire.horizon().as_micros());
        for c in sent_by_host {
            d.write_u64(c.get());
        }
        table.digest_into(d);
        faults.digest_into(d);
    }

    /// Starts recording an `"rpc"` narrative line per send, keeping the
    /// most recent `capacity` lines.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Trace::enabled(capacity);
    }

    /// The transport's trace log.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Puts one message of `bytes` from `from` on the shared wire at `now`
    /// (charged at least a control message); returns when it lands.
    fn put_on_wire(&mut self, now: SimTime, from: HostId, bytes: u64) -> SimTime {
        let occupancy = self.cost.wire_time(bytes.max(CONTROL_BYTES));
        let sent = self.wire.acquire(now, occupancy);
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        self.sent_by_host[from.index()].bump();
        sent + self.cost.message_latency
    }

    /// The one attempt loop behind every send. The policy rules on each
    /// attempt; on [`LinkVerdict::Deliver`], `charge` puts the send on the
    /// wire at the attempt's time and the send is tallied.
    ///
    /// A two-way send (`lost_request` is `Some(bytes)`) loses `bytes` on
    /// the wire per failed attempt and waits out [`RPC_TIMEOUT`]. A drop
    /// is retried after [`backoff_after`], up to [`MAX_SEND_ATTEMPTS`]
    /// attempts, then surfaces [`RpcError::Timeout`]; a partition or a
    /// crash fails at once, since retrying within the window is futile. A
    /// one-way send (`None`) charges its own frame as the lost attempt,
    /// is never retried, and fails when that frame lands.
    fn attempt(
        &mut self,
        op: RpcOp,
        now: SimTime,
        from: HostId,
        to: Option<HostId>,
        lost_request: Option<u64>,
        mut charge: impl FnMut(&mut Self, SimTime) -> SimTime,
    ) -> Result<Delivery, SendError> {
        let before = self.stats;
        let mut t = now;
        let mut attempts = 0;
        loop {
            attempts += 1;
            let verdict = self.policy.verdict(op, t, from, to);
            let row = self.faults.row_mut(op);
            let error: fn(RpcFailure) -> RpcError = match verdict {
                LinkVerdict::Deliver => {
                    let done = charge(self, t);
                    self.tally(op, now, before, done, from, to);
                    return Ok(Delivery { done });
                }
                LinkVerdict::Drop => {
                    row.drops += 1;
                    match lost_request {
                        Some(_) => RpcError::Timeout,
                        None => RpcError::Dropped,
                    }
                }
                LinkVerdict::Partitioned => {
                    row.partitions += 1;
                    RpcError::PartitionUnreachable
                }
                LinkVerdict::PeerCrashed => {
                    row.crashes += 1;
                    RpcError::PeerCrashed
                }
            };
            // The lost attempt still left the sender's interface.
            t = match lost_request {
                Some(bytes) => self.put_on_wire(t, from, bytes) + RPC_TIMEOUT,
                None => charge(self, t),
            };
            let retry = lost_request.is_some()
                && verdict == LinkVerdict::Drop
                && attempts < MAX_SEND_ATTEMPTS;
            if !retry {
                let err = error(RpcFailure {
                    op,
                    from,
                    to,
                    attempts,
                    at: t,
                });
                return Err(SendError(self.fail(err, before)));
            }
            self.faults.row_mut(op).retries += 1;
            t += backoff_after(attempts);
        }
    }

    fn tally(
        &mut self,
        op: RpcOp,
        start: SimTime,
        before: NetStats,
        done: SimTime,
        from: HostId,
        to: Option<HostId>,
    ) {
        let messages = self.stats.messages - before.messages;
        let bytes = self.stats.bytes - before.bytes;
        self.table
            .record(op, messages, bytes, done.elapsed_since(start));
        self.trace.record(done, "rpc", || match to {
            Some(to) => format!("{op} {from}->{to} {bytes}B in {messages} msg"),
            None => format!("{op} {from}->* {bytes}B in {messages} msg"),
        });
    }

    /// Books a failed send: folds the wire traffic its attempts charged into
    /// the op's table row (keeping totals == [`NetStats`]), counts the
    /// giveup, and records a `"fault"` trace line.
    fn fail(&mut self, err: RpcError, before: NetStats) -> RpcError {
        let fail = *err.failure();
        self.table.record_failure(
            fail.op,
            self.stats.messages - before.messages,
            self.stats.bytes - before.bytes,
        );
        self.faults.row_mut(fail.op).giveups += 1;
        self.trace.record(fail.at, "fault", || format!("{err}"));
        err
    }

    /// A typed RPC round trip using the op's canonical [`wire_size`].
    pub fn send(
        &mut self,
        op: RpcOp,
        now: SimTime,
        from: HostId,
        to: HostId,
        server_cpu: Option<&mut FcfsResource>,
    ) -> Result<Delivery, SendError> {
        let size = wire_size(op);
        debug_assert!(
            size.request > 0 && size.reply > 0,
            "{op} has no canonical round-trip size; use send_sized"
        );
        self.send_sized(
            op,
            now,
            from,
            to,
            size.request,
            size.reply,
            SimDuration::ZERO,
            server_cpu,
        )
    }

    /// A typed RPC round trip with caller-sized payloads — for ops whose
    /// payload varies (block writes, pseudo-device traffic, board pages).
    ///
    /// If `server_cpu` is supplied, the callee's processing queues on it,
    /// so a busy server delays the reply (this is how file-server
    /// saturation limits pmake speedup). `extra_service` is server time
    /// beyond the fixed RPC dispatch cost (a name lookup, a disk access).
    /// A lost attempt charges its request on the wire.
    #[expect(clippy::too_many_arguments)]
    pub fn send_sized(
        &mut self,
        op: RpcOp,
        now: SimTime,
        from: HostId,
        to: HostId,
        request_bytes: u64,
        reply_bytes: u64,
        extra_service: SimDuration,
        mut server_cpu: Option<&mut FcfsResource>,
    ) -> Result<Delivery, SendError> {
        debug_assert!(from != to, "RPC to self: {from} -> {to}");
        self.attempt(op, now, from, Some(to), Some(request_bytes), |t, at| {
            // Client marshals and transmits the request.
            let arrived = t.put_on_wire(at + t.cost.rpc_processing, from, request_bytes);
            // Server processes (possibly queued behind other work).
            let service = t.cost.rpc_processing + extra_service;
            let served = match server_cpu.as_deref_mut() {
                Some(cpu) => cpu.acquire(arrived, service),
                None => arrived + service,
            };
            // Server transmits the reply.
            let replied = t.put_on_wire(served, to, reply_bytes);
            t.stats.rpcs += 1;
            replied
        })
    }

    /// A typed bulk transfer through the fragmenting path; done when the
    /// single acknowledgement lands. A lost transfer charges its first
    /// fragment (up to one page) before the sender times out.
    pub fn stream_bulk(
        &mut self,
        op: RpcOp,
        now: SimTime,
        from: HostId,
        to: HostId,
        bytes: u64,
    ) -> Result<Delivery, SendError> {
        debug_assert!(from != to, "bulk transfer to self: {from} -> {to}");
        let first_fragment = bytes.clamp(CONTROL_BYTES, PAGE_SIZE);
        self.attempt(op, now, from, Some(to), Some(first_fragment), |t, at| {
            let mut clock = at;
            let mut remaining = bytes;
            for _ in 0..t.cost.fragments_for(bytes) {
                let chunk = remaining.min(t.cost.fragment_bytes);
                remaining -= chunk;
                clock = t.put_on_wire(clock + t.cost.fragment_overhead, from, chunk);
            }
            let acked = t.put_on_wire(clock, to, CONTROL_BYTES);
            t.stats.rpcs += 1;
            acked
        })
    }

    /// A typed one-way datagram (MOSIX-style load dissemination uses these
    /// rather than round trips). The sender is fire-and-forget: a lost
    /// message surfaces as [`RpcError::Dropped`] when its frame lands and
    /// the receiver simply never sees it (stale load boards fall out of
    /// exactly this).
    pub fn send_datagram(
        &mut self,
        op: RpcOp,
        now: SimTime,
        from: HostId,
        to: HostId,
        bytes: u64,
    ) -> Result<Delivery, SendError> {
        debug_assert!(from != to, "datagram to self: {from} -> {to}");
        self.attempt(op, now, from, Some(to), None, |t, at| {
            t.put_on_wire(at, from, bytes)
        })
    }

    /// A typed broadcast to every host: one wire occupancy reaches them
    /// all \[TL88\]. Fire-and-forget, like a datagram.
    pub fn send_multicast(
        &mut self,
        op: RpcOp,
        now: SimTime,
        from: HostId,
        bytes: u64,
    ) -> Result<Delivery, SendError> {
        self.attempt(op, now, from, None, None, |t, at| {
            t.stats.multicasts += 1;
            t.put_on_wire(at, from, bytes)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, FaultRow};

    fn t(hosts: usize) -> Transport {
        Transport::new(CostModel::sun3(), hosts)
    }

    fn a() -> HostId {
        HostId::new(0)
    }

    fn b() -> HostId {
        HostId::new(1)
    }

    /// Test-only unwrap: the policies in these tests are not supposed to
    /// surface failures unless the test says so.
    fn ok(d: Result<Delivery, SendError>) -> Delivery {
        match d {
            Ok(d) => d,
            Err(e) => panic!("unexpected rpc failure: {e}"),
        }
    }

    #[test]
    fn every_op_has_a_label_and_a_row() {
        let table = RpcTable::new();
        let mut labels: Vec<&str> = RpcOp::ALL.iter().map(|op| op.label()).collect();
        assert_eq!(labels.len(), RpcOp::ALL.len());
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), RpcOp::ALL.len(), "labels must be unique");
        for op in RpcOp::ALL {
            assert_eq!(table.get(op).calls, 0);
        }
        // Tables store rows by discriminant and report them in ALL order,
        // so the two orders must be the same.
        for (i, op) in RpcOp::ALL.iter().enumerate() {
            assert_eq!(*op as usize, i, "{op} is out of place in ALL");
        }
    }

    #[test]
    fn table_totals_equal_net_stats() {
        let mut x = t(4);
        let mut now = SimTime::ZERO;
        now = ok(x.send(RpcOp::MigrateNegotiate, now, a(), b(), None)).done;
        now = ok(x.stream_bulk(RpcOp::VmBulkImage, now, a(), b(), 300 * 1024)).done;
        now = ok(x.send_datagram(RpcOp::HostselReport, now, b(), a(), LOAD_REPORT_BYTES)).done;
        now = ok(x.send_multicast(RpcOp::HostselMulticast, now, a(), LOAD_REPORT_BYTES)).done;
        let _ = ok(x.send_sized(
            RpcOp::FsBlockWrite,
            now,
            a(),
            b(),
            4096 + CONTROL_BYTES,
            CONTROL_BYTES,
            SimDuration::ZERO,
            None,
        ));
        let s = x.stats();
        assert_eq!(x.rpc_table().total_messages(), s.messages);
        assert_eq!(x.rpc_table().total_bytes(), s.bytes);
        assert_eq!(x.rpc_table().total_calls(), 5);
        assert!(!x.rpc_table().is_empty());
    }

    #[test]
    fn only_rows_that_saw_traffic_fold_into_digests() {
        let empty = StateDigest::new().finish();
        let mut d = StateDigest::new();
        RpcTable::new().digest_into(&mut d);
        FaultStats::new().digest_into(&mut d);
        assert_eq!(d.finish(), empty);
        // A failed one-way send completes no call but still moved a frame.
        let mut x = t(2);
        x.set_policy(Box::new(FaultPlan::new(3, 1.0)));
        let _ = x.send_datagram(RpcOp::HostselReport, SimTime::ZERO, a(), b(), 96);
        assert_eq!(x.rpc_table().total_calls(), 0);
        let mut d = StateDigest::new();
        x.rpc_table().digest_into(&mut d);
        assert_ne!(d.finish(), empty);
        let mut d = StateDigest::new();
        x.fault_stats().digest_into(&mut d);
        assert_ne!(d.finish(), empty);
    }

    #[test]
    fn rtt_distribution_is_recorded() {
        let mut x = t(2);
        let d = ok(x.send(RpcOp::SignalForward, SimTime::ZERO, a(), b(), None));
        let row = x.rpc_table().get(RpcOp::SignalForward);
        assert_eq!(row.rtt.count(), 1);
        assert!((row.rtt.mean() - d.elapsed(SimTime::ZERO).as_secs_f64()).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_table_and_stats_together() {
        let mut x = t(2);
        ok(x.send(RpcOp::FsClose, SimTime::ZERO, a(), b(), None));
        x.reset_stats();
        assert_eq!(x.stats().messages, 0);
        assert_eq!(x.sent_by(a()), 0);
        assert!(x.rpc_table().is_empty());
        assert_eq!(x.rpc_table().total_bytes(), x.stats().bytes);
    }

    fn round_trip(x: &mut Transport, request: u64, reply: u64, service: SimDuration) -> Delivery {
        ok(x.send_sized(
            RpcOp::FsPseudo,
            SimTime::ZERO,
            a(),
            b(),
            request,
            reply,
            service,
            None,
        ))
    }

    #[test]
    fn round_trip_costs_the_published_rpc_plus_the_wire() {
        let mut x = t(2);
        let rtt = round_trip(&mut x, 64, 64, SimDuration::ZERO).elapsed(SimTime::ZERO);
        // 2.6ms fixed cost plus two minimum-size wire occupancies.
        let plain = SimDuration::from_micros(2_600) + x.cost().wire_time(64) * 2;
        assert_eq!(rtt, plain);
        // Zero-byte messages are charged the minimum frame.
        let empty = round_trip(&mut t(2), 0, 0, SimDuration::ZERO);
        assert_eq!(empty.elapsed(SimTime::ZERO), plain);
        // Server-side service time adds exactly.
        let served = round_trip(&mut t(2), 64, 64, SimDuration::from_millis(20));
        assert_eq!(
            served.elapsed(SimTime::ZERO),
            plain + SimDuration::from_millis(20)
        );

        let mut x = t(2);
        round_trip(&mut x, 100, 200, SimDuration::ZERO);
        let s = x.stats();
        assert_eq!((s.messages, s.bytes, s.rpcs), (2, 300, 1));
        assert_eq!((x.sent_by(a()), x.sent_by(b())), (1, 1));
    }

    #[test]
    fn busy_server_delays_reply() {
        let mut x = t(2);
        let mut cpu = FcfsResource::new();
        // Server busy for 50ms.
        cpu.acquire(SimTime::ZERO, SimDuration::from_millis(50));
        let d = ok(x.send(RpcOp::FsOpen, SimTime::ZERO, a(), b(), Some(&mut cpu)));
        assert!(d.done > SimTime::ZERO + SimDuration::from_millis(50));
    }

    #[test]
    fn bulk_transfers_scale_with_size_in_fragments() {
        let bulk = |bytes: u64| {
            let mut x = t(2);
            let d = ok(x.stream_bulk(RpcOp::VmBulkImage, SimTime::ZERO, a(), b(), bytes));
            // Fragments plus one acknowledgement.
            assert_eq!(x.stats().messages, x.cost().fragments_for(bytes) + 1);
            assert_eq!(x.stats().rpcs, 1);
            d.elapsed(SimTime::ZERO)
        };
        let one_mb = bulk(1 << 20);
        let four_mb = bulk(4 << 20);
        bulk(100 * 1024);
        // Four megabytes should take ~4x as long as one (within fixed costs).
        let ratio = four_mb.as_secs_f64() / one_mb.as_secs_f64();
        assert!(
            (3.5..4.5).contains(&ratio),
            "expected ~4x scaling, got {ratio}"
        );
        // And ~1MB at ~480KB/s is on the order of seconds, as the paper says.
        assert!(one_mb > SimDuration::from_secs(2));
        assert!(one_mb < SimDuration::from_secs(4));
    }

    #[test]
    fn concurrent_transfers_share_the_wire() {
        let solo = ok(t(2).stream_bulk(RpcOp::VmBulkImage, SimTime::ZERO, a(), b(), 1 << 20))
            .elapsed(SimTime::ZERO);
        // Two simultaneous 1MB transfers between disjoint host pairs.
        let mut x = t(3);
        let c = HostId::new(2);
        let d1 = ok(x.stream_bulk(RpcOp::VmBulkImage, SimTime::ZERO, a(), b(), 1 << 20));
        let d2 = ok(x.stream_bulk(RpcOp::VmBulkImage, SimTime::ZERO, c, b(), 1 << 20));
        let last = d1.done.max_of(d2.done).elapsed_since(SimTime::ZERO);
        assert!(
            last.as_secs_f64() > 1.8 * solo.as_secs_f64(),
            "shared wire should nearly double completion: solo={solo} both={last}"
        );
    }

    #[test]
    fn one_way_sends_put_one_message_on_the_wire() {
        let mut x = t(50);
        ok(x.send_multicast(RpcOp::HostselMulticast, SimTime::ZERO, HostId::new(7), 128));
        let s = x.stats();
        assert_eq!((s.messages, s.multicasts, s.rpcs), (1, 1, 0));

        let mut x = t(2);
        let one_way = ok(x.send_datagram(RpcOp::HostselReport, SimTime::ZERO, a(), b(), 96))
            .elapsed(SimTime::ZERO);
        assert_eq!((x.stats().messages, x.stats().rpcs), (1, 0));
        let rtt = round_trip(&mut t(2), 96, 64, SimDuration::ZERO).elapsed(SimTime::ZERO);
        assert!(one_way < rtt / 2, "one-way {one_way} vs round trip {rtt}");
    }

    #[test]
    fn per_host_send_counters_track_sources() {
        let mut x = t(3);
        let (c, d, e) = (HostId::new(0), HostId::new(1), HostId::new(2));
        ok(x.send_datagram(RpcOp::HostselReport, SimTime::ZERO, e, c, 64));
        ok(x.send_multicast(RpcOp::HostselMulticast, SimTime::ZERO, e, 64));
        ok(x.send(RpcOp::SignalForward, SimTime::ZERO, d, c, None));
        assert_eq!(x.sent_by(e), 2);
        assert_eq!(x.sent_by(d), 1);
        assert_eq!(x.sent_by(c), 1, "the RPC reply");
    }

    #[test]
    fn trace_records_rpc_lines() {
        let mut x = t(2);
        x.enable_trace(8);
        ok(x.send(RpcOp::MigrateCommit, SimTime::ZERO, a(), b(), None));
        let lines: Vec<String> = x.trace().entries().map(|e| e.to_string()).collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("rpc"), "{}", lines[0]);
        assert!(lines[0].contains("migrate-commit"), "{}", lines[0]);
    }

    #[test]
    fn merge_adds_counts_and_distributions() {
        let mut x = t(2);
        let mut y = t(2);
        ok(x.send(RpcOp::FsOpen, SimTime::ZERO, a(), b(), None));
        ok(y.send(RpcOp::FsOpen, SimTime::ZERO, a(), b(), None));
        ok(y.send(RpcOp::FsClose, SimTime::ZERO, a(), b(), None));
        let mut merged = x.rpc_table().clone();
        merged.merge(y.rpc_table());
        assert_eq!(merged.get(RpcOp::FsOpen).calls, 2);
        assert_eq!(merged.get(RpcOp::FsClose).calls, 1);
        assert_eq!(merged.get(RpcOp::FsOpen).rtt.count(), 2);
        assert_eq!(
            merged.total_messages(),
            x.stats().messages + y.stats().messages
        );
    }

    /// Drops the first `0.0` attempts of every send, then delivers — a
    /// deterministic way to exercise the retry path.
    #[derive(Debug)]
    struct DropFirst(u32);
    impl LinkPolicy for DropFirst {
        fn verdict(&mut self, _: RpcOp, _: SimTime, _: HostId, _: Option<HostId>) -> LinkVerdict {
            if self.0 > 0 {
                self.0 -= 1;
                LinkVerdict::Drop
            } else {
                LinkVerdict::Deliver
            }
        }
    }

    /// The send shapes of the shape × fault table. `Bulk` carries its
    /// payload so one row can exercise each end of the first-fragment
    /// clamp.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        Send,
        Sized,
        Bulk(u64),
        Datagram,
        Multicast,
    }

    const FROM: HostId = HostId::new(1);
    const TO: HostId = HostId::new(2);
    const START: SimTime = SimTime::from_micros(5_000);

    impl Shape {
        fn op(self) -> RpcOp {
            match self {
                Shape::Send => RpcOp::FsOpen,
                Shape::Sized => RpcOp::FsBlockWrite,
                Shape::Bulk(_) => RpcOp::VmBulkImage,
                Shape::Datagram => RpcOp::HostselReport,
                Shape::Multicast => RpcOp::HostselMulticast,
            }
        }

        fn drive(self, x: &mut Transport, now: SimTime) -> Result<Delivery, SendError> {
            let op = self.op();
            match self {
                Shape::Send => x.send(op, now, FROM, TO, None),
                Shape::Sized => x.send_sized(
                    op,
                    now,
                    FROM,
                    TO,
                    4096 + CONTROL_BYTES,
                    CONTROL_BYTES,
                    SimDuration::from_millis(1),
                    None,
                ),
                Shape::Bulk(bytes) => x.stream_bulk(op, now, FROM, TO, bytes),
                Shape::Datagram => x.send_datagram(op, now, FROM, TO, LOAD_REPORT_BYTES),
                Shape::Multicast => x.send_multicast(op, now, FROM, LOAD_REPORT_BYTES),
            }
        }

        /// What one lost attempt puts on the wire: a round trip's request,
        /// a bulk transfer's first fragment, a one-way's own frame.
        fn lost_bytes(self) -> u64 {
            match self {
                Shape::Send => wire_size(RpcOp::FsOpen).request,
                Shape::Sized => 4096 + CONTROL_BYTES,
                Shape::Bulk(bytes) => bytes.clamp(CONTROL_BYTES, PAGE_SIZE),
                Shape::Datagram | Shape::Multicast => LOAD_REPORT_BYTES,
            }
        }

        fn two_way(self) -> bool {
            matches!(self, Shape::Send | Shape::Sized | Shape::Bulk(_))
        }

        fn to(self) -> Option<HostId> {
            match self {
                Shape::Multicast => None,
                _ => Some(TO),
            }
        }
    }

    /// The faults of the table: one lost attempt, every attempt lost, a
    /// partition across the cut and a crashed peer. A multicast has no
    /// peer, so its partition isolates, and its crash kills, the sender.
    #[derive(Debug, Clone, Copy)]
    enum Fault {
        DropOnce,
        DropAll,
        Partition,
        Crash,
    }

    impl Fault {
        fn policy(self, shape: Shape) -> Box<dyn LinkPolicy> {
            let cut = shape.to().unwrap_or(FROM);
            let forever = SimTime::from_micros(u64::MAX);
            match self {
                Fault::DropOnce => Box::new(DropFirst(1)),
                Fault::DropAll => Box::new(FaultPlan::new(11, 1.0)),
                Fault::Partition => Box::new(FaultPlan::new(11, 0.0).with_partition(
                    vec![cut],
                    SimTime::ZERO,
                    forever,
                )),
                Fault::Crash => Box::new(FaultPlan::new(11, 0.0).with_crash(cut, SimTime::ZERO)),
            }
        }
    }

    /// Every send shape under every fault: the result or error (variant,
    /// attempts and the exact diagnosis time), the wire traffic the lost
    /// attempts charge, the fault row, and table totals equal to
    /// [`NetStats`]. The expected times come from charging the same lost
    /// frames as datagrams on a fresh [`Ideal`] transport.
    #[test]
    fn every_send_shape_under_every_fault() {
        let shapes = [
            Shape::Send,
            Shape::Sized,
            Shape::Bulk(100_000),
            Shape::Bulk(10),
            Shape::Datagram,
            Shape::Multicast,
        ];
        let faults = [
            Fault::DropOnce,
            Fault::DropAll,
            Fault::Partition,
            Fault::Crash,
        ];
        for shape in shapes {
            for fault in faults {
                let case = format!("{shape:?} under {fault:?}");
                let op = shape.op();
                let mut x = t(4);
                x.set_policy(fault.policy(shape));
                let got = shape.drive(&mut x, START);

                // Two-way sends retry drops; one-way sends lose their one
                // frame whatever the fault.
                let (lost, retried) = match (shape.two_way(), fault) {
                    (true, Fault::DropOnce) => (1, 1),
                    (true, Fault::DropAll) => (MAX_SEND_ATTEMPTS, MAX_SEND_ATTEMPTS - 1),
                    _ => (1, 0),
                };
                let mut reference = t(4);
                let mut at = START;
                for attempt in 1..=lost {
                    // A lost multicast frame times like a datagram to any peer.
                    at = ok(reference.send_datagram(op, at, FROM, TO, shape.lost_bytes())).done;
                    if shape.two_way() {
                        at += RPC_TIMEOUT;
                    }
                    if attempt <= retried {
                        at += backoff_after(attempt);
                    }
                }
                let failure = RpcFailure {
                    op,
                    from: FROM,
                    to: shape.to(),
                    attempts: lost,
                    at,
                };
                let want = match (shape.two_way(), fault) {
                    (true, Fault::DropOnce) => Ok(ok(shape.drive(&mut reference, at)).done),
                    (true, Fault::DropAll) => Err(RpcError::Timeout(failure)),
                    (false, Fault::DropOnce | Fault::DropAll) => Err(RpcError::Dropped(failure)),
                    (_, Fault::Partition) => Err(RpcError::PartitionUnreachable(failure)),
                    (_, Fault::Crash) => Err(RpcError::PeerCrashed(failure)),
                };
                let delivered = want.is_ok();
                assert_eq!(got.map(|d| d.done).map_err(RpcError::from), want, "{case}");

                // The losses, and the delivery if any, on the wire.
                let (s, r) = (x.stats(), reference.stats());
                assert_eq!((s.messages, s.bytes), (r.messages, r.bytes), "{case}");
                assert_eq!(x.rpc_table().total_messages(), s.messages, "{case}");
                assert_eq!(x.rpc_table().total_bytes(), s.bytes, "{case}");
                assert_eq!(x.rpc_table().get(op).calls, u64::from(delivered), "{case}");

                let lost = u64::from(lost);
                let row = FaultRow {
                    drops: match fault {
                        Fault::DropOnce | Fault::DropAll => lost,
                        _ => 0,
                    },
                    partitions: u64::from(matches!(fault, Fault::Partition)),
                    crashes: u64::from(matches!(fault, Fault::Crash)),
                    retries: u64::from(retried),
                    giveups: u64::from(!delivered),
                };
                assert_eq!(*x.fault_stats().get(op), row, "{case}");
                assert_eq!(x.fault_stats().rows().count(), 1, "{case}");
            }
        }
    }

    #[test]
    fn same_fault_seed_replays_identically() {
        let drive = |seed: u64| {
            let mut x = t(4);
            x.set_policy(Box::new(FaultPlan::new(seed, 0.4)));
            let mut now = SimTime::ZERO;
            let mut outcomes = Vec::new();
            for i in 0..40 {
                let to = HostId::new(1 + i % 3);
                match x.send(RpcOp::FsOpen, now, a(), to, None) {
                    Ok(d) => {
                        now = d.done;
                        outcomes.push(Ok(d.done));
                    }
                    Err(e) => {
                        now = e.at();
                        outcomes.push(Err(*e));
                    }
                }
            }
            (outcomes, x.fault_stats().clone(), x.stats())
        };
        let (o1, f1, s1) = drive(77);
        let (o2, f2, s2) = drive(77);
        assert_eq!(o1, o2);
        assert_eq!(f1, f2);
        assert_eq!(s1, s2);
        let (o3, f3, _) = drive(78);
        assert!(o1 != o3 || f1 != f3, "different seed, different schedule");
    }

    #[test]
    fn reset_clears_fault_stats_with_the_rest() {
        let mut x = t(2);
        x.set_policy(Box::new(FaultPlan::new(5, 1.0)));
        let _ = x.send(RpcOp::FsClose, SimTime::ZERO, a(), b(), None);
        assert!(!x.fault_stats().is_empty());
        x.reset_stats();
        assert!(x.fault_stats().is_empty());
        assert_eq!(x.rpc_table().total_bytes(), x.stats().bytes);
    }

    #[test]
    fn wire_size_table_is_consistent() {
        for op in RpcOp::ALL {
            let s = wire_size(op);
            // Fixed-size payloads are at least a control message; 0 marks
            // caller-sized or one-way halves.
            if s.request > 0 {
                assert!(s.request >= CONTROL_BYTES, "{op}");
            }
            if s.reply > 0 {
                assert!(s.reply >= CONTROL_BYTES, "{op}");
            }
        }
        assert_eq!(wire_size(RpcOp::FsBlockRead).reply, PAGE_REPLY_BYTES);
        assert_eq!(wire_size(RpcOp::HostselReport).request, LOAD_REPORT_BYTES);
        // Gossip is caller-sized (header + entries); a daemon query is a
        // normal handle-sized round trip.
        assert_eq!(
            wire_size(RpcOp::HostselGossip),
            WireSize {
                request: 0,
                reply: 0
            }
        );
        assert_eq!(wire_size(RpcOp::HostselQuery).reply, HANDLE_BYTES);
        const { assert!(GOSSIP_ENTRY_BYTES < CONTROL_BYTES) };
    }

    const HOSTS: usize = 6;

    /// Drives one op through the typed transport twice (idle then busy wire)
    /// and returns both completion times. Panics on a fault because every
    /// policy in this suite is supposed to deliver.
    fn drive_typed(typed: &mut Transport, op: RpcOp, starts: [SimTime; 2]) -> Vec<SimTime> {
        let from = HostId::new(1);
        let to = HostId::new(2);
        let ws = wire_size(op);
        let mut done = Vec::new();
        for now in starts {
            let d = if op == RpcOp::HostselMulticast {
                typed.send_multicast(op, now, from, ws.request)
            } else if op == RpcOp::FsPseudo {
                // Fully caller-sized request/reply exchange.
                typed.send_sized(
                    op,
                    now,
                    from,
                    to,
                    3_000,
                    2_000,
                    SimDuration::from_millis(2),
                    None,
                )
            } else if ws.reply == 0 {
                // One-way load reports and replies.
                typed.send_datagram(op, now, from, to, ws.request)
            } else if op == RpcOp::MigrateState || op == RpcOp::VmBulkImage {
                // Fragmented bulk transfers (caller-sized).
                typed.stream_bulk(op, now, from, to, 100_000)
            } else if ws.request == 0 {
                // Caller-sized request with a typed control reply.
                typed.send_sized(
                    op,
                    now,
                    from,
                    to,
                    5_000,
                    ws.reply,
                    SimDuration::from_millis(1),
                    None,
                )
            } else {
                typed.send(op, now, from, to, None)
            };
            match d {
                Ok(d) => done.push(d.done),
                Err(e) => panic!("{op}: unexpected fault {e}"),
            }
        }
        done
    }

    /// The zero-fault regression gate: a [`FaultPlan`] with rate 0 must
    /// charge completion times identical to [`Ideal`] for every op, record
    /// zero fault events, and keep identical traffic counters — which is
    /// what keeps the golden `experiments_output.txt` byte-stable under
    /// `--faults SEED:0`.
    #[test]
    fn drop_policy_at_rate_zero_matches_ideal_per_op() {
        let starts = [
            SimTime::ZERO + SimDuration::from_millis(5),
            SimTime::ZERO + SimDuration::from_millis(6),
        ];
        for op in RpcOp::ALL {
            let mut ideal = Transport::new(CostModel::sun3(), HOSTS);
            let mut faultless = Transport::new(CostModel::sun3(), HOSTS);
            faultless.set_policy(Box::new(FaultPlan::new(0xfa17, 0.0)));
            let a = drive_typed(&mut ideal, op, starts);
            let b = drive_typed(&mut faultless, op, starts);
            assert_eq!(a, b, "{op}: rate-0 drop policy changed completion times");
            assert_eq!(
                ideal.stats(),
                faultless.stats(),
                "{op}: rate-0 drop policy changed traffic counters"
            );
            assert!(
                faultless.fault_stats().is_empty(),
                "{op}: rate-0 drop policy recorded fault events"
            );
        }
    }
}
