//! Fault injection for the typed RPC transport.
//!
//! Sprite's migration mechanism earned its keep on a live cluster where the
//! shared Ethernet dropped packets and hosts crashed mid-protocol. The paper's
//! fault model (Ch. 3.6, and the fail-stop recovery treatment Powell &
//! Presotto pioneered in DEMOS/MP) prescribes three behaviours this module
//! makes testable:
//!
//! * an RPC that gets no reply is *retried* with a bounded exponential
//!   backoff, then surfaced as [`RpcError::Timeout`] — never a hang;
//! * a host behind a partition is unreachable for the duration of the
//!   window ([`RpcError::PartitionUnreachable`]);
//! * a crashed peer is detected by timeout and reported as
//!   [`RpcError::PeerCrashed`] so the kernel can run its kill/abort paths.
//!
//! [`FaultPlan`] is the one fault policy: random drops at a rate, partition
//! windows and fail-stop crashes. Its drops come from the in-repo
//! deterministic [`DetRng`], so **a fault schedule is a seed**: replaying
//! the same seed reproduces the same drops and outcomes byte-for-byte, on
//! any `--jobs` value. All timeout and backoff waiting is charged through
//! the *simulated* clock, so fault runs stay exactly as deterministic as
//! ideal ones.

use sprite_sim::{DetRng, SimDuration, SimTime, StateDigest};

use crate::{HostId, RpcOp};

/// How long a sender waits for a reply before declaring one attempt lost.
///
/// Sprite's RPC layer used fragment-level retransmission timers in the
/// hundreds of milliseconds on the 10 Mbit Ethernet; one named constant keeps
/// every retry path honest about the wait it charges to the simulated clock.
pub const RPC_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// First backoff step after a lost attempt; doubles per retry.
pub const RETRY_BACKOFF_BASE: SimDuration = SimDuration::from_millis(100);

/// Ceiling on any single backoff step (bounds the exponential growth).
pub const RETRY_BACKOFF_CAP: SimDuration = SimDuration::from_secs(2);

/// Attempts per round trip before the transport gives up with
/// [`RpcError::Timeout`]. At a 10% drop rate the residual failure
/// probability per call is 10^-5.
pub const MAX_SEND_ATTEMPTS: u32 = 5;

/// Backoff charged after the `attempt`-th lost try (1-based): the base
/// doubles each retry and is capped at [`RETRY_BACKOFF_CAP`].
pub fn backoff_after(attempt: u32) -> SimDuration {
    let doubled = RETRY_BACKOFF_BASE * (1u64 << (attempt - 1).min(16));
    doubled.min(RETRY_BACKOFF_CAP)
}

/// A [`LinkPolicy`](crate::LinkPolicy)'s ruling on one send attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkVerdict {
    /// Deliver the message.
    Deliver,
    /// The message is lost on the wire; the sender times out and may retry.
    Drop,
    /// Sender and receiver are on opposite sides of a partition; retrying
    /// within the window is futile.
    Partitioned,
    /// The receiving host has crashed; detected by timeout, never retried.
    PeerCrashed,
}

/// Everything a failed send knows about itself: enough to log, count, and —
/// crucially for a simulated clock — to keep charging time from `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcFailure {
    /// The operation that failed.
    pub op: RpcOp,
    /// Sending host.
    pub from: HostId,
    /// Receiving host (`None` for multicasts).
    pub to: Option<HostId>,
    /// Send attempts charged before giving up.
    pub attempts: u32,
    /// Simulated time at which the failure was diagnosed; callers resume
    /// their clock here.
    pub at: SimTime,
}

/// Why a transport send failed. Each variant carries an [`RpcFailure`] so
/// recovery code can keep the simulated clock moving from the diagnosis time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// All [`MAX_SEND_ATTEMPTS`] tries were lost; the peer may be fine.
    Timeout(RpcFailure),
    /// A one-way datagram or multicast was lost (no retry for one-ways: the
    /// sender never learns, the receiver simply misses the update).
    Dropped(RpcFailure),
    /// The peer is behind a network partition for the current window.
    PartitionUnreachable(RpcFailure),
    /// The peer host has crashed (fail-stop).
    PeerCrashed(RpcFailure),
}

impl RpcError {
    /// The failure record common to every variant.
    pub fn failure(&self) -> &RpcFailure {
        match self {
            RpcError::Timeout(f)
            | RpcError::Dropped(f)
            | RpcError::PartitionUnreachable(f)
            | RpcError::PeerCrashed(f) => f,
        }
    }

    /// Simulated time at which the failure was diagnosed.
    pub fn at(&self) -> SimTime {
        self.failure().at
    }

    /// The operation that failed.
    pub fn op(&self) -> RpcOp {
        self.failure().op
    }

    /// True for failures worth retrying at a higher level (lost messages);
    /// false for partitions and crashes, where retrying is futile until the
    /// topology changes.
    pub fn is_transient(&self) -> bool {
        matches!(self, RpcError::Timeout(_) | RpcError::Dropped(_))
    }

    fn kind(&self) -> &'static str {
        match self {
            RpcError::Timeout(_) => "timeout",
            RpcError::Dropped(_) => "dropped",
            RpcError::PartitionUnreachable(_) => "partitioned",
            RpcError::PeerCrashed(_) => "peer-crashed",
        }
    }
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fail = self.failure();
        match fail.to {
            Some(to) => write!(
                f,
                "{} {} {}->{} after {} attempt(s) at {}",
                self.kind(),
                fail.op,
                fail.from,
                to,
                fail.attempts,
                fail.at
            ),
            None => write!(
                f,
                "{} {} {}->* after {} attempt(s) at {}",
                self.kind(),
                fail.op,
                fail.from,
                fail.attempts,
                fail.at
            ),
        }
    }
}

impl std::error::Error for RpcError {}

/// The error a [`Transport`](crate::Transport) send returns: an
/// [`RpcError`] that deliberately does not implement `Debug`.
///
/// `Result::unwrap` and `Result::expect` need `E: Debug`, so a send whose
/// result is unwrapped does not compile: an injected fault must take the
/// Ch-3.6 recovery path, never panic the simulation. `?` converts it into
/// [`RpcError`] and the error enums built on it, and `Deref` and `Display`
/// keep `e.at()` and `{e}` working.
///
/// Propagating a failed send compiles:
///
/// ```
/// use sprite_net::{CostModel, HostId, RpcOp, Transport};
/// use sprite_sim::SimTime;
///
/// let mut net = Transport::new(CostModel::sun3(), 2);
/// let (a, b) = (HostId::new(0), HostId::new(1));
/// let done = net.send(RpcOp::FsOpen, SimTime::ZERO, a, b, None)?.done;
/// # let _ = done;
/// # Ok::<(), sprite_net::RpcError>(())
/// ```
///
/// Unwrapping one does not:
///
/// ```compile_fail,E0277
/// use sprite_net::{CostModel, HostId, RpcOp, Transport};
/// use sprite_sim::SimTime;
///
/// let mut net = Transport::new(CostModel::sun3(), 2);
/// let (a, b) = (HostId::new(0), HostId::new(1));
/// let done = net.send(RpcOp::FsOpen, SimTime::ZERO, a, b, None).unwrap().done;
/// # let _ = done;
/// # Ok::<(), sprite_net::RpcError>(())
/// ```
///
/// ```compile_fail,E0277
/// use sprite_net::{CostModel, HostId, RpcOp, Transport};
/// use sprite_sim::SimTime;
///
/// let mut net = Transport::new(CostModel::sun3(), 2);
/// let (a, b) = (HostId::new(0), HostId::new(1));
/// let done = net.send(RpcOp::FsOpen, SimTime::ZERO, a, b, None).expect("open").done;
/// # let _ = done;
/// # Ok::<(), sprite_net::RpcError>(())
/// ```
pub struct SendError(pub(crate) RpcError);

impl std::ops::Deref for SendError {
    type Target = RpcError;

    fn deref(&self) -> &RpcError {
        &self.0
    }
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl From<SendError> for RpcError {
    fn from(e: SendError) -> Self {
        e.0
    }
}

/// Result alias for fallible transport sends.
pub type RpcResult<T> = Result<T, RpcError>;

/// Per-op fault counters accumulated by a [`Transport`](crate::Transport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultRow {
    /// Attempts lost on the wire.
    pub drops: u64,
    /// Attempts refused because a partition separated the endpoints.
    pub partitions: u64,
    /// Attempts refused because the peer had crashed.
    pub crashes: u64,
    /// Retries performed after a lost attempt.
    pub retries: u64,
    /// Sends that exhausted every attempt and surfaced an error.
    pub giveups: u64,
}

impl FaultRow {
    fn is_empty(&self) -> bool {
        *self == FaultRow::default()
    }
}

/// The per-operation fault table: one [`FaultRow`] per [`RpcOp`], sitting
/// alongside [`RpcTable`](crate::RpcTable). Derives `PartialEq` so replay
/// tests can assert that two runs of the same fault seed saw the exact same
/// schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultStats {
    rows: Vec<FaultRow>,
}

impl Default for FaultStats {
    fn default() -> Self {
        FaultStats {
            rows: vec![FaultRow::default(); RpcOp::ALL.len()],
        }
    }
}

impl FaultStats {
    /// An empty table.
    pub fn new() -> Self {
        FaultStats::default()
    }

    /// The row for one op.
    pub fn get(&self, op: RpcOp) -> &FaultRow {
        &self.rows[op.index()]
    }

    /// Ops that saw at least one fault event, in table order.
    pub fn rows(&self) -> impl Iterator<Item = (RpcOp, &FaultRow)> {
        RpcOp::ALL
            .iter()
            .map(|op| (*op, &self.rows[op.index()]))
            .filter(|(_, row)| !row.is_empty())
    }

    /// True if no fault event was recorded.
    pub fn is_empty(&self) -> bool {
        self.rows().next().is_none()
    }

    /// Total lost attempts across all ops.
    pub fn total_drops(&self) -> u64 {
        self.rows.iter().map(|r| r.drops).sum()
    }

    /// Total retries across all ops.
    pub fn total_retries(&self) -> u64 {
        self.rows.iter().map(|r| r.retries).sum()
    }

    /// Total surfaced errors across all ops.
    pub fn total_giveups(&self) -> u64 {
        self.rows.iter().map(|r| r.giveups).sum()
    }

    /// Folds the counters of each row that saw a fault event into `d`, in
    /// table order, each row led by its op's label, so ops without faults
    /// fold nothing.
    pub fn digest_into(&self, d: &mut StateDigest) {
        let Self { rows } = self;
        for (op, row) in RpcOp::ALL.iter().zip(rows) {
            let FaultRow {
                drops,
                partitions,
                crashes,
                retries,
                giveups,
            } = *row;
            let counters = [drops, partitions, crashes, retries, giveups];
            if counters == [0; 5] {
                continue;
            }
            d.write_str(op.label());
            for v in counters {
                d.write_u64(v);
            }
        }
    }

    /// Merges another table into this one (parallel experiment merges).
    pub fn merge(&mut self, other: &FaultStats) {
        let Self { rows } = self;
        for (mine, theirs) in rows.iter_mut().zip(&other.rows) {
            let FaultRow {
                drops,
                partitions,
                crashes,
                retries,
                giveups,
            } = *theirs;
            mine.drops += drops;
            mine.partitions += partitions;
            mine.crashes += crashes;
            mine.retries += retries;
            mine.giveups += giveups;
        }
    }

    pub(crate) fn row_mut(&mut self, op: RpcOp) -> &mut FaultRow {
        &mut self.rows[op.index()]
    }
}

/// A window during which `island` is cut off from every other host.
#[derive(Debug)]
struct Partition {
    island: Vec<HostId>,
    from: SimTime,
    until: SimTime,
}

impl Partition {
    fn severed(&self, now: SimTime, from: HostId, to: Option<HostId>) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        let isolated = |host: HostId| self.island.binary_search(&host).is_ok();
        match to {
            // Unicast is cut iff the endpoints sit on opposite sides.
            Some(to) => isolated(from) != isolated(to),
            // A multicast from an isolated host cannot reach the majority.
            None => isolated(from),
        }
    }
}

/// The fault policy behind the F1 fault sweep of `experiments` and the
/// chaos suite: random message loss at `rate`, plus optional partition windows
/// and fail-stop host crashes. Checked in severity order — a crashed peer
/// reads as crashed even during a partition. At `rate` 0 with no windows
/// or crashes it delivers everything, so timing is identical to
/// [`Ideal`](crate::Ideal); the zero-fault regression gate depends on this.
#[derive(Debug)]
pub struct FaultPlan {
    rng: DetRng,
    rate: f64,
    partitions: Vec<Partition>,
    /// Each host's crash instant, sorted by host.
    crashes: Vec<(HostId, SimTime)>,
}

impl FaultPlan {
    /// Random message loss at `rate`, scheduled by `seed`; no partitions or
    /// crashes until added.
    pub fn new(seed: u64, rate: f64) -> Self {
        FaultPlan {
            rng: DetRng::seed_from(seed),
            rate,
            partitions: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Adds a partition window isolating `island` during `[from, until)`:
    /// messages crossing the cut are refused with
    /// [`LinkVerdict::Partitioned`]; traffic within either side flows.
    pub fn with_partition(
        mut self,
        mut island: Vec<HostId>,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        island.sort_unstable();
        island.dedup();
        self.partitions.push(Partition {
            island,
            from,
            until,
        });
        self
    }

    /// Adds a fail-stop crash of `host` at `at`: from then on the host
    /// neither receives nor sends. A host crashes once, at its earliest
    /// scheduled instant.
    pub fn with_crash(mut self, host: HostId, at: SimTime) -> Self {
        self.crashes.push((host, at));
        self.crashes.sort_unstable_by_key(|(h, t)| (*h, *t));
        self.crashes.dedup_by_key(|(h, _)| *h);
        self
    }

    /// The scheduled crashes, sorted by host, so the driving experiment can
    /// apply kernel-side crash semantics (`Cluster::crash_host`) at the
    /// same simulated instants.
    pub fn crashes(&self) -> &[(HostId, SimTime)] {
        &self.crashes
    }

    fn crashed(&self, host: HostId, now: SimTime) -> bool {
        self.crashes
            .binary_search_by_key(&host, |(h, _)| *h)
            .is_ok_and(|i| now >= self.crashes[i].1)
    }
}

impl crate::LinkPolicy for FaultPlan {
    fn verdict(
        &mut self,
        _op: RpcOp,
        now: SimTime,
        from: HostId,
        to: Option<HostId>,
    ) -> LinkVerdict {
        if self.crashed(from, now) || to.is_some_and(|to| self.crashed(to, now)) {
            return LinkVerdict::PeerCrashed;
        }
        if self.partitions.iter().any(|p| p.severed(now, from, to)) {
            return LinkVerdict::Partitioned;
        }
        if self.rng.chance(self.rate) {
            LinkVerdict::Drop
        } else {
            LinkVerdict::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkPolicy;

    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_after(1), RETRY_BACKOFF_BASE);
        assert_eq!(backoff_after(2), RETRY_BACKOFF_BASE * 2);
        assert_eq!(backoff_after(3), RETRY_BACKOFF_BASE * 4);
        assert_eq!(backoff_after(12), RETRY_BACKOFF_CAP);
        assert_eq!(backoff_after(40), RETRY_BACKOFF_CAP);
    }

    fn verdict(p: &mut FaultPlan, now: SimTime, from: u32, to: u32) -> LinkVerdict {
        p.verdict(RpcOp::FsOpen, now, h(from), Some(h(to)))
    }

    #[test]
    fn fault_plan_rate_zero_never_drops() {
        let mut p = FaultPlan::new(7, 0.0);
        for _ in 0..1000 {
            assert_eq!(verdict(&mut p, SimTime::ZERO, 0, 1), LinkVerdict::Deliver);
        }
    }

    #[test]
    fn fault_plan_is_replayable_from_its_seed() {
        let mut a = FaultPlan::new(42, 0.3);
        let mut b = FaultPlan::new(42, 0.3);
        for _ in 0..500 {
            assert_eq!(
                verdict(&mut a, SimTime::ZERO, 0, 1),
                verdict(&mut b, SimTime::ZERO, 0, 1)
            );
        }
    }

    #[test]
    fn partition_cuts_only_across_the_island_boundary() {
        let w0 = SimTime::from_micros(1_000);
        let w1 = SimTime::from_micros(2_000);
        let mut p = FaultPlan::new(1, 0.0).with_partition(vec![h(3), h(2), h(3)], w0, w1);
        let inside = SimTime::from_micros(1_500);
        // Across the cut, both directions.
        assert_eq!(verdict(&mut p, inside, 0, 2), LinkVerdict::Partitioned);
        assert_eq!(verdict(&mut p, inside, 3, 1), LinkVerdict::Partitioned);
        // Within one side.
        assert_eq!(verdict(&mut p, inside, 2, 3), LinkVerdict::Deliver);
        assert_eq!(verdict(&mut p, inside, 0, 1), LinkVerdict::Deliver);
        // Outside the window everything flows.
        assert_eq!(verdict(&mut p, SimTime::ZERO, 0, 2), LinkVerdict::Deliver);
        assert_eq!(verdict(&mut p, w1, 0, 2), LinkVerdict::Deliver);
        // A multicast is cut only when its sender is on the island.
        assert_eq!(
            p.verdict(RpcOp::HostselMulticast, inside, h(2), None),
            LinkVerdict::Partitioned
        );
        assert_eq!(
            p.verdict(RpcOp::HostselMulticast, inside, h(0), None),
            LinkVerdict::Deliver
        );
    }

    #[test]
    fn crashes_are_fail_stop_from_the_crash_instant() {
        let t = SimTime::from_micros(5_000);
        let later = SimTime::from_micros(9_000);
        let mut c = FaultPlan::new(1, 0.0)
            .with_crash(h(4), later)
            .with_crash(h(1), later)
            .with_crash(h(1), t);
        // Sorted by host; a host crashes at its earliest instant.
        assert_eq!(c.crashes(), &[(h(1), t), (h(4), later)]);
        assert_eq!(verdict(&mut c, SimTime::ZERO, 0, 1), LinkVerdict::Deliver);
        assert_eq!(verdict(&mut c, t, 0, 1), LinkVerdict::PeerCrashed);
        // The dead host cannot send either.
        assert_eq!(verdict(&mut c, t, 1, 0), LinkVerdict::PeerCrashed);
        assert_eq!(
            c.verdict(RpcOp::HostselMulticast, t, h(1), None),
            LinkVerdict::PeerCrashed
        );
        assert_eq!(verdict(&mut c, t, 0, 4), LinkVerdict::Deliver);
    }

    #[test]
    fn fault_plan_checks_crash_then_partition_then_drop() {
        let t = SimTime::from_micros(1_000);
        let mut plan = FaultPlan::new(9, 1.0)
            .with_partition(vec![h(2)], SimTime::ZERO, SimTime::from_micros(10_000))
            .with_crash(h(3), SimTime::ZERO);
        assert_eq!(verdict(&mut plan, t, 0, 3), LinkVerdict::PeerCrashed);
        assert_eq!(verdict(&mut plan, t, 0, 2), LinkVerdict::Partitioned);
        // rate 1.0: everything else drops.
        assert_eq!(verdict(&mut plan, t, 0, 1), LinkVerdict::Drop);
    }

    #[test]
    fn fault_stats_merge_and_rows_filter() {
        let mut a = FaultStats::new();
        let mut b = FaultStats::new();
        a.row_mut(RpcOp::FsOpen).drops = 2;
        b.row_mut(RpcOp::FsOpen).drops = 1;
        b.row_mut(RpcOp::SignalForward).retries = 4;
        a.merge(&b);
        assert_eq!(a.get(RpcOp::FsOpen).drops, 3);
        assert_eq!(a.get(RpcOp::SignalForward).retries, 4);
        assert_eq!(a.rows().count(), 2);
        assert_eq!(a.total_drops(), 3);
        assert!(!a.is_empty());
        assert!(FaultStats::new().is_empty());
    }
}
