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
//! Every policy here draws from the in-repo deterministic [`DetRng`], so **a
//! fault schedule is a seed**: replaying the same seed reproduces the same
//! drops, delays and outcomes byte-for-byte, on any `--jobs` value. All
//! timeout and backoff waiting is charged through the *simulated* clock, so
//! fault runs stay exactly as deterministic as ideal ones.

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
    /// Deliver the message after the given extra injected latency.
    Deliver(SimDuration),
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
    /// Attempts lost on the wire (each charged a timeout).
    pub drops: u64,
    /// Sends that reached the peer but with injected extra latency.
    pub delays: u64,
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

    /// Folds every row's counters into `d`, in table order.
    pub fn digest_into(&self, d: &mut StateDigest) {
        let Self { rows } = self;
        for row in rows {
            let FaultRow {
                drops,
                delays,
                partitions,
                crashes,
                retries,
                giveups,
            } = *row;
            for v in [drops, delays, partitions, crashes, retries, giveups] {
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
                delays,
                partitions,
                crashes,
                retries,
                giveups,
            } = *theirs;
            mine.drops += drops;
            mine.delays += delays;
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

/// Injects jittered extra latency on every message, dropping nothing — the
/// "slow but healthy" network.
#[derive(Debug)]
pub struct DelayPolicy {
    rng: DetRng,
    mean: SimDuration,
    sigma: SimDuration,
}

impl DelayPolicy {
    /// Latency with the given mean and jitter, scheduled by `seed`.
    pub fn new(seed: u64, mean: SimDuration, sigma: SimDuration) -> Self {
        DelayPolicy {
            rng: DetRng::seed_from(seed),
            mean,
            sigma,
        }
    }
}

impl crate::LinkPolicy for DelayPolicy {
    fn verdict(
        &mut self,
        _op: RpcOp,
        _now: SimTime,
        _from: HostId,
        _to: Option<HostId>,
        _bytes: u64,
    ) -> LinkVerdict {
        LinkVerdict::Deliver(self.rng.jittered(self.mean, self.sigma))
    }
}

/// Loses each message independently with probability `rate`. At `rate` 0 the
/// policy never drops and adds zero delay, so timing is identical to
/// [`Ideal`](crate::Ideal) — the zero-fault regression gate depends on this.
#[derive(Debug)]
pub struct DropPolicy {
    rng: DetRng,
    rate: f64,
}

impl DropPolicy {
    /// Drop each message with probability `rate`, scheduled by `seed`.
    pub fn new(seed: u64, rate: f64) -> Self {
        DropPolicy {
            rng: DetRng::seed_from(seed),
            rate,
        }
    }
}

impl crate::LinkPolicy for DropPolicy {
    fn verdict(
        &mut self,
        _op: RpcOp,
        _now: SimTime,
        _from: HostId,
        _to: Option<HostId>,
        _bytes: u64,
    ) -> LinkVerdict {
        if self.rng.chance(self.rate) {
            LinkVerdict::Drop
        } else {
            LinkVerdict::Deliver(SimDuration::ZERO)
        }
    }
}

/// Cuts an island of hosts off from the rest of the cluster for one time
/// window. Messages crossing the cut during `[from, until)` are refused with
/// [`LinkVerdict::Partitioned`]; traffic within either side flows normally.
#[derive(Debug)]
pub struct PartitionPolicy {
    island: Vec<HostId>,
    from: SimTime,
    until: SimTime,
}

impl PartitionPolicy {
    /// Isolates `island` from every other host during `[from, until)`.
    pub fn new(mut island: Vec<HostId>, from: SimTime, until: SimTime) -> Self {
        island.sort_unstable();
        island.dedup();
        PartitionPolicy {
            island,
            from,
            until,
        }
    }

    fn isolated(&self, host: HostId) -> bool {
        self.island.binary_search(&host).is_ok()
    }

    fn active(&self, now: SimTime) -> bool {
        now >= self.from && now < self.until
    }

    fn severed(&self, now: SimTime, from: HostId, to: Option<HostId>) -> bool {
        if !self.active(now) {
            return false;
        }
        match to {
            // Unicast is cut iff the endpoints sit on opposite sides.
            Some(to) => self.isolated(from) != self.isolated(to),
            // A multicast from an isolated host cannot reach the majority.
            None => self.isolated(from),
        }
    }
}

impl crate::LinkPolicy for PartitionPolicy {
    fn verdict(
        &mut self,
        _op: RpcOp,
        now: SimTime,
        from: HostId,
        to: Option<HostId>,
        _bytes: u64,
    ) -> LinkVerdict {
        if self.severed(now, from, to) {
            LinkVerdict::Partitioned
        } else {
            LinkVerdict::Deliver(SimDuration::ZERO)
        }
    }
}

/// Fail-stop crash times per host: from its crash instant on, a host neither
/// receives nor sends. The schedule is plain data, so an experiment can apply
/// the matching kernel-side cleanup (`Cluster::crash_host`) at the same time.
#[derive(Debug, Clone)]
pub struct CrashSchedule {
    crashes: Vec<(HostId, SimTime)>,
}

impl CrashSchedule {
    /// Hosts and the times at which they fail-stop.
    pub fn new(mut crashes: Vec<(HostId, SimTime)>) -> Self {
        crashes.sort_unstable_by_key(|(h, t)| (*h, *t));
        crashes.dedup_by_key(|(h, _)| *h);
        CrashSchedule { crashes }
    }

    /// True if `host` has crashed by `now`.
    pub fn crashed(&self, host: HostId, now: SimTime) -> bool {
        self.crashes
            .binary_search_by_key(&host, |(h, _)| *h)
            .map(|i| now >= self.crashes[i].1)
            .unwrap_or(false)
    }

    /// The scheduled crashes, sorted by host.
    pub fn entries(&self) -> &[(HostId, SimTime)] {
        &self.crashes
    }
}

impl crate::LinkPolicy for CrashSchedule {
    fn verdict(
        &mut self,
        _op: RpcOp,
        now: SimTime,
        from: HostId,
        to: Option<HostId>,
        _bytes: u64,
    ) -> LinkVerdict {
        let dead_end = match to {
            Some(to) => self.crashed(to, now) || self.crashed(from, now),
            None => self.crashed(from, now),
        };
        if dead_end {
            LinkVerdict::PeerCrashed
        } else {
            LinkVerdict::Deliver(SimDuration::ZERO)
        }
    }
}

/// The composite policy behind `experiments --faults seed:rate`: random drops
/// at `rate`, plus optional partition windows and host crashes. Checked in
/// severity order — a crashed peer reads as crashed even during a partition.
#[derive(Debug)]
pub struct FaultPlan {
    rng: DetRng,
    rate: f64,
    partitions: Vec<PartitionPolicy>,
    crashes: CrashSchedule,
}

impl FaultPlan {
    /// Random message loss at `rate`, scheduled by `seed`; no partitions or
    /// crashes until added.
    pub fn new(seed: u64, rate: f64) -> Self {
        FaultPlan {
            rng: DetRng::seed_from(seed),
            rate,
            partitions: Vec::new(),
            crashes: CrashSchedule::new(Vec::new()),
        }
    }

    /// Adds a partition window isolating `island` during `[from, until)`.
    pub fn with_partition(mut self, island: Vec<HostId>, from: SimTime, until: SimTime) -> Self {
        self.partitions
            .push(PartitionPolicy::new(island, from, until));
        self
    }

    /// Adds a fail-stop crash of `host` at `at`.
    pub fn with_crash(mut self, host: HostId, at: SimTime) -> Self {
        let mut entries = self.crashes.entries().to_vec();
        entries.push((host, at));
        self.crashes = CrashSchedule::new(entries);
        self
    }

    /// The crash schedule, so the driving experiment can apply kernel-side
    /// crash semantics at the same simulated instants.
    pub fn crash_schedule(&self) -> &CrashSchedule {
        &self.crashes
    }
}

impl crate::LinkPolicy for FaultPlan {
    fn verdict(
        &mut self,
        op: RpcOp,
        now: SimTime,
        from: HostId,
        to: Option<HostId>,
        bytes: u64,
    ) -> LinkVerdict {
        let _ = (op, bytes);
        let dead = match to {
            Some(to) => self.crashes.crashed(to, now) || self.crashes.crashed(from, now),
            None => self.crashes.crashed(from, now),
        };
        if dead {
            return LinkVerdict::PeerCrashed;
        }
        if self.partitions.iter().any(|p| p.severed(now, from, to)) {
            return LinkVerdict::Partitioned;
        }
        if self.rng.chance(self.rate) {
            LinkVerdict::Drop
        } else {
            LinkVerdict::Deliver(SimDuration::ZERO)
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

    #[test]
    fn drop_policy_rate_zero_never_drops() {
        let mut p = DropPolicy::new(7, 0.0);
        for _ in 0..1000 {
            assert_eq!(
                p.verdict(RpcOp::FsOpen, SimTime::ZERO, h(0), Some(h(1)), 64),
                LinkVerdict::Deliver(SimDuration::ZERO)
            );
        }
    }

    #[test]
    fn drop_policy_is_replayable_from_its_seed() {
        let mut a = DropPolicy::new(42, 0.3);
        let mut b = DropPolicy::new(42, 0.3);
        for _ in 0..500 {
            assert_eq!(
                a.verdict(RpcOp::FsOpen, SimTime::ZERO, h(0), Some(h(1)), 64),
                b.verdict(RpcOp::FsOpen, SimTime::ZERO, h(0), Some(h(1)), 64)
            );
        }
    }

    #[test]
    fn partition_cuts_only_across_the_island_boundary() {
        let w0 = SimTime::from_micros(1_000);
        let w1 = SimTime::from_micros(2_000);
        let mut p = PartitionPolicy::new(vec![h(2), h(3)], w0, w1);
        let inside = SimTime::from_micros(1_500);
        // Across the cut, both directions.
        assert_eq!(
            p.verdict(RpcOp::FsOpen, inside, h(0), Some(h(2)), 64),
            LinkVerdict::Partitioned
        );
        assert_eq!(
            p.verdict(RpcOp::FsOpen, inside, h(3), Some(h(1)), 64),
            LinkVerdict::Partitioned
        );
        // Within one side.
        assert_eq!(
            p.verdict(RpcOp::FsOpen, inside, h(2), Some(h(3)), 64),
            LinkVerdict::Deliver(SimDuration::ZERO)
        );
        assert_eq!(
            p.verdict(RpcOp::FsOpen, inside, h(0), Some(h(1)), 64),
            LinkVerdict::Deliver(SimDuration::ZERO)
        );
        // Outside the window everything flows.
        assert_eq!(
            p.verdict(RpcOp::FsOpen, SimTime::ZERO, h(0), Some(h(2)), 64),
            LinkVerdict::Deliver(SimDuration::ZERO)
        );
        assert_eq!(
            p.verdict(RpcOp::FsOpen, w1, h(0), Some(h(2)), 64),
            LinkVerdict::Deliver(SimDuration::ZERO)
        );
    }

    #[test]
    fn crash_schedule_is_fail_stop_from_the_crash_instant() {
        let t = SimTime::from_micros(5_000);
        let mut c = CrashSchedule::new(vec![(h(1), t)]);
        assert_eq!(
            c.verdict(RpcOp::FsOpen, SimTime::ZERO, h(0), Some(h(1)), 64),
            LinkVerdict::Deliver(SimDuration::ZERO)
        );
        assert_eq!(
            c.verdict(RpcOp::FsOpen, t, h(0), Some(h(1)), 64),
            LinkVerdict::PeerCrashed
        );
        // The dead host cannot send either.
        assert_eq!(
            c.verdict(RpcOp::FsOpen, t, h(1), Some(h(0)), 64),
            LinkVerdict::PeerCrashed
        );
        assert!(c.crashed(h(1), t));
        assert!(!c.crashed(h(0), t));
    }

    #[test]
    fn fault_plan_checks_crash_then_partition_then_drop() {
        let t = SimTime::from_micros(1_000);
        let mut plan = FaultPlan::new(9, 1.0)
            .with_partition(vec![h(2)], SimTime::ZERO, SimTime::from_micros(10_000))
            .with_crash(h(3), SimTime::ZERO);
        assert_eq!(
            plan.verdict(RpcOp::FsOpen, t, h(0), Some(h(3)), 64),
            LinkVerdict::PeerCrashed
        );
        assert_eq!(
            plan.verdict(RpcOp::FsOpen, t, h(0), Some(h(2)), 64),
            LinkVerdict::Partitioned
        );
        // rate 1.0: everything else drops.
        assert_eq!(
            plan.verdict(RpcOp::FsOpen, t, h(0), Some(h(1)), 64),
            LinkVerdict::Drop
        );
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
