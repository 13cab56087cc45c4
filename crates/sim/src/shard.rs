//! Conservative parallel discrete-event simulation: shard the cluster,
//! keep the digest stream byte-identical.
//!
//! The serial [`crate::Engine`] runs one event at a time over shared state;
//! month-long cluster runs at 5-10k hosts want the cores we have. This
//! module is a **conservative PDES** engine in the Chandy–Misra tradition:
//! the cluster is partitioned into *cells* (one per host), cells are
//! assigned to *shards* by `cell_id % nshards`, each shard owns its own
//! calendar queue, and shards advance in lockstep through **time windows**
//! of length `lookahead` — the minimum cross-shard link latency. Inside a
//! window a shard executes its own events without any coordination; every
//! message a cell sends carries a latency of at least `lookahead`, so a
//! message sent in window *k* can only be delivered in window *k+1* or
//! later. At the end of each window the workers meet at a barrier, and
//! each then merges the messages addressed to its own shards into their
//! queues.
//!
//! # Why the digest stream cannot depend on the shard count
//!
//! Determinism is not tested into this engine, it is an invariant of its
//! construction:
//!
//! * **Cells are isolated.** A cell's state is touched only by its own
//!   timers and by messages addressed to it; there is no shared state
//!   between cells. A handler arms timers only on its own cell and sends
//!   only into later windows, so no cell can observe how *different*
//!   cells' events at one timestamp interleave.
//! * **Per-cell event order is push order.** Each shard's calendar pops
//!   in `(time, push order)`, the serial [`crate::Engine`]'s rule too.
//!   Restricted to one cell, push order is the order of that cell's own
//!   pushes: its timers as its handlers arm them, and after each window
//!   the deliveries addressed to it. Neither depends on the other cells of
//!   its shard, so the cell's events run in the same order under every
//!   partition; only the interleaving with other cells' events moves.
//! * **The merge is sorted.** After each barrier the receiving worker
//!   sorts the mail bound for its shards by `(deliver_time, sender,
//!   position in the sender's outbox)` and pushes it in that order. The
//!   outbox position breaks ties among one sender's messages only, where
//!   it is send order, so the deliveries to any given cell are pushed in
//!   the same order whichever shards the senders lived on.
//! * **Windows are global.** The next window starts at the globally
//!   earliest pending event, the minimum of every worker's proposal, so the
//!   sequence of window times — and with it the checkpoint stream — is a
//!   pure function of the workload.
//!
//! Digest checkpoints ([`Checkpoint`]) are sampled every N windows by
//! folding every cell's [`Cell::digest_into`] contribution **in cell-ID
//! order**, which makes the stream byte-identical for any shard count *and*
//! any worker-thread count: shards are a logical partition, threads merely
//! execute them. `--shards 4` on a single-core box produces the exact bytes
//! `--shards 4` produces on a 64-core box.
//!
//! # Threads
//!
//! This is the one place in the workspace that spawns threads, and they are
//! invisible to results. Worker `w` owns shards `w, w+W, …`; worker 0 is
//! the calling thread, so one worker spawns no thread and never waits.
//! Each window a worker executes its shards, posts their mail and its
//! proposal for the next window to one slot per receiver (two sets of
//! slots, by window parity), waits at one [`std::sync::Barrier`], and
//! merges its own mail. Only audit windows add a second wait, around
//! worker 0's digest fold. Wall time enters only through the clock
//! injected with [`ShardedEngine::set_stall_clock`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

use crate::calendar::{Calendar, Pop};
use crate::digest::{Checkpoint, StateDigest};
use crate::stats::EngineCounters;
use crate::{SimDuration, SimTime};

/// Identifies a cell (in the cluster model: a host). Cells are numbered
/// `0..ncells`; cell `i` lives on shard `i % nshards`.
pub type CellId = u32;

/// A partitioned simulation actor: one independently evolving unit of
/// state (a host, in the cluster model). Cells interact **only** through
/// messages routed across barrier windows; the engine guarantees a cell is
/// touched by exactly one thread at a time, and that its event order is
/// independent of the shard and worker counts.
pub trait Cell: Send {
    /// The message type cells exchange.
    type Msg: Send;

    /// A timer the cell armed (via [`CellCtx::timer_at`]) has fired.
    fn on_timer(&mut self, now: SimTime, token: u64, ctx: &mut CellCtx<'_, Self::Msg>);

    /// A message from another cell has been delivered.
    fn on_message(
        &mut self,
        now: SimTime,
        from: CellId,
        msg: Self::Msg,
        ctx: &mut CellCtx<'_, Self::Msg>,
    );

    /// Folds the cell's observable state into the audit digest. Called in
    /// cell-ID order at every checkpoint window.
    fn digest_into(&self, d: &mut StateDigest);
}

/// What a cell may do while handling an event: read the clock, arm timers
/// on itself, and send messages to other cells.
pub struct CellCtx<'a, M> {
    now: SimTime,
    me: CellId,
    ncells: u32,
    lookahead: SimDuration,
    /// The executing shard's queue and its effort counters.
    queue: &'a mut Calendar<ShardEvent<M>>,
    counters: &'a mut EngineCounters,
    timers_set: &'a mut u64,
    out: &'a mut Vec<OutMsg<M>>,
}

impl<M> CellCtx<'_, M> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The executing cell's own ID.
    pub fn me(&self) -> CellId {
        self.me
    }

    /// The number of cells in the simulation.
    pub fn ncells(&self) -> u32 {
        self.ncells
    }

    /// The engine's lookahead: the minimum latency of any cross-cell send.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Arms a timer on this cell at absolute time `at`. Timers are local:
    /// they may land inside the current window.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn timer_at(&mut self, at: SimTime, token: u64) {
        assert!(at >= self.now, "cannot arm a timer in the past");
        *self.timers_set += 1;
        let ev = ShardEvent {
            cell: self.me,
            kind: EventKind::Timer(token),
        };
        self.queue.push(at.as_micros(), ev, self.counters);
    }

    /// Sends `msg` to cell `to` with the minimum (lookahead) latency; it is
    /// delivered at `now + lookahead`, i.e. in the next barrier window.
    pub fn send(&mut self, to: CellId, msg: M) {
        self.send_latency(to, self.lookahead, msg);
    }

    /// Sends `msg` to cell `to`, delivered at `now + latency`.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is below the engine lookahead (the message would
    /// have to be delivered inside the current window, which would make the
    /// schedule depend on the partition) or if `to` is out of range.
    pub fn send_latency(&mut self, to: CellId, latency: SimDuration, msg: M) {
        assert!(
            latency >= self.lookahead,
            "cross-cell latency {latency} below the lookahead bound {}",
            self.lookahead
        );
        assert!(to < self.ncells, "send to cell {to} out of range");
        self.out.push(OutMsg {
            deliver_at: (self.now + latency).as_micros(),
            from: self.me,
            posted: self.out.len(),
            to,
            msg,
        });
    }
}

/// A message waiting for the receiving worker's merge.
struct OutMsg<M> {
    deliver_at: u64,
    from: CellId,
    /// Its index in the sending shard's outbox, which is drained every
    /// window: among one sender's messages of a window, send order.
    posted: usize,
    to: CellId,
    msg: M,
}

enum EventKind<M> {
    Timer(u64),
    Msg { from: CellId, msg: M },
}

/// One queued event: the cell it runs on and what it carries.
struct ShardEvent<M> {
    cell: CellId,
    kind: EventKind<M>,
}

/// Per-shard effort counters, reported by the m02 macrobench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Shard index.
    pub shard: usize,
    /// Cells assigned to this shard.
    pub cells: usize,
    /// Events (timers + deliveries) executed.
    pub events: u64,
    /// Timers armed by this shard's cells.
    pub timers_set: u64,
    /// Messages sent by this shard's cells.
    pub messages_sent: u64,
    /// Messages delivered into this shard at barriers.
    pub messages_in: u64,
    /// The part of `messages_in` sent by cells on other shards.
    pub cross_in: u64,
}

/// Per-worker wall time, split by window phase. All zero unless a stall
/// clock was injected with [`ShardedEngine::set_stall_clock`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Worker index (worker `w` owns shards `w, w+workers, …`).
    pub worker: usize,
    /// Nanoseconds executing the worker's shards and posting their mail.
    pub execute_ns: u64,
    /// Nanoseconds merging the worker's mail (and worker 0's audit folds).
    pub merge_ns: u64,
    /// Nanoseconds spent waiting at window barriers.
    pub stall_ns: u64,
}

struct Shard<C: Cell> {
    nshards: usize,
    ncells: u32,
    cells: Vec<C>,
    queue: Calendar<ShardEvent<C::Msg>>,
    outbox: Vec<OutMsg<C::Msg>>,
    counters: ShardCounters,
    engine_counters: EngineCounters,
}

impl<C: Cell> Shard<C> {
    /// Executes every local event strictly before `t_end_us`; returns the
    /// time of the earliest event left queued, if any.
    fn execute_window(&mut self, t_end_us: u64, lookahead: SimDuration) -> Option<u64> {
        let deadline = t_end_us - 1;
        loop {
            let (at, ev) = match self
                .queue
                .pop_due(Some(deadline), &mut self.engine_counters)
            {
                Pop::Event(at, ev) => (at, ev),
                Pop::Parked(at) => return Some(at),
                Pop::Empty => return None,
            };
            self.engine_counters.events_executed += 1;
            self.counters.events += 1;
            let now = SimTime::from_micros(at);
            let cell = &mut self.cells[ev.cell as usize / self.nshards];
            let mut ctx = CellCtx {
                now,
                me: ev.cell,
                ncells: self.ncells,
                lookahead,
                queue: &mut self.queue,
                counters: &mut self.engine_counters,
                timers_set: &mut self.counters.timers_set,
                out: &mut self.outbox,
            };
            match ev.kind {
                EventKind::Timer(token) => cell.on_timer(now, token, &mut ctx),
                EventKind::Msg { from, msg } => cell.on_message(now, from, msg, &mut ctx),
            }
        }
    }

    /// Moves the window's outgoing messages into `out`, the sending
    /// worker's slot for each receiving worker, and returns their earliest
    /// delivery time.
    fn post(&mut self, out: &mut [MutexGuard<'_, Mail<C::Msg>>]) -> Option<u64> {
        self.counters.messages_sent += self.outbox.len() as u64;
        let earliest = self.outbox.iter().map(|m| m.deliver_at).min();
        if let [only] = out {
            only.msgs.append(&mut self.outbox);
        } else {
            for m in self.outbox.drain(..) {
                out[m.to as usize % self.nshards % out.len()].msgs.push(m);
            }
        }
        earliest
    }

    /// The time of the earliest queued event; readies it to pop.
    fn next_time(&mut self) -> Option<u64> {
        self.queue.next_time(&mut self.engine_counters)
    }

    /// Queues a delivery to one of this shard's cells.
    fn deliver(&mut self, m: OutMsg<C::Msg>) {
        self.counters.messages_in += 1;
        self.counters.cross_in += u64::from(m.from as usize % self.nshards != self.counters.shard);
        let ev = ShardEvent {
            cell: m.to,
            kind: EventKind::Msg {
                from: m.from,
                msg: m.msg,
            },
        };
        self.queue.push(m.deliver_at, ev, &mut self.engine_counters);
    }
}

/// The injected wall-clock for the per-worker time split: returns
/// monotonic nanoseconds. Supplied by the bench harness; simulation
/// results never depend on it.
pub type StallClock = Arc<dyn Fn() -> u64 + Send + Sync>;

/// The messages one worker's cells sent to another worker's cells in one
/// window, with the sender's proposal for the next window: the earliest
/// time its shards still hold or just sent (`u64::MAX` for none).
struct Mail<M> {
    msgs: Vec<OutMsg<M>>,
    next: u64,
}

const POISONED: &str = "a worker thread panicked";

/// Locks a mutex the workers share.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect(POISONED)
}

/// What the workers of one run share.
struct Exchange<C: Cell> {
    /// Worker `w` owns shards `w, w+W, …`.
    shards: Vec<Mutex<Shard<C>>>,
    /// `mail[parity][from * W + to]`, one set per window parity.
    mail: [Vec<Mutex<Mail<C::Msg>>>; 2],
    barrier: Barrier,
    arrived: AtomicUsize,
    workers: usize,
    lookahead: SimDuration,
    horizon_us: u64,
    audit_every: u64,
    clock: Option<StallClock>,
}

impl<C: Cell> Exchange<C> {
    /// Waits for every other worker; a lone worker never waits. The
    /// workers of a window usually arrive microseconds apart, sooner than
    /// a blocked thread wakes, so each first spins until all have arrived
    /// (the count only ends the spin; the barrier orders the mail).
    fn wait(&self) {
        if self.workers > 1 {
            let arrival = self.arrived.fetch_add(1, Ordering::Relaxed) + 1;
            let all = arrival.next_multiple_of(self.workers);
            for _ in 0..1 << 11 {
                if self.arrived.load(Ordering::Relaxed) >= all {
                    break;
                }
                std::hint::spin_loop();
            }
            self.barrier.wait();
        }
    }

    /// Folds every cell's digest in cell-ID order. Only worker 0 calls
    /// this, while every other worker waits at the barrier.
    fn checkpoint(&self, at_us: u64) -> Checkpoint {
        let shards: Vec<_> = self.shards.iter().map(lock).collect();
        let mut d = StateDigest::new();
        for id in 0..shards[0].ncells as usize {
            shards[id % shards.len()].cells[id / shards.len()].digest_into(&mut d);
        }
        Checkpoint {
            events: shards.iter().map(|s| s.counters.events).sum(),
            at: SimTime::from_micros(at_us),
            digest: d.finish(),
        }
    }

    /// Runs one worker's side of every window, the first starting at
    /// `t_min`, until the horizon or until every queue is dry, booking its
    /// time split into `counters`. Returns the window count at the end and
    /// the audit checkpoints it folded (worker 0's only).
    fn work(
        &self,
        counters: &mut WorkerCounters,
        mut t_min: u64,
        mut windows: u64,
    ) -> (u64, Vec<Checkpoint>) {
        let (w, workers, nshards) = (counters.worker, self.workers, self.shards.len());
        let now = || self.clock.as_ref().map_or(0, |c| c());
        let mut last = now();
        let mut lap = |phase: &mut u64| {
            let t = now();
            *phase += t.saturating_sub(last);
            last = t;
        };
        let own = || self.shards.iter().skip(w).step_by(workers).map(lock);
        let mut audit = Vec::new();
        let mut outgoing = Vec::with_capacity(workers);
        let mut mine = Vec::with_capacity(nshards.div_ceil(workers));
        loop {
            let t_end_us = t_min
                .saturating_add(self.lookahead.as_micros())
                .min(self.horizon_us);
            let parity = (windows % 2) as usize;
            windows += 1;
            // Receivers read this parity's slots before the last barrier
            // and read them next after this window's.
            let slots = &self.mail[parity][w * workers..(w + 1) * workers];
            outgoing.extend(slots.iter().map(lock));
            let mut next = u64::MAX;
            for mut shard in own() {
                let parked = shard.execute_window(t_end_us, self.lookahead);
                let sent = shard.post(&mut outgoing);
                next = [parked, sent].into_iter().flatten().fold(next, u64::min);
            }
            for mut mail in outgoing.drain(..) {
                mail.next = next;
            }
            lap(&mut counters.execute_ns);
            self.wait();
            lap(&mut counters.stall_ns);
            if self.audit_every != 0 && windows.is_multiple_of(self.audit_every) {
                if w == 0 {
                    audit.push(self.checkpoint(t_end_us));
                    lap(&mut counters.merge_ns);
                }
                self.wait();
                lap(&mut counters.stall_ns);
            }
            // Worker 0's slot to this worker gathers all of its mail.
            let mut incoming = self.mail[parity].iter().skip(w).step_by(workers).map(lock);
            let mut inbox = incoming.next().expect("at least one worker");
            t_min = inbox.next;
            for mut mail in incoming {
                t_min = t_min.min(mail.next);
                inbox.msgs.append(&mut mail.msgs);
            }
            // `posted` only orders one sender's messages, in send order, so
            // deliveries to any cell land in the same order for every
            // partition. A stable sort on the first two fields would drop
            // `posted`, but it allocates a buffer every window.
            inbox
                .msgs
                .sort_unstable_by_key(|m| (m.deliver_at, m.from, m.posted));
            mine.extend(own());
            for m in inbox.msgs.drain(..) {
                debug_assert!(m.deliver_at >= t_end_us, "delivery inside its own window");
                mine[m.to as usize % nshards / workers].deliver(m);
            }
            // Execute, push merged mail, then ready the next head: the same
            // calendar calls in the same order at every worker count.
            for shard in &mut mine {
                shard.next_time();
            }
            mine.clear();
            lap(&mut counters.merge_ns);
            if t_min >= self.horizon_us {
                return (windows, audit);
            }
        }
    }
}

/// The sharded conservative-parallel engine.
///
/// Shards are a *logical* partition: `--shards 4` with one worker thread
/// runs the same windows, the same merges, and produces the same digest
/// stream as `--shards 4` with four workers. Construct with [`Self::new`],
/// seed initial timers with [`Self::seed_timer`], then [`Self::run`].
pub struct ShardedEngine<C: Cell> {
    shards: Vec<Shard<C>>,
    ncells: u32,
    nshards: usize,
    lookahead: SimDuration,
    workers: usize,
    audit_every: u64,
    clock: Option<StallClock>,
    audit_stream: Vec<Checkpoint>,
    windows: u64,
    worker_stalls: Vec<WorkerCounters>,
    /// The latest horizon passed to [`Self::run`]: every event before it
    /// has run.
    ran_to: SimTime,
}

impl<C: Cell> ShardedEngine<C> {
    /// Partitions `cells` (cell `i` gets ID `i`) across `nshards` shards
    /// with the given lookahead bound.
    ///
    /// # Panics
    ///
    /// Panics if `nshards` is zero or `lookahead` is zero.
    pub fn new(cells: Vec<C>, nshards: usize, lookahead: SimDuration) -> Self {
        assert!(nshards >= 1, "need at least one shard");
        assert!(!lookahead.is_zero(), "lookahead must be positive");
        let ncells = u32::try_from(cells.len()).expect("cell count fits in u32");
        let mut shards: Vec<Shard<C>> = (0..nshards)
            .map(|index| Shard {
                nshards,
                ncells,
                cells: Vec::with_capacity(cells.len() / nshards + 1),
                queue: Calendar::new(),
                outbox: Vec::new(),
                counters: ShardCounters {
                    shard: index,
                    ..ShardCounters::default()
                },
                engine_counters: EngineCounters::default(),
            })
            .collect();
        for (id, cell) in cells.into_iter().enumerate() {
            shards[id % nshards].cells.push(cell);
        }
        for s in &mut shards {
            s.counters.cells = s.cells.len();
        }
        ShardedEngine {
            shards,
            ncells,
            nshards,
            lookahead,
            workers: 1,
            audit_every: 0,
            clock: None,
            audit_stream: Vec::new(),
            windows: 0,
            worker_stalls: Vec::new(),
            ran_to: SimTime::ZERO,
        }
    }

    /// Sets the worker-thread count: `0` auto-detects the machine's
    /// parallelism. Workers are capped at the shard count. The digest
    /// stream never depends on this value.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers;
    }

    /// Samples a digest [`Checkpoint`] every `every` barrier windows
    /// (`0` disables auditing).
    pub fn audit_every_windows(&mut self, every: u64) {
        self.audit_every = every;
    }

    /// Injects a monotonic nanosecond clock for the per-worker time split.
    /// Without one, every [`WorkerCounters`] time stays zero.
    pub fn set_stall_clock(&mut self, clock: StallClock) {
        self.clock = Some(clock);
    }

    /// Arms a timer on `cell` from outside the run: before the first
    /// [`Self::run`] or between runs, at or after the horizon the last run
    /// reached. Seeds on one cell at one time fire in the order they were
    /// made; the order of seeds on different cells is unobservable.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range or `at` lies before the horizon of
    /// an earlier run, where the cell may already have run later events.
    pub fn seed_timer(&mut self, cell: CellId, at: SimTime, token: u64) {
        assert!(cell < self.ncells, "seed_timer: cell {cell} out of range");
        assert!(
            at >= self.ran_to,
            "seed_timer: {at} is before the engine's horizon {}",
            self.ran_to
        );
        let shard = &mut self.shards[cell as usize % self.nshards];
        shard.counters.timers_set += 1;
        let ev = ShardEvent {
            cell,
            kind: EventKind::Timer(token),
        };
        shard
            .queue
            .push(at.as_micros(), ev, &mut shard.engine_counters);
    }

    fn effective_workers(&self) -> usize {
        let auto = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        };
        auto.clamp(1, self.nshards)
    }

    /// Runs the simulation to `horizon` (events at or after it stay
    /// queued). Call it again with a later horizon to continue: the window
    /// count, the audit cadence and the digest stream carry across calls,
    /// so runs split where no window spans the split audit like one run.
    pub fn run(&mut self, horizon: SimTime) {
        self.ran_to = self.ran_to.max_of(horizon);
        let workers = self.effective_workers();
        self.worker_stalls = vec![WorkerCounters::default(); workers];
        for (worker, counters) in self.worker_stalls.iter_mut().enumerate() {
            counters.worker = worker;
        }
        // Each window's merge readies every queue's head for the next
        // window; the first window needs the same.
        let t_min = self.shards.iter_mut().filter_map(Shard::next_time).min();
        let horizon_us = horizon.as_micros();
        let Some(t_min) = t_min.filter(|&t| t < horizon_us) else {
            return;
        };
        let slots = || {
            (0..workers * workers)
                .map(|_| {
                    Mutex::new(Mail {
                        msgs: Vec::new(),
                        next: u64::MAX,
                    })
                })
                .collect()
        };
        let exchange = Exchange {
            shards: self.shards.drain(..).map(Mutex::new).collect(),
            mail: [slots(), slots()],
            barrier: Barrier::new(workers),
            arrived: AtomicUsize::new(0),
            workers,
            lookahead: self.lookahead,
            horizon_us,
            audit_every: self.audit_every,
            clock: self.clock.clone(),
        };
        let start = self.windows;
        let (lead, rest) = self.worker_stalls.split_first_mut().expect("a worker");
        let (windows, mut audit) = std::thread::scope(|scope| {
            let x = &exchange;
            for counters in rest {
                scope.spawn(move || x.work(counters, t_min, start));
            }
            x.work(lead, t_min, start)
        });
        self.windows = windows;
        self.audit_stream.append(&mut audit);
        self.shards = exchange
            .shards
            .into_iter()
            .map(|s| s.into_inner().expect(POISONED))
            .collect();
    }

    /// The accumulated digest checkpoint stream (empty unless
    /// [`Self::audit_every_windows`] armed it).
    pub fn audit_stream(&self) -> &[Checkpoint] {
        &self.audit_stream
    }

    /// Takes the digest stream, leaving it empty.
    pub fn take_audit_stream(&mut self) -> Vec<Checkpoint> {
        std::mem::take(&mut self.audit_stream)
    }

    /// Barrier windows executed.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Total events executed across all shards.
    pub fn events_executed(&self) -> u64 {
        self.shards.iter().map(|s| s.counters.events).sum()
    }

    /// Messages delivered through barrier merges.
    pub fn messages_delivered(&self) -> u64 {
        self.shards.iter().map(|s| s.counters.messages_in).sum()
    }

    /// Messages whose sender and receiver lived on different shards.
    pub fn cross_shard_messages(&self) -> u64 {
        self.shards.iter().map(|s| s.counters.cross_in).sum()
    }

    /// The shard count.
    pub fn nshards(&self) -> usize {
        self.nshards
    }

    /// The lookahead bound.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Per-shard counters, in shard order.
    pub fn shard_counters(&self) -> Vec<ShardCounters> {
        self.shards.iter().map(|s| s.counters).collect()
    }

    /// Per-worker time split from the last run, in worker order.
    pub fn worker_stalls(&self) -> &[WorkerCounters] {
        &self.worker_stalls
    }

    /// Summed calendar-queue effort counters across shards.
    pub fn queue_counters(&self) -> EngineCounters {
        let mut total = EngineCounters::default();
        for s in &self.shards {
            total.merge(&s.engine_counters);
        }
        total
    }

    /// The cells, in cell-ID order.
    pub fn cells(&self) -> impl Iterator<Item = &C> + '_ {
        (0..self.ncells).map(move |id| self.cell(id))
    }

    /// One cell by ID.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cell(&self, id: CellId) -> &C {
        assert!(id < self.ncells, "cell {id} out of range");
        &self.shards[id as usize % self.nshards].cells[id as usize / self.nshards]
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    use super::*;
    use crate::DetRng;

    /// A ping-pong lattice cell: ticks with a per-cell period, every third
    /// tick sends to the right neighbour, folds everything it sees into a
    /// running hash.
    struct Ping {
        id: u32,
        n: u32,
        period_us: u64,
        horizon_us: u64,
        ticks: u64,
        received: u64,
        acc: u64,
    }

    impl Cell for Ping {
        type Msg = u64;

        fn on_timer(&mut self, now: SimTime, token: u64, ctx: &mut CellCtx<'_, u64>) {
            self.ticks += 1;
            self.acc = self.acc.wrapping_mul(31).wrapping_add(now.as_micros());
            if self.ticks.is_multiple_of(3) {
                let to = (self.id + 1) % self.n;
                ctx.send(to, self.ticks * 1_000 + u64::from(self.id));
            }
            if self.ticks.is_multiple_of(7) && self.n > 2 {
                // A longer-latency hop two cells over.
                let to = (self.id + 2) % self.n;
                ctx.send_latency(to, ctx.lookahead() * 3, self.ticks);
            }
            let next = now + SimDuration::from_micros(self.period_us);
            if next.as_micros() < self.horizon_us {
                ctx.timer_at(next, token);
            }
        }

        fn on_message(
            &mut self,
            _now: SimTime,
            from: CellId,
            msg: u64,
            _ctx: &mut CellCtx<'_, u64>,
        ) {
            self.received += 1;
            self.acc = self
                .acc
                .wrapping_mul(131)
                .wrapping_add(msg ^ u64::from(from));
        }

        fn digest_into(&self, d: &mut StateDigest) {
            d.write_u32(self.id);
            d.write_u64(self.ticks);
            d.write_u64(self.received);
            d.write_u64(self.acc);
        }
    }

    const HORIZON_US: u64 = 400_000;

    impl Ping {
        fn new(id: u32, n: u32, period_us: u64) -> Self {
            Ping {
                id,
                n,
                period_us,
                horizon_us: HORIZON_US,
                ticks: 0,
                received: 0,
                acc: u64::from(id),
            }
        }
    }

    fn build(n: u32, nshards: usize, workers: usize) -> ShardedEngine<Ping> {
        let cells: Vec<Ping> = (0..n)
            .map(|id| Ping::new(id, n, 90 + 13 * u64::from(id % 11)))
            .collect();
        let mut eng = ShardedEngine::new(cells, nshards, SimDuration::from_micros(250));
        eng.set_workers(workers);
        eng.audit_every_windows(16);
        for id in 0..n {
            eng.seed_timer(id, SimTime::from_micros(10 + u64::from(id) % 7), 0);
        }
        eng
    }

    #[expect(clippy::type_complexity)]
    fn run_case(
        n: u32,
        nshards: usize,
        workers: usize,
        horizon_us: u64,
        clock: Option<StallClock>,
    ) -> (Vec<Checkpoint>, Vec<(u64, u64, u64)>, u64, u64) {
        let mut eng = build(n, nshards, workers);
        if let Some(clock) = clock {
            eng.set_stall_clock(clock);
        }
        eng.run(SimTime::from_micros(horizon_us));
        let finals = eng.cells().map(|c| (c.ticks, c.received, c.acc)).collect();
        (
            eng.take_audit_stream(),
            finals,
            eng.events_executed(),
            eng.messages_delivered(),
        )
    }

    #[test]
    fn digest_stream_is_invariant_to_shard_and_worker_counts() {
        let reference = run_case(13, 1, 1, HORIZON_US, None);
        assert!(
            !reference.0.is_empty(),
            "reference run produced no checkpoints"
        );
        assert!(reference.3 > 0, "reference run delivered no messages");
        for (nshards, workers) in [(2, 1), (2, 2), (3, 2), (4, 1), (4, 4), (8, 3), (13, 13)] {
            let got = run_case(13, nshards, workers, HORIZON_US, None);
            assert_eq!(
                got.0, reference.0,
                "digest stream diverged at {nshards} shards / {workers} workers"
            );
            assert_eq!(got.1, reference.1, "final cell states diverged");
            assert_eq!(got.2, reference.2, "event totals diverged");
            assert_eq!(got.3, reference.3, "message totals diverged");
        }
    }

    /// A stall clock that delays the worker calling it: each call spins,
    /// yields or sleeps for up to a few tens of µs, as a hash of the call
    /// count and `seed` picks. The engine calls it after a worker executes
    /// and posts, after it leaves a barrier and after it merges, so the
    /// workers reach each step in the orders a loaded machine produces.
    fn jittery_clock(seed: u64) -> StallClock {
        let calls = AtomicU64::new(0);
        Arc::new(move || {
            let call = calls.fetch_add(1, Ordering::Relaxed);
            let mut rng = DetRng::seed_from(seed ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            match rng.pick_index(3) {
                0 => {
                    for _ in 0..rng.uniform_u64(2_000) {
                        std::hint::spin_loop();
                    }
                }
                1 => std::thread::yield_now(),
                _ => std::thread::sleep(Duration::from_micros(rng.uniform_u64(40))),
            }
            call
        })
    }

    #[test]
    fn perturbed_window_schedules_keep_the_serial_stream() {
        // 397 windows per run, every 16th audited.
        const HORIZON: u64 = HORIZON_US / 4;
        let reference = run_case(13, 1, 1, HORIZON, None);
        for seed in 1..=3 {
            for (nshards, workers) in [(2, 2), (4, 2), (4, 4), (8, 3)] {
                let clock = Some(jittery_clock(seed));
                let got = run_case(13, nshards, workers, HORIZON, clock);
                assert_eq!(
                    got, reference,
                    "seed {seed}: run diverged at {nshards} shards / {workers} workers"
                );
            }
        }
    }

    #[test]
    fn messages_deliver_one_lookahead_later() {
        struct Echo {
            sent_at: u64,
            got_at: u64,
        }
        impl Cell for Echo {
            type Msg = ();
            fn on_timer(&mut self, now: SimTime, _token: u64, ctx: &mut CellCtx<'_, ()>) {
                self.sent_at = now.as_micros();
                ctx.send(1, ());
            }
            fn on_message(
                &mut self,
                now: SimTime,
                _from: CellId,
                _msg: (),
                _ctx: &mut CellCtx<'_, ()>,
            ) {
                self.got_at = now.as_micros();
            }
            fn digest_into(&self, d: &mut StateDigest) {
                d.write_u64(self.got_at);
            }
        }
        let cells = vec![
            Echo {
                sent_at: 0,
                got_at: 0,
            },
            Echo {
                sent_at: 0,
                got_at: 0,
            },
        ];
        let mut eng = ShardedEngine::new(cells, 2, SimDuration::from_micros(500));
        eng.seed_timer(0, SimTime::from_micros(100), 0);
        eng.run(SimTime::from_micros(10_000));
        assert_eq!(eng.cell(0).sent_at, 100);
        assert_eq!(eng.cell(1).got_at, 600, "delivery at send + lookahead");
        assert_eq!(eng.cross_shard_messages(), 1);
        assert_eq!(eng.messages_delivered(), 1);
    }

    #[test]
    fn horizon_stops_the_run() {
        let mut eng = build(5, 2, 1);
        eng.run(SimTime::from_micros(50_000));
        let at = eng.audit_stream().last().map(|c| c.at.as_micros());
        assert!(at.is_some_and(|t| t <= 50_000));
        // Every executed event lies strictly before the horizon.
        assert!(eng.events_executed() > 0);
    }

    #[test]
    fn stall_clock_splits_each_workers_time_per_run() {
        let fake_ns = Arc::new(AtomicU64::new(0));
        let fake = Arc::clone(&fake_ns);
        let mut eng = build(8, 4, 2);
        eng.set_stall_clock(Arc::new(move || fake.fetch_add(7, Ordering::Relaxed)));
        eng.run(SimTime::from_micros(HORIZON_US / 2));
        eng.run(SimTime::from_micros(HORIZON_US));
        // The split covers the last run only, one entry per worker.
        let stalls = eng.worker_stalls();
        assert_eq!(stalls.iter().map(|w| w.worker).collect::<Vec<_>>(), [0, 1]);
        for w in stalls {
            assert!(
                w.execute_ns > 0 && w.merge_ns > 0 && w.stall_ns > 0,
                "fake clock advanced, every phase must be booked: {w:?}"
            );
        }
    }

    #[test]
    fn a_run_split_on_the_window_lattice_audits_like_one_run() {
        // Every event sits on the 250 µs lattice of windows, so no window
        // spans the split; the split falls after 39 windows, off the
        // 4-window audit cadence.
        let lattice = || {
            let cells: Vec<Ping> = (0..6).map(|id| Ping::new(id, 6, 250)).collect();
            let mut eng = ShardedEngine::new(cells, 2, SimDuration::from_micros(250));
            eng.set_workers(2);
            eng.audit_every_windows(4);
            for id in 0..6 {
                eng.seed_timer(id, SimTime::from_micros(250), 0);
            }
            eng
        };
        let mut whole = lattice();
        whole.run(SimTime::from_micros(20_000));
        let mut split = lattice();
        split.run(SimTime::from_micros(10_000));
        assert_eq!(split.windows(), 39);
        split.run(SimTime::from_micros(20_000));
        assert_eq!(split.windows(), whole.windows());
        assert!(whole.audit_stream().len() > 10);
        assert_eq!(split.audit_stream(), whole.audit_stream());
    }

    #[test]
    fn shard_counters_cover_all_cells_and_events() {
        let mut eng = build(9, 4, 1);
        eng.run(SimTime::from_micros(HORIZON_US));
        let counters = eng.shard_counters();
        assert_eq!(counters.len(), 4);
        assert_eq!(counters.iter().map(|c| c.cells).sum::<usize>(), 9);
        assert_eq!(
            counters.iter().map(|c| c.events).sum::<u64>(),
            eng.events_executed()
        );
        assert_eq!(
            counters.iter().map(|c| c.messages_in).sum::<u64>(),
            eng.messages_delivered()
        );
        assert!(eng.windows() > 0);
        assert!(eng.queue_counters().events_executed > 0);
    }

    /// The m02 shape: thousands of cells seeded at one instant, ticking
    /// once a simulated minute and sending to a neighbour across a 60 s
    /// lookahead. The zero-span seeding leaves the calendar at 1 µs
    /// buckets; unless the width then follows the one-minute spacing it
    /// dequeues, every window sweeps the whole year's empty buckets (~18
    /// scans per event here) and every event passes through the overflow
    /// heap.
    #[test]
    fn one_minute_lattice_keeps_calendar_effort_bounded() {
        const MINUTE_US: u64 = 60_000_000;
        struct Tick {
            id: u32,
            n: u32,
            ticks: u64,
            received: u64,
        }
        impl Cell for Tick {
            type Msg = u64;
            fn on_timer(&mut self, now: SimTime, token: u64, ctx: &mut CellCtx<'_, u64>) {
                self.ticks += 1;
                if (self.ticks + u64::from(self.id)).is_multiple_of(4) {
                    ctx.send((self.id + 1) % self.n, self.ticks);
                }
                ctx.timer_at(now + SimDuration::from_micros(MINUTE_US), token);
            }
            fn on_message(&mut self, _n: SimTime, _f: CellId, _m: u64, _c: &mut CellCtx<'_, u64>) {
                self.received += 1;
            }
            fn digest_into(&self, d: &mut StateDigest) {
                d.write_u64(self.ticks);
                d.write_u64(self.received);
            }
        }
        const N: u32 = 3_000;
        const MINUTES: u64 = 30;
        let cells = (0..N)
            .map(|id| Tick {
                id,
                n: N,
                ticks: 0,
                received: 0,
            })
            .collect();
        let mut eng = ShardedEngine::new(cells, 2, SimDuration::from_micros(MINUTE_US));
        for id in 0..N {
            eng.seed_timer(id, SimTime::from_micros(MINUTE_US), 0);
        }
        eng.run(SimTime::from_micros((MINUTES + 1) * MINUTE_US));
        let c = eng.queue_counters();
        let ticks: u64 = eng.cells().map(|t| t.ticks).sum();
        let received: u64 = eng.cells().map(|t| t.received).sum();
        assert_eq!(ticks, MINUTES * u64::from(N));
        assert_eq!(c.events_executed, ticks + received);
        assert!(
            c.buckets_scanned <= 4 * c.events_executed,
            "{} buckets scanned for {} events",
            c.buckets_scanned,
            c.events_executed
        );
        assert!(
            c.overflow_migrations <= c.events_executed / 10,
            "{} overflow migrations for {} events",
            c.overflow_migrations,
            c.events_executed
        );
    }

    #[test]
    #[should_panic(expected = "below the lookahead bound")]
    fn undercutting_the_lookahead_panics() {
        struct Bad;
        impl Cell for Bad {
            type Msg = ();
            fn on_timer(&mut self, _now: SimTime, _token: u64, ctx: &mut CellCtx<'_, ()>) {
                ctx.send_latency(0, SimDuration::from_micros(1), ());
            }
            fn on_message(&mut self, _n: SimTime, _f: CellId, _m: (), _c: &mut CellCtx<'_, ()>) {}
            fn digest_into(&self, _d: &mut StateDigest) {}
        }
        let mut eng = ShardedEngine::new(vec![Bad], 1, SimDuration::from_micros(100));
        eng.seed_timer(0, SimTime::from_micros(5), 0);
        eng.run(SimTime::from_micros(1_000));
    }

    #[test]
    #[should_panic(expected = "timer in the past")]
    fn timers_cannot_rewind() {
        struct Bad;
        impl Cell for Bad {
            type Msg = ();
            fn on_timer(&mut self, now: SimTime, _token: u64, ctx: &mut CellCtx<'_, ()>) {
                ctx.timer_at(SimTime::from_micros(now.as_micros() - 1), 0);
            }
            fn on_message(&mut self, _n: SimTime, _f: CellId, _m: (), _c: &mut CellCtx<'_, ()>) {}
            fn digest_into(&self, _d: &mut StateDigest) {}
        }
        let mut eng = ShardedEngine::new(vec![Bad], 1, SimDuration::from_micros(100));
        eng.seed_timer(0, SimTime::from_micros(5), 0);
        eng.run(SimTime::from_micros(1_000));
    }

    #[test]
    #[should_panic(expected = "seed_timer: 5.000ms is before the engine's horizon 10.000ms")]
    fn seeds_between_runs_cannot_reach_behind_the_horizon() {
        // A run to 10 ms leaves the 1 ms ticker having run at 9 ms; a seed
        // at 10 ms is still its future, a seed at 5 ms is its past.
        let mut eng = ShardedEngine::new(
            vec![Ping::new(0, 1, 1_000)],
            1,
            SimDuration::from_micros(250),
        );
        eng.seed_timer(0, SimTime::from_micros(1_000), 0);
        eng.run(SimTime::from_micros(10_000));
        eng.seed_timer(0, SimTime::from_micros(10_000), 1);
        eng.seed_timer(0, SimTime::from_micros(5_000), 2);
    }

    #[test]
    fn empty_engine_is_a_noop() {
        let mut eng: ShardedEngine<Ping> =
            ShardedEngine::new(Vec::new(), 2, SimDuration::from_micros(100));
        eng.run(SimTime::from_micros(1_000));
        assert_eq!(eng.windows(), 0);
        assert_eq!(eng.events_executed(), 0);
        assert!(eng.audit_stream().is_empty());
    }
}
