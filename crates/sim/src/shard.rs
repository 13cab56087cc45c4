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
//! later. At the end of each window all shards meet at a barrier and a
//! single merge step routes the accumulated messages into the destination
//! shards' queues.
//!
//! # Why the digest stream cannot depend on the shard count
//!
//! Determinism is not tested into this engine, it is an invariant of its
//! construction:
//!
//! * **Cells are isolated.** A cell's state is touched only by its own
//!   timers and by messages addressed to it; there is no shared state
//!   between cells, so the interleaving of *different* cells' events within
//!   a window is unobservable.
//! * **Per-cell event order is fixed.** Each shard's queue orders events by
//!   `(time, cell, seq)`; the subsequence belonging to one cell is ordered
//!   by `(time, seq)` with seq numbers drawn from per-cell counters —
//!   timers get theirs when the cell requests them (in the cell's own
//!   deterministic execution order), deliveries get theirs at the barrier
//!   merge.
//! * **The merge is sorted.** At each barrier the outboxes of all shards
//!   are concatenated and sorted by `(deliver_time, sender, sender_seq)` —
//!   a key that does not mention shards — before destination seq numbers
//!   are assigned. Whichever shard a sender lived on, the deliveries to any
//!   given cell arrive in the same order.
//! * **Windows are global.** The next window always starts at the globally
//!   earliest pending event, so the sequence of barrier times — and with it
//!   the checkpoint stream — is a pure function of the workload.
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
//! invisible to results: [`std::thread::scope`] workers own disjoint shard
//! sets, meet at a [`std::sync::Barrier`] twice per window (once after
//! execution, once after the leader's merge), and never race on anything
//! the digest can observe. Wall-clock stall accounting is injected by the
//! bench harness through [`ShardedEngine::set_stall_clock`] — this crate
//! still never reads ambient time itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use crate::calendar::{Calendar, CalendarEntry, Pop};
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
    timers: &'a mut Vec<(u64, u64)>,
    out: &'a mut Vec<OutMsg<M>>,
    send_seq: &'a mut u64,
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
        self.timers.push((at.as_micros(), token));
    }

    /// Arms a timer on this cell `delay` from now.
    pub fn timer_in(&mut self, delay: SimDuration, token: u64) {
        self.timer_at(self.now + delay, token);
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
        let seq = *self.send_seq;
        *self.send_seq += 1;
        self.out.push(OutMsg {
            deliver_at: (self.now + latency).as_micros(),
            from: self.me,
            from_seq: seq,
            to,
            msg,
        });
    }
}

/// A message waiting for the barrier merge.
struct OutMsg<M> {
    deliver_at: u64,
    from: CellId,
    from_seq: u64,
    to: CellId,
    msg: M,
}

enum EventKind<M> {
    Timer(u64),
    Msg { from: CellId, msg: M },
}

/// One queued event. The tie key `(cell, seq)` makes the per-shard pop
/// order — and through it every cell's event order — independent of the
/// partition (see the module docs).
struct ShardEvent<M> {
    at: u64,
    cell: CellId,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> CalendarEntry for ShardEvent<M> {
    fn at_micros(&self) -> u64 {
        self.at
    }
    fn tie(&self) -> (u64, u64) {
        (u64::from(self.cell), self.seq)
    }
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
}

/// Per-worker-thread barrier-stall accounting. All zero unless a stall
/// clock was injected with [`ShardedEngine::set_stall_clock`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Worker index (worker `w` owns shards `w, w+workers, …`).
    pub worker: usize,
    /// Nanoseconds spent waiting at window barriers.
    pub stall_ns: u64,
}

struct Slot<C> {
    cell: C,
    /// Next event seq for this cell (timers and deliveries share it).
    seq: u64,
    /// Next send seq for this cell (orders its outgoing messages).
    send_seq: u64,
}

struct Shard<C: Cell> {
    nshards: usize,
    ncells: u32,
    cells: Vec<Slot<C>>,
    queue: Calendar<ShardEvent<C::Msg>>,
    outbox: Vec<OutMsg<C::Msg>>,
    timers_scratch: Vec<(u64, u64)>,
    counters: ShardCounters,
    engine_counters: EngineCounters,
}

impl<C: Cell> Shard<C> {
    /// Executes every local event strictly before `t_end_us`.
    fn execute_window(&mut self, t_end_us: u64, lookahead: SimDuration) {
        let deadline = t_end_us - 1;
        loop {
            let ev = match self
                .queue
                .pop_due(Some(deadline), &mut self.engine_counters)
            {
                Pop::Event(ev) => ev,
                Pop::Parked | Pop::Empty => break,
            };
            self.engine_counters.events_executed += 1;
            self.counters.events += 1;
            let local = ev.cell as usize / self.nshards;
            let now = SimTime::from_micros(ev.at);
            let before_out = self.outbox.len();
            {
                let slot = &mut self.cells[local];
                let mut ctx = CellCtx {
                    now,
                    me: ev.cell,
                    ncells: self.ncells,
                    lookahead,
                    timers: &mut self.timers_scratch,
                    out: &mut self.outbox,
                    send_seq: &mut slot.send_seq,
                };
                match ev.kind {
                    EventKind::Timer(token) => slot.cell.on_timer(now, token, &mut ctx),
                    EventKind::Msg { from, msg } => slot.cell.on_message(now, from, msg, &mut ctx),
                }
            }
            self.counters.messages_sent += (self.outbox.len() - before_out) as u64;
            self.counters.timers_set += self.timers_scratch.len() as u64;
            let cell = ev.cell;
            for (at, token) in self.timers_scratch.drain(..) {
                let slot = &mut self.cells[local];
                let seq = slot.seq;
                slot.seq += 1;
                self.queue.push(
                    ShardEvent {
                        at,
                        cell,
                        seq,
                        kind: EventKind::Timer(token),
                    },
                    &mut self.engine_counters,
                );
            }
        }
    }
}

/// The injected wall-clock for barrier-stall accounting: returns
/// monotonic nanoseconds. Supplied by the bench harness; simulation
/// results never depend on it.
pub type StallClock = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Cross-window bookkeeping owned by whichever thread runs the merge.
struct Coordinator<M> {
    scratch: Vec<OutMsg<M>>,
    audit_stream: Vec<Checkpoint>,
    audit_every: u64,
    windows: u64,
    messages: u64,
    cross_messages: u64,
    lookahead_us: u64,
    horizon_us: u64,
    ncells: u32,
}

/// The sharded conservative-parallel engine.
///
/// Shards are a *logical* partition: `--shards 4` with one worker thread
/// runs the same barriers, the same merges, and produces the same digest
/// stream as `--shards 4` with four workers. Construct with [`Self::new`],
/// seed initial timers with [`Self::seed_timer`] (in cell order, so seq
/// assignment is reproducible), then [`Self::run`].
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
    messages: u64,
    cross_messages: u64,
    worker_stalls: Vec<WorkerCounters>,
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
                timers_scratch: Vec::new(),
                counters: ShardCounters {
                    shard: index,
                    ..ShardCounters::default()
                },
                engine_counters: EngineCounters::default(),
            })
            .collect();
        for (id, cell) in cells.into_iter().enumerate() {
            shards[id % nshards].cells.push(Slot {
                cell,
                seq: 0,
                send_seq: 0,
            });
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
            messages: 0,
            cross_messages: 0,
            worker_stalls: Vec::new(),
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

    /// Injects a monotonic nanosecond clock for barrier-stall accounting.
    /// Without one, [`WorkerCounters::stall_ns`] stays zero.
    pub fn set_stall_clock(&mut self, clock: StallClock) {
        self.clock = Some(clock);
    }

    /// Pre-run scheduling of a cell's first timer. Call in ascending cell
    /// order so seq assignment (and with it the event order) is a pure
    /// function of the scenario.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn seed_timer(&mut self, cell: CellId, at: SimTime, token: u64) {
        assert!(cell < self.ncells, "seed_timer: cell {cell} out of range");
        let shard = &mut self.shards[cell as usize % self.nshards];
        let local = cell as usize / self.nshards;
        let slot = &mut shard.cells[local];
        let seq = slot.seq;
        slot.seq += 1;
        shard.counters.timers_set += 1;
        shard.queue.push(
            ShardEvent {
                at: at.as_micros(),
                cell,
                seq,
                kind: EventKind::Timer(token),
            },
            &mut shard.engine_counters,
        );
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

    /// Picks the next barrier window `[t_min, t_end)` or `None` when the
    /// horizon is reached / all queues are dry.
    fn next_window(shards: &mut [&mut Shard<C>], coord: &Coordinator<C::Msg>) -> Option<u64> {
        let mut t_min: Option<u64> = None;
        for s in shards.iter_mut() {
            if let Some(t) = s.queue.next_time(&mut s.engine_counters) {
                t_min = Some(t_min.map_or(t, |m| m.min(t)));
            }
        }
        let t_min = t_min?;
        if t_min >= coord.horizon_us {
            return None;
        }
        Some(
            t_min
                .saturating_add(coord.lookahead_us)
                .min(coord.horizon_us),
        )
    }

    /// The barrier: merges every shard's outbox into the destination
    /// queues in deterministic order, samples the audit checkpoint, and
    /// picks the next window.
    fn merge_and_advance(
        shards: &mut [&mut Shard<C>],
        coord: &mut Coordinator<C::Msg>,
        t_end_us: u64,
    ) -> Option<u64> {
        coord.windows += 1;
        coord.scratch.clear();
        for s in shards.iter_mut() {
            coord.scratch.append(&mut s.outbox);
        }
        // The sort key never mentions shards: deliveries to any cell land
        // in the same order for every partition.
        coord
            .scratch
            .sort_unstable_by_key(|m| (m.deliver_at, m.from, m.from_seq));
        let nshards = shards.len();
        for m in coord.scratch.drain(..) {
            debug_assert!(m.deliver_at >= t_end_us, "delivery inside its own window");
            let to_shard = m.to as usize % nshards;
            if m.from as usize % nshards != to_shard {
                coord.cross_messages += 1;
            }
            coord.messages += 1;
            let sh = &mut *shards[to_shard];
            let slot = &mut sh.cells[m.to as usize / nshards];
            let seq = slot.seq;
            slot.seq += 1;
            sh.counters.messages_in += 1;
            sh.queue.push(
                ShardEvent {
                    at: m.deliver_at,
                    cell: m.to,
                    seq,
                    kind: EventKind::Msg {
                        from: m.from,
                        msg: m.msg,
                    },
                },
                &mut sh.engine_counters,
            );
        }
        if coord.audit_every != 0 && coord.windows.is_multiple_of(coord.audit_every) {
            let events: u64 = shards.iter().map(|s| s.counters.events).sum();
            let mut d = StateDigest::new();
            for id in 0..coord.ncells {
                shards[id as usize % nshards].cells[id as usize / nshards]
                    .cell
                    .digest_into(&mut d);
            }
            coord.audit_stream.push(Checkpoint {
                events,
                at: SimTime::from_micros(t_end_us),
                digest: d.finish(),
            });
        }
        Self::next_window(shards, coord)
    }

    /// Runs the simulation to `horizon` (events at or after it stay
    /// queued). May be called once per engine.
    pub fn run(&mut self, horizon: SimTime) {
        let workers = self.effective_workers();
        let mut coord = Coordinator {
            scratch: Vec::new(),
            audit_stream: Vec::new(),
            audit_every: self.audit_every,
            windows: 0,
            messages: 0,
            cross_messages: 0,
            lookahead_us: self.lookahead.as_micros(),
            horizon_us: horizon.as_micros(),
            ncells: self.ncells,
        };
        if workers <= 1 {
            self.run_single_threaded(&mut coord);
            self.worker_stalls = vec![WorkerCounters {
                worker: 0,
                stall_ns: 0,
            }];
        } else {
            self.run_threaded(&mut coord, workers);
        }
        self.audit_stream.append(&mut coord.audit_stream);
        self.windows += coord.windows;
        self.messages += coord.messages;
        self.cross_messages += coord.cross_messages;
    }

    fn run_single_threaded(&mut self, coord: &mut Coordinator<C::Msg>) {
        let lookahead = self.lookahead;
        let mut refs: Vec<&mut Shard<C>> = self.shards.iter_mut().collect();
        let Some(mut t_end) = Self::next_window(&mut refs, coord) else {
            return;
        };
        loop {
            for s in refs.iter_mut() {
                s.execute_window(t_end, lookahead);
            }
            match Self::merge_and_advance(&mut refs, coord, t_end) {
                Some(next) => t_end = next,
                None => break,
            }
        }
    }

    fn run_threaded(&mut self, coord: &mut Coordinator<C::Msg>, workers: usize) {
        let lookahead = self.lookahead;
        let nshards = self.nshards;
        let shard_locks: Vec<Mutex<Shard<C>>> = self.shards.drain(..).map(Mutex::new).collect();
        let barrier = Barrier::new(workers);
        // The published end of the current window; u64::MAX means stop.
        let window = AtomicU64::new(u64::MAX);
        {
            let mut guards: Vec<_> = shard_locks.iter().map(|m| m.lock().unwrap()).collect();
            let mut refs: Vec<&mut Shard<C>> = guards.iter_mut().map(|g| &mut **g).collect();
            if let Some(t) = Self::next_window(&mut refs, coord) {
                window.store(t, Ordering::SeqCst);
            }
        }
        let mut coord_slot = Some(std::mem::replace(
            coord,
            Coordinator {
                scratch: Vec::new(),
                audit_stream: Vec::new(),
                audit_every: 0,
                windows: 0,
                messages: 0,
                cross_messages: 0,
                lookahead_us: 0,
                horizon_us: 0,
                ncells: 0,
            },
        ));
        let results = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let shard_locks = &shard_locks;
                let barrier = &barrier;
                let window = &window;
                let clock = self.clock.clone();
                let mut leader_coord = if w == 0 { coord_slot.take() } else { None };
                handles.push(scope.spawn(move || {
                    let mut wc = WorkerCounters {
                        worker: w,
                        stall_ns: 0,
                    };
                    loop {
                        let t_end = window.load(Ordering::SeqCst);
                        if t_end == u64::MAX {
                            break;
                        }
                        for s in (w..nshards).step_by(workers) {
                            let mut shard = shard_locks[s].lock().unwrap();
                            shard.execute_window(t_end, lookahead);
                        }
                        // First rendezvous: every shard has finished the
                        // window; the leader may merge.
                        let t0 = clock.as_ref().map(|c| c());
                        barrier.wait();
                        if let (Some(c), Some(t0)) = (&clock, t0) {
                            wc.stall_ns += c().saturating_sub(t0);
                        }
                        if w == 0 {
                            let coord = leader_coord.as_mut().expect("leader owns coordinator");
                            let mut guards: Vec<_> =
                                shard_locks.iter().map(|m| m.lock().unwrap()).collect();
                            let mut refs: Vec<&mut Shard<C>> =
                                guards.iter_mut().map(|g| &mut **g).collect();
                            let next = Self::merge_and_advance(&mut refs, coord, t_end);
                            window.store(next.unwrap_or(u64::MAX), Ordering::SeqCst);
                        }
                        // Second rendezvous: the merged queues and the next
                        // window are visible to everyone.
                        let t1 = clock.as_ref().map(|c| c());
                        barrier.wait();
                        if let (Some(c), Some(t1)) = (&clock, t1) {
                            wc.stall_ns += c().saturating_sub(t1);
                        }
                    }
                    (leader_coord, wc)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect::<Vec<_>>()
        });
        self.shards = shard_locks
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect();
        for (leader_coord, wc) in results {
            if let Some(c) = leader_coord {
                *coord = c;
            }
            self.worker_stalls.push(wc);
        }
        self.worker_stalls.sort_by_key(|w| w.worker);
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
        self.messages
    }

    /// Messages whose sender and receiver lived on different shards.
    pub fn cross_shard_messages(&self) -> u64 {
        self.cross_messages
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

    /// Per-worker barrier-stall counters from the last run.
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
        &self.shards[id as usize % self.nshards].cells[id as usize / self.nshards].cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn build(n: u32, nshards: usize, workers: usize) -> ShardedEngine<Ping> {
        let cells: Vec<Ping> = (0..n)
            .map(|id| Ping {
                id,
                n,
                period_us: 90 + 13 * u64::from(id % 11),
                horizon_us: HORIZON_US,
                ticks: 0,
                received: 0,
                acc: u64::from(id),
            })
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
    ) -> (Vec<Checkpoint>, Vec<(u64, u64, u64)>, u64, u64) {
        let mut eng = build(n, nshards, workers);
        eng.run(SimTime::from_micros(HORIZON_US));
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
        let reference = run_case(13, 1, 1);
        assert!(
            !reference.0.is_empty(),
            "reference run produced no checkpoints"
        );
        assert!(reference.3 > 0, "reference run delivered no messages");
        for (nshards, workers) in [(2, 1), (2, 2), (3, 2), (4, 1), (4, 4), (8, 3), (13, 13)] {
            let got = run_case(13, nshards, workers);
            assert_eq!(
                got.0, reference.0,
                "digest stream diverged at {nshards} shards / {workers} workers"
            );
            assert_eq!(got.1, reference.1, "final cell states diverged");
            assert_eq!(got.2, reference.2, "event totals diverged");
            assert_eq!(got.3, reference.3, "message totals diverged");
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
    fn stall_clock_is_observed_by_threaded_runs() {
        let fake_ns = Arc::new(AtomicU64::new(0));
        let fake = Arc::clone(&fake_ns);
        let mut eng = build(8, 4, 2);
        eng.set_stall_clock(Arc::new(move || fake.fetch_add(7, Ordering::Relaxed)));
        eng.run(SimTime::from_micros(HORIZON_US));
        let stalls = eng.worker_stalls();
        assert_eq!(stalls.len(), 2);
        assert!(
            stalls.iter().any(|w| w.stall_ns > 0),
            "fake clock advanced, some stall must be recorded"
        );
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
            fn on_timer(&mut self, _now: SimTime, token: u64, ctx: &mut CellCtx<'_, u64>) {
                self.ticks += 1;
                if (self.ticks + u64::from(self.id)).is_multiple_of(4) {
                    ctx.send((self.id + 1) % self.n, self.ticks);
                }
                ctx.timer_in(SimDuration::from_micros(MINUTE_US), token);
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
    fn empty_engine_is_a_noop() {
        let mut eng: ShardedEngine<Ping> =
            ShardedEngine::new(Vec::new(), 2, SimDuration::from_micros(100));
        eng.run(SimTime::from_micros(1_000));
        assert_eq!(eng.windows(), 0);
        assert_eq!(eng.events_executed(), 0);
        assert!(eng.audit_stream().is_empty());
    }
}
