//! Property tests for the simulation substrate: the event engine's
//! execution order is a pure function of (time, insertion order), the
//! calendar queue agrees with a reference binary-heap model, and the
//! statistics accumulators agree with naive reference computations.
//!
//! The suites are randomized but fully deterministic: every case is derived
//! from [`DetRng`] with a fixed seed, so a failure reproduces exactly. The
//! `heavy-tests` feature multiplies the case counts.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sprite_sim::{DetRng, Engine, OnlineStats, Samples, SimDuration, SimTime};

/// Number of randomized cases per property (scaled up under `heavy-tests`).
fn cases(base: usize) -> usize {
    if cfg!(feature = "heavy-tests") {
        base * 8
    } else {
        base
    }
}

/// Events run in (time, insertion) order regardless of how the calendar
/// happens to bucket them — determinism is the whole foundation of
/// reproducible experiments.
#[test]
fn engine_orders_by_time_then_insertion() {
    let mut rng = DetRng::seed_from(0xE1);
    for _ in 0..cases(64) {
        let n = 1 + rng.pick_index(50);
        let delays: Vec<u64> = (0..n).map(|_| rng.uniform_u64(1000)).collect();
        let mut engine: Engine<Vec<(u64, usize)>> = Engine::new();
        for (i, &d) in delays.iter().enumerate() {
            engine.schedule_at(SimTime::from_micros(d), move |log, _| log.push((d, i)));
        }
        let mut log = Vec::new();
        engine.run(&mut log);
        let mut expected: Vec<(u64, usize)> = delays
            .iter()
            .copied()
            .enumerate()
            .map(|(i, d)| (d, i))
            .collect();
        expected.sort_by_key(|&(d, i)| (d, i));
        assert_eq!(log, expected, "delays {delays:?}");
        assert_eq!(engine.events_executed(), delays.len() as u64);
    }
}

/// Differential test: the calendar queue pops events in exactly the order a
/// reference binary heap keyed on `(time, push index)` would, across a
/// mix that exercises every queue path — duplicate timestamps (tie-breaks),
/// near-future bucket hits, far-future overflow, handler-scheduled cascades,
/// and periodic ticks interleaved with one-shots. Every third case is a
/// lattice burst: hundreds to thousands of ops on at most four timestamps a
/// simulated minute apart, like the barrier windows of the m02 cluster,
/// where cascade children at offset 0 land in the bucket being drained.
#[test]
fn calendar_queue_matches_reference_heap() {
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// One-shot at `now + delay`.
        Once { delay: u64 },
        /// One-shot that, when it fires, schedules `same` events at its own
        /// time and `extra` more 7, 14, … µs later.
        Cascade { delay: u64, same: u64, extra: u64 },
        /// Periodic tick: first at `delay`, then every `period`, `reps` times.
        Periodic { delay: u64, period: u64, reps: u64 },
    }

    /// Delays of a cascade's children after their parent.
    fn child_offsets(same: u64, extra: u64) -> impl Iterator<Item = u64> {
        (0..same).map(|_| 0).chain((1..=extra).map(|k| 7 * k))
    }

    const MINUTE: u64 = 60_000_000;
    let mut rng = DetRng::seed_from(0xD1FF);
    for case in 0..cases(48) {
        let lattice = case % 3 == 2;
        let (n, stamps) = if lattice {
            (200 + rng.pick_index(2_800), 1 + rng.uniform_u64(4))
        } else {
            (2 + rng.pick_index(30), 0)
        };
        let ops: Vec<Op> = (0..n)
            .map(|_| {
                // Lattice cases pick a minute mark; the rest mix horizons:
                // dense near-term ties, mid-range, and far-future values
                // that land in the overflow heap.
                let delay = if lattice {
                    MINUTE * rng.uniform_u64(stamps)
                } else {
                    match rng.pick_index(4) {
                        0 => rng.uniform_u64(4),
                        1 => rng.uniform_u64(1_000),
                        2 => rng.uniform_u64(1_000_000),
                        _ => 1_000_000_000 + rng.uniform_u64(1_000_000_000_000),
                    }
                };
                match rng.pick_index(3) {
                    0 => Op::Once { delay },
                    1 => Op::Cascade {
                        delay,
                        same: rng.uniform_u64(3),
                        extra: 1 + rng.uniform_u64(3),
                    },
                    _ => Op::Periodic {
                        delay,
                        period: if lattice {
                            MINUTE
                        } else {
                            1 + rng.uniform_u64(500)
                        },
                        reps: 1 + rng.uniform_u64(5),
                    },
                }
            })
            .collect();
        let nops = ops.len();

        // Reference model: a plain binary heap over (at, push index)
        // replaying the same operations. The engine's calendar stamps a
        // periodic re-arm or a cascade child when the tick or parent runs,
        // so push indices depend on execution order, and the simplest
        // exact model is a second engine-like simulation over the heap
        // itself, counting pushes as it pops:
        let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        let mut next_seq: u64 = 0;
        // Payload table: what to do when entry `id` fires, and the label it
        // logs — its op index, or `nops + 8·parent + j` for the j-th child
        // of cascade `parent`, the label the engine's handlers log too.
        #[derive(Clone, Copy)]
        enum Payload {
            Noop,
            Cascade { same: u64, extra: u64 },
            Tick { period: u64, remaining: u64 },
        }
        let mut payloads: Vec<(Payload, usize)> = Vec::new();
        for op in &ops {
            let (delay, payload) = match *op {
                Op::Once { delay } => (delay, Payload::Noop),
                Op::Cascade { delay, same, extra } => (delay, Payload::Cascade { same, extra }),
                Op::Periodic {
                    delay,
                    period,
                    reps,
                } => (
                    delay,
                    Payload::Tick {
                        period,
                        remaining: reps,
                    },
                ),
            };
            let id = payloads.len();
            payloads.push((payload, id));
            heap.push(Reverse((delay, next_seq, id)));
            next_seq += 1;
        }
        let mut expected: Vec<(u64, usize)> = Vec::new();
        while let Some(Reverse((at, _seq, id))) = heap.pop() {
            let (payload, label) = payloads[id];
            expected.push((at, label));
            match payload {
                Payload::Noop => {}
                Payload::Cascade { same, extra } => {
                    for (j, offset) in child_offsets(same, extra).enumerate() {
                        let nid = payloads.len();
                        payloads.push((Payload::Noop, nops + 8 * id + j));
                        heap.push(Reverse((at + offset, next_seq, nid)));
                        next_seq += 1;
                    }
                }
                Payload::Tick { period, remaining } => {
                    if remaining > 1 {
                        payloads[id].0 = Payload::Tick {
                            period,
                            remaining: remaining - 1,
                        };
                        heap.push(Reverse((at + period, next_seq, id)));
                        next_seq += 1;
                    }
                }
            }
        }

        // Engine under test, replaying the identical ops.
        let mut engine: Engine<Vec<(u64, usize)>> = Engine::new();
        for (id, op) in ops.iter().enumerate() {
            match *op {
                Op::Once { delay } => {
                    let me = id;
                    engine.schedule_at(
                        SimTime::from_micros(delay),
                        move |log: &mut Vec<_>, e: &mut Engine<_>| {
                            log.push((e.now().as_micros(), me));
                        },
                    );
                }
                Op::Cascade { delay, same, extra } => {
                    let me = id;
                    engine.schedule_at(
                        SimTime::from_micros(delay),
                        move |log: &mut Vec<_>, e: &mut Engine<_>| {
                            log.push((e.now().as_micros(), me));
                            for (j, offset) in child_offsets(same, extra).enumerate() {
                                let label = nops + 8 * me + j;
                                e.schedule_in(
                                    SimDuration::from_micros(offset),
                                    move |log: &mut Vec<_>, e: &mut Engine<_>| {
                                        log.push((e.now().as_micros(), label));
                                    },
                                );
                            }
                        },
                    );
                }
                Op::Periodic {
                    delay,
                    period,
                    reps,
                } => {
                    let me = id;
                    let mut remaining = reps;
                    engine.schedule_periodic(
                        SimDuration::from_micros(delay),
                        SimDuration::from_micros(period),
                        move |log: &mut Vec<(u64, usize)>, e: &mut Engine<_>| {
                            log.push((e.now().as_micros(), me));
                            remaining -= 1;
                            remaining > 0
                        },
                    );
                }
            }
        }
        let mut log: Vec<(u64, usize)> = Vec::new();
        engine.run(&mut log);

        // Every entry, cascade children included, logs its label, so this
        // checks the time order and every tie-break.
        assert_eq!(log.len(), expected.len(), "case {case}: ops {ops:?}");
        if let Some(i) = log
            .iter()
            .zip(&expected)
            .position(|(got, want)| got != want)
        {
            panic!(
                "case {case}: pop {i} is {:?}, the reference pops {:?}\n  ops {ops:?}",
                log[i], expected[i]
            );
        }
    }
}

/// Cascading events observe a monotone clock.
#[test]
fn engine_clock_is_monotone_under_cascades() {
    struct S {
        last: SimTime,
        violations: usize,
        budget: usize,
    }
    fn fire(extra: u64) -> impl FnOnce(&mut S, &mut Engine<S>) + 'static {
        move |s: &mut S, eng: &mut Engine<S>| {
            if eng.now() < s.last {
                s.violations += 1;
            }
            s.last = eng.now();
            if s.budget > 0 {
                s.budget -= 1;
                eng.schedule_in(
                    SimDuration::from_micros(extra % 97 + 1),
                    fire(extra / 2 + 1),
                );
            }
        }
    }
    let mut rng = DetRng::seed_from(0xC10C);
    for _ in 0..cases(32) {
        let n = 1 + rng.pick_index(20);
        let seeds: Vec<u64> = (0..n).map(|_| 1 + rng.uniform_u64(499)).collect();
        let mut engine: Engine<S> = Engine::new();
        for &d in &seeds {
            engine.schedule_in(SimDuration::from_micros(d), fire(d));
        }
        let mut state = S {
            last: SimTime::ZERO,
            violations: 0,
            budget: 200,
        };
        engine.run(&mut state);
        assert_eq!(state.violations, 0, "seeds {seeds:?}");
    }
}

/// Welford accumulation matches the naive two-pass mean/stddev.
#[test]
fn online_stats_matches_naive() {
    let mut rng = DetRng::seed_from(0x57A7);
    for _ in 0..cases(64) {
        let n = 2 + rng.pick_index(198);
        let xs: Vec<f64> = (0..n).map(|_| (rng.uniform_f64() - 0.5) * 2e6).collect();
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        assert!((s.std_dev() - var.sqrt()).abs() < 1e-5 * (1.0 + var.sqrt()));
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(s.min(), min);
        assert_eq!(s.max(), max);
    }
}

/// Merging partitions of a sample stream equals accumulating it whole.
#[test]
fn online_stats_merge_is_partition_invariant() {
    let mut rng = DetRng::seed_from(0x4E46);
    for _ in 0..cases(64) {
        let n = 1 + rng.pick_index(99);
        let xs: Vec<f64> = (0..n).map(|_| (rng.uniform_f64() - 0.5) * 2e3).collect();
        let cut = rng.pick_index(xs.len());
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..cut] {
            left.record(x);
        }
        for &x in &xs[cut..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.std_dev() - whole.std_dev()).abs() < 1e-7);
    }
}

/// Percentiles are monotone in p and bounded by the extremes.
#[test]
fn percentiles_are_monotone() {
    let mut rng = DetRng::seed_from(0xBEC7);
    for _ in 0..cases(64) {
        let n = 1 + rng.pick_index(199);
        let xs: Vec<f64> = (0..n).map(|_| (rng.uniform_f64() - 0.5) * 2e4).collect();
        let mut s = Samples::new();
        for &x in &xs {
            s.record(x);
        }
        let ps = [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0];
        let values: Vec<f64> = ps.iter().map(|&p| s.percentile(p)).collect();
        for w in values.windows(2) {
            assert!(w[0] <= w[1], "percentiles not monotone: {values:?}");
        }
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(*values.first().unwrap() >= min);
        assert!((*values.last().unwrap() - max).abs() < 1e-12);
    }
}
