//! Parallel experiment runner.
//!
//! Experiments decompose into independent **units** (whole experiments for
//! the cheap ones; per-cell drives for E10; per-replication runs for E11).
//! Units carry a relative cost hint; the runner executes them across
//! `jobs` worker threads (longest-cost-first so the big E11 replications
//! start immediately) and then **merges** each experiment's partial results
//! back in canonical order.
//!
//! # Determinism contract
//!
//! Rendered output is byte-identical for every `--jobs` value because:
//!
//! 1. every unit is self-contained — it builds its own network, cluster and
//!    RNG from a seed fixed before any thread starts (E11's replication
//!    RNGs are forked *serially* from the master stream);
//! 2. threads only decide *when* a unit runs, never *what* it computes;
//! 3. merging walks experiments and their parts in canonical (declaration)
//!    order, so the assembled tables do not depend on completion order;
//! 4. wall-clock timings go to stderr and the JSON sidecar, never stdout.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::experiments::{e10, e11};

/// Hash-map probes flushed from worker threads after each unit. The probe
/// counter itself is thread-local (see `sprite_sim::detmap`), so the runner
/// drains it at unit boundaries — the only points where it knows which
/// thread did the hashing.
static HASH_PROBES: AtomicU64 = AtomicU64::new(0);

/// Total hash-map probes observed so far: everything flushed by runner
/// units plus whatever the calling thread has accumulated since its last
/// flush (e.g. a `--macro` run outside the suite).
pub fn hash_probes_total() -> u64 {
    HASH_PROBES.load(Ordering::Relaxed) + sprite_sim::hash_probes()
}

/// A unit's result, merged back into its experiment's table.
pub enum Partial {
    /// A fully rendered table (single-unit experiments).
    Rendered(String),
    /// One E10 matrix cell.
    E10Row(e10::ArchRow),
    /// One E11 replication.
    E11Report(e11::MonthReport),
}

/// A unit's boxed work closure: self-contained, thread-safe by construction.
pub type UnitFn = Box<dyn FnOnce() -> Partial + Send>;

/// One independently executable piece of an experiment.
pub struct Unit {
    /// Relative cost hint (any monotone scale) for longest-first dispatch.
    pub cost: u64,
    /// The work: self-contained, thread-safe by construction.
    pub run: UnitFn,
}

/// An experiment: its units plus the merge that renders the final table.
pub struct Experiment {
    /// Short identifier (`e01` … `a07`).
    pub id: &'static str,
    /// One-line description.
    pub desc: &'static str,
    /// Independent work items, in canonical part order.
    pub units: Vec<Unit>,
    /// Assembles the partials (given in part order) into the rendered table.
    pub merge: fn(Vec<Partial>) -> String,
}

/// A finished experiment: rendered table plus cost accounting.
pub struct ExperimentResult {
    /// Short identifier.
    pub id: &'static str,
    /// One-line description.
    pub desc: &'static str,
    /// The rendered table (identical for every `jobs` value).
    pub rendered: String,
    /// Number of units the experiment split into.
    pub units: usize,
    /// CPU time spent across the experiment's units (sum, not wall).
    pub cpu: Duration,
}

/// Executes `suite` with `jobs` workers and returns results in suite order.
pub fn run_suite(suite: Vec<Experiment>, jobs: usize) -> Vec<ExperimentResult> {
    // Flatten to a global unit list, remembering (experiment, part) slots.
    type Meta = (
        &'static str,
        &'static str,
        fn(Vec<Partial>) -> String,
        usize,
    );
    let mut meta: Vec<Meta> = Vec::new();
    let mut slots: Vec<(usize, u64, UnitFn)> = Vec::new();
    for exp in suite {
        let ei = meta.len();
        meta.push((exp.id, exp.desc, exp.merge, exp.units.len()));
        for unit in exp.units {
            slots.push((ei, unit.cost, unit.run));
        }
    }
    let n = slots.len();
    let mut outcomes: Vec<Option<(Partial, Duration)>> = Vec::with_capacity(n);
    outcomes.resize_with(n, || None);

    if jobs <= 1 {
        // Pure serial path: canonical order, no threads at all.
        for (i, (_, _, run)) in slots.into_iter().enumerate() {
            let started = Instant::now();
            let partial = run();
            HASH_PROBES.fetch_add(sprite_sim::take_hash_probes(), Ordering::Relaxed);
            outcomes[i] = Some((partial, started.elapsed()));
        }
    } else {
        // Longest-cost-first order over a shared atomic cursor.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(slots[i].1), i));
        let work: Vec<Mutex<Option<UnitFn>>> = slots
            .iter_mut()
            .map(|(_, _, run)| {
                // Move each closure behind a mutex so any worker can take it.
                let placeholder: UnitFn = Box::new(|| Partial::Rendered(String::new()));
                Mutex::new(Some(std::mem::replace(run, placeholder)))
            })
            .collect();
        let results: Vec<Mutex<Option<(Partial, Duration)>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let workers = jobs.min(n.max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    if k >= order.len() {
                        break;
                    }
                    let gi = order[k];
                    let run = work[gi].lock().unwrap().take().expect("unit taken twice");
                    let started = Instant::now();
                    let partial = run();
                    HASH_PROBES.fetch_add(sprite_sim::take_hash_probes(), Ordering::Relaxed);
                    *results[gi].lock().unwrap() = Some((partial, started.elapsed()));
                });
            }
        });
        for (i, cell) in results.into_iter().enumerate() {
            outcomes[i] = cell.into_inner().unwrap();
        }
    }

    // Reassemble in canonical order.
    let mut by_exp: Vec<Vec<(Partial, Duration)>> = meta.iter().map(|_| Vec::new()).collect();
    let mut exp_of: Vec<usize> = Vec::with_capacity(n);
    // slots was consumed on the serial path; recover experiment indices from
    // the flattening order, which interleaves nothing: units of experiment i
    // all precede units of experiment i+1.
    {
        let mut i = 0;
        for (ei, m) in meta.iter().enumerate() {
            for _ in 0..m.3 {
                exp_of.push(ei);
                i += 1;
            }
        }
        debug_assert_eq!(i, n);
    }
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let (partial, took) = outcome.expect("every unit ran");
        by_exp[exp_of[i]].push((partial, took));
    }
    meta.into_iter()
        .zip(by_exp)
        .map(|((id, desc, merge, units), parts)| {
            let cpu = parts.iter().map(|(_, d)| *d).sum();
            let partials: Vec<Partial> = parts.into_iter().map(|(p, _)| p).collect();
            ExperimentResult {
                id,
                desc,
                rendered: merge(partials),
                units,
                cpu,
            }
        })
        .collect()
}

/// Appends one block of `experiments`' stdout to `out`: a rendered table,
/// its `  [tag]` line and a blank line.
pub fn push_block(out: &mut String, table: &str, tag: &str) {
    out.push_str(&format!("{table}\n  [{tag}]\n\n"));
}

/// The suite's stdout: the title, then each table tagged `[id: desc]`.
/// `experiments` appends the blocks of its extra flags after it.
pub fn render_suite(results: &[ExperimentResult]) -> String {
    let mut out = String::from("# Sprite process migration — reproduction tables\n\n");
    for r in results {
        push_block(&mut out, &r.rendered, &format!("{}: {}", r.id, r.desc));
    }
    out
}

/// Merge for single-unit experiments: unwrap the rendered table.
pub fn merge_single(mut partials: Vec<Partial>) -> String {
    match partials.pop() {
        Some(Partial::Rendered(s)) if partials.is_empty() => s,
        _ => unreachable!("single-unit experiment produced unexpected partials"),
    }
}

/// Merge for E10: cells arrive in canonical (size, architecture) order.
pub fn merge_e10(partials: Vec<Partial>) -> String {
    let rows: Vec<e10::ArchRow> = partials
        .into_iter()
        .map(|p| match p {
            Partial::E10Row(row) => row,
            _ => unreachable!("e10 unit produced a non-row partial"),
        })
        .collect();
    e10::render(&rows)
}

/// Merge for E11: replication reports combine into one month.
pub fn merge_e11(partials: Vec<Partial>) -> String {
    let reports: Vec<e11::MonthReport> = partials
        .into_iter()
        .map(|p| match p {
            Partial::E11Report(r) => r,
            _ => unreachable!("e11 unit produced a non-report partial"),
        })
        .collect();
    e11::render(&e11::merge(&reports), reports.len())
}
