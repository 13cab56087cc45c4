//! Parallel experiment runner.
//!
//! Experiments decompose into independent **units** (whole experiments for
//! the cheap ones; per-cell drives for E10, its sweep and F2;
//! per-replication runs for E11 and the audit). Units carry a relative
//! cost hint; the runner executes them across `jobs` worker threads
//! (longest-cost-first so the big units start immediately) and then
//! **merges** each experiment's partial results back in canonical order
//! into its [`Report`]: its stdout blocks, its JSON block, its stderr
//! lines and its verdict.
//!
//! # Determinism contract
//!
//! Rendered output is byte-identical for every `--jobs` value because:
//!
//! 1. every unit is self-contained — it builds its own network, cluster and
//!    RNG from a seed fixed before any thread starts (E11's and the
//!    audit's replication RNGs are forked *serially* from the master
//!    stream);
//! 2. threads only decide *when* a unit runs, never *what* it computes;
//! 3. merging walks experiments and their parts in canonical (declaration)
//!    order, so the assembled tables do not depend on completion order;
//! 4. wall-clock timings go to stderr and the JSON sidecar, never stdout.

use std::any::Any;
use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::support::JsonObject;

/// Hash-map probes flushed from worker threads after each unit. The probe
/// counter itself is thread-local (see `sprite_sim::detmap`), so the runner
/// drains it at unit boundaries — the only points where it knows which
/// thread did the hashing.
static HASH_PROBES: AtomicU64 = AtomicU64::new(0);

/// Total hash-map probes observed so far: everything flushed by runner
/// units plus whatever the calling thread has accumulated since its last
/// flush (for example in a merge).
pub fn hash_probes_total() -> u64 {
    HASH_PROBES.load(Ordering::Relaxed) + sprite_sim::hash_probes()
}

/// What one experiment prints and records once its units are merged.
#[derive(Debug, Default)]
pub struct Report {
    /// Its stdout blocks in print order: a table and its tag. A `None` tag
    /// reads `id: desc`.
    pub blocks: Vec<(String, Option<String>)>,
    /// Its block of `experiments --json`: the top-level key and the object
    /// (the runner adds its `wall_seconds`).
    pub json: Option<(&'static str, JsonObject)>,
    /// Lines it adds to stderr after the timings: host time and
    /// partition-dependent counters, which stdout must not carry.
    pub stderr: Vec<String>,
    /// Why the experiment failed its own check. `experiments` exits 1
    /// after printing and writing its JSON.
    pub failure: Option<String>,
}

impl Report {
    /// A report of one table tagged `id: desc`.
    pub fn table(table: String) -> Self {
        Self {
            blocks: vec![(table, None)],
            ..Self::default()
        }
    }
}

/// A unit's result, boxed so that one pool runs every experiment's units.
/// [`Experiment::new`] unboxes it as the type its units return.
type Part = Box<dyn Any + Send>;

/// One independently executable piece of an experiment.
struct Unit {
    /// Relative cost hint (any monotone scale) for longest-first dispatch.
    cost: u64,
    /// The work: self-contained, thread-safe by construction.
    run: Box<dyn FnOnce() -> Part + Send>,
}

/// An experiment: its units plus the merge that turns their results into
/// its report.
pub struct Experiment {
    /// Short identifier (`e01` … `a07`, `m01`, `audit`, …).
    pub id: &'static str,
    /// One-line description.
    pub desc: &'static str,
    units: Vec<Unit>,
    merge: Box<dyn FnOnce(Vec<Part>) -> Report>,
}

impl Experiment {
    /// An experiment whose units each return a `T`: `units` pairs each
    /// unit's cost hint with its work, and `merge` receives the results in
    /// unit order.
    pub fn new<T, F, M>(
        id: &'static str,
        desc: &'static str,
        units: impl IntoIterator<Item = (u64, F)>,
        merge: M,
    ) -> Self
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
        M: FnOnce(Vec<T>) -> Report + 'static,
    {
        let units = units
            .into_iter()
            .map(|(cost, work)| Unit {
                cost,
                run: Box::new(move || Box::new(work()) as Part),
            })
            .collect();
        let merge = Box::new(move |parts: Vec<Part>| {
            merge(
                parts
                    .into_iter()
                    .map(|part| {
                        *part
                            .downcast::<T>()
                            .expect("a unit returns its experiment's type")
                    })
                    .collect(),
            )
        });
        Self {
            id,
            desc,
            units,
            merge,
        }
    }

    /// A one-unit experiment whose unit builds the report itself.
    pub fn single(
        id: &'static str,
        desc: &'static str,
        cost: u64,
        run: impl FnOnce() -> Report + Send + 'static,
    ) -> Self {
        Self::new(id, desc, [(cost, run)], |mut reports: Vec<Report>| {
            reports.pop().expect("the unit ran")
        })
    }
}

/// A finished experiment: its report plus cost accounting.
pub struct ExperimentResult {
    /// Short identifier.
    pub id: &'static str,
    /// One-line description.
    pub desc: &'static str,
    /// What it prints and records (stdout identical for every `jobs`).
    pub report: Report,
    /// Number of units the experiment split into.
    pub units: usize,
    /// Wall time summed over the experiment's units (CPU-like: units may
    /// overlap on different workers).
    pub cpu: Duration,
}

/// Executes `suite` with `jobs` workers and returns results in suite order.
pub fn run_suite(suite: Vec<Experiment>, jobs: usize) -> Vec<ExperimentResult> {
    // Flatten to one unit list; `owner[i]` is unit i's experiment.
    let mut owner = Vec::new();
    let mut work = Vec::new();
    let mut merges = Vec::new();
    for (e, exp) in suite.into_iter().enumerate() {
        for unit in exp.units {
            owner.push(e);
            work.push((unit.cost, Mutex::new(Some(unit.run))));
        }
        merges.push((exp.id, exp.desc, exp.merge));
    }
    let results: Vec<Mutex<Option<(Part, Duration)>>> =
        work.iter().map(|_| Mutex::new(None)).collect();
    let run = |i: usize| {
        let unit = work[i].1.lock().unwrap().take().expect("unit taken twice");
        let started = Instant::now();
        let part = unit();
        HASH_PROBES.fetch_add(sprite_sim::take_hash_probes(), Ordering::Relaxed);
        *results[i].lock().unwrap() = Some((part, started.elapsed()));
    };
    if jobs <= 1 {
        // Pure serial path: canonical order, no threads at all.
        for i in 0..work.len() {
            run(i);
        }
    } else {
        // Longest-cost-first order over a shared atomic cursor.
        let mut order: Vec<usize> = (0..work.len()).collect();
        order.sort_by_key(|&i| (Reverse(work[i].0), i));
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(work.len()) {
                scope.spawn(|| {
                    while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        run(i);
                    }
                });
            }
        });
    }

    // Reassemble in canonical order: units of experiment e all precede
    // those of experiment e + 1.
    let mut parts: Vec<Vec<(Part, Duration)>> = merges.iter().map(|_| Vec::new()).collect();
    for (e, slot) in owner.into_iter().zip(results) {
        parts[e].push(slot.into_inner().unwrap().expect("every unit ran"));
    }
    merges
        .into_iter()
        .zip(parts)
        .map(|((id, desc, merge), parts)| {
            let units = parts.len();
            let cpu = parts.iter().map(|(_, took)| *took).sum();
            let report = merge(parts.into_iter().map(|(part, _)| part).collect());
            ExperimentResult {
                id,
                desc,
                report,
                units,
                cpu,
            }
        })
        .collect()
}

/// `experiments`' stdout: the title, then every block of every result,
/// each table followed by its `  [tag]` line and a blank line.
pub fn render_suite(results: &[ExperimentResult]) -> String {
    let mut out = String::from("# Sprite process migration — reproduction tables\n\n");
    for r in results {
        for (table, tag) in &r.report.blocks {
            let tag = tag
                .clone()
                .unwrap_or_else(|| format!("{}: {}", r.id, r.desc));
            out.push_str(&format!("{table}\n  [{tag}]\n\n"));
        }
    }
    out
}

/// `experiments --json`'s document: the run's `jobs` and
/// `total_wall_seconds`, one entry per experiment that ran, then each
/// experiment's own block with its `wall_seconds` (the summed wall time of
/// its units) added.
pub fn render_json(results: &[ExperimentResult], jobs: usize, total_wall_seconds: f64) -> String {
    let mut doc = JsonObject::new()
        .num("jobs", jobs)
        .num("total_wall_seconds", format!("{total_wall_seconds:.3}"))
        .rows(
            "experiments",
            results.iter().map(|r| {
                JsonObject::new()
                    .text("id", r.id)
                    .text("description", r.desc)
                    .num("units", r.units)
                    .num("cpu_seconds", format!("{:.3}", r.cpu.as_secs_f64()))
            }),
        );
    for r in results {
        if let Some((key, block)) = &r.report.json {
            let wall = format!("{:.3}", r.cpu.as_secs_f64());
            doc = doc.object(key, block.clone().num("wall_seconds", wall));
        }
    }
    doc.render() + "\n"
}
