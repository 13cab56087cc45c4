//! The repository benchmark: four workloads that split host time by layer.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     compare <parent.jsonl> <change.jsonl>
//! cargo test --manifest-path perfbench/Cargo.toml
//! ```
//!
//! A run performs operations until `--seconds` (default 15) have passed and
//! prints two JSON lines: a detailed record (workload, seed, cores, size
//! parameters, operation counts, digest, check failures, every metric with
//! its unit and `sim`/`wall` kind, per-op host time), then the summary
//! `{"correct", "attempted", "failed", "metrics"}`. `attempted` counts
//! timed operations and `failed` those in which a layer call returned an
//! error; failures are counted, never unwrapped. A failed correctness check
//! makes the run exit 1. Every workload runs in one process on one thread.
//!
//! # Workloads
//!
//! | workload | loop | operation | epoch (fresh world) |
//! |---|---|---|---|
//! | `cell_month` | open: each host's user spawns jobs on its own regime clock | 10 simulated minutes of 5000 hosts | 2 simulated hours |
//! | `month_in_life` | open: users launch jobs on diurnal traces | one simulated day at 120 hosts | a 6-day replication |
//! | `pmake_build` | closed: pmake's job window waits for completions | one 400-file build | one build |
//! | `migrate_evict` | closed: one client | one process moved and checked | 40 moves |
//!
//! Each workload's module docs say why it was chosen and which layers it
//! loads. Epochs are seeded from `(seed, epoch)`, so every epoch is the
//! same kind of work. `migrate_evict` needs them anyway: `Cluster::exit`
//! never unlinks a process's `/swap` backing files, so one long-lived
//! cluster would grow by about 1.5 MB of host memory per move. That leak,
//! and the process-wide `SpritePath` interner that keeps every swap-file
//! name, belong to the kernel and FS crates, outside the benchmark.
//!
//! # End-to-end metrics
//!
//! - `setup_s`: median host time to build an epoch's world (cluster,
//!   traces, warmed selector, sources); every epoch of the run is a sample.
//! - `peak_rss_mb`: peak resident memory when the sample (below) completes.
//! - `ops_per_s`: operations per host second, the median over rounds of
//!   whole epochs lasting at least 0.5 s each.
//! - `sim_job_ms_mean` and `sim_msgs_per_job`: the simulated latency and
//!   message cost of a job, where a job is a batch job's stay in run queues
//!   (`cell_month`, by Little's law over chunk-end queue lengths), a user
//!   job's start delay (`month_in_life`), a build's makespan
//!   (`pmake_build`) or a moved process's frozen time (`migrate_evict`).
//!
//! Simulated metrics, work counters and the `digest` (an FNV fold of every
//! simulated statistic and the engines' state digests) cover a fixed
//! leading sample of epochs, which always runs to the end, so they depend
//! on the seed alone, never on host speed.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A traced run times the calls the harness makes into each layer (see
//! [`probe`]) for half of `--seconds`, then repeats the same operations
//! untraced to measure the tracing overhead; both runs must give the same
//! digest, and the layers' self times must add up to the traced wall time
//! within 2%. Spans and per-call totals are written as JSON lines to
//! `traces/<workload>-<seed>.jsonl` beside the executable. Which layer
//! metric should move which end-to-end metric:
//!
//! - `sim.self_frac`, `sim.events_per_s`, `sim.buckets_scanned_per_event`,
//!   `sim.overflow_migrations`: `ops_per_s` of `cell_month`, barely of
//!   `month_in_life`. An engine change moves `cell_month` only.
//! - `kernel.self_frac` (`HostCell` handlers in `cell_month`; spawn, exit
//!   and bursts in `month_in_life`), `kernel.pcb_high_water`, and
//!   `kernel.stale_lookups`, which must stay 0.
//! - `hostsel.self_frac`, `hostsel.grant_ratio`, `hostsel.bytes`:
//!   `ops_per_s` of `month_in_life`, and its `sim_job_ms_mean` through
//!   select latency. A hostsel change moves `month_in_life` only.
//! - `workloads.self_frac` (trace generation, activity lookups): `setup_s`
//!   and `ops_per_s` of `month_in_life`.
//! - `core.self_frac`, `core.phase_*_frac`, `core.migrations`,
//!   `core.evictions`, `core.failures`, `core.aborts`: `sim_job_ms_mean`
//!   and `ops_per_s` of `migrate_evict` and `month_in_life`.
//! - `vm.self_frac`, `vm.pages_moved`, `vm.bytes_moved`,
//!   `vm.ckpt_image_bytes`: `ops_per_s` and `sim_job_ms_mean` of
//!   `migrate_evict`.
//! - `pmake.self_frac` (including the FS work `run_build` does inside),
//!   `fs.*`, `pmake.remote_ratio`: `ops_per_s` and `sim_job_ms_mean` of
//!   `pmake_build`. An FS read-path change moves `pmake_build` and must not
//!   worsen `migrate_evict`.
//! - `net.*` and `net.rpc.<op>.{calls,bytes}`: `sim_msgs_per_job` of every
//!   workload but `cell_month`, whose messages are `sim.messages`.
//! - `bench.harness_self_s`, `bench.self_frac`: harness work in no layer
//!   call; `bench.trace_overhead_frac`: traced over untraced wall, minus 1.

mod cell_month;
mod compare;
mod json;
mod measure;
mod migrate_evict;
mod month_in_life;
mod pmake_build;
mod probe;
mod report;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use measure::{quantile, Budget, Outcome};
use probe::{NoProbe, Probe, Tracer};
use report::{end_to_end, metrics_object, per_layer, Metric};

/// Traced layer self times must add up to the traced wall within this.
const ACCOUNTING_TOLERANCE: f64 = 0.02;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    CellMonth,
    MonthInLife,
    PmakeBuild,
    MigrateEvict,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::CellMonth,
        Workload::MonthInLife,
        Workload::PmakeBuild,
        Workload::MigrateEvict,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::CellMonth => "cell_month",
            Workload::MonthInLife => "month_in_life",
            Workload::PmakeBuild => "pmake_build",
            Workload::MigrateEvict => "migrate_evict",
        }
    }

    fn default_seed(self) -> u64 {
        match self {
            Workload::CellMonth => 53,
            Workload::MonthInLife => 47,
            Workload::PmakeBuild => 5,
            Workload::MigrateEvict => 9,
        }
    }

    /// The size parameters, for the output record.
    fn size(self) -> String {
        match self {
            Workload::CellMonth => format!("{:?}", cell_month::FULL),
            Workload::MonthInLife => format!("{:?}", month_in_life::FULL),
            Workload::PmakeBuild => format!("{:?}", pmake_build::FULL),
            Workload::MigrateEvict => format!("{:?}", migrate_evict::FULL),
        }
    }

    fn run<P: Probe>(self, seed: u64, budget: Budget, probe: &P) -> Outcome {
        match self {
            Workload::CellMonth => cell_month::run(seed, &cell_month::FULL, budget, probe),
            Workload::MonthInLife => month_in_life::run(seed, &month_in_life::FULL, budget, probe),
            Workload::PmakeBuild => pmake_build::run(seed, &pmake_build::FULL, budget, probe),
            Workload::MigrateEvict => migrate_evict::run(seed, &migrate_evict::FULL, budget, probe),
        }
    }
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: benchmark --workload <cell_month|month_in_life|pmake_build|migrate_evict> \
[--seed <u64>] [--seconds <1..=600>] [--trace <0|1>]\n       benchmark compare <parent.jsonl> <change.jsonl>";

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
    })
}

/// What both kinds of run print.
struct Record {
    ops: usize,
    failed: u64,
    sample_jobs: u64,
    digest: u64,
    checks_run: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    /// Median and 90th percentile of per-operation host time, in ms.
    op_ms: [f64; 2],
    trace_file: Option<String>,
}

fn record_of(out: &Outcome, metrics: Vec<Metric>) -> Record {
    let op_ms: Vec<f64> = out.op_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let mut failures = out.checks.failures.clone();
    if !out.sample_complete {
        failures.push("the run ended before its sample was complete".into());
    }
    Record {
        ops: out.op_ns.len(),
        failed: out.failed,
        sample_jobs: out.sample.jobs,
        digest: out.digest(),
        checks_run: out.checks.run,
        failures,
        metrics,
        op_ms: [quantile(&op_ms, 0.5), quantile(&op_ms, 0.9)],
        trace_file: None,
    }
}

fn untraced(o: &Options) -> Record {
    let deadline = Instant::now() + Duration::from_secs(o.seconds);
    let out = o.workload.run(o.seed, Budget::Until(deadline), &NoProbe);
    let metrics = end_to_end(&out);
    record_of(&out, metrics)
}

fn traced(o: &Options) -> Record {
    let tracer = Tracer::default();
    let half = Duration::from_secs_f64(o.seconds as f64 / 2.0);
    let traced = o
        .workload
        .run(o.seed, Budget::Until(Instant::now() + half), &tracer);
    let plain = o
        .workload
        .run(o.seed, Budget::Ops(traced.op_ns.len()), &NoProbe);
    let mut rec = record_of(&traced, per_layer(&tracer, &traced, &plain));
    rec.checks_run += plain.checks.run;
    rec.failures.extend(plain.checks.failures.iter().cloned());
    if plain.digest() != rec.digest || plain.op_ns.len() != rec.ops {
        rec.failures
            .push("the traced and untraced runs of the same operations differ".into());
    }
    let attributed: u64 = tracer.self_ns().iter().sum();
    let gap = (attributed as f64 - traced.elapsed_ns as f64).abs() / traced.elapsed_ns as f64;
    if gap > ACCOUNTING_TOLERANCE {
        rec.failures.push(format!(
            "layer self times cover {attributed} ns of {} ns traced wall",
            traced.elapsed_ns
        ));
    }
    rec.trace_file = std::env::current_exe().ok().and_then(|exe| {
        let dir = exe.parent()?.join("traces");
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("{}-{}.jsonl", o.workload.name(), o.seed));
        std::fs::write(&path, tracer.to_jsonl()).ok()?;
        Some(path.display().to_string())
    });
    rec
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return compare::main(&args[1..]);
    }
    let o = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rec = if o.trace { traced(&o) } else { untraced(&o) };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"cores\": {cores}, \"threads\": 1, \"seconds\": {}, \"trace\": {}, \"size\": {}, \"ops_attempted\": {}, \"ops_failed\": {}, \"sample_jobs\": {}, \"digest\": \"{:016x}\", \"checks_run\": {}, \"check_failures\": [{}], \"metrics\": {}, \"op_ms\": {{\"p50\": {}, \"p90\": {}, \"n\": {}}}, \"trace_file\": {}}}",
        o.workload.name(),
        o.seed,
        o.seconds,
        o.trace,
        json::quote(&o.workload.size()),
        rec.ops,
        rec.failed,
        rec.sample_jobs,
        rec.digest,
        rec.checks_run,
        rec.failures
            .iter()
            .map(|f| json::quote(f))
            .collect::<Vec<_>>()
            .join(", "),
        metrics_object(&rec.metrics, true),
        rec.op_ms[0],
        rec.op_ms[1],
        rec.ops,
        rec.trace_file.as_deref().map_or("null".into(), json::quote),
    );
    let correct = rec.failures.is_empty();
    for f in &rec.failures {
        eprintln!("check failed: {f}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        rec.ops.max(1),
        rec.failed,
        metrics_object(&rec.metrics, false)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `w` at a size small enough for a unit test.
    fn tiny<P: Probe>(w: Workload, seed: u64, budget: Budget, probe: &P) -> Outcome {
        match w {
            Workload::CellMonth => {
                let size = cell_month::Size {
                    hosts: 60,
                    epoch_hours: 2,
                    chunk_minutes: 10,
                    sample_epochs: 1,
                };
                cell_month::run(seed, &size, budget, probe)
            }
            Workload::MonthInLife => {
                let size = month_in_life::Size {
                    hosts: 8,
                    days: 2,
                    sample_reps: 1,
                };
                month_in_life::run(seed, &size, budget, probe)
            }
            Workload::PmakeBuild => {
                let size = pmake_build::Size {
                    hosts: 6,
                    fs_shards: 2,
                    files: 8,
                    sample_builds: 2,
                };
                pmake_build::run(seed, &size, budget, probe)
            }
            Workload::MigrateEvict => {
                let size = migrate_evict::Size {
                    hosts: 6,
                    fs_shards: 2,
                    epoch_moves: 20,
                    sample_epochs: 1,
                };
                migrate_evict::run(seed, &size, budget, probe)
            }
        }
    }

    /// Exactly the sample: a deadline already past stops right after it.
    fn sample_only() -> Budget {
        Budget::Until(Instant::now())
    }

    fn checks_pass_and_runs_repeat(w: Workload) {
        let a = tiny(w, 1, sample_only(), &NoProbe);
        assert!(a.checks.failures.is_empty(), "{:?}", a.checks.failures);
        assert!(a.checks.run > 0);
        assert!(a.sample_complete);
        assert_eq!(a.failed, 0);
        assert!(a.sample.jobs > 0 && a.sample.messages > 0);
        let b = tiny(w, 1, sample_only(), &NoProbe);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.op_ns.len(), b.op_ns.len());
        assert_eq!(a.sample.job_ms_mean(), b.sample.job_ms_mean());
        assert_eq!(a.sample.msgs_per_job(), b.sample.msgs_per_job());
    }

    fn seed_changes_digest(w: Workload) {
        let a = tiny(w, 1, sample_only(), &NoProbe);
        let b = tiny(w, 2, sample_only(), &NoProbe);
        assert_ne!(a.digest(), b.digest());
    }

    fn traced_and_untraced_agree(w: Workload) {
        let plain = tiny(w, 3, sample_only(), &NoProbe);
        let tracer = Tracer::default();
        let traced = tiny(w, 3, Budget::Ops(plain.op_ns.len()), &tracer);
        assert!(traced.checks.failures.is_empty());
        assert_eq!(traced.digest(), plain.digest());
        assert_eq!(traced.op_ns.len(), plain.op_ns.len());
        let attributed: u64 = tracer.self_ns().iter().sum();
        let gap = attributed.abs_diff(traced.elapsed_ns) as f64 / traced.elapsed_ns as f64;
        assert!(gap <= ACCOUNTING_TOLERANCE, "accounting gap {gap}");
        let layers = per_layer(&tracer, &traced, &plain);
        let mut names: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), layers.len(), "metric names are unique");
    }

    #[test]
    fn cell_month_checks_pass_and_runs_repeat() {
        checks_pass_and_runs_repeat(Workload::CellMonth);
    }

    #[test]
    fn month_in_life_checks_pass_and_runs_repeat() {
        checks_pass_and_runs_repeat(Workload::MonthInLife);
    }

    #[test]
    fn pmake_build_checks_pass_and_runs_repeat() {
        checks_pass_and_runs_repeat(Workload::PmakeBuild);
    }

    #[test]
    fn migrate_evict_checks_pass_and_runs_repeat() {
        checks_pass_and_runs_repeat(Workload::MigrateEvict);
    }

    #[test]
    fn another_seed_changes_every_digest() {
        for w in Workload::ALL {
            seed_changes_digest(w);
        }
    }

    #[test]
    fn traced_and_untraced_runs_agree() {
        for w in Workload::ALL {
            traced_and_untraced_agree(w);
        }
    }

    #[test]
    fn options_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_options(&args("--workload pmake_build --seconds 3 --trace 1")).unwrap();
        assert_eq!(o.workload, Workload::PmakeBuild);
        assert_eq!(o.seed, 5);
        assert_eq!(o.seconds, 3);
        assert!(o.trace);
        assert!(parse_options(&args("--workload nope")).is_err());
        assert!(parse_options(&args("--workload cell_month --trace 2")).is_err());
        assert!(parse_options(&args("--seed 3")).is_err());
        assert!(parse_options(&args("--workload cell_month --seconds")).is_err());
    }

    /// `BENCHMARK.json` names exactly the metrics the benchmark prints.
    #[test]
    fn spec_matches_the_printed_metrics() {
        let spec = json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let field = |e: &json::Value, key: &str| -> String {
            e.get(key)
                .and_then(json::Value::as_str)
                .unwrap_or("")
                .to_string()
        };
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .expect("key present")
                .as_array()
                .iter()
                .map(|e| (field(e, "name"), field(e, "unit")))
                .collect()
        };
        let printed = |ms: Vec<Metric>| -> Vec<(String, String)> {
            ms.into_iter()
                .map(|m| (m.name, m.unit.to_string()))
                .collect()
        };
        let out = tiny(Workload::PmakeBuild, 1, sample_only(), &NoProbe);
        assert_eq!(listed("end_to_end"), printed(end_to_end(&out)));
        assert_eq!(
            listed("per_layer"),
            printed(per_layer(&Tracer::default(), &out, &out))
        );
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
