//! F1 — fault sweep: migration under an unreliable network.
//!
//! The paper's mechanism chapters assume the network delivers; Chapter 3.6
//! and the DEMOS/MP comparison \[PM83\] discuss what happens when it does
//! not: an in-flight migration must abort cleanly back to its source, and a
//! process whose home (or residual-dependency) host dies is killed rather
//! than left half-alive. This sweep drives a fixed migration workload
//! through a [`FaultPlan`] at increasing drop rates — plus, once faults are
//! on at all, a timed partition and one host crash — and tabulates the
//! outcomes. The plan is seeded, so the whole sweep (including the rendered
//! table and the per-op fault breakdown) is a pure function of
//! `(seed, rate)` and replays byte-identically at any `--jobs` value.
//! `experiments` prints the sweep of `MAX_RATE` from [`SEED`].

use sprite_fs::SpritePath;
use sprite_net::{FaultPlan, FaultStats, HostId};
use sprite_sim::{SimDuration, SimTime};

use crate::runner::{Experiment, Report};
use crate::support::{
    fault_table_text, h, pages_for_mb, standard_cluster, standard_migrator, JsonObject, TableWriter,
};

/// Seed of every [`FaultPlan`] in the printed sweep.
pub const SEED: u64 = 42;
/// Top drop rate of the printed sweep.
pub(crate) const MAX_RATE: f64 = 0.1;

/// Hosts in the fault cluster (host 0 is the file server).
pub const HOSTS: usize = 8;
/// Migration attempts driven per sweep point.
pub(crate) const ATTEMPTS: usize = 12;
/// The host a nonzero-rate plan partitions away for a while.
pub(crate) const PARTITIONED_HOST: u32 = 5;
/// The host a nonzero-rate plan crashes mid-drive.
pub(crate) const CRASHED_HOST: u32 = 7;

/// One sweep point's outcome counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSweepRow {
    /// Random per-attempt drop probability.
    pub rate: f64,
    /// Migration attempts driven, one per spawned process.
    pub attempts: u64,
    /// Migrations that completed at the target.
    pub completed: u64,
    /// Migrations aborted after the freeze point and rolled back runnable
    /// at the source (a subset of `failures`).
    pub aborts: u64,
    /// Attempts that failed or were refused, including the aborts.
    pub failures: u64,
    /// Wire attempts lost (each charged a timeout at the sender).
    pub drops: u64,
    /// Retries performed after lost attempts.
    pub retries: u64,
    /// Sends that exhausted every attempt and surfaced an error.
    pub giveups: u64,
    /// Processes killed because a host they depended on crashed.
    pub fault_kills: u64,
    /// Processes still alive at the end — each verified resident on
    /// exactly one host.
    pub survivors: u64,
}

/// The whole sweep: rows per rate plus the merged per-op fault breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepReport {
    /// Seed every [`FaultPlan`] in the sweep was built from.
    pub seed: u64,
    /// One row per swept rate, in sweep order.
    pub rows: Vec<FaultSweepRow>,
    /// Per-op fault events merged across the whole sweep.
    pub faults: FaultStats,
}

/// Drives the migration workload once under `FaultPlan::new(seed, rate)`.
///
/// At `rate == 0` the plan is empty and every attempt must complete; at any
/// nonzero rate the plan also partitions host `PARTITIONED_HOST` for four
/// seconds and crashes host `CRASHED_HOST` mid-drive (the crash is applied
/// to the cluster with [`Cluster::crash_host`] at its scheduled instant, the
/// fail-stop model of Ch. 3.6).
///
/// [`Cluster::crash_host`]: sprite_kernel::Cluster::crash_host
pub fn run(seed: u64, rate: f64) -> (FaultSweepRow, FaultStats) {
    let (mut cluster, start) = standard_cluster(HOSTS);
    let mut migrator = standard_migrator(HOSTS);

    let mut plan = FaultPlan::new(seed, rate);
    if rate > 0.0 {
        plan = plan
            .with_partition(
                vec![h(PARTITIONED_HOST)],
                start + SimDuration::from_secs(2),
                start + SimDuration::from_secs(6),
            )
            .with_crash(h(CRASHED_HOST), start + SimDuration::from_secs(8));
    }
    let mut crashes: Vec<(HostId, SimTime)> = plan.crashes().to_vec();
    cluster.net.set_policy(Box::new(plan));

    let mut row = FaultSweepRow {
        rate,
        attempts: 0,
        completed: 0,
        aborts: 0,
        failures: 0,
        drops: 0,
        retries: 0,
        giveups: 0,
        fault_kills: 0,
        survivors: 0,
    };
    let mut t = start;
    for i in 0..ATTEMPTS {
        // One attempt per simulated second, so the partition window and the
        // crash instant both land inside the drive.
        t = t.max(start + SimDuration::from_secs(i as u64));
        while let Some(&(dead, at)) = crashes.first() {
            if at > t {
                break;
            }
            cluster.crash_host(at, dead);
            crashes.remove(0);
        }
        let home = h(1 + (i as u32 % 6));
        let mut target = h(1 + ((i as u32 + 3) % 7));
        if target == home {
            target = h(7);
        }
        // A spawn sends nothing (its swap files wait for a page-out), so
        // only a missing program could fail it.
        let (pid, spawned) = cluster
            .spawn(t, home, &SpritePath::new("/bin/sim"), pages_for_mb(0.1), 8)
            .expect("/bin/sim is installed");
        row.attempts += 1;
        match migrator.migrate(&mut cluster, spawned, pid, target) {
            Ok(report) => {
                row.completed += 1;
                t = report.resumed_at;
            }
            Err(e) => {
                if let Some(rpc) = e.rpc_failure() {
                    t = rpc.at();
                }
            }
        }
    }
    // Apply any crash the loop did not reach.
    for (dead, at) in crashes {
        cluster.crash_host(at.max(t), dead);
    }
    // A returning owner reclaims host 2: eviction retries transient drops
    // (and, past the retry limit, surfaces the failure we swallow here —
    // the sweep only tallies what the counters saw).
    cluster.host_mut(h(2)).console_active = true;
    let _ = migrator.evict_all(&mut cluster, t, h(2));

    let totals = migrator.totals();
    row.aborts = totals.aborts;
    row.failures = totals.failures;
    let faults = cluster.net.fault_stats().clone();
    row.drops = faults.total_drops();
    row.retries = faults.total_retries();
    row.giveups = faults.total_giveups();
    row.fault_kills = cluster.stats().fault_kills;

    // The chaos invariant: every surviving process is runnable on exactly
    // one host, and the cluster's residency lists agree with its PCBs.
    for p in cluster.processes() {
        if p.state == sprite_kernel::ProcState::Zombie {
            continue;
        }
        row.survivors += 1;
        let residencies = (0..HOSTS as u32)
            .filter(|&i| cluster.host(h(i)).resident().contains(&p.pid))
            .count();
        assert_eq!(residencies, 1, "{} resident on {residencies} hosts", p.pid);
        assert_eq!(cluster.locate(p.pid), Some(p.current), "{} lost", p.pid);
    }
    (row, faults)
}

/// Sweeps drop rates up to `max_rate`: `{0}` when `max_rate` is zero,
/// otherwise `{0, max_rate/10, max_rate/2, max_rate}`.
pub fn sweep(seed: u64, max_rate: f64) -> FaultSweepReport {
    let rates: Vec<f64> = if max_rate > 0.0 {
        vec![0.0, max_rate / 10.0, max_rate / 2.0, max_rate]
    } else {
        vec![0.0]
    };
    let mut rows = Vec::with_capacity(rates.len());
    let mut faults = FaultStats::new();
    for rate in rates {
        let (row, f) = run(seed, rate);
        faults.merge(&f);
        rows.push(row);
    }
    FaultSweepReport { seed, rows, faults }
}

/// Renders the sweep table.
pub fn render(report: &FaultSweepReport) -> String {
    let mut t = TableWriter::new(
        &format!(
            "F1: migration outcomes under injected faults (seed {})",
            report.seed
        ),
        &[
            "rate",
            "attempts",
            "completed",
            "aborts",
            "failures",
            "drops",
            "retries",
            "giveups",
            "crash-kills",
            "survivors",
        ],
    );
    for r in &report.rows {
        t.row(&[
            format!("{:.3}", r.rate),
            r.attempts.to_string(),
            r.completed.to_string(),
            r.aborts.to_string(),
            r.failures.to_string(),
            r.drops.to_string(),
            r.retries.to_string(),
            r.giveups.to_string(),
            r.fault_kills.to_string(),
            r.survivors.to_string(),
        ]);
    }
    t.note("every failed migration rolled back runnable at its source;");
    t.note("survivors are each resident on exactly one host (checked per run)");
    t.render()
}

/// F1 as a runner experiment: one unit sweeping up to `MAX_RATE` from
/// [`SEED`]. It prints the sweep, then the per-op fault table merged
/// across it.
pub fn experiment() -> Experiment {
    Experiment::single("f01", "fault-injection sweep", 10, || {
        let r = sweep(SEED, MAX_RATE);
        let faults = &r.faults;
        let tag = format!(
            "fault-table: {} drops, {} retries, {} giveups",
            faults.total_drops(),
            faults.total_retries(),
            faults.total_giveups()
        );
        let title = "Per-op fault events (merged across the sweep)";
        Report {
            blocks: vec![
                (render(&r), None),
                (fault_table_text(title, faults), Some(tag)),
            ],
            json: Some(("faults", json(&r))),
            ..Report::default()
        }
    })
}

/// The sweep's block of `experiments --json`.
fn json(r: &FaultSweepReport) -> JsonObject {
    JsonObject::new()
        .text("id", "f01")
        .text(
            "description",
            "fault-injection sweep: migration outcomes vs drop rate",
        )
        .num("seed", r.seed)
        .rows(
            "rows",
            r.rows.iter().map(|row| {
                JsonObject::new()
                    .num("rate", format!("{:.6}", row.rate))
                    .num("attempts", row.attempts)
                    .num("completed", row.completed)
                    .num("aborts", row.aborts)
                    .num("failures", row.failures)
                    .num("drops", row.drops)
                    .num("retries", row.retries)
                    .num("giveups", row.giveups)
                    .num("crash_kills", row.fault_kills)
                    .num("survivors", row.survivors)
            }),
        )
        .rows(
            "fault_table",
            r.faults.rows().map(|(op, row)| {
                JsonObject::new()
                    .text("op", op.label())
                    .num("drops", row.drops)
                    .num("partitions", row.partitions)
                    .num("crashes", row.crashes)
                    .num("retries", row.retries)
                    .num("giveups", row.giveups)
            }),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_is_fault_free_and_complete() {
        let (row, faults) = run(SEED, 0.0);
        assert_eq!(row.attempts, ATTEMPTS as u64);
        assert_eq!(row.completed, row.attempts);
        assert_eq!((row.aborts, row.failures, row.fault_kills), (0, 0, 0));
        assert!(faults.is_empty(), "rate 0 must inject nothing");
    }

    #[test]
    fn sweep_replays_identically_from_its_seed() {
        let a = sweep(7, 0.1);
        let b = sweep(7, 0.1);
        assert_eq!(a, b, "same seed, same sweep — rows and fault table");
    }

    #[test]
    fn faults_show_up_at_nonzero_rates() {
        let report = sweep(SEED, MAX_RATE);
        let top = report.rows.last().unwrap();
        assert!(top.drops > 0, "10% drop rate must lose something");
        assert!(
            top.retries > 0,
            "lost round-trip attempts must have been retried"
        );
        assert!(
            top.fault_kills > 0,
            "the scheduled crash must kill its residents/dependents"
        );
        assert!(
            top.completed + top.failures >= top.attempts,
            "every attempt is accounted for (evictions add failures only)"
        );
    }
}
