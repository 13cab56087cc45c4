//! The parallel runner's determinism contract: for any `--jobs` value the
//! merged, rendered output is byte-identical, because units are
//! self-contained (seeds fixed before any thread starts) and merging walks
//! canonical order. Exercised here on scaled-down versions of every
//! experiment that splits into several units (E10, E11, the E10 sweep, F2
//! and the audit), so it stays fast in debug builds.

use sprite_bench::audit::{self, AuditDrive};
use sprite_bench::experiments::{e10, e11, f02};
use sprite_bench::runner::{render_suite, run_suite, Experiment};
use sprite_sim::SimDuration;

const CELL: SimDuration = SimDuration::from_secs(300);

/// A miniature suite with the same unit decomposition as the full one:
/// one unit per E10, sweep or F2 cell, and one per forked E11 or audit
/// replication.
fn small_suite() -> Vec<Experiment> {
    vec![
        e10::experiment(&[10, 20], CELL, e10::FULL_SEED),
        e11::experiment(6, 1, e11::FULL_SEED, 3),
        e10::sweep_experiment(&[50], CELL, 13),
        f02::experiment(&[30, 600], &[0.25], f02::SEED),
        audit::experiment(AuditDrive {
            hosts: 4,
            days: 1,
            seed: 41,
            reps: 3,
            every: 200,
        }),
    ]
}

fn render_all(jobs: usize) -> String {
    let results = run_suite(small_suite(), jobs);
    for r in &results {
        assert_eq!(r.report.failure, None, "{} failed at --jobs {jobs}", r.id);
    }
    render_suite(&results)
}

#[test]
fn output_is_byte_identical_across_job_counts() {
    let serial = render_all(1);
    for table in ["E10:", "E11:", "E10 sweep:", "F2:", "Determinism audit"] {
        assert!(serial.contains(table), "sanity: {table} rendered");
    }
    for jobs in [2, 4, 8] {
        let parallel = render_all(jobs);
        assert_eq!(
            serial, parallel,
            "output with --jobs {jobs} diverged from serial"
        );
    }
}

#[test]
fn unit_decomposition_matches_serial_table() {
    // The per-cell / per-replication units merged back must render exactly
    // what the serial drives render.
    let tables: Vec<String> = run_suite(small_suite(), 4)
        .into_iter()
        .map(|mut r| r.report.blocks.remove(0).0)
        .collect();
    let rows = e10::run(&[10, 20], CELL, e10::FULL_SEED);
    assert_eq!(tables[0], e10::render(&rows));

    let reports: Vec<e11::MonthReport> = e11::replication_rngs(e11::FULL_SEED, 3)
        .into_iter()
        .map(|rng| e11::run_seeded(6, 1, rng))
        .collect();
    assert_eq!(tables[1], e11::render(&e11::merge(&reports), reports.len()));

    let cells = f02::run_grid(&[30, 600], &[0.25], f02::SEED);
    assert_eq!(tables[3], f02::render(&cells, &[0.25], f02::SEED));
}
