//! End-to-end properties of the F2 experiment: checkpoint/restart vs live
//! migration.
//!
//! Two claims are on the line. First, determinism: an F2 grid cell is a
//! pure function of `(mtbf, image_mb, seed)`, so the exact table bytes the
//! experiment renders must be identical whether the runner executes its
//! cells on one worker or on four, and the grid identical again on a
//! rerun.
//! Second, the crossover itself: on a flaky host (low MTBF) the bounded
//! work loss of periodic checkpointing must beat live migration's
//! lose-everything crash recovery, while on a reliable host migration's
//! zero steady-state cost must win — and Young's-formula a-priori
//! predictor must agree with the walked timelines at both extremes.

use sprite::migration::{preferred_mechanism, Mechanism};
use sprite::sim::SimDuration;
use sprite_bench::experiments::f02;
use sprite_bench::runner::{render_suite, run_suite};

mod common;

/// A small but two-axis grid: both MTBF extremes, two image sizes.
const MTBFS: [u64; 2] = [30, 3600];
const MBS: [f64; 2] = [0.25, 1.0];

#[test]
fn f02_grid_is_byte_identical_serial_and_fanned_for_every_seed() {
    let seeds = [f02::SEED, 7, 19];
    common::sweep(&seeds, 3, |&seed| {
        let stdout =
            |jobs| render_suite(&run_suite(vec![f02::experiment(&MTBFS, &MBS, seed)], jobs));
        let serial = stdout(1);
        assert_eq!(
            serial,
            stdout(4),
            "seed {seed}: the printed grid diverged between jobs=1 and jobs=4"
        );
        // The runner's cells are the serial grid's, crossover notes
        // included.
        let table = f02::render(&f02::run_grid(&MTBFS, &MBS, seed), &MBS, seed);
        assert!(
            serial.contains(&table),
            "seed {seed}: the runner's table is not the serial grid's"
        );
    });
}

#[test]
fn f02_reruns_are_byte_identical() {
    let first = f02::run_grid(&MTBFS, &MBS, f02::SEED);
    let second = f02::run_grid(&MTBFS, &MBS, f02::SEED);
    assert_eq!(first, second, "rerun of the same grid diverged");
}

#[test]
fn flaky_hosts_favor_checkpointing_and_reliable_hosts_favor_migration() {
    // The walked timelines: a host crashing every ~30s cannot finish the
    // work target by migration alone (every crash loses everything), while
    // an hour of MTBF makes checkpoint I/O pure overhead.
    let flaky = f02::cell(30, 1.0, f02::SEED);
    assert_eq!(
        flaky.winner,
        Mechanism::Checkpoint,
        "mtbf 30s: checkpointing must win ({flaky:?})"
    );
    assert!(
        flaky.migration.work_lost > flaky.ckpt.work_lost,
        "mtbf 30s: migration must lose more work than checkpointing"
    );
    let solid = f02::cell(3600, 1.0, f02::SEED);
    assert_eq!(
        solid.winner,
        Mechanism::Migrate,
        "mtbf 3600s: migration must win ({solid:?})"
    );
    assert!(
        solid.migration.bytes_moved < solid.ckpt.bytes_moved,
        "mtbf 3600s: migration must move fewer bytes than periodic imaging"
    );
    // The a-priori predictor agrees with both walked verdicts.
    assert_eq!(flaky.predicted, Mechanism::Checkpoint);
    assert_eq!(solid.predicted, Mechanism::Migrate);
}

#[test]
fn youngs_predictor_crosses_over_exactly_once() {
    // Crafted costs (checkpoint 2s, restart 5s, migration 1s, 10 minutes
    // of work at risk): checkpointing wins the flaky end, migration the
    // reliable end, and the preference never flips back as MTBF grows.
    let secs = SimDuration::from_secs;
    let pick = |mtbf: u64| preferred_mechanism(secs(mtbf), secs(2), secs(5), secs(1), secs(600));
    assert_eq!(pick(45), Mechanism::Checkpoint, "flaky host");
    assert_eq!(pick(500_000), Mechanism::Migrate, "reliable host");
    let mut migrating = false;
    for mtbf in (45..200_000).step_by(777) {
        match pick(mtbf) {
            Mechanism::Migrate => migrating = true,
            Mechanism::Checkpoint => assert!(
                !migrating,
                "checkpointing regained the lead at mtbf {mtbf}s"
            ),
        }
    }
    assert!(migrating, "migration never took over");
}
