//! F2 — checkpoint/restart vs live migration under crash schedules.
//!
//! Chapter 2.2 dismisses checkpoint/restart for Sprite's *transparency*
//! goals, but says nothing about *availability*: on a host that crashes
//! every few minutes, a mechanism that bounds work loss beats one that
//! preserves identity and loses everything. This experiment maps the
//! crossover. Each cell measures the real mechanism costs on a sharded
//! cluster — one typed checkpoint (`ckpt-write` traffic) plus a fail-stop
//! crash and an image restart (`ckpt-restore` traffic through the shard
//! group), and one live migration — then walks a deterministic
//! failure/recovery timeline for both arms until a fixed work target
//! completes: the checkpoint arm checkpoints every Young interval and
//! restarts from its last image after each crash; the migration arm runs
//! bare, pays a cheap live migration at every planned eviction, and
//! respawns from scratch when a crash beats it. Every cell is a pure
//! function of `(mtbf, image_mb, seed)`, so the grid's cells run as
//! separate runner units on any worker and merge by index
//! byte-identically.

use sprite_core::{image_path, preferred_mechanism, restart_from_image, young_interval, Mechanism};
use sprite_fs::SpritePath;
use sprite_sim::{DetRng, SimDuration};
use sprite_vm::CkptStrategy;

use crate::runner::{Experiment, Report};
use crate::support::{
    dirty_heap, h, pages_for_mb, sharded_cluster, standard_migrator, TableWriter,
};

/// Hosts per measurement cluster. Hosts 0 and 1 are the FS shard servers;
/// the measured process lives on 2..5 so a fail-stop crash never takes an
/// image shard with it.
pub const HOSTS: usize = 6;
/// FS shards exporting `/` (and thus striping checkpoint images).
pub(crate) const FS_SHARDS: usize = 2;
/// The printed grid's MTBFs, seconds.
pub(crate) const MTBFS_SECS: [u64; 4] = [30, 120, 600, 3600];
/// The printed grid's process images, megabytes of dirty heap.
pub(crate) const IMAGE_MBS: [f64; 3] = [0.25, 1.0, 4.0];
/// Useful work each arm must complete, seconds.
pub(crate) const WORK_TARGET_SECS: u64 = 240;
/// Planned evictions (returning owners) arrive this often, elapsed time.
pub(crate) const OWNER_RETURN_SECS: u64 = 60;
/// Makespan cap as a multiple of the work target; an arm that cannot
/// finish by then is censored at the cap (low-MTBF migration, typically).
pub(crate) const CAP_FACTOR: u64 = 50;
/// The printed grid's seed for the walk's crash jitter.
pub const SEED: u64 = 42;

/// Mechanism costs measured on the real cluster, per image size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredCosts {
    /// One checkpoint's freeze time (image write through `ckpt-write`).
    pub ckpt_cost: SimDuration,
    /// Crash-to-runnable restart from the image (spawn + `ckpt-restore`).
    pub recovery_cost: SimDuration,
    /// One live migration, freeze to resume.
    pub migrate_cost: SimDuration,
    /// Spawning the process from scratch (the migration arm's crash
    /// "recovery": all work lost, program reloaded).
    pub respawn_cost: SimDuration,
    /// Checkpoint image length on the FS.
    pub image_bytes: u64,
    /// Wire bytes one live migration moved.
    pub migrate_bytes: u64,
}

/// Measures both mechanisms once for `image_mb` of dirty heap. Each
/// measurement gets its own pristine sharded cluster so neither arm sees
/// the other's cache or load state.
pub fn measure(image_mb: f64) -> MeasuredCosts {
    let heap_pages = pages_for_mb(image_mb);

    // Live migration arm: dirty the heap, move host 2 -> 3, count wire
    // bytes attributable to the move alone.
    let (mut c, t) = sharded_cluster(HOSTS, FS_SHARDS);
    let spawn_from = t;
    let (pid, t) = c
        .spawn(t, h(2), &SpritePath::new("/bin/sim"), heap_pages, 8)
        .expect("spawn");
    let respawn_cost = t.elapsed_since(spawn_from);
    let t = dirty_heap(&mut c, t, pid, image_mb);
    let mut migrator = standard_migrator(HOSTS);
    let bytes_before = c.net.stats().bytes;
    let report = migrator.migrate(&mut c, t, pid, h(3)).expect("migrate");
    let migrate_cost = report.total_time;
    let migrate_bytes = c.net.stats().bytes - bytes_before;

    // Checkpoint arm: dirty the same heap, write one full image, then the
    // PR-4 fail-stop crash kills the host and the image rebuilds the
    // process elsewhere through the shard group.
    let (mut c, t) = sharded_cluster(HOSTS, FS_SHARDS);
    let (pid, t) = c
        .spawn(t, h(2), &SpritePath::new("/bin/sim"), heap_pages, 8)
        .expect("spawn");
    let t = dirty_heap(&mut c, t, pid, image_mb);
    let path = image_path(pid);
    let mut space = c.pcb_mut(pid).expect("pid").space.take().expect("space");
    let (image, ck) = sprite_vm::checkpoint(
        &mut space,
        CkptStrategy::FullImage,
        &mut c.fs,
        &mut c.net,
        t,
        h(2),
        path.clone(),
    )
    .expect("checkpoint");
    c.pcb_mut(pid).expect("pid").space = Some(space);
    let t = ck.completed_at;
    c.crash_host(t, h(2));
    let (_, restore) = restart_from_image(
        &mut c,
        t,
        h(3),
        &SpritePath::new("/bin/sim"),
        heap_pages,
        8,
        &path,
    )
    .expect("restart from image");
    let recovery_cost = restore.resumed_at.elapsed_since(t);

    MeasuredCosts {
        ckpt_cost: ck.freeze_time,
        recovery_cost,
        migrate_cost,
        respawn_cost,
        image_bytes: image.image_bytes,
        migrate_bytes,
    }
}

/// One arm's walked outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArmOutcome {
    /// Start to work-target completion (capped — see `capped`).
    pub makespan: SimDuration,
    /// Image/migration bytes the arm moved over the whole timeline.
    pub bytes_moved: u64,
    /// Work redone after crashes.
    pub work_lost: SimDuration,
    /// Fail-stop crashes survived.
    pub crashes: u64,
    /// The arm hit the makespan cap before finishing.
    pub capped: bool,
}

/// Draws the next time-to-failure: uniform in `[0.5, 1.5) × mtbf`, so the
/// mean is the MTBF but the schedule has deterministic, seeded jitter.
fn next_failure(rng: &mut DetRng, mtbf: f64) -> f64 {
    mtbf * (0.5 + rng.uniform_f64())
}

/// Walks one arm's timeline. `ckpt_interval` is `Some(τ)` for the
/// checkpoint arm (checkpoint every τ of accrued work, restart from the
/// image after a crash) and `None` for the migration arm (no steady-state
/// cost, crash loses everything accrued).
fn walk(
    costs: &MeasuredCosts,
    mtbf_secs: u64,
    seed: u64,
    ckpt_interval: Option<f64>,
) -> ArmOutcome {
    let mtbf = mtbf_secs as f64;
    let target = WORK_TARGET_SECS as f64;
    let owner_every = OWNER_RETURN_SECS as f64;
    let cap = (WORK_TARGET_SECS * CAP_FACTOR) as f64;
    let c = costs.ckpt_cost.as_secs_f64();
    let r = costs.recovery_cost.as_secs_f64();
    let m = costs.migrate_cost.as_secs_f64();

    let mut rng = DetRng::seed_from(seed ^ mtbf_secs.rotate_left(17));
    let mut t = 0.0; // elapsed wall time
    let mut done = 0.0; // completed useful work
    let mut unsaved = 0.0; // work since the last durable image (ckpt arm)
    let mut next_crash = next_failure(&mut rng, mtbf);
    let mut next_owner = owner_every;
    let mut out = ArmOutcome {
        makespan: SimDuration::ZERO,
        bytes_moved: 0,
        work_lost: SimDuration::ZERO,
        crashes: 0,
        capped: false,
    };
    let mut lost = 0.0;

    while done < target {
        if t >= cap {
            out.capped = true;
            t = cap;
            break;
        }
        // The next event is whichever comes first: finishing, the next
        // periodic checkpoint, the next planned eviction, or the crash.
        let to_finish = target - done;
        let to_ckpt = ckpt_interval.map_or(f64::INFINITY, |tau| tau - unsaved);
        let to_owner = next_owner - t;
        let to_crash = next_crash - t;
        let step = to_finish.min(to_ckpt).min(to_owner).min(to_crash).max(0.0);
        t += step;
        done += step;
        unsaved += step;

        if step >= to_crash {
            // Fail-stop crash on the current host.
            out.crashes += 1;
            if ckpt_interval.is_some() {
                // Work since the last image is redone; the image restarts
                // the process elsewhere.
                lost += unsaved;
                done -= unsaved;
                unsaved = 0.0;
                t += r;
                out.bytes_moved += costs.image_bytes;
            } else {
                // Everything accrued is gone; respawn from scratch.
                lost += done;
                done = 0.0;
                unsaved = 0.0;
                t += costs.respawn_cost.as_secs_f64();
            }
            next_crash = t + next_failure(&mut rng, mtbf);
            next_owner = t + owner_every;
            continue;
        }
        if done >= target {
            break;
        }
        if ckpt_interval.is_some() && to_ckpt <= to_owner {
            // Periodic checkpoint: pay the freeze, bank the work.
            t += c;
            unsaved = 0.0;
            out.bytes_moved += costs.image_bytes;
        } else {
            // Planned eviction: the owner is back. The migration arm
            // live-migrates; the checkpoint arm checkpoint-moves (write
            // plus restore through the shard group), banking its work.
            if ckpt_interval.is_some() {
                t += c + r;
                unsaved = 0.0;
                out.bytes_moved += 2 * costs.image_bytes;
            } else {
                t += m;
                out.bytes_moved += costs.migrate_bytes;
            }
            next_owner = t + owner_every;
        }
    }
    out.makespan = SimDuration::from_secs_f64(t);
    out.work_lost = SimDuration::from_secs_f64(lost);
    out
}

/// One grid cell: measured costs plus both walked arms and the verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct F02Cell {
    /// Mean time between failures, seconds.
    pub mtbf_secs: u64,
    /// Dirty image size, megabytes.
    pub image_mb: f64,
    /// The real-cluster cost measurements behind the walk.
    pub costs: MeasuredCosts,
    /// Checkpoint-arm outcome.
    pub ckpt: ArmOutcome,
    /// Migration-arm outcome.
    pub migration: ArmOutcome,
    /// Which arm finished first (ties go to migration — it keeps the PID).
    pub winner: Mechanism,
    /// What Young's-formula overhead comparison predicts a priori.
    pub predicted: Mechanism,
}

/// Runs one cell: measure, then walk both arms.
pub fn cell(mtbf_secs: u64, image_mb: f64, seed: u64) -> F02Cell {
    let costs = measure(image_mb);
    let tau = young_interval(SimDuration::from_secs(mtbf_secs), costs.ckpt_cost).as_secs_f64();
    let ckpt = walk(&costs, mtbf_secs, seed, Some(tau));
    let migration = walk(&costs, mtbf_secs, seed, None);
    let winner = if ckpt.makespan < migration.makespan {
        Mechanism::Checkpoint
    } else {
        Mechanism::Migrate
    };
    let predicted = preferred_mechanism(
        SimDuration::from_secs(mtbf_secs),
        costs.ckpt_cost,
        costs.recovery_cost,
        costs.migrate_cost,
        SimDuration::from_secs(WORK_TARGET_SECS),
    );
    F02Cell {
        mtbf_secs,
        image_mb,
        costs,
        ckpt,
        migration,
        winner,
        predicted,
    }
}

/// The grid's `(mtbf, image_mb)` cells, image-major.
fn grid(mtbfs: &[u64], image_mbs: &[f64]) -> Vec<(u64, f64)> {
    image_mbs
        .iter()
        .flat_map(|&mb| mtbfs.iter().map(move |&m| (m, mb)))
        .collect()
}

/// Runs the whole grid serially, in the order the table prints it.
pub fn run_grid(mtbfs: &[u64], image_mbs: &[f64], seed: u64) -> Vec<F02Cell> {
    grid(mtbfs, image_mbs)
        .into_iter()
        .map(|(mtbf, mb)| cell(mtbf, mb, seed))
        .collect()
}

/// F2 as a runner experiment: one unit per grid cell, rendered with the
/// crossover summary.
pub fn experiment(mtbfs: &[u64], image_mbs: &[f64], seed: u64) -> Experiment {
    let units = grid(mtbfs, image_mbs)
        .into_iter()
        .map(|(mtbf, mb)| (10, move || cell(mtbf, mb, seed)));
    let image_mbs = image_mbs.to_vec();
    Experiment::new(
        "f02",
        "checkpoint/restart vs live migration crossover",
        units,
        move |cells: Vec<F02Cell>| Report::table(render(&cells, &image_mbs, seed)),
    )
}

/// Per image size, the smallest swept MTBF at which live migration wins
/// (`None` if checkpointing wins across the whole grid).
pub(crate) fn crossovers(cells: &[F02Cell], image_mbs: &[f64]) -> Vec<(f64, Option<u64>)> {
    image_mbs
        .iter()
        .map(|&mb| {
            let mut row: Vec<&F02Cell> = cells.iter().filter(|c| c.image_mb == mb).collect();
            row.sort_by_key(|c| c.mtbf_secs);
            let cross = row
                .iter()
                .find(|c| c.winner == Mechanism::Migrate)
                .map(|c| c.mtbf_secs);
            (mb, cross)
        })
        .collect()
}

/// Renders the grid plus the crossover summary.
pub fn render(cells: &[F02Cell], image_mbs: &[f64], seed: u64) -> String {
    let mut t = TableWriter::new(
        &format!(
            "F2: checkpoint/restart vs live migration (work {}s, seed {seed})",
            WORK_TARGET_SECS
        ),
        &[
            "mtbf",
            "image",
            "ckpt-make",
            "mig-make",
            "ckpt-lost",
            "mig-lost",
            "ckpt-MB",
            "mig-MB",
            "winner",
            "predicted",
        ],
    );
    for c in cells {
        t.row(&[
            format!("{}s", c.mtbf_secs),
            format!("{:.2}MB", c.image_mb),
            format!(
                "{:.1}s{}",
                c.ckpt.makespan.as_secs_f64(),
                if c.ckpt.capped { "*" } else { "" }
            ),
            format!(
                "{:.1}s{}",
                c.migration.makespan.as_secs_f64(),
                if c.migration.capped { "*" } else { "" }
            ),
            format!("{:.1}s", c.ckpt.work_lost.as_secs_f64()),
            format!("{:.1}s", c.migration.work_lost.as_secs_f64()),
            format!("{:.2}", c.ckpt.bytes_moved as f64 / (1024.0 * 1024.0)),
            format!("{:.2}", c.migration.bytes_moved as f64 / (1024.0 * 1024.0)),
            c.winner.label().to_string(),
            c.predicted.label().to_string(),
        ]);
    }
    for (mb, cross) in crossovers(cells, image_mbs) {
        match cross {
            Some(m) => t.note(format!(
                "{mb:.2}MB image: migration takes over at mtbf {m}s"
            )),
            None => t.note(format!(
                "{mb:.2}MB image: checkpointing wins at every swept mtbf"
            )),
        }
    }
    t.note("* capped: the arm could not finish inside the makespan budget");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_with_image_size() {
        let small = measure(0.25);
        let big = measure(1.0);
        assert!(big.image_bytes > small.image_bytes);
        assert!(big.ckpt_cost > small.ckpt_cost);
        assert!(big.recovery_cost > small.recovery_cost);
        assert!(big.migrate_bytes > small.migrate_bytes);
    }

    #[test]
    fn low_mtbf_picks_checkpoint_high_mtbf_picks_migration() {
        let flaky = cell(30, 1.0, SEED);
        assert_eq!(flaky.winner, Mechanism::Checkpoint, "{flaky:?}");
        let solid = cell(3600, 1.0, SEED);
        assert_eq!(solid.winner, Mechanism::Migrate, "{solid:?}");
        // The a-priori predictor agrees at both extremes.
        assert_eq!(flaky.predicted, Mechanism::Checkpoint);
        assert_eq!(solid.predicted, Mechanism::Migrate);
    }

    #[test]
    fn every_image_size_has_a_crossover_in_the_default_grid() {
        let cells = run_grid(&MTBFS_SECS, &IMAGE_MBS, SEED);
        for (mb, cross) in crossovers(&cells, &IMAGE_MBS) {
            assert!(
                cross.is_some(),
                "{mb}MB image: migration should win somewhere in {MTBFS_SECS:?}"
            );
        }
    }
}
