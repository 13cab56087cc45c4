//! A2 — Ablation: hardware generations (Sun-3 vs. DECstation era).
//!
//! The thesis's future-work chapter asks how the trade-offs shift as
//! processors outpace networks (Ch. 9). The DECstation calibration has
//! ~4-5x the CPU but well under 2x the effective network bandwidth, so
//! CPU-bound costs (state packing, lookups) shrink faster than byte-moving
//! costs — forwarding gets *relatively* more expensive, and VM transfer
//! stays the bottleneck.

use sprite_fs::{FsConfig, SpritePath};
use sprite_kernel::KernelCall;
use sprite_net::CostModel;
use sprite_sim::SimDuration;

use crate::support::{
    cluster_with, dirty_heap, h, ms, pages_for_mb, standard_migrator, TableWriter,
};

/// Measurements for one hardware generation.
#[derive(Debug, Clone)]
pub(crate) struct GenerationRow {
    /// Generation label.
    pub generation: &'static str,
    /// Trivial-process migration time.
    pub trivial_migration: SimDuration,
    /// Migration with 1 MB dirty.
    pub migration_1mb: SimDuration,
    /// A local kernel call.
    pub local_call: SimDuration,
    /// A forwarded (foreign) gettimeofday.
    pub forwarded_call: SimDuration,
    /// Forwarded/local ratio.
    pub forwarding_ratio: f64,
}

fn measure(cost: CostModel, label: &'static str) -> GenerationRow {
    let (mut cluster, t) = cluster_with(cost, 4, FsConfig::default());
    let mut migrator = standard_migrator(4);
    // Trivial migration.
    let (pid, t) = cluster
        .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
        .expect("spawn");
    let r1 = migrator
        .migrate(&mut cluster, t, pid, h(2))
        .expect("migrate");
    // Kernel calls: local (at home h2? pid foreign now) — measure on a
    // fresh home process for the local number.
    let (home_pid, t2) = cluster
        .spawn(r1.resumed_at, h(1), &SpritePath::new("/bin/sim"), 16, 4)
        .expect("spawn");
    let local_done = cluster
        .kernel_call(t2, home_pid, KernelCall::GetTimeOfDay)
        .expect("call");
    let local_call = local_done.elapsed_since(t2);
    let fwd_done = cluster
        .kernel_call(local_done, pid, KernelCall::GetTimeOfDay)
        .expect("call");
    let forwarded_call = fwd_done.elapsed_since(local_done);
    // 1MB-dirty migration.
    let (big, t3) = cluster
        .spawn(
            fwd_done,
            h(1),
            &SpritePath::new("/bin/sim"),
            pages_for_mb(1.0),
            4,
        )
        .expect("spawn");
    let t3 = dirty_heap(&mut cluster, t3, big, 1.0);
    let r2 = migrator
        .migrate(&mut cluster, t3, big, h(3))
        .expect("migrate");
    GenerationRow {
        generation: label,
        trivial_migration: r1.total_time,
        migration_1mb: r2.total_time,
        local_call,
        forwarded_call,
        forwarding_ratio: forwarded_call.as_secs_f64() / local_call.as_secs_f64(),
    }
}

/// Runs both generations.
pub fn run() -> Vec<GenerationRow> {
    vec![
        measure(CostModel::sun3(), "sun-3"),
        measure(CostModel::decstation(), "decstation"),
    ]
}

/// Renders the table.
pub fn table() -> String {
    let rows = run();
    let mut t = TableWriter::new(
        "A2 (ablation): hardware generations",
        &[
            "generation",
            "trivial-mig(ms)",
            "1MB-mig(ms)",
            "local-call(us)",
            "fwd-call(us)",
            "fwd/local",
        ],
    );
    for r in &rows {
        t.row(&[
            r.generation.to_string(),
            ms(r.trivial_migration),
            ms(r.migration_1mb),
            r.local_call.as_micros().to_string(),
            r.forwarded_call.as_micros().to_string(),
            format!("{:.0}x", r.forwarding_ratio),
        ]);
    }
    t.note("CPUs sped up ~4-5x between generations, networks much less: byte-moving");
    t.note("costs (VM transfer) shrink slower, and forwarding grows relatively dearer");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newer_hardware_is_faster_but_forwarding_ratio_worsens() {
        let rows = run();
        let sun = &rows[0];
        let dec = &rows[1];
        assert!(dec.trivial_migration < sun.trivial_migration);
        assert!(dec.migration_1mb < sun.migration_1mb);
        assert!(dec.local_call < sun.local_call);
        // The CPU sped up more than the network: the relative price of a
        // forwarded call goes UP.
        assert!(
            dec.forwarding_ratio > sun.forwarding_ratio,
            "ratio should worsen: sun {:.0} dec {:.0}",
            sun.forwarding_ratio,
            dec.forwarding_ratio
        );
        // And the 1MB migration improves less than the trivial one.
        let trivial_gain =
            sun.trivial_migration.as_secs_f64() / dec.trivial_migration.as_secs_f64();
        let big_gain = sun.migration_1mb.as_secs_f64() / dec.migration_1mb.as_secs_f64();
        assert!(big_gain < trivial_gain);
    }
}
