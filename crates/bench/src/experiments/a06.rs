//! A6 — Ablation: eviction policy (straight home vs. re-selection).
//!
//! When an owner returns, Sprite sends foreign processes home. The thesis
//! (Ch. 8.3) discusses the alternative of moving them to *another* idle
//! host instead: the owner's reclaim takes the same time either way, but
//! the evicted jobs keep a whole machine to themselves instead of
//! competing with their owners at home. This ablation measures both
//! effects.

use sprite_fs::SpritePath;

use sprite_sim::SimDuration;

use crate::support::{
    dirty_heap, h, pages_for_mb, secs, standard_cluster, standard_migrator, TableWriter,
};

/// One policy's outcome.
#[derive(Debug, Clone)]
pub(crate) struct EvictionPolicyRow {
    /// Policy label.
    pub policy: &'static str,
    /// Time until the owner's machine is foreign-free.
    pub reclaim: SimDuration,
    /// Jobs that landed on a fresh idle host.
    pub resettled: usize,
    /// Time for every evicted job to finish a fixed 60s CPU slice after
    /// eviction (home machines are busy; idle hosts are not).
    pub work_completion: SimDuration,
}

/// Runs both policies on the same scenario: 3 users' jobs guesting on one
/// machine, owners busy at home, two spare idle hosts available.
pub fn run(dirty_mb: f64) -> Vec<EvictionPolicyRow> {
    let mut out = Vec::new();
    for resettle in [false, true] {
        let hosts = 8;
        let (mut cluster, mut t) = standard_cluster(hosts);
        let mut migrator = standard_migrator(hosts);
        let victim = h(1);
        let mut pids = Vec::new();
        for owner in 2..5u32 {
            let (pid, t1) = cluster
                .spawn(
                    t,
                    h(owner),
                    &SpritePath::new("/bin/sim"),
                    pages_for_mb(dirty_mb),
                    8,
                )
                .expect("spawn");
            let r = migrator
                .migrate(&mut cluster, t1, pid, victim)
                .expect("migrate");
            t = dirty_heap(&mut cluster, r.resumed_at, pid, dirty_mb);
            pids.push(pid);
        }
        // Owners are busy at home: each home machine has a 10-minute CPU
        // backlog the evicted job would queue behind.
        for owner in 2..5u32 {
            cluster
                .host_mut(h(owner))
                .cpu
                .acquire(t, SimDuration::from_secs(600));
        }
        cluster.host_mut(victim).console_active = true;
        let (reports, resettled) = if resettle {
            migrator
                .evict_all_reselecting(&mut cluster, t, victim, &[h(5), h(6), h(7)])
                .expect("evict")
        } else {
            (
                migrator.evict_all(&mut cluster, t, victim).expect("evict"),
                0,
            )
        };
        let reclaim = reports
            .last()
            .map(|r| r.resumed_at.elapsed_since(t))
            .unwrap_or(SimDuration::ZERO);
        // Each evicted job now runs a 60s CPU slice wherever it landed.
        let mut last_done = t;
        for (pid, r) in pids.iter().zip(&reports) {
            let done = cluster
                .run_cpu(r.resumed_at, *pid, SimDuration::from_secs(60))
                .expect("slice");
            last_done = last_done.max_of(done);
        }
        out.push(EvictionPolicyRow {
            policy: if resettle {
                "re-select idle host"
            } else {
                "straight home"
            },
            reclaim,
            resettled,
            work_completion: last_done.elapsed_since(t),
        });
    }
    out
}

/// Renders the table.
pub fn table() -> String {
    let rows = run(0.5);
    let mut t = TableWriter::new(
        "A6 (ablation): eviction policy — 3 guests, busy homes, 3 spare idle hosts",
        &["policy", "reclaim(s)", "resettled", "60s-slice done in"],
    );
    for r in &rows {
        t.row(&[
            r.policy.to_string(),
            secs(r.reclaim),
            r.resettled.to_string(),
            secs(r.work_completion),
        ]);
    }
    t.note("the owner gets the machine back equally fast either way; the evicted jobs");
    t.note("finish far sooner on fresh idle hosts than queued behind their busy owners");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reselection_helps_the_jobs_not_the_reclaim() {
        let rows = run(0.25);
        let home = &rows[0];
        let resettle = &rows[1];
        assert_eq!(resettle.resettled, 3);
        assert_eq!(home.resettled, 0);
        // Reclaim times are in the same ballpark (within 2x).
        let ratio = resettle.reclaim.as_secs_f64() / home.reclaim.as_secs_f64();
        assert!((0.5..2.0).contains(&ratio), "reclaim ratio {ratio}");
        // But the evicted jobs' work completes much sooner when resettled
        // (the home machines had 10-minute backlogs).
        assert!(
            resettle.work_completion.as_secs_f64() * 3.0 < home.work_completion.as_secs_f64(),
            "resettled {} vs home {}",
            resettle.work_completion,
            home.work_completion
        );
    }
}
