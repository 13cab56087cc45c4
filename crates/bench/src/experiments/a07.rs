//! A7 — Ablation: workstation autonomy (eviction vs. rsh-style squatting).
//!
//! The thesis's opening promise is that load sharing must "respect the
//! response-time demands of individual users" (Ch. 1.3). Remote-invocation
//! systems like rsh \[Com86\] place work on an idle machine and leave it
//! there; when the owner returns, the guests share the CPU for the rest of
//! their (possibly hour-long) lives — "the owner may be adversely affected
//! for a prolonged period of time" (Ch. 1). Sprite evicts instead. This
//! experiment measures the owner's interactive response time under both
//! policies.

use sprite_fs::SpritePath;
use sprite_sim::SimDuration;

use crate::support::{h, ms, secs, standard_cluster, standard_migrator, TableWriter};

/// One policy's outcome for the returning owner.
#[derive(Debug, Clone)]
pub(crate) struct AutonomyRow {
    /// Policy label.
    pub policy: &'static str,
    /// Foreign jobs on the machine when the owner returns.
    pub foreign_jobs: usize,
    /// Time to reclaim (zero when there is no eviction).
    pub reclaim: SimDuration,
    /// Mean response time of the owner's 200ms interactive bursts over the
    /// following minute.
    pub mean_response: SimDuration,
    /// Worst response.
    pub worst_response: SimDuration,
}

/// Runs the scenario: `foreign_jobs` CPU-bound guests, owner returns and
/// issues an interactive burst every second for a minute.
pub fn run(foreign_jobs: usize) -> Vec<AutonomyRow> {
    let mut out = Vec::new();
    for evict in [true, false] {
        let hosts = foreign_jobs + 3;
        let (mut cluster, mut t) = standard_cluster(hosts);
        let mut migrator = standard_migrator(hosts);
        let owner_host = h(1);
        let mut guests = Vec::new();
        for i in 0..foreign_jobs {
            let home = h(2 + i as u32);
            let (pid, t1) = cluster
                .spawn(t, home, &SpritePath::new("/bin/sim"), 16, 4)
                .expect("spawn");
            let r = migrator
                .migrate(&mut cluster, t1, pid, owner_host)
                .expect("migrate");
            t = r.resumed_at;
            guests.push(pid);
        }
        // The owner returns.
        cluster.host_mut(owner_host).console_active = true;
        let returned = t;
        let reclaim = if evict {
            let reports = migrator
                .evict_all(&mut cluster, t, owner_host)
                .expect("evict");
            let done = reports.last().map(|r| r.resumed_at).unwrap_or(t);
            done.elapsed_since(returned)
        } else {
            SimDuration::ZERO
        };
        // The owner types: a 200ms burst each second for a minute, measured
        // from the moment they sat down.
        let (owner_pid, _) = cluster
            .spawn(returned, owner_host, &SpritePath::new("/bin/sim"), 8, 4)
            .expect("owner shell");
        let (mean, worst) = if evict {
            // Clean machine: measure through the real (now idle) CPU.
            let mut responses = Vec::new();
            for i in 0..60u64 {
                let issue = returned + SimDuration::from_secs(i);
                let done = cluster
                    .run_cpu(issue, owner_pid, SimDuration::from_millis(200))
                    .expect("burst");
                responses.push(done.elapsed_since(issue));
            }
            let mean = responses.iter().copied().sum::<SimDuration>() / responses.len() as u64;
            (mean, responses.into_iter().max().unwrap())
        } else {
            // Guests stay and the CPU round-robins (the CPU calendar
            // cannot preempt, so model timesharing analytically): each
            // burst stretches by the competing-job count, and in the worst
            // case also waits out a full guest scheduling quantum.
            let slowdown = 1 + guests.len() as u64;
            let quantum = SimDuration::from_millis(100) * guests.len() as u64;
            let mean = SimDuration::from_millis(200) * slowdown;
            (mean, mean + quantum)
        };
        out.push(AutonomyRow {
            policy: if evict {
                "sprite (evict)"
            } else {
                "rsh-style (squat)"
            },
            foreign_jobs,
            reclaim,
            mean_response: mean,
            worst_response: worst,
        });
    }
    out
}

/// Renders the table.
pub fn table() -> String {
    let mut t = TableWriter::new(
        "A7 (ablation): owner's interactive response after returning",
        &[
            "policy",
            "guests",
            "reclaim(s)",
            "mean response(ms)",
            "worst(ms)",
        ],
    );
    for n in [1usize, 2, 4] {
        for r in run(n) {
            t.row(&[
                r.policy.to_string(),
                r.foreign_jobs.to_string(),
                secs(r.reclaim),
                ms(r.mean_response),
                ms(r.worst_response),
            ]);
        }
    }
    t.note("with eviction the owner types against an empty machine within a fraction");
    t.note("of a second; rsh-style squatters degrade every keystroke for their lifetime");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_protects_interactive_response() {
        let rows = run(3);
        let evict = &rows[0];
        let squat = &rows[1];
        // Evicted machine: essentially native response.
        assert!(
            evict.mean_response < SimDuration::from_millis(400),
            "evicted response {}",
            evict.mean_response
        );
        // Squatters: each keystroke queues behind guest CPU slices.
        assert!(
            squat.mean_response > evict.mean_response * 3,
            "squat {} vs evict {}",
            squat.mean_response,
            evict.mean_response
        );
        assert!(squat.worst_response > SimDuration::from_secs(1));
        // The price of autonomy: a short, bounded reclaim.
        assert!(evict.reclaim < SimDuration::from_secs(2));
    }
}
