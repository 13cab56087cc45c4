//! E12 — Residual dependencies: the cost of forwarding kernel calls home.
//!
//! Ablation of Sprite's central transparency decision. One design extreme
//! forwards *every* kernel call to the home machine (Remote UNIX \[Lit87\]);
//! Sprite instead transfers most state with the process so that only a few
//! calls forward. We sweep the forwarded fraction from 0 to 100% and
//! measure the slowdown of a syscall-heavy foreign process relative to
//! running at home — reproducing the argument of Ch. 4.3 that "an approach
//! based entirely on forwarding kernel calls ... will not work in
//! practice".

use sprite_fs::SpritePath;
use sprite_kernel::{Cluster, KernelCall, ProcessId};
use sprite_sim::{DetRng, SimTime};

use crate::support::{h, standard_cluster, standard_migrator, TableWriter};

/// One forwarded-fraction measurement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResidualRow {
    /// Fraction of kernel calls that forward home.
    pub forwarded_fraction: f64,
    /// Elapsed time for the call mix at home (µs).
    pub home_us: u64,
    /// Elapsed foreign (µs).
    pub foreign_us: u64,
}

impl ResidualRow {
    /// Foreign/home slowdown.
    pub(crate) fn slowdown(&self) -> f64 {
        self.foreign_us as f64 / self.home_us.max(1) as f64
    }
}

fn run_mix(
    cluster: &mut Cluster,
    pid: ProcessId,
    start: SimTime,
    calls: usize,
    forwarded_fraction: f64,
    seed: u64,
) -> u64 {
    let mut rng = DetRng::seed_from(seed);
    let mut t = start;
    for _ in 0..calls {
        let call = if rng.chance(forwarded_fraction) {
            KernelCall::GetTimeOfDay
        } else {
            KernelCall::GetPid
        };
        t = cluster.kernel_call(t, pid, call).expect("call");
    }
    t.elapsed_since(start).as_micros()
}

/// Runs the sweep with `calls` kernel calls per measurement.
pub fn run(fractions: &[f64], calls: usize, seed: u64) -> Vec<ResidualRow> {
    let mut rows = Vec::new();
    for &f in fractions {
        let (mut cluster, t) = standard_cluster(4);
        let mut migrator = standard_migrator(4);
        let (pid, t) = cluster
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 8, 4)
            .expect("spawn");
        let home_us = run_mix(&mut cluster, pid, t, calls, f, seed);
        let report = migrator
            .migrate(&mut cluster, t, pid, h(2))
            .expect("migrate");
        let foreign_us = run_mix(&mut cluster, pid, report.resumed_at, calls, f, seed);
        rows.push(ResidualRow {
            forwarded_fraction: f,
            home_us,
            foreign_us,
        });
    }
    rows
}

/// Renders the table.
pub fn table() -> String {
    let rows = run(&[0.0, 0.01, 0.05, 0.10, 0.25, 0.50, 1.0], 2_000, 47);
    let mut t = TableWriter::new(
        "E12: foreign-process slowdown vs fraction of calls forwarded home (2000 calls)",
        &["forwarded", "home(ms)", "foreign(ms)", "slowdown"],
    );
    for r in &rows {
        t.row(&[
            format!("{:.0}%", r.forwarded_fraction * 100.0),
            format!("{:.1}", r.home_us as f64 / 1e3),
            format!("{:.1}", r.foreign_us as f64 / 1e3),
            format!("{:.1}x", r.slowdown()),
        ]);
    }
    t.note("design points: Sprite transfers state so only a few % of calls forward;");
    t.note("Remote UNIX forwards everything (the 100% row) and pays ~26x per call");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_grows_with_forwarded_fraction() {
        let rows = run(&[0.0, 0.05, 1.0], 500, 3);
        assert!(
            (rows[0].slowdown() - 1.0).abs() < 0.01,
            "nothing forwarded => no slowdown, got {:.2}",
            rows[0].slowdown()
        );
        assert!(rows[1].slowdown() > 1.5, "5% mix {:.2}", rows[1].slowdown());
        assert!(
            rows[2].slowdown() > 15.0,
            "forward-everything should be crushing: {:.2}",
            rows[2].slowdown()
        );
        assert!(rows[1].slowdown() < rows[2].slowdown());
    }

    #[test]
    fn home_cost_is_independent_of_mix() {
        let rows = run(&[0.0, 1.0], 500, 5);
        assert_eq!(rows[0].home_us, rows[1].home_us);
    }
}
