//! E9 — Process lifetimes and the placement-vs-migration question.
//!
//! Zhou's traces \[Zho87\] (mean 1.5 s, σ 19.1 s) imply almost every process
//! dies before migration could pay for itself, which is why Sprite
//! concentrates on exec-time *placement* and reserves active migration for
//! long-running jobs and eviction (Ch. 3). We reproduce the distribution
//! and then ask, for each policy overhead, what fraction of processes would
//! benefit from moving to an idle host that runs them twice as fast as
//! their loaded home.

use sprite_sim::{DetRng, SimDuration};
use sprite_workloads::LifetimeModel;

use crate::support::TableWriter;

/// Lifetime distribution summary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LifetimeSummary {
    /// Mean lifetime in seconds.
    pub mean: f64,
    /// Standard deviation in seconds.
    pub std_dev: f64,
    /// Fraction of processes living under one second.
    pub under_1s: f64,
    /// Median in seconds.
    pub median: f64,
    /// 95th percentile in seconds.
    pub p95: f64,
}

/// Policy evaluation: processes that gain from moving given an overhead.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PolicyRow {
    /// Cost paid to move the process.
    pub overhead: SimDuration,
    /// Fraction of processes whose remaining work amortizes the move
    /// (lifetime on a loaded home > lifetime/speedup + overhead).
    pub fraction_benefiting: f64,
    /// Mean completion-time saving per process (seconds, over all
    /// processes including the ones that do not move).
    pub mean_saving: f64,
}

/// Samples the lifetime distribution.
pub fn lifetimes(samples: usize, seed: u64) -> (LifetimeSummary, Vec<f64>) {
    let model = LifetimeModel::default();
    let mut rng = DetRng::seed_from(seed);
    let mut xs: Vec<f64> = (0..samples)
        .map(|_| model.sample(&mut rng).as_secs_f64())
        .collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
    let summary = LifetimeSummary {
        mean,
        std_dev: var.sqrt(),
        under_1s: xs.iter().filter(|&&x| x < 1.0).count() as f64 / xs.len() as f64,
        median: xs[xs.len() / 2],
        p95: xs[(xs.len() as f64 * 0.95) as usize],
    };
    (summary, xs)
}

/// Evaluates move-or-stay for each overhead. The home host is assumed to
/// run the process at half speed (one competing job); an idle host runs it
/// at full speed after paying `overhead`.
pub fn policy(xs: &[f64], overheads: &[SimDuration]) -> Vec<PolicyRow> {
    const HOME_SLOWDOWN: f64 = 2.0;
    overheads
        .iter()
        .map(|&o| {
            let ov = o.as_secs_f64();
            let mut benefiting = 0usize;
            let mut saving = 0.0f64;
            for &life in xs {
                let at_home = life * HOME_SLOWDOWN;
                let moved = life + ov;
                if moved < at_home {
                    benefiting += 1;
                    saving += at_home - moved;
                }
            }
            PolicyRow {
                overhead: o,
                fraction_benefiting: benefiting as f64 / xs.len() as f64,
                mean_saving: saving / xs.len() as f64,
            }
        })
        .collect()
}

/// Renders both tables.
pub fn table() -> String {
    let (summary, xs) = lifetimes(100_000, 13);
    let mut t = TableWriter::new(
        "E9a: process lifetime distribution (100k samples)",
        &["metric", "value"],
    );
    t.row(&["mean (s)".into(), format!("{:.2}", summary.mean)]);
    t.row(&["std dev (s)".into(), format!("{:.2}", summary.std_dev)]);
    t.row(&["median (s)".into(), format!("{:.2}", summary.median)]);
    t.row(&["95th pct (s)".into(), format!("{:.2}", summary.p95)]);
    t.row(&[
        "under 1 s".into(),
        format!("{:.0}%", summary.under_1s * 100.0),
    ]);
    t.note("Zhou's traces: mean 1.5s, sd 19.1s, >78% of processes under one second");
    let mut out = t.render();

    let rows = policy(
        &xs,
        &[
            SimDuration::from_millis(100),
            SimDuration::from_millis(330),
            SimDuration::from_secs(1),
            SimDuration::from_secs(3),
            SimDuration::from_secs(10),
        ],
    );
    let mut t2 = TableWriter::new(
        "E9b: fraction of processes that benefit from moving (idle host 2x faster)",
        &["move overhead", "benefiting", "mean saving (s)"],
    );
    for r in &rows {
        t2.row(&[
            r.overhead.to_string(),
            format!("{:.0}%", r.fraction_benefiting * 100.0),
            format!("{:.2}", r.mean_saving),
        ]);
    }
    t2.note("paper conclusion: active migration pays only if overhead is a few hundred ms");
    t2.note("or restricted to known-long-running processes; exec-time placement is the default");
    out.push('\n');
    out.push_str(&t2.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_is_zhou_like() {
        let (s, _) = lifetimes(50_000, 3);
        assert!((0.8..3.0).contains(&s.mean), "mean {}", s.mean);
        assert!(s.std_dev > 5.0 * s.mean, "sd {} mean {}", s.std_dev, s.mean);
        assert!(s.under_1s > 0.70);
        assert!(s.median < s.mean, "heavy tail: median below mean");
    }

    #[test]
    fn higher_overhead_helps_fewer_processes() {
        let (_, xs) = lifetimes(50_000, 5);
        let rows = policy(
            &xs,
            &[
                SimDuration::from_millis(100),
                SimDuration::from_secs(1),
                SimDuration::from_secs(10),
            ],
        );
        assert!(rows[0].fraction_benefiting > rows[1].fraction_benefiting);
        assert!(rows[1].fraction_benefiting > rows[2].fraction_benefiting);
        // At 100ms overhead most processes *still* do not benefit much —
        // they are simply too short; at 10s almost none do.
        assert!(rows[2].fraction_benefiting < 0.10);
    }
}
