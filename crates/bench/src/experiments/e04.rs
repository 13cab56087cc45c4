//! E4 — Kernel-call costs: local vs. forwarded home.
//!
//! For a process running at home every call is local. After migration, the
//! Appendix-A dispositions apply: most calls stay local because their state
//! travelled with the process; a few (time, process families, migration
//! itself) are forwarded to the home kernel and pay an RPC round trip —
//! roughly 25x a local call on Sun-3-class hardware. This is the per-call
//! price of transparency, and why forwarding *everything* (Remote-UNIX
//! style) is untenable (Ch. 4.3).

use sprite_fs::SpritePath;
use sprite_kernel::{Disposition, KernelCall};
use sprite_sim::SimDuration;

use crate::support::{h, standard_cluster, standard_migrator, TableWriter};

/// One call's measurement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CallRow {
    /// The kernel call.
    pub call: KernelCall,
    /// Cost when the process is at home.
    pub at_home: SimDuration,
    /// Cost when the process is foreign.
    pub foreign: SimDuration,
}

impl CallRow {
    /// Foreign/home cost ratio.
    pub fn ratio(&self) -> f64 {
        self.foreign.as_secs_f64() / self.at_home.as_secs_f64().max(1e-9)
    }
}

/// Measures every call in both placements.
pub fn run() -> Vec<CallRow> {
    let (mut cluster, t) = standard_cluster(4);
    let mut migrator = standard_migrator(4);
    let (pid, t) = cluster
        .spawn(t, h(1), &SpritePath::new("/bin/sim"), 8, 4)
        .expect("spawn");
    let mut at_home = Vec::new();
    let mut clock = t;
    for call in KernelCall::ALL {
        let done = cluster.kernel_call(clock, pid, call).expect("call");
        at_home.push(done.elapsed_since(clock));
        clock = done;
    }
    let report = migrator
        .migrate(&mut cluster, clock, pid, h(2))
        .expect("migrate");
    let mut clock = report.resumed_at;
    let mut rows = Vec::new();
    for (i, call) in KernelCall::ALL.into_iter().enumerate() {
        let done = cluster.kernel_call(clock, pid, call).expect("call");
        rows.push(CallRow {
            call,
            at_home: at_home[i],
            foreign: done.elapsed_since(clock),
        });
        clock = done;
    }
    rows
}

/// Renders the table.
pub fn table() -> String {
    let rows = run();
    let mut t = TableWriter::new(
        "E4: kernel-call cost, local vs forwarded home (us)",
        &["call", "disposition", "home(us)", "foreign(us)", "ratio"],
    );
    for r in &rows {
        let disp = match r.call.disposition() {
            Disposition::Local => "local",
            Disposition::ForwardHome => "forward-home",
            Disposition::FileSystem => "file-system",
        };
        t.row(&[
            r.call.to_string(),
            disp.to_string(),
            r.at_home.as_micros().to_string(),
            r.foreign.as_micros().to_string(),
            format!("{:.1}", r.ratio()),
        ]);
    }
    t.note("paper shape: transferred-state calls cost the same anywhere;");
    t.note("forwarded calls pay a kernel-to-kernel RPC (~2.6ms on Sun-3s, ~26x a local call)");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_calls_cost_the_same_everywhere() {
        for r in run() {
            if r.call.disposition() == Disposition::Local {
                assert_eq!(r.at_home, r.foreign, "{} should not care", r.call);
            }
        }
    }

    #[test]
    fn forwarded_calls_pay_an_rpc_when_foreign() {
        let rows = run();
        for r in &rows {
            if r.call.disposition() == Disposition::ForwardHome {
                assert!(
                    r.ratio() > 10.0,
                    "{} ratio {:.1} too small for a forwarded call",
                    r.call,
                    r.ratio()
                );
                assert!(r.foreign >= SimDuration::from_micros(2_600));
            }
        }
    }

    #[test]
    fn all_calls_covered() {
        assert_eq!(run().len(), KernelCall::ALL.len());
    }
}
