//! The determinism auditor: the `audit` experiment of the default set.
//!
//! The suite's stdout is byte-identical for every `--jobs` value, but that
//! only proves the *rendered tables* agree. The auditor checks something
//! much stronger: it re-runs the E11 replications with the engine's state
//! checkpoint hook armed, collecting a stream of whole-cluster digests
//! (kernel + process table + file system + network) every N executed
//! events — once as runner units on whichever workers run them, and once
//! serially in-process in the merge — and demands the streams match
//! checkpoint for checkpoint. A scheduling leak that happens to cancel out
//! in the final tables cannot cancel out in every intermediate digest.
//!
//! On divergence the auditor replays the offending replication once more
//! in-process. If the replay agrees with the serial stream, the divergence
//! came from the unit's run alone, and the report names the first
//! disagreeing checkpoint window of the streams in hand and says the replay
//! did not reproduce it. Otherwise it bisects: it re-runs the replication
//! at successively halved checkpoint intervals until the first disagreeing
//! digest is bracketed by a one-event window, then names that window
//! (`events (lo, hi]`, simulated time).

use sprite_sim::{Checkpoint, SimTime};

use crate::experiments::e11;
use crate::runner::{Experiment, Report};
use crate::support::JsonObject;

/// The shape of an audited drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditDrive {
    /// Hosts per replication.
    pub hosts: usize,
    /// Simulated days per replication.
    pub days: u64,
    /// Master seed the replications' RNGs are forked from, serially.
    pub seed: u64,
    /// Audited replications.
    pub reps: usize,
    /// Checkpoint interval in executed events.
    pub every: u64,
}

/// The drive `experiments` audits: smaller than E11's table, because the
/// auditor runs every replication twice, but still multi-day. E11
/// executes roughly one event per simulated minute, so checkpointing every
/// 1,000 events yields a handful of checkpoints per day — enough stream to
/// compare, cheap enough to hash.
pub const AUDIT: AuditDrive = AuditDrive {
    hosts: 8,
    days: 2,
    seed: 41,
    reps: 4,
    every: 1_000,
};

/// Where two checkpoint streams first disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the replication whose streams disagree.
    pub rep: usize,
    /// First disagreeing event window: digests agree at `start_events`
    /// (0 = initial state) and disagree at `end_events`.
    pub start_events: u64,
    /// Event count of the first disagreeing checkpoint.
    pub end_events: u64,
    /// Simulated time of the first disagreeing checkpoint, if either
    /// stream still had one there.
    pub at: Option<SimTime>,
    /// Whether an in-process replay of the replication disagreed with the
    /// serial stream too (the window is then bisected). When it agreed,
    /// only the unit's run diverged and the window is the original one.
    pub reproduced: bool,
}

/// Outcome of a full audit: the per-replication streams collected by the
/// runner's units, plus the verdict against the serial reference.
pub struct AuditOutcome {
    /// The audited drive.
    pub drive: AuditDrive,
    /// One digest stream per replication, in replication order.
    pub streams: Vec<Vec<Checkpoint>>,
    /// First divergence between the unit and serial streams, if any,
    /// bisected down to its tightest event window.
    pub divergence: Option<Divergence>,
}

/// One replication's digest stream at checkpoint interval `every`.
fn stream(drive: AuditDrive, rep: usize, every: u64) -> Vec<Checkpoint> {
    let rng = e11::replication_rngs(drive.seed, drive.reps).swap_remove(rep);
    e11::run_audited(drive.hosts, drive.days, rng, every).1
}

/// Runs every replication of `drive` serially, in replication order.
pub fn collect_streams(drive: AuditDrive) -> Vec<Vec<Checkpoint>> {
    (0..drive.reps)
        .map(|rep| stream(drive, rep, drive.every))
        .collect()
}

/// The audit as a runner experiment: one unit per replication, each
/// collecting its digest stream on whichever worker runs it. The merge
/// checks the streams against the serial reference.
pub fn experiment(drive: AuditDrive) -> Experiment {
    let units = (0..drive.reps).map(|rep| (100, move || stream(drive, rep, drive.every)));
    Experiment::new(
        "audit",
        "state-digest determinism audit",
        units,
        move |streams: Vec<Vec<Checkpoint>>| report(&check(drive, streams)),
    )
}

/// First index at which two checkpoint streams disagree (a length mismatch
/// counts as disagreement at the shorter length).
pub fn first_mismatch(a: &[Checkpoint], b: &[Checkpoint]) -> Option<usize> {
    let n = a.len().min(b.len());
    for i in 0..n {
        if a[i] != b[i] {
            return Some(i);
        }
    }
    if a.len() != b.len() {
        Some(n)
    } else {
        None
    }
}

/// Narrows a divergence between two runnable stream producers to its
/// tightest event window by halving the checkpoint interval. `run_a` and
/// `run_b` rebuild their streams at a given interval; the window returned
/// is `(start_events, end_events]` — the digests agree at `start_events`
/// and first disagree at `end_events`. If a refinement pass suddenly
/// agrees (a non-reproducible divergence), the last disagreeing window is
/// reported as-is.
pub fn bisect_window<FA, FB>(
    mut every: u64,
    run_a: FA,
    run_b: FB,
) -> Option<(u64, u64, Option<SimTime>)>
where
    FA: Fn(u64) -> Vec<Checkpoint>,
    FB: Fn(u64) -> Vec<Checkpoint>,
{
    let (mut a, mut b) = (run_a(every), run_b(every));
    let mut idx = first_mismatch(&a, &b)?;
    loop {
        let end = every * (idx as u64 + 1);
        let at = a.get(idx).or_else(|| b.get(idx)).map(|cp| cp.at);
        if every == 1 {
            return Some((end - 1, end, at));
        }
        let finer = (every / 2).max(1);
        let (fa, fb) = (run_a(finer), run_b(finer));
        match first_mismatch(&fa, &fb) {
            Some(fi) => {
                every = finer;
                idx = fi;
                a = fa;
                b = fb;
            }
            // The divergence did not reproduce at the finer interval
            // (e.g. genuine nondeterminism): report the coarse window.
            None => return Some((end - every, end, at)),
        }
    }
}

/// Checks the streams the runner's units collected against a serial
/// in-process run of the same replications. On mismatch it replays the
/// first divergent replication once in-process: a replay that agrees with
/// the serial stream leaves the original window, and one that disagrees
/// is bisected down to its tightest event window.
fn check(drive: AuditDrive, streams: Vec<Vec<Checkpoint>>) -> AuditOutcome {
    let serial = collect_streams(drive);
    let divergence = streams
        .iter()
        .zip(&serial)
        .enumerate()
        .find_map(|(rep, (unit, serial))| {
            let idx = first_mismatch(unit, serial)?;
            let window = Divergence {
                rep,
                start_events: idx as u64 * drive.every,
                end_events: (idx as u64 + 1) * drive.every,
                at: unit.get(idx).or_else(|| serial.get(idx)).map(|cp| cp.at),
                reproduced: false,
            };
            let replay = |every| stream(drive, rep, every);
            if first_mismatch(&replay(drive.every), serial).is_none() {
                return Some(window);
            }
            // The replication diverges in-process too. If a bisection pass
            // happens to agree, keep the original window.
            let (start_events, end_events, at) = bisect_window(drive.every, replay, replay)
                .unwrap_or((window.start_events, window.end_events, window.at));
            Some(Divergence {
                rep,
                start_events,
                end_events,
                at,
                reproduced: true,
            })
        });
    AuditOutcome {
        drive,
        streams,
        divergence,
    }
}

/// Total checkpoints across all streams.
pub fn total_checkpoints(streams: &[Vec<Checkpoint>]) -> usize {
    streams.iter().map(Vec::len).sum()
}

/// Renders the audit block. Deterministic: digests depend only on the
/// seeded replications, never on `jobs`, so this block is byte-identical
/// across thread counts — which is exactly what the CI digest gate diffs.
pub fn render(outcome: &AuditOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Determinism audit ({} hosts x {} days x {} replications, checkpoint every {} events)\n",
        outcome.drive.hosts,
        outcome.drive.days,
        outcome.streams.len(),
        outcome.drive.every
    ));
    out.push_str("  rep  checkpoints  first-digest        last-digest\n");
    for (i, stream) in outcome.streams.iter().enumerate() {
        let first = stream.first().map(|c| c.digest).unwrap_or(0);
        let last = stream.last().map(|c| c.digest).unwrap_or(0);
        out.push_str(&format!(
            "  {:<3}  {:<11}  0x{:016x}  0x{:016x}\n",
            i,
            stream.len(),
            first,
            last
        ));
    }
    match &outcome.divergence {
        None => out.push_str(&format!(
            "  verdict: all {} replication digest streams identical across thread schedules\n",
            outcome.streams.len()
        )),
        Some(d) => {
            out.push_str(&format!(
                "  verdict: DIVERGENCE in replication {} — first disagreeing digest in event window ({}, {}]",
                d.rep, d.start_events, d.end_events
            ));
            if let Some(at) = d.at {
                out.push_str(&format!(" at t={}us", at.as_micros()));
            }
            if !d.reproduced {
                out.push_str("; the in-process replay did not reproduce it");
            }
            out.push('\n');
        }
    }
    out
}

/// The audit's report: its block, tagged with the checkpoint count, its
/// JSON block, and a failure when a stream diverged.
fn report(outcome: &AuditOutcome) -> Report {
    let checkpoints = total_checkpoints(&outcome.streams);
    let reps = outcome.streams.len();
    let json = JsonObject::new()
        .text(
            "description",
            "state-digest determinism audit (threaded vs serial)",
        )
        .num("hosts", outcome.drive.hosts)
        .num("days", outcome.drive.days)
        .num("replications", reps)
        .num("checkpoint_every_events", outcome.drive.every)
        .num("checkpoints", checkpoints)
        .num("divergent", outcome.divergence.is_some());
    Report {
        blocks: vec![(
            render(outcome),
            Some(format!(
                "audit: {checkpoints} checkpoints across {reps} replications"
            )),
        )],
        json: Some(("audit", json)),
        stderr: Vec::new(),
        failure: outcome.divergence.map(|d| {
            format!(
                "replication {} diverged in event window ({}, {}]",
                d.rep, d.start_events, d.end_events
            )
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprite_sim::SimDuration;

    #[test]
    fn first_mismatch_finds_index_and_length_skew() {
        let cp = |events, digest| Checkpoint {
            events,
            at: SimTime::ZERO + SimDuration::from_secs(events),
            digest,
        };
        let a = vec![cp(10, 1), cp(20, 2), cp(30, 3)];
        assert_eq!(first_mismatch(&a, &a), None);
        let mut b = a.clone();
        b[1].digest = 99;
        assert_eq!(first_mismatch(&a, &b), Some(1));
        assert_eq!(first_mismatch(&a, &a[..2]), Some(2));
    }

    #[test]
    fn bisect_refines_a_synthetic_divergence_to_one_event() {
        // Two synthetic "runs" that agree up to event 137 and disagree
        // after it, at any checkpoint interval.
        let stream_for = |every: u64, diverge_after: u64| -> Vec<Checkpoint> {
            (1..=(400 / every))
                .map(|k| {
                    let events = k * every;
                    Checkpoint {
                        events,
                        at: SimTime::ZERO + SimDuration::from_secs(events),
                        digest: if events > diverge_after {
                            events * 7 + 1
                        } else {
                            events * 7
                        },
                    }
                })
                .collect()
        };
        let w = bisect_window(
            100,
            move |every| stream_for(every, u64::MAX),
            move |every| stream_for(every, 137),
        )
        .expect("streams diverge");
        assert_eq!((w.0, w.1), (137, 138));
    }

    #[test]
    fn bisect_returns_none_when_streams_agree() {
        let stream = |every: u64| -> Vec<Checkpoint> {
            (1..=(300 / every))
                .map(|k| Checkpoint {
                    events: k * every,
                    at: SimTime::ZERO,
                    digest: k * every,
                })
                .collect()
        };
        assert_eq!(bisect_window(50, stream, stream), None);
    }

    #[test]
    fn render_is_deterministic_and_names_divergences() {
        let drive = AuditDrive {
            hosts: 4,
            days: 1,
            seed: 41,
            reps: 3,
            every: 200,
        };
        let outcome = AuditOutcome {
            drive,
            streams: collect_streams(drive),
            divergence: None,
        };
        let a = render(&outcome);
        assert!(a.contains("verdict: all"));
        assert_eq!(report(&outcome).failure, None);
        let diverged = AuditOutcome {
            divergence: Some(Divergence {
                rep: 2,
                start_events: 137,
                end_events: 138,
                at: Some(SimTime::ZERO + SimDuration::from_secs(5)),
                reproduced: true,
            }),
            ..outcome
        };
        let b = render(&diverged);
        assert!(b.contains("DIVERGENCE in replication 2"));
        assert!(b.contains("(137, 138]"));
        assert!(b.contains("t=5000000us\n"));
        assert_eq!(
            report(&diverged).failure.as_deref(),
            Some("replication 2 diverged in event window (137, 138]")
        );
    }

    #[test]
    fn a_divergence_the_replay_does_not_reproduce_keeps_its_window_and_time() {
        let drive = AuditDrive {
            hosts: 4,
            days: 1,
            seed: 41,
            reps: 3,
            every: 200,
        };
        let mut streams = collect_streams(drive);
        streams[1][2].digest ^= 1;
        let at = streams[1][2].at;
        let outcome = check(drive, streams);
        assert_eq!(
            outcome.divergence,
            Some(Divergence {
                rep: 1,
                start_events: 400,
                end_events: 600,
                at: Some(at),
                reproduced: false,
            })
        );
        assert!(render(&outcome).contains(&format!(
            "(400, 600] at t={}us; the in-process replay did not reproduce it\n",
            at.as_micros()
        )));
    }
}
