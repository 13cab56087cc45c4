//! `benchmark compare <parent.jsonl> <change.jsonl>`: judges a change
//! against its parent from the benchmark's own output lines, with each
//! metric's direction and bound taken from `BENCHMARK.json`.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::measure::quartiles;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// One run's output line.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub digest: String,
    pub metrics: BTreeMap<String, f64>,
}

pub fn load_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let spec = json::parse(text)?;
    spec.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .as_array()
        .iter()
        .map(|e| {
            Ok(Bound {
                name: e
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("end_to_end entry without a name")?
                    .to_string(),
                lower_is_better: e.get("better").and_then(Value::as_str) == Some("lower"),
                bound: e
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("end_to_end entry without a bound")?,
            })
        })
        .collect()
}

/// The run lines in `text`: JSON objects with a `workload` key. Anything
/// else (other output, blank lines) is skipped.
pub fn load_runs(text: &str) -> Vec<Run> {
    text.lines()
        .filter_map(|line| json::parse(line.trim()).ok())
        .filter_map(|v| {
            Some(Run {
                workload: v.get("workload")?.as_str()?.to_string(),
                seed: v.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                digest: v
                    .get("digest")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                metrics: v
                    .get("metrics")?
                    .entries()
                    .iter()
                    .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                    .collect(),
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The runs spread wider than the bound, so no verdict is possible.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric of one workload. Needs two or more runs a side.
pub fn judge(b: &Bound, parent: &[f64], change: &[f64]) -> Option<(Verdict, [f64; 3], [f64; 3])> {
    let qp = quartiles(parent)?;
    let qc = quartiles(change)?;
    let rel = |x: f64, base: f64| if base == 0.0 { 0.0 } else { x / base.abs() };
    // Positive means the change is worse.
    let dir = if b.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = dir * rel(qc[1] - qp[1], qp[1]);
    let parent_spread = rel(qp[2] - qp[0], qp[1]);
    let spread = parent_spread.max(rel(qc[2] - qc[0], qc[1]));
    let better = |c: f64, p: f64| dir * (c - p) < 0.0;
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if spread > b.bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > b.bound {
        Verdict::Worse
    } else if -worse_by > parent_spread && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    Some((verdict, qp, qc))
}

pub fn main(args: &[String]) -> ExitCode {
    let [parent_path, change_path] = args else {
        eprintln!("usage: benchmark compare <parent.jsonl> <change.jsonl>");
        return ExitCode::from(2);
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let spec = read("BENCHMARK.json")
        .or_else(|_| read(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")));
    let (bounds, parent, change) = match (
        spec.and_then(|s| load_bounds(&s)),
        read(parent_path),
        read(change_path),
    ) {
        (Ok(b), Ok(p), Ok(c)) => (b, load_runs(&p), load_runs(&c)),
        (b, p, c) => {
            for e in [b.err(), p.err(), c.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    let mut any_worse = false;
    let workloads: BTreeSet<&str> = parent
        .iter()
        .chain(&change)
        .map(|r| r.workload.as_str())
        .collect();
    for w in workloads {
        let side = |runs: &[Run]| -> Vec<Run> {
            runs.iter().filter(|r| r.workload == w).cloned().collect()
        };
        let (p, c) = (side(&parent), side(&change));
        println!("## {w} (parent {} runs, change {} runs)", p.len(), c.len());
        for b in &bounds {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&b.name).copied())
                    .collect()
            };
            match judge(b, &values(&p), &values(&c)) {
                Some((v, qp, qc)) => {
                    any_worse |= v == Verdict::Worse;
                    println!(
                        "{:<18} parent {:.6} [{:.6}, {:.6}]  change {:.6} [{:.6}, {:.6}]  bound {}  {}",
                        b.name,
                        qp[1],
                        qp[0],
                        qp[2],
                        qc[1],
                        qc[0],
                        qc[2],
                        b.bound,
                        v.label()
                    );
                }
                None => println!("{:<18} unresolved (fewer than two runs a side)", b.name),
            }
        }
        let digests = |runs: &[Run]| -> BTreeMap<u64, String> {
            runs.iter().map(|r| (r.seed, r.digest.clone())).collect()
        };
        let (dp, dc) = (digests(&p), digests(&c));
        let changed: Vec<u64> = dp
            .iter()
            .filter(|(seed, d)| dc.get(*seed).is_some_and(|x| x != *d))
            .map(|(seed, _)| *seed)
            .collect();
        if changed.is_empty() {
            println!("digest: simulated behaviour unchanged on shared seeds");
        } else {
            println!("digest: simulated behaviour changed (seeds {changed:?})");
        }
    }
    if any_worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool, bound: f64) -> Bound {
        Bound {
            name: "x".into(),
            lower_is_better: lower,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
        let lower = bound(true, 0.1);
        let higher = bound(false, 0.1);
        assert_eq!(judge(&lower, &base, &slower).unwrap().0, Verdict::Worse);
        assert_eq!(judge(&lower, &base, &faster).unwrap().0, Verdict::Better);
        assert_eq!(judge(&higher, &base, &faster).unwrap().0, Verdict::Worse);
        assert_eq!(judge(&lower, &base, &base).unwrap().0, Verdict::WithinBound);
        let wide = [50.0, 150.0, 100.0, 70.0, 130.0];
        assert_eq!(judge(&lower, &wide, &base).unwrap().0, Verdict::Unresolved);
        assert!(judge(&lower, &[1.0], &base).is_none());
    }

    #[test]
    fn runs_and_bounds_load_from_text() {
        let spec = r#"{"end_to_end": [{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}]}"#;
        let b = load_bounds(spec).unwrap();
        assert_eq!(b[0].name, "op_ms_p50");
        assert!(b[0].lower_is_better);
        let out = "noise\n{\"workload\": \"w\", \"seed\": 3, \"digest\": \"ab\", \"metrics\": {\"op_ms_p50\": {\"value\": 1.5, \"unit\": \"ms\"}}}\n{\"correct\": true}\n";
        let runs = load_runs(out);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].seed, 3);
        assert_eq!(runs[0].metrics["op_ms_p50"], 1.5);
    }
}
