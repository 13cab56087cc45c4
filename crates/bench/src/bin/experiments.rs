//! Prints the reproduction tables: the default set, or the experiments
//! named by id.
//!
//! ```text
//! cargo run -p sprite-bench --release --bin experiments             # default set
//! cargo run -p sprite-bench --release --bin experiments -- e05      # one
//! cargo run -p sprite-bench --release --bin experiments -- list     # index
//! cargo run -p sprite-bench --release --bin experiments -- --jobs 4 # parallel
//! cargo run -p sprite-bench --release --bin experiments -- --json   # sidecar
//! cargo run -p sprite-bench --release --bin experiments -- m02=200:1 --shards 2
//! cargo run -p sprite-bench --release --bin experiments -- default e10-sweep
//! ```
//!
//! Every block comes from `sprite_bench::experiments`' registry. The
//! default set (the 19 tables, then M1, F1, the audit and F2) prints when
//! no id is given or `default` is; the opt-in ids (`rpc-table`,
//! `e10-sweep[=SIZES]`, `m02[=HOSTS:DAYS]`) print only when named, after
//! it. Tables go to stdout and are byte-identical for every `--jobs` value
//! (see `runner`'s determinism contract); wall-clock timings go to stderr
//! and, with `--json`, to `BENCH_experiments.json`. An experiment that
//! fails its own check (an audit divergence, an m02 digest mismatch) makes
//! the run exit 1 after printing.
//!
//! `experiments_output.txt` at the repo root is the stdout of the default
//! set; regenerate it after a deliberate change:
//!
//! ```text
//! cargo run -p sprite-bench --release --bin experiments -- --jobs 1 > experiments_output.txt
//! ```

use std::time::Instant;

use sprite_bench::{experiments, runner};

#[derive(Debug, PartialEq)]
struct Options {
    /// Experiment ids, operands included (`m02=2000:3`).
    ids: Vec<String>,
    jobs: usize,
    json: bool,
    list: bool,
    /// `--shards N`: logical shards of m02's sharded drive (0 = one per
    /// available core; default 1).
    shards: usize,
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Parses the command line (without the program name).
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        ids: Vec::new(),
        jobs: cores(),
        json: false,
        list: false,
        shards: 1,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => (flag, Some(value.to_string())),
            _ => (arg.as_str(), None),
        };
        match flag {
            "--jobs" | "-j" | "--shards" => {
                let v = inline.or_else(|| args.next()).unwrap_or_default();
                match (flag, v.parse::<usize>()) {
                    ("--shards", Ok(0)) => opts.shards = cores(),
                    ("--shards", Ok(n)) => opts.shards = n,
                    (_, Ok(n)) if n >= 1 => opts.jobs = n,
                    ("--shards", _) => {
                        return Err(format!(
                            "--shards needs a non-negative integer (0 = auto), got {v:?}"
                        ))
                    }
                    _ => return Err(format!("--jobs needs a positive integer, got {v:?}")),
                }
            }
            "--json" if inline.is_none() => opts.json = true,
            "list" => opts.list = true,
            _ if arg.starts_with('-') => {
                return Err(format!(
                    "unknown flag {arg:?}; flags: --jobs N, --json, --shards N (ids: see `list`)"
                ))
            }
            _ => opts.ids.push(arg),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = parse_args(std::env::args().skip(1)).unwrap_or_else(|why| {
        eprintln!("{why}");
        std::process::exit(2);
    });
    if opts.list {
        print!("{}", experiments::list());
        return;
    }
    let selection = experiments::select(&opts.ids, opts.shards).unwrap_or_else(|errors| {
        for why in errors {
            eprintln!("{why}");
        }
        std::process::exit(2);
    });

    // `total_wall_seconds` times the default set alone, so a run that adds
    // an opt-in experiment records a comparable number.
    let wall = Instant::now();
    let mut results = runner::run_suite(selection.default, opts.jobs);
    let total_wall = wall.elapsed().as_secs_f64();
    results.extend(runner::run_suite(selection.opt_in, opts.jobs));

    print!("{}", runner::render_suite(&results));
    for r in &results {
        eprintln!(
            "[timing] {}: {:.2}s cpu across {} unit{}",
            r.id,
            r.cpu.as_secs_f64(),
            r.units,
            if r.units == 1 { "" } else { "s" }
        );
    }
    eprintln!(
        "[timing] total: {total_wall:.2}s wall with {} job{}",
        opts.jobs,
        if opts.jobs == 1 { "" } else { "s" }
    );
    for line in results.iter().flat_map(|r| &r.report.stderr) {
        eprintln!("{line}");
    }
    eprintln!("[counters] hash probes: {}", runner::hash_probes_total());

    if opts.json {
        let path = "BENCH_experiments.json";
        if let Err(e) = std::fs::write(path, runner::render_json(&results, opts.jobs, total_wall)) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[timing] wrote {path}");
    }

    let mut failed = false;
    for r in &results {
        if let Some(why) = &r.report.failure {
            eprintln!("{} FAILED: {why}", r.id);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_args, Options};
    use sprite_bench::experiments::select;

    fn args(args: &[&str]) -> Vec<String> {
        args.iter().map(|arg| arg.to_string()).collect()
    }

    fn selected(ids: &[&str]) -> (Vec<&'static str>, Vec<&'static str>) {
        let selection = select(&args(ids), 1).expect("known ids");
        let names = |exps: &[sprite_bench::runner::Experiment]| exps.iter().map(|e| e.id).collect();
        (names(&selection.default), names(&selection.opt_in))
    }

    #[test]
    fn an_unknown_id_fails_the_selection_instead_of_being_dropped() {
        let errors = select(&args(&["e01", "e5", "m01", "m02=abc", "e05=3"]), 1).err();
        assert_eq!(
            errors,
            Some(args(&[
                "\"e5\": unknown experiment id; try `list`",
                "\"m02=abc\": m02 takes HOSTS:DAYS, both positive",
                "\"e05=3\": only m02 and e10-sweep take an operand",
            ]))
        );
        assert_eq!(selected(&["e05", "e01", "m01"]).0, ["e01", "e05", "m01"]);
        let (default, opt_in) = selected(&[]);
        assert_eq!(default.len(), 23);
        assert_eq!(default[19..], ["m01", "f01", "audit", "f02"]);
        assert!(opt_in.is_empty());
    }

    #[test]
    fn an_opt_in_id_alone_runs_only_that_experiment() {
        for id in ["rpc-table", "e10-sweep=200", "m02=200:1"] {
            let (default, opt_in) = selected(&[id]);
            assert!(default.is_empty(), "{id}: {default:?}");
            assert_eq!(opt_in, [id.split('=').next().unwrap()]);
        }
    }

    #[test]
    fn the_default_set_plus_an_opt_in_runs_both() {
        let (default, opt_in) = selected(&["m02=2000:3", "default"]);
        assert_eq!(default, selected(&[]).0);
        assert_eq!(opt_in, ["m02"]);
    }

    #[test]
    fn each_retired_flag_is_an_unknown_flag() {
        for flag in [
            "--macro",
            "--rpc-table",
            "--faults",
            "--faults=42:0.1",
            "--audit",
            "--f02",
            "--f02=30:0.25",
            "--e10-sweep",
            "--e10-sweep=200",
            "--m02",
            "--m02=200:1",
        ] {
            let parsed = parse_args(args(&[flag, "42:0.1"]));
            assert!(
                parsed
                    .as_ref()
                    .is_err_and(|why| why.starts_with("unknown flag")),
                "{flag}: {parsed:?}"
            );
        }
    }

    #[test]
    fn flags_and_ids_parse() {
        let parsed = parse_args(args(&["--jobs", "4", "--shards=2", "--json", "m02=2000:3"]));
        assert_eq!(
            parsed,
            Ok(Options {
                ids: args(&["m02=2000:3"]),
                jobs: 4,
                json: true,
                list: false,
                shards: 2,
            })
        );
        assert!(parse_args(args(&["--jobs", "0"])).is_err());
        assert!(parse_args(args(&["--shards", "x"])).is_err());
    }
}
