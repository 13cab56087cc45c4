//! The experiment suite: one module per table/figure of the paper's
//! evaluation. Each module exposes `run(...)` returning structured results
//! (unit-tested for the paper's qualitative claims) and a renderer for the
//! printable reproduction. This module's registry holds every experiment
//! `experiments` prints, as runner experiments selected by id
//! ([`select`]).

pub mod a01;
pub mod a02;
pub mod a03;
pub mod a04;
pub mod a05;
pub mod a06;
pub mod a07;
pub mod e01;
pub mod e02;
pub mod e03;
pub mod e04;
pub mod e05;
pub mod e06;
pub mod e07;
pub mod e08;
pub mod e09;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod f01;
pub mod f02;
pub mod m01;
pub mod m02;

use sprite_sim::SimDuration;

use crate::audit;
use crate::runner::{Experiment, Report};

/// The pseudo-id naming the whole default set, so that one command can run
/// it together with an opt-in experiment.
const DEFAULT_SET: &str = "default";

/// The experiments that run only when named, after the default set, each
/// with the syntax of its optional operand.
const OPT_IN: [(&str, &str); 3] = [
    ("rpc-table", ""),
    ("e10-sweep", "[=SIZES]"),
    ("m02", "[=HOSTS:DAYS]"),
];

fn is_opt_in(id: &str) -> bool {
    OPT_IN.iter().any(|&(opt_in, _)| opt_in == id)
}

/// What the opt-in experiments read from the command line: `--shards` and
/// the operands of `m02=HOSTS:DAYS` and `e10-sweep=SIZES`.
struct Operands {
    /// Logical shards of m02's sharded drive.
    shards: usize,
    /// m02's workload size.
    m02: m02::M02Params,
    /// Cluster sizes of the E10 sweep.
    sweep: Vec<usize>,
}

impl Default for Operands {
    fn default() -> Self {
        Self {
            shards: 1,
            m02: m02::FULL,
            sweep: e10::SWEEP_SIZES.to_vec(),
        }
    }
}

/// A one-unit experiment printing one table.
fn table(id: &'static str, desc: &'static str, cost: u64, table: fn() -> String) -> Experiment {
    Experiment::single(id, desc, cost, move || Report::table(table()))
}

/// Every experiment in print order. The default set comes first: the 19
/// tables, then M1, F1 with its fault table, the audit and F2, whose
/// stdout is `experiments_output.txt`. The opt-in experiments follow.
/// E10, E11, F2 and the sweep split into one unit per cell or replication,
/// the audit into one per replication; cost hints reflect measured
/// relative runtimes so longest-first dispatch keeps workers busy.
fn registry(ops: &Operands) -> Vec<Experiment> {
    vec![
        table("e01", "migration cost breakdown", 10, e01::table),
        table("e02", "VM transfer strategies vs size", 300, e02::table),
        table("e03", "migration cost vs open files", 10, e03::table),
        table("e04", "kernel-call forwarding costs", 10, e04::table),
        table("e05", "pmake speedup vs hosts", 10, e05::table),
        table(
            "e06",
            "effective utilization: pmake vs simulations",
            10,
            e06::table,
        ),
        table("e07", "idle hosts by time of day", 10, e07::table),
        table("e08", "eviction / workstation reclaim", 150, e08::table),
        table(
            "e09",
            "process lifetimes and placement policy",
            10,
            e09::table,
        ),
        e10::experiment(
            &e10::FULL_SIZES,
            SimDuration::from_secs(e10::FULL_DURATION_SECS),
            e10::FULL_SEED,
        ),
        e11::experiment(
            e11::FULL_HOSTS,
            e11::FULL_REP_DAYS,
            e11::FULL_SEED,
            e11::FULL_REPS,
        ),
        table("e12", "residual dependencies ablation", 10, e12::table),
        table("a01", "ablation: client name caching", 10, a01::table),
        table("a02", "ablation: hardware generations", 10, a02::table),
        table("a03", "ablation: pre-copy vs dirtying rate", 10, a03::table),
        table("a04", "ablation: second file server", 10, a04::table),
        table(
            "a05",
            "ablation: checkpoint/restart baseline",
            10,
            a05::table,
        ),
        table("a06", "ablation: eviction policy", 10, a06::table),
        table("a07", "ablation: workstation autonomy", 10, a07::table),
        m01::experiment(),
        f01::experiment(),
        audit::experiment(audit::AUDIT),
        f02::experiment(&f02::MTBFS_SECS, &f02::IMAGE_MBS, f02::SEED),
        e11::rpc_experiment(),
        e10::sweep_experiment(
            &ops.sweep,
            SimDuration::from_secs(e10::SWEEP_DURATION_SECS),
            e10::SWEEP_SEED,
        ),
        m02::experiment(ops.m02, ops.shards),
    ]
}

/// The default set: what a plain `experiments` run prints.
pub fn suite() -> Vec<Experiment> {
    registry(&Operands::default())
        .into_iter()
        .filter(|exp| !is_opt_in(exp.id))
        .collect()
}

/// The `experiments list` text: one line per id in print order, the
/// opt-in ones with their operand syntax.
pub fn list() -> String {
    let mut out = format!("{DEFAULT_SET}  every id below not marked opt-in\n");
    for exp in registry(&Operands::default()) {
        match OPT_IN.iter().find(|&&(id, _)| id == exp.id) {
            Some((id, operand)) => out.push_str(&format!("{id}{operand}  {} (opt-in)\n", exp.desc)),
            None => out.push_str(&format!("{}  {}\n", exp.id, exp.desc)),
        }
    }
    out
}

/// The experiments a command line names, in print order.
pub struct Selection {
    /// Members of the default set.
    pub default: Vec<Experiment>,
    /// Opt-in experiments, which print after the default set.
    pub opt_in: Vec<Experiment>,
}

/// Selects the experiments `ids` name. An id is an experiment's id, an
/// opt-in id with its operand (`m02=HOSTS:DAYS`, `e10-sweep=SIZES`) or
/// `default`, which names the default set; no ids at all select the
/// default set too. Fails with one
/// message per id that names nothing or carries a bad operand.
pub fn select(ids: &[String], shards: usize) -> Result<Selection, Vec<String>> {
    let known: Vec<&str> = registry(&Operands::default())
        .iter()
        .map(|exp| exp.id)
        .chain([DEFAULT_SET])
        .collect();
    let mut ops = Operands {
        shards,
        ..Operands::default()
    };
    let mut names = Vec::new();
    let mut errors = Vec::new();
    for arg in ids {
        let (name, operand) = match arg.split_once('=') {
            Some((name, operand)) => (name, Some(operand)),
            None => (arg.as_str(), None),
        };
        let parsed = match (name, operand) {
            _ if !known.contains(&name) => Err("unknown experiment id; try `list`"),
            (_, None) => Ok(()),
            ("m02", Some(v)) => parse_m02(v)
                .map(|params| ops.m02 = params)
                .ok_or("m02 takes HOSTS:DAYS, both positive"),
            ("e10-sweep", Some(v)) => parse_sizes(v)
                .map(|sizes| ops.sweep = sizes)
                .ok_or("e10-sweep takes comma-separated host counts >= 2"),
            (_, Some(_)) => Err("only m02 and e10-sweep take an operand"),
        };
        match parsed {
            Ok(()) => names.push(name),
            Err(why) => errors.push(format!("{arg:?}: {why}")),
        }
    }
    if !errors.is_empty() {
        return Err(errors);
    }
    let whole_default = names.is_empty() || names.contains(&DEFAULT_SET);
    let (opt_in, default) = registry(&ops)
        .into_iter()
        .filter(|exp| names.contains(&exp.id) || (whole_default && !is_opt_in(exp.id)))
        .partition(|exp| is_opt_in(exp.id));
    Ok(Selection { default, opt_in })
}

/// Parses m02's operand: `<hosts>:<days>`, both positive.
fn parse_m02(v: &str) -> Option<m02::M02Params> {
    let (hosts, days) = v.split_once(':')?;
    let hosts = hosts.parse::<u32>().ok().filter(|&h| h >= 1)?;
    let days = days.parse::<u64>().ok().filter(|&d| d >= 1)?;
    Some(m02::M02Params { hosts, days })
}

/// Parses the sweep's operand: comma-separated host counts of at least 2.
fn parse_sizes(v: &str) -> Option<Vec<usize>> {
    let sizes: Vec<usize> = v
        .split(',')
        .map(|s| s.trim().parse::<usize>().ok().filter(|&n| n >= 2))
        .collect::<Option<_>>()?;
    (!sizes.is_empty()).then_some(sizes)
}
