//! Metrics from a run, and the JSON lines the benchmark prints.

use std::fmt::Write as _;

use crate::json::quote;
use crate::measure::{quantile, ratio, LayerCounts, Outcome, RPC_OPS};
use crate::probe::{Layer, Tracer};

/// Whether a metric is host time (noisy) or simulated (a function of the
/// seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Wall,
    Sim,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub kind: Kind,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str, kind: Kind) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        kind,
    }
}

/// Whole epochs are grouped into rounds of at least this much host time;
/// throughput is taken per round.
const ROUND_NS: u64 = 500_000_000;

/// Operations per second of each round of whole epochs.
pub fn round_rates(out: &Outcome) -> Vec<f64> {
    let mut rates = Vec::new();
    let (mut ops, mut ns) = (0usize, 0u64);
    for e in out.epochs.iter().filter(|e| e.complete) {
        ops += e.ops;
        ns += e.wall_ns;
        if ns >= ROUND_NS {
            rates.push(ops as f64 / (ns as f64 / 1e9));
            (ops, ns) = (0, 0);
        }
    }
    if rates.is_empty() && ns > 0 {
        rates.push(ops as f64 / (ns as f64 / 1e9));
    }
    rates
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let world_s: Vec<f64> = out.epochs.iter().map(|e| e.world_ns as f64 / 1e9).collect();
    vec![
        m("setup_s", quantile(&world_s, 0.5), "s", Kind::Wall),
        m("peak_rss_mb", out.sample_rss_mb, "MB", Kind::Wall),
        m(
            "ops_per_s",
            quantile(&round_rates(out), 0.5),
            "1/s",
            Kind::Wall,
        ),
        m("sim_job_ms_mean", out.sample.job_ms_mean(), "ms", Kind::Sim),
        m(
            "sim_msgs_per_job",
            out.sample.msgs_per_job(),
            "count",
            Kind::Sim,
        ),
    ]
}

/// The per-layer metrics of a traced run; `plain` is the untraced run of
/// the same operations.
pub fn per_layer(tracer: &Tracer, traced: &Outcome, plain: &Outcome) -> Vec<Metric> {
    let self_ns = tracer.self_ns();
    let wall_ns: u64 = self_ns.iter().sum();
    let share = |l: Layer| ratio(self_ns[l as usize] as f64, wall_ns as f64);
    let mut v = vec![
        m(
            "bench.traced_wall_s",
            traced.elapsed_ns as f64 / 1e9,
            "s",
            Kind::Wall,
        ),
        m(
            "bench.untraced_wall_s",
            plain.elapsed_ns as f64 / 1e9,
            "s",
            Kind::Wall,
        ),
        m(
            "bench.trace_overhead_frac",
            ratio(traced.elapsed_ns as f64, plain.elapsed_ns as f64) - 1.0,
            "frac",
            Kind::Wall,
        ),
        m(
            "bench.harness_self_s",
            self_ns[Layer::Bench as usize] as f64 / 1e9,
            "s",
            Kind::Wall,
        ),
    ];
    for l in Layer::ALL {
        v.push(m(
            format!("{}.self_frac", l.label()),
            share(l),
            "frac",
            Kind::Wall,
        ));
    }
    let engine_s = self_ns[Layer::Sim as usize] as f64 / 1e9;
    v.push(m(
        "sim.events_per_s",
        ratio(traced.run_events as f64, engine_s),
        "1/s",
        Kind::Wall,
    ));
    v.extend(counts(&traced.sample.layers));
    v
}

/// Work counters over the sample, per layer.
fn counts(l: &LayerCounts) -> Vec<Metric> {
    let c = |name: &str, value: u64| m(name, value as f64, "count", Kind::Sim);
    let r = |name: &str, value: f64| m(name, value, "ratio", Kind::Sim);
    let b = |name: &str, value: u64| m(name, value as f64, "bytes", Kind::Sim);
    let e = &l.engine;
    let phases: f64 = l.phase_ms.iter().sum();
    let mut v = vec![
        c("sim.events", e.events_executed),
        c("sim.messages", l.engine_messages),
        r(
            "sim.buckets_scanned_per_event",
            ratio(e.buckets_scanned as f64, e.events_executed as f64),
        ),
        c("sim.overflow_migrations", e.overflow_migrations),
        c("sim.resizes", e.resizes),
        c("kernel.pcb_high_water", l.pcb_high_water),
        c("kernel.stale_lookups", l.stale_lookups),
        c("core.migrations", l.migrations),
        c("core.evictions", l.evictions),
        c("core.ckpt_moves", l.ckpt_moves),
        c("core.failures", l.migration_failures),
        c("core.aborts", l.migration_aborts),
    ];
    for (phase, ms) in ["negotiate", "vm", "streams", "state", "commit"]
        .iter()
        .zip(l.phase_ms)
    {
        v.push(r(&format!("core.phase_{phase}_frac"), ratio(ms, phases)));
    }
    v.extend([
        c("vm.pages_moved", l.vm_pages_moved),
        b("vm.bytes_moved", l.vm_bytes_moved),
        b("vm.ckpt_image_bytes", l.ckpt_image_bytes),
        c("fs.lookups", l.fs.lookups),
        c("fs.opens", l.fs.opens),
        c("fs.block_fetches", l.fs.block_fetches),
        c("fs.block_writebacks", l.fs.block_writebacks),
        c("fs.pageins", l.fs.pageins),
        c("fs.pageouts", l.fs.pageouts),
        c("fs.replica_hits", l.fs.replica_hits),
        r(
            "fs.name_cache_hit_ratio",
            ratio(l.fs.name_cache_hits as f64, l.fs.opens as f64),
        ),
        r("fs.server_util_max", l.fs_server_util_max),
        c("net.messages", l.net_messages),
        b("net.bytes", l.net_bytes),
    ]);
    for op in RPC_OPS {
        let row = l.rpc.get(op);
        v.push(c(&format!("net.rpc.{}.calls", op.label()), row.calls));
        v.push(b(&format!("net.rpc.{}.bytes", op.label()), row.bytes));
    }
    let hostsel_bytes: u64 = l
        .rpc
        .rows()
        .filter(|(op, _)| op.label().starts_with("hostsel-"))
        .map(|(_, row)| row.bytes)
        .sum();
    v.extend([
        c("hostsel.requests", l.hostsel_requests),
        r(
            "hostsel.grant_ratio",
            ratio(l.hostsel_granted as f64, l.hostsel_requests as f64),
        ),
        b("hostsel.bytes", hostsel_bytes),
        c("pmake.targets", l.pmake_targets),
        r(
            "pmake.remote_ratio",
            ratio(l.pmake_remote as f64, l.pmake_targets as f64),
        ),
    ]);
    v
}

fn number(x: f64) -> String {
    // `{}` prints the shortest text that reads back as the same f64: every
    // measured digit, nothing invented.
    format!("{x}")
}

/// `{"name": {"value": v, "unit": u[, "kind": k]}, ...}`.
pub fn metrics_object(metrics: &[Metric], with_kind: bool) -> String {
    let mut s = String::from("{");
    for (i, x) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{}: {{\"value\": {}, \"unit\": {}",
            quote(&x.name),
            number(x.value),
            quote(x.unit)
        );
        if with_kind {
            let kind = match x.kind {
                Kind::Wall => "wall",
                Kind::Sim => "sim",
            };
            let _ = write!(s, ", \"kind\": \"{kind}\"");
        }
        s.push('}');
    }
    s.push('}');
    s
}
