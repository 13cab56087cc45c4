//! E10 — Host-selection architectures head to head (Table 6.2).
//!
//! Drives the four architectures over the same synthetic cluster: periodic
//! load reports from every host, a stream of selection requests, and
//! releases when the borrowed hosts are done. Reported per architecture and
//! cluster size: selection latency, control messages per selection, grant
//! rate and staleness conflicts — the dimensions on which the thesis
//! concludes a central server wins (its measured select+release was 56 ms
//! \[DO91\]).

use sprite_hostsel::{
    AvailabilityPolicy, CentralServer, GossipDissemination, HostInfo, HostSelector, MulticastQuery,
    SharedFileBoard,
};
use sprite_net::{CostModel, HostId, Transport};
use sprite_sim::{DetRng, OnlineStats, SimDuration, SimTime};
use sprite_workloads::{ActivityModel, ActivityTrace};

use crate::runner::{Experiment, Report};
use crate::support::{JsonObject, TableWriter};

/// One (architecture, cluster size) measurement.
#[derive(Debug, Clone)]
pub struct ArchRow {
    /// Architecture name.
    pub name: &'static str,
    /// Cluster size.
    pub hosts: usize,
    /// Selection requests issued.
    pub requests: u64,
    /// Fraction granted.
    pub grant_rate: f64,
    /// Staleness conflicts per request.
    pub conflicts_per_request: f64,
    /// Mean selection latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Control messages per request (updates + selection traffic).
    pub messages_per_request: f64,
    /// Mean age (seconds) of the cached entry each grant acted on; zero for
    /// architectures that consult the ground truth directly.
    pub staleness_s: f64,
    /// Placement quality: granted host's true idle time as a percentage of
    /// the best truly-available host's idle time at grant (100 = perfect).
    pub quality_pct: f64,
    /// Total host-selection wire bytes over the run (reports + queries).
    pub wire_bytes: u64,
}

/// Drives one selector for `duration` over `hosts` hosts; the row is
/// labelled `name`.
pub fn drive(
    name: &'static str,
    selector: &mut dyn HostSelector,
    hosts: usize,
    duration: SimDuration,
    seed: u64,
) -> ArchRow {
    let mut net = Transport::new(CostModel::sun3(), hosts);
    let mut rng = DetRng::seed_from(seed);
    let model = ActivityModel::default();
    // Start mid-morning on a weekday so ~1/3 of hosts are user-active.
    let start = SimTime::ZERO + SimDuration::from_secs(2 * 86_400 + 10 * 3_600);
    let traces: Vec<ActivityTrace> = (0..hosts)
        .map(|i| {
            ActivityTrace::generate(
                &mut rng,
                &model,
                HostId::new(i as u32),
                duration + SimDuration::from_secs(3 * 86_400 + 11 * 3_600),
            )
        })
        .collect();
    let truth_at = |t: SimTime, extra_load: &dyn Fn(HostId) -> f64| -> Vec<HostInfo> {
        traces
            .iter()
            .map(|tr| HostInfo {
                host: tr.host,
                load: extra_load(tr.host),
                idle: tr.idle_duration_at(t),
                console_active: tr.active_at(t),
                speed: 1.0,
            })
            .collect()
    };
    // (release_at, requester, host) for every host out on loan.
    let mut held: Vec<(SimTime, HostId, HostId)> = Vec::new();
    // Placement quality is judged against the same default policy every E10
    // cell hands its selector.
    let policy = AvailabilityPolicy::default();
    let mut quality = OnlineStats::new();
    let report_every = SimDuration::from_secs(5);
    let request_every = SimDuration::from_secs(10);
    let mut t = start;
    let mut next_request = start + request_every;
    let end = start + duration;
    while t < end {
        // Periodic load-daemon reports.
        let held_hosts: Vec<HostId> = held.iter().map(|(_, _, hh)| *hh).collect();
        let loaded = move |hid: HostId| {
            if held_hosts.contains(&hid) {
                1.0
            } else {
                0.0
            }
        };
        let world = truth_at(t, &loaded);
        for info in &world {
            selector.report(&mut net, t, *info);
        }
        // Releases that came due.
        let due: Vec<(SimTime, HostId, HostId)> =
            held.iter().copied().filter(|(at, _, _)| *at <= t).collect();
        held.retain(|(at, _, _)| *at > t);
        for (at, req, hh) in due {
            selector.release(&mut net, at, req, hh);
        }
        // Selection requests from random user-active hosts.
        while next_request <= t {
            let requester = HostId::new(rng.uniform_u64(hosts as u64) as u32);
            let (granted, done) = selector.select(&mut net, next_request, requester, &world);
            if let Some(hh) = granted {
                // How good was the pick? Compare the granted host's true
                // idle time against the best truly-available host's (the
                // `world` snapshot already loads held hosts, so they are
                // ineligible on both sides of the ratio).
                let chosen_idle = world
                    .iter()
                    .find(|i| i.host == hh)
                    .map(|i| i.idle.as_secs_f64())
                    .unwrap_or(0.0);
                let best_idle = world
                    .iter()
                    .filter(|i| i.host != requester && policy.is_available(i))
                    .map(|i| i.idle.as_secs_f64())
                    .fold(0.0, f64::max);
                quality.record(if best_idle > 0.0 {
                    (chosen_idle / best_idle).min(1.0)
                } else {
                    1.0
                });
                let hold = rng.exponential(SimDuration::from_secs(60));
                held.push((done + hold, requester, hh));
            }
            next_request += request_every;
        }
        t += report_every;
    }
    let stats = selector.stats();
    ArchRow {
        name,
        hosts,
        requests: stats.requests,
        grant_rate: stats.granted as f64 / stats.requests.max(1) as f64,
        conflicts_per_request: stats.conflicts as f64 / stats.requests.max(1) as f64,
        mean_latency_ms: stats.select_latency.mean() * 1e3,
        messages_per_request: stats.messages as f64 / stats.requests.max(1) as f64,
        staleness_s: stats.info_age.mean(),
        quality_pct: quality.mean() * 100.0,
        wire_bytes: net.stats().bytes,
    }
}

/// The six architectures, in the table's canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArchKind {
    /// Central availability server (Sprite's winner).
    Central,
    /// Shared-file bulletin board.
    SharedFile,
    /// MOSIX's probabilistic gossip ([`GossipDissemination::mosix`]).
    Probabilistic,
    /// Multicast query.
    Multicast,
    /// The central daemon spread over `c` hosts.
    Sharded,
    /// Batched load-vector gossip with local allocation-free selection.
    Gossip,
}

impl ArchKind {
    /// The architecture's row label.
    pub fn label(self) -> &'static str {
        match self {
            ArchKind::Central => "central-server",
            ArchKind::SharedFile => "shared-file",
            ArchKind::Probabilistic => "probabilistic",
            ArchKind::Multicast => "multicast",
            ArchKind::Sharded => "sharded",
            ArchKind::Gossip => "gossip",
        }
    }
}

/// Canonical architecture order for the matrix.
pub(crate) const ARCHS: [ArchKind; 6] = [
    ArchKind::Central,
    ArchKind::SharedFile,
    ArchKind::Probabilistic,
    ArchKind::Multicast,
    ArchKind::Sharded,
    ArchKind::Gossip,
];

/// Daemon count for a sharded cell: one per 64 hosts, at least two (so
/// sharding actually happens), at most 64, never more than hosts.
pub(crate) fn sharded_coordinators(hosts: usize) -> usize {
    (hosts / 64).clamp(2, 64).min(hosts)
}

/// Builds the gossip selector an E10 cell drives: fanout 2, batches of 8,
/// refresh floor every 6th report (reports arrive every 5 s, so an
/// unchanged host still re-gossips at least twice a minute).
pub(crate) fn gossip_selector(
    hosts: usize,
    policy: AvailabilityPolicy,
    seed: u64,
) -> GossipDissemination {
    let mut g = GossipDissemination::new(hosts, 2, 8, policy, seed ^ 0x71d3);
    g.set_refresh_every(6);
    g
}

/// Drives one `(architecture, cluster size)` cell. Each cell builds its own
/// selector and network from the seed, so cells are independent — the
/// parallel experiment runner executes them on separate threads and the
/// result is identical to the serial sweep.
pub(crate) fn drive_kind(
    kind: ArchKind,
    hosts: usize,
    duration: SimDuration,
    seed: u64,
) -> ArchRow {
    let policy = AvailabilityPolicy::default();
    let mut selector: Box<dyn HostSelector> = match kind {
        ArchKind::Central => Box::new(CentralServer::new(HostId::new(0), policy)),
        ArchKind::SharedFile => Box::new(SharedFileBoard::new(HostId::new(0), policy)),
        ArchKind::Probabilistic => {
            Box::new(GossipDissemination::mosix(hosts, 4, policy, seed ^ 0x9e37))
        }
        ArchKind::Multicast => Box::new(MulticastQuery::new(policy)),
        ArchKind::Sharded => Box::new(CentralServer::sharded(
            hosts,
            sharded_coordinators(hosts),
            policy,
        )),
        ArchKind::Gossip => Box::new(gossip_selector(hosts, policy, seed)),
    };
    drive(kind.label(), selector.as_mut(), hosts, duration, seed)
}

/// Runs the full matrix serially.
pub fn run(host_counts: &[usize], duration: SimDuration, seed: u64) -> Vec<ArchRow> {
    cells(host_counts, &ARCHS, duration, seed)
        .map(|(_, cell)| cell())
        .collect()
}

/// Cluster sizes in the full table.
pub(crate) const FULL_SIZES: [usize; 4] = [10, 50, 100, 200];
/// Simulated duration of each cell in the full table.
pub(crate) const FULL_DURATION_SECS: u64 = 1800;
/// Seed for the full table.
pub const FULL_SEED: u64 = 31;

/// Renders the table from the matrix rows (in canonical order).
pub fn render(rows: &[ArchRow]) -> String {
    let mut t = TableWriter::new(
        "E10: host-selection architectures (30 simulated minutes each)",
        &[
            "architecture",
            "hosts",
            "requests",
            "granted",
            "conflicts/req",
            "latency(ms)",
            "msgs/req",
        ],
    );
    for r in rows {
        t.row(&[
            r.name.to_string(),
            r.hosts.to_string(),
            r.requests.to_string(),
            format!("{:.0}%", r.grant_rate * 100.0),
            format!("{:.2}", r.conflicts_per_request),
            format!("{:.2}", r.mean_latency_ms),
            format!("{:.1}", r.messages_per_request),
        ]);
    }
    t.note("paper: central server selects in ~tens of ms and scales best; the shared file");
    t.note("hammers the file server as clusters grow; gossip is cheap but stale; multicast");
    t.note("replies scale with cluster size");
    t.render()
}

/// The `sizes × archs` cells as runner units, size-major, each costed by
/// its host count.
fn cells<'a>(
    sizes: &'a [usize],
    archs: &'static [ArchKind],
    duration: SimDuration,
    seed: u64,
) -> impl Iterator<Item = (u64, impl FnOnce() -> ArchRow + Send + 'static)> + 'a {
    sizes.iter().flat_map(move |&hosts| {
        archs.iter().map(move |&kind| {
            (hosts as u64, move || {
                drive_kind(kind, hosts, duration, seed)
            })
        })
    })
}

/// E10 as a runner experiment: one unit per `(size, architecture)` cell.
pub fn experiment(sizes: &[usize], duration: SimDuration, seed: u64) -> Experiment {
    Experiment::new(
        "e10",
        "host-selection architectures",
        cells(sizes, &ARCHS, duration, seed),
        |rows: Vec<ArchRow>| Report::table(render(&rows)),
    )
}

/// Cluster sizes in the decentralization sweep (100 → 10 000 hosts).
pub(crate) const SWEEP_SIZES: [usize; 3] = [100, 1000, 10_000];
/// Architectures raced in the sweep: the thesis's winner against the two
/// decentralized designs that replace it at scale.
pub(crate) const SWEEP_ARCHS: [ArchKind; 3] =
    [ArchKind::Central, ArchKind::Sharded, ArchKind::Gossip];
/// Simulated duration of each sweep cell.
pub(crate) const SWEEP_DURATION_SECS: u64 = 1800;
/// Seed for the sweep.
pub(crate) const SWEEP_SEED: u64 = 31;

/// The sweep as a runner experiment, printed only when named
/// (`e10-sweep[=SIZES]`): one unit per cell of `sizes × SWEEP_ARCHS`, each
/// building its own selector, transport and RNG from `seed`.
pub fn sweep_experiment(sizes: &[usize], duration: SimDuration, seed: u64) -> Experiment {
    Experiment::new(
        "e10-sweep",
        "decentralized host selection at scale",
        cells(sizes, &SWEEP_ARCHS, duration, seed),
        move |rows: Vec<ArchRow>| Report {
            json: Some(("e10_sweep", sweep_json(&rows, duration, seed))),
            ..Report::table(render_sweep(&rows))
        },
    )
}

/// The sweep's block of `experiments --json`.
fn sweep_json(rows: &[ArchRow], duration: SimDuration, seed: u64) -> JsonObject {
    JsonObject::new()
        .text(
            "description",
            "decentralized host selection at scale: central vs sharded vs gossip",
        )
        .num("duration_secs", duration.as_micros() / 1_000_000)
        .num("seed", seed)
        .rows(
            "rows",
            rows.iter().map(|r| {
                JsonObject::new()
                    .text("architecture", r.name)
                    .num("hosts", r.hosts)
                    .num("requests", r.requests)
                    .num("grant_rate", format!("{:.4}", r.grant_rate))
                    .num(
                        "conflicts_per_request",
                        format!("{:.4}", r.conflicts_per_request),
                    )
                    .num("staleness_s", format!("{:.3}", r.staleness_s))
                    .num("quality_pct", format!("{:.1}", r.quality_pct))
                    .num("mean_latency_ms", format!("{:.4}", r.mean_latency_ms))
                    .num(
                        "messages_per_request",
                        format!("{:.2}", r.messages_per_request),
                    )
                    .num("wire_bytes", r.wire_bytes)
            }),
        )
}

/// Renders the sweep table: staleness vs. placement quality vs. latency vs.
/// wire cost, the axes on which decentralization trades against the thesis's
/// central server.
pub(crate) fn render_sweep(rows: &[ArchRow]) -> String {
    let mut t = TableWriter::new(
        "E10 sweep: decentralized host selection at scale (30 simulated minutes each)",
        &[
            "architecture",
            "hosts",
            "requests",
            "granted",
            "staleness(s)",
            "quality",
            "latency(ms)",
            "msgs/req",
            "wire(KB)",
        ],
    );
    for r in rows {
        t.row(&[
            r.name.to_string(),
            r.hosts.to_string(),
            r.requests.to_string(),
            format!("{:.0}%", r.grant_rate * 100.0),
            format!("{:.1}", r.staleness_s),
            format!("{:.0}%", r.quality_pct),
            format!("{:.3}", r.mean_latency_ms),
            format!("{:.1}", r.messages_per_request),
            format!("{}", r.wire_bytes / 1024),
        ]);
    }
    t.note("gossip selects locally in microseconds on slightly staler state; the sharded");
    t.note("coordinators keep central-grade freshness while splitting the daemon's load;");
    t.note("both slow alike at scale: their round trips queue on the one shared Ethernet");
    t.note("behind the load reports, the scaling wall the thesis never had to hit");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn central_server_is_fast_and_scales() {
        let rows = run(&[20, 80], SimDuration::from_secs(300), 3);
        let central: Vec<&ArchRow> = rows.iter().filter(|r| r.name == "central-server").collect();
        let shared: Vec<&ArchRow> = rows.iter().filter(|r| r.name == "shared-file").collect();
        // Central select latency is tens of ms and roughly size-independent.
        for c in &central {
            assert!(
                c.mean_latency_ms < 60.0,
                "central latency {}",
                c.mean_latency_ms
            );
        }
        // The shared file slows down with cluster size and is slower than
        // the central server at scale.
        assert!(shared[1].mean_latency_ms > shared[0].mean_latency_ms);
        assert!(shared[1].mean_latency_ms > central[1].mean_latency_ms);
    }

    #[test]
    fn multicast_traffic_grows_with_cluster() {
        let rows = run(&[20, 80], SimDuration::from_secs(300), 5);
        let mc: Vec<&ArchRow> = rows.iter().filter(|r| r.name == "multicast").collect();
        assert!(mc[1].messages_per_request > 2.0 * mc[0].messages_per_request);
    }

    #[test]
    fn gossip_selects_fastest_but_floods_updates() {
        let rows = run(&[40], SimDuration::from_secs(300), 7);
        let prob = rows.iter().find(|r| r.name == "probabilistic").unwrap();
        let central = rows.iter().find(|r| r.name == "central-server").unwrap();
        // Local selection beats a server round trip...
        assert!(prob.mean_latency_ms < central.mean_latency_ms);
        // ...but the gossip fabric pays continuous per-host update traffic,
        // where the central server only hears about idle/busy transitions
        // [TL88]. This is Table 6.2's core trade-off.
        assert!(
            prob.messages_per_request > 3.0 * central.messages_per_request,
            "gossip {} msgs/req vs central {}",
            prob.messages_per_request,
            central.messages_per_request
        );
    }

    #[test]
    fn decentralized_archs_kill_the_central_round_trip() {
        let rows = run(&[60], SimDuration::from_secs(300), 11);
        let central = rows.iter().find(|r| r.name == "central-server").unwrap();
        let sharded = rows.iter().find(|r| r.name == "sharded").unwrap();
        let gossip = rows.iter().find(|r| r.name == "gossip").unwrap();
        // Gossip selection is a local cache scan — no round trip at all.
        assert!(
            gossip.mean_latency_ms < 0.1 * central.mean_latency_ms,
            "gossip {} ms vs central {} ms",
            gossip.mean_latency_ms,
            central.mean_latency_ms
        );
        // The price is acting on older information than the server's
        // freshly-reported table.
        assert!(
            gossip.staleness_s > central.staleness_s,
            "gossip staleness {} s vs central {} s",
            gossip.staleness_s,
            central.staleness_s
        );
        // Sharded keeps server-grade freshness, and its round trip crosses
        // the same shared wire, so it stays in the central server's ballpark.
        assert!(
            sharded.mean_latency_ms < 1.5 * central.mean_latency_ms,
            "sharded {} ms vs central {} ms",
            sharded.mean_latency_ms,
            central.mean_latency_ms
        );
        // Both decentralized designs still place well.
        assert!(
            sharded.quality_pct > 50.0,
            "sharded quality {}",
            sharded.quality_pct
        );
        assert!(
            gossip.quality_pct > 30.0,
            "gossip quality {}",
            gossip.quality_pct
        );
    }

    #[test]
    fn everyone_grants_most_requests_in_an_idle_cluster() {
        let rows = run(&[30], SimDuration::from_secs(300), 9);
        for r in &rows {
            assert!(
                r.grant_rate > 0.5,
                "{} grant rate {:.2} too low",
                r.name,
                r.grant_rate
            );
        }
    }
}
