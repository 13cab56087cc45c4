//! The Chapter 6 shoot-out: four ways to find an idle workstation, driven
//! by the same diurnal cluster, with latency / traffic / conflicts printed
//! side by side.
//!
//! ```text
//! cargo run --release --example host_selection
//! ```

use sprite::hostsel::{
    AvailabilityPolicy, CentralServer, GossipDissemination, HostInfo, HostSelector, MulticastQuery,
    SharedFileBoard,
};
use sprite::net::{CostModel, HostId, Transport};
use sprite::sim::{DetRng, SimDuration, SimTime};
use sprite::workloads::{ActivityModel, ActivityTrace};

fn main() {
    let hosts = 60;
    let duration = SimDuration::from_secs(1800);
    let policy = AvailabilityPolicy::default();
    println!("{hosts} hosts, 30 simulated minutes, one selection request every 10s\n");
    println!(
        "{:<15} {:>9} {:>9} {:>14} {:>13} {:>10}",
        "architecture", "requests", "granted", "latency(ms)", "msgs/request", "conflicts"
    );

    // Table 6.2's names: MOSIX's probabilistic gossip is one
    // configuration of the gossip selector.
    let mut selectors: Vec<(&str, Box<dyn HostSelector>)> = vec![
        (
            "central-server",
            Box::new(CentralServer::new(HostId::new(0), policy)),
        ),
        (
            "shared-file",
            Box::new(SharedFileBoard::new(HostId::new(0), policy)),
        ),
        (
            "probabilistic",
            Box::new(GossipDissemination::mosix(hosts, 4, policy, 7)),
        ),
        ("multicast", Box::new(MulticastQuery::new(policy))),
    ];
    for (name, sel) in &mut selectors {
        let row = drive(sel.as_mut(), hosts, duration);
        println!(
            "{:<15} {:>9} {:>9} {:>14.2} {:>13.1} {:>10}",
            name, row.0, row.1, row.2, row.3, row.4
        );
    }
    println!("\nThe thesis's conclusion: the central server wins on nearly every axis —");
    println!("constant-latency selections, transition-only updates, and global state that");
    println!("prevents double assignment.");
}

fn drive(
    selector: &mut dyn HostSelector,
    hosts: usize,
    duration: SimDuration,
) -> (u64, u64, f64, f64, u64) {
    let mut net = Transport::new(CostModel::sun3(), hosts);
    let mut rng = DetRng::seed_from(99);
    let model = ActivityModel::default();
    let start = SimTime::ZERO + SimDuration::from_secs(2 * 86_400 + 10 * 3_600);
    let traces: Vec<ActivityTrace> = (0..hosts)
        .map(|i| {
            ActivityTrace::generate(
                &mut rng,
                &model,
                HostId::new(i as u32),
                duration + SimDuration::from_secs(3 * 86_400),
            )
        })
        .collect();
    let mut held: Vec<(SimTime, HostId, HostId)> = Vec::new();
    let mut t = start;
    let end = start + duration;
    let mut next_request = start;
    while t < end {
        let world: Vec<HostInfo> = traces
            .iter()
            .map(|tr| HostInfo {
                host: tr.host,
                load: if held.iter().any(|(_, _, hh)| *hh == tr.host) {
                    1.0
                } else {
                    0.0
                },
                idle: tr.idle_duration_at(t),
                console_active: tr.active_at(t),
                speed: 1.0,
            })
            .collect();
        for info in &world {
            selector.report(&mut net, t, *info);
        }
        let due: Vec<_> = held.iter().copied().filter(|(at, _, _)| *at <= t).collect();
        held.retain(|(at, _, _)| *at > t);
        for (at, req, hh) in due {
            selector.release(&mut net, at, req, hh);
        }
        while next_request <= t {
            let requester = HostId::new(rng.uniform_u64(hosts as u64) as u32);
            let (granted, done) = selector.select(&mut net, next_request, requester, &world);
            if let Some(hh) = granted {
                held.push((
                    done + rng.exponential(SimDuration::from_secs(90)),
                    requester,
                    hh,
                ));
            }
            next_request += SimDuration::from_secs(10);
        }
        t += SimDuration::from_secs(5);
    }
    let s = selector.stats();
    (
        s.requests,
        s.granted,
        s.select_latency.mean() * 1e3,
        s.messages as f64 / s.requests.max(1) as f64,
        s.conflicts,
    )
}
