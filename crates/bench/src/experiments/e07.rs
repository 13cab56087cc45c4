//! E7 — Idle hosts by time of day.
//!
//! Chapter 8's availability study: "65-70% of hosts in Sprite are idle on
//! average during the day, with up to 80% idle at night and on weekends."
//! We drive a week of diurnal activity traces over a 50-host cluster and
//! report the idle fraction per hour for a weekday and a weekend day, plus
//! the aggregate bands.

use sprite_net::HostId;
use sprite_sim::{DetRng, SimDuration, SimTime};
use sprite_workloads::{fraction_idle, ActivityModel, ActivityTrace, DAY, HOUR, WEEK};

use crate::support::TableWriter;

/// The experiment's aggregates.
#[derive(Debug, Clone)]
pub(crate) struct IdleStudy {
    /// Idle fraction for each hour of a weekday (Wednesday).
    pub weekday_by_hour: Vec<f64>,
    /// Idle fraction for each hour of a Saturday.
    pub weekend_by_hour: Vec<f64>,
    /// Average idle fraction over weekday working hours.
    pub working_hours_avg: f64,
    /// Average idle fraction over nights and weekends.
    pub off_hours_avg: f64,
}

/// Runs the study over `hosts` hosts for one simulated week.
pub fn run(hosts: usize, seed: u64) -> IdleStudy {
    let mut rng = DetRng::seed_from(seed);
    let model = ActivityModel::default();
    let traces: Vec<ActivityTrace> = (0..hosts)
        .map(|i| {
            ActivityTrace::generate(
                &mut rng,
                &model,
                HostId::new(i as u32),
                SimDuration::from_secs(WEEK),
            )
        })
        .collect();
    let sample = |day: u64, hour: u64| {
        let t = SimTime::ZERO + SimDuration::from_secs(day * DAY + hour * HOUR + 1800);
        fraction_idle(&traces, t)
    };
    let weekday_by_hour: Vec<f64> = (0..24).map(|hh| sample(2, hh)).collect();
    let weekend_by_hour: Vec<f64> = (0..24).map(|hh| sample(5, hh)).collect();
    let mut working = Vec::new();
    let mut off = Vec::new();
    for day in 0..7u64 {
        for hour in 0..24u64 {
            let f = sample(day, hour);
            if day < 5 && (9..18).contains(&hour) {
                working.push(f);
            } else {
                off.push(f);
            }
        }
    }
    IdleStudy {
        weekday_by_hour,
        weekend_by_hour,
        working_hours_avg: working.iter().sum::<f64>() / working.len() as f64,
        off_hours_avg: off.iter().sum::<f64>() / off.len() as f64,
    }
}

/// Renders the table (the figure's two series).
pub fn table() -> String {
    let study = run(50, 17);
    let mut t = TableWriter::new(
        "E7: fraction of idle hosts by hour (50 hosts, 1 week)",
        &["hour", "weekday", "weekend"],
    );
    for hh in 0..24 {
        t.row(&[
            format!("{hh:02}:30"),
            format!("{:.0}%", study.weekday_by_hour[hh] * 100.0),
            format!("{:.0}%", study.weekend_by_hour[hh] * 100.0),
        ]);
    }
    t.note(format!(
        "working-hours average {:.0}% idle; nights/weekends {:.0}% idle",
        study.working_hours_avg * 100.0,
        study.off_hours_avg * 100.0
    ));
    t.note("paper: 65-70% idle during the day, up to 80% at night and on weekends");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_bands_match_chapter_8() {
        let s = run(100, 23);
        assert!(
            (0.58..0.80).contains(&s.working_hours_avg),
            "daytime idle {:.2}",
            s.working_hours_avg
        );
        assert!(
            s.off_hours_avg > 0.74,
            "off-hours idle {:.2}",
            s.off_hours_avg
        );
        assert!(s.off_hours_avg > s.working_hours_avg);
    }

    #[test]
    fn weekend_days_are_idler_than_weekday_afternoons() {
        let s = run(100, 29);
        let weekday_afternoon: f64 = s.weekday_by_hour[13..17].iter().sum::<f64>() / 4.0;
        let weekend_afternoon: f64 = s.weekend_by_hour[13..17].iter().sum::<f64>() / 4.0;
        assert!(weekend_afternoon > weekday_afternoon);
    }
}
