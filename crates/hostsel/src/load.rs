//! Idle-host detection.
//!
//! Sprite considered a workstation *available* when its owner had not
//! touched keyboard or mouse for a while and its runnable-process load was
//! low. Mutka and Livny's observation \[ML87\] — hosts idle a long time tend
//! to stay idle — motivates ranking candidates by idle time.

use sprite_net::HostId;
use sprite_sim::SimDuration;

/// A snapshot of one host's availability-relevant state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostInfo {
    /// Which host.
    pub host: HostId,
    /// Smoothed runnable-process load.
    pub load: f64,
    /// Time since the last keyboard/mouse input.
    pub idle: SimDuration,
    /// Whether the owner is actively at the console.
    pub console_active: bool,
    /// CPU-speed multiplier of the host's hardware class (1.0 = baseline).
    /// Selectors rank by *effective* capacity — a fast machine that went
    /// idle recently can beat a slow one idle for much longer.
    pub speed: f64,
}

impl HostInfo {
    /// A fully-idle snapshot, for tests and initialization.
    pub fn idle_host(host: HostId, idle: SimDuration) -> Self {
        HostInfo {
            host,
            load: 0.0,
            idle,
            console_active: false,
            speed: 1.0,
        }
    }

    /// Same snapshot with the hardware class set (builder-style).
    pub fn with_speed(mut self, speed: f64) -> Self {
        self.speed = speed;
        self
    }

    /// Idle time weighted by hardware class: microseconds of input-idle
    /// time × CPU-speed multiplier. This is the ranking key the selectors
    /// maximize; at speed 1.0 everywhere it reduces to plain idle time, so
    /// homogeneous clusters order exactly as before.
    pub fn effective_idle(&self) -> f64 {
        self.idle.as_micros() as f64 * self.speed
    }
}

/// When a host counts as an eligible migration target.
#[derive(Debug, Clone, Copy)]
pub struct AvailabilityPolicy {
    /// Minimum input-idle time (Sprite waited on the order of 30 s so a
    /// briefly-pausing user did not lose the machine).
    pub min_idle: SimDuration,
    /// Maximum smoothed load.
    pub max_load: f64,
}

impl Default for AvailabilityPolicy {
    fn default() -> Self {
        AvailabilityPolicy {
            min_idle: SimDuration::from_secs(30),
            max_load: 0.30,
        }
    }
}

impl AvailabilityPolicy {
    /// Does `info` describe an available host?
    pub fn is_available(&self, info: &HostInfo) -> bool {
        !info.console_active && info.idle >= self.min_idle && info.load <= self.max_load
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_policy_thresholds() {
        let p = AvailabilityPolicy::default();
        let mut info = HostInfo::idle_host(HostId::new(1), SimDuration::from_secs(60));
        assert!(p.is_available(&info));
        info.console_active = true;
        assert!(!p.is_available(&info));
        info.console_active = false;
        info.idle = SimDuration::from_secs(10);
        assert!(!p.is_available(&info), "recently-touched keyboard");
        info.idle = SimDuration::from_secs(60);
        info.load = 1.5;
        assert!(!p.is_available(&info), "loaded host");
    }
}
