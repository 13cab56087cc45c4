//! Simulated time.
//!
//! All of the reproduction runs on a simulated clock with microsecond
//! resolution. The paper's evaluation deals in quantities from tens of
//! microseconds (a local kernel call) to weeks (the Chapter 8 production
//! study); a `u64` microsecond counter covers both ends with room to spare
//! (over half a million simulated years).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time, stored as whole microseconds.
///
/// # Examples
///
/// ```
/// use sprite_sim::SimDuration;
///
/// let rpc = SimDuration::from_millis(2) + SimDuration::from_micros(600);
/// assert_eq!(rpc.as_micros(), 2_600);
/// assert_eq!(rpc.to_string(), "2.600ms");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond. Negative values saturate to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            SimDuration::ZERO
        } else {
            SimDuration((s * 1e6).round() as u64)
        }
    }

    /// The duration in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns `self - other`, saturating at zero instead of underflowing.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is longer than `self`; use
    /// [`SimDuration::saturating_sub`] when underflow is expected.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    /// Scales by an arbitrary non-negative factor **exactly**: the factor is
    /// decomposed into its IEEE-754 mantissa and exponent and the product is
    /// computed in 128-bit integer fixed point, so no microsecond is lost to
    /// a round-trip through fractional seconds even at week or century
    /// scales. Negative, NaN and zero factors yield [`SimDuration::ZERO`];
    /// results beyond `u64::MAX` microseconds saturate.
    fn mul(self, rhs: f64) -> SimDuration {
        if rhs.is_nan() || rhs <= 0.0 || self.0 == 0 {
            return SimDuration::ZERO;
        }
        if rhs.is_infinite() {
            return SimDuration(u64::MAX);
        }
        // rhs = mantissa * 2^exp, exactly.
        let bits = rhs.to_bits();
        let raw_exp = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mantissa, exp) = if raw_exp == 0 {
            (frac, -1074i64) // subnormal
        } else {
            (frac | (1u64 << 52), raw_exp - 1075)
        };
        let product = u128::from(self.0) * u128::from(mantissa);
        let scaled = if exp == 0 {
            product
        } else if exp > 0 {
            if exp >= 64 || product >> (128 - exp as u32) != 0 {
                u128::from(u64::MAX)
            } else {
                product << exp
            }
        } else {
            let shift = (-exp) as u32;
            if shift >= 128 {
                0
            } else {
                // Round half away from zero, like `f64::round`.
                (product >> shift) + ((product >> (shift - 1)) & 1)
            }
        };
        SimDuration(u64::try_from(scaled).unwrap_or(u64::MAX))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us >= 1_000_000 {
            write!(f, "{}.{:03}s", us / 1_000_000, (us % 1_000_000) / 1_000)
        } else if us >= 1_000 {
            write!(f, "{}.{:03}ms", us / 1_000, us % 1_000)
        } else {
            write!(f, "{us}us")
        }
    }
}

/// An instant on the simulated clock, measured from the start of the
/// simulation.
///
/// # Examples
///
/// ```
/// use sprite_sim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(3);
/// assert_eq!(t.elapsed_since(SimTime::ZERO), SimDuration::from_secs(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `us` microseconds after the start of simulation.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Microseconds since the start of simulation.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the start of simulation.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn elapsed_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0 - earlier.0)
    }

    /// The duration from `earlier` to `self`, or zero if `earlier` is later.
    pub fn saturating_elapsed_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max_of(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    /// Displays exactly like the duration since time zero.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration::from_micros(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2_000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3_000));
        assert_eq!(SimDuration::from_secs_f64(0.5).as_micros(), 500_000);
    }

    #[test]
    fn negative_float_durations_saturate() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(5);
        let b = SimDuration::from_millis(2);
        assert_eq!(a + b, SimDuration::from_millis(7));
        assert_eq!(a - b, SimDuration::from_millis(3));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a * 3, SimDuration::from_millis(15));
        assert_eq!(a / 5, SimDuration::from_millis(1));
        assert_eq!(a * 0.5, SimDuration::from_micros(2_500));
    }

    #[test]
    fn mul_f64_is_exact_at_week_scale() {
        // A week plus one microsecond: dyadic factors must be exact to the
        // microsecond, which the old round-trip through `as_secs_f64`
        // could not guarantee for the general case.
        let week_us = 7 * 86_400 * 1_000_000u64;
        let d = SimDuration::from_micros(week_us + 1);
        for k in 1..=16u64 {
            let f = k as f64 / 8.0; // exactly representable factors
            let expect = (u128::from(d.as_micros()) * u128::from(k) + 4) / 8;
            assert_eq!(
                (d * f).as_micros() as u128,
                expect,
                "week-scale duration times {f} lost precision"
            );
        }
    }

    #[test]
    fn mul_f64_is_exact_beyond_f64_integer_range() {
        // 2^53 + 1 microseconds is not representable as f64; multiplying by
        // 1.0 through the old float path dropped the +1.
        let d = SimDuration::from_micros((1u64 << 53) + 1);
        assert_eq!((d * 1.0).as_micros(), (1u64 << 53) + 1);
        assert_eq!((d * 2.0).as_micros(), ((1u64 << 53) + 1) * 2);
        assert_eq!((d * 0.5).as_micros(), (1u64 << 52) + 1); // rounds .5 up
    }

    #[test]
    fn mul_f64_edge_cases() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d * 0.0, SimDuration::ZERO);
        assert_eq!(d * -3.0, SimDuration::ZERO);
        assert_eq!(d * f64::NAN, SimDuration::ZERO);
        assert_eq!(d * f64::INFINITY, SimDuration::from_micros(u64::MAX));
        // Saturates instead of wrapping.
        let huge = SimDuration::from_micros(u64::MAX / 2);
        assert_eq!(huge * 4.0, SimDuration::from_micros(u64::MAX));
        // Tiny factors round to the nearest microsecond.
        assert_eq!((SimDuration::from_secs(1) * 4e-7).as_micros(), 0);
        assert_eq!((SimDuration::from_secs(1) * 6e-7).as_micros(), 1);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn time_arithmetic() {
        let mut t = SimTime::ZERO + SimDuration::from_secs(1);
        t += SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 1_500_000);
        assert_eq!(
            t - (SimTime::ZERO + SimDuration::from_secs(1)),
            SimDuration::from_millis(500)
        );
        assert_eq!(SimTime::ZERO.saturating_elapsed_since(t), SimDuration::ZERO);
        assert_eq!(t.max_of(SimTime::ZERO), t);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_micros(17).to_string(), "17us");
        assert_eq!(SimDuration::from_micros(2_600).to_string(), "2.600ms");
        assert_eq!(SimDuration::from_micros(1_250_000).to_string(), "1.250s");
        assert_eq!(
            (SimTime::ZERO + SimDuration::from_millis(3)).to_string(),
            "3.000ms"
        );
    }
}
