//! Virtual time: instants, durations, and a shared monotonic clock.

use std::cell::Cell;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};
use std::rc::Rc;

use serde::Serialize;

/// An instant on the simulation timeline, in microseconds since boot.
///
/// `SimTime` is a transparent newtype over `u64`; the microsecond resolution
/// matches what the paper measures (IPC execution times are reported in µs,
/// attack durations in seconds).
///
/// # Example
///
/// ```
/// use jgre_sim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(2);
/// assert_eq!(t.as_micros(), 2_000_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_secs(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimTime(u64);

impl SimTime {
    /// The boot instant of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from a raw microsecond count.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Returns the instant as microseconds since boot.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the instant as (truncated) milliseconds since boot.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the instant as fractional seconds since boot.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference; returns [`SimDuration::ZERO`] when `earlier`
    /// is in fact later than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A span of simulation time, in microseconds.
///
/// # Example
///
/// ```
/// use jgre_sim::SimDuration;
///
/// assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
/// assert_eq!(SimDuration::from_millis(2) * 4, SimDuration::from_millis(8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Returns the duration in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration in (truncated) milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Checked subtraction, `None` on underflow.
    pub fn checked_sub(self, rhs: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(rhs.0).map(SimDuration)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}µs", self.0)
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
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
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
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

/// A shared, monotonically advancing virtual clock.
///
/// The clock is cheaply cloneable (`Rc`-backed) so that the Binder driver,
/// the framework, and the defense monitor all observe the same timeline.
/// The simulation is single-threaded by design — determinism is the point —
/// hence `Rc`/`Cell` rather than `Arc`/atomics.
///
/// # Example
///
/// ```
/// use jgre_sim::{SimClock, SimDuration};
///
/// let clock = SimClock::new();
/// let observer = clock.clone();
/// clock.advance(SimDuration::from_millis(10));
/// assert_eq!(observer.now().as_millis(), 10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Rc<Cell<SimTime>>,
}

impl SimClock {
    /// Creates a clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the current instant.
    pub fn now(&self) -> SimTime {
        self.now.get()
    }

    /// Advances the clock by `delta` and returns the new instant.
    pub fn advance(&self, delta: SimDuration) -> SimTime {
        let next = self.now.get() + delta;
        self.now.set(next);
        next
    }

    /// Moves the clock forward to `instant`.
    ///
    /// # Panics
    ///
    /// Panics if `instant` is earlier than the current time: the simulation
    /// clock is monotonic.
    pub fn advance_to(&self, instant: SimTime) {
        assert!(
            instant >= self.now.get(),
            "attempted to move the simulation clock backwards: {} -> {}",
            self.now.get(),
            instant
        );
        self.now.set(instant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_secs(3) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 3_500_000);
        assert_eq!(t.as_millis(), 3_500);
        assert_eq!(t - SimTime::from_secs(3), SimDuration::from_millis(500));
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
    }

    #[test]
    fn clock_is_shared_between_clones() {
        let clock = SimClock::new();
        let clone = clock.clone();
        clock.advance(SimDuration::from_micros(42));
        assert_eq!(clone.now().as_micros(), 42);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn clock_rejects_time_travel() {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_secs(1));
        clock.advance_to(SimTime::from_micros(10));
    }

    #[test]
    fn duration_display_chooses_unit() {
        assert_eq!(SimDuration::from_micros(7).to_string(), "7µs");
        assert_eq!(SimDuration::from_micros(2_500).to_string(), "2.500ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000s");
    }

    #[test]
    fn duration_checked_sub() {
        let a = SimDuration::from_millis(5);
        let b = SimDuration::from_millis(7);
        assert_eq!(b.checked_sub(a), Some(SimDuration::from_millis(2)));
        assert_eq!(a.checked_sub(b), None);
    }
}
