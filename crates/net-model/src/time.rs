//! Simulation time.
//!
//! Every scenario runs on its own clock: `SimTime` is seconds since the
//! scenario epoch. Queries speak in relative terms ("starting three days
//! ago"), which agents resolve against the scenario's `now`. Keeping time
//! abstract (no wall-clock reads anywhere) is what makes the whole
//! reproduction deterministic.

use serde::{Deserialize, Serialize};

/// An instant on the scenario clock, in seconds since the scenario epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub i64);

/// A span of scenario time, in seconds. Signed so that arithmetic with
/// "N days ago" style offsets stays total.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub i64);

impl SimDuration {
    pub const fn seconds(s: i64) -> Self {
        SimDuration(s)
    }
    pub const fn minutes(m: i64) -> Self {
        SimDuration(m * 60)
    }
    pub const fn hours(h: i64) -> Self {
        SimDuration(h * 3600)
    }
    pub const fn days(d: i64) -> Self {
        SimDuration(d * 86_400)
    }

    pub fn as_seconds(&self) -> i64 {
        self.0
    }
    pub fn abs(&self) -> SimDuration {
        SimDuration(self.0.abs())
    }
}

impl SimTime {
    /// The scenario epoch.
    pub const EPOCH: SimTime = SimTime(0);

    pub fn seconds_since_epoch(&self) -> i64 {
        self.0
    }

    /// Elapsed time from `earlier` to `self` (negative if `self` precedes).
    pub fn since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0 - earlier.0)
    }
}

impl std::ops::Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl std::ops::Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t+{}s", self.0)
    }
}

impl std::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.0;
        if s.abs() >= 86_400 && s % 86_400 == 0 {
            write!(f, "{}d", s / 86_400)
        } else if s.abs() >= 3600 && s % 3600 == 0 {
            write!(f, "{}h", s / 3600)
        } else {
            write!(f, "{s}s")
        }
    }
}

/// A half-open interval `[start, end)` on the scenario clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TimeWindow {
    pub start: SimTime,
    pub end: SimTime,
}

impl TimeWindow {
    /// Builds a window; swaps the endpoints if given in reverse.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        if start <= end {
            TimeWindow { start, end }
        } else {
            TimeWindow { start: end, end: start }
        }
    }

    /// A window of `len` ending at `end`.
    pub fn ending_at(end: SimTime, len: SimDuration) -> Self {
        TimeWindow::new(end - len, end)
    }

    /// Whether `t` falls inside `[start, end)`.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }

    /// Window length.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }

    /// Whether the two windows share any instant.
    pub fn overlaps(&self, other: &TimeWindow) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Splits the window into `n` equal consecutive buckets (the statistical
    /// anomaly detector bins measurements this way).
    pub fn buckets(&self, n: usize) -> Vec<TimeWindow> {
        assert!(n > 0, "bucket count must be positive");
        let total = self.duration().as_seconds();
        let step = total / n as i64;
        (0..n)
            .map(|i| {
                let start = SimTime(self.start.0 + step * i as i64);
                let end = if i == n - 1 { self.end } else { SimTime(start.0 + step) };
                TimeWindow { start, end }
            })
            .collect()
    }
}

impl std::fmt::Display for TimeWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::EPOCH + SimDuration::days(3);
        assert_eq!(t.seconds_since_epoch(), 3 * 86_400);
        assert_eq!((t - SimDuration::days(3)), SimTime::EPOCH);
        assert_eq!(t.since(SimTime::EPOCH), SimDuration::days(3));
    }

    #[test]
    fn window_normalizes_reversed_endpoints() {
        let w = TimeWindow::new(SimTime(100), SimTime(10));
        assert_eq!(w.start, SimTime(10));
        assert_eq!(w.end, SimTime(100));
    }

    #[test]
    fn window_contains_is_half_open() {
        let w = TimeWindow::new(SimTime(0), SimTime(10));
        assert!(w.contains(SimTime(0)));
        assert!(w.contains(SimTime(9)));
        assert!(!w.contains(SimTime(10)));
    }

    #[test]
    fn window_overlap() {
        let a = TimeWindow::new(SimTime(0), SimTime(10));
        let b = TimeWindow::new(SimTime(9), SimTime(20));
        let c = TimeWindow::new(SimTime(10), SimTime(20));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c)); // half-open: touching is not overlapping
    }

    #[test]
    fn buckets_partition_the_window() {
        let w = TimeWindow::new(SimTime(0), SimTime(100));
        let bs = w.buckets(7);
        assert_eq!(bs.len(), 7);
        assert_eq!(bs[0].start, w.start);
        assert_eq!(bs.last().unwrap().end, w.end);
        for pair in bs.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "buckets must be contiguous");
        }
    }

    #[test]
    fn duration_display() {
        assert_eq!(SimDuration::days(2).to_string(), "2d");
        assert_eq!(SimDuration::hours(5).to_string(), "5h");
        assert_eq!(SimDuration::seconds(42).to_string(), "42s");
    }

    #[test]
    fn ending_at_builds_lookback_window() {
        let now = SimTime(86_400 * 10);
        let w = TimeWindow::ending_at(now, SimDuration::days(3));
        assert_eq!(w.duration(), SimDuration::days(3));
        assert_eq!(w.end, now);
    }
}
