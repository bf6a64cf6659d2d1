//! Injected time source for the serving pipeline.
//!
//! Every deadline in the server is a per-request `u64` nanosecond stamp
//! in one process timebase. `Instant` cannot be fabricated, so the
//! dispatcher never touches it directly: it takes `now_ns` values from a
//! [`Clock`], the real server feeds them from [`RealClock`], and the
//! deadline tests drive the exact same code with a [`MockClock`] whose
//! hands only move when the test says so (no real sleeps).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond clock.
pub trait Clock: Send + Sync {
    /// Nanoseconds since this clock's epoch.
    fn now_ns(&self) -> u64;
}

/// Wall clock: nanoseconds since construction.
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// Pins the epoch to "now".
    pub fn new() -> Self {
        RealClock { epoch: Instant::now() }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Test clock: time advances only by explicit [`MockClock::advance`] /
/// [`MockClock::set`] calls.
#[derive(Default)]
pub struct MockClock {
    ns: AtomicU64,
}

impl MockClock {
    /// Starts the clock at `ns`.
    pub fn new(ns: u64) -> Self {
        MockClock { ns: AtomicU64::new(ns) }
    }

    /// Moves the hands forward by `delta_ns`.
    pub fn advance(&self, delta_ns: u64) {
        self.ns.fetch_add(delta_ns, Ordering::SeqCst);
    }

    /// Jumps the hands to an absolute stamp.
    pub fn set(&self, ns: u64) {
        self.ns.store(ns, Ordering::SeqCst);
    }
}

impl Clock for MockClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic() {
        let c = RealClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn mock_clock_moves_only_on_command() {
        let c = MockClock::new(5);
        assert_eq!(c.now_ns(), 5);
        assert_eq!(c.now_ns(), 5);
        c.advance(10);
        assert_eq!(c.now_ns(), 15);
        c.set(3);
        assert_eq!(c.now_ns(), 3);
    }
}
