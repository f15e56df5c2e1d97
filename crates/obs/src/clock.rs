//! The server engine's time source: one trait, a wall clock and a
//! manual one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic nanosecond time source. Every time read in the server
/// engine goes through one, so an engine over a [`ManualClock`] is a
/// deterministic function of its inputs.
///
/// Clones share their zero point: a stamp taken through one clone is
/// directly comparable with a stamp taken through another, which is
/// what lets a large core compute queue wait from an arrival stamp
/// taken on a small core.
pub trait Clock: Clone + Send + Sync + 'static {
    /// Nanoseconds since the clock's zero point.
    fn now_ns(&self) -> u64;
}

/// The real clock: a read is a single `Instant::now()` (a vDSO call on
/// Linux, ~20 ns, no syscall) converted to nanoseconds since a shared
/// zero point, typically the registry's
/// [`crate::MetricsRegistry::start`], so stamps line up with snapshot
/// `elapsed_ms`.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// A clock whose zero point is now.
    pub fn new() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }

    /// A clock sharing an existing zero point.
    pub fn starting_at(start: Instant) -> Self {
        WallClock { start }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// A clock that moves only when told to: every clone reads the one
/// shared value, which [`ManualClock::set`] and
/// [`ManualClock::advance`] move. The default reads 0.
#[derive(Clone, Debug, Default)]
pub struct ManualClock(Arc<AtomicU64>);

impl ManualClock {
    /// Moves every clone to `ns`.
    pub fn set(&self, ns: u64) {
        self.0.store(ns, Ordering::Relaxed);
    }

    /// Moves every clone forward by `ns`.
    pub fn advance(&self, ns: u64) {
        self.0.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_sharing_a_zero_are_comparable() {
        let base = Instant::now();
        let a = WallClock::starting_at(base);
        let b = WallClock::starting_at(base);
        let t0 = a.now_ns();
        let t1 = b.now_ns();
        // b read after a: must not run backwards relative to a.
        assert!(t1 >= t0);
    }

    #[test]
    fn manual_clones_move_together() {
        let a = ManualClock::default();
        let b = a.clone();
        assert_eq!(b.now_ns(), 0);
        a.set(5);
        b.advance(3);
        assert_eq!((a.now_ns(), b.now_ns()), (8, 8));
    }
}
