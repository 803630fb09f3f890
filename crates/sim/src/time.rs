//! Virtual time: nanosecond clock and cost meter.
//!
//! Nothing in the simulation ever reads the wall clock. All durations are
//! virtual nanoseconds ([`Nanos`]); experiment determinism follows.

use std::cell::Cell;
use std::rc::Rc;

/// Virtual nanoseconds.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICROSECOND: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLISECOND: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SECOND: Nanos = 1_000_000_000;

/// Convert microseconds to [`Nanos`].
#[inline]
pub const fn us(v: u64) -> Nanos {
    v * MICROSECOND
}

/// Convert milliseconds to [`Nanos`].
#[inline]
pub const fn ms(v: u64) -> Nanos {
    v * MILLISECOND
}

/// Round `t` up to the next multiple of `interval` (0 interval → `t`).
/// Used to batch continuous log-ship flushes onto interval boundaries.
#[inline]
pub const fn quantize_up(t: Nanos, interval: Nanos) -> Nanos {
    if interval == 0 {
        t
    } else {
        t.div_ceil(interval) * interval
    }
}

/// A shared, monotone virtual clock.
///
/// Cloning a `SimClock` yields a handle to the *same* clock (it is an
/// `Rc<Cell<_>>` internally); the simulation is single-threaded by design, so
/// no atomics are needed.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    now: Rc<Cell<Nanos>>,
}

impl SimClock {
    /// A new clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Nanos {
        self.now.get()
    }

    /// Advance the clock by `delta` nanoseconds.
    #[inline]
    pub fn advance(&self, delta: Nanos) {
        self.now.set(self.now.get() + delta);
    }

    /// Move the clock forward *to* `t`. Panics if `t` is in the past —
    /// virtual time is monotone and a backwards jump is always a driver bug.
    #[inline]
    pub fn advance_to(&self, t: Nanos) {
        assert!(
            t >= self.now.get(),
            "virtual clock moved backwards: {} -> {}",
            self.now.get(),
            t
        );
        self.now.set(t);
    }
}

/// Accumulates virtual-time costs charged by kernel operations.
///
/// The kernel itself never advances a clock: it *meters* the cost of each
/// operation, and the driver (replication runtime, benchmark harness) decides
/// which timeline that cost lands on — the primary's stop phase, the backup's
/// CPU account, a client's request latency, and so on. This is the key
/// mechanism that lets one kernel implementation serve both sides of the
/// replication pair without double-counting time.
#[derive(Debug, Default)]
pub struct CostMeter {
    accum: Cell<Nanos>,
    total: Cell<Nanos>,
}

impl CostMeter {
    /// New meter with zero accumulated cost.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `ns` of virtual time.
    #[inline]
    pub fn charge(&self, ns: Nanos) {
        self.accum.set(self.accum.get() + ns);
        self.total.set(self.total.get() + ns);
    }

    /// Take (and reset) the cost accumulated since the last `take`.
    #[inline]
    pub fn take(&self) -> Nanos {
        let v = self.accum.get();
        self.accum.set(0);
        v
    }

    /// Cost accumulated since the last [`CostMeter::take`], without resetting.
    #[inline]
    pub fn peek(&self) -> Nanos {
        self.accum.get()
    }

    /// Total cost ever charged to this meter (never reset).
    #[inline]
    pub fn lifetime_total(&self) -> Nanos {
        self.total.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances() {
        let c = SimClock::new();
        assert_eq!(c.now(), 0);
        c.advance(ms(30));
        assert_eq!(c.now(), 30 * MILLISECOND);
        let c2 = c.clone();
        c2.advance(5);
        assert_eq!(c.now(), 30 * MILLISECOND + 5, "clones share the clock");
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn clock_is_monotone() {
        let c = SimClock::new();
        c.advance(100);
        c.advance_to(50);
    }

    #[test]
    fn meter_take_and_total() {
        let m = CostMeter::new();
        m.charge(10);
        m.charge(20);
        assert_eq!(m.peek(), 30);
        assert_eq!(m.take(), 30);
        assert_eq!(m.take(), 0);
        m.charge(5);
        assert_eq!(m.lifetime_total(), 35);
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(us(43), 43_000);
        assert_eq!(ms(30), 30_000_000);
    }

    #[test]
    fn quantize_up_boundaries() {
        assert_eq!(quantize_up(0, 100), 0);
        assert_eq!(quantize_up(1, 100), 100);
        assert_eq!(quantize_up(100, 100), 100);
        assert_eq!(quantize_up(101, 100), 200);
        assert_eq!(quantize_up(42, 0), 42);
    }
}
