//! Traffic drivers: per-member workload sources the fabric can
//! interleave with fast-forwarded execution.
//!
//! A fabric run cannot hand the cycle loop back to the experiment on
//! every cycle — members tick inside epochs. Instead each member may
//! carry a [`NicDriver`]: the fabric asks it for the next arrival
//! cycle, fast-forwards the member up to that cycle, lets the driver
//! inject, and continues. Deterministic
//! arrival schedules thereby compose with quiescence fast-forward
//! exactly as they do on a standalone NIC.

use panic_core::PanicNic;
use sim_core::time::Cycle;

/// A deterministic per-member traffic source.
///
/// Contract: [`NicDriver::next_arrival`] returns the earliest cycle
/// `>= now` at which the driver wants to inject (or `None` when it is
/// done), and after [`NicDriver::inject`] runs at cycle `c`,
/// `next_arrival(c)` must return a *later* cycle (or `None`) — the
/// fabric would otherwise spin. `Send` keeps a [`crate::Fabric`]
/// `Send`, so a caller may build a rack on one thread and run it on
/// another; a driver that panics panics the `run` call.
pub trait NicDriver: Send {
    /// Earliest cycle `>= now` with work to inject, `None` when done.
    fn next_arrival(&self, now: Cycle) -> Option<Cycle>;

    /// Injects this cycle's traffic into `nic` at `now`.
    fn inject(&mut self, nic: &mut PanicNic, now: Cycle);
}

/// A fixed-period arrival schedule delegating the actual injection to
/// a closure: arrival `k` (of `count`) fires at cycle `start + k *
/// period`, calling `f(nic, now, k)`.
///
/// This is the deterministic-periodic shape the `PV501` fast-forward
/// lint blesses, packaged for fabric members.
pub struct PeriodicDriver<F> {
    start: u64,
    period: u64,
    count: u64,
    fired: u64,
    f: F,
}

impl<F> std::fmt::Debug for PeriodicDriver<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeriodicDriver")
            .field("start", &self.start)
            .field("period", &self.period)
            .field("count", &self.count)
            .field("fired", &self.fired)
            .finish_non_exhaustive()
    }
}

impl<F: FnMut(&mut PanicNic, Cycle, u64) + Send> PeriodicDriver<F> {
    /// `count` arrivals at `start, start + period, ...`, injected by
    /// `f(nic, now, k)`.
    ///
    /// # Panics
    /// Panics on a zero period (the driver could never advance).
    #[must_use]
    pub fn new(start: u64, period: u64, count: u64, f: F) -> PeriodicDriver<F> {
        assert!(period > 0, "zero-period driver");
        PeriodicDriver {
            start,
            period,
            count,
            fired: 0,
            f,
        }
    }
}

impl<F: FnMut(&mut PanicNic, Cycle, u64) + Send> NicDriver for PeriodicDriver<F> {
    fn next_arrival(&self, now: Cycle) -> Option<Cycle> {
        if self.fired >= self.count {
            return None;
        }
        let due = self.start + self.fired * self.period;
        Some(Cycle(due.max(now.0)))
    }

    fn inject(&mut self, nic: &mut PanicNic, now: Cycle) {
        (self.f)(nic, now, self.fired);
        self.fired += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop() -> impl FnMut(&mut PanicNic, Cycle, u64) + Send {
        |_nic, _now, _k| {}
    }

    #[test]
    fn periodic_schedule_advances_past_each_injection() {
        let mut d = PeriodicDriver::new(10, 5, 3, noop());
        assert_eq!(d.next_arrival(Cycle(0)), Some(Cycle(10)));
        assert_eq!(d.next_arrival(Cycle(10)), Some(Cycle(10)));
        d.fired = 1;
        assert_eq!(d.next_arrival(Cycle(10)), Some(Cycle(15)));
        d.fired = 3;
        assert_eq!(d.next_arrival(Cycle(0)), None);
        // An arrival whose due cycle already passed fires "now".
        d.fired = 1;
        assert_eq!(d.next_arrival(Cycle(40)), Some(Cycle(40)));
    }

    #[test]
    #[should_panic(expected = "zero-period")]
    fn zero_period_rejected() {
        let _ = PeriodicDriver::new(0, 0, 1, noop());
    }
}
