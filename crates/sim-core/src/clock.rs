//! The one clock driver.
//!
//! Everything that owns a simulated clock — the NIC, the scenarios that
//! wrap it with a workload, the baselines, a fabric member inside an
//! epoch — advances it through [`drive`]. A component describes itself
//! with the [`Driven`] trait; [`Advance`] picks how idle cycles are
//! treated. Both policies leave the component in byte-identical
//! observable state (traces, metrics, reports); they differ only in how
//! many provably idle cycles are actually stepped.
//!
//! # Quiescence fast-forward
//!
//! Stepping every cycle is wasteful when the system is idle between
//! widely spaced arrivals. After each step the driver therefore asks the
//! component for its *wakes* — the future cycles at which stepping it
//! could change observable state — and jumps the clock to the earliest
//! one, clamped to `[now + 1, end]`. A wake *earlier* than necessary is
//! always safe (one spurious idle step, which a stepped run performs
//! anyway); a wake *later* than the component's true next activity is a
//! contract violation. The skipped span `[from, to)` is handed to
//! [`Driven::skip_idle`] so per-cycle bookkeeping (idle-slot counters,
//! progress watermarks) matches a stepped run byte for byte.
//!
//! # Stop rule
//!
//! A bounded run stops at `start + cycles`. A drain additionally stops
//! as soon as [`Driven::done`] holds; it is checked before the first
//! step and after every step — that is, before every further step *and*
//! before every jump — so both policies stop on the same cycle even
//! while wakes are still pending.
//!
//! See `docs/PERF.md` for the contract in full.

use crate::time::Cycle;

/// A component whose clock [`drive`] advances.
pub trait Driven {
    /// Everything that happens at cycle `now`: inject input due now,
    /// tick, collect output.
    fn step(&mut self, now: Cycle);

    /// Posts, after the step at `now`, every future cycle at which
    /// stepping could have an observable effect given no outside input
    /// arrives first — one `post` per wake source; posting nothing
    /// means quiescent until `end`. Wakes at or before `now` are
    /// clamped to `now + 1`, and wakes past `end` to `end`.
    fn wakes(&self, now: Cycle, post: &mut impl FnMut(Cycle));

    /// Accounts for the skipped cycles `[from, to)` as if the component
    /// had been stepped through them while idle. Must not change
    /// [`Driven::done`]. The default is a no-op, which is correct for
    /// components whose idle steps touch no state.
    fn skip_idle(&mut self, _from: Cycle, _to: Cycle) {}

    /// True once a drain has nothing left to do; [`drive`] then stops
    /// early. The default never stops before `end`.
    fn done(&self) -> bool {
        false
    }
}

/// How [`drive`] treats idle cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advance {
    /// Step every cycle — the reference semantics.
    Stepped,
    /// Quiescence fast-forward: after every step, jump to the minimum
    /// of the freshly posted wakes.
    Merged,
}

/// Advances `d` from `start` for up to `cycles` cycles under `advance`.
/// Returns the next cycle (`start + cycles`, or earlier if
/// [`Driven::done`] stopped the run) and the number of cycles skipped
/// rather than stepped.
pub fn drive<D: Driven>(d: &mut D, start: Cycle, cycles: u64, advance: Advance) -> (Cycle, u64) {
    match advance {
        Advance::Stepped => run(d, start, cycles, |_, now, _| now.next()),
        Advance::Merged => run(d, start, cycles, |d, now, end| {
            let mut hint = end;
            d.wakes(now, &mut |t| hint = hint.min(t));
            hint
        }),
    }
}

/// The clock-advance algorithm. `wake(d, now, end)` is the policy: the
/// earliest cycle after the step at `now` that needs stepping (clamped
/// to `[now + 1, end]`).
fn run<D: Driven>(
    d: &mut D,
    start: Cycle,
    cycles: u64,
    mut wake: impl FnMut(&D, Cycle, Cycle) -> Cycle,
) -> (Cycle, u64) {
    let end = Cycle(start.0 + cycles);
    let mut now = start;
    let mut skipped = 0u64;
    if d.done() {
        return (now, skipped);
    }
    while now < end {
        d.step(now);
        let next = now.next();
        let target = wake(d, now, end).max(next).min(end);
        now = next;
        if d.done() {
            break;
        }
        if target > next {
            d.skip_idle(next, target);
            skipped += target.0 - next.0;
            now = target;
        }
    }
    (now, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICIES: [Advance; 2] = [Advance::Stepped, Advance::Merged];

    /// Wake sources firing every `periods[i]` cycles. Counts active and
    /// idle steps and accounts every cycle (stepped or replayed), to
    /// prove [`drive`] steps exactly where it must and replays the rest.
    #[derive(Debug, Default, Clone, PartialEq, Eq)]
    struct Wakers {
        periods: Vec<u64>,
        /// `done()` once this many active steps have happened.
        stop_after: Option<u64>,
        active_steps: u64,
        idle_steps: u64,
        accounted: u64,
    }

    impl Driven for Wakers {
        fn step(&mut self, now: Cycle) {
            if self.periods.iter().any(|p| now.0.is_multiple_of(*p)) {
                self.active_steps += 1;
            } else {
                self.idle_steps += 1;
            }
            self.accounted += 1;
        }
        fn wakes(&self, now: Cycle, post: &mut impl FnMut(Cycle)) {
            for p in &self.periods {
                post(Cycle((now.0 / p + 1) * p));
            }
        }
        fn skip_idle(&mut self, from: Cycle, to: Cycle) {
            self.accounted += to.0 - from.0;
        }
        fn done(&self) -> bool {
            self.stop_after.is_some_and(|n| self.active_steps >= n)
        }
    }

    #[test]
    fn policies_agree_on_interleaved_wakes_and_really_skip() {
        // Coprime periods: each source is regularly woken "early" by
        // the other, so the jump target is the minimum of two live
        // wakes, not the latest one posted.
        let fresh = Wakers {
            periods: vec![7, 10],
            ..Wakers::default()
        };
        let mut stepped = fresh.clone();
        assert_eq!(
            drive(&mut stepped, Cycle(0), 223, Advance::Stepped),
            (Cycle(223), 0)
        );
        assert!(stepped.idle_steps > 100);
        let mut w = fresh;
        let (end, skipped) = drive(&mut w, Cycle(0), 223, Advance::Merged);
        assert_eq!(end, Cycle(223));
        assert_eq!(w.active_steps, stepped.active_steps);
        assert_eq!(w.accounted, stepped.accounted);
        assert_eq!(w.idle_steps + skipped, stepped.idle_steps);
        assert!(skipped > 100, "only skipped {skipped}");
    }

    #[test]
    fn done_with_wakes_pending_stops_every_policy_on_the_same_cycle() {
        // The third active step is at cycle 20; the next wake (30) is
        // still pending when done() goes true. A loop that checks
        // done() only before stepping would jump to 30 first.
        for advance in POLICIES {
            let mut w = Wakers {
                periods: vec![10],
                stop_after: Some(3),
                ..Wakers::default()
            };
            let (end, _) = drive(&mut w, Cycle(0), 1000, advance);
            assert_eq!(end, Cycle(21), "{advance:?}");
            assert_eq!(w.accounted, 21, "{advance:?}");
            // Already done: a further call steps nothing.
            assert_eq!(drive(&mut w, end, 1000, advance), (end, 0), "{advance:?}");
            assert_eq!(w.accounted, 21, "{advance:?}");
        }
    }

    #[test]
    fn all_quiescent_jumps_to_end_after_one_probe_step() {
        let mut w = Wakers::default();
        assert_eq!(
            drive(&mut w, Cycle(0), 1000, Advance::Merged),
            (Cycle(1000), 999)
        );
        assert_eq!(w.idle_steps, 1, "one probe step, then a jump");
        assert_eq!(w.accounted, 1000, "span replayed via skip_idle");
    }

    #[test]
    fn zero_cycles_is_identity() {
        let mut w = Wakers::default();
        assert_eq!(drive(&mut w, Cycle(9), 0, Advance::Merged), (Cycle(9), 0));
        assert_eq!(w.accounted, 0);
    }
}
