//! Arrival processes.
//!
//! Every workload offers traffic through one shape: exactly `num/den`
//! packets per cycle on a deterministic accumulator. This is how "line
//! rate" is offered (e.g. a min-size 100 G stream at a 500 MHz NIC is
//! num/den = 125/420... expressed exactly, with zero jitter). The
//! process draws no randomness, so its next arrival is known in advance
//! ([`ArrivalProcess::cycles_to_next`]) and the polls before it can be
//! replayed at once ([`ArrivalProcess::skip`]) — which is what lets
//! quiescence fast-forward jump the gaps between arrivals.

/// Deterministic `num/den` arrivals per cycle (`num <= den`).
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    num: u64,
    den: u64,
    acc: u64,
}

impl ArrivalProcess {
    /// A deterministic process emitting `num/den` packets per cycle.
    ///
    /// # Panics
    /// Panics if `den` is zero or the rate exceeds one per cycle.
    #[must_use]
    pub fn periodic(num: u64, den: u64) -> ArrivalProcess {
        assert!(den > 0, "zero denominator");
        assert!(num <= den, "rate above one arrival per cycle");
        ArrivalProcess { num, den, acc: 0 }
    }

    /// The per-cycle rate as `(num, den)`.
    #[must_use]
    pub fn rate(&self) -> (u64, u64) {
        (self.num, self.den)
    }

    /// Fast-forward hint: how many polls from now until the next
    /// arrival. The next `k - 1` polls return `false`; the `k`-th
    /// returns `true`. A zero-rate process returns `u64::MAX`
    /// ("never").
    #[must_use]
    pub fn cycles_to_next(&self) -> u64 {
        if self.num == 0 {
            return u64::MAX;
        }
        // Smallest k >= 1 with acc + k*num >= den.
        (self.den - self.acc).div_ceil(self.num)
    }

    /// Replays `cycles` arrival-free polls at once: advances the
    /// accumulator exactly as `cycles` calls to
    /// [`ArrivalProcess::poll`] would have, provided none of them would
    /// have produced an arrival (`cycles < cycles_to_next()`).
    ///
    /// # Panics
    /// Debug-asserts that no skipped poll would have fired.
    pub fn skip(&mut self, cycles: u64) {
        self.acc += self.num.saturating_mul(cycles);
        debug_assert!(self.acc < self.den, "skip crossed an arrival (hint bug)");
    }

    /// Polls the process for this cycle: `true` = one packet arrives.
    pub fn poll(&mut self) -> bool {
        self.acc += self.num;
        if self.acc >= self.den {
            self.acc -= self.den;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(p: &mut ArrivalProcess, cycles: u64) -> u64 {
        (0..cycles).filter(|_| p.poll()).count() as u64
    }

    #[test]
    fn periodic_is_exact() {
        let mut p = ArrivalProcess::periodic(3, 7);
        // Over 7000 cycles: exactly 3000 arrivals.
        assert_eq!(count(&mut p, 7000), 3000);
    }

    #[test]
    fn periodic_full_rate_every_cycle() {
        let mut p = ArrivalProcess::periodic(1, 1);
        assert_eq!(count(&mut p, 100), 100);
    }

    #[test]
    fn periodic_spacing_is_even() {
        let mut p = ArrivalProcess::periodic(1, 4);
        let pattern: Vec<bool> = (0..12).map(|_| p.poll()).collect();
        // Exactly every 4th cycle.
        assert_eq!(
            pattern,
            vec![false, false, false, true, false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    #[should_panic(expected = "rate above one")]
    fn super_unit_rate_rejected() {
        let _ = ArrivalProcess::periodic(2, 1);
    }

    #[test]
    fn cycles_to_next_predicts_periodic_firing() {
        let mut p = ArrivalProcess::periodic(1, 4);
        // Fresh state: the 4th poll fires.
        assert_eq!(p.cycles_to_next(), 4);
        for expect in [false, false, false, true] {
            assert_eq!(p.poll(), expect);
        }
        // Right after an arrival: four again.
        assert_eq!(p.cycles_to_next(), 4);
        assert!(!p.poll());
        // One poll in: three to go.
        assert_eq!(p.cycles_to_next(), 3);
    }

    #[test]
    fn cycles_to_next_zero_rate_never_fires() {
        let p = ArrivalProcess::periodic(0, 5);
        assert_eq!(p.cycles_to_next(), u64::MAX);
    }

    #[test]
    fn skip_is_equivalent_to_arrival_free_polls() {
        // Two clones of the same periodic process: one stepped, one
        // fast-forwarded. After skip(k-1) + poll they must agree on
        // every subsequent poll.
        let mut stepped = ArrivalProcess::periodic(3, 11);
        let mut skipped = stepped.clone();
        for _ in 0..5 {
            let k = stepped.cycles_to_next();
            for i in 0..k {
                assert_eq!(stepped.poll(), i == k - 1, "only the k-th fires");
            }
            skipped.skip(k - 1);
            assert!(skipped.poll(), "skipped process fires on poll k");
        }
        // Internal state converged: hints agree from here on.
        assert_eq!(stepped.cycles_to_next(), skipped.cycles_to_next());
    }
}
