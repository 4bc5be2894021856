//! Hierarchical timer wheel — with no scheduler on it.
//!
//! Nothing in the simulator schedules on a wheel (`docs/PERF.md` §2).
//! The module stays public only because the benchmark's
//! `sim-core.wheel_ns_per_event` kernel (`benchmark/src/kernels.rs`)
//! times it, and goes with that kernel in the benchmark-only PR.
//!
//! [`EventQueue`](crate::events::EventQueue) is a binary heap —
//! `O(log n)` per schedule/pop. A [`TimerWheel`] is the classic
//! hierarchical timing wheel (Varghese & Lauck, SOSP '87) with
//!
//! * **O(1) schedule** — the target cycle's bit pattern names the
//!   level and slot directly;
//! * **amortized O(1) advance** — per-level occupancy bitmaps let the
//!   cursor jump over empty regions in one step instead of walking
//!   cycle by cycle, and each entry cascades to a lower level at most
//!   `LEVELS - 1` times before firing.
//!
//! Determinism matches the event queue exactly: entries fire in
//! `(cycle, insertion order)` — the wheel's internal bucketing is
//! never observable, because due entries are sorted on that key before
//! they are handed out.
//!
//! # Geometry
//!
//! Four levels of 64 slots. A level-`l` slot spans `64^l` cycles, so
//! the wheel covers `64^4` ≈ 16.7M cycles ahead of the cursor; entries
//! beyond the horizon wait in an overflow list and are bucketed when
//! the cursor's top-level window reaches them (rare by construction:
//! simulated runs schedule wake-ups cycles-to-thousands ahead).

use crate::time::Cycle;

/// Number of wheel levels.
const LEVELS: usize = 4;
/// log2 of slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Cycles covered by the whole wheel (beyond → overflow list).
const HORIZON_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// One scheduled entry.
#[derive(Debug, Clone)]
struct Entry<E> {
    at: u64,
    seq: u64,
    event: E,
}

/// A hierarchical timer wheel keyed on simulation cycles.
///
/// Semantics mirror [`EventQueue`](crate::events::EventQueue): events
/// due at the same cycle fire in insertion order, scheduling in the
/// past is allowed (fires on the next drain), and firing is driven by
/// an explicit `now`. One difference: the *pop cursor* is monotonic —
/// draining at cycle `t` then draining at an earlier cycle returns
/// nothing new (the earlier cycles are already in the past), which is
/// exactly how a simulation clock uses it.
///
/// ```
/// use sim_core::wheel::TimerWheel;
/// use sim_core::Cycle;
///
/// let mut w = TimerWheel::new();
/// w.schedule(Cycle(10), "dma-done");
/// w.schedule(Cycle(5), "timer");
/// w.schedule(Cycle(10), "irq");
///
/// assert_eq!(w.pop_due(Cycle(4)), None);
/// assert_eq!(w.pop_due(Cycle(10)), Some("timer"));
/// assert_eq!(w.pop_due(Cycle(10)), Some("dma-done")); // FIFO within a cycle
/// assert_eq!(w.pop_due(Cycle(10)), Some("irq"));
/// assert!(w.is_empty());
/// ```
#[derive(Debug)]
pub struct TimerWheel<E> {
    /// `LEVELS * SLOTS` buckets, level-major.
    slots: Vec<Vec<Entry<E>>>,
    /// Per-level bitmap of non-empty slots.
    occupied: [u64; LEVELS],
    /// Entries more than `64^LEVELS` cycles ahead of the cursor.
    overflow: Vec<Entry<E>>,
    /// Smallest `at` in `overflow` (u64::MAX when empty).
    overflow_min: u64,
    /// Entries already due (`at <= cursor`), awaiting pop. Sorted by
    /// `(at, seq)` lazily (`due_sorted`), popped from the front.
    due: std::collections::VecDeque<Entry<E>>,
    due_sorted: bool,
    /// All cycles `<= cursor` have been fully collected into `due`.
    cursor: u64,
    next_seq: u64,
    len: usize,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel with its cursor at cycle 0.
    #[must_use]
    pub fn new() -> TimerWheel<E> {
        TimerWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            due: std::collections::VecDeque::new(),
            due_sorted: true,
            cursor: 0,
            next_seq: 0,
            len: 0,
        }
    }

    /// Number of pending (unfired) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel's cursor: every cycle at or before it has been
    /// collected. Monotonic.
    #[must_use]
    pub fn cursor(&self) -> Cycle {
        Cycle(self.cursor)
    }

    /// Schedules `event` at cycle `at`. O(1): the level is the highest
    /// six-bit digit in which `at` differs from the cursor, the slot is
    /// that digit. Scheduling at or before the cursor fires the event
    /// on the next pop, like the event queue's past-scheduling rule.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.insert(Entry {
            at: at.0,
            seq,
            event,
        });
    }

    fn insert(&mut self, e: Entry<E>) {
        if e.at <= self.cursor {
            self.due.push_back(e);
            self.due_sorted = false;
            return;
        }
        let Some(level) = level_of(self.cursor, e.at) else {
            self.overflow_min = self.overflow_min.min(e.at);
            self.overflow.push(e);
            return;
        };
        let idx = slot_index(e.at, level);
        self.occupied[level] |= 1 << idx;
        self.slots[level * SLOTS + idx].push(e);
    }

    /// Pops the earliest event due at or before `now` (ties in
    /// insertion order), or `None`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<E> {
        self.collect_up_to(now.0);
        self.sort_due();
        if self.due.front()?.at > now.0 {
            return None;
        }
        let e = self.due.pop_front().expect("checked front");
        self.len -= 1;
        Some(e.event)
    }

    /// Drains every event due at or before `now` into `out`, in firing
    /// order. The buffer is appended to, not cleared.
    pub fn drain_due_into(&mut self, now: Cycle, out: &mut Vec<E>) {
        while let Some(e) = self.pop_due(now) {
            out.push(e);
        }
    }

    /// A **lower bound** on the cycle of the earliest pending event:
    /// never later than the true next event, possibly earlier (a
    /// higher-level slot is known only by its span's start until the
    /// cursor reaches it and cascades). `None` means truly empty.
    ///
    /// A fast-forwarding driver can jump to the bound and probe again —
    /// at most `LEVELS` probes reach the real event, so the bound costs
    /// O(1) amortized like everything else. (This is the one spot the
    /// wheel is weaker than the heap's exact `next_due`; the heap pays
    /// `O(log n)` per operation for it.)
    #[must_use]
    pub fn next_due_bound(&self) -> Option<Cycle> {
        if self.len == 0 {
            return None;
        }
        if let Some(m) = self.due.iter().map(|e| e.at).min() {
            // Due entries exist; earliest is at most the cursor.
            return Some(Cycle(m));
        }
        let mut best = u64::MAX;
        for level in 0..LEVELS {
            if let Some(start) = self.next_occupied_start(level) {
                best = best.min(start);
            }
        }
        if self.overflow_min != u64::MAX {
            // The overflow re-buckets when the cursor's top-level
            // window reaches it; the entry itself can't fire before its
            // own cycle, so the entry time is the bound.
            best = best.min(self.overflow_min);
        }
        (best != u64::MAX).then_some(Cycle(best))
    }

    /// Resolves the **exact** cycle of the earliest pending event, or
    /// `None` if the wheel is empty or the earliest event is after
    /// `limit`. May advance the cursor (over provably empty cycles
    /// only — nothing is fired) to refine higher-level slot-start
    /// bounds into exact entry times; at most `LEVELS` refinement hops
    /// happen per call, preserving the amortized O(1) budget.
    pub fn next_event_time(&mut self, limit: Cycle) -> Option<Cycle> {
        loop {
            self.sort_due();
            if let Some(front) = self.due.front() {
                return (front.at <= limit.0).then_some(Cycle(front.at));
            }
            let bound = self.next_due_bound()?;
            if bound.0 > limit.0 {
                return None;
            }
            // Advance to the bound: either entries land in `due` (loop
            // returns the exact front) or a cascade refines the bound
            // strictly upward (cursor has moved past the old bound).
            self.collect_up_to(bound.0);
        }
    }

    /// Start cycle of the first occupied future slot at `level`, within
    /// the cursor's current level-(`level`+1) window.
    fn next_occupied_start(&self, level: usize) -> Option<u64> {
        let digit = slot_index(self.cursor, level) as u32;
        // Slots strictly after the cursor's own digit. The cursor's own
        // slot is empty at levels >= 1 (cascaded on entry) and already
        // collected at level 0.
        let future = self.occupied[level] & (!0u64).checked_shl(digit + 1).unwrap_or(0);
        if future == 0 {
            return None;
        }
        let idx = u64::from(future.trailing_zeros());
        let span = 1u64 << (SLOT_BITS * level as u32);
        let window_base = self.cursor & !((span << SLOT_BITS) - 1);
        Some(window_base + idx * span)
    }

    /// Advances the cursor to `now`, moving every entry with
    /// `at <= now` into the due buffer. Jumps over empty regions using
    /// the occupancy bitmaps; cascades higher-level slots as the cursor
    /// enters their span.
    fn collect_up_to(&mut self, now: u64) {
        while self.cursor < now {
            // Earliest point where bucketed work exists.
            let mut target = now;
            for level in 0..LEVELS {
                if let Some(start) = self.next_occupied_start(level) {
                    target = target.min(start);
                }
            }
            if self.overflow_min != u64::MAX {
                // Cycle at which the earliest overflow entry enters the
                // wheel's horizon (start of its top-level window).
                let enter = self.overflow_min & !((1u64 << HORIZON_BITS) - 1);
                target = target.min(enter.max(self.cursor + 1));
            }
            if target > now {
                // Nothing due in (cursor, now]: one jump finishes.
                self.cursor = now;
                return;
            }
            self.advance_cursor(target);
        }
    }

    /// Moves the cursor to `to` (forward), cascading every slot whose
    /// span the cursor newly entered and collecting the level-0 slot at
    /// the destination. The caller guarantees no occupied slot starts
    /// strictly between the old cursor and `to`.
    fn advance_cursor(&mut self, to: u64) {
        let old = self.cursor;
        self.cursor = to;
        // Re-bucket overflow entries that are now within the horizon.
        if self.overflow_min <= to
            || (self.overflow_min != u64::MAX && level_of(to, self.overflow_min).is_some())
        {
            let mut pending = std::mem::take(&mut self.overflow);
            self.overflow_min = u64::MAX;
            for e in pending.drain(..) {
                self.insert(e);
            }
            self.overflow = pending;
        }
        // Cascade top-down: entering a new level-l window re-buckets
        // that slot's entries, possibly into lower levels the loop then
        // visits.
        for level in (1..LEVELS).rev() {
            if (old >> (SLOT_BITS * level as u32)) != (to >> (SLOT_BITS * level as u32)) {
                let idx = slot_index(to, level);
                self.cascade(level, idx);
            }
        }
        // The level-0 slot at the destination holds exactly the entries
        // for cycle `to`.
        let idx = slot_index(to, 0);
        if self.occupied[0] & (1 << idx) != 0 {
            self.occupied[0] &= !(1 << idx);
            let mut bucket = std::mem::take(&mut self.slots[idx]);
            debug_assert!(bucket.iter().all(|e| e.at == to), "level-0 slot impure");
            self.due.extend(bucket.drain(..));
            self.due_sorted = false;
            self.slots[idx] = bucket;
        }
    }

    /// Re-buckets every entry in `slots[level][idx]` relative to the
    /// (already moved) cursor.
    fn cascade(&mut self, level: usize, idx: usize) {
        if self.occupied[level] & (1 << idx) == 0 {
            return;
        }
        self.occupied[level] &= !(1 << idx);
        let mut bucket = std::mem::take(&mut self.slots[level * SLOTS + idx]);
        for e in bucket.drain(..) {
            self.insert(e);
        }
        self.slots[level * SLOTS + idx] = bucket;
    }

    fn sort_due(&mut self) {
        if !self.due_sorted {
            // Already-popped entries are gone from the deque, so a full
            // sort of what remains is always safe and keeps `(at, seq)`
            // firing order.
            self.due.make_contiguous().sort_by_key(|e| (e.at, e.seq));
            self.due_sorted = true;
        }
    }
}

#[inline]
fn slot_index(at: u64, level: usize) -> usize {
    ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
}

/// The wheel level `at` belongs to, relative to `cursor`: the smallest
/// `l` such that both share the level-(`l`+1) window. `None` when `at`
/// is beyond the horizon.
#[inline]
fn level_of(cursor: u64, at: u64) -> Option<usize> {
    debug_assert!(at > cursor);
    (0..LEVELS).find(|&l| {
        let shift = SLOT_BITS * (l as u32 + 1);
        (at >> shift) == (cursor >> shift)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventQueue;
    use proptest::prelude::*;

    #[test]
    fn orders_by_cycle_then_insertion() {
        let mut w = TimerWheel::new();
        w.schedule(Cycle(3), 'c');
        w.schedule(Cycle(1), 'a');
        w.schedule(Cycle(3), 'd');
        w.schedule(Cycle(2), 'b');
        let mut fired = Vec::new();
        w.drain_due_into(Cycle(100), &mut fired);
        assert_eq!(fired, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn nothing_due_before_time() {
        let mut w = TimerWheel::new();
        w.schedule(Cycle(10), ());
        assert_eq!(w.pop_due(Cycle(9)), None);
        assert_eq!(w.next_due_bound(), Some(Cycle(10)));
        assert_eq!(w.next_event_time(Cycle(u64::MAX)), Some(Cycle(10)));
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
        assert_eq!(w.pop_due(Cycle(10)), Some(()));
        assert!(w.is_empty());
        assert_eq!(w.next_due_bound(), None);
    }

    #[test]
    fn past_events_fire_immediately() {
        let mut w = TimerWheel::new();
        w.schedule(Cycle(0), 1);
        assert_eq!(w.pop_due(Cycle(50)), Some(1));
        // Cursor has moved; scheduling behind it still fires next pop.
        assert_eq!(w.cursor(), Cycle(50));
        w.schedule(Cycle(7), 2);
        assert_eq!(w.pop_due(Cycle(50)), Some(2));
    }

    #[test]
    fn far_future_crosses_every_level_and_overflow() {
        let mut w = TimerWheel::new();
        // One event per level span, plus one beyond the horizon.
        let cycles = [
            1u64,                         // level 0
            70,                           // level 1
            5_000,                        // level 2
            300_000,                      // level 3
            (1 << HORIZON_BITS) + 12_345, // overflow
        ];
        for (i, &c) in cycles.iter().enumerate() {
            w.schedule(Cycle(c), i);
        }
        assert_eq!(w.len(), 5);
        for (i, &c) in cycles.iter().enumerate() {
            assert_eq!(
                w.next_event_time(Cycle(u64::MAX)),
                Some(Cycle(c)),
                "event {i}"
            );
            assert_eq!(w.pop_due(Cycle(c)), Some(i), "event {i}");
        }
        assert!(w.is_empty());
    }

    #[test]
    fn next_event_time_respects_limit() {
        let mut w = TimerWheel::new();
        w.schedule(Cycle(500), ());
        assert_eq!(w.next_event_time(Cycle(499)), None);
        assert_eq!(w.next_event_time(Cycle(500)), Some(Cycle(500)));
        // Probing never fires anything.
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_fifo_within_cycle() {
        let mut w = TimerWheel::new();
        w.schedule(Cycle(5), 1);
        w.schedule(Cycle(5), 2);
        assert_eq!(w.pop_due(Cycle(5)), Some(1));
        w.schedule(Cycle(5), 3);
        assert_eq!(w.pop_due(Cycle(5)), Some(2));
        assert_eq!(w.pop_due(Cycle(5)), Some(3));
    }

    #[test]
    fn big_idle_jump_is_cheap_and_exact() {
        // A wake 10M cycles out: the cursor must get there by bitmap
        // jumps (a handful of hops), not cycle-by-cycle — this test
        // finishing instantly IS the performance assertion.
        let mut w = TimerWheel::new();
        w.schedule(Cycle(10_000_000), "far");
        assert_eq!(w.next_event_time(Cycle(u64::MAX)), Some(Cycle(10_000_000)));
        assert_eq!(w.pop_due(Cycle(9_999_999)), None);
        assert_eq!(w.pop_due(Cycle(10_000_000)), Some("far"));
    }

    proptest! {
        /// The wheel fires exactly what the heap-based [`EventQueue`]
        /// fires, in exactly the same order, under arbitrary interleaved
        /// schedules and monotone drains — the queue is the oracle.
        #[test]
        fn wheel_matches_event_queue_oracle(
            ops in proptest::collection::vec((any::<bool>(), 0u64..600_000), 1..120),
        ) {
            let mut wheel = TimerWheel::new();
            let mut queue = EventQueue::new();
            let mut now = 0u64;
            let mut tag = 0u32;
            for &(is_advance, val) in &ops {
                if is_advance {
                    now = now.max(now + val % 4096 + (val >> 10));
                    let mut from_wheel = Vec::new();
                    wheel.drain_due_into(Cycle(now), &mut from_wheel);
                    let from_queue = queue.drain_due(Cycle(now));
                    prop_assert_eq!(from_wheel, from_queue);
                } else {
                    // Mix near, far, and past targets around `now`.
                    let at = match val % 3 {
                        0 => now.saturating_sub(val % 50),
                        1 => now + val % 200,
                        _ => now + val,
                    };
                    wheel.schedule(Cycle(at), tag);
                    queue.schedule(Cycle(at), tag);
                    tag += 1;
                }
            }
            let mut rest_wheel = Vec::new();
            wheel.drain_due_into(Cycle(u64::MAX / 2), &mut rest_wheel);
            let rest_queue = queue.drain_due(Cycle(u64::MAX / 2));
            prop_assert_eq!(rest_wheel, rest_queue);
            prop_assert!(wheel.is_empty());
        }
    }
}
