//! Deterministic future-event queue.
//!
//! Most of the simulator is cycle-driven, but long-latency completions —
//! a DMA round trip through host memory, an interrupt delivery, a timer
//! in a rate limiter — are more naturally expressed as "wake me at cycle
//! T". [`EventQueue`] provides that with two determinism guarantees:
//!
//! 1. Events firing at the same cycle pop in insertion order (a stable
//!    tiebreak sequence number), so iteration order never depends on
//!    heap internals.
//! 2. Popping is driven by an explicit `now` cursor; the queue never
//!    consults wall-clock time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Cycle;

/// One scheduled entry: fires at `at`, breaking ties by `seq`.
#[derive(Debug)]
struct Scheduled<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

// Ordering for the max-heap: we wrap in `Reverse` at the call sites, so
// implement the natural (earliest-first after Reverse) ordering here.
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// A future-event queue keyed on simulation cycles.
///
/// ```
/// use sim_core::{EventQueue, Cycle};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycle(10), "dma-done");
/// q.schedule(Cycle(5), "timer");
/// q.schedule(Cycle(10), "irq");
///
/// assert_eq!(q.pop_due(Cycle(4)), None);
/// assert_eq!(q.pop_due(Cycle(10)), Some("timer"));
/// assert_eq!(q.pop_due(Cycle(10)), Some("dma-done")); // FIFO within a cycle
/// assert_eq!(q.pop_due(Cycle(10)), Some("irq"));
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at cycle `at`.
    ///
    /// Scheduling in the past is allowed (the event fires on the next
    /// `pop_due`); models use this for "complete immediately" paths.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, event }));
    }

    /// Pops the earliest event due at or before `now`, or `None` if
    /// nothing is due yet.
    pub fn pop_due(&mut self, now: Cycle) -> Option<E> {
        if self.heap.peek().is_some_and(|Reverse(s)| s.at <= now) {
            self.heap.pop().map(|Reverse(s)| s.event)
        } else {
            None
        }
    }

    /// The cycle of the earliest pending event, if any. Lets a driver
    /// fast-forward over idle gaps.
    #[must_use]
    pub fn next_due(&self) -> Option<Cycle> {
        self.heap.peek().map(|Reverse(s)| s.at)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Appends every event due at or before `now` to `out`, in firing
    /// order.
    pub fn drain_due_into(&mut self, now: Cycle, out: &mut Vec<E>) {
        while let Some(e) = self.pop_due(now) {
            out.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_cycle_then_insertion() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(3), 'c');
        q.schedule(Cycle(1), 'a');
        q.schedule(Cycle(3), 'd');
        q.schedule(Cycle(2), 'b');
        let mut fired = Vec::new();
        q.drain_due_into(Cycle(100), &mut fired);
        assert_eq!(fired, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn nothing_due_before_time() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), ());
        assert_eq!(q.pop_due(Cycle(9)), None);
        assert_eq!(q.next_due(), Some(Cycle(10)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop_due(Cycle(10)), Some(()));
        assert!(q.is_empty());
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn past_events_fire_immediately() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(0), 1);
        assert_eq!(q.pop_due(Cycle(50)), Some(1));
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_fifo_within_cycle() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(5), 1);
        q.schedule(Cycle(5), 2);
        assert_eq!(q.pop_due(Cycle(5)), Some(1));
        q.schedule(Cycle(5), 3);
        assert_eq!(q.pop_due(Cycle(5)), Some(2));
        assert_eq!(q.pop_due(Cycle(5)), Some(3));
    }

    #[test]
    fn large_fuzzishly_ordered_load() {
        // Insert cycles in a scrambled order; they must come out sorted,
        // with stable order inside each cycle.
        let mut q = EventQueue::new();
        let cycles = [7u64, 3, 7, 1, 3, 7, 0, 1];
        for (i, &c) in cycles.iter().enumerate() {
            q.schedule(Cycle(c), (c, i));
        }
        let mut fired = Vec::new();
        q.drain_due_into(Cycle(100), &mut fired);
        let mut expect: Vec<(u64, usize)> = cycles
            .iter()
            .copied()
            .enumerate()
            .map(|(i, c)| (c, i))
            .collect();
        expect.sort_by_key(|&(c, i)| (c, i));
        assert_eq!(fired, expect);
    }
}
