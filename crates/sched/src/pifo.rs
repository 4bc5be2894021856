//! A PIFO: Push-In-First-Out priority queue.
//!
//! The abstraction of "Programmable packet scheduling at line rate"
//! (Sivaraman et al. \[35\]): elements are pushed with an arbitrary rank
//! and popped in rank order; within a rank, FIFO. A PIFO can express a
//! wide space of scheduling disciplines purely by choice of rank
//! function — which is exactly how PANIC's slack values program the
//! per-engine schedulers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An entry with its rank and a stable insertion sequence number.
#[derive(Debug)]
struct Entry<T> {
    rank: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank.cmp(&other.rank).then(self.seq.cmp(&other.seq))
    }
}

/// A Push-In-First-Out queue: pop always returns the minimum-rank
/// element, FIFO within equal ranks.
#[derive(Debug)]
pub struct Pifo<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    next_seq: u64,
}

impl<T> Default for Pifo<T> {
    fn default() -> Self {
        Pifo::new()
    }
}

impl<T> Pifo<T> {
    /// An empty PIFO.
    #[must_use]
    pub fn new() -> Pifo<T> {
        Pifo {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Pushes `item` with `rank` (lower pops first).
    pub fn push(&mut self, rank: u64, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { rank, seq, item }));
    }

    /// Pops the minimum-rank item.
    pub fn pop(&mut self) -> Option<T> {
        let popped = self.heap.pop().map(|Reverse(e)| (e.rank, e.item));
        popped.map(|(rank, item)| {
            // Rank monotonicity: nothing still queued outranks what just
            // popped — the heap invariant on full `u64` ranks.
            debug_assert!(
                self.peek_rank().is_none_or(|next| next >= rank),
                "PIFO popped rank {rank} but a smaller rank remains queued"
            );
            item
        })
    }

    /// Rank of the element that would pop next.
    #[must_use]
    pub fn peek_rank(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.rank)
    }

    /// Reference to the element that would pop next.
    #[must_use]
    pub fn peek(&self) -> Option<&T> {
        self.heap.peek().map(|Reverse(e)| &e.item)
    }

    /// Number of queued elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes and returns the element with the *largest* rank — the
    /// victim of an intelligent drop (§4.3: shed the traffic that can
    /// best afford to be shed). O(n); drops are off the fast path.
    ///
    /// Within equal maximal ranks the *youngest* element is removed
    /// (largest seq), preserving FIFO fairness among the survivors.
    pub fn evict_max_rank(&mut self) -> Option<(u64, T)> {
        if self.heap.is_empty() {
            return None;
        }
        let entries: Vec<Entry<T>> = std::mem::take(&mut self.heap)
            .into_iter()
            .map(|Reverse(e)| e)
            .collect();
        let victim_idx = entries
            .iter()
            .enumerate()
            .max_by_key(|(_, e)| (e.rank, e.seq))
            .map(|(i, _)| i)
            .expect("non-empty");
        let mut victim = None;
        for (i, e) in entries.into_iter().enumerate() {
            if i == victim_idx {
                victim = Some((e.rank, e.item));
            } else {
                self.heap.push(Reverse(e));
            }
        }
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_rank_order() {
        let mut q = Pifo::new();
        q.push(30, 'c');
        q.push(10, 'a');
        q.push(20, 'b');
        assert_eq!(q.pop(), Some('a'));
        assert_eq!(q.pop(), Some('b'));
        assert_eq!(q.pop(), Some('c'));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_equal_ranks() {
        let mut q = Pifo::new();
        q.push(5, 1);
        q.push(5, 2);
        q.push(5, 3);
        assert_eq!(q.pop(), Some(1));
        q.push(5, 4);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(4));
    }

    #[test]
    fn push_in_first_out_preemption() {
        // A later push with a smaller rank pops before earlier pushes:
        // the defining PIFO property.
        let mut q = Pifo::new();
        q.push(100, "bulk-1");
        q.push(100, "bulk-2");
        q.push(1, "urgent");
        assert_eq!(q.pop(), Some("urgent"));
        assert_eq!(q.pop(), Some("bulk-1"));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = Pifo::new();
        q.push(7, 'x');
        assert_eq!(q.peek_rank(), Some(7));
        assert_eq!(q.peek(), Some(&'x'));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some('x'));
        assert!(q.is_empty());
        assert_eq!(q.peek_rank(), None);
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn evict_max_rank_removes_most_tolerant() {
        let mut q = Pifo::new();
        q.push(10, "urgent");
        q.push(500, "bulk");
        q.push(50, "normal");
        let (rank, item) = q.evict_max_rank().unwrap();
        assert_eq!((rank, item), (500, "bulk"));
        assert_eq!(q.len(), 2);
        // Remaining order intact.
        assert_eq!(q.pop(), Some("urgent"));
        assert_eq!(q.pop(), Some("normal"));
    }

    #[test]
    fn evict_ties_remove_youngest() {
        let mut q = Pifo::new();
        q.push(9, "old");
        q.push(9, "young");
        let (_, item) = q.evict_max_rank().unwrap();
        assert_eq!(item, "young");
        assert_eq!(q.pop(), Some("old"));
    }

    #[test]
    fn evict_empty_is_none() {
        let mut q: Pifo<u8> = Pifo::new();
        assert_eq!(q.evict_max_rank(), None);
    }

    #[test]
    fn interleaved_operations_keep_order() {
        let mut q = Pifo::new();
        q.push(3, 3u32);
        q.push(1, 1);
        assert_eq!(q.pop(), Some(1));
        q.push(2, 2);
        q.push(0, 0);
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }
}
