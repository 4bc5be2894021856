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

/// The heap's view of an entry: its rank, its insertion sequence
/// number (unique, so it alone breaks ties), and the slot holding the
/// item. Ordered by `(rank, seq)`; the slot never decides.
type Key = (u64, u64, u32);

/// A Push-In-First-Out queue: pop always returns the minimum-rank
/// element, FIFO within equal ranks.
///
/// The heap orders 24-byte keys, not items: an item is written once
/// into a slot when pushed and read once when popped, however far the
/// heap sifts its key, and freed slots are reused last-in first-out.
#[derive(Debug)]
pub struct Pifo<T> {
    heap: BinaryHeap<Reverse<Key>>,
    slots: Vec<Option<T>>,
    free: Vec<u32>,
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
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Pushes `item` with `rank` (lower pops first).
    pub fn push(&mut self, rank: u64, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(item);
                slot
            }
            None => {
                self.slots.push(Some(item));
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 queued items")
            }
        };
        self.heap.push(Reverse((rank, seq, slot)));
    }

    /// Empties `slot`, returning its item to the caller.
    fn take(&mut self, slot: u32) -> T {
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("a queued key names a filled slot")
    }

    /// Pops the minimum-rank item.
    pub fn pop(&mut self) -> Option<T> {
        let Reverse((rank, _, slot)) = self.heap.pop()?;
        // Rank monotonicity: nothing still queued outranks what just
        // popped — the heap invariant on full `u64` ranks.
        debug_assert!(
            self.peek_rank().is_none_or(|next| next >= rank),
            "PIFO popped rank {rank} but a smaller rank remains queued"
        );
        Some(self.take(slot))
    }

    /// Rank of the element that would pop next.
    #[must_use]
    pub fn peek_rank(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((rank, _, _))| *rank)
    }

    /// Reference to the element that would pop next.
    #[must_use]
    pub fn peek(&self) -> Option<&T> {
        self.heap
            .peek()
            .and_then(|Reverse((_, _, slot))| self.slots[*slot as usize].as_ref())
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
    /// best afford to be shed). O(n) over the keys, in place: drops are
    /// off the fast path, but they must not allocate.
    ///
    /// Within equal maximal ranks the *youngest* element is removed
    /// (largest seq), preserving FIFO fairness among the survivors.
    pub fn evict_max_rank(&mut self) -> Option<(u64, T)> {
        let &Reverse(victim) = self.heap.iter().max_by_key(|Reverse(key)| *key)?;
        self.heap.retain(|Reverse(key)| *key != victim);
        let (rank, _, slot) = victim;
        Some((rank, self.take(slot)))
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
