//! The keyed [`Pifo`] against a reference PIFO: a
//! `BinaryHeap<Reverse<(rank, seq)>>` over every entry, the victim of an
//! eviction found by a scan and the heap rebuilt without it.
//!
//! One stream of random operations drives both — pushes whose ranks
//! collide often (ties pop in push order), pops, evictions of the
//! largest rank (ties evict the youngest), and the intelligent drop's
//! evict-then-push-back, which gives the returned item a fresh sequence
//! number — and after every operation the two must agree on what came
//! out, on `len`, `peek_rank` and `peek`.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use proptest::prelude::*;
use sched::Pifo;

/// The reference: whole `(rank, seq)` entries in one heap, items beside
/// them by sequence number.
#[derive(Default)]
struct Reference {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    items: BTreeMap<u64, u32>,
    next_seq: u64,
}

impl Reference {
    fn push(&mut self, rank: u64, item: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((rank, seq)));
        self.items.insert(seq, item);
    }

    fn pop(&mut self) -> Option<u32> {
        let Reverse((_, seq)) = self.heap.pop()?;
        self.items.remove(&seq)
    }

    fn peek(&self) -> Option<(u64, u32)> {
        let &Reverse((rank, seq)) = self.heap.peek()?;
        Some((rank, self.items[&seq]))
    }

    fn evict_max_rank(&mut self) -> Option<(u64, u32)> {
        let &Reverse(victim) = self.heap.iter().max_by_key(|Reverse(key)| *key)?;
        let rest: Vec<_> = self
            .heap
            .drain()
            .filter(|&Reverse(k)| k != victim)
            .collect();
        self.heap = BinaryHeap::from(rest);
        Some((victim.0, self.items.remove(&victim.1).expect("queued")))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn keyed_pifo_matches_the_entry_heap(
        ops in collection::vec((0u8..8, 0u64..6), 0..400),
        spread in 1u64..=1_000,
    ) {
        let (mut pifo, mut reference) = (Pifo::new(), Reference::default());
        let mut next_item = 0u32;
        for (i, (op, rank)) in ops.into_iter().enumerate() {
            // Six rank values times `spread`: many ties at spread 1.
            let rank = rank * spread;
            match op {
                // Pushes outnumber pops so the queues grow.
                0..=3 => {
                    pifo.push(rank, next_item);
                    reference.push(rank, next_item);
                    next_item += 1;
                }
                4 | 5 => prop_assert_eq!(pifo.pop(), reference.pop(), "op {}", i),
                6 => prop_assert_eq!(pifo.evict_max_rank(), reference.evict_max_rank(), "op {}", i),
                // The intelligent drop when the arrival is the victim:
                // evict, then push the evicted item back at its rank.
                _ => {
                    let evicted = pifo.evict_max_rank();
                    prop_assert_eq!(evicted, reference.evict_max_rank(), "op {}", i);
                    if let Some((rank, item)) = evicted {
                        pifo.push(rank, item);
                        reference.push(rank, item);
                    }
                }
            }
            prop_assert_eq!(pifo.len(), reference.heap.len(), "op {}", i);
            prop_assert_eq!(pifo.is_empty(), reference.heap.is_empty());
            let want = reference.peek();
            prop_assert_eq!(pifo.peek_rank(), want.map(|(rank, _)| rank), "op {}", i);
            prop_assert_eq!(pifo.peek().copied(), want.map(|(_, item)| item), "op {}", i);
        }
        // What is left drains in the same order.
        while let Some(item) = reference.pop() {
            prop_assert_eq!(pifo.pop(), Some(item));
        }
        prop_assert_eq!(pifo.pop(), None);
    }
}
