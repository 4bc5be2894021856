//! The worker crew: the threads a `run` call hires once and keeps for
//! all of its epochs, and the gate they wait at between epochs.
//!
//! A crew of `t` threads is the calling thread plus `t − 1` scoped
//! workers. [`chunk_sizes`] pins every thread to one contiguous chunk of
//! members for the whole call. An epoch is one trip through the
//! [`Gate`]: the caller writes the epoch's window and the members'
//! phases into every chunk, lets go of the workers' chunks, bumps the
//! gate's generation, runs its own chunk, and waits for the arrival
//! counter to reach `t − 1`; a worker that sees the generation move
//! locks its chunk, runs it, unlocks it and arrives. Both sides wait the
//! same way — spin for [`SPIN`], offering the core to a peer every
//! microsecond, then `park` — because an epoch is about ten
//! microseconds of work and a futex wake costs several.
//!
//! The crate forbids `unsafe`, so a chunk is handed back and forth as a
//! `Mutex<Chunk>`. The lock is never contended: the gate orders every
//! acquisition (the caller locks a worker's chunk only after that
//! worker arrived, a worker only after the caller released it), so each
//! `lock` is one uncontended atomic and carries the happens-before edge
//! the members' plain data needs. Between epochs the caller holds every
//! chunk, and that is what makes [`Crew`] a [`Members`]: the ToR's
//! serial boundary steps index straight through the held guards.
//!
//! Determinism is untouched: a worker writes only the members of its
//! own chunk (and that chunk's skip count) plus the arrival counter;
//! everything the ToR owns is written by the caller alone, at
//! boundaries, in member-index order.
//!
//! A panic stays a panic. A worker that unwinds poisons the gate and
//! wakes the caller, which dismisses the rest, joins, and resumes the
//! worker's own panic payload; a caller that unwinds (its own chunk,
//! or the serial exchange) drops the [`Crew`], which dismisses the
//! workers so the thread scope can join them.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::{self, ScopedJoinHandle, Thread};
use std::time::{Duration, Instant};

use sim_core::clock::Advance;
use sim_core::time::Cycle;

use crate::fleet::{run_chunk, Member, Members};
use crate::tor::Phase;

/// How long a thread spins at the gate before it parks. It has to
/// cover what a peer still has to do when this thread gets there — the
/// rest of its chunk, or the serial exchange — and no more: that is
/// about one epoch (≈10 µs for the benchmark's ring). Below that the
/// crew parks threads that were about to be released and pays a futex
/// wake — several epochs' worth in a VM — on every epoch; docs/PERF.md
/// §9 has the measured cliff (5 µs loses a third, 2 µs two thirds) and
/// why the bound is a time, not an iteration count.
const SPIN: Duration = Duration::from_micros(20);
/// `spin_loop` hints per slice of the spin (≈1 µs); each slice ends
/// with a look at the clock and a `yield_now`.
const SPINS_PER_SLICE: u32 = 64;

/// The generation that dismisses the workers.
const DISMISSED: u64 = u64::MAX;

/// Waits until `ready`: spinning for [`SPIN`], then parked between
/// looks. Whoever makes `ready` true must `unpark` this thread after.
fn wait_until(ready: impl Fn() -> bool) {
    let mut spinning_since = None;
    loop {
        for _ in 0..SPINS_PER_SLICE {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
        let now = Instant::now();
        if now.duration_since(*spinning_since.get_or_insert(now)) >= SPIN {
            break;
        }
        // The thread being waited for may need this core: the crew can
        // outnumber the cores, and a scheduler often starts a worker on
        // its spawner's. Offering the core every slice hands it over
        // within a microsecond instead of after the whole budget; with
        // nobody else runnable it is a syscall that returns at once.
        thread::yield_now();
    }
    // An `unpark` that came before a `park` makes it return at once
    // (the token is sticky), so no wake-up is lost; a stale token costs
    // one more trip around the loop.
    while !ready() {
        thread::park();
    }
}

/// The epoch gate.
///
/// Orderings: every store below is `Release` and every load `Acquire`,
/// so whoever observes a value also observes what its writer did
/// before — though the members themselves cross threads under their
/// chunk's mutex, not on the strength of these.
struct Gate {
    /// The caller bumps it to release the workers into the next epoch
    /// and sets it to [`DISMISSED`] to send them home.
    generation: AtomicU64,
    /// Workers done with the current epoch; the caller zeroes it once
    /// it has seen them all (no worker touches it again before the
    /// next bump).
    arrived: AtomicUsize,
    /// Set by a worker that is unwinding.
    poisoned: AtomicBool,
    /// How many arrivals make an epoch complete.
    workers: usize,
    /// The thread that waits for `arrived` to fill up.
    caller: Thread,
}

impl Gate {
    /// Worker side: one epoch done. The last arrival wakes the caller.
    fn arrive(&self) {
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.workers {
            self.caller.unpark();
        }
    }
}

/// Poisons the gate when its worker unwinds, so the caller stops
/// waiting for an arrival that will never come.
struct PoisonOnPanic<'g>(&'g Gate);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
            self.0.caller.unpark();
        }
    }
}

/// One thread's members, with the slots the caller and the thread use
/// to talk across the gate. Always accessed under its mutex.
struct Chunk<'m> {
    members: &'m mut [Member],
    /// The members' phases for the epoch about to run (the ToR's own
    /// copy may only be read by the caller).
    phases: Vec<Phase>,
    /// The epoch about to run.
    window: (Cycle, Cycle, Advance),
    /// Cycles the members fast-forwarded over in the epoch just run.
    skipped: u64,
}

impl Chunk<'_> {
    fn run(&mut self) {
        let (from, to, run) = self.window;
        self.skipped = run_chunk(self.members, &self.phases, from, to, run);
    }
}

/// A worker's whole life: wait for a generation, run the chunk, arrive.
fn work(chunk: &Mutex<Chunk<'_>>, gate: &Gate) {
    let _poison = PoisonOnPanic(gate);
    let mut seen = 0;
    loop {
        let generation = || gate.generation.load(Ordering::Acquire);
        wait_until(|| generation() != seen);
        seen = generation();
        if seen == DISMISSED {
            return;
        }
        chunk
            .lock()
            .expect("the caller holds a chunk only between epochs")
            .run();
        gate.arrive();
    }
}

/// Sizes of the chunks `threads` threads cut `members` members into:
/// contiguous, in index order, differing by at most one, none empty —
/// so `min(threads, members)` threads have work.
pub(crate) fn chunk_sizes(members: usize, threads: usize) -> impl Iterator<Item = usize> {
    let parts = threads.min(members).max(1);
    (0..parts).map(move |p| members / parts + usize::from(p < members % parts))
}

/// The caller's end of the crew: every chunk (held between epochs), the
/// gate and the workers' handles. Dropping it dismisses the workers.
pub(crate) struct Crew<'scope, 'c, 'm> {
    gate: &'c Gate,
    chunks: &'c [Mutex<Chunk<'m>>],
    /// Guards of the chunks the caller holds, in member order: all of
    /// them between epochs, only its own (the first) during one.
    held: Vec<MutexGuard<'c, Chunk<'m>>>,
    hands: Vec<ScopedJoinHandle<'scope, ()>>,
    /// Members in all chunks together.
    count: usize,
}

/// Hires a crew of `threads` (at least 2, at most one per member) over
/// `members`, hands it to `f`, and dismisses and joins it when `f`
/// returns or unwinds.
pub(crate) fn with_crew<R>(
    members: &mut [Member],
    threads: usize,
    f: impl FnOnce(&mut Crew<'_, '_, '_>) -> R,
) -> R {
    let count = members.len();
    let mut rest = members;
    let chunks: Vec<Mutex<Chunk<'_>>> = chunk_sizes(count, threads)
        .map(|size| {
            let (members, tail) = std::mem::take(&mut rest).split_at_mut(size);
            rest = tail;
            Mutex::new(Chunk {
                members,
                phases: vec![Phase::Up; size],
                window: (Cycle(0), Cycle(0), Advance::Stepped),
                skipped: 0,
            })
        })
        .collect();
    let gate = Gate {
        generation: AtomicU64::new(0),
        arrived: AtomicUsize::new(0),
        poisoned: AtomicBool::new(false),
        workers: chunks.len() - 1,
        caller: thread::current(),
    };
    thread::scope(|scope| {
        let gate = &gate;
        let mut crew = Crew {
            gate,
            chunks: &chunks,
            held: Vec::with_capacity(chunks.len()),
            hands: Vec::with_capacity(gate.workers),
            count,
        };
        // The crew exists before its first worker does: were a spawn
        // to fail, its drop would still dismiss the ones already hired.
        for chunk in &chunks[1..] {
            crew.hands.push(scope.spawn(move || work(chunk, gate)));
        }
        crew.hold_from(0);
        f(&mut crew)
    })
}

impl Crew<'_, '_, '_> {
    /// Locks chunks `first..` — the caller's side of the hand-over.
    fn hold_from(&mut self, first: usize) {
        for chunk in &self.chunks[first..] {
            self.held.push(
                chunk
                    .lock()
                    .expect("a worker that panicked poisons the gate first"),
            );
        }
    }

    /// Wakes every worker for a look at the generation just written.
    fn wake(&self) {
        for hand in &self.hands {
            hand.thread().unpark();
        }
    }

    /// Sends the workers home (they leave at their next look at the
    /// gate, finishing the epoch they are in first).
    fn dismiss(&self) {
        self.gate.generation.store(DISMISSED, Ordering::Release);
        self.wake();
    }

    /// A worker panicked: joins the crew and resumes that panic here.
    fn rethrow(&mut self) -> ! {
        self.dismiss();
        for hand in self.hands.drain(..) {
            if let Err(payload) = hand.join() {
                resume_unwind(payload);
            }
        }
        unreachable!("the gate was poisoned, but no worker panicked")
    }
}

impl Drop for Crew<'_, '_, '_> {
    fn drop(&mut self) {
        self.dismiss();
    }
}

impl Members for Crew<'_, '_, '_> {
    fn count(&self) -> usize {
        self.count
    }

    fn at(&mut self, mut index: usize) -> &mut Member {
        for chunk in &mut self.held {
            if index < chunk.members.len() {
                return &mut chunk.members[index];
            }
            index -= chunk.members.len();
        }
        panic!("member index past the rack")
    }

    fn run_epoch(&mut self, mut phases: &[Phase], from: Cycle, to: Cycle, run: Advance) -> u64 {
        for chunk in &mut self.held {
            let (mine, rest) = phases.split_at(chunk.members.len());
            chunk.phases.copy_from_slice(mine);
            chunk.window = (from, to, run);
            phases = rest;
        }
        // Let go of the workers' chunks, then open the gate.
        self.held.truncate(1);
        let gate = self.gate;
        gate.generation.fetch_add(1, Ordering::Release);
        self.wake();
        self.held[0].run();
        let poisoned = || gate.poisoned.load(Ordering::Acquire);
        wait_until(|| gate.arrived.load(Ordering::Acquire) == gate.workers || poisoned());
        if poisoned() {
            self.rethrow();
        }
        gate.arrived.store(0, Ordering::Release);
        self.hold_from(1);
        self.held.iter().map(|chunk| chunk.skipped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::chunk_sizes;

    /// Every member lands in exactly one chunk, chunks follow member
    /// order (they are sizes of consecutive ranges), no thread that
    /// could have a member goes without, and no chunk is more than one
    /// member larger than another.
    #[test]
    fn chunks_are_balanced_and_cover_every_member_once() {
        for members in 0..=40 {
            for threads in 1..=12 {
                let sizes: Vec<usize> = chunk_sizes(members, threads).collect();
                assert_eq!(
                    sizes.iter().sum::<usize>(),
                    members,
                    "{members} on {threads}"
                );
                assert_eq!(sizes.len(), threads.min(members).max(1));
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "{members} on {threads}: {sizes:?}");
                assert!(
                    *min > 0 || members == 0,
                    "{members} on {threads}: {sizes:?}"
                );
            }
        }
        // The cases `len.div_ceil(threads)` chunking left threads idle on.
        assert_eq!(chunk_sizes(5, 4).collect::<Vec<_>>(), [2, 1, 1, 1]);
        assert_eq!(chunk_sizes(6, 4).collect::<Vec<_>>(), [2, 2, 1, 1]);
        assert_eq!(chunk_sizes(9, 4).collect::<Vec<_>>(), [3, 2, 2, 2]);
        assert_eq!(
            chunk_sizes(9, 8).collect::<Vec<_>>(),
            [2, 1, 1, 1, 1, 1, 1, 1]
        );
    }
}
