//! The retry ledger under both [`crate::Watchdog`] (descriptors inside
//! one NIC) and [`crate::HopLedger`] (crossings between NICs). Every
//! tracked message id gets a deadline; a missed deadline re-arms with
//! bounded exponential backoff and hands the caller a copy to re-send;
//! the first terminal report for an id wins and every later one is a
//! duplicate (state machine in `docs/FAULTS.md`).
//!
//! A done entry keeps its id — that is the duplicate filter — but not
//! its re-send template, so memory follows what is pending; live
//! deadlines are counted as they change, so asking is O(1). The two
//! public ledgers differ only in the policy they state on top: what
//! exhaustion means, and what tracking an id again means.

use std::collections::hash_map::Entry as Slot;
use std::collections::{BTreeMap, HashMap};

use packet::message::{Message, MessageId};
use sim_core::time::{Cycle, Cycles};

/// The deadline multiplier per retry, for both ledgers: retry `n`
/// waits `base × BACKOFF^n`.
pub(crate) const BACKOFF: u64 = 2;

/// The deadline for attempt `retries` (0 = the original copy):
/// `base × BACKOFF^retries`, saturating.
pub(crate) fn deadline_after(base: Cycles, retries: u32) -> Cycles {
    Cycles(base.0.saturating_mul(BACKOFF.saturating_pow(retries)))
}

/// One tracked id; `X` is what the owning ledger keeps beside it.
#[derive(Debug)]
pub(crate) struct Entry<X> {
    /// The armed deadline; meaningful while `live`.
    deadline: Cycle,
    /// A deadline is armed: not done, budget not spent.
    live: bool,
    /// Terminal; only tracking the id anew reopens it.
    done: bool,
    /// Pristine copy to re-send; dropped when the entry is done.
    template: Option<Box<Message>>,
    /// Re-sends issued so far.
    pub retries: u32,
    /// How many times the id had been tracked before.
    pub generation: u32,
    /// When this generation was tracked.
    pub tracked_at: Cycle,
    /// The owning ledger's per-id state.
    pub extra: X,
}

impl<X> Entry<X> {
    /// The re-send template; an entry that is not done has one.
    pub fn template(&self) -> &Message {
        self.template.as_deref().expect("open entry keeps template")
    }

    fn close(&mut self) {
        self.live = false;
        self.done = true;
        self.template = None;
    }
}

/// What [`Ledger::terminate`] found.
pub(crate) enum Terminal<'a, X> {
    /// The id was never tracked.
    Unknown,
    /// The id is already done, or the report names another generation.
    Late,
    /// This report closed the entry.
    First(&'a Entry<X>),
}

/// The deadline wheel plus the per-id entries. See the module docs.
#[derive(Debug)]
pub(crate) struct Ledger<X> {
    base: Cycles,
    max_retries: u32,
    /// Exhaustion closes the entry (a later report is a duplicate)
    /// instead of only disarming it (a late first report still wins).
    sticky: bool,
    entries: HashMap<MessageId, Entry<X>>,
    /// Cycle → ids whose deadline is that cycle. Slots are lazily
    /// invalidated: nothing unlinks an id when its entry is done or
    /// re-armed, so a slot only counts if the entry is still live with
    /// exactly that deadline.
    wheel: BTreeMap<Cycle, Vec<MessageId>>,
    /// Entries with a live deadline.
    live: usize,
}

impl<X> Ledger<X> {
    pub fn new(base: Cycles, max_retries: u32, sticky: bool) -> Ledger<X> {
        Ledger {
            base,
            max_retries,
            sticky,
            entries: HashMap::new(),
            wheel: BTreeMap::new(),
            live: 0,
        }
    }

    /// Starts tracking `msg` at `now` with a fresh budget, keeping a
    /// clone as the re-send template, and returns the generation: 0,
    /// or one more than last time for an id that was tracked before
    /// (which must be done by now).
    pub fn track(&mut self, msg: &Message, now: Cycle, extra: X) -> u32 {
        let deadline = Cycle(now.0.saturating_add(self.base.0));
        let mut entry = Entry {
            deadline,
            live: true,
            done: false,
            template: Some(Box::new(msg.clone())),
            retries: 0,
            generation: 0,
            tracked_at: now,
            extra,
        };
        let generation = match self.entries.entry(msg.id) {
            Slot::Vacant(slot) => slot.insert(entry).generation,
            Slot::Occupied(mut slot) => {
                let prev = slot.get();
                debug_assert!(prev.done, "re-tracking {:?} while still in flight", msg.id);
                entry.generation = prev.generation + 1;
                self.live -= usize::from(prev.live);
                slot.insert(entry);
                slot.get().generation
            }
        };
        self.wheel.entry(deadline).or_default().push(msg.id);
        self.live += 1;
        generation
    }

    /// Visits every entry whose deadline is at or before `now`, in
    /// deadline order. With budget left the entry is re-armed and
    /// `visit` gets the attempt number (1 = first re-send); with the
    /// budget spent it is disarmed — closed, when exhaustion is
    /// sticky — and `visit` gets `None`.
    pub fn expire(
        &mut self,
        now: Cycle,
        mut visit: impl FnMut(MessageId, &mut Entry<X>, Option<u32>),
    ) {
        let later = self.wheel.split_off(&Cycle(now.0.saturating_add(1)));
        let due = std::mem::replace(&mut self.wheel, later);
        for (cycle, ids) in due {
            for id in ids {
                let Some(entry) = self.entries.get_mut(&id) else {
                    continue;
                };
                if !entry.live || entry.deadline != cycle {
                    continue;
                }
                if entry.retries < self.max_retries {
                    entry.retries += 1;
                    let wait = deadline_after(self.base, entry.retries);
                    entry.deadline = Cycle(now.0.saturating_add(wait.0));
                    self.wheel.entry(entry.deadline).or_default().push(id);
                    visit(id, entry, Some(entry.retries));
                } else {
                    entry.live = false;
                    self.live -= 1;
                    if self.sticky {
                        entry.close();
                    }
                    visit(id, entry, None);
                }
            }
        }
    }

    /// Reports a terminal event for `id` — for its generation
    /// `generation`, when the reporter knows one. The first report for
    /// the current generation closes the entry; any other is
    /// [`Terminal::Late`].
    pub fn terminate(&mut self, id: MessageId, generation: Option<u32>) -> Terminal<'_, X> {
        match self.entries.get_mut(&id) {
            None => Terminal::Unknown,
            Some(e) if e.done || generation.is_some_and(|g| g != e.generation) => Terminal::Late,
            Some(entry) => {
                self.live -= usize::from(entry.live);
                entry.close();
                Terminal::First(entry)
            }
        }
    }

    pub fn get_mut(&mut self, id: MessageId) -> Option<&mut Entry<X>> {
        self.entries.get_mut(&id)
    }

    /// Entries with a live deadline.
    pub fn live(&self) -> usize {
        self.live
    }

    /// The next cycle a live deadline fires.
    pub fn next_deadline(&self) -> Option<Cycle> {
        if self.live == 0 {
            return None;
        }
        let is_live = |id, cycle| {
            self.entries
                .get(id)
                .is_some_and(|e| e.live && e.deadline == cycle)
        };
        self.wheel
            .iter()
            .find_map(|(&cycle, ids)| ids.iter().any(|id| is_live(id, cycle)).then_some(cycle))
    }

    #[cfg(test)]
    pub fn templates(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.template.is_some())
            .count()
    }
}

#[cfg(test)]
pub(crate) mod reference;
