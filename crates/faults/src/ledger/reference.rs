//! The two ledgers as they stood before they shared [`super`]: the
//! `Watchdog` of `watchdog.rs` and the `HopLedger` of `fabric.rs` at
//! commit a803a06, bodies verbatim except that each config's
//! `deadline_after` is inlined as a free function over the backoff
//! of 2 every caller configured, the hop ledger takes its timeout
//! and budget as arguments, and the totals no caller reads (the
//! watchdog's four, the hop ledger's exhausted and completed counts)
//! are gone. Test-only: the differential proptests in `watchdog.rs`
//! and `fabric.rs` replay random scripts against these and demand the
//! same answers, step for step.
// Verbatim copies: not every accessor they carry is exercised.
#![allow(dead_code)]

use std::collections::{BTreeMap, HashMap};

use packet::{EngineId, Message, MessageId};
use sim_core::time::{Cycle, Cycles};

use crate::{CompleteOutcome, Expiry, ExpiryAction, HopOutcome, HopRetry, WatchdogConfig};

/// The backoff every caller of the pre-merge ledgers configured.
const BACKOFF: u64 = 2;

fn watchdog_deadline_after(config: &WatchdogConfig, retries: u32) -> Cycles {
    let mult = BACKOFF.saturating_pow(retries);
    Cycles(config.deadline.0.saturating_mul(mult))
}

fn hop_deadline_after(timeout: Cycles, retries: u32) -> Cycles {
    let mut d = timeout.0;
    for _ in 0..retries {
        d = d.saturating_mul(BACKOFF);
    }
    Cycles(d)
}

/// Terminal state of a ledger entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// In flight, deadline armed.
    Pending,
    /// Completed (first copy arrived).
    Completed,
    /// Retry budget exhausted.
    Failed,
}

/// One tracked descriptor.
#[derive(Debug, Clone)]
struct Entry {
    /// Pristine copy for re-issue.
    template: Message,
    /// Ingress port to re-inject from.
    source: EngineId,
    /// Current armed deadline.
    deadline: Cycle,
    /// Retries performed so far.
    retries: u32,
    /// Cycle of the first timeout, for recovery-time measurement.
    first_timeout: Option<Cycle>,
    /// Pending / Completed / Failed.
    state: EntryState,
}

/// The per-descriptor in-flight ledger. See the module docs for the
/// protocol; [`Watchdog::track`] / [`Watchdog::expired`] /
/// [`Watchdog::on_complete`] are the whole API.
#[derive(Debug)]
pub struct Watchdog {
    config: WatchdogConfig,
    entries: HashMap<MessageId, Entry>,
    /// Deadline wheel: cycle → descriptors whose deadline is that
    /// cycle. Entries are lazily invalidated (completion does not
    /// unlink), so `expired` re-checks the ledger before acting.
    wheel: BTreeMap<Cycle, Vec<MessageId>>,
}

impl Watchdog {
    /// An empty ledger with the given policy.
    #[must_use]
    pub fn new(config: WatchdogConfig) -> Watchdog {
        Watchdog {
            config,
            entries: HashMap::new(),
            wheel: BTreeMap::new(),
        }
    }

    /// The policy this ledger enforces.
    #[must_use]
    pub fn config(&self) -> &WatchdogConfig {
        &self.config
    }

    /// Starts tracking a descriptor: clones `msg` as the re-issue
    /// template and arms the base deadline. Tracking the same id twice
    /// is a model bug.
    ///
    /// # Panics
    /// Panics (debug builds) if `msg.id` is already tracked.
    pub fn track(&mut self, msg: &Message, source: EngineId, now: Cycle) {
        let deadline = now + self.config.deadline;
        let prev = self.entries.insert(
            msg.id,
            Entry {
                template: msg.clone(),
                source,
                deadline,
                retries: 0,
                first_timeout: None,
                state: EntryState::Pending,
            },
        );
        debug_assert!(prev.is_none(), "descriptor {:?} tracked twice", msg.id);
        self.wheel.entry(deadline).or_default().push(msg.id);
    }

    /// Collects every descriptor whose deadline has passed as of `now`
    /// and advances its state: re-issue while the budget lasts, fail
    /// after. Call once per watchdog check; the returned actions must
    /// be applied (re-injected / charged) by the caller.
    pub fn expired(&mut self, now: Cycle) -> Vec<Expiry> {
        let mut out = Vec::new();
        // Split off the still-future part of the wheel; what remains
        // keyed <= now is due.
        let future = self.wheel.split_off(&now.next());
        let due = std::mem::replace(&mut self.wheel, future);
        for id in due.into_values().flatten() {
            let Some(entry) = self.entries.get_mut(&id) else {
                continue;
            };
            // Lazily-invalidated wheel slots: the entry may have
            // completed, or been rearmed with a later deadline.
            if entry.state != EntryState::Pending || entry.deadline > now {
                continue;
            }
            entry.first_timeout.get_or_insert(now);
            if entry.retries < self.config.max_retries {
                entry.retries += 1;
                let deadline = now + watchdog_deadline_after(&self.config, entry.retries);
                entry.deadline = deadline;
                self.wheel.entry(deadline).or_default().push(id);
                out.push(Expiry {
                    id,
                    action: ExpiryAction::Reissue {
                        msg: Box::new(entry.template.clone()),
                        source: entry.source,
                        attempt: entry.retries,
                    },
                });
            } else {
                entry.state = EntryState::Failed;
                out.push(Expiry {
                    id,
                    action: ExpiryAction::Fail,
                });
            }
        }
        out
    }

    /// Reports that a copy of descriptor `id` reached a completion
    /// point. The first report wins; see [`CompleteOutcome`].
    pub fn on_complete(&mut self, id: MessageId, now: Cycle) -> CompleteOutcome {
        match self.entries.get_mut(&id) {
            None => CompleteOutcome::Untracked,
            Some(entry) if entry.state == EntryState::Pending => {
                entry.state = EntryState::Completed;
                CompleteOutcome::First {
                    recovery: entry.first_timeout.map(|t| now.saturating_since(t)),
                }
            }
            Some(_) => CompleteOutcome::Duplicate,
        }
    }

    /// Descriptors still pending (tracked, not yet terminal).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.state == EntryState::Pending)
            .count()
    }

    /// The next armed deadline, if any descriptor is pending.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Cycle> {
        self.entries
            .values()
            .filter(|e| e.state == EntryState::Pending)
            .map(|e| e.deadline)
            .min()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HopState {
    /// Awaiting delivery (deadline armed while retries remain).
    Pending,
    /// Delivered (or terminally redirected); further copies are
    /// duplicates.
    Done,
}

#[derive(Debug)]
struct HopEntry {
    /// Crossing generation: bumped each time the same message id is
    /// tracked again (multi-crossing chains). Copies carry their
    /// generation; a stale generation is a duplicate by definition.
    generation: u32,
    state: HopState,
    retries: u32,
    deadline: Cycle,
    /// False once the retry budget is exhausted: the entry stops
    /// waking the fabric but still suppresses late duplicates.
    armed: bool,
    tracked_at: Cycle,
    redirected: bool,
    /// Retransmit template (dropped on completion to free the copy).
    template: Option<Box<Message>>,
}

/// Descriptor-deadline tracking for one member's outbound crossings —
/// the `Watchdog` pattern at fabric scope.
///
/// Every message the ToR serializes out of a member is tracked here
/// under a per-crossing *generation*; undelivered crossings are
/// retransmitted with exponential backoff until the budget runs out,
/// and the receiver consults [`HopLedger::on_delivered`] so exactly
/// one copy per crossing enters the destination mesh.
#[derive(Debug)]
pub struct HopLedger {
    timeout: Cycles,
    max_retries: u32,
    entries: HashMap<MessageId, HopEntry>,
    /// Deadline wheel with lazy invalidation, exactly like the
    /// watchdog's: completions leave stale slots that are skipped when
    /// their cycle comes up.
    wheel: BTreeMap<Cycle, Vec<MessageId>>,
    /// Entries with a live deadline (Pending + armed).
    armed: usize,
    retries_issued: u64,
    duplicates: u64,
}

impl HopLedger {
    /// A ledger with this timeout and retry budget.
    #[must_use]
    pub fn new(timeout: Cycles, max_retries: u32) -> HopLedger {
        HopLedger {
            timeout,
            max_retries,
            entries: HashMap::new(),
            wheel: BTreeMap::new(),
            armed: 0,
            retries_issued: 0,
            duplicates: 0,
        }
    }

    /// Starts (or re-arms, for a later crossing of the same message)
    /// deadline tracking for `msg`, serialized at `now`. Returns the
    /// crossing generation the wire copy must carry.
    pub fn track(&mut self, msg: &Message, now: Cycle) -> u32 {
        let deadline = Cycle(now.0 + self.timeout.0);
        let entry = self
            .entries
            .entry(msg.id)
            .and_modify(|e| {
                debug_assert_eq!(
                    e.state,
                    HopState::Done,
                    "re-tracking a crossing still in flight"
                );
                e.generation += 1;
                e.state = HopState::Pending;
                e.retries = 0;
                e.deadline = deadline;
                e.armed = true;
                e.tracked_at = now;
                e.redirected = false;
                e.template = Some(Box::new(msg.clone()));
            })
            .or_insert_with(|| HopEntry {
                generation: 0,
                state: HopState::Pending,
                retries: 0,
                deadline,
                armed: true,
                tracked_at: now,
                redirected: false,
                template: Some(Box::new(msg.clone())),
            });
        let generation = entry.generation;
        self.armed += 1;
        self.wheel.entry(deadline).or_default().push(msg.id);
        generation
    }

    /// Collects retransmissions due at or before `now`. Crossings past
    /// their budget are disarmed but stay eligible for late delivery.
    pub fn expired(&mut self, now: Cycle) -> Vec<HopRetry> {
        let mut due = Vec::new();
        let still_due = self.wheel.split_off(&Cycle(now.0 + 1));
        let expired_slots = std::mem::replace(&mut self.wheel, still_due);
        for (cycle, ids) in expired_slots {
            for id in ids {
                let Some(entry) = self.entries.get_mut(&id) else {
                    continue;
                };
                // Lazy invalidation: completed, re-armed at a later
                // deadline, or already disarmed — skip.
                if entry.state != HopState::Pending || !entry.armed || entry.deadline != cycle {
                    continue;
                }
                self.armed -= 1;
                if entry.retries < self.max_retries {
                    entry.retries += 1;
                    let rearm = Cycle(now.0 + hop_deadline_after(self.timeout, entry.retries).0);
                    entry.deadline = rearm;
                    entry.armed = true;
                    self.armed += 1;
                    self.wheel.entry(rearm).or_default().push(id);
                    self.retries_issued += 1;
                    due.push(HopRetry {
                        msg: (**entry
                            .template
                            .as_ref()
                            .expect("pending entry keeps template"))
                        .clone(),
                        generation: entry.generation,
                        attempt: entry.retries,
                    });
                } else {
                    entry.armed = false;
                }
            }
        }
        due
    }

    /// Reports a copy of `id` (crossing `generation`) arriving at its
    /// destination at `now`. First delivery wins; everything else is a
    /// duplicate to suppress.
    pub fn on_delivered(&mut self, id: MessageId, generation: u32, now: Cycle) -> HopOutcome {
        let Some(entry) = self.entries.get_mut(&id) else {
            return HopOutcome::Untracked;
        };
        if entry.state == HopState::Done || generation != entry.generation {
            self.duplicates += 1;
            return HopOutcome::Duplicate;
        }
        entry.state = HopState::Done;
        entry.template = None;
        if entry.armed {
            entry.armed = false;
            self.armed -= 1;
        }
        HopOutcome::First {
            waited: Cycles(now.0 - entry.tracked_at.0),
            retried: entry.retries > 0,
            redirected: entry.redirected,
        }
    }

    /// Marks `id` terminally handled outside the fabric (host-fallback
    /// redirect): retries stop, late copies are duplicates.
    pub fn complete_terminal(&mut self, id: MessageId) {
        if let Some(entry) = self.entries.get_mut(&id) {
            entry.state = HopState::Done;
            entry.template = None;
            if entry.armed {
                entry.armed = false;
                self.armed -= 1;
            }
        }
    }

    /// Notes that the ToR redirected `id`'s chain to a replica (for
    /// the time-to-reroute sample on delivery).
    pub fn note_redirected(&mut self, id: MessageId) {
        if let Some(entry) = self.entries.get_mut(&id) {
            entry.redirected = true;
        }
    }

    /// Entries with a live deadline — crossings the fabric is still
    /// waiting on. Zero is a quiescence requirement.
    #[must_use]
    pub fn armed(&self) -> usize {
        self.armed
    }

    /// The next cycle a deadline fires, if any entry is armed.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Cycle> {
        if self.armed == 0 {
            return None;
        }
        self.wheel.iter().find_map(|(cycle, ids)| {
            ids.iter()
                .any(|id| {
                    self.entries.get(id).is_some_and(|e| {
                        e.state == HopState::Pending && e.armed && e.deadline == *cycle
                    })
                })
                .then_some(*cycle)
        })
    }

    /// Retransmissions issued.
    #[must_use]
    pub fn retries_issued(&self) -> u64 {
        self.retries_issued
    }

    /// Duplicate copies suppressed.
    #[must_use]
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}
