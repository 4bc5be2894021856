//! The watchdog ledger: per-descriptor deadlines, bounded
//! exponential-backoff re-issue, and duplicate suppression.
//!
//! Every frame the NIC accepts is [`Watchdog::track`]ed with a deadline.
//! If the frame has not completed (egressed, been delivered to the
//! host, or been consumed with an explicit completion) by its deadline,
//! the watchdog hands back an [`Expiry`]:
//!
//! * while retries remain, an [`ExpiryAction::Reissue`] carrying a
//!   clone of the original message (same [`MessageId`], same
//!   `injected_at`, pristine chain) to re-inject from its original
//!   source port, with the *next* deadline pushed out by the backoff
//!   multiplier (2: retry `n` waits `deadline × 2^n`);
//! * once the retry budget is exhausted, an [`ExpiryAction::Fail`] —
//!   the descriptor is charged to the `failed` bucket of the
//!   conservation identity and never retried again.
//!
//! Because a retry re-enters the datapath while the original copy may
//! still be limping along, *two* copies of one descriptor can reach
//! egress. The ledger arbitrates: the first completion wins
//! ([`CompleteOutcome::First`], carrying the recovery time if the
//! descriptor had ever timed out), every later copy is a
//! [`CompleteOutcome::Duplicate`] the caller must suppress and count.
//! A completion after [`ExpiryAction::Fail`] is likewise a duplicate:
//! terminal states are sticky. The ledger keeps no totals of its own;
//! `panic-core` counts re-issues and failures into `NicStats` from the
//! actions it applies.
//!
//! The ledger is pure bookkeeping — it never touches the datapath
//! itself. `panic-core` owns re-injection, tracing, and the decision
//! of *where* a reissued message goes (possibly a failover replica).
//!
//! The deadline wheel, the backoff and first-terminal-wins are the
//! shared `ledger` core; the watchdog's policy on top of it:
//! a descriptor is tracked once (twice is a model bug), and running
//! out of budget *fails* it on the spot — exhaustion is sticky.

use packet::{EngineId, Message, MessageId};
use sim_core::time::{Cycle, Cycles};

use crate::ledger::{Ledger, Terminal};

/// Watchdog policy knobs.
///
/// Consumed by the core's fault runtime and audited by the PV4xx lints
/// in `panic-verify` (e.g. PV403: `deadline` must exceed the slowest
/// engine's worst-case service time, or every slow-but-healthy packet
/// would be spuriously retried).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Base completion deadline per descriptor: a frame must complete
    /// within this many cycles of injection (or of its latest retry,
    /// doubled per retry).
    pub deadline: Cycles,
    /// Retry budget per descriptor. After this many re-issues the
    /// descriptor is failed. `0` disables re-issue entirely (every
    /// timeout is an immediate failure), so re-issued traffic never
    /// reaches a failover replica — what lint PV402 catches.
    pub max_retries: u32,
    /// An engine that has work queued (or in service) but makes no
    /// progress for this long is *wedged* — one strike.
    pub engine_timeout: Cycles,
    /// Consecutive wedged observations before an engine is marked DOWN
    /// and its queue flushed.
    pub down_after: u32,
    /// How often (in cycles) engine health is sampled. Sampling is
    /// cheap but not free; 64 is a good default.
    pub check_interval: Cycles,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            deadline: Cycles(4096),
            max_retries: 3,
            engine_timeout: Cycles(512),
            down_after: 3,
            check_interval: Cycles(64),
        }
    }
}

/// Why a tracked descriptor's deadline fired.
#[derive(Debug, Clone)]
pub struct Expiry {
    /// The descriptor whose deadline fired.
    pub id: MessageId,
    /// What the datapath must do about it.
    pub action: ExpiryAction,
}

/// The watchdog's verdict on an expired descriptor.
#[derive(Debug, Clone)]
pub enum ExpiryAction {
    /// Re-inject this copy of the message from `source`. `attempt` is
    /// 1 for the first retry.
    Reissue {
        /// Pristine clone of the original message (same id, same
        /// `injected_at`, chain reset to the original).
        msg: Box<Message>,
        /// The ingress port the original arrived on.
        source: EngineId,
        /// Retry ordinal, starting at 1.
        attempt: u32,
    },
    /// Retry budget exhausted: charge the descriptor to `failed`.
    Fail,
}

/// Outcome of reporting a completion to the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompleteOutcome {
    /// First completion for this descriptor — the real one. `recovery`
    /// is the time from the descriptor's *first* timeout to now, if it
    /// ever timed out (i.e. how long the watchdog took to get the work
    /// back); `None` for descriptors that completed cleanly.
    First {
        /// First-timeout-to-completion time, when a retry was involved.
        recovery: Option<Cycles>,
    },
    /// A later copy of an already-terminal descriptor (completed or
    /// failed) — suppress and count as a duplicate.
    Duplicate,
    /// Never tracked (e.g. internally injected traffic the watchdog
    /// does not cover).
    Untracked,
}

/// What the watchdog keeps per descriptor beside the shared entry.
#[derive(Debug)]
struct Descriptor {
    /// Ingress port to re-inject from.
    source: EngineId,
    /// Cycle of the first timeout, for recovery-time measurement.
    first_timeout: Option<Cycle>,
}

/// The per-descriptor in-flight ledger. See the module docs for the
/// protocol; [`Watchdog::track`] / [`Watchdog::expired`] /
/// [`Watchdog::on_complete`] are the whole API.
#[derive(Debug)]
pub struct Watchdog {
    config: WatchdogConfig,
    ledger: Ledger<Descriptor>,
}

impl Watchdog {
    /// An empty ledger with the given policy.
    #[must_use]
    pub fn new(config: WatchdogConfig) -> Watchdog {
        Watchdog {
            config,
            ledger: Ledger::new(config.deadline, config.max_retries, true),
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
        let descriptor = Descriptor {
            source,
            first_timeout: None,
        };
        let generation = self.ledger.track(msg, now, descriptor);
        debug_assert_eq!(generation, 0, "descriptor {:?} tracked twice", msg.id);
    }

    /// Collects every descriptor whose deadline has passed as of `now`
    /// and advances its state: re-issue while the budget lasts, fail
    /// after. Call once per watchdog check; the returned actions must
    /// be applied (re-injected / charged) by the caller.
    pub fn expired(&mut self, now: Cycle) -> Vec<Expiry> {
        let mut out = Vec::new();
        self.ledger.expire(now, |id, entry, attempt| {
            entry.extra.first_timeout.get_or_insert(now);
            let action = match attempt {
                Some(attempt) => ExpiryAction::Reissue {
                    msg: Box::new(entry.template().clone()),
                    source: entry.extra.source,
                    attempt,
                },
                None => ExpiryAction::Fail,
            };
            out.push(Expiry { id, action });
        });
        out
    }

    /// Reports that a copy of descriptor `id` reached a completion
    /// point. The first report wins; see [`CompleteOutcome`].
    pub fn on_complete(&mut self, id: MessageId, now: Cycle) -> CompleteOutcome {
        match self.ledger.terminate(id, None) {
            Terminal::Unknown => CompleteOutcome::Untracked,
            Terminal::Late => CompleteOutcome::Duplicate,
            Terminal::First(entry) => CompleteOutcome::First {
                recovery: entry.extra.first_timeout.map(|t| now.saturating_since(t)),
            },
        }
    }

    /// Descriptors still pending (tracked, not yet terminal).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.ledger.live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::reference;
    use bytes::Bytes;
    use packet::MessageKind;
    use proptest::prelude::*;

    fn msg(id: u64) -> Message {
        Message::builder(MessageId(id), MessageKind::EthernetFrame)
            .payload(Bytes::from_static(b"abc"))
            .injected_at(Cycle(5))
            .build()
    }

    fn small_config() -> WatchdogConfig {
        WatchdogConfig {
            deadline: Cycles(10),
            max_retries: 2,
            ..WatchdogConfig::default()
        }
    }

    #[test]
    fn clean_completion_never_expires() {
        let mut wd = Watchdog::new(small_config());
        wd.track(&msg(1), EngineId(0), Cycle(0));
        assert_eq!(wd.pending(), 1);
        assert_eq!(
            wd.on_complete(MessageId(1), Cycle(4)),
            CompleteOutcome::First { recovery: None }
        );
        assert!(wd.expired(Cycle(100)).is_empty(), "completed never expires");
        assert_eq!(wd.pending(), 0);
        assert_eq!(
            wd.on_complete(MessageId(1), Cycle(5)),
            CompleteOutcome::Duplicate
        );
    }

    #[test]
    fn expiry_reissues_with_backoff_then_fails() {
        let mut wd = Watchdog::new(small_config());
        wd.track(&msg(7), EngineId(3), Cycle(0));
        // Not due yet.
        assert!(wd.expired(Cycle(9)).is_empty());
        // First deadline at 10: retry 1, next deadline 10 + 10*2 = 30.
        let e = wd.expired(Cycle(10));
        assert_eq!(e.len(), 1);
        match &e[0].action {
            ExpiryAction::Reissue {
                msg,
                source,
                attempt,
            } => {
                assert_eq!(msg.id, MessageId(7));
                assert_eq!(msg.injected_at, Cycle(5), "template keeps injected_at");
                assert_eq!(*source, EngineId(3));
                assert_eq!(*attempt, 1);
            }
            other => panic!("expected reissue, got {other:?}"),
        }
        assert!(wd.expired(Cycle(29)).is_empty(), "backoff pushed deadline");
        // Retry 2 at 30, next deadline 30 + 10*4 = 70.
        let e = wd.expired(Cycle(30));
        assert!(matches!(
            e[0].action,
            ExpiryAction::Reissue { attempt: 2, .. }
        ));
        // Budget (2) exhausted: fail at 70.
        let e = wd.expired(Cycle(70));
        assert_eq!(e.len(), 1);
        assert!(matches!(e[0].action, ExpiryAction::Fail));
        assert_eq!(wd.pending(), 0);
        // Terminal is sticky: late arrival of a retried copy is a dup.
        assert_eq!(
            wd.on_complete(MessageId(7), Cycle(80)),
            CompleteOutcome::Duplicate
        );
        assert!(wd.expired(Cycle(1_000)).is_empty(), "failed stays failed");
    }

    #[test]
    fn first_completion_wins_and_measures_recovery() {
        let mut wd = Watchdog::new(small_config());
        wd.track(&msg(2), EngineId(1), Cycle(0));
        let e = wd.expired(Cycle(10));
        assert_eq!(e.len(), 1, "first timeout fires");
        // The reissued copy lands at 22: recovery = 22 - 10 = 12.
        assert_eq!(
            wd.on_complete(MessageId(2), Cycle(22)),
            CompleteOutcome::First {
                recovery: Some(Cycles(12))
            }
        );
        // The slow original limps in later: duplicate.
        assert_eq!(
            wd.on_complete(MessageId(2), Cycle(40)),
            CompleteOutcome::Duplicate
        );
        // Its stale wheel slot must not fire either.
        assert!(wd.expired(Cycle(100)).is_empty());
        assert_eq!(wd.pending(), 0);
    }

    #[test]
    fn untracked_ids_are_reported_as_such() {
        let mut wd = Watchdog::new(WatchdogConfig::default());
        assert_eq!(
            wd.on_complete(MessageId(99), Cycle(1)),
            CompleteOutcome::Untracked
        );
    }

    #[test]
    fn zero_retry_budget_fails_immediately() {
        let mut wd = Watchdog::new(WatchdogConfig {
            deadline: Cycles(10),
            max_retries: 0,
            ..WatchdogConfig::default()
        });
        wd.track(&msg(1), EngineId(0), Cycle(0));
        let e = wd.expired(Cycle(10));
        assert_eq!(e.len(), 1);
        assert!(matches!(e[0].action, ExpiryAction::Fail));
        assert_eq!(wd.pending(), 0);
    }

    #[test]
    fn deadline_after_saturates() {
        let mut wd = Watchdog::new(WatchdogConfig {
            deadline: Cycles(u64::MAX / 2),
            ..WatchdogConfig::default()
        });
        wd.track(&msg(1), EngineId(0), Cycle(0));
        let e = wd.expired(Cycle(u64::MAX / 2));
        assert!(matches!(
            e[..],
            [Expiry {
                action: ExpiryAction::Reissue { attempt: 1, .. },
                ..
            }]
        ));
        // The re-armed deadline saturates at the end of the clock, where
        // it never fires.
        assert!(wd.expired(Cycle(u64::MAX)).is_empty());
        assert_eq!(wd.pending(), 1);
    }

    #[test]
    fn completed_descriptors_keep_their_id_but_not_their_template() {
        let mut wd = Watchdog::new(small_config());
        for id in 0..1000 {
            wd.track(&msg(id), EngineId(0), Cycle(id));
            assert_eq!(wd.ledger.templates(), 1, "only the pending descriptor");
            assert_eq!(
                wd.on_complete(MessageId(id), Cycle(id + 3)),
                CompleteOutcome::First { recovery: None }
            );
        }
        // One that fails instead of completing drops its template too.
        wd.track(&msg(1000), EngineId(0), Cycle(2000));
        assert_eq!(wd.pending(), 1);
        for now in [2010, 2030] {
            let e = wd.expired(Cycle(now));
            assert!(matches!(
                e[..],
                [Expiry {
                    action: ExpiryAction::Reissue { .. },
                    ..
                }]
            ));
        }
        let e = wd.expired(Cycle(2070));
        assert!(matches!(
            e[..],
            [Expiry {
                action: ExpiryAction::Fail,
                ..
            }]
        ));
        assert_eq!(wd.pending(), 0);
        assert_eq!(wd.ledger.templates(), 0, "memory follows what is pending");
        assert_eq!(wd.ledger.next_deadline(), None);
        // The ids stay: that is the duplicate filter.
        for id in [0, 999, 1000] {
            assert_eq!(
                wd.on_complete(MessageId(id), Cycle(5000)),
                CompleteOutcome::Duplicate
            );
        }
    }

    /// What a batch of expiries says, in comparable form: per
    /// descriptor its id, where to re-inject and which attempt (0 =
    /// failed).
    fn digest(batch: &[Expiry]) -> Vec<(u64, u16, u32)> {
        batch
            .iter()
            .map(|e| match &e.action {
                ExpiryAction::Reissue {
                    msg,
                    source,
                    attempt,
                } => {
                    assert_eq!((msg.id, msg.injected_at), (e.id, Cycle(5)));
                    (e.id.0, source.0, *attempt)
                }
                ExpiryAction::Fail => (e.id.0, 0, 0),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random scripts against the watchdog as it stood before it
        /// shared the ledger core: the same answer to every call, in
        /// the same order, and the same pending count and next deadline
        /// after every step.
        #[test]
        fn matches_the_parent_watchdog_step_for_step(
            deadline in 0u64..6,
            max_retries in 0u32..4,
            script in proptest::collection::vec((0u8..6, 0u64..64, 0u64..5), 0..96),
        ) {
            let config = WatchdogConfig {
                deadline: Cycles(deadline),
                max_retries,
                ..WatchdogConfig::default()
            };
            let mut new = Watchdog::new(config);
            let mut old = reference::Watchdog::new(config);
            let mut now = Cycle(0);
            let mut tracked = 0u64;
            for (op, pick, dt) in script {
                now += Cycles(dt); // 0 repeats the previous `now`
                match op {
                    // Fresh ids only: tracking one twice is a model bug.
                    0 | 1 => {
                        let source = EngineId(pick as u16);
                        new.track(&msg(tracked), source, now);
                        old.track(&msg(tracked), source, now);
                        tracked += 1;
                    }
                    2 | 3 => prop_assert_eq!(digest(&new.expired(now)), digest(&old.expired(now))),
                    // Pending, completed, failed and never-tracked ids.
                    _ => {
                        let id = MessageId(pick % (tracked + 2));
                        prop_assert_eq!(new.on_complete(id, now), old.on_complete(id, now));
                    }
                }
                prop_assert_eq!(new.pending(), old.pending());
                prop_assert_eq!(new.ledger.next_deadline(), old.next_deadline());
            }
        }
    }
}
