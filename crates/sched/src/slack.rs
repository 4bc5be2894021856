//! Least-Slack-Time-First ranking.
//!
//! §3.1.3: slack — "how long this message can afford to wait" — is
//! computed by the RMT pipeline and carried per hop in the chain
//! header. The engine's queue must serve the message whose *remaining*
//! slack is least. Remaining slack at time `now` for a message that
//! arrived at `t` with budget `s` is `s − (now − t)`; ordering by that
//! is identical for all queued messages to ordering by the constant
//! `t + s` — a local deadline. So LSTF reduces to a PIFO with
//! `rank = deadline`, computed once on enqueue. This is the standard
//! realization of Universal Packet Scheduling's LSTF (Mittal et al.
//! \[25\]) on PIFO hardware.

use packet::chain::Slack;
use sim_core::time::Cycle;

/// Rank for LSTF: the message's local deadline `arrival + slack`.
///
/// [`Slack::BULK`] maps to `u64::MAX` — bulk never beats any finite
/// deadline and never overflows the addition.
#[must_use]
pub fn deadline_rank(arrival: Cycle, slack: Slack) -> u64 {
    if slack == Slack::BULK {
        u64::MAX
    } else {
        arrival.0.saturating_add(u64::from(slack.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_is_arrival_plus_slack() {
        assert_eq!(deadline_rank(Cycle(100), Slack(50)), 150);
        assert_eq!(deadline_rank(Cycle(0), Slack(0)), 0);
    }

    #[test]
    fn bulk_is_always_last() {
        assert_eq!(deadline_rank(Cycle(0), Slack::BULK), u64::MAX);
        // Even a very late arrival with finite slack beats bulk.
        assert!(deadline_rank(Cycle(u64::MAX - 10), Slack(5)) < u64::MAX);
    }

    #[test]
    fn lstf_ordering_equivalence() {
        // Message A: arrives t=0 with slack 100 (deadline 100).
        // Message B: arrives t=80 with slack 10 (deadline 90).
        // At any observation time both are queued, B has less remaining
        // slack (at t=85: 15 against 5), and indeed B's deadline rank is
        // smaller.
        let a = deadline_rank(Cycle(0), Slack(100));
        let b = deadline_rank(Cycle(80), Slack(10));
        assert!(b < a);
    }
}
