//! Action primitives.
//!
//! RMT stages run short, bounded action programs — "relatively simple
//! atoms to guarantee that the entire pipeline can process packets at
//! line-rate" (§2.3.3, citing Packet Transactions \[34\]). Our primitive
//! set is deliberately small and single-cycle-plausible; anything that
//! needs iteration, large state, or waiting (encryption, compression,
//! DMA) is *exactly what the primitives cannot express*, which is the
//! paper's argument for offload engines.
//!
//! Two primitives are PANIC-specific:
//!
//! * [`Primitive::PushHop`] builds the lightweight chain header
//!   (§3.1.2) — the list of engines the message will visit;
//! * [`SlackExpr`] computes the per-hop slack budget the logical
//!   scheduler orders by (§3.1.3).

use packet::chain::{EngineId, Hop, Slack};
use packet::message::Priority;
use packet::phv::{Field, Phv};

/// How a hop's slack budget is computed (§3.1.3: "we are looking into
/// how slack values should be computed so as to best enforce a
/// high-level network policy" — this is the policy hook).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlackExpr {
    /// A fixed budget in cycles.
    Const(u32),
    /// Bulk: never preempts anything.
    Bulk,
    /// Budget chosen by the message's priority class (read from
    /// [`Field::MetaPriority`]: 0 = latency, 1 = normal, ≥2 = bulk).
    ByPriority {
        /// Budget for the latency class.
        latency: u32,
        /// Budget for the normal class.
        normal: u32,
    },
}

impl SlackExpr {
    /// Evaluates against a PHV.
    #[must_use]
    pub fn eval(self, phv: &Phv) -> Slack {
        match self {
            SlackExpr::Const(c) => Slack(c),
            SlackExpr::Bulk => Slack::BULK,
            SlackExpr::ByPriority { latency, normal } => {
                match phv.get_or_zero(Field::MetaPriority) {
                    0 => Slack(latency),
                    1 => Slack(normal),
                    _ => Slack::BULK,
                }
            }
        }
    }
}

/// Encodes a [`Priority`] into the [`Field::MetaPriority`] PHV value.
#[must_use]
pub fn priority_code(p: Priority) -> u64 {
    match p {
        Priority::Latency => 0,
        Priority::Normal => 1,
        Priority::Bulk => 2,
    }
}

/// Decodes [`Field::MetaPriority`] back to a [`Priority`].
#[must_use]
pub fn priority_from_code(v: u64) -> Priority {
    match v {
        0 => Priority::Latency,
        1 => Priority::Normal,
        _ => Priority::Bulk,
    }
}

/// One action primitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Primitive {
    /// Does nothing (the default action of permissive tables).
    NoOp,
    /// Writes a constant into a PHV field.
    SetField(Field, u64),
    /// Adds a constant to a PHV field (wrapping; absent reads as 0).
    AddField(Field, u64),
    /// Copies one PHV field to another (absent source clears dest).
    CopyField {
        /// Source field.
        from: Field,
        /// Destination field.
        to: Field,
    },
    /// Appends a hop to the chain being built.
    PushHop {
        /// Engine to visit.
        engine: EngineId,
        /// Slack budget at that engine.
        slack: SlackExpr,
    },
    /// Clears the chain built so far (e.g. a higher-priority ACL entry
    /// overriding an earlier routing decision).
    ClearChain,
    /// Sets the priority class metadata.
    SetPriority(Priority),
    /// Drops the message.
    Drop,
    /// Requests another pass through the heavyweight pipeline after the
    /// chain completes (the §3.1.2 encrypted-message pattern).
    Recirculate,
}

/// What the pipeline should do with the message after all stages ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Verdict {
    /// Forward along the built chain.
    #[default]
    Forward,
    /// Drop (counted by the pipeline; the message vanishes).
    Drop,
    /// Forward along the chain, then return for another pipeline pass.
    Recirculate,
}

/// A named list of primitives, run in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Action {
    name: String,
    primitives: Vec<Primitive>,
}

impl Action {
    /// Builds a named action.
    #[must_use]
    pub fn named(name: impl Into<String>, primitives: Vec<Primitive>) -> Action {
        Action {
            name: name.into(),
            primitives,
        }
    }

    /// A no-op action.
    #[must_use]
    pub fn noop() -> Action {
        Action::named("noop", vec![Primitive::NoOp])
    }

    /// A drop action.
    #[must_use]
    pub fn drop_msg() -> Action {
        Action::named("drop", vec![Primitive::Drop])
    }

    /// The action's name (diagnostics and tests).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The primitive list.
    #[must_use]
    pub fn primitives(&self) -> &[Primitive] {
        &self.primitives
    }

    /// Runs the action over `phv` and the chain under construction.
    /// Returns the verdict contribution of this action: `Drop` and
    /// `Recirculate` stick; `Forward` is the neutral element.
    pub fn apply(&self, phv: &mut Phv, chain: &mut Vec<Hop>) -> Verdict {
        let mut verdict = Verdict::Forward;
        for p in &self.primitives {
            match p {
                Primitive::NoOp => {}
                Primitive::SetField(f, v) => phv.set(*f, *v),
                Primitive::AddField(f, v) => {
                    let cur = phv.get_or_zero(*f);
                    phv.set(*f, cur.wrapping_add(*v));
                }
                Primitive::CopyField { from, to } => match phv.get(*from) {
                    Some(v) => phv.set(*to, v),
                    None => phv.clear(*to),
                },
                Primitive::PushHop { engine, slack } => {
                    chain.push(Hop {
                        engine: *engine,
                        slack: slack.eval(phv),
                    });
                }
                Primitive::ClearChain => chain.clear(),
                Primitive::SetPriority(pr) => {
                    phv.set(Field::MetaPriority, priority_code(*pr));
                }
                Primitive::Drop => verdict = Verdict::Drop,
                Primitive::Recirculate => {
                    if verdict == Verdict::Forward {
                        verdict = Verdict::Recirculate;
                    }
                }
            }
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_add_copy_fields() {
        let mut phv = Phv::new();
        let mut chain = Vec::new();
        let a = Action::named(
            "arith",
            vec![
                Primitive::SetField(Field::IpTtl, 64),
                Primitive::AddField(Field::IpTtl, u64::MAX), // -1 wrapping
                Primitive::CopyField {
                    from: Field::IpTtl,
                    to: Field::MetaRxQueue,
                },
            ],
        );
        assert_eq!(a.apply(&mut phv, &mut chain), Verdict::Forward);
        assert_eq!(phv.get(Field::IpTtl), Some(63));
        assert_eq!(phv.get(Field::MetaRxQueue), Some(63));
    }

    #[test]
    fn add_on_absent_field_starts_from_zero() {
        let mut phv = Phv::new();
        let mut chain = Vec::new();
        Action::named("a", vec![Primitive::AddField(Field::MetaPasses, 1)])
            .apply(&mut phv, &mut chain);
        assert_eq!(phv.get(Field::MetaPasses), Some(1));
    }

    #[test]
    fn copy_absent_clears_destination() {
        let mut phv = Phv::new();
        phv.set(Field::MetaRxQueue, 9);
        let mut chain = Vec::new();
        Action::named(
            "c",
            vec![Primitive::CopyField {
                from: Field::EspSpi,
                to: Field::MetaRxQueue,
            }],
        )
        .apply(&mut phv, &mut chain);
        assert!(!phv.has(Field::MetaRxQueue));
    }

    #[test]
    fn chain_building_and_clear() {
        let mut phv = Phv::new();
        let mut chain = Vec::new();
        let a = Action::named(
            "chain",
            vec![
                Primitive::PushHop {
                    engine: EngineId(4),
                    slack: SlackExpr::Const(100),
                },
                Primitive::PushHop {
                    engine: EngineId(9),
                    slack: SlackExpr::Bulk,
                },
            ],
        );
        a.apply(&mut phv, &mut chain);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].engine, EngineId(4));
        assert_eq!({ chain[0].slack }, Slack(100));
        assert_eq!({ chain[1].slack }, Slack::BULK);

        Action::named("clr", vec![Primitive::ClearChain]).apply(&mut phv, &mut chain);
        assert!(chain.is_empty());
    }

    #[test]
    fn slack_by_priority_ladder() {
        let mut phv = Phv::new();
        let expr = SlackExpr::ByPriority {
            latency: 50,
            normal: 500,
        };
        phv.set(Field::MetaPriority, priority_code(Priority::Latency));
        assert_eq!(expr.eval(&phv), Slack(50));
        phv.set(Field::MetaPriority, priority_code(Priority::Normal));
        assert_eq!(expr.eval(&phv), Slack(500));
        phv.set(Field::MetaPriority, priority_code(Priority::Bulk));
        assert_eq!(expr.eval(&phv), Slack::BULK);
        // Absent priority defaults to latency (code 0): fail-fast
        // toward urgency rather than starving an unclassified message.
        let empty = Phv::new();
        assert_eq!(expr.eval(&empty), Slack(50));
    }

    #[test]
    fn set_priority_feeds_slack_in_same_action() {
        let mut phv = Phv::new();
        let mut chain = Vec::new();
        Action::named(
            "classify-then-chain",
            vec![
                Primitive::SetPriority(Priority::Normal),
                Primitive::PushHop {
                    engine: EngineId(1),
                    slack: SlackExpr::ByPriority {
                        latency: 10,
                        normal: 200,
                    },
                },
            ],
        )
        .apply(&mut phv, &mut chain);
        assert_eq!({ chain[0].slack }, Slack(200));
    }

    #[test]
    fn drop_wins_over_recirculate() {
        let mut phv = Phv::new();
        let mut chain = Vec::new();
        let v = Action::named("x", vec![Primitive::Recirculate, Primitive::Drop])
            .apply(&mut phv, &mut chain);
        assert_eq!(v, Verdict::Drop);
        let v = Action::named("y", vec![Primitive::Drop, Primitive::Recirculate])
            .apply(&mut phv, &mut chain);
        assert_eq!(v, Verdict::Drop);
    }

    #[test]
    fn priority_codes_roundtrip() {
        for p in [Priority::Latency, Priority::Normal, Priority::Bulk] {
            assert_eq!(priority_from_code(priority_code(p)), p);
        }
    }

    #[test]
    fn canned_actions() {
        assert_eq!(Action::noop().name(), "noop");
        assert_eq!(Action::drop_msg().name(), "drop");
        let mut phv = Phv::new();
        let mut chain = Vec::new();
        assert_eq!(Action::noop().apply(&mut phv, &mut chain), Verdict::Forward);
        assert_eq!(
            Action::drop_msg().apply(&mut phv, &mut chain),
            Verdict::Drop
        );
        assert_eq!(Action::noop().primitives(), &[Primitive::NoOp]);
    }
}
