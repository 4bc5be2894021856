//! An RMT *program*: parser + one match+action table per stage.
//!
//! This is the "P4-lite" layer (§4.1: "The heavyweight RMT pipeline and
//! lightweight lookup tables are programmed similarly to how current
//! RMT switches are programmed (e.g., using P4)"). A program is pure
//! configuration — the same [`RmtPipeline`](crate::pipeline::RmtPipeline)
//! timing model runs any program.

use bytes::{Bytes, BytesMut};
use packet::chain::{ChainHeader, Hop};
use packet::message::Message;
use packet::phv::{Field, Phv};

use crate::action::{priority_code, priority_from_code, Action, Verdict};
use crate::deparse::deparse_into;
use crate::parse::{ParseGraph, ParseOutcome};
use crate::table::Table;

/// Reusable per-pipeline scratch for [`RmtProgram::process_scratch`]:
/// the parse outcome — whose PHV the stages rewrite **in place** and the
/// deparser then reads — the hop accumulator, and the deparse buffer all
/// keep their capacity across messages, so a warm pipeline processes a
/// message without touching the heap (see `docs/PERF.md`).
///
/// The PHV never leaves this scratch: a pass writes a *descriptor*
/// onto the message (chain, priority, receive queue, payload, pass
/// count) and the next pass's parse resets the vector.
#[derive(Debug, Default)]
pub struct ProgramScratch {
    outcome: ParseOutcome,
    hops: Vec<Hop>,
    deparse_buf: BytesMut,
}

impl ProgramScratch {
    /// The header vector as the last pass left it: parsed fields,
    /// standard metadata and every stage rewrite (up to and including
    /// the stage that dropped, on a `Drop` verdict). This is what the
    /// compiled-vs-interpreted differential compares — whole PHVs, not
    /// just the descriptor that reaches the message.
    #[must_use]
    pub fn phv(&self) -> &Phv {
        &self.outcome.phv
    }

    /// The parse target of the next pass (reset by the parser).
    pub(crate) fn outcome_mut(&mut self) -> &mut ParseOutcome {
        &mut self.outcome
    }

    /// One pass over a message already parsed into this scratch — the
    /// part of `process_scratch` the interpreter ([`Table`] stages) and
    /// the compiled dispatch ([`crate::compile`]'s lowered stages)
    /// share: stamp the standard metadata, run the stages over the PHV
    /// in place, count the pass and, unless a stage dropped, write the
    /// descriptor onto `msg` — deparsed payload (kept refcounted when
    /// the bytes did not change), chain, priority and receive queue.
    #[inline]
    pub(crate) fn run<S: Stage>(
        &mut self,
        msg: &mut Message,
        stages: &[S],
        observer: &mut dyn FnMut(usize, &str, bool),
    ) -> Verdict {
        let phv = &mut self.outcome.phv;
        phv.set(Field::MetaIngress, u64::from(msg.source.0));
        phv.set(Field::MetaPasses, u64::from(msg.pipeline_passes));
        phv.set(Field::MetaPriority, priority_code(msg.priority));

        self.hops.clear();
        let mut verdict = Verdict::Forward;
        for (index, stage) in stages.iter().enumerate() {
            let (action, hit) = stage.lookup(phv);
            observer(index, stage.name(), hit);
            match action.apply(phv, &mut self.hops) {
                Verdict::Forward => {}
                Verdict::Drop => {
                    verdict = Verdict::Drop;
                    break;
                }
                Verdict::Recirculate => verdict = Verdict::Recirculate,
            }
        }

        msg.pipeline_passes += 1;
        if verdict == Verdict::Drop {
            return verdict;
        }

        let phv = &self.outcome.phv;
        deparse_into(&msg.payload, &self.outcome, phv, &mut self.deparse_buf);
        if self.deparse_buf.as_ref() != &msg.payload[..] {
            msg.payload = Bytes::copy_from_slice(&self.deparse_buf);
        }
        msg.chain = ChainHeader::from_slice(&self.hops)
            .expect("programs cannot build chains beyond MAX_HOPS");
        msg.priority = priority_from_code(phv.get_or_zero(Field::MetaPriority));
        msg.rx_queue = phv.get_or_zero(Field::MetaRxQueue) as u32;
        verdict
    }
}

/// One match+action stage as [`ProgramScratch::run`] sees it: a name
/// for the observer and a lookup yielding the action to apply.
pub(crate) trait Stage {
    fn name(&self) -> &str;
    fn lookup(&self, phv: &Phv) -> (&Action, bool);
}

impl Stage for Table {
    fn name(&self) -> &str {
        Table::name(self)
    }

    fn lookup(&self, phv: &Phv) -> (&Action, bool) {
        Table::lookup(self, phv)
    }
}

/// A complete RMT program.
#[derive(Debug, Clone)]
pub struct RmtProgram {
    name: String,
    parser: ParseGraph,
    tables: Vec<Table>,
}

impl RmtProgram {
    /// Program name (diagnostics).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of match+action stages this program occupies.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.tables.len()
    }

    /// The parse graph.
    #[must_use]
    pub fn parser(&self) -> &ParseGraph {
        &self.parser
    }

    /// The match+action tables, one per stage, in pipeline order —
    /// read-only structural access for static analysis.
    #[must_use]
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Runs the program over `msg` *functionally* (no timing):
    /// parse → match+action stages → deparse. On `Forward` /
    /// `Recirculate` the message's payload, chain, priority, receive
    /// queue and pass count are updated in place; on `Drop` the message
    /// is left untouched except for the pass count.
    pub fn process(&self, msg: &mut Message) -> Verdict {
        self.process_observed(msg, &mut |_, _, _| {})
    }

    /// Like [`RmtProgram::process`], but calls
    /// `observer(stage_index, table_name, hit)` after each stage's
    /// table lookup (before the action applies). This is the hook the
    /// traced [`RmtPipeline`](crate::pipeline::RmtPipeline) uses to
    /// count per-stage matches and misses and to emit `rmt.match` /
    /// `rmt.miss` trace events. Stages skipped by an earlier `Drop`
    /// short-circuit are not observed.
    pub fn process_observed(
        &self,
        msg: &mut Message,
        observer: &mut dyn FnMut(usize, &str, bool),
    ) -> Verdict {
        self.process_scratch(msg, &mut ProgramScratch::default(), observer)
    }

    /// Like [`RmtProgram::process_observed`], but works through a
    /// caller-owned reusable [`ProgramScratch`] so a warm pipeline
    /// processes messages without heap allocation. The only remaining
    /// allocation is for payloads the program *actually rewrites*
    /// (fresh `Bytes` for the patched frame): the deparsed bytes are
    /// built in the scratch buffer and, when identical to the incoming
    /// payload — the common forwarding case — the message keeps its
    /// existing refcounted payload.
    pub fn process_scratch(
        &self,
        msg: &mut Message,
        scratch: &mut ProgramScratch,
        observer: &mut dyn FnMut(usize, &str, bool),
    ) -> Verdict {
        self.parser.parse_into(&msg.payload, &mut scratch.outcome);
        scratch.run(msg, &self.tables, observer)
    }
}

/// Builder for [`RmtProgram`].
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    parser: ParseGraph,
    tables: Vec<Table>,
}

impl ProgramBuilder {
    /// Starts a program with the given parser.
    #[must_use]
    pub fn new(name: impl Into<String>, parser: ParseGraph) -> ProgramBuilder {
        ProgramBuilder {
            name: name.into(),
            parser,
            tables: Vec::new(),
        }
    }

    /// Appends a stage (one table).
    #[must_use]
    pub fn stage(mut self, table: Table) -> ProgramBuilder {
        self.tables.push(table);
        self
    }

    /// Finishes the program.
    ///
    /// # Panics
    /// Panics on a program with zero stages — it could never route
    /// anything, which is always a configuration mistake.
    #[must_use]
    pub fn build(self) -> RmtProgram {
        assert!(
            !self.tables.is_empty(),
            "program {} has no stages",
            self.name
        );
        RmtProgram {
            name: self.name,
            parser: self.parser,
            tables: self.tables,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, Primitive, SlackExpr};
    use crate::parse::Layer;
    use crate::table::{MatchKey, MatchKind, TableEntry};
    use bytes::Bytes;
    use packet::chain::{EngineId, Slack};
    use packet::headers::{
        build_udp_frame, ethertype, EthernetHeader, Ipv4Addr, Ipv4Header, MacAddr, UdpHeader,
    };
    use packet::message::{MessageId, MessageKind, Priority};

    const KVS_PORT: u16 = 6379;

    fn udp_frame(dst_port: u16) -> Bytes {
        build_udp_frame(
            EthernetHeader {
                dst: MacAddr::for_port(0),
                src: MacAddr::for_port(1),
                ethertype: ethertype::IPV4,
            },
            Ipv4Header {
                tos: 0,
                total_len: 0,
                ident: 0,
                ttl: 64,
                protocol: 0,
                src: Ipv4Addr::new(10, 0, 0, 1),
                dst: Ipv4Addr::new(10, 0, 0, 2),
            },
            UdpHeader {
                src_port: 1000,
                dst_port,
                len: 0,
                checksum: 0,
            },
            b"payload",
        )
    }

    fn msg_of(frame: Bytes) -> Message {
        Message::builder(MessageId(1), MessageKind::EthernetFrame)
            .payload(frame)
            .source(EngineId(0))
            .build()
    }

    /// A two-stage program: stage 1 classifies priority by UDP port,
    /// stage 2 routes KVS traffic through engines 4 then 9, everything
    /// else straight to engine 9 (the DMA engine, say).
    fn demo_program() -> RmtProgram {
        let mut classify = Table::new(
            "classify",
            MatchKind::Exact(vec![Field::L4DstPort]),
            Action::named("bulk", vec![Primitive::SetPriority(Priority::Bulk)]),
        );
        classify.insert(TableEntry {
            key: MatchKey::Exact(vec![u64::from(KVS_PORT)]),
            priority: 0,
            action: Action::named("lat", vec![Primitive::SetPriority(Priority::Latency)]),
        });

        let mut route = Table::new(
            "route",
            MatchKind::Exact(vec![Field::L4DstPort]),
            Action::named(
                "to-dma",
                vec![Primitive::PushHop {
                    engine: EngineId(9),
                    slack: SlackExpr::Bulk,
                }],
            ),
        );
        route.insert(TableEntry {
            key: MatchKey::Exact(vec![u64::from(KVS_PORT)]),
            priority: 0,
            action: Action::named(
                "kvs-chain",
                vec![
                    Primitive::PushHop {
                        engine: EngineId(4),
                        slack: SlackExpr::ByPriority {
                            latency: 50,
                            normal: 500,
                        },
                    },
                    Primitive::PushHop {
                        engine: EngineId(9),
                        slack: SlackExpr::ByPriority {
                            latency: 100,
                            normal: 1000,
                        },
                    },
                ],
            ),
        });

        ProgramBuilder::new("demo", ParseGraph::standard(KVS_PORT))
            .stage(classify)
            .stage(route)
            .build()
    }

    #[test]
    fn kvs_traffic_gets_priority_and_chain() {
        let mut m = msg_of(udp_frame(KVS_PORT));
        let v = demo_program().process(&mut m);
        assert_eq!(v, Verdict::Forward);
        assert_eq!(m.priority, Priority::Latency);
        assert_eq!(m.chain.len(), 2);
        assert_eq!(m.chain.hops()[0].engine, EngineId(4));
        // Slack came from the ByPriority ladder with latency class.
        assert_eq!({ m.chain.hops()[0].slack }, Slack(50));
        assert_eq!(m.pipeline_passes, 1);
        assert_eq!(m.rx_queue, 0, "no stage selected a receive queue");
    }

    #[test]
    fn other_traffic_is_bulk_to_dma() {
        let mut m = msg_of(udp_frame(80));
        demo_program().process(&mut m);
        assert_eq!(m.priority, Priority::Bulk);
        assert_eq!(m.chain.len(), 1);
        assert_eq!(m.chain.hops()[0].engine, EngineId(9));
        assert_eq!({ m.chain.hops()[0].slack }, Slack::BULK);
    }

    #[test]
    fn drop_leaves_payload_untouched_but_counts_pass() {
        let mut acl = Table::new(
            "acl",
            MatchKind::Exact(vec![Field::L4DstPort]),
            Action::noop(),
        );
        acl.insert(TableEntry {
            key: MatchKey::Exact(vec![23]),
            priority: 0,
            action: Action::drop_msg(),
        });
        let prog = ProgramBuilder::new("acl-only", ParseGraph::standard(KVS_PORT))
            .stage(acl)
            .build();
        let frame = udp_frame(23);
        let mut m = msg_of(frame.clone());
        let v = prog.process(&mut m);
        assert_eq!(v, Verdict::Drop);
        assert_eq!(&m.payload[..], &frame[..]);
        assert!(m.chain.is_empty());
        assert_eq!(m.pipeline_passes, 1);
    }

    #[test]
    fn drop_short_circuits_later_stages() {
        // Stage 1 drops; stage 2 would push a hop. The chain must stay
        // empty and priority unchanged.
        let mut s1 = Table::new("s1", MatchKind::Exact(vec![Field::IpProto]), Action::noop());
        s1.insert(TableEntry {
            key: MatchKey::Exact(vec![17]),
            priority: 0,
            action: Action::drop_msg(),
        });
        let s2 = Table::new(
            "s2",
            MatchKind::Exact(vec![Field::IpProto]),
            Action::named(
                "push",
                vec![Primitive::PushHop {
                    engine: EngineId(1),
                    slack: SlackExpr::Const(1),
                }],
            ),
        );
        let prog = ProgramBuilder::new("p", ParseGraph::standard(KVS_PORT))
            .stage(s1)
            .stage(s2)
            .build();
        let mut m = msg_of(udp_frame(80));
        assert_eq!(prog.process(&mut m), Verdict::Drop);
        assert!(m.chain.is_empty());
    }

    #[test]
    fn recirculate_verdict_propagates() {
        let prog = ProgramBuilder::new("recirc", ParseGraph::standard(KVS_PORT))
            .stage(Table::new(
                "t",
                MatchKind::Exact(vec![Field::IpProto]),
                Action::named(
                    "again",
                    vec![
                        Primitive::PushHop {
                            engine: EngineId(3),
                            slack: SlackExpr::Const(10),
                        },
                        Primitive::Recirculate,
                    ],
                ),
            ))
            .build();
        let mut m = msg_of(udp_frame(80));
        assert_eq!(prog.process(&mut m), Verdict::Recirculate);
        assert_eq!(m.chain.len(), 1);
    }

    #[test]
    fn metadata_visible_to_programs() {
        // A program that routes on MetaPasses: pass 0 -> engine 1,
        // later passes -> engine 2. This is the two-pass IPSec pattern.
        let mut t = Table::new(
            "by-pass",
            MatchKind::Exact(vec![Field::MetaPasses]),
            Action::named(
                "later",
                vec![Primitive::PushHop {
                    engine: EngineId(2),
                    slack: SlackExpr::Const(1),
                }],
            ),
        );
        t.insert(TableEntry {
            key: MatchKey::Exact(vec![0]),
            priority: 0,
            action: Action::named(
                "first",
                vec![Primitive::PushHop {
                    engine: EngineId(1),
                    slack: SlackExpr::Const(1),
                }],
            ),
        });
        let prog = ProgramBuilder::new("p", ParseGraph::standard(KVS_PORT))
            .stage(t)
            .build();
        let mut m = msg_of(udp_frame(80));
        prog.process(&mut m);
        assert_eq!(m.chain.hops()[0].engine, EngineId(1));
        prog.process(&mut m);
        assert_eq!(m.chain.hops()[0].engine, EngineId(2));
        assert_eq!(m.pipeline_passes, 2);
    }

    #[test]
    fn stages_and_name_reported() {
        let p = demo_program();
        assert_eq!(p.stages(), 2);
        assert_eq!(p.name(), "demo");
        // Parser accessor exists and parses (the UDP payload here is
        // not a KVS request, so parsing stops at UDP).
        let out = p.parser().parse(&udp_frame(KVS_PORT));
        assert!(out.has_layer(Layer::Udp));
        assert!(!out.has_layer(Layer::Kvs));
    }

    #[test]
    #[should_panic(expected = "no stages")]
    fn empty_program_rejected() {
        let _ = ProgramBuilder::new("empty", ParseGraph::standard(KVS_PORT)).build();
    }
}
