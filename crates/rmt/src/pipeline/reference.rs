//! The pipeline timing model on a priority queue, as it was before the
//! in-flight set became a FIFO, kept as the oracle of a differential
//! test.
//!
//! [`EventPipeline`] is the previous `RmtPipeline::{submit, tick_into,
//! next_activity, skip_idle}` verbatim — completions scheduled on an
//! [`EventQueue`] at `now + depth` and drained in `(due, seq)` order —
//! minus the tracer and the per-stage counters, which the change did not
//! touch. The proptest below drives it and an [`RmtPipeline`] with one
//! stream of random submits over two parallel pipelines and random
//! depths, through a program that forwards, drops and recirculates, and
//! skips random prefixes of the idle windows the hint opens; after every
//! step it compares the messages that emerged (id, verdict, payload,
//! chain), the counters, the backlog, the occupancy and `next_activity`.

use bytes::Bytes;
use packet::chain::{ChainHeader, EngineId};
use packet::headers::{
    build_udp_frame, ethertype, EthernetHeader, Ipv4Addr, Ipv4Header, MacAddr, UdpHeader,
};
use packet::message::{MessageId, MessageKind};
use packet::phv::Field;
use proptest::prelude::*;
use sim_core::events::EventQueue;
use sim_core::rng::SimRng;
use sim_core::time::Freq;

use super::*;
use crate::action::{Action, Primitive, SlackExpr};
use crate::parse::ParseGraph;
use crate::program::ProgramBuilder;
use crate::table::{MatchKey, MatchKind, Table, TableEntry};

/// The previous pipeline's timing model.
struct EventPipeline {
    config: PipelineConfig,
    compiled: CompiledProgram,
    input: VecDeque<Message>,
    in_flight: EventQueue<PipelineOutput>,
    stats: PipelineStats,
    scratch: ProgramScratch,
}

impl EventPipeline {
    fn new(config: PipelineConfig, program: &RmtProgram) -> EventPipeline {
        EventPipeline {
            config,
            compiled: CompiledProgram::compile(program),
            input: VecDeque::new(),
            in_flight: EventQueue::new(),
            stats: PipelineStats::default(),
            scratch: ProgramScratch::default(),
        }
    }

    fn submit(&mut self, msg: Message) {
        self.input.push_back(msg);
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if !self.input.is_empty() {
            Some(now.next())
        } else {
            self.in_flight.next_due().map(|due| due.max(now.next()))
        }
    }

    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        assert!(self.input.is_empty());
        assert!(self.in_flight.next_due().is_none_or(|due| due >= to));
        let skipped = to.0.saturating_sub(from.0);
        self.stats.idle_slots += skipped * u64::from(self.config.parallel);
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<PipelineOutput>) {
        out.clear();
        for _ in 0..self.config.parallel {
            match self.input.pop_front() {
                Some(mut msg) => {
                    self.stats.accepted += 1;
                    let verdict = self.compiled.process_scratch(
                        &mut msg,
                        &mut self.scratch,
                        &mut |_, _, _| {},
                    );
                    match verdict {
                        Verdict::Drop => {
                            self.stats.dropped += 1;
                        }
                        v => {
                            if v == Verdict::Recirculate {
                                self.stats.recirculated += 1;
                            }
                            self.in_flight.schedule(
                                now + Cycles(u64::from(self.config.depth)),
                                PipelineOutput { msg, verdict: v },
                            );
                        }
                    }
                }
                None => self.stats.idle_slots += 1,
            }
        }
        self.in_flight.drain_due_into(now, out);
        self.stats.emitted += out.len() as u64;
    }
}

/// UDP to `port`, one payload byte.
fn frame(port: u16) -> Bytes {
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
            src: Ipv4Addr::new(1, 0, 0, 1),
            dst: Ipv4Addr::new(1, 0, 0, 2),
        },
        UdpHeader {
            src_port: 9,
            dst_port: port,
            len: 0,
            checksum: 0,
        },
        b"x",
    )
}

/// Port 23 drops, port 4789 recirculates, everything else is routed to
/// engine 1.
fn mixed_program() -> RmtProgram {
    let mut t = Table::new(
        "t",
        MatchKind::Exact(vec![Field::L4DstPort]),
        Action::named(
            "route",
            vec![Primitive::PushHop {
                engine: EngineId(1),
                slack: SlackExpr::Const(5),
            }],
        ),
    );
    t.insert(TableEntry {
        key: MatchKey::Exact(vec![23]),
        priority: 0,
        action: Action::drop_msg(),
    });
    t.insert(TableEntry {
        key: MatchKey::Exact(vec![4789]),
        priority: 0,
        action: Action::named(
            "again",
            vec![
                Primitive::PushHop {
                    engine: EngineId(2),
                    slack: SlackExpr::Const(9),
                },
                Primitive::Recirculate,
            ],
        ),
    });
    ProgramBuilder::new("mixed", ParseGraph::standard(6379))
        .stage(t)
        .build()
}

/// What a comparison reads of an emerging message.
fn view(o: &PipelineOutput) -> (MessageId, Verdict, Bytes, ChainHeader) {
    (
        o.msg.id,
        o.verdict,
        o.msg.payload.clone(),
        o.msg.chain.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The FIFO pipeline is the `EventQueue` pipeline: same messages
    /// out on the same cycles, same counters, same hint, whether the
    /// cycles are ticked or skipped.
    #[test]
    fn fifo_pipeline_matches_event_queue(
        seed in any::<u64>(),
        parallel in 1u32..=2,
        depth in 1u32..=20,
        load in 1u64..=4,
    ) {
        let mut rng = SimRng::new(seed);
        let config = PipelineConfig { parallel, depth, freq: Freq::mhz(500) };
        let program = mixed_program();
        let mut fifo = RmtPipeline::new(config, program.clone());
        let mut oracle = EventPipeline::new(config, &program);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut next_id = 0;
        let mut now = Cycle(0);
        while now.0 < 2_000 {
            // A burst of 1..=load submits, on half the cycles ticked.
            if rng.gen_range(2) == 0 {
                for _ in 0..=rng.gen_range(load) {
                    let port = [80, 23, 4789, 443][rng.gen_range(4) as usize];
                    let msg = || {
                        Message::builder(MessageId(next_id), MessageKind::EthernetFrame)
                            .payload(frame(port))
                            .build()
                    };
                    fifo.submit(msg());
                    oracle.submit(msg());
                    next_id += 1;
                }
            }
            fifo.tick_into(now, &mut got);
            oracle.tick_into(now, &mut want);
            let got_view: Vec<_> = got.iter().map(view).collect();
            let want_view: Vec<_> = want.iter().map(view).collect();
            prop_assert_eq!(got_view, want_view, "cycle {}", now.0);
            let hint = fifo.next_activity(now);
            prop_assert_eq!(hint, oracle.next_activity(now), "hint at cycle {}", now.0);
            prop_assert_eq!(fifo.backlog(), oracle.input.len());
            prop_assert_eq!(fifo.occupancy(), oracle.in_flight.len());
            let (a, b) = (fifo.stats(), oracle.stats);
            prop_assert_eq!(
                (a.accepted, a.emitted, a.dropped, a.recirculated, a.idle_slots),
                (b.accepted, b.emitted, b.dropped, b.recirculated, b.idle_slots),
                "counters at cycle {}", now.0
            );
            // Skip a random prefix of the idle window the hint opens
            // (an empty pipeline's next 16 cycles at most).
            let wake = hint.unwrap_or(Cycle(now.0 + 16));
            let to = Cycle(now.0 + 1 + rng.gen_range(wake.0 - now.0));
            if to.0 > now.0 + 1 {
                fifo.skip_idle(now.next(), to);
                oracle.skip_idle(now.next(), to);
            }
            now = to;
        }
        let s = oracle.stats;
        prop_assert!(s.dropped > 0 && s.recirculated > 0 && s.emitted > 0, "{:?}", s);
    }
}
