//! Scratch hygiene: nothing of one message survives into the next.
//!
//! The stages rewrite the PHV **in place** in the pipeline's
//! [`ProgramScratch`], and a pass leaves it there — mutated, also on a
//! `Drop` verdict — for the next pass's parse to reset. The hazard that
//! introduces is a leak: a field frame A parsed or a stage set for it
//! (a KVS tenant, a receive queue, an ESP sequence number) still
//! present when frame B, which has no such header, is matched. So:
//! frame A then frame B through one scratch must leave exactly what B
//! leaves through a fresh scratch — verdict, observer sequence, the
//! descriptor on the message, the deparsed bytes **and the whole PHV**
//! — for the interpreter and for the compiled program.
//!
//! Mutation-checked: skipping the `out.phv = Phv::new()` reset in
//! `ParseGraph::parse_into` fails the interpreter legs of both tests
//! below, skipping it in `CompiledParser::parse_into` the compiled
//! legs (docs/PERF.md §11 lists the mutants).

use bytes::Bytes;
use packet::chain::EngineId;
use packet::headers::{
    build_esp_frame, build_udp_frame, ethertype, EspHeader, EthernetHeader, Ipv4Addr, Ipv4Header,
    MacAddr, UdpHeader,
};
use packet::kvs::KvsRequest;
use packet::message::{Message, MessageId, MessageKind, Priority};
use packet::phv::{Field, Phv};
use proptest::prelude::*;
use rmt::action::{Action, Primitive, SlackExpr, Verdict};
use rmt::compile::CompiledProgram;
use rmt::parse::ParseGraph;
use rmt::program::{ProgramBuilder, ProgramScratch, RmtProgram};
use rmt::table::{MatchKey, MatchKind, Table, TableEntry};

const KVS_PORT: u16 = 6379;
/// The ACL stage drops this UDP port.
const DROPPED_PORT: u16 = 23;

fn eth(ethertype: u16) -> EthernetHeader {
    EthernetHeader {
        dst: MacAddr::for_port(0),
        src: MacAddr::for_port(1),
        ethertype,
    }
}

fn ip(ident: u16) -> Ipv4Header {
    Ipv4Header {
        tos: 0,
        total_len: 0,
        ident,
        ttl: 64,
        protocol: 0,
        src: Ipv4Addr::new(10, 0, 0, 1),
        dst: Ipv4Addr::new(10, 0, 0, 2),
    }
}

fn udp_over(ethertype: u16, dst_port: u16, body: &[u8]) -> Bytes {
    let header = UdpHeader {
        src_port: 1000,
        dst_port,
        len: 0,
        checksum: 0,
    };
    build_udp_frame(eth(ethertype), ip(7), header, body)
}

fn udp(dst_port: u16, body: &[u8]) -> Bytes {
    udp_over(ethertype::IPV4, dst_port, body)
}

/// One frame per parser path, picked by `kind`, its fields drawn from
/// `a` / `b` / `c`: KVS GET, KVS SET, plain UDP, the ACL-dropped port,
/// ESP (terminal), ARP (Ethernet only), a truncated frame, a corrupt
/// IPv4 checksum.
fn frame(kind: u8, a: u16, b: u32, c: u64) -> Bytes {
    match kind % 8 {
        0 => udp(KVS_PORT, &KvsRequest::get(a, b, c).encode()),
        1 => {
            let value = Bytes::from(c.to_be_bytes().to_vec());
            udp(KVS_PORT, &KvsRequest::set(a, b, c, value).encode())
        }
        2 => udp(a.max(1024), &c.to_be_bytes()),
        3 => udp(DROPPED_PORT, b"telnet"),
        4 => build_esp_frame(
            eth(ethertype::IPV4),
            ip(a),
            EspHeader {
                spi: b,
                seq: c as u32,
            },
            &[0x42; 16],
        ),
        5 => udp_over(ethertype::ARP, KVS_PORT, b""),
        6 => udp(KVS_PORT, &KvsRequest::get(a, b, c).encode()).slice(0..14 + usize::from(a % 30)),
        _ => {
            let mut corrupt = udp(80, b"payload").to_vec();
            corrupt[20] ^= 0x5a;
            Bytes::from(corrupt)
        }
    }
}

/// A program whose stages write back into the PHV, so a pass leaves a
/// vector that differs from the parse: an ACL drop, a receive queue
/// copied from the KVS tenant plus a rewritten TTL and opcode, an ESP
/// sequence bump with a recirculation, and a stage that keys on the
/// receive queue an earlier stage may have set.
fn program() -> RmtProgram {
    let hop = |engine: u16| Primitive::PushHop {
        engine: EngineId(engine),
        slack: SlackExpr::ByPriority {
            latency: 50,
            normal: 500,
        },
    };

    let mut acl = Table::new(
        "acl",
        MatchKind::Exact(vec![Field::L4DstPort]),
        Action::noop(),
    );
    acl.insert(TableEntry {
        key: MatchKey::Exact(vec![u64::from(DROPPED_PORT)]),
        priority: 0,
        // Mutate first, then drop: the dropped pass leaves a dirty PHV.
        action: Action::named(
            "deny",
            vec![
                Primitive::SetField(Field::MetaRxQueue, 31),
                Primitive::SetField(Field::IpTtl, 1),
                Primitive::Drop,
            ],
        ),
    });

    let mut kvs = Table::new(
        "kvs",
        MatchKind::Ternary(vec![Field::KvsOp]),
        Action::named("to-dma", vec![hop(9)]),
    );
    kvs.insert(TableEntry {
        key: MatchKey::Ternary(vec![(0, 0xf8)]),
        priority: 1,
        action: Action::named(
            "to-cache",
            vec![
                Primitive::CopyField {
                    from: Field::KvsTenant,
                    to: Field::MetaRxQueue,
                },
                Primitive::AddField(Field::IpTtl, u64::MAX),
                Primitive::SetField(Field::KvsOp, 4),
                Primitive::SetPriority(Priority::Latency),
                hop(4),
                hop(9),
            ],
        ),
    });

    let mut esp = Table::new(
        "esp",
        MatchKind::Exact(vec![Field::IpProto]),
        Action::noop(),
    );
    esp.insert(TableEntry {
        key: MatchKey::Exact(vec![50]),
        priority: 0,
        action: Action::named(
            "decrypt",
            vec![
                Primitive::AddField(Field::EspSeq, 1),
                Primitive::ClearChain,
                hop(6),
                Primitive::Recirculate,
            ],
        ),
    });

    // Mask 0 on a second field: matches whether or not that field is
    // present, so only the receive queue decides.
    let mut steer = Table::new(
        "steer",
        MatchKind::Ternary(vec![Field::MetaRxQueue, Field::EspSpi]),
        Action::noop(),
    );
    steer.insert(TableEntry {
        key: MatchKey::Ternary(vec![(0, 1), (0, 0)]),
        priority: 0,
        action: Action::named("even-queue", vec![Primitive::SetPriority(Priority::Bulk)]),
    });

    ProgramBuilder::new("hygiene", ParseGraph::standard(KVS_PORT))
        .stage(acl)
        .stage(kvs)
        .stage(esp)
        .stage(steer)
        .build()
}

/// Everything one pass leaves behind.
#[derive(Debug, PartialEq)]
struct Pass {
    verdict: Verdict,
    observed: Vec<(usize, String, bool)>,
    payload: Bytes,
    hops: Vec<(EngineId, u32)>,
    priority: Priority,
    rx_queue: u32,
    pipeline_passes: u16,
    phv: Phv,
}

type Run<'a> =
    &'a dyn Fn(&mut Message, &mut ProgramScratch, &mut dyn FnMut(usize, &str, bool)) -> Verdict;

fn pass(run: Run<'_>, frame: &Bytes, scratch: &mut ProgramScratch) -> Pass {
    let mut msg = Message::builder(MessageId(1), MessageKind::EthernetFrame)
        .payload(frame.clone())
        .source(EngineId(0))
        .build();
    let mut observed = Vec::new();
    let verdict = run(&mut msg, scratch, &mut |stage, name, hit| {
        observed.push((stage, name.to_string(), hit));
    });
    Pass {
        verdict,
        observed,
        payload: msg.payload,
        hops: msg
            .chain
            .hops()
            .iter()
            .map(|h| (h.engine, h.slack.0))
            .collect(),
        priority: msg.priority,
        rx_queue: msg.rx_queue,
        pipeline_passes: msg.pipeline_passes,
        phv: scratch.phv().clone(),
    }
}

/// B after A through one scratch ≡ B through a fresh one, for both
/// executors. Returns A's verdict, so a caller can check its cases
/// cover what they claim to.
fn assert_b_unaffected_by_a(a: &Bytes, b: &Bytes) -> Verdict {
    let program = program();
    let compiled = CompiledProgram::compile(&program);
    let interpreter: Run<'_> = &|m, s, o| program.process_scratch(m, s, o);
    let lowered: Run<'_> = &|m, s, o| compiled.process_scratch(m, s, o);
    let mut verdicts = Vec::new();
    for (name, run) in [("interpreter", interpreter), ("compiled", lowered)] {
        let mut reused = ProgramScratch::default();
        verdicts.push(pass(run, a, &mut reused).verdict);
        let after_a = pass(run, b, &mut reused);
        let fresh = pass(run, b, &mut ProgramScratch::default());
        assert_eq!(after_a, fresh, "{name}: frame A leaked into frame B");
    }
    assert_eq!(verdicts[0], verdicts[1]);
    verdicts[0]
}

/// Every ordered pair of one frame per parser path — including the
/// pairs the hazard is about: A = KVS or ESP (the richest PHVs, a
/// receive queue set, a recirculation) before B = ARP (Ethernet only:
/// nothing of A's may survive), and A dropped mid-program.
#[test]
fn every_pair_of_parser_paths_is_independent() {
    let frames: Vec<Bytes> = (0..8).map(|kind| frame(kind, 0x0305, 77, 0xfeed)).collect();
    let mut a_verdicts = Vec::new();
    for a in &frames {
        for b in &frames {
            a_verdicts.push(assert_b_unaffected_by_a(a, b));
        }
    }
    for v in [Verdict::Forward, Verdict::Drop, Verdict::Recirculate] {
        assert!(a_verdicts.contains(&v), "no frame A ended in {v:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The same over random frame pairs: random KVS tenants, keys and
    /// request ids, ports, ESP fields and truncation points.
    #[test]
    fn a_reused_scratch_is_a_fresh_scratch(
        a in (0u8..8, any::<u16>(), any::<u32>(), any::<u64>()),
        b in (0u8..8, any::<u16>(), any::<u32>(), any::<u64>()),
    ) {
        let a = frame(a.0, a.1, a.2, a.3);
        let b = frame(b.0, b.1, b.2, b.3);
        assert_b_unaffected_by_a(&a, &b);
    }
}
