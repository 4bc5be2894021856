//! Canonical RMT programs for the PANIC NIC.
//!
//! §4.1: the pipeline is "programmed similarly to how current RMT
//! switches are programmed". These builders are the programs the
//! paper's discussion implies:
//!
//! * [`kvs_program`] — the full §3.2 walk-through: priority
//!   classification, IPSec detour, KVS cache routing, reply egress
//!   with WAN re-encryption, host delivery with queue selection, and
//!   slack computation per hop.
//! * [`chain_program`] — route every frame through a fixed chain of
//!   engines then to an egress; the unit of the Table 3 / HOL
//!   experiments.
//! * [`host_delivery_program`] — the null NIC: everything to the DMA
//!   engine.

use packet::chain::EngineId;
use packet::message::Priority;
use packet::phv::Field;
use rmt::action::{Action, Primitive, SlackExpr};
use rmt::parse::ParseGraph;
use rmt::program::{ProgramBuilder, RmtProgram};
use rmt::table::{MatchKey, MatchKind, Table, TableEntry};
use workloads::frames::ports;

/// Slack budgets per priority class, in cycles. The defaults give a
/// latency-class message a tight budget at every hop and let bulk wait
/// indefinitely (§3.1.3).
#[derive(Debug, Clone, Copy)]
pub struct SlackProfile {
    /// Budget for the latency class.
    pub latency: u32,
    /// Budget for the normal class.
    pub normal: u32,
}

impl Default for SlackProfile {
    fn default() -> Self {
        SlackProfile {
            latency: 200,
            normal: 2000,
        }
    }
}

impl SlackProfile {
    /// A flat profile: every class gets the same budget, reducing the
    /// per-engine PIFO to FIFO order.
    #[must_use]
    pub fn flat(budget: u32) -> SlackProfile {
        SlackProfile {
            latency: budget,
            normal: budget,
        }
    }

    /// The slack expression for chain hops.
    #[must_use]
    pub fn expr(self) -> SlackExpr {
        SlackExpr::ByPriority {
            latency: self.latency,
            normal: self.normal,
        }
    }
}

/// Engine addresses the KVS program routes between.
#[derive(Debug, Clone)]
pub struct KvsProgramSpec {
    /// The IPSec engine (decrypt inbound, encrypt outbound WAN).
    pub ipsec: EngineId,
    /// The KVS location-cache engine.
    pub kvs_cache: EngineId,
    /// The DMA engine (host delivery).
    pub dma: EngineId,
    /// Egress port for LAN-addressed frames.
    pub eth_lan: EngineId,
    /// Egress port for WAN-addressed frames.
    pub eth_wan: EngineId,
    /// Tenants whose traffic is latency-class.
    pub latency_tenants: Vec<u16>,
    /// Slack budgets.
    pub slack: SlackProfile,
}

/// Builds the §3.2 KVS program (three stages).
///
/// * Stage 1 `classify`: tenant → priority class.
/// * Stage 2 `route`: ESP → IPSec engine; KVS GET/SET → cache engine;
///   KVS Reply → handled by stage 3; everything else → DMA with an RX
///   queue from the tenant id.
/// * Stage 3 `egress`: Reply frames to the WAN prefix go through the
///   IPSec engine then the WAN port; other replies to the LAN port.
#[must_use]
pub fn kvs_program(spec: &KvsProgramSpec) -> RmtProgram {
    let slack = spec.slack.expr();

    // Stage 1: classify priority by tenant.
    let mut classify = Table::new(
        "classify",
        MatchKind::Exact(vec![Field::KvsTenant]),
        Action::named("normal", vec![Primitive::SetPriority(Priority::Normal)]),
    );
    for &t in &spec.latency_tenants {
        classify.insert(TableEntry {
            key: MatchKey::Exact(vec![u64::from(t)]),
            priority: 0,
            action: Action::named(
                "latency-class",
                vec![Primitive::SetPriority(Priority::Latency)],
            ),
        });
    }

    // Stage 2: route on (IpProto, KvsOp).
    let mut route = Table::new(
        "route",
        MatchKind::Ternary(vec![Field::IpProto, Field::KvsOp]),
        Action::named(
            "to-host",
            vec![
                Primitive::CopyField {
                    from: Field::KvsTenant,
                    to: Field::MetaRxQueue,
                },
                Primitive::PushHop {
                    engine: spec.dma,
                    slack,
                },
            ],
        ),
    );
    route.insert(TableEntry {
        // ESP: decrypt first; the IPSec engine reinjects for pass 2.
        key: MatchKey::Ternary(vec![(50, 0xff), (0, 0)]),
        priority: 100,
        action: Action::named(
            "to-ipsec",
            vec![Primitive::PushHop {
                engine: spec.ipsec,
                slack,
            }],
        ),
    });
    for op in [1u64, 2, 3] {
        // GET / SET / DEL all start at the cache engine, whose local
        // table routes onward (hit -> RDMA, miss/SET/DEL -> DMA).
        route.insert(TableEntry {
            key: MatchKey::Ternary(vec![(17, 0xff), (op, 0xff)]),
            priority: 50,
            action: Action::named(
                "to-kvs-cache",
                vec![
                    Primitive::CopyField {
                        from: Field::KvsTenant,
                        to: Field::MetaRxQueue,
                    },
                    Primitive::PushHop {
                        engine: spec.kvs_cache,
                        slack,
                    },
                ],
            ),
        });
    }
    route.insert(TableEntry {
        // Replies: no hop here; stage 3 owns egress.
        key: MatchKey::Ternary(vec![(17, 0xff), (4, 0xff)]),
        priority: 50,
        action: Action::noop(),
    });

    // Stage 3: egress for replies.
    let mut egress = Table::new(
        "egress",
        MatchKind::Ternary(vec![Field::KvsOp, Field::IpDst]),
        Action::noop(),
    );
    egress.insert(TableEntry {
        // Reply to the WAN prefix 198.51.0.0/16: encrypt, then WAN port.
        key: MatchKey::Ternary(vec![(4, 0xff), (0xc633_0000, 0xffff_0000)]),
        priority: 10,
        action: Action::named(
            "reply-wan",
            vec![
                Primitive::PushHop {
                    engine: spec.ipsec,
                    slack,
                },
                Primitive::PushHop {
                    engine: spec.eth_wan,
                    slack,
                },
            ],
        ),
    });
    egress.insert(TableEntry {
        key: MatchKey::Ternary(vec![(4, 0xff), (0, 0)]),
        priority: 5,
        action: Action::named(
            "reply-lan",
            vec![Primitive::PushHop {
                engine: spec.eth_lan,
                slack,
            }],
        ),
    });

    ProgramBuilder::new("kvs", ParseGraph::standard(ports::KVS))
        .stage(classify)
        .stage(route)
        .stage(egress)
        .build()
}

/// Builds a program that routes *every* frame through `chain` and then
/// to `egress`, with `slack` cycles of budget per hop (`None` = bulk).
///
/// # Panics
/// Panics if the chain exceeds [`packet::ChainHeader::MAX_HOPS`] − 1.
#[must_use]
pub fn chain_program(chain: &[EngineId], egress: EngineId, slack: Option<u32>) -> RmtProgram {
    let expr = match slack {
        Some(s) => SlackExpr::Const(s),
        None => SlackExpr::Bulk,
    };
    let mut prims: Vec<Primitive> = chain
        .iter()
        .map(|&engine| Primitive::PushHop {
            engine,
            slack: expr,
        })
        .collect();
    prims.push(Primitive::PushHop {
        engine: egress,
        slack: expr,
    });
    let table = Table::new(
        "chain-all",
        MatchKind::Exact(vec![Field::EthType]),
        Action::named("chain", prims),
    );
    ProgramBuilder::new("chain", ParseGraph::standard(ports::KVS))
        .stage(table)
        .build()
}

/// Builds the null program: every frame straight to `dma` for host
/// delivery, RX queue from the tenant field when present. `slack`
/// controls the scheduler: distinct budgets give LSTF priority;
/// equal budgets degrade the PIFO to FIFO (the scheduler-ablation
/// baseline).
#[must_use]
pub fn host_delivery_program(dma: EngineId, slack: SlackProfile) -> RmtProgram {
    let table = Table::new(
        "host-all",
        MatchKind::Exact(vec![Field::EthType]),
        Action::named(
            "to-host",
            vec![
                Primitive::CopyField {
                    from: Field::KvsTenant,
                    to: Field::MetaRxQueue,
                },
                Primitive::PushHop {
                    engine: dma,
                    slack: slack.expr(),
                },
            ],
        ),
    );
    ProgramBuilder::new("host-delivery", ParseGraph::standard(ports::KVS))
        .stage(table)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use packet::headers::Ipv4Addr;
    use packet::kvs::{KvsFrame, KvsRequest};
    use packet::message::{Message, MessageId, MessageKind, TenantId};
    use rmt::action::Verdict;
    use workloads::frames::FrameFactory;

    fn spec() -> KvsProgramSpec {
        KvsProgramSpec {
            ipsec: EngineId(10),
            kvs_cache: EngineId(11),
            dma: EngineId(12),
            eth_lan: EngineId(0),
            eth_wan: EngineId(1),
            latency_tenants: vec![1],
            slack: SlackProfile::default(),
        }
    }

    fn msg_of(frame: Bytes) -> Message {
        Message::builder(MessageId(1), MessageKind::EthernetFrame)
            .payload(frame)
            .tenant(TenantId(1))
            .build()
    }

    #[test]
    fn kvs_get_routes_to_cache_with_latency_class() {
        let prog = kvs_program(&spec());
        let mut f = FrameFactory::for_nic_port(0);
        let req = KvsRequest::get(1, 5, 42);
        let frame = f.inbound_udp(
            FrameFactory::lan_client_ip(1),
            9,
            ports::KVS,
            &req.encode(),
            64,
        );
        let mut m = msg_of(frame);
        assert_eq!(prog.process(&mut m), Verdict::Forward);
        assert_eq!(m.priority, Priority::Latency);
        assert_eq!(m.chain.len(), 1);
        assert_eq!(m.chain.hops()[0].engine, EngineId(11));
        // Latency-class slack applied.
        assert_eq!({ m.chain.hops()[0].slack }.0, 200);
        // RX queue selected from tenant.
        assert_eq!(m.rx_queue, 1);
    }

    #[test]
    fn other_tenant_is_normal_class() {
        let prog = kvs_program(&spec());
        let mut f = FrameFactory::for_nic_port(0);
        let req = KvsRequest::get(7, 5, 42);
        let frame = f.inbound_udp(
            FrameFactory::lan_client_ip(7),
            9,
            ports::KVS,
            &req.encode(),
            64,
        );
        let mut m = msg_of(frame);
        prog.process(&mut m);
        assert_eq!(m.priority, Priority::Normal);
        assert_eq!({ m.chain.hops()[0].slack }.0, 2000);
    }

    #[test]
    fn esp_routes_to_ipsec_without_parsing_inner() {
        let prog = kvs_program(&spec());
        // Build an ESP frame (garbage ciphertext is fine for routing).
        let frame = packet::headers::build_esp_frame(
            packet::headers::EthernetHeader {
                dst: packet::headers::MacAddr::for_port(0),
                src: packet::headers::MacAddr::for_port(1),
                ethertype: packet::headers::ethertype::IPV4,
            },
            packet::headers::Ipv4Header {
                tos: 0,
                total_len: 0,
                ident: 0,
                ttl: 64,
                protocol: 0,
                src: packet::headers::Ipv4Addr::new(198, 51, 0, 1),
                dst: packet::headers::Ipv4Addr::new(10, 1, 0, 0),
            },
            packet::headers::EspHeader { spi: 1, seq: 1 },
            &[0xAA; 32],
        );
        let mut m = msg_of(frame);
        prog.process(&mut m);
        assert_eq!(m.chain.len(), 1);
        assert_eq!(m.chain.hops()[0].engine, EngineId(10));
    }

    /// The NIC's reply to a GET from `client`, as the RDMA engine or
    /// the host sends it.
    fn reply_to(client: Ipv4Addr) -> Message {
        let get = KvsRequest::get(1, 5, 42).encode();
        let frame = FrameFactory::for_nic_port(0).inbound_udp(client, 9, ports::KVS, &get, 64);
        msg_of(
            KvsFrame::parse(&frame)
                .expect("a GET")
                .reply(Bytes::from_static(b"v")),
        )
    }

    #[test]
    fn reply_to_wan_gets_encrypt_hop() {
        let prog = kvs_program(&spec());
        let mut m = reply_to(FrameFactory::wan_client_ip(7));
        prog.process(&mut m);
        assert_eq!(m.chain.len(), 2);
        assert_eq!(m.chain.hops()[0].engine, EngineId(10)); // ipsec
        assert_eq!(m.chain.hops()[1].engine, EngineId(1)); // eth_wan
    }

    #[test]
    fn reply_to_lan_goes_straight_out() {
        let prog = kvs_program(&spec());
        let mut m = reply_to(FrameFactory::lan_client_ip(7));
        prog.process(&mut m);
        assert_eq!(m.chain.len(), 1);
        assert_eq!(m.chain.hops()[0].engine, EngineId(0)); // eth_lan
    }

    #[test]
    fn non_kvs_udp_goes_to_host() {
        let prog = kvs_program(&spec());
        let mut f = FrameFactory::for_nic_port(0);
        let frame = f.min_frame(3, ports::BULK);
        let mut m = msg_of(frame);
        prog.process(&mut m);
        assert_eq!(m.chain.len(), 1);
        assert_eq!(m.chain.hops()[0].engine, EngineId(12)); // dma
    }

    #[test]
    fn chain_program_pushes_all_hops() {
        let prog = chain_program(
            &[EngineId(3), EngineId(4), EngineId(5)],
            EngineId(0),
            Some(99),
        );
        let mut f = FrameFactory::for_nic_port(0);
        let mut m = msg_of(f.min_frame(0, 80));
        prog.process(&mut m);
        assert_eq!(m.chain.len(), 4);
        let hops: Vec<u16> = m.chain.hops().iter().map(|h| h.engine.0).collect();
        assert_eq!(hops, vec![3, 4, 5, 0]);
        assert!(m.chain.hops().iter().all(|h| h.slack.0 == 99));
    }

    #[test]
    fn chain_program_bulk_slack() {
        let prog = chain_program(&[], EngineId(0), None);
        let mut f = FrameFactory::for_nic_port(0);
        let mut m = msg_of(f.min_frame(0, 80));
        prog.process(&mut m);
        assert_eq!(m.chain.len(), 1);
        assert_eq!({ m.chain.hops()[0].slack }, packet::chain::Slack::BULK);
    }

    #[test]
    fn host_delivery_program_routes_everything_to_dma() {
        let prog = host_delivery_program(EngineId(9), SlackProfile::default());
        let mut f = FrameFactory::for_nic_port(0);
        for port in [ports::KVS, ports::ECHO, ports::BULK] {
            let mut m = msg_of(f.min_frame(0, port));
            prog.process(&mut m);
            assert_eq!(m.chain.hops()[0].engine, EngineId(9));
        }
    }
}
