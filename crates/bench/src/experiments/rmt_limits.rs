//! §2.3.3 / Figure 2c: what happens to an RMT-only NIC as the share of
//! complex (IPSec) traffic grows — versus PANIC, which just adds
//! crypto engines to the mesh.
//!
//! Offered load is fixed at 0.125 packets/cycle (one 128-bit
//! injection channel's worth of ~112-byte ESP frames). The RMT-only
//! design either *punts* ESP to host software (every punted packet
//! defeats the offload and pays ~10 µs) or *emulates* crypto with 24
//! pipeline passes (stealing `F × P` slots from everything — collapse
//! once 0.125 × (1 + 23·share) > 2, share ≳ 0.65). PANIC decrypts on
//! four IPSec engines the pipeline load-balances across, then gives
//! each decrypted packet its second pipeline pass — the §3.1.2
//! target. Runs include a drain phase so punted packets are counted.

use baselines::rmt_only::{ComplexPolicy, RmtOnlyConfig, RmtOnlyNic};
use engines::ipsec::{encrypt_frame, IpsecEngine, SecurityAssoc, TunnelConfig};
use engines::tile::TileConfig;
use noc::topology::Topology;
use packet::headers::{Ipv4Addr, MacAddr};
use packet::message::Priority;
use packet::phv::Field;
use rmt::action::{Action, Primitive, SlackExpr};
use rmt::parse::ParseGraph;
use rmt::pipeline::PipelineConfig;
use rmt::program::ProgramBuilder;
use rmt::table::{MatchKey, MatchKind, Table, TableEntry};
use sim_core::stats::Histogram;
use workloads::frames::FrameFactory;

use crate::fmt::{f, TableFmt};
use crate::rig::{feed, panic_builder, Dut, Offer};

const HOST_CYCLES: u64 = 5000;
const EMULATION_PASSES: u32 = 24;

fn sa() -> SecurityAssoc {
    SecurityAssoc {
        spi: 0x1001,
        key: 0xfeed_beef_1234_5678,
    }
}

fn tunnel() -> TunnelConfig {
    TunnelConfig {
        sa: sa(),
        outer_src_mac: MacAddr::for_port(0xaaaa),
        outer_dst_mac: MacAddr::for_port(0),
        outer_src_ip: Ipv4Addr::new(198, 51, 7, 7),
        outer_dst_ip: Ipv4Addr::new(10, 1, 0, 0),
    }
}

/// One result row.
#[derive(Debug, Clone, Copy)]
pub struct LimitsPoint {
    /// Fraction of offered packets delivered by the end of the run.
    pub delivered_fraction: f64,
    /// p99 latency in cycles across all delivered packets.
    pub p99: u64,
}

/// The offered load, for every design: one ~112-byte-class frame every
/// 8 cycles, a fraction `esp_share` of them ESP-encrypted (error
/// diffusion, so the mix is exact and periodic).
fn offered_load(esp_share: f64) -> impl FnMut(u64, &mut Vec<Offer>) {
    let mut factory = FrameFactory::for_nic_port(0);
    let t = tunnel();
    let mut acc = 0.0;
    let mut seq = 0u32;
    move |step, out| {
        if step % 8 == 0 {
            acc += esp_share;
            let plain = factory.min_frame((step % 64) as u16, 80);
            out.push(Offer::plain(if acc >= 1.0 {
                acc -= 1.0;
                seq += 1;
                encrypt_frame(&plain, &t, seq)
            } else {
                plain
            }));
        }
    }
}

/// Offers the load to `dut`, then drains just long enough for punted
/// packets to come back from the host; a capacity-collapsed backlog
/// deliberately does NOT get to finish, so its delivered fraction
/// stays below 1.
fn point<D: Dut>(
    mut dut: D,
    esp_share: f64,
    cycles: u64,
    latency: impl Fn(&D) -> &Histogram,
) -> LimitsPoint {
    let mut delivered = 0u64;
    let offered = feed(
        &mut dut,
        cycles,
        HOST_CYCLES + 2_000,
        offered_load(esp_share),
        |_| delivered += 1,
    );
    LimitsPoint {
        delivered_fraction: delivered as f64 / offered as f64,
        p99: latency(&dut).quantile(0.99),
    }
}

/// Runs the RMT-only NIC at `esp_share` with the given policy.
#[must_use]
pub fn rmt_only_point(esp_share: f64, policy: ComplexPolicy, cycles: u64) -> LimitsPoint {
    let nic = RmtOnlyNic::new(RmtOnlyConfig {
        pipeline: PipelineConfig::panic_default(),
        complex: policy,
    });
    point(nic, esp_share, cycles, |nic| {
        nic.latency_of(Priority::Normal)
    })
}

/// Runs PANIC with four real IPSec engines at `esp_share`.
#[must_use]
pub fn panic_point(esp_share: f64, cycles: u64) -> LimitsPoint {
    let (mut b, eth) = panic_builder(Topology::mesh(4, 4), 128);
    let mut ipsec_ids = Vec::new();
    for i in 0..4 {
        let mut e = IpsecEngine::new(format!("ipsec{i}"), 1, 2);
        e.install_sa(sa());
        ipsec_ids.push(b.engine(
            Box::new(e),
            TileConfig {
                queue_capacity: 256,
                ..TileConfig::default()
            },
        ));
    }
    let _ = b.rmt_portal();
    let _ = b.rmt_portal();

    // Route: ESP load-balanced across the four engines by the low two
    // bits of the IPv4 ident (§3.1.2's load-balancing role); plaintext
    // straight to the egress port.
    let mut route = Table::new(
        "route",
        MatchKind::Ternary(vec![Field::IpProto, Field::IpIdent]),
        Action::named(
            "direct",
            vec![Primitive::PushHop {
                engine: eth,
                slack: SlackExpr::Const(500),
            }],
        ),
    );
    for (i, &ipsec) in ipsec_ids.iter().enumerate() {
        route.insert(TableEntry {
            key: MatchKey::Ternary(vec![(50, 0xff), (i as u64, 0x3)]),
            priority: 10,
            action: Action::named(
                "to-ipsec",
                vec![Primitive::PushHop {
                    engine: ipsec,
                    slack: SlackExpr::Const(2000),
                }],
            ),
        });
    }
    b.program(
        ProgramBuilder::new("limits", ParseGraph::standard(6379))
            .stage(route)
            .build(),
    );
    point((b.build(), eth), esp_share, cycles, |dut| {
        dut.0.stats().latency_of(Priority::Normal)
    })
}

/// Regenerates the comparison across ESP shares.
#[must_use]
pub fn run(ctx: &mut crate::obs::RunCtx) -> String {
    let quick = ctx.quick;
    let cycles = if quick { 20_000 } else { 200_000 };
    let mut t = TableFmt::new(
        "Fig 2c claim — complex-offload share vs RMT-only and PANIC (0.125 pkt/cycle offered)",
        &[
            "ESP share",
            "RMT punt: frac / p99",
            "RMT recirc x24: frac / p99",
            "PANIC (4 IPSec engines): frac / p99",
        ],
    );
    for share in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let punt = rmt_only_point(
            share,
            ComplexPolicy::Punt {
                host_cycles: HOST_CYCLES,
            },
            cycles,
        );
        let rec = rmt_only_point(
            share,
            ComplexPolicy::Recirculate {
                passes: EMULATION_PASSES,
            },
            cycles,
        );
        let pk = panic_point(share, cycles);
        t.row(vec![
            format!("{:.0}%", share * 100.0),
            format!("{} / {}", f(punt.delivered_fraction, 2), punt.p99),
            format!("{} / {}", f(rec.delivered_fraction, 2), rec.p99),
            format!("{} / {}", f(pk.delivered_fraction, 2), pk.p99),
        ]);
    }
    t.note(format!(
        "Punting pays {HOST_CYCLES} cycles (10us) of host software per ESP packet — the offload \
         is defeated. Recirculating x{EMULATION_PASSES} collapses once 0.125 x (1 + 23*share) \
         exceeds the pipeline's 2 slots/cycle (share > ~0.65). PANIC decrypts on four engines \
         and spends exactly 2 pipeline passes per ESP packet."
    ));
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All three columns call `offered_load(share)`; it must yield the
    /// same frames each time, with exactly `share` of them ESP.
    #[test]
    fn every_design_is_offered_the_same_frames() {
        let a = crate::rig::offered(8_000, offered_load(0.25));
        assert_eq!(a, crate::rig::offered(8_000, offered_load(0.25)));
        let esp = a.iter().filter(|(_, o)| o.frame.len() > 64).count();
        assert_eq!((a.len(), esp), (1_000, 250));
    }

    #[test]
    fn recirculation_collapses_at_high_share() {
        let p = rmt_only_point(
            1.0,
            ComplexPolicy::Recirculate {
                passes: EMULATION_PASSES,
            },
            30_000,
        );
        assert!(p.delivered_fraction < 0.8, "frac {}", p.delivered_fraction);
    }

    #[test]
    fn punt_delivers_but_pays_host_latency() {
        let p = rmt_only_point(
            0.5,
            ComplexPolicy::Punt {
                host_cycles: HOST_CYCLES,
            },
            30_000,
        );
        assert!(p.delivered_fraction > 0.95, "frac {}", p.delivered_fraction);
        // Histogram buckets are lower bounds with <=6% relative error.
        assert!(p.p99 >= HOST_CYCLES * 94 / 100, "p99 {}", p.p99);
    }

    #[test]
    fn panic_sustains_full_esp_share() {
        let p = panic_point(1.0, 30_000);
        assert!(p.delivered_fraction > 0.95, "frac {}", p.delivered_fraction);
        assert!(p.p99 < HOST_CYCLES, "p99 {}", p.p99);
    }
}
