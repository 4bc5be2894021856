//! §2.2 / §3.2: the tenancy plane's isolation claim, measured.
//!
//! Two tenants share one NIC and one offload chain (IPSec-class
//! crypto at 40 cycles/packet, then compression at 12): a **victim**
//! KVS tenant sending a request every [`VICTIM_PERIOD`] cycles, and an
//! **aggressor** flooding the same chain at one frame every
//! [`AGGRESSOR_PERIOD`] cycles — ~6× the chain's service capacity.
//!
//! On PANIC the tenancy plane (`crates/tenancy`) gives each tenant a
//! virtual NIC: the aggressor's tiny credit quota caps how many of its
//! packets can be *inside* the datapath at once, so the shared crypto
//! queue never fills with its backlog — the excess waits in the
//! aggressor's own vNIC queue (backpressure, not drops). The victim's
//! p99 stays within 1.5× of its solo run. The three §2.3 baselines
//! have no tenant boundary: the pipeline NIC queues the victim FIFO
//! behind the flood (then drops), the manycore NIC saturates its core
//! pool, and the RMT-only NIC melts down recirculating the
//! aggressor's crypto emulation.
//!
//! Everything is strictly periodic and seeded-free: `repro isolation`
//! is deterministic down to the byte.

use baselines::manycore::{ManycoreConfig, ManycoreNic};
use baselines::pipeline_nic::{PipelineNic, PipelineNicConfig, StageSpec};
use baselines::rmt_only::{ComplexPolicy, RmtOnlyConfig, RmtOnlyNic};
use engines::engine::NullOffload;
use engines::ipsec::{encrypt_frame, SecurityAssoc, TunnelConfig};
use engines::tile::TileConfig;
use noc::topology::Topology;
use packet::chain::{EngineClass, EngineId};
use packet::headers::{Ipv4Addr, MacAddr};
use packet::message::{Priority, TenantId};
use panic_core::nic::NicBuilder;
use panic_core::programs::chain_program;
use rmt::pipeline::PipelineConfig;
use sim_core::stats::Summary;
use sim_core::time::Cycles;
use tenancy::{TenancyConfig, VNicSpec};
use workloads::frames::FrameFactory;

use crate::fmt::{f, TableFmt};
use crate::rig::{feed, panic_builder, Dut, Offer};

/// Crypto (IPSec-class) service time, cycles/packet.
const CRYPTO_SERVICE: u64 = 40;
/// Compression service time, cycles/packet.
const COMP_SERVICE: u64 = 12;
/// Victim sends one request every this many cycles (fixed load).
pub const VICTIM_PERIOD: u64 = 400;
/// Aggressor floods one frame every this many cycles — ~6× the
/// chain's `CRYPTO_SERVICE` capacity, a saturating overload.
pub const AGGRESSOR_PERIOD: u64 = 8;
/// The victim KVS tenant.
pub const VICTIM: TenantId = TenantId(1);
/// The flooding tenant.
pub const AGGRESSOR: TenantId = TenantId(2);
/// Post-injection drain budget (cycles) so in-flight victim packets
/// are counted; saturated baselines deliberately don't finish.
const DRAIN: u64 = 20_000;

/// Victim-tenant measurement from one run.
#[derive(Debug, Clone, Copy)]
pub struct VictimPoint {
    /// Victim end-to-end latency (cycles, injection → wire).
    pub latency: Summary,
    /// Victim packets offered.
    pub offered: u64,
    /// Victim packets that made it back to the wire.
    pub delivered: u64,
}

impl VictimPoint {
    /// Delivered / offered.
    #[must_use]
    pub fn delivered_fraction(&self) -> f64 {
        self.delivered as f64 / self.offered.max(1) as f64
    }
}

/// The offered load, for every design: the victim's latency-class
/// request every [`VICTIM_PERIOD`] cycles and, `with_aggressor`, a
/// bulk crypto frame every [`AGGRESSOR_PERIOD`]. The aggressor's need
/// for crypto is the port-443 chain everywhere an engine can serve it;
/// `esp` says it instead arrives ESP-encapsulated — the only form an
/// RMT-only NIC, with no engine to send it to, can recognise.
fn offered_load(with_aggressor: bool, esp: bool) -> impl FnMut(u64, &mut Vec<Offer>) {
    let mut factory = FrameFactory::for_nic_port(0);
    let t = tunnel();
    let mut seq = 0u32;
    move |step, out| {
        if step % VICTIM_PERIOD == 0 {
            let frame = factory.min_frame((step % 50) as u16, 80);
            out.push(Offer::new(VICTIM, Priority::Latency, frame));
        }
        if with_aggressor && step % AGGRESSOR_PERIOD == 0 {
            let mut frame = factory.min_frame((step % 64) as u16, 443);
            if esp {
                seq += 1;
                frame = encrypt_frame(&frame, &t, seq);
            }
            out.push(Offer::new(AGGRESSOR, Priority::Bulk, frame));
        }
    }
}

/// Offers the load to `dut` and drains; counts the victim's offers,
/// and its deliveries by tenant tag on the egress stream. `latency`
/// reads the victim's latency summary off the design afterwards.
fn victim_point<D: Dut>(
    mut dut: D,
    with_aggressor: bool,
    esp: bool,
    cycles: u64,
    latency: impl Fn(&D) -> Summary,
) -> VictimPoint {
    let mut source = offered_load(with_aggressor, esp);
    let (mut offered, mut delivered) = (0u64, 0u64);
    feed(
        &mut dut,
        cycles,
        DRAIN,
        |step, out| {
            source(step, out);
            offered += out.iter().filter(|o| o.tenant == VICTIM).count() as u64;
        },
        |m| delivered += u64::from(m.tenant == VICTIM),
    );
    VictimPoint {
        latency: latency(&dut),
        offered,
        delivered,
    }
}

/// The shared chain's crypto engine, the same in every design.
fn crypto_engine() -> Box<NullOffload> {
    let service = Cycles(CRYPTO_SERVICE);
    Box::new(NullOffload::new("ipsec", EngineClass::Asic, service))
}

/// The shared chain's compression engine, the same in every design.
fn comp_engine() -> Box<NullOffload> {
    let service = Cycles(COMP_SERVICE);
    Box::new(NullOffload::new("comp", EngineClass::Asic, service))
}

/// The two-tenant vNIC table used by the PANIC run: the victim gets
/// the weight and in-flight headroom of a paying latency tenant; the
/// aggressor gets a best-effort weight and a 2-message credit quota,
/// so at most two of its packets ever occupy the shared chain.
#[must_use]
pub fn isolation_tenancy() -> TenancyConfig {
    TenancyConfig::new(vec![
        VNicSpec::new(VICTIM, "victim-kvs", 8).credit_quota(32),
        VNicSpec::new(AGGRESSOR, "aggressor", 1).credit_quota(2),
    ])
    .shared_credits(64)
}

/// PANIC with the shared chain, before its tenancy plane: the
/// reference NIC at 128 bits, the crypto and compression engines, and
/// the crypto→comp program. Returns the builder, the Ethernet port and
/// the compression engine.
pub(crate) fn chain_nic() -> (NicBuilder, EngineId, EngineId) {
    let (mut b, eth) = panic_builder(Topology::mesh(4, 4), 128);
    let tile = TileConfig {
        queue_capacity: 256,
        ..TileConfig::default()
    };
    let crypto = b.engine(crypto_engine(), tile);
    let comp = b.engine(comp_engine(), tile);
    let _ = b.rmt_portal();
    let _ = b.rmt_portal();
    // Flat slack: the engine PIFOs degrade to FIFO, so any isolation
    // measured here is the tenancy plane's doing, not LSTF's.
    b.program(chain_program(&[crypto, comp], eth, Some(5_000)));
    (b, eth, comp)
}

/// PANIC with the tenancy plane: victim latency, solo or contended.
#[must_use]
pub fn panic_point(with_aggressor: bool, cycles: u64) -> VictimPoint {
    let (mut b, eth, _) = chain_nic();
    b.tenancy(isolation_tenancy());
    victim_point((b.build(), eth), with_aggressor, false, cycles, |dut| {
        let tn = dut.0.tenancy().expect("tenancy plane is configured");
        tn.latency(VICTIM).expect("victim vNIC exists").summary()
    })
}

/// The pipeline NIC: both tenants share FIFO stage queues for the
/// same crypto + compression stages. No tenant boundary exists.
#[must_use]
pub fn pipeline_point(with_aggressor: bool, cycles: u64) -> VictimPoint {
    let nic = PipelineNic::new(PipelineNicConfig {
        stages: vec![
            StageSpec {
                offload: crypto_engine(),
                applies_to_ports: None,
            },
            StageSpec {
                offload: comp_engine(),
                applies_to_ports: None,
            },
        ],
        bypass_logic: false,
        stage_queue_capacity: 256,
    });
    victim_point(nic, with_aggressor, false, cycles, |nic| {
        nic.latency_of(Priority::Latency).summary()
    })
}

/// The manycore NIC: every packet pays software orchestration on a
/// shared core pool before the same two engines. The flood saturates
/// the cores; the victim queues (and then drops) behind it.
#[must_use]
pub fn manycore_point(with_aggressor: bool, cycles: u64) -> VictimPoint {
    let nic = ManycoreNic::new(ManycoreConfig {
        cores: 16,
        orchestration_cycles: 5_000,
        engines: vec![(crypto_engine(), None), (comp_engine(), None)],
        core_queue_capacity: 256,
    });
    victim_point(nic, with_aggressor, false, cycles, |nic| {
        nic.latency_of(Priority::Latency).summary()
    })
}

fn tunnel() -> TunnelConfig {
    TunnelConfig {
        sa: SecurityAssoc {
            spi: 0x2002,
            key: 0xdead_c0de_5555_aaaa,
        },
        outer_src_mac: MacAddr::for_port(0xbbbb),
        outer_dst_mac: MacAddr::for_port(0),
        outer_src_ip: Ipv4Addr::new(198, 51, 9, 9),
        outer_dst_ip: Ipv4Addr::new(10, 2, 0, 0),
    }
}

/// The RMT-only NIC: the aggressor's crypto has no engine to run on,
/// so each of its (ESP) frames recirculates ×24 to emulate it —
/// stealing pipeline slots from everyone. The victim's plain requests
/// need a single pass, yet still drown.
#[must_use]
pub fn rmt_only_point(with_aggressor: bool, cycles: u64) -> VictimPoint {
    let nic = RmtOnlyNic::new(RmtOnlyConfig {
        pipeline: PipelineConfig::panic_default(),
        complex: ComplexPolicy::Recirculate { passes: 24 },
    });
    victim_point(nic, with_aggressor, true, cycles, |nic| {
        nic.latency_of(Priority::Latency).summary()
    })
}

/// Regenerates the isolation table.
#[must_use]
pub fn run(ctx: &mut crate::obs::RunCtx) -> String {
    let quick = ctx.quick;
    let cycles = if quick { 40_000 } else { 300_000 };
    let mut t = TableFmt::new(
        "S2.2 / S3.2 — tenant isolation: victim latency with a saturating aggressor \
         on the shared IPSec+comp chain (cycles)",
        &[
            "Design",
            "Solo p50/p99",
            "+aggr p50/p99",
            "p99 blowup",
            "Victim delivered",
        ],
    );
    let mut row = |name: &str, solo: VictimPoint, loaded: VictimPoint| {
        t.row(vec![
            name.into(),
            format!("{}/{}", solo.latency.p50, solo.latency.p99),
            format!("{}/{}", loaded.latency.p50, loaded.latency.p99),
            format!(
                "{:.2}x",
                loaded.latency.p99 as f64 / solo.latency.p99.max(1) as f64
            ),
            f(loaded.delivered_fraction(), 2),
        ]);
    };
    row(
        "PANIC (tenancy plane)",
        panic_point(false, cycles),
        panic_point(true, cycles),
    );
    row(
        "Pipeline NIC (FIFO stages)",
        pipeline_point(false, cycles),
        pipeline_point(true, cycles),
    );
    row(
        "Manycore (16 cores)",
        manycore_point(false, cycles),
        manycore_point(true, cycles),
    );
    row(
        "RMT-only (recirc x24)",
        rmt_only_point(false, cycles),
        rmt_only_point(true, cycles),
    );
    t.note(format!(
        "Aggressor floods 1 frame / {AGGRESSOR_PERIOD} cycles at a {CRYPTO_SERVICE}-cycle \
         crypto engine (~6x capacity); victim sends 1 request / {VICTIM_PERIOD} cycles. \
         PANIC's vNIC credit quota (2 in-flight) keeps the aggressor's backlog out of the \
         shared queues — it waits in its own vNIC queue under backpressure — so the victim's \
         p99 holds within 1.5x of solo while delivering 100%. The baselines have no tenant \
         boundary: the flood owns their shared FIFOs and the victim's tail (or goodput) \
         collapses. Engine PIFOs run with flat slack, so this is the tenancy plane's \
         isolation, not the scheduler's."
    ));
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CYCLES: u64 = 40_000;

    /// Every row calls `offered_load`; it must yield the same frames
    /// each time, and the same steps, tenants and classes whether or
    /// not the aggressor wraps its frames in ESP.
    #[test]
    fn every_design_is_offered_the_same_frames() {
        let offered = |esp| crate::rig::offered(CYCLES, offered_load(true, esp));
        assert_eq!(offered(false), offered(false));
        let shape = |esp| -> Vec<(u64, TenantId, Priority)> {
            let all = offered(esp).into_iter();
            all.map(|(step, o)| (step, o.tenant, o.priority)).collect()
        };
        assert_eq!(shape(false), shape(true));
        let victims = shape(true).iter().filter(|s| s.1 == VICTIM).count();
        assert_eq!(victims as u64, CYCLES / VICTIM_PERIOD);
    }

    /// The headline acceptance criterion: victim p99 on PANIC stays
    /// within 1.5× of its solo p99 under the saturating flood, with
    /// nothing dropped.
    #[test]
    fn panic_victim_p99_within_1p5x_of_solo() {
        let solo = panic_point(false, CYCLES);
        let loaded = panic_point(true, CYCLES);
        assert_eq!(solo.delivered, solo.offered, "solo run must fully drain");
        assert_eq!(
            loaded.delivered, loaded.offered,
            "tenancy backpressures, never drops the victim"
        );
        assert!(
            (loaded.latency.p99 as f64) <= solo.latency.p99 as f64 * 1.5,
            "victim p99 {} exceeds 1.5x solo p99 {}",
            loaded.latency.p99,
            solo.latency.p99
        );
    }

    /// At least one baseline must degrade unboundedly or drop: the
    /// pipeline NIC does both — its shared FIFO fills with the flood.
    #[test]
    fn pipeline_baseline_degrades() {
        let solo = pipeline_point(false, CYCLES);
        let loaded = pipeline_point(true, CYCLES);
        let blown_up = loaded.latency.p99 > solo.latency.p99 * 3;
        let dropping = loaded.delivered_fraction() < 0.9;
        assert!(
            blown_up || dropping,
            "pipeline NIC should blow up or drop: solo p99 {} loaded p99 {} delivered {:.2}",
            solo.latency.p99,
            loaded.latency.p99,
            loaded.delivered_fraction()
        );
    }

    /// The RMT-only NIC collapses recirculating the aggressor's
    /// crypto emulation even though the victim needs one pass.
    #[test]
    fn rmt_only_baseline_degrades() {
        let solo = rmt_only_point(false, CYCLES);
        let loaded = rmt_only_point(true, CYCLES);
        assert!(
            loaded.latency.p99 > solo.latency.p99 * 3 || loaded.delivered_fraction() < 0.9,
            "solo p99 {} loaded p99 {} delivered {:.2}",
            solo.latency.p99,
            loaded.latency.p99,
            loaded.delivered_fraction()
        );
    }

    /// Periodic arrivals, no RNG: the experiment is bit-deterministic.
    #[test]
    fn panic_point_is_deterministic() {
        let a = panic_point(true, 20_000);
        let b = panic_point(true, 20_000);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.delivered, b.delivered);
    }
}
