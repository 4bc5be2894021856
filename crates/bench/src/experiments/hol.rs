//! §2.3.1 / Figure 2a: head-of-line blocking in the pipelined NIC.
//!
//! Two flows share the NIC: port-443 "crypto" traffic that needs a
//! slow offload (40 cycles/packet) and port-80 latency probes that
//! need nothing. In the pipeline NIC the probes queue FIFO behind
//! crypto packets at the slow stage — even with bypass logic — so
//! their tail latency inherits the crypto service time. In PANIC the
//! pipeline routes probes straight to the egress port; they never
//! visit the slow engine's queue.

use baselines::pipeline_nic::{PipelineNic, PipelineNicConfig, StageSpec};
use engines::engine::NullOffload;
use engines::tile::TileConfig;
use noc::topology::Topology;
use packet::chain::{EngineClass, EngineId};
use packet::message::{Priority, TenantId};
use packet::phv::Field;
use panic_core::nic::PanicNic;
use rmt::action::{Action, Primitive, SlackExpr};
use rmt::parse::ParseGraph;
use rmt::program::ProgramBuilder;
use rmt::table::{MatchKey, MatchKind, Table, TableEntry};
use sim_core::rng::SimRng;
use sim_core::stats::Summary;
use sim_core::time::Cycles;
use workloads::frames::FrameFactory;

use crate::fmt::TableFmt;
use crate::rig::{feed, panic_builder, Offer};

const SLOW_SERVICE: u64 = 60;
/// Bernoulli per-cycle arrival probability (randomized so queueing
/// actually occurs; strictly periodic arrivals never overlap).
const ARRIVAL_P: f64 = 1.0 / 75.0;
const CRYPTO_PORT: u16 = 443;
const PROBE_PORT: u16 = 80;

/// The offered load, for every design: Bernoulli arrivals, each a
/// bulk crypto frame with probability `crypto_share`, else a latency
/// probe.
fn offered_load(crypto_share: f64, seed: u64) -> impl FnMut(u64, &mut Vec<Offer>) {
    let mut rng = SimRng::new(seed);
    let mut factory = FrameFactory::for_nic_port(0);
    move |_step, out| {
        if rng.gen_bool(ARRIVAL_P) {
            let crypto = rng.gen_bool(crypto_share);
            let (priority, port) = if crypto {
                (Priority::Bulk, CRYPTO_PORT)
            } else {
                (Priority::Latency, PROBE_PORT)
            };
            let frame = factory.min_frame(1, port);
            out.push(Offer::new(TenantId(u16::from(crypto)), priority, frame));
        }
    }
}

/// The pipeline NIC: one slow crypto stage, bypass logic on.
fn pipeline_nic() -> PipelineNic {
    PipelineNic::new(PipelineNicConfig {
        stages: vec![StageSpec {
            offload: Box::new(NullOffload::new(
                "crypto",
                EngineClass::Asic,
                Cycles(SLOW_SERVICE),
            )),
            applies_to_ports: Some(vec![CRYPTO_PORT]),
        }],
        bypass_logic: true,
        stage_queue_capacity: 256,
    })
}

/// PANIC with the same slow engine, and the Ethernet port it receives
/// on.
fn panic_nic() -> (PanicNic, EngineId) {
    let (mut b, eth) = panic_builder(Topology::mesh(4, 4), 64);
    let slow = b.engine(
        Box::new(NullOffload::new(
            "crypto",
            EngineClass::Asic,
            Cycles(SLOW_SERVICE),
        )),
        TileConfig {
            queue_capacity: 256,
            ..TileConfig::default()
        },
    );
    let _ = b.rmt_portal();
    let _ = b.rmt_portal();
    // Program: crypto traffic chains through the slow engine; probes
    // go straight to egress.
    let mut route = Table::new(
        "route",
        MatchKind::Exact(vec![Field::L4DstPort]),
        Action::named(
            "direct",
            vec![Primitive::PushHop {
                engine: eth,
                slack: SlackExpr::Const(100),
            }],
        ),
    );
    route.insert(TableEntry {
        key: MatchKey::Exact(vec![u64::from(CRYPTO_PORT)]),
        priority: 0,
        action: Action::named(
            "via-crypto",
            vec![
                Primitive::PushHop {
                    engine: slow,
                    slack: SlackExpr::Bulk,
                },
                Primitive::PushHop {
                    engine: eth,
                    slack: SlackExpr::Bulk,
                },
            ],
        ),
    });
    b.program(
        ProgramBuilder::new("hol", ParseGraph::standard(6379))
            .stage(route)
            .build(),
    );
    (b.build(), eth)
}

/// Victim (probe) latency under the pipeline NIC.
#[must_use]
pub fn pipeline_victim_latency(crypto_share: f64, cycles: u64, seed: u64) -> Summary {
    let mut nic = pipeline_nic();
    let load = offered_load(crypto_share, seed);
    feed(&mut nic, cycles, 0, load, |_| {});
    nic.latency_of(Priority::Latency).summary()
}

/// Victim (probe) latency under PANIC with the same engines and load.
#[must_use]
pub fn panic_victim_latency(crypto_share: f64, cycles: u64, seed: u64) -> Summary {
    let mut dut = panic_nic();
    let load = offered_load(crypto_share, seed);
    feed(&mut dut, cycles, 0, load, |_| {});
    dut.0.stats().latency_of(Priority::Latency).summary()
}

/// With `--trace` / `--metrics`: the 50 % row again on both designs,
/// observed — the pipeline NIC's `baseline.bypass` spans that start
/// late are probes stuck behind a crypto packet; PANIC's probes never
/// appear on the crypto tile's track (docs/TRACING.md, step 5).
fn observe(ctx: &mut crate::obs::RunCtx) {
    let cycles = if ctx.quick { 3_000 } else { 10_000 };
    let mut pipe = pipeline_nic();
    pipe.attach_tracer(&ctx.tracer);
    feed(&mut pipe, cycles, 0, offered_load(0.5, 3), |_| {});
    let mut dut = panic_nic();
    dut.0.attach_tracer(&ctx.tracer);
    feed(&mut dut, cycles, 0, offered_load(0.5, 3), |_| {});
    if ctx.collect_metrics {
        pipe.export_metrics(&mut ctx.metrics, "baseline.pipe");
        dut.0.export_metrics(&mut ctx.metrics);
    }
}

/// Regenerates the HOL-blocking comparison.
#[must_use]
pub fn run(ctx: &mut crate::obs::RunCtx) -> String {
    let quick = ctx.quick;
    let cycles = if quick { 30_000 } else { 300_000 };
    let mut t = TableFmt::new(
        "Fig 2a claim — probe-traffic latency vs crypto share (cycles)",
        &[
            "Crypto share",
            "Pipeline NIC p50",
            "Pipeline NIC p99",
            "PANIC p50",
            "PANIC p99",
        ],
    );
    for share in [0.0, 0.2, 0.5, 0.8] {
        let p = pipeline_victim_latency(share, cycles, 3);
        let k = panic_victim_latency(share, cycles, 3);
        t.row(vec![
            format!("{:.0}%", share * 100.0),
            p.p50.to_string(),
            p.p99.to_string(),
            k.p50.to_string(),
            k.p99.to_string(),
        ]);
    }
    t.note(
        "Probes never use the slow offload. The pipeline NIC still queues them FIFO behind \
         60-cycle crypto packets (bypass logic enabled), so probe tail latency grows with the \
         crypto share; PANIC routes probes past the engine entirely — their latency is the \
         flat pipeline+mesh cost and does not grow.",
    );
    if ctx.observing() {
        observe(ctx);
        t.note(
            "Observed window: the 50% row ran again on both designs with the tracer attached; \
             the --trace/--metrics artifacts hold the pipeline NIC's stage and bypass spans \
             (baseline.pipe.*) beside PANIC's router, engine, scheduler and RMT events (nic.*).",
        );
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both columns call `offered_load(share, seed)`; it must be a
    /// pure function of those for the rows to compare like with like.
    #[test]
    fn both_designs_are_offered_the_same_frames() {
        let a = crate::rig::offered(20_000, offered_load(0.5, 3));
        assert_eq!(a, crate::rig::offered(20_000, offered_load(0.5, 3)));
        let probes = a
            .iter()
            .filter(|(_, o)| o.priority == Priority::Latency)
            .count();
        assert!(
            probes > 50 && a.len() - probes > 50,
            "{probes} of {}",
            a.len()
        );
    }

    #[test]
    fn pipeline_probe_latency_grows_with_crypto_share() {
        let clean = pipeline_victim_latency(0.0, 40_000, 1);
        let dirty = pipeline_victim_latency(0.8, 40_000, 1);
        assert!(
            dirty.p99 > clean.p99 + SLOW_SERVICE / 2,
            "clean p99 {} vs dirty p99 {}",
            clean.p99,
            dirty.p99
        );
    }

    #[test]
    fn panic_probe_latency_is_flat_in_crypto_share() {
        let clean = panic_victim_latency(0.0, 40_000, 1);
        let dirty = panic_victim_latency(0.8, 40_000, 1);
        // PANIC probes never touch the slow engine; allow small noise.
        assert!(
            (dirty.p99 as f64) < clean.p99 as f64 * 1.5 + 20.0,
            "clean p99 {} vs dirty p99 {}",
            clean.p99,
            dirty.p99
        );
    }

    #[test]
    fn panic_beats_pipeline_under_load() {
        let p = pipeline_victim_latency(0.8, 40_000, 2);
        let k = panic_victim_latency(0.8, 40_000, 2);
        assert!(
            k.p99 < p.p99,
            "PANIC p99 {} should beat pipeline p99 {}",
            k.p99,
            p.p99
        );
    }
}
